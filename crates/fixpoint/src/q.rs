//! 64-bit Q-format fixed point with a const-generic fraction width.

use crate::rounding::rne_f64;

/// A signed Q-format fixed-point value with `FRAC` fraction bits stored in an
/// `i64`: `value = raw * 2^-FRAC`.
///
/// Addition and subtraction wrap (associative, order-free). Different
/// physical quantities use different `FRAC` widths, mirroring how each
/// datapath on the Anton ASIC was sized individually (paper Figure 4).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Q<const FRAC: u32>(pub i64);

pub type Q20 = Q<20>;

impl<const FRAC: u32> Q<FRAC> {
    pub const ZERO: Self = Q(0);
    pub const ONE: Self = Q(1i64 << FRAC);
    /// Smallest representable increment.
    // detlint::boundary(reason = "grid-spacing constant used only when quantizing at the f64 edge")
    pub const EPSILON: f64 = 1.0 / (1u128 << FRAC) as f64;

    /// Quantize an `f64` with round-to-nearest/even. Debug-asserts that the
    /// value is representable.
    // detlint::boundary(reason = "the f64 -> Q quantization edge; rounds via rne_f64 before any accumulation")
    #[allow(clippy::float_arithmetic, clippy::cast_possible_truncation)]
    #[inline]
    pub fn from_f64(x: f64) -> Self {
        let scaled = rne_f64(x * (1u128 << FRAC) as f64);
        debug_assert!(
            scaled >= i64::MIN as f64 && scaled <= i64::MAX as f64,
            "Q<{FRAC}>::from_f64 overflow: {x}"
        );
        Q(scaled as i64)
    }

    // detlint::boundary(reason = "Q -> f64 decode for diagnostics and kernel interiors; read-only, never accumulated back")
    #[allow(clippy::float_arithmetic)]
    #[inline]
    pub fn to_f64(self) -> f64 {
        self.0 as f64 * Self::EPSILON
    }

    #[inline]
    pub fn raw(self) -> i64 {
        self.0
    }

    #[inline]
    pub fn from_raw(raw: i64) -> Self {
        Q(raw)
    }

    #[inline]
    pub fn wrapping_add(self, rhs: Self) -> Self {
        Q(self.0.wrapping_add(rhs.0))
    }

    #[inline]
    pub fn wrapping_sub(self, rhs: Self) -> Self {
        Q(self.0.wrapping_sub(rhs.0))
    }
}

impl<const FRAC: u32> core::fmt::Debug for Q<FRAC> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Q<{}>({:.9})", FRAC, self.to_f64())
    }
}

#[cfg(test)]
// Tests measure quantization error against f64 references by design.
#[allow(clippy::float_arithmetic)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip() {
        let x = Q20::from_f64(13.25);
        assert_eq!(x.to_f64(), 13.25);
        assert_eq!(Q20::ONE.to_f64(), 1.0);
    }

    proptest! {
        #[test]
        fn add_associative(a in any::<i64>(), b in any::<i64>(), c in any::<i64>()) {
            let (a, b, c) = (Q20::from_raw(a), Q20::from_raw(b), Q20::from_raw(c));
            prop_assert_eq!(a.wrapping_add(b).wrapping_add(c), a.wrapping_add(b.wrapping_add(c)));
        }

        #[test]
        fn quantization_error_bounded(x in -1.0e6f64..1.0e6) {
            let q = Q20::from_f64(x);
            prop_assert!((q.to_f64() - x).abs() <= Q20::EPSILON / 2.0 + 1e-12);
        }

        #[test]
        fn sum_correct_despite_wrap(vals in proptest::collection::vec(-(1i64<<61)..(1i64<<61), 2..20)) {
            // As long as the final sum is representable, any accumulation
            // order (including ones whose partial sums wrap) agrees with the
            // exact i128 sum.
            let exact: i128 = vals.iter().map(|&v| v as i128).sum();
            prop_assume!(exact >= i64::MIN as i128 && exact <= i64::MAX as i128);
            let forward = vals.iter().fold(Q20::ZERO, |s, &v| s.wrapping_add(Q20::from_raw(v)));
            let backward = vals.iter().rev().fold(Q20::ZERO, |s, &v| s.wrapping_add(Q20::from_raw(v)));
            prop_assert_eq!(forward, backward);
            prop_assert_eq!(forward.raw() as i128, exact);
        }
    }
}
