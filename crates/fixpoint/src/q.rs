//! 64-bit Q20 fixed point: the engine's length and squared-length word.

use crate::rounding::rne_f64;
use core::num::Wrapping;

/// A signed fixed-point value with [`Q20::FRAC`] fraction bits stored in an
/// `i64`: `value = raw * 2^-20`. The engine's Q20 words are lengths (Å:
/// half-edges, displacements) and squared lengths (Å²); its other
/// fixed-point words are raw `i64`s with their own scales beside them in
/// `anton_core::state`.
///
/// Sums are taken on the raw word ([`Q20::raw`]), whose addition wraps:
/// associative and order-free.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Q20(pub(crate) i64);

impl Q20 {
    /// Fraction bits.
    pub const FRAC: u32 = 20;
    /// Smallest representable increment.
    #[expect(
        clippy::cast_precision_loss,
        reason = "D1 boundary: the grid spacing, exact in f64 (a power of two), read only when quantizing or decoding at the f64 edge"
    )]
    pub const EPSILON: f64 = 1.0 / (1u128 << Self::FRAC) as f64;

    /// Quantize an `f64` with round-to-nearest/even. Debug-asserts that the
    /// value is representable.
    #[expect(
        clippy::float_arithmetic,
        clippy::cast_possible_truncation,
        reason = "D1 boundary: the f64 -> Q quantization edge; rounds via rne_f64 before any accumulation"
    )]
    #[inline]
    pub fn from_f64(x: f64) -> Self {
        let scaled = rne_f64(x * (1u128 << Self::FRAC) as f64);
        debug_assert!(
            scaled >= i64::MIN as f64 && scaled <= i64::MAX as f64,
            "Q20::from_f64 overflow: {x}"
        );
        Q20(scaled as i64)
    }

    #[expect(
        clippy::float_arithmetic,
        reason = "D1 boundary: Q -> f64 decode for diagnostics and kernel interiors; read-only, never accumulated back"
    )]
    #[inline]
    pub fn to_f64(self) -> f64 {
        self.0 as f64 * Self::EPSILON
    }

    /// The raw word as a [`Wrapping`]: `+ - * <<` on it are the
    /// two's-complement wrap by type, never a debug-build overflow panic.
    #[inline]
    pub fn raw(self) -> Wrapping<i64> {
        Wrapping(self.0)
    }

    #[inline]
    pub const fn from_raw(raw: i64) -> Self {
        Q20(raw)
    }
}

impl core::fmt::Debug for Q20 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Q20({:.9})", self.to_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip() {
        let x = Q20::from_f64(13.25);
        assert_eq!(x.to_f64(), 13.25);
        assert_eq!(Q20::from_f64(1.0).to_f64(), 1.0);
    }

    /// The sum of two words, as callers form it: on the raw `Wrapping`.
    fn add(a: Q20, b: Q20) -> Q20 {
        Q20::from_raw((a.raw() + b.raw()).0)
    }

    proptest! {
        #[test]
        fn add_associative(a in any::<i64>(), b in any::<i64>(), c in any::<i64>()) {
            let (a, b, c) = (Q20::from_raw(a), Q20::from_raw(b), Q20::from_raw(c));
            prop_assert_eq!(add(add(a, b), c), add(a, add(b, c)));
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
            let forward = vals.iter().fold(Q20::default(), |s, &v| add(s, Q20::from_raw(v)));
            let backward = vals.iter().rev().fold(Q20::default(), |s, &v| add(s, Q20::from_raw(v)));
            prop_assert_eq!(forward, backward);
            prop_assert_eq!(forward.raw().0 as i128, exact);
        }
    }
}
