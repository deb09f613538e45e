//! 32-bit signed fraction in `[-1, 1)` with wrapping (periodic) arithmetic.

use core::num::Wrapping;

/// A 32-bit signed fixed-point fraction: `value = raw * 2^-31`, in `[-1, 1)`.
///
/// Addition and subtraction wrap in the natural two's-complement way, exactly
/// as on the Anton ASIC. Atom positions are stored per-axis as an `Fx32`
/// fraction of the periodic box edge, which makes the wrap *be* the periodic
/// boundary condition: subtracting two positions with [`Fx32::wrapping_sub`]
/// yields the minimum-image displacement whenever the true separation is less
/// than half a box edge.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Fx32(pub i32);

impl Fx32 {
    pub const ZERO: Fx32 = Fx32(0);
    /// Number of fraction bits.
    pub const FRAC: u32 = 31;
    /// Smallest representable increment (2^-31).
    #[expect(
        clippy::cast_precision_loss,
        reason = "D1 boundary: the grid spacing, exact in f64 (a power of two), read only when quantizing or decoding at the f64 edge"
    )]
    pub const EPSILON: f64 = 1.0 / (1u64 << 31) as f64;

    /// Quantize an `f64` in (approximately) `[-1, 1)` to the fraction grid
    /// with round-to-nearest/even, wrapping values outside the range onto the
    /// periodic interval.
    #[expect(
        clippy::float_arithmetic,
        clippy::cast_possible_truncation,
        reason = "D1 boundary: the f64 -> fraction quantization edge; rounds via rne_f64 before any accumulation"
    )]
    #[inline]
    pub fn from_f64_wrapped(x: f64) -> Fx32 {
        // Reduce to [-1, 1) first so the scaled value fits comfortably in i64.
        let wrapped = x - 2.0 * (x / 2.0 + 0.5).floor();
        let scaled = crate::rounding::rne_f64(wrapped * (1u64 << 31) as f64) as i64;
        Fx32(scaled as i32) // 2^31 maps to i32::MIN, i.e. -1: same point mod 2.
    }

    /// The real value represented, in `[-1, 1)`.
    #[expect(
        clippy::float_arithmetic,
        reason = "D1 boundary: exact fraction -> f64 decode (31 bits fit a double); read-only, never accumulated back"
    )]
    #[inline]
    pub fn to_f64(self) -> f64 {
        self.0 as f64 * Self::EPSILON
    }

    /// The raw word as a [`Wrapping`]: `+ - * <<` on it are the
    /// two's-complement wrap by type, never a debug-build overflow panic.
    #[inline]
    pub fn raw(self) -> Wrapping<i32> {
        Wrapping(self.0)
    }

    #[inline]
    pub fn wrapping_add(self, rhs: Fx32) -> Fx32 {
        Fx32(self.0.wrapping_add(rhs.0))
    }

    #[inline]
    pub fn wrapping_sub(self, rhs: Fx32) -> Fx32 {
        Fx32(self.0.wrapping_sub(rhs.0))
    }

    #[inline]
    pub fn wrapping_neg(self) -> Fx32 {
        Fx32(self.0.wrapping_neg())
    }
}

impl core::fmt::Debug for Fx32 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Fx32({:.9})", self.to_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_and_wrap() {
        let a = Fx32::from_f64_wrapped(0.25);
        assert!((a.to_f64() - 0.25).abs() < Fx32::EPSILON);
        // 1.25 wraps onto -0.75.
        let b = Fx32::from_f64_wrapped(1.25);
        assert!((b.to_f64() + 0.75).abs() < 2.0 * Fx32::EPSILON);
        // -1.0 is representable exactly.
        let c = Fx32::from_f64_wrapped(-1.0);
        assert_eq!(c.raw().0, i32::MIN);
    }

    #[test]
    fn minimum_image_via_wrap() {
        // Two positions near opposite faces of the box: the wrapped
        // difference is the short way around.
        let a = Fx32::from_f64_wrapped(0.95 * 2.0 - 1.0); // fraction 0.9 of [-1,1)
        let b = Fx32::from_f64_wrapped(0.05 * 2.0 - 1.0);
        let d = a.wrapping_sub(b).to_f64();
        // 0.9 - 0.1 in box fraction = -0.2 of the full [-1,1) span
        assert!((d - (-0.2)).abs() < 1e-8, "d = {d}");
    }

    proptest! {
        #[test]
        fn addition_is_associative_and_commutative(a in any::<i32>(), b in any::<i32>(), c in any::<i32>()) {
            let (a, b, c) = (Fx32(a), Fx32(b), Fx32(c));
            prop_assert_eq!(a.wrapping_add(b).wrapping_add(c), a.wrapping_add(b.wrapping_add(c)));
            prop_assert_eq!(a.wrapping_add(b), b.wrapping_add(a));
        }

        #[test]
        fn subtraction_is_add_of_neg(a in any::<i32>(), b in any::<i32>()) {
            let (a, b) = (Fx32(a), Fx32(b));
            prop_assert_eq!(a.wrapping_sub(b), a.wrapping_add(b.wrapping_neg()));
        }

        #[test]
        fn from_f64_quantization_error_bounded(x in -1.0f64..1.0) {
            let q = Fx32::from_f64_wrapped(x);
            prop_assert!((q.to_f64() - x).abs() <= Fx32::EPSILON);
        }
    }
}
