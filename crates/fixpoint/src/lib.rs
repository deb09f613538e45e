//! Fixed-point arithmetic in the style of the Anton ASIC.
//!
//! Anton performs essentially all of its molecular-dynamics arithmetic in
//! signed fixed point (SC'09, Section 4). A `B`-bit signed fixed-point number
//! represents one of `2^B` evenly spaced reals in `[-1, 1)`. Compared with
//! floating point this buys two things the paper leans on heavily:
//!
//! 1. **Associativity.** Wrapping two's-complement addition is associative and
//!    commutative, so the order in which force contributions are summed cannot
//!    change the result. This is the root cause of Anton's *determinism* and
//!    *parallel invariance* (bitwise-identical trajectories on any node
//!    count), both of which this workspace demonstrates in its test suite.
//! 2. **Wrap-tolerance.** Sums are correct as long as the *final* value is
//!    representable, even if intermediate partial sums wrap (paper
//!    footnote 2). The classic example — in 4-bit arithmetic `3/8 + 7/8`
//!    wraps to `-3/4`, yet adding `-5/8` recovers the true sum `5/8` — is a
//!    unit test in this crate.
//!
//! The crate provides words and one rounding rule, not an algebra:
//!
//! * [`Fx32`] — a 32-bit fraction in `[-1, 1)`. Atom positions are stored
//!   per-axis as `Fx32` *fractions of the periodic box* ([`FxVec3`]), so
//!   two's-complement wraparound implements periodic boundary conditions
//!   and a wrapping subtraction is the minimum-image convention.
//! * [`Q`] — a 64-bit Q-format word with a const-generic number of
//!   fraction bits: quantize from and decode to `f64`, and the wrapping
//!   sum the associativity tests pin. The engine keeps its force,
//!   energy and velocity words as raw `i64`s, each with a `*_FRAC` of its
//!   own, and forms every displacement and r² on one integer ladder,
//!   `anton_core::batch::Q20Ladder`.
//! * Rounding primitives implementing the ASIC's round-to-nearest/even rule
//!   (paper Figure 4 caption), which is odd-symmetric — a property the exact
//!   time-reversibility of the integrator depends on. The shifts
//!   ([`rne_shr_i64`], [`rne_shr_i128`]) drop fraction bits of an integer
//!   product; [`rounding::rne_f64_to_i64`] is the one f64 → word rounding.

pub mod fxvec;
pub mod q;
pub mod rounding;

mod fx32;

pub use fx32::Fx32;
pub use fxvec::FxVec3;
pub use q::{Q, Q20};
pub use rounding::{rne_shr_i128, rne_shr_i64};

#[cfg(test)]
mod tests {

    /// Paper footnote 2: in 4-bit arithmetic (values k/8 for k in -8..8),
    /// 3/8 + 7/8 wraps to -3/4, but adding -5/8 still yields 5/8 in any
    /// order of operations.
    #[test]
    fn four_bit_wrap_example() {
        // Model 4-bit two's complement with i8 confined to -8..8 (units of 1/8).
        fn add4(a: i8, b: i8) -> i8 {
            let s = (a + b) & 0xf;
            if s >= 8 {
                s - 16
            } else {
                s
            }
        }
        let (a, b, c) = (3i8, 7, -5); // 3/8, 7/8, -5/8
        let wrap_first = add4(add4(a, b), c);
        let other_order = add4(add4(a, c), b);
        let third_order = add4(add4(b, c), a);
        assert_eq!(add4(a, b), -6, "3/8 + 7/8 wraps to -3/4");
        assert_eq!(wrap_first, 5, "final sum is the true 5/8");
        assert_eq!(other_order, 5);
        assert_eq!(third_order, 5);
    }
}
