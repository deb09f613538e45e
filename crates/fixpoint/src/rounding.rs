//! Round-to-nearest/even shift primitives.
//!
//! All rounding on the Anton ASIC uses a round-to-nearest/even rule (paper
//! Figure 4 caption). The functions here implement that rule for arithmetic
//! right shifts, which is how every fixed-point multiply and rescale in this
//! workspace discards fraction bits.
//!
//! Round-to-nearest/even is *odd-symmetric*: `rne(-x) == -rne(x)`. The exact
//! time-reversibility demonstrated by the paper (negate all velocities, run
//! backwards, recover the initial state bit-for-bit) requires the integrator's
//! position and velocity increments to negate exactly, which this symmetry
//! provides.

/// Arithmetic right shift of `x` by `n` bits with round-to-nearest/even.
///
/// For `n == 0` this is the identity. `n` must be < 64.
#[inline]
pub fn rne_shr_i64(x: i64, n: u32) -> i64 {
    debug_assert!(n < 64);
    if n == 0 {
        return x;
    }
    let q = x >> n; // floor division by 2^n
    let rem = x - (q << n); // in [0, 2^n)
    let half = 1i64 << (n - 1);
    // Branchless nearest/even bump: +1 when rem > half, or on an exact tie
    // when q is odd. This sits 6x per table lookup in the PPIP inner loop and
    // the tie/above-half predicates are data-dependent coin flips there, so a
    // conditional form mispredicts constantly; the arithmetic form is the
    // same value for every (x, n).
    let bump = i64::from(rem > half) | (i64::from(rem == half) & q & 1);
    q + bump
}

/// [`rne_shr_i64`] for operands known to satisfy |x| < 2⁶² (and
/// `1 ≤ n ≤ 62`): add `half − 1 + (q & 1)` and floor-shift. With
/// `q = x >> n` and `rem = x − (q << n)`, the addend carries into the
/// quotient exactly when `rem > half`, or `rem == half` with `q` odd —
/// the nearest/even bump — and the bound keeps the sum from wrapping.
/// Half the instructions of the compare form; the pair ladder and the PPIP
/// Horner step, whose operands are bounded by construction, run on it.
#[inline]
pub fn rne_shr_i64_bounded(x: i64, n: u32) -> i64 {
    debug_assert!((1..=62).contains(&n));
    debug_assert!(x.unsigned_abs() < 1 << 62, "operand {x} outside ±2^62");
    (x + ((1i64 << (n - 1)) - 1) + ((x >> n) & 1)) >> n
}

/// Arithmetic right shift of a 128-bit intermediate with round-to-nearest/even,
/// truncated into `i64`.
///
/// The caller is responsible for choosing scales such that the rounded result
/// fits in 64 bits; in debug builds an overflow panics, in release builds it
/// wraps (mirroring the ASIC's wrap-tolerant accumulation).
#[expect(
    clippy::cast_possible_truncation,
    reason = "D3: the audited narrowing; callers size their Q formats so the result fits, and the debug_assert catches violations"
)]
#[inline]
pub fn rne_shr_i128(x: i128, n: u32) -> i64 {
    debug_assert!(n < 128);
    if n == 0 {
        return x as i64;
    }
    let q = x >> n;
    let rem = x - (q << n);
    let half = 1i128 << (n - 1);
    // Same branchless nearest/even bump as `rne_shr_i64` (see there).
    let bump = i128::from(rem > half) | (i128::from(rem == half) & q & 1);
    let rounded = q + bump;
    debug_assert!(
        rounded >= i64::MIN as i128 && rounded <= i64::MAX as i128,
        "rne_shr_i128 overflow: {rounded}"
    );
    rounded as i64
}

/// Round an `f64` to the nearest integer, ties to even (IEEE `roundTiesToEven`).
///
/// Used only at the boundary between floating-point setup code and the
/// fixed-point simulation state; never inside the deterministic core.
// This *is* the float quantization boundary. Adding 2^52 to a non-negative
// x < 2^52 forces the fraction bits out of the mantissa, and IEEE's default
// round-to-nearest/even mode (the only mode Rust exposes) does the
// tie-breaking in hardware.
// Two additions replace the round()/trunc() libm calls this sat on before —
// it is the single hottest scalar in the PPIP evaluate path — and
// `rne_f64_reference` in the tests pins the substitution bit-for-bit.
// The negated comparison is load-bearing: NaN fails `<`, so the `!` routes
// NaN (and ±inf) to the identity arm, exactly as round()/trunc() behaved.
#[expect(
    clippy::float_arithmetic,
    clippy::neg_cmp_op_on_partial_ord,
    reason = "D1 boundary: the f64 rounding itself; the negated comparison routes NaN to the identity arm"
)]
#[inline]
pub fn rne_f64(x: f64) -> f64 {
    const MAGIC: f64 = 4_503_599_627_370_496.0; // 2^52
    if !(x.abs() < MAGIC) {
        return x; // already integral (or NaN/±inf): rounding is the identity
    }
    // `is_sign_positive` (not `>= 0.0`) so -0.0 keeps its sign bit, exactly
    // as `f64::round` preserves it.
    if x.is_sign_positive() {
        (x + MAGIC) - MAGIC
    } else if x == -0.5 {
        // The one negative tie that crosses zero: the reference computed
        // it as `-1.0 + 1.0`, i.e. *positive* zero, unlike every other
        // value in (-0.5, -0.0] which keeps its sign bit.
        0.0
    } else {
        -((-x + MAGIC) - MAGIC)
    }
}

/// `rne_f64(x) as i64` without the sign branch: the same integer for every
/// `x`, NaN and ±inf included (they take [`rne_f64`]'s own path).
///
/// [`rne_f64`] picks its `+2⁵²` or `−2⁵²` arm by the sign of `x`. Where the
/// sign is a coin flip — a force component of a pair — that branch
/// mispredicts every other call. For |x| < 2⁵¹ the sum `x + 1.5·2⁵²` lies
/// in [2⁵², 2⁵³), where one ulp is 1: the hardware's nearest/even rounding
/// of that sum *is* the rounding of `x` (1.5·2⁵² is even, so ties keep
/// their parity), and the low mantissa bits hold `rne(x) + 2⁵¹` as a plain
/// integer. Subtracting the bit pattern of `1.5·2⁵²` leaves `rne(x)` in
/// two's complement, sign included — no sign test, no float→int
/// conversion. The one branch left is the magnitude guard, which a caller
/// whose values fit its Q format never takes.
/// `rne_f64_to_i64_matches_the_cast_of_rne_f64` pins the equality.
#[expect(
    clippy::float_arithmetic,
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap,
    reason = "D1 boundary: the same rounding as rne_f64; the u64 -> i64 cast reinterprets the IEEE bit pattern, it does not convert a value"
)]
#[inline]
pub fn rne_f64_to_i64(x: f64) -> i64 {
    const SHIFT: f64 = 6_755_399_441_055_744.0; // 1.5 * 2^52
    const LIMIT: f64 = 2_251_799_813_685_248.0; // 2^51
    if x.abs() < LIMIT {
        ((x + SHIFT).to_bits() as i64).wrapping_sub(SHIFT.to_bits() as i64)
    } else {
        rne_f64(x) as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The retired round()/trunc() implementation, kept as the oracle for
    /// the magic-number fast path.
    fn rne_f64_reference(x: f64) -> f64 {
        let r = x.round();
        if (x - x.trunc()).abs() == 0.5 && (r as i64) % 2 != 0 {
            r - (r - x).signum()
        } else {
            r
        }
    }

    /// The fast rne_f64 is bit-identical to the reference on a dense sweep
    /// of magnitudes (including exact ties, signed zeros, and values past
    /// 2^52 where rounding is the identity).
    #[test]
    fn rne_f64_matches_reference_bitwise() {
        for x in rne_probes() {
            assert_eq!(
                rne_f64(x).to_bits(),
                rne_f64_reference(x).to_bits(),
                "rne_f64({x:e}) diverged from the reference"
            );
        }
    }

    /// `rne_f64_to_i64` yields the integer `rne_f64(x) as i64` does, over
    /// the same sweep (signed zeros and the ties around zero included) plus
    /// both sides of its 2⁵¹ guard, of `rne_f64`'s 2⁵² one, and the
    /// saturating inputs.
    #[test]
    fn rne_f64_to_i64_matches_the_cast_of_rne_f64() {
        let two52 = (2.0f64).powi(52);
        let mut probes = rne_probes();
        probes.push(f64::NAN);
        let two51 = (2.0f64).powi(51);
        for x in [
            two51 - 0.5,
            two51 - 0.25,
            two51,
            two51 + 0.5,
            two52 - 0.5,
            two52,
            (2.0f64).powi(62),
            f64::INFINITY,
        ] {
            probes.extend([x, -x]);
        }
        for &x in &probes {
            assert_eq!(
                rne_f64_to_i64(x),
                rne_f64(x) as i64,
                "rne_f64_to_i64({x:e}) diverged from the cast"
            );
        }
        assert_eq!(rne_f64_to_i64(-0.5), 0);
        assert_eq!(rne_f64_to_i64(-1.5), -2);
        assert_eq!(rne_f64_to_i64(two51 - 0.5), 1 << 51);
        assert_eq!(rne_f64_to_i64(-(two51 - 0.25)), -(1 << 51));
        assert_eq!(rne_f64_to_i64(two52 - 0.5), 1 << 52);
        assert_eq!(rne_f64_to_i64(-(two52 - 0.5)), -(1 << 52));
        assert_eq!(rne_f64_to_i64(f64::NAN), 0);
        assert_eq!(rne_f64_to_i64(f64::NEG_INFINITY), i64::MIN);
    }

    /// The dense magnitude sweep both `rne_f64` pins run over.
    fn rne_probes() -> Vec<f64> {
        let mut probes: Vec<f64> = vec![0.0, -0.0, 0.5, -0.5, 1.5, -1.5, 2.5, -2.5];
        for e in -8..60 {
            let base = (2.0f64).powi(e);
            for frac in [0.0, 0.25, 0.5, 0.75, 0.999_999, 1.0 / 3.0] {
                probes.push(base + frac);
                probes.push(-(base + frac));
                probes.push(base * (1.0 + frac));
                probes.push(-(base * (1.0 + frac)));
            }
        }
        // A deterministic LCG sweep of odd magnitudes.
        let mut s = 0x9e3779b97f4a7c15u64;
        for _ in 0..20_000 {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let x = (s >> 11) as f64 / (1u64 << 20) as f64 - 4.0e12;
            probes.push(x);
        }
        probes
    }

    #[test]
    fn rne_shr_basic() {
        // 5/2 = 2.5 -> 2 (even); 7/2 = 3.5 -> 4 (even); 3/2 = 1.5 -> 2.
        assert_eq!(rne_shr_i64(5, 1), 2);
        assert_eq!(rne_shr_i64(7, 1), 4);
        assert_eq!(rne_shr_i64(3, 1), 2);
        assert_eq!(rne_shr_i64(4, 1), 2);
    }

    #[test]
    fn rne_shr_negative_symmetry() {
        for x in -1000i64..1000 {
            for n in 1..8u32 {
                assert_eq!(
                    rne_shr_i64(-x, n),
                    -rne_shr_i64(x, n),
                    "odd symmetry violated for x={x} n={n}"
                );
            }
        }
    }

    #[test]
    fn rne_shr_matches_f64_rounding() {
        for x in -4096i64..4096 {
            let got = rne_shr_i64(x, 4);
            let want = rne_f64(x as f64 / 16.0) as i64;
            assert_eq!(got, want, "x={x}");
        }
    }

    /// The add-half form is the compare form on every admitted operand:
    /// both ends of the ±2⁶² bound, every tie and near-tie around them and
    /// around zero, and an LCG sweep, at every shift the callers use and
    /// both shift extremes.
    #[test]
    fn rne_shr_bounded_matches_the_compare_form() {
        let top = (1i64 << 62) - 1;
        let mut s = 0x9e3779b97f4a7c15u64;
        for n in [1u32, 2, 20, 31, 61, 62] {
            let half = 1i64 << (n - 1);
            let mut probes = vec![0, 1, -1, top, -top, top - half, half - top];
            for base in [0, half, -half, 3 * half, -3 * half, 1 << 40, -(1 << 40)] {
                probes.extend([base - 1, base, base + 1]);
            }
            for _ in 0..20_000 {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                probes.push((s as i64) >> 1 >> (s % 40));
            }
            for x in probes {
                if x.unsigned_abs() >= 1 << 62 {
                    continue;
                }
                assert_eq!(rne_shr_i64_bounded(x, n), rne_shr_i64(x, n), "x={x} n={n}");
            }
        }
    }

    #[test]
    fn rne_shr_i128_agrees_with_i64() {
        for x in -5000i64..5000 {
            for n in 1..10u32 {
                assert_eq!(rne_shr_i128(x as i128, n), rne_shr_i64(x, n));
            }
        }
    }

    #[test]
    fn rne_f64_ties_to_even() {
        assert_eq!(rne_f64(0.5), 0.0);
        assert_eq!(rne_f64(1.5), 2.0);
        assert_eq!(rne_f64(2.5), 2.0);
        assert_eq!(rne_f64(-0.5), 0.0);
        assert_eq!(rne_f64(-1.5), -2.0);
        assert_eq!(rne_f64(-2.5), -2.0);
    }
}
