//! Property tests for the edges of the fixed-point rounding primitives:
//! `Fx32` round-trips right at the ±1.0 periodic seam and exact-tie inputs
//! to the round-to-nearest/even shifts.
//!
//! These complement the in-crate unit tests, which cover interior values; the
//! determinism claims of the workspace (DESIGN.md, "Determinism policy") rest
//! on these boundary cases behaving identically on every host.

use anton_fixpoint::rounding::{rne_f64, rne_shr_i128, rne_shr_i64};
use anton_fixpoint::Fx32;
use proptest::prelude::*;

proptest! {
    /// Round-trip near the periodic seam: values within a few thousand ulp of
    /// ±1.0 must quantize onto the grid with at most one-ulp error, and the
    /// two seam points must land on the *same* representative (-1.0), because
    /// +1.0 and -1.0 are the same point of the periodic interval.
    #[test]
    fn fx32_roundtrip_near_seam(ulps in -5000i64..5000) {
        let x = 1.0 + ulps as f64 * Fx32::EPSILON;
        let q = Fx32::from_f64_wrapped(x);
        // Compare in wrapped space: distance to the nearest image.
        let d = (q.to_f64() - x).rem_euclid(2.0);
        let d = d.min(2.0 - d);
        prop_assert!(d <= Fx32::EPSILON, "x={x} q={:?} d={d}", q);
    }

    /// The same seam property around -1.0.
    #[test]
    fn fx32_roundtrip_near_negative_seam(ulps in -5000i64..5000) {
        let x = -1.0 + ulps as f64 * Fx32::EPSILON;
        let q = Fx32::from_f64_wrapped(x);
        let d = (q.to_f64() - x).rem_euclid(2.0);
        let d = d.min(2.0 - d);
        prop_assert!(d <= Fx32::EPSILON, "x={x} q={:?} d={d}", q);
    }

    /// Exact ties round to even for `rne_shr_i64`: feed values that sit
    /// exactly halfway between two representable outputs.
    #[test]
    fn rne_shr_i64_ties_round_to_even(q in -(1i64 << 40)..(1i64 << 40), n in 1u32..20) {
        let half = 1i64 << (n - 1);
        let tie = (q << n) + half; // exactly q + 0.5 in shifted units
        let got = rne_shr_i64(tie, n);
        let want = if q & 1 == 0 { q } else { q + 1 };
        prop_assert_eq!(got, want, "q={q} n={n}");
        // One ulp either side of the tie must round toward the nearer value.
        prop_assert_eq!(rne_shr_i64(tie - 1, n), q);
        prop_assert_eq!(rne_shr_i64(tie + 1, n), q + 1);
    }

    /// The same tie rule for the 128-bit shift, including shift counts past 64.
    #[test]
    fn rne_shr_i128_ties_round_to_even(q in -(1i64 << 40)..(1i64 << 40), n in 1u32..80) {
        let half = 1i128 << (n - 1);
        let tie = ((q as i128) << n) + half;
        let got = rne_shr_i128(tie, n);
        let want = if q & 1 == 0 { q } else { q + 1 };
        prop_assert_eq!(got, want, "q={q} n={n}");
        prop_assert_eq!(rne_shr_i128(tie - 1, n), q);
        prop_assert_eq!(rne_shr_i128(tie + 1, n), q + 1);
    }

    /// Odd symmetry at ties: `rne(-x) == -rne(x)` even for exact halves,
    /// which is what makes the integrator exactly time-reversible.
    #[test]
    fn rne_shr_tie_odd_symmetry(q in 0i64..(1i64 << 40), n in 1u32..20) {
        let half = 1i64 << (n - 1);
        let tie = (q << n) + half;
        prop_assert_eq!(rne_shr_i64(-tie, n), -rne_shr_i64(tie, n));
    }

    /// `rne_f64` agrees with the integer tie rule on exact .5 inputs.
    #[test]
    fn rne_f64_ties_match_integer_rule(k in -(1i64 << 40)..(1i64 << 40)) {
        let x = k as f64 + 0.5;
        let want = if k & 1 == 0 { k as f64 } else { (k + 1) as f64 };
        prop_assert_eq!(rne_f64(x), want, "k={k}");
    }
}

#[test]
fn seam_points_quantize_to_same_representative() {
    let a = Fx32::from_f64_wrapped(1.0);
    let b = Fx32::from_f64_wrapped(-1.0);
    assert_eq!(a, b);
    assert_eq!(a.raw().0, i32::MIN);
}
