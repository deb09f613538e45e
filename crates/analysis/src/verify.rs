//! Closed-form invariant checks over exact engine words.
//!
//! Every function in this module compares *integers*: fixed-point force
//! words, mesh charge words, exchange-counter values, and momentum sums in
//! `i128`. There are no epsilon tolerances — an identity either holds
//! bitwise or it is a [`Violation`] carrying the exact left- and right-hand
//! words. The single floating-point entry point (the NVE energy-drift
//! bound, which is a *bound*, not an identity) is isolated behind an
//! explicit determinism-boundary annotation and fails closed on NaN.
//!
//! The checks themselves are pure functions of their arguments so they can
//! be unit-tested against hand-built violating states (no engine needed);
//! [`crate::battery::Verifier`] wires them to a live [`anton_core`]
//! simulation.

#![cfg_attr(not(test), deny(clippy::float_arithmetic))]

use std::fmt;

/// Which closed-form identity a check exercises.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Identity {
    /// Newton's third law over the range-limited pair phase: the merged
    /// per-atom force words of one `range_limited` evaluation sum to
    /// exactly zero per axis (every pair contributes `+w` and `-w`).
    ThirdLawRangeLimited,
    /// Third law over the Ewald correction pair phase (same argument).
    ThirdLawCorrection,
    /// The engine's stored force buffers equal a bitwise recomputation by
    /// an independent single-rank, single-thread pipeline at the same
    /// positions — a per-cycle proof of parallel invariance.
    ForceConsistency,
    /// Total charge on the reciprocal mesh after spreading is
    /// decomposition-invariant (node-merged mesh equals a serial
    /// re-spread, word for word in total).
    MeshCharge,
    /// Total quantized momentum stays inside a closed-form rounding
    /// envelope (exact equality is impossible: bonded/vsite/mesh phases
    /// are not pairwise-antisymmetric in quantized words).
    MomentumEnvelope,
    /// NVE total energy drift per degree of freedom stays under a bound.
    EnergyDrift,
    /// Exchange census decompositions: step, long-range-step, and
    /// rebuild/reuse counters tie together exactly.
    CensusSteps,
    /// Modeled communication counters are exactly linear in the metered
    /// step counts (messages = steps x links, mesh traffic = lr_steps x
    /// per-transform rates).
    CensusComm,
    /// Trajectory-function counters (matched pairs, rebuild/reuse splits)
    /// are identical across decompositions and thread counts.
    CensusInvariance,
}

impl Identity {
    /// Stable machine-readable name (used in reports and CI logs).
    pub fn name(self) -> &'static str {
        match self {
            Identity::ThirdLawRangeLimited => "third_law_range_limited",
            Identity::ThirdLawCorrection => "third_law_correction",
            Identity::ForceConsistency => "force_consistency",
            Identity::MeshCharge => "mesh_charge",
            Identity::MomentumEnvelope => "momentum_envelope",
            Identity::EnergyDrift => "energy_drift",
            Identity::CensusSteps => "census_steps",
            Identity::CensusComm => "census_comm",
            Identity::CensusInvariance => "census_invariance",
        }
    }
}

/// One failed identity: the cycle it failed on, which identity, a label
/// naming the compared quantity, the offending word index (atom*3+axis for
/// force buffers, 0 for scalars), and the exact words that differed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    pub cycle: u64,
    pub identity: Identity,
    /// Which compared quantity within the identity (e.g. "import_messages").
    pub label: &'static str,
    /// Flattened word index for vector comparisons; 0 for scalars.
    pub index: usize,
    /// Exact left-hand word of the failed comparison.
    pub lhs: i128,
    /// Exact right-hand word (the value the identity requires).
    pub rhs: i128,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cycle {}: {} [{} @ {}]: lhs {} != rhs {}",
            self.cycle,
            self.identity.name(),
            self.label,
            self.index,
            self.lhs,
            self.rhs
        )
    }
}

/// Exact per-axis sum of a raw force buffer, or `None` on `i128` overflow
/// (unreachable for physical systems; treated as a violation by callers so
/// overflow can never silently pass an identity).
pub fn force_sum(f: &[[i64; 3]]) -> Option<[i128; 3]> {
    let mut s = [0i128; 3];
    for w in f {
        for k in 0..3 {
            s[k] = s[k].checked_add(w[k] as i128)?;
        }
    }
    Some(s)
}

/// Newton's third law: the per-axis sums of a pairwise phase's merged
/// force buffer must be exactly zero.
pub fn check_force_sum_zero(identity: Identity, cycle: u64, f: &[[i64; 3]]) -> Vec<Violation> {
    let mut out = Vec::new();
    match force_sum(f) {
        None => out.push(Violation {
            cycle,
            identity,
            label: "force_sum_overflow",
            index: 0,
            lhs: i128::MAX,
            rhs: 0,
        }),
        Some(s) => {
            for (k, &sk) in s.iter().enumerate() {
                if sk != 0 {
                    out.push(Violation {
                        cycle,
                        identity,
                        label: "axis_sum",
                        index: k,
                        lhs: sk,
                        rhs: 0,
                    });
                }
            }
        }
    }
    out
}

/// Bitwise equality of two force buffers; reports the first differing
/// word per buffer (flattened index `atom*3 + axis`).
pub fn check_forces_equal(
    identity: Identity,
    cycle: u64,
    label: &'static str,
    a: &[[i64; 3]],
    b: &[[i64; 3]],
) -> Vec<Violation> {
    if a.len() != b.len() {
        return vec![Violation {
            cycle,
            identity,
            label: "buffer_len",
            index: 0,
            lhs: a.len() as i128,
            rhs: b.len() as i128,
        }];
    }
    for (i, (wa, wb)) in a.iter().zip(b).enumerate() {
        for k in 0..3 {
            if wa[k] != wb[k] {
                return vec![Violation {
                    cycle,
                    identity,
                    label,
                    index: i * 3 + k,
                    lhs: wa[k] as i128,
                    rhs: wb[k] as i128,
                }];
            }
        }
    }
    Vec::new()
}

/// Exact scalar identity `lhs == rhs`.
pub fn check_scalars_equal(
    identity: Identity,
    cycle: u64,
    label: &'static str,
    lhs: i128,
    rhs: i128,
) -> Option<Violation> {
    if lhs == rhs {
        None
    } else {
        Some(Violation {
            cycle,
            identity,
            label,
            index: 0,
            lhs,
            rhs,
        })
    }
}

/// Exact total momentum in quantized units: per-axis sum of
/// `mass_q[i] * velocity_raw[i][k]`, or `None` on overflow.
pub fn momentum(mass_q: &[i64], vel: &[[i64; 3]]) -> Option<[i128; 3]> {
    debug_assert_eq!(mass_q.len(), vel.len());
    let mut p = [0i128; 3];
    for (&m, v) in mass_q.iter().zip(vel) {
        for k in 0..3 {
            let term = (m as i128).checked_mul(v[k] as i128)?;
            p[k] = p[k].checked_add(term)?;
        }
    }
    Some(p)
}

/// Momentum drift envelope: every axis of `|p - p0|` must stay within
/// `bound`. A negative bound means the caller's budget computation
/// overflowed or went non-finite — that fails closed as a violation.
pub fn check_momentum_envelope(
    cycle: u64,
    p0: [i128; 3],
    p: [i128; 3],
    bound: i128,
) -> Vec<Violation> {
    if bound < 0 {
        return vec![Violation {
            cycle,
            identity: Identity::MomentumEnvelope,
            label: "budget_invalid",
            index: 0,
            lhs: bound,
            rhs: 0,
        }];
    }
    let mut out = Vec::new();
    for k in 0..3 {
        let drift = p[k].wrapping_sub(p0[k]);
        if drift.checked_abs().is_none_or(|d| d > bound) {
            out.push(Violation {
                cycle,
                identity: Identity::MomentumEnvelope,
                label: "axis_drift",
                index: k,
                lhs: drift,
                rhs: bound,
            });
        }
    }
    out
}

/// Exact counter linearity `counter == steps * rate`. A multiply overflow
/// fires the check (it cannot silently pass).
pub fn check_counter_linear(
    identity: Identity,
    cycle: u64,
    label: &'static str,
    counter: u64,
    steps: u64,
    rate: u64,
) -> Option<Violation> {
    match steps.checked_mul(rate) {
        Some(expect) if expect == counter => None,
        Some(expect) => Some(Violation {
            cycle,
            identity,
            label,
            index: 0,
            lhs: counter as i128,
            rhs: expect as i128,
        }),
        None => Some(Violation {
            cycle,
            identity,
            label,
            index: 0,
            lhs: counter as i128,
            rhs: i128::MAX,
        }),
    }
}

/// The trajectory-function counters that must be identical across
/// decompositions and thread counts (`match_candidates`/`match_batches`
/// are deliberately absent: candidate streaming is per-node and therefore
/// decomposition-*dependent*).
pub fn check_census_invariance(
    cycle: u64,
    a: &anton_machine::perf::ExchangeCounters,
    b: &anton_machine::perf::ExchangeCounters,
) -> Vec<Violation> {
    let fields: [(&'static str, u64, u64); 3] = [
        ("match_pairs", a.match_pairs, b.match_pairs),
        ("rebuild_steps", a.rebuild_steps, b.rebuild_steps),
        ("reuse_steps", a.reuse_steps, b.reuse_steps),
    ];
    let mut out = Vec::new();
    for (label, lhs, rhs) in fields {
        if lhs != rhs {
            out.push(Violation {
                cycle,
                identity: Identity::CensusInvariance,
                label,
                index: 0,
                lhs: lhs as i128,
                rhs: rhs as i128,
            });
        }
    }
    out
}

/// NVE energy-drift bound: `|e - e0| / dof` must not exceed `bound`
/// (kcal/mol per degree of freedom). Fails closed: a NaN anywhere (or
/// `dof == 0`) is a violation, because `<=` is false for NaN. The reported
/// words are micro-kcal/mol integers (saturating cast, NaN maps to 0).
#[expect(
    clippy::float_arithmetic,
    reason = "D1 boundary: the NVE drift criterion is a physical bound in kcal/mol, not an exact identity; one ordered f64 test that fails closed on NaN, reported as micro-unit integers"
)]
pub fn check_energy_drift(cycle: u64, e0: f64, e: f64, dof: u64, bound: f64) -> Option<Violation> {
    let per_dof = if dof == 0 {
        f64::NAN
    } else {
        (e - e0).abs() / dof as f64
    };
    if per_dof <= bound {
        None
    } else {
        Some(Violation {
            cycle,
            identity: Identity::EnergyDrift,
            label: "abs_drift_per_dof_micro",
            index: 0,
            lhs: (per_dof * 1e6) as i128,
            rhs: (bound * 1e6) as i128,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anton_machine::perf::ExchangeCounters;

    #[test]
    fn third_law_holds_on_antisymmetric_pair() {
        let f = [[5, -9, 2], [-5, 9, -2]];
        assert!(check_force_sum_zero(Identity::ThirdLawRangeLimited, 0, &f).is_empty());
    }

    #[test]
    fn third_law_detects_asymmetric_pair_with_exact_words() {
        // One force word off by one: the axis sum is exactly 1.
        let f = [[5, -9, 2], [-4, 9, -2]];
        let v = check_force_sum_zero(Identity::ThirdLawRangeLimited, 7, &f);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].identity, Identity::ThirdLawRangeLimited);
        assert_eq!(v[0].cycle, 7);
        assert_eq!(v[0].index, 0);
        assert_eq!((v[0].lhs, v[0].rhs), (1, 0));
    }

    #[test]
    fn force_sum_overflow_is_a_violation_not_a_pass() {
        // Hand-built to overflow i128 is impractical with i64 words (n would
        // need to exceed 2^64 atoms), so exercise the Option contract.
        assert_eq!(
            force_sum(&[[i64::MAX, 0, 0], [i64::MAX, 0, 0]]).unwrap()[0],
            2 * (i64::MAX as i128)
        );
    }

    #[test]
    fn forces_equal_reports_first_differing_word() {
        let a = [[1, 2, 3], [4, 5, 6]];
        let mut b = a;
        b[1][2] = 7;
        let v = check_forces_equal(Identity::ForceConsistency, 3, "short", &a, &b);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].index, 5);
        assert_eq!((v[0].lhs, v[0].rhs), (6, 7));
    }

    #[test]
    fn forces_equal_flags_length_mismatch() {
        let a = [[0i64; 3]; 2];
        let b = [[0i64; 3]; 3];
        let v = check_forces_equal(Identity::ForceConsistency, 0, "short", &a, &b);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].label, "buffer_len");
        assert_eq!((v[0].lhs, v[0].rhs), (2, 3));
    }

    #[test]
    fn mesh_charge_leak_detected_with_exact_words() {
        let v = check_scalars_equal(Identity::MeshCharge, 2, "rho_total", 5, 7).unwrap();
        assert_eq!(v.identity, Identity::MeshCharge);
        assert_eq!((v.lhs, v.rhs), (5, 7));
        assert!(check_scalars_equal(Identity::MeshCharge, 2, "rho_total", 7, 7).is_none());
    }

    #[test]
    fn momentum_envelope_flags_nonzero_drift_beyond_budget() {
        let p0 = [0i128; 3];
        let p = [100, -3, 0];
        let v = check_momentum_envelope(9, p0, p, 10);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].index, 0);
        assert_eq!((v[0].lhs, v[0].rhs), (100, 10));
        assert!(check_momentum_envelope(9, p0, [10, -10, 0], 10).is_empty());
    }

    #[test]
    fn invalid_momentum_budget_fails_closed() {
        let v = check_momentum_envelope(1, [0; 3], [0; 3], -1);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].label, "budget_invalid");
    }

    #[test]
    fn census_mismatch_detected_with_exact_words() {
        let v = check_counter_linear(Identity::CensusComm, 4, "import_messages", 10, 3, 3).unwrap();
        assert_eq!((v.lhs, v.rhs), (10, 9));
        assert!(
            check_counter_linear(Identity::CensusComm, 4, "import_messages", 9, 3, 3).is_none()
        );
    }

    #[test]
    fn counter_linearity_overflow_fires() {
        let v = check_counter_linear(Identity::CensusComm, 0, "fft_bytes", 1, u64::MAX, 2)
            .expect("overflow must fire");
        assert_eq!(v.rhs, i128::MAX);
    }

    #[test]
    fn census_invariance_compares_trajectory_counters_only() {
        let mut a = ExchangeCounters::default();
        let mut b = ExchangeCounters::default();
        a.match_pairs = 100;
        b.match_pairs = 101;
        // Decomposition-dependent counters may differ freely.
        a.match_candidates = 5000;
        b.match_candidates = 9000;
        let v = check_census_invariance(1, &a, &b);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].label, "match_pairs");
        b.match_pairs = 100;
        assert!(check_census_invariance(1, &a, &b).is_empty());
    }

    #[test]
    fn energy_drift_within_bound_passes_and_beyond_fires() {
        assert!(check_energy_drift(0, -100.0, -100.001, 100, 0.05).is_none());
        let v = check_energy_drift(6, -100.0, -90.0, 100, 0.05).unwrap();
        // 0.1 kcal/mol/dof in micro units.
        assert_eq!((v.lhs, v.rhs), (100_000, 50_000));
    }

    #[test]
    fn energy_drift_never_silently_passes_on_nan_or_zero_dof() {
        assert!(check_energy_drift(0, f64::NAN, -100.0, 100, 0.05).is_some());
        assert!(check_energy_drift(0, -100.0, f64::NAN, 100, 0.05).is_some());
        assert!(check_energy_drift(0, -100.0, -100.0, 0, 0.05).is_some());
    }
}
