//! Unit system and physical constants.
//!
//! The workspace uses the conventional MD academic units: lengths in Å,
//! energies in kcal/mol, masses in amu (g/mol), charges in units of the
//! elementary charge, and time in fs.

/// Coulomb constant in kcal·Å/(mol·e²).
pub const COULOMB: f64 = 332.063_71;

/// Boltzmann constant in kcal/(mol·K).
pub const KB: f64 = 0.001_987_204_1;

/// Conversion from (kcal/mol/Å) / amu to acceleration in Å/fs².
pub const ACCEL: f64 = 4.184e-4;

/// Convert a wall-clock seconds-per-step and a time step in fs into the
/// paper's simulated-µs-per-day rate (1 µs = 1e9 fs).
pub fn us_per_day(seconds_per_step: f64, dt_fs: f64) -> f64 {
    let steps_per_day = 86_400.0 / seconds_per_step;
    steps_per_day * dt_fs * 1e-9
}

/// Complementary error function in double precision (~1e-15 relative),
/// via a Taylor series below 2 and a continued fraction above. Used by the
/// Ewald kernels and by splitting-parameter selection.
pub fn erfc(x: f64) -> f64 {
    if x < 0.0 {
        return 2.0 - erfc(-x);
    }
    if x < 2.0 {
        let x2 = x * x;
        let mut term = x;
        let mut sum = x;
        for n in 1..200 {
            term *= -x2 / n as f64;
            let add = term / (2 * n + 1) as f64;
            sum += add;
            if add.abs() < 1e-18 * sum.abs() {
                break;
            }
        }
        1.0 - 2.0 / std::f64::consts::PI.sqrt() * sum
    } else {
        let x2 = x * x;
        let mut cf = 0.0;
        for k in (1..60).rev() {
            cf = 0.5 * k as f64 / (x + cf);
        }
        (-x2).exp() / (std::f64::consts::PI.sqrt() * (x + cf))
    }
}

/// Ewald splitting parameter β (1/Å) with `erfc(β·cutoff) = tol`, by
/// bisection: the usual direct-space tolerance construction, which leaves
/// the neglected erfc(β·r)/r tail a fixed small fraction of the bare
/// Coulomb term at the cutoff.
pub fn ewald_beta_for(cutoff: f64, tol: f64) -> f64 {
    let (mut lo, mut hi) = (1e-3f64, 10.0f64);
    for _ in 0..80 {
        let mid = 0.5 * (lo + hi);
        if erfc(mid * cutoff) > tol {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Error function, `erf(x) = 1 - erfc(x)`.
pub fn erf(x: f64) -> f64 {
    1.0 - erfc(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn us_per_day_matches_paper_example() {
        // DHFR on Anton: 13.2 µs wall per 2.5 fs step -> 16.4 µs/day.
        let rate = us_per_day(13.17e-6, 2.5);
        assert!((rate - 16.4).abs() < 0.1, "rate = {rate}");
    }

    #[test]
    fn erfc_matches_known_values() {
        assert!((erfc(0.0) - 1.0).abs() < 1e-14);
        assert!((erfc(1.0) - 0.157_299_207).abs() < 1e-8);
        assert!((erfc(2.0) - 0.004_677_735).abs() < 1e-9);
        assert!((erfc(3.0) - 2.209_05e-5).abs() < 1e-9);
        assert!((erfc(-1.0) - (2.0 - 0.157_299_207)).abs() < 1e-8);
        assert!((erf(0.5) - 0.520_499_878).abs() < 1e-8);
    }

    /// The β bits of the two bisection bodies this function replaced
    /// (`RunParams::ewald_beta` at 1e-5, `ForceEvaluator::conservative` at
    /// 1e-9), recorded from them before they were deleted: every PPIP
    /// table and every reference force hangs off these values.
    #[test]
    fn ewald_beta_is_pinned_bitwise() {
        for (cutoff, run, conservative) in [
            (6.5, 0x3fdec0ec6de44bd4u64, 0x3fe54489386ffc64u64),
            (7.5, 0x3fdaa7334e2c41b8, 0x3fe26e990ec77456),
            (9.0, 0x3fd63600167a36c4, 0x3fdeb8546df7173c),
            (10.5, 0x3fd309b6eeb1e5cc, 0x3fda54daa76613ea),
            (13.0, 0x3fcec0ec6de44bd4, 0x3fd54489386ffc64),
        ] {
            assert_eq!(ewald_beta_for(cutoff, 1e-5).to_bits(), run, "{cutoff}");
            assert_eq!(
                ewald_beta_for(cutoff, 1e-9).to_bits(),
                conservative,
                "{cutoff}"
            );
        }
    }

    #[test]
    fn accel_constant_sanity() {
        // A 1 kcal/mol/Å force on a hydrogen (1.008 amu) accelerates it by
        // ~4.15e-4 Å/fs².
        let a = 1.0 / 1.008 * ACCEL;
        assert!((a - 4.15e-4).abs() < 1e-5);
    }
}
