//! Direct-space (range-limited) pair kernels.
//!
//! These are the interactions Anton computes on the HTIS PPIP array: the
//! erfc-screened Coulomb term of the Ewald decomposition plus Lennard-Jones,
//! for every pair under the cutoff. Excluded pairs and scaled 1-4 pairs are
//! handled as *correction forces* (paper §3.1), which on Anton run on the
//! correction pipeline in the flexible subsystem.

use anton_forcefield::units::{erf, erfc, COULOMB};

/// Fast erfc with ~1.5e-7 absolute error (Abramowitz & Stegun 7.1.26),
/// matching what throughput-oriented MD codes use in their inner loops.
#[inline]
pub fn erfc_fast(x: f64) -> f64 {
    debug_assert!(x >= 0.0);
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    poly * (-x * x).exp()
}

/// Direct-space kernel bound to an Ewald splitting parameter.
#[derive(Clone, Copy, Debug)]
pub struct DirectKernel {
    pub beta: f64,
    pub cutoff: f64,
    /// Use the fast erfc approximation (production path) instead of the
    /// high-accuracy one (reference path).
    pub fast_erfc: bool,
}

impl DirectKernel {
    pub fn new(beta: f64, cutoff: f64) -> DirectKernel {
        DirectKernel {
            beta,
            cutoff,
            fast_erfc: true,
        }
    }

    pub fn reference(beta: f64, cutoff: f64) -> DirectKernel {
        DirectKernel {
            beta,
            cutoff,
            fast_erfc: false,
        }
    }

    #[inline]
    fn erfc_impl(&self, x: f64) -> f64 {
        if self.fast_erfc {
            erfc_fast(x)
        } else {
            erfc(x)
        }
    }

    /// Energy and `force/r` of the screened Coulomb term `qq·erfc(βr)/r`
    /// (energy in kcal/mol with `qq` in e²; multiply `f_over_r` by the
    /// displacement vector to get the force on atom i for `d = r_i - r_j`).
    #[inline]
    pub fn coulomb(&self, qq: f64, r2: f64) -> (f64, f64) {
        let r = r2.sqrt();
        let x = self.beta * r;
        let erfc_x = self.erfc_impl(x);
        let e = COULOMB * qq * erfc_x / r;
        // d/dr [erfc(βr)/r] = -erfc/r² - (2β/√π) e^{-β²r²} / r.
        let two_over_sqrt_pi = 2.0 / std::f64::consts::PI.sqrt();
        let f_over_r =
            COULOMB * qq * (erfc_x / r + two_over_sqrt_pi * self.beta * (-x * x).exp()) / r2;
        (e, f_over_r)
    }

    /// Correction removing the reciprocal-space contribution of an excluded
    /// pair: `U = -qq·erf(βr)/r` (always uses the accurate erf — corrections
    /// are cheap and must cancel the mesh term precisely).
    #[inline]
    pub fn exclusion_correction(&self, qq: f64, r2: f64) -> (f64, f64) {
        let r = r2.sqrt();
        let x = self.beta * r;
        let erf_x = erf(x);
        let e = -COULOMB * qq * erf_x / r;
        let two_over_sqrt_pi = 2.0 / std::f64::consts::PI.sqrt();
        // d/dr [erf(βr)/r] = -erf/r² + (2β/√π) e^{-β²r²}/r; force = -qq·d/dr(..)·(-1)...
        let f_over_r =
            -COULOMB * qq * (erf_x / r - two_over_sqrt_pi * self.beta * (-x * x).exp()) / r2;
        (e, f_over_r)
    }

    /// Combined energy and `force/r` for one range-limited pair, LJ included.
    /// `scale_elec`/`scale_lj` implement 1-4 policies (1.0 for normal pairs).
    #[inline]
    pub fn pair(
        &self,
        qq: f64,
        lj_a: f64,
        lj_b: f64,
        r2: f64,
        scale_elec: f64,
        scale_lj: f64,
    ) -> (f64, f64) {
        let (e_c, f_c) = self.coulomb(qq, r2);
        let inv_r2 = 1.0 / r2;
        let inv_r6 = inv_r2 * inv_r2 * inv_r2;
        let e_lj = lj_a * inv_r6 * inv_r6 - lj_b * inv_r6;
        let f_lj = (12.0 * lj_a * inv_r6 * inv_r6 - 6.0 * lj_b * inv_r6) * inv_r2;
        (
            scale_elec * e_c + scale_lj * e_lj,
            scale_elec * f_c + scale_lj * f_lj,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_erfc_close_to_accurate() {
        for i in 0..500 {
            let x = i as f64 * 0.01;
            assert!((erfc_fast(x) - erfc(x)).abs() < 2e-7, "x={x}");
        }
    }

    #[test]
    fn coulomb_force_is_gradient() {
        let k = DirectKernel::reference(0.3, 12.0);
        for &r in &[2.0f64, 4.0, 8.0, 11.0] {
            let h = 1e-6;
            let (ep, _) = k.coulomb(1.0, (r + h) * (r + h));
            let (em, _) = k.coulomb(1.0, (r - h) * (r - h));
            let dudr = (ep - em) / (2.0 * h);
            let (_, f_over_r) = k.coulomb(1.0, r * r);
            assert!(
                (f_over_r * r + dudr).abs() < 1e-4 * (1.0 + dudr.abs()),
                "r={r}: {} vs {}",
                f_over_r * r,
                -dudr
            );
        }
    }

    #[test]
    fn exclusion_correction_is_gradient() {
        let k = DirectKernel::reference(0.3, 12.0);
        for &r in &[1.0f64, 2.0, 3.5] {
            let h = 1e-6;
            let (ep, _) = k.exclusion_correction(0.5, (r + h) * (r + h));
            let (em, _) = k.exclusion_correction(0.5, (r - h) * (r - h));
            let dudr = (ep - em) / (2.0 * h);
            let (_, f_over_r) = k.exclusion_correction(0.5, r * r);
            assert!(
                (f_over_r * r + dudr).abs() < 1e-4 * (1.0 + dudr.abs()),
                "r={r}"
            );
        }
    }

    #[test]
    fn erfc_plus_erf_parts_sum_to_bare_coulomb() {
        // The direct term plus the (negated) exclusion correction must equal
        // the full 1/r interaction: erfc + erf = 1.
        let k = DirectKernel::reference(0.35, 12.0);
        let r2: f64 = 9.0;
        let (e_direct, f_direct) = k.coulomb(0.8, r2);
        let (e_corr, f_corr) = k.exclusion_correction(0.8, r2);
        let e_bare = COULOMB * 0.8 / 3.0;
        let f_bare = COULOMB * 0.8 / (3.0 * 9.0);
        assert!((e_direct - e_corr - e_bare).abs() < 1e-9);
        assert!((f_direct - f_corr - f_bare).abs() < 1e-9);
    }

    #[test]
    fn pair_kernel_applies_scales() {
        let k = DirectKernel::new(0.3, 12.0);
        let (e_full, f_full) = k.pair(0.25, 1000.0, 30.0, 10.0, 1.0, 1.0);
        let (e_half, f_half) = k.pair(0.25, 1000.0, 30.0, 10.0, 0.5, 0.5);
        assert!((e_half * 2.0 - e_full).abs() < 1e-12);
        assert!((f_half * 2.0 - f_full).abs() < 1e-12);
    }
}
