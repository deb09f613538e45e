//! Lennard-Jones interactions.

/// Precombined LJ coefficients for every ordered type pair:
/// `U(r) = A/r¹² − B/r⁶` with `A = 4εσ¹²`, `B = 4εσ⁶`.
///
/// Both engines look interactions up by `(type_i, type_j)`; combination
/// (Lorentz–Berthelot: arithmetic σ, geometric ε) happens once at build time.
#[derive(Clone, Debug, Default)]
pub struct LjTable {
    n_types: usize,
    a: Vec<f64>,
    b: Vec<f64>,
}

impl LjTable {
    /// Build from per-type `(σ, ε)` with Lorentz–Berthelot combining rules.
    pub fn from_types(types: &[(f64, f64)]) -> LjTable {
        let n = types.len();
        let mut a = vec![0.0; n * n];
        let mut b = vec![0.0; n * n];
        for (i, &(si, ei)) in types.iter().enumerate() {
            for (j, &(sj, ej)) in types.iter().enumerate() {
                let sigma = 0.5 * (si + sj);
                let eps = (ei * ej).sqrt();
                let s6 = sigma.powi(6);
                a[i * n + j] = 4.0 * eps * s6 * s6;
                b[i * n + j] = 4.0 * eps * s6;
            }
        }
        LjTable { n_types: n, a, b }
    }

    #[inline]
    pub fn n_types(&self) -> usize {
        self.n_types
    }

    /// `(A, B)` for a type pair.
    #[inline]
    pub fn coeffs(&self, ti: u16, tj: u16) -> (f64, f64) {
        let idx = ti as usize * self.n_types + tj as usize;
        (self.a[idx], self.b[idx])
    }

    /// Potential energy at squared distance `r2`.
    #[inline]
    pub fn energy(&self, ti: u16, tj: u16, r2: f64) -> f64 {
        let (a, b) = self.coeffs(ti, tj);
        let inv_r6 = 1.0 / (r2 * r2 * r2);
        a * inv_r6 * inv_r6 - b * inv_r6
    }

    /// `-(1/r) dU/dr` at squared distance `r2`: multiply by the displacement
    /// vector to obtain the force on atom i for `d = r_i - r_j`.
    #[inline]
    pub fn force_over_r(&self, ti: u16, tj: u16, r2: f64) -> f64 {
        let (a, b) = self.coeffs(ti, tj);
        let inv_r2 = 1.0 / r2;
        let inv_r6 = inv_r2 * inv_r2 * inv_r2;
        (12.0 * a * inv_r6 * inv_r6 - 6.0 * b * inv_r6) * inv_r2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimum_at_r_min() {
        // U has its minimum at r = 2^(1/6) σ with depth -ε.
        let t = LjTable::from_types(&[(3.0, 0.2)]);
        let rmin: f64 = 2f64.powf(1.0 / 6.0) * 3.0;
        let u = t.energy(0, 0, rmin * rmin);
        assert!((u + 0.2).abs() < 1e-12, "u = {u}");
        // Force ~ 0 at the minimum.
        assert!(t.force_over_r(0, 0, rmin * rmin).abs() < 1e-12);
    }

    #[test]
    fn zero_crossing_at_sigma() {
        let t = LjTable::from_types(&[(3.0, 0.2)]);
        assert!(t.energy(0, 0, 9.0).abs() < 1e-10);
    }

    #[test]
    fn force_matches_numerical_gradient() {
        let t = LjTable::from_types(&[(3.2, 0.15)]);
        for &r in &[3.0f64, 3.5, 4.0, 6.0, 8.0] {
            let h = 1e-6;
            let up = t.energy(0, 0, (r + h) * (r + h));
            let um = t.energy(0, 0, (r - h) * (r - h));
            let dudr = (up - um) / (2.0 * h);
            let got = t.force_over_r(0, 0, r * r) * r; // -dU/dr
            assert!((got + dudr).abs() < 1e-5, "r={r}: {got} vs {}", -dudr);
        }
    }

    #[test]
    fn combining_rules() {
        let t = LjTable::from_types(&[(3.0, 0.1), (4.0, 0.4)]);
        // Cross σ = 3.5, ε = 0.2.
        let (a, b) = t.coeffs(0, 1);
        let s6 = 3.5f64.powi(6);
        assert!((a - 4.0 * 0.2 * s6 * s6).abs() < 1e-9);
        assert!((b - 4.0 * 0.2 * s6).abs() < 1e-9);
        // Symmetric.
        assert_eq!(t.coeffs(0, 1), t.coeffs(1, 0));
    }
}
