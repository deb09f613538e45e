//! Cα Gō model of gpW for the Figure 7 folding/unfolding experiment.
//!
//! The paper simulated the 62-residue viral protein gpW for 236 µs at its
//! melting temperature and observed repeated folding and unfolding events.
//! An all-atom explicit-water reproduction of that trajectory is compute-
//! gated, so this module implements the standard structure-based (Gō)
//! substitution: one bead per residue, native contacts attract with a 12-10
//! potential, everything else repels, and bonded terms bias the chain toward
//! its native geometry. Near the model's melting temperature, Langevin
//! dynamics shows the same two-state hopping in the fraction of native
//! contacts Q(t) that the paper's Figure 7 illustrates with snapshots.

use anton_geometry::Vec3;

/// A structure-based (Gō) model over Cα beads.
#[derive(Clone, Debug)]
pub struct GoModel {
    /// Native Cα coordinates (Å).
    pub native: Vec<Vec3>,
    /// Native pseudo-bond lengths between consecutive beads.
    bond_r0: Vec<f64>,
    /// Native pseudo-angles.
    angle_t0: Vec<f64>,
    /// Native contacts `(i, j, r_native)` with `|i - j| >= 4`, sorted by
    /// `(i, j)` (membership is a binary search).
    pub contacts: Vec<(u32, u32, f64)>,
}

/// Contact well depth ε (kcal/mol).
const EPS_CONTACT: f64 = 1.0;
/// Repulsive core σ for non-native pairs (Å).
const SIGMA_REP: f64 = 4.0;
const K_BOND: f64 = 100.0;
const K_ANGLE: f64 = 10.0;

/// Build a synthetic gpW-like native structure: an α+β topology rendered as
/// two helical segments packed against a hairpin, 62 residues. Deterministic.
pub fn gpw_native() -> Vec<Vec3> {
    let mut ca = Vec::with_capacity(62);
    // Helix 1: residues 0..24, axis +x.
    for i in 0..24 {
        let t = i as f64 * 100.0_f64.to_radians();
        ca.push(Vec3::new(i as f64 * 1.5, 2.3 * t.cos(), 2.3 * t.sin()));
    }
    // Turn + hairpin strand 1: residues 24..38, coming back along -x at y ≈ 6.
    for i in 0..14 {
        ca.push(Vec3::new(
            34.0 - i as f64 * 2.2,
            6.0,
            1.5 + 0.3 * (i % 2) as f64,
        ));
    }
    // Hairpin strand 2: residues 38..48, going +x at y ≈ 10.5.
    for i in 0..10 {
        ca.push(Vec3::new(
            4.0 + i as f64 * 2.2,
            10.5,
            1.5 - 0.3 * (i % 2) as f64,
        ));
    }
    // Helix 2: residues 48..62, packed above helix 1.
    for i in 0..14 {
        let t = i as f64 * 100.0_f64.to_radians() + 0.7;
        ca.push(Vec3::new(
            26.0 - i as f64 * 1.5,
            5.0 + 2.3 * t.cos(),
            6.5 + 2.3 * t.sin(),
        ));
    }
    // Rescale consecutive distances to the canonical 3.8 Å Cα spacing.
    for i in 1..ca.len() {
        let d = ca[i] - ca[i - 1];
        let n = d.norm();
        if n > 1e-9 {
            let fixed = ca[i - 1] + d * (3.8 / n);
            let shift = fixed - ca[i];
            for p in ca.iter_mut().skip(i) {
                *p += shift;
            }
        }
    }
    ca
}

impl GoModel {
    /// Build a Gō model from a native structure: contacts are residue pairs
    /// `|i-j| ≥ 4` with native Cα distance < `contact_cutoff` (Å, typically 8).
    pub fn from_native(native: Vec<Vec3>, contact_cutoff: f64) -> GoModel {
        let n = native.len();
        let bond_r0 = (1..n).map(|i| (native[i] - native[i - 1]).norm()).collect();
        let angle_t0 = (1..n - 1)
            .map(|i| {
                let a = (native[i - 1] - native[i]).normalized().unwrap();
                let b = (native[i + 1] - native[i]).normalized().unwrap();
                a.dot(b).clamp(-1.0, 1.0).acos()
            })
            .collect();
        let mut contacts = Vec::new();
        for i in 0..n {
            for j in (i + 4)..n {
                let r = (native[i] - native[j]).norm();
                if r < contact_cutoff {
                    contacts.push((i as u32, j as u32, r));
                }
            }
        }
        GoModel {
            native,
            bond_r0,
            angle_t0,
            contacts,
        }
    }

    /// The standard gpW model used by the Figure 7 harness.
    pub fn gpw() -> GoModel {
        GoModel::from_native(gpw_native(), 6.5)
    }

    pub fn n_beads(&self) -> usize {
        self.native.len()
    }

    /// Compute forces into `forces` (must be zeroed by the caller) and return
    /// the potential energy. Open boundaries (no box): the Gō chain cannot
    /// dissociate.
    pub fn forces(&self, pos: &[Vec3], forces: &mut [Vec3]) -> f64 {
        let n = self.n_beads();
        debug_assert_eq!(pos.len(), n);
        let mut energy = 0.0;

        // Pseudo-bonds.
        for (i, &r0) in self.bond_r0.iter().enumerate() {
            let d = pos[i + 1] - pos[i];
            let r = d.norm();
            let dr = r - r0;
            energy += K_BOND * dr * dr;
            let f = d * (-2.0 * K_BOND * dr / r.max(1e-9));
            forces[i + 1] += f;
            forces[i] -= f;
        }
        // Pseudo-angles.
        for (idx, &t0) in self.angle_t0.iter().enumerate() {
            let j = idx + 1;
            let va = pos[j - 1] - pos[j];
            let vb = pos[j + 1] - pos[j];
            let (la, lb) = (va.norm(), vb.norm());
            let (ua, ub) = (va / la, vb / lb);
            let c = ua.dot(ub).clamp(-1.0, 1.0);
            let theta = c.acos();
            let s = (1.0 - c * c).sqrt().max(1e-8);
            let dt = theta - t0;
            energy += K_ANGLE * dt * dt;
            let dudtheta = 2.0 * K_ANGLE * dt;
            let f_a = (ub - ua * c) * (dudtheta / (la * s));
            let f_b = (ua - ub * c) * (dudtheta / (lb * s));
            forces[j - 1] += f_a;
            forces[j + 1] += f_b;
            forces[j] -= f_a + f_b;
        }
        // Native contacts: 12-10 well with minimum exactly at r_native.
        for &(i, j, rn) in &self.contacts {
            let d = pos[i as usize] - pos[j as usize];
            let r2 = d.norm2();
            let s2 = rn * rn / r2;
            let s10 = s2 * s2 * s2 * s2 * s2;
            let s12 = s10 * s2;
            energy += EPS_CONTACT * (5.0 * s12 - 6.0 * s10);
            // dU/dr² = ε(5·(-6)s¹²/r² + (-6)·(-5)... ) worked out:
            // U = ε(5 σ¹²r⁻¹² − 6 σ¹⁰ r⁻¹⁰); dU/dr = ε(−60σ¹²r⁻¹³ + 60 σ¹⁰ r⁻¹¹)
            // force = −dU/dr · d̂ on i.
            let fmag_over_r = EPS_CONTACT * 60.0 * (s12 - s10) / r2;
            let f = d * fmag_over_r;
            forces[i as usize] += f;
            forces[j as usize] -= f;
        }
        // Non-native repulsion for |i-j| >= 4 (skip bonded/angle neighbors).
        let s2r = SIGMA_REP * SIGMA_REP;
        for i in 0..n as u32 {
            for j in (i + 4)..n as u32 {
                let native = self
                    .contacts
                    .binary_search_by_key(&(i, j), |&(a, b, _)| (a, b));
                if native.is_ok() {
                    continue;
                }
                let d = pos[i as usize] - pos[j as usize];
                let r2 = d.norm2();
                if r2 > 4.0 * s2r {
                    continue;
                }
                let s2 = s2r / r2;
                let s12 = s2 * s2 * s2 * s2 * s2 * s2;
                energy += EPS_CONTACT * s12;
                let f = d * (12.0 * EPS_CONTACT * s12 / r2);
                forces[i as usize] += f;
                forces[j as usize] -= f;
            }
        }
        energy
    }

    /// Fraction of native contacts currently formed (contact counts as
    /// formed when `r < 1.2 r_native`): the Q(t) reaction coordinate.
    pub fn fraction_native(&self, pos: &[Vec3]) -> f64 {
        let formed = self
            .contacts
            .iter()
            .filter(|&&(i, j, rn)| (pos[i as usize] - pos[j as usize]).norm() < 1.2 * rn)
            .count();
        formed as f64 / self.contacts.len().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn native_structure_is_chain_like() {
        let ca = gpw_native();
        assert_eq!(ca.len(), 62);
        for w in ca.windows(2) {
            let d = (w[1] - w[0]).norm();
            assert!((d - 3.8).abs() < 1e-9, "consecutive Cα at {d}");
        }
    }

    #[test]
    fn model_has_reasonable_contact_count() {
        let m = GoModel::gpw();
        // A folded 62-residue protein has on the order of 1–2 contacts per
        // residue at an 8 Å Cα cutoff.
        assert!(
            m.contacts.len() > 40 && m.contacts.len() < 300,
            "contacts = {}",
            m.contacts.len()
        );
    }

    #[test]
    fn native_state_is_energy_minimum_with_q_one() {
        let m = GoModel::gpw();
        let mut f = vec![Vec3::ZERO; m.n_beads()];
        let e_native = m.forces(&m.native, &mut f);
        assert!((m.fraction_native(&m.native) - 1.0).abs() < 1e-12);
        // Perturbed structure has higher energy.
        let stretched: Vec<Vec3> = m.native.iter().map(|p| *p * 1.3).collect();
        let mut f2 = vec![Vec3::ZERO; m.n_beads()];
        let e_stretched = m.forces(&stretched, &mut f2);
        assert!(e_stretched > e_native + 10.0, "{e_stretched} vs {e_native}");
    }

    #[test]
    fn forces_match_numerical_gradient() {
        let m = GoModel::gpw();
        // Slightly perturbed from native so no term is exactly at a minimum.
        let pos: Vec<Vec3> = m
            .native
            .iter()
            .enumerate()
            .map(|(i, p)| *p + Vec3::new(0.05 * ((i % 3) as f64 - 1.0), 0.03, -0.04))
            .collect();
        let mut f = vec![Vec3::ZERO; m.n_beads()];
        m.forces(&pos, &mut f);
        let h = 1e-6;
        let mut p2 = pos.clone();
        for i in [0usize, 10, 30, 61] {
            for ax in 0..3 {
                p2[i][ax] += h;
                let mut tmp = vec![Vec3::ZERO; m.n_beads()];
                let up = m.forces(&p2, &mut tmp);
                p2[i][ax] -= 2.0 * h;
                let mut tmp2 = vec![Vec3::ZERO; m.n_beads()];
                let um = m.forces(&p2, &mut tmp2);
                p2[i][ax] += h;
                let num = -(up - um) / (2.0 * h);
                assert!(
                    (f[i][ax] - num).abs() < 1e-3 * (1.0 + num.abs()),
                    "bead {i} axis {ax}: {} vs {num}",
                    f[i][ax]
                );
            }
        }
    }

    #[test]
    fn net_force_is_zero() {
        let m = GoModel::gpw();
        let pos: Vec<Vec3> = m
            .native
            .iter()
            .map(|p| *p + Vec3::new(0.1, -0.07, 0.02))
            .collect();
        let mut f = vec![Vec3::ZERO; m.n_beads()];
        m.forces(&pos, &mut f);
        let net = f.iter().fold(Vec3::ZERO, |a, &b| a + b);
        assert!(net.norm() < 1e-9, "net {net:?}");
    }
}
