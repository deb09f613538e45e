//! Full force evaluation for the reference engine.

use crate::profile::TaskProfile;
use anton_ewald::direct::DirectKernel;
use anton_ewald::{Mesh, Spme};
use anton_forcefield::bonded;
use anton_forcefield::units::ewald_beta_for;
use anton_forcefield::water::{vsite_position, vsite_spread_force};
use anton_geometry::{CellGrid, Vec3};
use anton_systems::System;
use std::time::Instant;

/// Potential-energy breakdown of one evaluation (kcal/mol).
#[derive(Clone, Copy, Debug, Default)]
pub struct Energies {
    pub bonded: f64,
    /// Direct-space electrostatics + LJ under the cutoff.
    pub range_limited: f64,
    /// Reciprocal-space (mesh) electrostatics, self-energy subtracted.
    pub reciprocal: f64,
    /// Excluded-pair and 1-4 corrections.
    pub correction: f64,
}

impl Energies {
    pub fn potential(&self) -> f64 {
        self.bonded + self.range_limited + self.reciprocal + self.correction
    }
}

/// A reusable force evaluator bound to one system. The range-limited
/// cutoff is the kernel's (`kernel.cutoff`), not the system's: the
/// conservative evaluator reaches further than the run parameters say.
pub struct ForceEvaluator {
    pub kernel: DirectKernel,
    pub spme: Spme,
}

impl ForceEvaluator {
    /// Standard production evaluator: SPME order 4 on the system's mesh,
    /// fast erfc in the pair loop.
    pub fn new(sys: &System) -> ForceEvaluator {
        let beta = sys.params.ewald_beta();
        ForceEvaluator {
            kernel: DirectKernel::new(beta, sys.params.cutoff),
            spme: Spme::new(Mesh::new(sys.params.mesh, sys.pbox), beta, 4),
        }
    }

    /// The accuracy reference of Table 4: "extremely conservative values
    /// for adjustable parameters (cutoffs, grid size, etc.)". High-accuracy
    /// erfc, the direct cutoff extended by 3 Å (as far as the box allows),
    /// β from a 1e-9 direct-space tolerance, a doubled mesh and order-6
    /// B-splines.
    pub fn conservative(sys: &System) -> ForceEvaluator {
        let e = sys.pbox.edge();
        let min_edge = e.x.min(e.y).min(e.z);
        let cutoff = (sys.params.cutoff + 3.0).min(min_edge / 2.0 - 0.51);
        let beta = ewald_beta_for(cutoff, 1e-9);
        let mesh_dims = sys.params.mesh.map(|m| m * 2);
        ForceEvaluator {
            kernel: DirectKernel::reference(beta, cutoff),
            spme: Spme::new(Mesh::new(mesh_dims, sys.pbox), beta, 6),
        }
    }

    /// Short-range part: bonded terms + range-limited pairs + corrections.
    /// Adds into `forces`; returns energies (reciprocal left zero).
    pub fn short_range(
        &self,
        sys: &System,
        pos: &[Vec3],
        forces: &mut [Vec3],
        profile: &mut TaskProfile,
    ) -> Energies {
        let top = &sys.topology;
        let mut en = Energies::default();

        // Bonded terms.
        let t0 = Instant::now();
        en.bonded = bonded::accumulate_bonded(&sys.pbox, pos, top, forces);
        profile.bonded_s += t0.elapsed().as_secs_f64();

        // Neighbor structure.
        let t1 = Instant::now();
        let cutoff = self.kernel.cutoff;
        let grid = CellGrid::build(&sys.pbox, pos, cutoff);
        profile.neighbor_s += t1.elapsed().as_secs_f64();

        // Range-limited pairs.
        let t2 = Instant::now();
        let policy = top
            .exclusions
            .policy
            .unwrap_or(anton_forcefield::ExclusionPolicy::amber_like());
        let mut e_rl = 0.0;
        grid.for_each_pair_within(pos, cutoff, |i, j, d, r2| {
            let Some((se, sl)) = policy.scales(top.exclusions.class(i as u32, j as u32)) else {
                return;
            };
            let qq = top.charge[i] * top.charge[j];
            let (a, b) = top.lj_table.coeffs(top.lj_type[i], top.lj_type[j]);
            let (e, f_over_r) = self.kernel.pair(qq, a, b, r2, se, sl);
            e_rl += e;
            let f = d * f_over_r;
            forces[i] += f;
            forces[j] -= f;
        });
        en.range_limited = e_rl;
        profile.range_limited_s += t2.elapsed().as_secs_f64();

        en
    }

    /// Long-range part: SPME reciprocal sum plus the exclusion corrections
    /// that cancel its excluded-pair content. Adds into `forces`.
    pub fn long_range(
        &self,
        sys: &System,
        pos: &[Vec3],
        forces: &mut [Vec3],
        profile: &mut TaskProfile,
    ) -> Energies {
        let top = &sys.topology;
        let mut en = Energies::default();

        // Table 2 separates "FFT & inverse FFT" from "mesh interpolation"
        // (charge assignment + force gather), so the stages are timed apart.
        let t0 = Instant::now();
        let rho = self.spme.assign_charges(pos, &top.charge);
        let t1 = Instant::now();
        let (conv, reciprocal) = self.spme.convolve(&rho, &top.charge);
        let t2 = Instant::now();
        self.spme.gather_forces(pos, &top.charge, &conv, forces);
        en.reciprocal = reciprocal;
        profile.fft_s += (t2 - t1).as_secs_f64();
        profile.mesh_s += (t1 - t0).as_secs_f64() + t2.elapsed().as_secs_f64();

        // Corrections: remove the reciprocal-space contribution of excluded
        // pairs entirely, and all but the scaled fraction for 1-4 pairs.
        let t0 = Instant::now();
        let policy = top
            .exclusions
            .policy
            .unwrap_or(anton_forcefield::ExclusionPolicy::amber_like());
        let mut e_corr = 0.0;
        for &(i, j) in top.exclusions.excluded_pairs() {
            let d = sys.pbox.min_image(pos[i as usize], pos[j as usize]);
            let qq = top.charge[i as usize] * top.charge[j as usize];
            if qq == 0.0 {
                continue;
            }
            let (e, f_over_r) = self.kernel.exclusion_correction(qq, d.norm2());
            e_corr += e;
            let f = d * f_over_r;
            forces[i as usize] += f;
            forces[j as usize] -= f;
        }
        for &(i, j) in top.exclusions.pairs_14() {
            let d = sys.pbox.min_image(pos[i as usize], pos[j as usize]);
            let qq = top.charge[i as usize] * top.charge[j as usize];
            if qq == 0.0 {
                continue;
            }
            let scale = 1.0 - policy.elec_14;
            let (e, f_over_r) = self.kernel.exclusion_correction(qq * scale, d.norm2());
            e_corr += e;
            let f = d * f_over_r;
            forces[i as usize] += f;
            forces[j as usize] -= f;
        }
        en.correction = e_corr;
        profile.correction_s += t0.elapsed().as_secs_f64();

        en
    }

    /// Everything at once (virtual sites projected and spread), for force
    /// comparisons and tests. Returns the combined energies.
    pub fn all_forces(
        &self,
        sys: &System,
        pos: &mut [Vec3],
        forces: &mut [Vec3],
        profile: &mut TaskProfile,
    ) -> Energies {
        for v in &sys.topology.virtual_sites {
            pos[v.site as usize] = vsite_position(v, pos);
        }
        for f in forces.iter_mut() {
            *f = Vec3::ZERO;
        }
        let short = self.short_range(sys, pos, forces, profile);
        let long = self.long_range(sys, pos, forces, profile);
        for v in &sys.topology.virtual_sites {
            vsite_spread_force(v, forces);
        }
        Energies {
            bonded: short.bonded,
            range_limited: short.range_limited,
            reciprocal: long.reciprocal,
            correction: long.correction,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anton_systems::spec::RunParams;

    fn small_water_system() -> System {
        anton_systems::water_box("water150", 18.0, 150, 5, RunParams::paper(8.0, 16)).unwrap()
    }

    #[test]
    fn forces_match_numerical_gradient_of_total_potential() {
        let sys = small_water_system();
        let ev = ForceEvaluator::new(&sys);
        let mut pos = sys.positions.clone();
        let mut forces = vec![Vec3::ZERO; sys.n_atoms()];
        let mut prof = TaskProfile::default();
        ev.all_forces(&sys, &mut pos, &mut forces, &mut prof);

        let h = 1e-5;
        // Check a handful of real atoms (hydrogens of different molecules).
        for &i in &[1usize, 100, 301] {
            for ax in 0..3 {
                let mut p2 = sys.positions.clone();
                p2[i][ax] += h;
                let mut f2 = vec![Vec3::ZERO; sys.n_atoms()];
                let mut pr = TaskProfile::default();
                let ep = ev.all_forces(&sys, &mut p2, &mut f2, &mut pr).potential();
                p2[i][ax] -= 2.0 * h;
                let em = ev.all_forces(&sys, &mut p2, &mut f2, &mut pr).potential();
                let num = -(ep - em) / (2.0 * h);
                assert!(
                    (forces[i][ax] - num).abs() < 2e-3 * (1.0 + num.abs()),
                    "atom {i} ax {ax}: {} vs {num}",
                    forces[i][ax]
                );
            }
        }
    }

    #[test]
    fn net_force_is_small() {
        // Newton's third law holds pairwise; only the mesh breaks exact
        // translation invariance, at the force-error level.
        let sys = small_water_system();
        let ev = ForceEvaluator::new(&sys);
        let mut pos = sys.positions.clone();
        let mut forces = vec![Vec3::ZERO; sys.n_atoms()];
        let mut prof = TaskProfile::default();
        ev.all_forces(&sys, &mut pos, &mut forces, &mut prof);
        let net = forces.iter().fold(Vec3::ZERO, |a, &b| a + b);
        let rms = (forces.iter().map(|f| f.norm2()).sum::<f64>() / forces.len() as f64).sqrt();
        // The mesh breaks exact translation invariance at the SPME
        // interpolation-error level (~1e-2 relative for order 4 here).
        assert!(
            net.norm() < 2e-2 * rms * (sys.n_atoms() as f64).sqrt(),
            "net {net:?} rms {rms}"
        );
    }

    #[test]
    fn energies_are_physical_for_liquid_water() {
        // TIP3P liquid water at ~0.0334/Å³: potential energy should be
        // strongly negative (experimentally ≈ −9.5 kcal/mol per molecule;
        // an unequilibrated lattice won't match that, but must be bound).
        let sys = small_water_system();
        let ev = ForceEvaluator::new(&sys);
        let mut pos = sys.positions.clone();
        let mut forces = vec![Vec3::ZERO; sys.n_atoms()];
        let mut prof = TaskProfile::default();
        let en = ev.all_forces(&sys, &mut pos, &mut forces, &mut prof);
        let per_mol = en.potential() / 150.0;
        assert!(
            per_mol < -2.0,
            "water not bound: {per_mol} kcal/mol/molecule"
        );
        assert!(per_mol > -20.0, "unphysically deep: {per_mol}");
    }

    #[test]
    fn profile_accumulates() {
        let sys = small_water_system();
        let ev = ForceEvaluator::new(&sys);
        let mut pos = sys.positions.clone();
        let mut forces = vec![Vec3::ZERO; sys.n_atoms()];
        let mut prof = TaskProfile::default();
        ev.all_forces(&sys, &mut pos, &mut forces, &mut prof);
        assert!(prof.range_limited_s > 0.0);
        assert!(prof.fft_s > 0.0);
        assert!(prof.mesh_s > 0.0);
    }
}
