//! The reference engine's integrator: velocity Verlet with impulse (r-RESPA)
//! multiple time stepping, SHAKE/RATTLE, and Berendsen temperature control.

use crate::forces::{Energies, ForceEvaluator};
use crate::profile::TaskProfile;
use anton_forcefield::constraints::{assert_disjoint_groups, rattle, shake};
use anton_forcefield::units::ACCEL;
use anton_forcefield::water::{vsite_position, vsite_spread_force};
use anton_geometry::Vec3;
use anton_systems::velocities::{kinetic_energy, temperature};
use anton_systems::{System, Thermostat};
use std::time::Instant;

/// A running reference simulation.
pub struct RefSimulation {
    pub system: System,
    pub evaluator: ForceEvaluator,
    pub positions: Vec<Vec3>,
    pub velocities: Vec<Vec3>,
    pub thermostat: Thermostat,
    pub profile: TaskProfile,
    /// Most recent energy breakdown.
    pub energies: Energies,
    short_forces: Vec<Vec3>,
    long_forces: Vec<Vec3>,
    step: u64,
    shake_tol: f64,
}

impl RefSimulation {
    pub fn new(system: System, velocities: Vec<Vec3>, thermostat: Thermostat) -> RefSimulation {
        let n = system.n_atoms();
        assert_eq!(velocities.len(), n);
        assert_disjoint_groups(&system.topology.constraint_groups, n);
        let evaluator = ForceEvaluator::new(&system);
        let positions = system.positions.clone();
        let mut sim = RefSimulation {
            system,
            evaluator,
            positions,
            velocities,
            thermostat,
            profile: TaskProfile::default(),
            energies: Energies::default(),
            short_forces: vec![Vec3::ZERO; n],
            long_forces: vec![Vec3::ZERO; n],
            step: 0,
            shake_tol: 1e-10,
        };
        sim.refresh_forces();
        sim
    }

    /// Recompute both force classes at the current positions.
    pub fn refresh_forces(&mut self) {
        self.refresh_short();
        self.refresh_long();
    }

    #[inline]
    fn kick(&mut self, which: Which, dt_fs: f64) {
        let top = &self.system.topology;
        let forces = match which {
            Which::Short => &self.short_forces,
            Which::Long => &self.long_forces,
        };
        for ((v, &m), &f) in self.velocities.iter_mut().zip(&top.mass).zip(forces.iter()) {
            if m > 0.0 {
                *v += f * (dt_fs * ACCEL / m);
            }
        }
    }

    /// Run one r-RESPA outer cycle = `longrange_every` inner steps.
    ///
    /// Impulse scheme: half long-range kick (k·dt/2), k velocity-Verlet
    /// steps on short-range forces (with SHAKE/RATTLE), long-range
    /// recompute, half long-range kick.
    pub fn run_cycle(&mut self) {
        let k = self.system.params.longrange_every.max(1);
        let dt = self.system.params.dt_fs;

        self.kick(Which::Long, k as f64 * dt / 2.0);
        for _ in 0..k {
            self.inner_step(dt);
        }
        // Recompute long-range forces at the new positions.
        self.refresh_long();
        self.kick(Which::Long, k as f64 * dt / 2.0);

        if let Thermostat::Berendsen { target_k, tau_fs } = self.thermostat {
            let t = temperature(&self.system.topology, &self.velocities);
            if t > 1e-6 {
                let lambda = (1.0 + (k as f64 * dt / tau_fs) * (target_k / t - 1.0))
                    .max(0.0)
                    .sqrt();
                for v in self.velocities.iter_mut() {
                    *v = *v * lambda;
                }
            }
        }
    }

    /// One inner velocity-Verlet step on short-range forces.
    fn inner_step(&mut self, dt: f64) {
        let t0 = Instant::now();
        self.kick(Which::Short, dt / 2.0);
        let pos_ref = self.positions.clone();
        for i in 0..self.positions.len() {
            if self.system.topology.mass[i] > 0.0 {
                self.positions[i] += self.velocities[i] * dt;
            }
        }
        // Constraints.
        let has_constraints = !self.system.topology.constraint_groups.is_empty();
        if has_constraints {
            shake(
                &self.system.pbox,
                &self.system.topology.constraint_groups,
                &self.system.topology.mass,
                &pos_ref,
                &mut self.positions,
                self.shake_tol,
                200,
            );
            // Absorb the position corrections into the velocities:
            // v ← (x_constrained − x_ref)/dt, the standard SHAKE companion
            // update (equals v_unconstrained + Δx_constraint/dt).
            let masses = &self.system.topology.mass;
            for ((v, &m), (&p, &pr)) in self
                .velocities
                .iter_mut()
                .zip(masses)
                .zip(self.positions.iter().zip(&pos_ref))
            {
                if m > 0.0 {
                    *v = (p - pr) * (1.0 / dt);
                }
            }
        }
        self.profile.integration_s += t0.elapsed().as_secs_f64();

        // New short-range forces at updated positions.
        self.refresh_short();

        let t1 = Instant::now();
        self.kick(Which::Short, dt / 2.0);
        if has_constraints {
            rattle(
                &self.system.pbox,
                &self.system.topology.constraint_groups,
                &self.system.topology.mass,
                &self.positions,
                &mut self.velocities,
                1e-12,
                200,
            );
        }
        self.step += 1;
        self.profile.steps = self.step;
        self.profile.integration_s += t1.elapsed().as_secs_f64();
    }

    fn refresh_short(&mut self) {
        for v in &self.system.topology.virtual_sites {
            self.positions[v.site as usize] = vsite_position(v, &self.positions);
        }
        for f in self.short_forces.iter_mut() {
            *f = Vec3::ZERO;
        }
        let short = self.evaluator.short_range(
            &self.system,
            &self.positions,
            &mut self.short_forces,
            &mut self.profile,
        );
        for v in &self.system.topology.virtual_sites {
            vsite_spread_force(v, &mut self.short_forces);
        }
        self.energies.bonded = short.bonded;
        self.energies.range_limited = short.range_limited;
    }

    /// Place virtual sites, then evaluate the long-range class and spread
    /// its site forces, as [`Self::refresh_short`] does for the short one.
    fn refresh_long(&mut self) {
        for v in &self.system.topology.virtual_sites {
            self.positions[v.site as usize] = vsite_position(v, &self.positions);
        }
        for f in self.long_forces.iter_mut() {
            *f = Vec3::ZERO;
        }
        let long = self.evaluator.long_range(
            &self.system,
            &self.positions,
            &mut self.long_forces,
            &mut self.profile,
        );
        for v in &self.system.topology.virtual_sites {
            vsite_spread_force(v, &mut self.long_forces);
        }
        self.energies.reciprocal = long.reciprocal;
        self.energies.correction = long.correction;
    }

    pub fn step_count(&self) -> u64 {
        self.step
    }

    pub fn kinetic(&self) -> f64 {
        kinetic_energy(&self.system.topology, &self.velocities)
    }

    pub fn temperature_k(&self) -> f64 {
        temperature(&self.system.topology, &self.velocities)
    }

    /// Total (potential + kinetic) energy at the current state.
    pub fn total_energy(&self) -> f64 {
        self.energies.potential() + self.kinetic()
    }
}

enum Which {
    Short,
    Long,
}

#[cfg(test)]
mod tests {
    use super::*;
    use anton_systems::spec::RunParams;
    use anton_systems::velocities::init_velocities;

    fn water_sim(n: usize, thermostat: Thermostat) -> RefSimulation {
        let sys = anton_systems::water_box("w", 18.0, n, 21, RunParams::paper(8.0, 16)).unwrap();
        let vel = init_velocities(&sys.topology, 300.0, 5);
        RefSimulation::new(sys, vel, thermostat)
    }

    #[test]
    fn constraints_hold_through_dynamics() {
        let mut sim = water_sim(120, Thermostat::None);
        for _ in 0..10 {
            sim.run_cycle();
        }
        for g in &sim.system.topology.constraint_groups {
            for &(i, j, d0) in &g.pairs {
                let d = sim
                    .system
                    .pbox
                    .min_image(sim.positions[i as usize], sim.positions[j as usize])
                    .norm();
                assert!((d - d0).abs() < 1e-6, "constraint ({i},{j}) drifted to {d}");
            }
        }
    }

    /// SHAKE's per-group solve rests on groups sharing no atom.
    #[test]
    #[should_panic(expected = "share atom 0")]
    fn build_refuses_overlapping_constraint_groups() {
        let mut sys =
            anton_systems::water_box("w", 18.0, 8, 21, RunParams::paper(8.0, 16)).unwrap();
        sys.topology
            .constraint_groups
            .push(anton_forcefield::ConstraintGroup {
                pairs: vec![(0, 3, 2.8)],
            });
        let vel = vec![Vec3::ZERO; sys.n_atoms()];
        RefSimulation::new(sys, vel, Thermostat::None);
    }

    #[test]
    fn nve_energy_is_roughly_conserved() {
        let mut sim = water_sim(120, Thermostat::None);
        // Let the lattice relax a few cycles before measuring.
        for _ in 0..5 {
            sim.run_cycle();
        }
        let e0 = sim.total_energy();
        for _ in 0..40 {
            sim.run_cycle();
        }
        let e1 = sim.total_energy();
        let per_dof = (e1 - e0).abs() / sim.system.topology.degrees_of_freedom() as f64;
        // 80 steps × 2.5 fs: drift must be far below thermal energy
        // (kT/2 ≈ 0.3 kcal/mol per DoF).
        assert!(
            per_dof < 0.05,
            "energy moved {per_dof} kcal/mol/DoF over 200 fs"
        );
    }

    #[test]
    fn berendsen_pulls_temperature_to_target() {
        // Tight coupling: the unequilibrated lattice releases potential
        // energy for a while, which the thermostat must carry away.
        let mut sim = water_sim(
            120,
            Thermostat::Berendsen {
                target_k: 350.0,
                tau_fs: 15.0,
            },
        );
        for _ in 0..150 {
            sim.run_cycle();
        }
        let t = sim.temperature_k();
        assert!((t - 350.0).abs() < 50.0, "temperature {t} K");
    }

    #[test]
    fn com_momentum_stays_near_zero() {
        let mut sim = water_sim(80, Thermostat::None);
        for _ in 0..20 {
            sim.run_cycle();
        }
        let p = sim
            .velocities
            .iter()
            .enumerate()
            .fold(Vec3::ZERO, |a, (i, v)| a + *v * sim.system.topology.mass[i]);
        // Mesh forces break exact invariance; momentum growth stays tiny.
        assert!(p.norm() < 0.5, "net momentum {p:?}");
    }
}
