//! Cross-engine accuracy: the Anton engine's forces and energies against the
//! double-precision reference engine and the conservative reference — the
//! Table 4 measurement machinery, end to end, on a small solvated protein.

use anton_core::AntonSimulation;
use anton_forcefield::water::TIP3P;
use anton_refmd::reference::reference_forces;
use anton_refmd::TaskProfile;
use anton_refmd::{ForceEvaluator, RefSimulation};
use anton_systems::catalog::build_solvated;
use anton_systems::spec::{RunParams, Thermostat};
use anton_systems::velocities::init_velocities;

fn system(seed: u64) -> anton_systems::System {
    // Sized so the water lattice never needs keep-out relaxation: a strained
    // start (hot contacts) is exactly what the engines treat differently
    // (table clamps vs bare kernels) and what Table 4 does not measure.
    build_solvated(
        "acc",
        2114,
        28.0,
        RunParams::paper(8.5, 32),
        &TIP3P,
        10,
        0,
        0,
        seed,
    )
}

#[test]
fn anton_total_force_error_is_paper_scale() {
    // Total force error: Anton vs conservative double-precision reference.
    // Paper Table 4: 58–81 ×10⁻⁶; "ratios of 1e-3 are generally considered
    // acceptable". Our GSE parameters are chosen like the paper's, so we
    // must land well below 1e-3.
    let sys = system(3);
    let sim = AntonSimulation::builder(sys.clone())
        .velocities_from_temperature(300.0, 5)
        .build();
    let (f_ref, _) = reference_forces(&sys, &sim.positions_f64());
    let mut num = 0.0;
    let mut den = 0.0;
    for (i, r) in f_ref.iter().enumerate() {
        num += (sim.total_force_f64(i) - *r).norm2();
        den += r.norm2();
    }
    let err = (num / den).sqrt();
    assert!(err < 1.0e-3, "total force error {err:e}");
    assert!(err > 1.0e-6, "implausibly exact: {err:e}");
}

#[test]
fn engines_agree_on_potential_energy() {
    let sys = system(7);
    let anton = AntonSimulation::builder(sys.clone())
        .velocities_from_temperature(300.0, 9)
        .build();
    let ev = ForceEvaluator::new(&sys);
    let mut pos = sys.positions.clone();
    let mut forces = vec![anton_geometry::Vec3::ZERO; sys.n_atoms()];
    let mut prof = TaskProfile::default();
    let en = ev.all_forces(&sys, &mut pos, &mut forces, &mut prof);
    let (e_a, e_r) = (anton.potential_energy(), en.potential());
    // GSE (Anton) and SPME (reference) carry slightly different mesh
    // self-interaction constants; 1% agreement on the absolute potential is
    // the expected envelope at paper-like parameters.
    let rel = (e_a - e_r).abs() / e_r.abs();
    assert!(
        rel < 1e-2,
        "potential energy mismatch: anton {e_a} vs refmd {e_r}"
    );
}

#[test]
fn short_trajectories_stay_statistically_consistent() {
    // The engines integrate different arithmetic, so trajectories diverge
    // chaotically — but conserved/thermodynamic quantities must agree.
    // Pure water: a relaxed, well-conditioned starting configuration.
    let sys = anton_systems::water_box("w", 18.0, 150, 11, RunParams::paper(7.5, 32)).unwrap();
    let mut anton = AntonSimulation::builder(sys.clone())
        .velocities_from_temperature(300.0, 13)
        .build();
    let vel = init_velocities(&sys.topology, 300.0, 13);
    let mut refs = RefSimulation::new(sys, vel, Thermostat::None);
    anton.run_cycles(15);
    for _ in 0..15 {
        refs.run_cycle();
    }
    let (ta, tr) = (anton.temperature_k(), refs.temperature_k());
    assert!(
        (ta - tr).abs() < 60.0,
        "temperatures diverged: {ta} vs {tr}"
    );
    // Energies agree up to the engines' different mesh self-term ripple
    // (a constant offset scale, physically immaterial).
    let (ea, er) = (anton.total_energy(), refs.total_energy());
    let dof = anton.system.topology.degrees_of_freedom() as f64;
    assert!(
        ((ea - er) / dof).abs() < 0.05,
        "total energies diverged: {ea} vs {er} ({} kcal/mol/DoF)",
        (ea - er) / dof
    );
}
