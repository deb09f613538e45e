//! Cross-crate integration tests of the paper's §4 numerical claims on a
//! *heterogeneous* system (protein + water + every force class active):
//! determinism, parallel invariance, and exact reversibility exercised
//! through the full pipeline — range-limited PPIP tables, GSE mesh,
//! corrections, bonded terms, constraints and virtual machinery together.

use anton_core::{AntonSimulation, Decomposition};
use anton_forcefield::water::TIP3P;
use anton_systems::catalog::build_solvated;
use anton_systems::spec::{RunParams, Thermostat};

/// A small protein-in-water system (exact atom count, neutral, solvated)
/// exercising bonds, angles, dihedrals, exclusions, 1-4 pairs, constraints.
fn mini_protein_system(seed: u64) -> anton_systems::System {
    build_solvated(
        "mini",
        1200,
        23.0,
        RunParams::paper(8.0, 16),
        &TIP3P,
        16,
        0,
        0,
        seed,
    )
}

#[test]
fn full_engine_is_deterministic_across_runs() {
    let run = || {
        let mut sim = AntonSimulation::builder(mini_protein_system(3))
            .velocities_from_temperature(300.0, 11)
            .build();
        sim.run_cycles(6);
        let energy_bits = sim.total_energy().to_bits();
        (sim.state, energy_bits)
    };
    let (s1, e1) = run();
    let (s2, e2) = run();
    assert_eq!(s1, s2);
    assert_eq!(e1, e2, "energies must match bitwise");
}

#[test]
fn full_engine_is_parallel_invariant_with_all_force_classes() {
    let run = |d, threads| {
        let mut sim = AntonSimulation::builder(mini_protein_system(5))
            .velocities_from_temperature(300.0, 13)
            .decomposition(d)
            .threads(threads)
            .build();
        sim.run_cycles(4);
        sim.state
    };
    let reference = run(Decomposition::SingleRank, 1);
    for nodes in [2usize, 16, 128] {
        assert_eq!(
            run(Decomposition::Nodes(nodes), 4),
            reference,
            "protein-in-water trajectory diverged on {nodes} simulated nodes × 4 threads"
        );
    }
}

#[test]
fn full_engine_reversibility_without_constraints() {
    // Paper §4: exact reversibility holds without constraints/thermostat —
    // on a single rank and equally on a decomposed, multi-threaded engine
    // (the rank fan-out only reorders wrapping adds, which cancel exactly
    // under velocity negation too).
    let reverse_run = |decomposition, threads| {
        let mut sys = mini_protein_system(7);
        sys.topology.constraint_groups.clear();
        let mut sim = AntonSimulation::builder(sys)
            .velocities_from_temperature(200.0, 17)
            .decomposition(decomposition)
            .threads(threads)
            .build();
        let x0 = sim.state.clone();
        sim.run_cycles(10);
        sim.negate_velocities();
        sim.run_cycles(10);
        sim.negate_velocities();
        assert_eq!(
            sim.state, x0,
            "reversibility violated: {decomposition:?}, {threads} threads"
        );
    };
    reverse_run(Decomposition::SingleRank, 1);
    reverse_run(Decomposition::Nodes(8), 4);
}

#[test]
fn checkpoint_restart_continues_bitwise() {
    // Snapshot mid-run, resume a fresh engine at it, continue: the
    // trajectory and its bookkeeping must be bitwise identical to the
    // uninterrupted run — determinism surviving serialization, with bonded
    // terms, exclusions, 1-4 pairs and protein constraint groups in play.
    let builder = || {
        AntonSimulation::builder(mini_protein_system(21))
            .velocities_from_temperature(300.0, 23)
            .decomposition(Decomposition::Nodes(8))
            .threads(2)
    };
    let mut straight = builder().build();
    straight.run_cycles(3);
    let snapshot = straight.snapshot();
    straight.run_cycles(3);

    let mut resumed = builder()
        .resume_from_snapshot(&snapshot)
        .expect("resume under the same configuration");
    resumed.run_cycles(3);
    assert_eq!(resumed.state, straight.state);
    assert_eq!(resumed.step_count(), straight.step_count());
    assert_eq!(
        resumed.pipeline.counters.to_words(),
        straight.pipeline.counters.to_words()
    );
}

#[test]
fn thermostatted_runs_are_still_deterministic() {
    let run = || {
        let mut sim = AntonSimulation::builder(mini_protein_system(9))
            .velocities_from_temperature(250.0, 19)
            .thermostat(Thermostat::Berendsen {
                target_k: 300.0,
                tau_fs: 50.0,
            })
            .build();
        sim.run_cycles(8);
        sim.state
    };
    assert_eq!(run(), run());
}
