//! Table 2: execution-time profiles for one DHFR time step — a single x86
//! core (our reference engine standing in for GROMACS) versus Anton (the
//! calibrated machine model) — under both electrostatics parameter sets:
//! (9 Å cutoff, 64³ mesh) and (13 Å cutoff, 32³ mesh).
//!
//! `cargo run --release -p anton-bench --bin paper -- table2 [--full]`
//! Default: a reduced DHFR-sized system and 2 profiled steps; `--full`
//! profiles the full 23,558-atom system over more steps.

use anton_bench::artifacts::{table2_settings, Table2Setting};
use anton_core::system_stats;
use anton_refmd::RefSimulation;
use anton_systems::catalog::build_solvated;
use anton_systems::spec::{RunParams, Thermostat};
use anton_systems::velocities::init_velocities;
use anton_systems::TABLE4;

fn profile_x86(cutoff: f64, mesh: usize, full: bool) -> [f64; 7] {
    // The x86 column: wall time per task for the reference engine on one
    // core. Reduced size scales every task together, preserving the ratio
    // structure that Table 2 is about.
    let (atoms, edge, steps) = if full {
        (23558, 62.2, 6)
    } else {
        (5994, 39.4, 2)
    };
    let entry = &TABLE4[1];
    let sys = build_solvated(
        entry.name,
        atoms,
        edge,
        RunParams::paper(cutoff.min(edge / 2.0 - 1.0), mesh),
        &anton_forcefield::water::TIP3P,
        if full { entry.protein_residues } else { 80 },
        0,
        0,
        7,
    );
    let vel = init_velocities(&sys.topology, 300.0, 11);
    let mut sim = RefSimulation::new(sys, vel, Thermostat::None);
    // One warm-up cycle, then measure.
    sim.run_cycle();
    sim.profile = Default::default();
    for _ in 0..steps {
        sim.run_cycle();
    }
    let mut prof = sim.profile;
    prof.steps = sim.step_count().min(steps as u64 * 2);
    // Report per *inner* step, with the long-range tasks amortized over the
    // RESPA cycle like the paper's per-step numbers.
    prof.steps = (steps * 2) as u64;
    prof.per_step_ms()
}

pub fn run() {
    let full = anton_bench::full_mode();
    let rows = [
        "range-limited",
        "FFT+inverse",
        "mesh interp",
        "correction",
        "bonded",
        "integration",
        "total",
    ];
    let paper_x86 = [
        [56.6, 12.3, 9.6, 4.0, 2.7, 3.4, 88.5],
        [164.4, 1.4, 8.8, 3.8, 2.7, 3.4, 184.5],
    ];

    println!("Table 2 — DHFR per-step task profile, two electrostatics parameter sets");
    if !full {
        println!(
            "(default: reduced 5,994-atom surrogate; run with --full for the 23,558-atom system)"
        );
    }

    // Anton columns from the performance model on the true workload: the
    // rows of `results/TABLE_2.csv`.
    let settings = table2_settings();
    for (s, paper_x86) in settings.iter().zip(paper_x86) {
        let (cutoff, mesh) = (s.cutoff, s.mesh);
        let mesh_run = if full { mesh } else { mesh / 2 };
        let x86 = profile_x86(cutoff, mesh_run, full);
        anton_bench::header(
            &format!("x86 single core — cutoff {cutoff} Å, mesh {mesh}³"),
            &["task", "ours (ms)", "paper GROMACS (ms)"],
        );
        for (i, r) in rows.iter().enumerate() {
            println!("{r:<14} | {:>9.2} | {:>10.1}", x86[i], paper_x86[i]);
        }
        let ours_ratio = x86[0] / x86[6];
        println!(
            "range-limited share: ours {:.0}% vs paper {:.0}%",
            100.0 * ours_ratio,
            100.0 * paper_x86[0] / paper_x86[6]
        );

        anton_bench::header(
            &format!("Anton 512 nodes (model) — cutoff {cutoff} Å, mesh {mesh}³"),
            &["task", "model (µs)", "paper (µs)"],
        );
        for (r, (_, model_us, paper_us)) in rows.iter().zip(s.tasks) {
            println!("{r:<14} | {model_us:>10.2} | {paper_us:>9.1}");
        }
        println!(
            "model rate: {:.1} µs/day (paper: 16.4 at the 13 Å/32³ setting)",
            s.model_us_per_day
        );
    }

    // The paper's punchline: the same parameter change that slows the x86
    // ~2x speeds Anton up >2x.
    let total_us = |s: &Table2Setting| s.tasks[6].1;
    println!(
        "\nAnton speedup from (9 Å, 64³) → (13 Å, 32³): x{:.2} (paper: >2x; x86 slows ~2x)",
        total_us(&settings[0]) / total_us(&settings[1])
    );

    // Cross-check that the built DHFR system feeds the model the workload
    // the hard-coded benchmark stats assume.
    if full {
        let sys = anton_systems::table4_system(&TABLE4[1], 3);
        let s = system_stats(&sys);
        println!(
            "\nbuilt-DHFR workload: {} correction pairs, {} bonded terms, {} solute atoms",
            s.n_correction_pairs, s.n_bonded_terms, s.protein_atoms
        );
    }
}
