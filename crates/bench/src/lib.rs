//! Shared harness utilities for the experiment binaries.
//!
//! Four binaries live under `src/bin/`: `paper <name>` regenerates one
//! table or figure of the paper (see DESIGN.md §5 for the index) and
//! prints a paper-vs-measured comparison; `scaling`, `ckpt_drill` and
//! `fleet_drill` run the invariance sweep and the two crash drills. Each
//! renders its own artifacts under `results/` from the numbers it holds in
//! memory. `--full` selects paper-scale workloads; the default sizes
//! finish in minutes on one core.

use anton_core::AntonSimulation;
use anton_systems::spec::{RunParams, Thermostat};
use anton_systems::System;
use std::path::{Path, PathBuf};

pub mod artifacts;
pub mod report;

/// The workspace `results/` directory (compile-time anchored, so binaries
/// and tests agree regardless of the invocation directory).
pub fn results_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../results"))
}

/// Write one artifact into [`results_dir`]. A failed write is an error the
/// binary must exit non-zero on: CI diffs and uploads these files, and a
/// swallowed failure would let it pass on the stale checked-in copy.
pub fn write_artifact(name: &str, contents: &str) -> Result<(), String> {
    write_artifact_in(&results_dir(), name, contents)?;
    println!("wrote results/{name}");
    Ok(())
}

fn write_artifact_in(dir: &Path, name: &str, contents: &str) -> Result<(), String> {
    let path = dir.join(name);
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, contents))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// A TIP3P water box at the harness's fixed placement seed: the system
/// behind the scaling sweep, the checkpoint drill and the drift window.
pub fn water_box(name: &str, edge: f64, waters: usize, params: RunParams) -> System {
    anton_systems::water_box(name, edge, waters, 3, params)
        .expect("the harness's boxes hold their waters under their cutoffs")
}

/// Parse the common `--full` flag.
pub fn full_mode() -> bool {
    std::env::args().any(|a| a == "--full")
}

/// Print a table header + rule.
pub fn header(title: &str, cols: &[&str]) {
    println!("\n=== {title} ===");
    println!("{}", cols.join(" | "));
    println!(
        "{}",
        "-".repeat(cols.iter().map(|c| c.len() + 3).sum::<usize>())
    );
}

/// Measure NVE energy drift on the Anton engine: equilibrate briefly with a
/// thermostat, then run `nve_cycles` microcanonical cycles sampling total
/// energy; returns (drift kcal/mol/DoF/µs, simulated time fs).
pub fn measure_drift(system: System, nve_cycles: usize, seed: u64) -> (f64, f64) {
    let dof = system.topology.degrees_of_freedom();
    let k = system.params.longrange_every.max(1) as f64;
    let dt = system.params.dt_fs;
    let mut sim = AntonSimulation::builder(system)
        .velocities_from_temperature(300.0, seed)
        .thermostat(Thermostat::Berendsen {
            target_k: 300.0,
            tau_fs: 20.0,
        })
        .build();
    // Equilibrate for as long as the measurement window: drift fits on an
    // unequilibrated system measure relaxation, not integrator error.
    sim.run_cycles(nve_cycles.max(50));
    sim.thermostat = Thermostat::None;

    let mut times = Vec::with_capacity(nve_cycles);
    let mut energies = Vec::with_capacity(nve_cycles);
    for c in 0..nve_cycles {
        sim.run_cycle();
        times.push((c + 1) as f64 * k * dt);
        energies.push(sim.total_energy());
    }
    let drift = anton_analysis::energy_drift_per_dof_us(&times, &energies, dof);
    (drift, nve_cycles as f64 * k * dt)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_artifact_reports_an_unwritable_directory() {
        // A directory that cannot be created because a regular file is in
        // the way (permission bits would not stop a root test run).
        let base = std::env::temp_dir().join(format!("anton-bench-{}", std::process::id()));
        std::fs::create_dir_all(&base).unwrap();
        let blocker = base.join("not-a-dir");
        std::fs::write(&blocker, b"x").unwrap();

        let err = write_artifact_in(&blocker.join("results"), "T.csv", "a\n").unwrap_err();
        assert!(err.contains("T.csv"), "error must name the file: {err}");

        write_artifact_in(&base.join("results"), "T.csv", "a\n").unwrap();
        let written = std::fs::read_to_string(base.join("results/T.csv")).unwrap();
        assert_eq!(written, "a\n");
        std::fs::remove_dir_all(&base).unwrap();
    }
}
