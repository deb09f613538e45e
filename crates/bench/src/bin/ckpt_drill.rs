//! Crash-recovery drill for the `anton-ckpt` subsystem: kill a run at
//! arbitrary cycles and resume it, inject truncations and bit-flips into
//! checkpoint files, and prove that every injected fault is detected with
//! a typed error and that recovery falls back to the newest *valid*
//! checkpoint — finishing bitwise identical to the uninterrupted run.
//!
//! `cargo run --release -p anton-bench --bin ckpt_drill`
//!
//! The drill exits nonzero if any injected fault goes undetected, any
//! recovery resumes from the wrong checkpoint, or any resumed trajectory
//! diverges from golden. A machine-readable report lands in
//! `results/CKPT_drill.json` (gitignored; uploaded as a CI artifact).

use anton_analysis::battery::Verifier;
use anton_bench::report::Report;
use anton_ckpt::{load_file, CheckpointStore, CkptError};
use anton_core::{AntonSimulation, Decomposition};
use anton_systems::spec::RunParams;
use anton_systems::System;
use std::path::{Path, PathBuf};

/// Total cycles of the drill trajectory (one checkpoint per cycle).
const CYCLES: usize = 6;
/// Node/thread shape under drill (multi-rank, multi-thread: the
/// configuration where resume has the most state to get right).
const NODES: usize = 8;
const THREADS: usize = 2;

fn drill_system() -> System {
    anton_bench::water_box("ckpt-drill-water", 18.0, 180, RunParams::paper(7.5, 16))
}

fn builder() -> anton_core::SimulationBuilder {
    AntonSimulation::builder(drill_system())
        .velocities_from_temperature(300.0, 11)
        .decomposition(Decomposition::Nodes(NODES))
        .threads(THREADS)
}

/// The run that gets killed: `cycles` cycles from a fresh start with a
/// checkpoint after each one into a `keep`-deep store at `dir`, then
/// dropped with no orderly shutdown. Returns the store it left behind.
fn run_then_die(dir: &Path, keep: usize, cycles: usize) -> CheckpointStore {
    let store = CheckpointStore::create(dir, keep).expect("create drill store");
    let mut sim = builder().build();
    for _ in 0..cycles {
        sim.run_cycle();
        sim.write_checkpoint(&store).expect("drill checkpoint");
    }
    store
}

fn fresh_dir(name: &str) -> PathBuf {
    anton_bench::report::fresh_dir("ckpt_drill", name).expect("create drill scratch directory")
}

/// Run the closed-form identity battery over a finished simulation and
/// record the outcome as a drill leg. After a resume this audits the
/// restored state end to end: every force word and energy scalar must
/// recompute bitwise, and the cumulative exchange census (carried through
/// the checkpoint) must still satisfy every per-step identity.
fn battery_leg(report: &mut Report, name: &str, sim: &AntonSimulation) {
    let mut verifier = Verifier::new(sim);
    verifier.sample(sim);
    let violations = verifier.violations();
    report.record(
        name,
        violations.is_empty(),
        if violations.is_empty() {
            "identity battery clean".to_string()
        } else {
            format!("{} violations, first: {}", violations.len(), violations[0])
        },
    );
}

/// Kill-and-resume drill: run to `kill_cycle`, drop the simulation with no
/// orderly shutdown, resume from the store, finish, compare bitwise.
fn kill_resume_leg(report: &mut Report, kill_cycle: usize, golden_final: u64, k: u64) {
    let dir = fresh_dir(&format!("kill{kill_cycle}"));
    // Killed with the store already holding an atomically-renamed
    // checkpoint for this cycle.
    run_then_die(&dir, 3, kill_cycle);
    let resumed = builder().resume_from(&dir);
    match resumed {
        Ok(mut sim) => {
            let step_ok = sim.step_count() == kill_cycle as u64 * k;
            sim.run_cycles(CYCLES - kill_cycle);
            let sum = sim.state.checksum();
            report.record(
                &format!("kill_at_cycle_{kill_cycle}"),
                step_ok && sum == golden_final,
                format!(
                    "resumed step {} (want {}), final {:016x} (want {golden_final:016x})",
                    sim.step_count() - (CYCLES - kill_cycle) as u64 * k,
                    kill_cycle as u64 * k,
                    sum
                ),
            );
            battery_leg(report, &format!("kill_at_cycle_{kill_cycle}_battery"), &sim);
        }
        Err(e) => report.record(
            &format!("kill_at_cycle_{kill_cycle}"),
            false,
            format!("resume failed: {e}"),
        ),
    }
}

/// Corruption drill: against a 4-checkpoint store, truncate and bit-flip
/// the newest file in place. Every injection must (a) make that file fail
/// to load with a typed corruption error and (b) leave `latest_valid`
/// falling back to the previous (intact) checkpoint. Returns the
/// (injections, detections) counts.
fn corruption_leg(report: &mut Report) -> (u64, u64) {
    let dir = fresh_dir("corrupt");
    let store = run_then_die(&dir, 8, 4);
    let files = store.list().expect("list drill store");
    if files.len() != 4 {
        report.record(
            "corruption_setup",
            false,
            format!("expected 4 checkpoints, found {}", files.len()),
        );
        return (0, 0);
    }
    let (newest_step, newest_path) = files.last().unwrap().clone();
    let prev_step = files[files.len() - 2].0;
    let original = std::fs::read(&newest_path).expect("read newest checkpoint");

    let mut undetected: Vec<String> = Vec::new();
    let mut bad_fallback = 0u64;
    let (mut injections, mut detections) = (0u64, 0u64);
    let mut check = |mutated: &[u8], label: &str| {
        std::fs::write(&newest_path, mutated).expect("inject fault");
        injections += 1;
        match load_file(&newest_path) {
            Err(e) if e.is_corruption() || matches!(e, CkptError::BadVersion { .. }) => {
                detections += 1;
            }
            Err(e) => undetected.push(format!("{label}: untyped/unexpected error {e}")),
            Ok(_) => undetected.push(format!("{label}: loaded cleanly")),
        }
        match store.latest_valid() {
            Ok((_, snap)) if snap.step == prev_step => {}
            _ => bad_fallback += 1,
        }
    };

    // Truncations: every boundary the format cares about plus a stride
    // through the body. "No partial file is ever loadable."
    let mut cuts: Vec<usize> = vec![0, 1, 7, 8, 12, 56, 63, 64, 72, original.len() - 1];
    cuts.extend((0..original.len()).step_by(509));
    for cut in cuts {
        let cut = cut.min(original.len() - 1);
        check(&original[..cut], &format!("truncate_to_{cut}"));
    }

    // Bit flips: exhaustive over the 64-byte header, strided through the
    // payload (the exhaustive payload sweep lives in the proptest corpus).
    let mut flips: Vec<(usize, u8)> = Vec::new();
    for byte in 0..64usize {
        for bit in 0..8u8 {
            flips.push((byte, bit));
        }
    }
    for byte in (64..original.len()).step_by(97) {
        for bit in 0..8u8 {
            flips.push((byte, bit));
        }
    }
    for (byte, bit) in flips {
        let mut mutated = original.clone();
        mutated[byte] ^= 1 << bit;
        check(&mutated, &format!("flip_byte_{byte}_bit_{bit}"));
    }

    // Restore the original and confirm the store is whole again.
    std::fs::write(&newest_path, &original).expect("restore original");
    let healed = matches!(store.latest_valid(), Ok((_, snap)) if snap.step == newest_step);

    report.record(
        "corruption_detection",
        undetected.is_empty(),
        if undetected.is_empty() {
            "all injections detected with typed errors".to_string()
        } else {
            format!("{} undetected: {}", undetected.len(), undetected.join("; "))
        },
    );
    report.record(
        "corruption_fallback",
        bad_fallback == 0,
        format!(
            "latest_valid fell back to step {} on every injection ({} misses)",
            prev_step, bad_fallback
        ),
    );
    report.record(
        "store_healed",
        healed,
        format!("restored newest (step {newest_step}) loads again"),
    );
    (injections, detections)
}

/// Interrupted-write drill: a leftover `.tmp` (the kill-during-write
/// artifact the atomic rename protocol leaves behind) and foreign files
/// must be invisible to listing and recovery.
fn tmp_invisibility_leg(report: &mut Report) {
    let dir = fresh_dir("tmpfiles");
    let store = run_then_die(&dir, 3, 2);
    // Simulate a crash mid-write: a partial temp file and assorted junk.
    std::fs::write(dir.join("ckpt-000000000099.ant.tmp"), b"partial write").unwrap();
    std::fs::write(dir.join("notes.txt"), b"not a checkpoint").unwrap();
    std::fs::write(dir.join("ckpt-garbage.ant"), b"bad name").unwrap();
    let names: Vec<u64> = store
        .list()
        .expect("list drill store")
        .iter()
        .map(|(s, _)| *s)
        .collect();
    let ok = names.len() == 2 && store.latest_valid().is_ok();
    report.record(
        "tmp_and_foreign_files_invisible",
        ok,
        format!("listed steps {names:?} with junk present"),
    );
}

/// Full recovery drill: corrupt the newest checkpoint *permanently*, then
/// resume — recovery must fall back to the previous valid checkpoint and
/// still finish bitwise identical to golden.
fn recovery_leg(report: &mut Report, golden_final: u64, k: u64) {
    let dir = fresh_dir("recover");
    let store = run_then_die(&dir, 8, 3);
    let (newest_step, newest_path) = store
        .list()
        .expect("list drill store")
        .last()
        .unwrap()
        .clone();
    let mut bytes = std::fs::read(&newest_path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&newest_path, &bytes).unwrap();

    match builder().resume_from(&dir) {
        Ok(mut sim) => {
            let resumed_step = sim.step_count();
            let want_step = (newest_step / k - 1) * k;
            sim.run_cycles(CYCLES - (resumed_step / k) as usize);
            let sum = sim.state.checksum();
            report.record(
                "recover_from_previous_valid",
                resumed_step == want_step && sum == golden_final,
                format!(
                    "newest (step {newest_step}) corrupted; resumed at step {resumed_step} \
                     (want {want_step}), final {sum:016x} (want {golden_final:016x})"
                ),
            );
            battery_leg(report, "recover_from_previous_valid_battery", &sim);
        }
        Err(e) => report.record(
            "recover_from_previous_valid",
            false,
            format!("resume failed outright: {e}"),
        ),
    }
}

fn main() {
    let sys = drill_system();
    let k = sys.params.longrange_every.max(1) as u64;
    println!(
        "ckpt drill: {} atoms, {} nodes, {} threads, {} cycles ({} steps)",
        sys.n_atoms(),
        NODES,
        THREADS,
        CYCLES,
        CYCLES as u64 * k
    );

    let mut report = Report::new("ckpt-drill/v1");

    // Golden uninterrupted run (no checkpointing: also proves the store is
    // purely observational). The identity battery over its final state is
    // the reference every resumed leg's battery must match.
    let golden_final = {
        let mut sim = builder().build();
        sim.run_cycles(CYCLES);
        battery_leg(&mut report, "golden_battery", &sim);
        sim.state.checksum()
    };
    println!("golden final checksum: {golden_final:016x}\n");

    for kill_cycle in [1usize, 3, 5] {
        kill_resume_leg(&mut report, kill_cycle, golden_final, k);
    }
    let (injections, detections) = corruption_leg(&mut report);
    tmp_invisibility_leg(&mut report);
    recovery_leg(&mut report, golden_final, k);

    println!("\ninjections: {injections} / detections: {detections}");
    let rendered = report.render(&[("injections", injections), ("detections", detections)]);
    if let Err(e) = anton_bench::write_artifact("CKPT_drill.json", &rendered) {
        eprintln!("ckpt drill: {e}");
        std::process::exit(1);
    }

    if !(report.passed() && injections == detections) {
        eprintln!("ckpt drill FAILED");
        std::process::exit(1);
    }
    let _ = std::fs::remove_dir_all(anton_bench::report::scratch_root("ckpt_drill"));
    println!("ckpt drill passed: every fault detected, every recovery bitwise exact");
}
