//! Golden-trajectory tier: a checked-in checksum sequence for a fixed
//! waterbox run, asserted bitwise against every supported execution shape.
//!
//! The paper's §4 invariance claims say the trajectory is a pure function of
//! the system and the parameters — not of the node decomposition, not of the
//! host thread count, and (since the trace subsystem is observability-only)
//! not of whether tracing is enabled. The other integration tests check
//! those properties *relative to each other* within one build; this tier
//! pins the trajectory to constants recorded in the repository, so any
//! change that silently perturbs the arithmetic — a reordered accumulation,
//! a rounding-rule slip, a trace probe that leaks into simulation state —
//! fails against history, not just against a sibling run.
//!
//! To regenerate after an *intentional* numerics change:
//!
//! ```text
//! cargo test -p anton-core --test integration_golden -- --ignored --nocapture
//! ```
//!
//! and paste the printed block over the constants below. Treat that diff
//! with the suspicion it deserves.

use anton_analysis::battery::Verifier;
use anton_core::{AntonSimulation, CheckpointStore, Decomposition, TracePhase};
use anton_systems::spec::RunParams;
use anton_systems::System;

/// Cycles run per configuration; one checksum is recorded after each.
const CYCLES: usize = 3;

/// FNV-1a over the exact state bytes after each cycle of the golden run
/// (340-water box, seed below). Every node count, thread count, and tracing
/// mode must reproduce this exact sequence.
const GOLDEN_CYCLE_CHECKSUMS: [u64; CYCLES] =
    [0xa10ecc809d695dc8, 0xa46a112b6ac6fc42, 0xc2212d9714372970];

/// The final-state checksum (last element of the sequence), kept as its own
/// named constant because it is the headline value quoted in BENCH/TRACE
/// artifacts.
const GOLDEN_FINAL_CHECKSUM: u64 = 0xc2212d9714372970;

/// The same 1020-atom waterbox the artifact tables' node/thread sweep
/// runs: 340 TIP3P waters in a 22 Å cube under the paper's run parameters.
fn golden_waterbox() -> System {
    anton_systems::water_box("golden-water", 22.0, 340, 3, RunParams::paper(7.5, 16)).unwrap()
}

/// Run the golden configuration and return the per-cycle checksum sequence.
fn run_golden(nodes: usize, threads: usize, tracing: bool) -> Vec<u64> {
    let decomposition = if nodes == 1 {
        Decomposition::SingleRank
    } else {
        Decomposition::Nodes(nodes)
    };
    let mut sim = AntonSimulation::builder(golden_waterbox())
        .velocities_from_temperature(300.0, 7)
        .decomposition(decomposition)
        .threads(threads)
        .tracing(tracing)
        .build();
    // Every golden run also carries the full invariant battery: third law,
    // serial force consistency, mesh charge, census, momentum and energy —
    // all clean on every cycle. The verifier is bound after the first
    // cycle: the first SHAKE projects the unconstrained Maxwell–Boltzmann
    // velocities onto the constraint manifold, a one-time kinetic-energy
    // drop that is not drift.
    let mut verifier = None;
    let sums = (0..CYCLES)
        .map(|_| {
            sim.run_cycle();
            verifier
                .get_or_insert_with(|| Verifier::new(&sim))
                .sample(&sim);
            sim.state.checksum()
        })
        .collect();
    let verifier = verifier.expect("CYCLES > 0");
    assert_eq!(verifier.samples(), CYCLES as u64);
    verifier.assert_clean();
    sums
}

fn assert_golden(nodes: usize) {
    for threads in [1usize, 4] {
        for tracing in [false, true] {
            let got = run_golden(nodes, threads, tracing);
            assert_eq!(
                got.as_slice(),
                &GOLDEN_CYCLE_CHECKSUMS,
                "golden trajectory diverged: nodes={nodes} threads={threads} tracing={tracing}"
            );
            assert_eq!(
                *got.last().unwrap(),
                GOLDEN_FINAL_CHECKSUM,
                "final checksum mismatch: nodes={nodes} threads={threads} tracing={tracing}"
            );
        }
    }
}

/// A unique scratch checkpoint directory per configuration (the golden
/// resume tests run concurrently under the default test harness).
fn scratch_ckpt_dir(tag: &str, nodes: usize, threads: usize, tracing: bool) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "anton-golden-ckpt-{}-{tag}-{nodes}n-{threads}t-{}",
        std::process::id(),
        if tracing { "traced" } else { "plain" }
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The checkpoint tier of the determinism contract: run the golden
/// trajectory with checkpointing on, "crash" after cycle 2, resume from
/// the store, finish — and land on the same checked-in checksums the
/// uninterrupted run pins. Asserted across {1,8,64} nodes × {1,4}
/// threads × tracing {on,off} like the golden tier itself.
fn assert_resume_golden(nodes: usize) {
    let k = golden_waterbox().params.longrange_every.max(1) as u64;
    for threads in [1usize, 4] {
        for tracing in [false, true] {
            let ctx = format!("nodes={nodes} threads={threads} tracing={tracing}");
            let dir = scratch_ckpt_dir("resume", nodes, threads, tracing);
            let decomposition = if nodes == 1 {
                Decomposition::SingleRank
            } else {
                Decomposition::Nodes(nodes)
            };
            {
                let store = CheckpointStore::create(&dir, 3).expect("scratch store");
                let mut sim = AntonSimulation::builder(golden_waterbox())
                    .velocities_from_temperature(300.0, 7)
                    .decomposition(decomposition)
                    .threads(threads)
                    .tracing(tracing)
                    .build();
                for _ in 1..CYCLES {
                    sim.run_cycle();
                    sim.write_checkpoint(&store).expect("checkpoint write");
                }
                assert_eq!(
                    sim.state.checksum(),
                    GOLDEN_CYCLE_CHECKSUMS[CYCLES - 2],
                    "pre-interrupt state diverged: {ctx}"
                );
                // The "crash": drop without any orderly shutdown.
            }
            let mut sim = AntonSimulation::builder(golden_waterbox())
                .velocities_from_temperature(300.0, 7)
                .decomposition(decomposition)
                .threads(threads)
                .tracing(tracing)
                .resume_from(&dir)
                .unwrap_or_else(|e| panic!("resume failed ({ctx}): {e}"));
            assert_eq!(
                sim.step_count(),
                (CYCLES as u64 - 1) * k,
                "resumed at the wrong step: {ctx}"
            );
            // Re-verify the closed-form invariants directly on the restored
            // state, before any further cycle runs: the refreshed force
            // buffers, mesh charge, and carried-over exchange counters must
            // already satisfy every identity.
            let mut verifier = Verifier::new(&sim);
            verifier.sample(&sim);
            verifier.assert_clean();
            sim.run_cycle();
            assert_eq!(
                sim.state.checksum(),
                GOLDEN_FINAL_CHECKSUM,
                "interrupt-and-resume diverged from golden: {ctx}"
            );
            // The battery is clean on the post-resume cycle too.
            verifier.sample(&sim);
            assert_eq!(verifier.samples(), 2, "{ctx}");
            verifier.assert_clean();
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn golden_trajectory_single_rank() {
    assert_golden(1);
}

#[test]
fn golden_trajectory_8_nodes() {
    assert_golden(8);
}

#[test]
fn golden_trajectory_64_nodes() {
    assert_golden(64);
}

#[test]
fn golden_resume_single_rank() {
    assert_resume_golden(1);
}

#[test]
fn golden_resume_8_nodes() {
    assert_resume_golden(8);
}

#[test]
fn golden_resume_64_nodes() {
    assert_resume_golden(64);
}

/// Recovery past a damaged checkpoint: the golden run under `Nodes(8)` on
/// two threads checkpoints after cycles 1 and 2 and "crashes"; one bit of
/// the newest file is then flipped. Resume must skip it, land one cycle
/// earlier, and still finish on the golden checksums with a clean battery.
#[test]
fn golden_resume_falls_back_past_a_corrupted_newest_checkpoint() {
    let (nodes, threads) = (8, 2);
    let k = golden_waterbox().params.longrange_every.max(1) as u64;
    let dir = scratch_ckpt_dir("corrupt", nodes, threads, false);
    let builder = || {
        AntonSimulation::builder(golden_waterbox())
            .velocities_from_temperature(300.0, 7)
            .decomposition(Decomposition::Nodes(nodes))
            .threads(threads)
    };
    {
        let store = CheckpointStore::create(&dir, 3).expect("scratch store");
        let mut sim = builder().build();
        for _ in 1..CYCLES {
            sim.run_cycle();
            sim.write_checkpoint(&store).expect("checkpoint write");
        }
        let files = store.list().expect("list store");
        assert_eq!(files.len(), CYCLES - 1);
        let (_, newest) = files.last().expect("a checkpoint was written");
        let mut bytes = std::fs::read(newest).expect("read newest checkpoint");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(newest, &bytes).expect("corrupt newest checkpoint");
    }
    let mut sim = builder()
        .resume_from(&dir)
        .unwrap_or_else(|e| panic!("resume failed: {e}"));
    assert_eq!(
        sim.step_count(),
        (CYCLES as u64 - 2) * k,
        "resume did not fall back to the previous checkpoint"
    );
    let mut verifier = Verifier::new(&sim);
    for want in &GOLDEN_CYCLE_CHECKSUMS[CYCLES - 2..] {
        sim.run_cycle();
        verifier.sample(&sim);
        assert_eq!(
            sim.state.checksum(),
            *want,
            "fallback resume diverged from golden"
        );
    }
    assert_eq!(sim.state.checksum(), GOLDEN_FINAL_CHECKSUM);
    verifier.assert_clean();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tracing_payload_is_deterministic_across_threads() {
    // The trace is observability-only, but its *modeled* payload — which
    // phases ran, how many spans each produced, and the exchange-plan
    // message/byte counts attributed to them — is itself a deterministic
    // function of the decomposition. Hash everything except the measured
    // wall-clock fields and require thread-count invariance.
    let payload_checksum = |threads: usize| -> u64 {
        let mut sim = AntonSimulation::builder(golden_waterbox())
            .velocities_from_temperature(300.0, 7)
            .decomposition(Decomposition::Nodes(8))
            .threads(threads)
            .tracing(true)
            .build();
        sim.run_cycles(2);
        let buf = sim.trace().buf().expect("tracing was enabled");
        let mut h = anton_ckpt::Fnv64::new();
        let mut mix = |x: u64| h.update(&x.to_le_bytes());
        for s in buf.spans() {
            mix(s.phase.index() as u64);
            mix(s.rank as u64);
            mix(s.step);
        }
        for c in buf.counters() {
            mix(c.phase.index() as u64);
            mix(c.rank as u64);
            mix(c.step);
            mix(c.messages);
            mix(c.bytes);
            mix(c.modeled_us.to_bits());
        }
        mix(buf.dropped_spans());
        mix(buf.dropped_counters());
        h.finish()
    };
    let reference = payload_checksum(1);
    assert_eq!(payload_checksum(2), reference);
    assert_eq!(payload_checksum(4), reference);
}

#[test]
fn disabled_tracing_records_nothing() {
    let mut sim = AntonSimulation::builder(golden_waterbox())
        .velocities_from_temperature(300.0, 7)
        .decomposition(Decomposition::Nodes(8))
        .threads(2)
        .build();
    sim.run_cycles(1);
    assert!(!sim.trace().is_on());
    assert!(sim.trace().buf().is_none());
}

/// Phase coverage does not depend on the plan: the one-rank plan and the
/// 8-node plan on two threads each record at least one *span* of every
/// phase — hence the same phase set.
#[test]
fn enabled_tracing_covers_every_pipeline_phase() {
    for (decomposition, nodes, threads) in [
        (Decomposition::SingleRank, 1, 1),
        (Decomposition::Nodes(8), 8, 2),
    ] {
        // A checkpoint is written so the `checkpoint` phase (emitted only
        // by a write) appears alongside the per-step pipeline phases.
        let dir = scratch_ckpt_dir("phases", nodes, threads, true);
        let store = CheckpointStore::create(&dir, 3).expect("scratch store");
        let mut sim = AntonSimulation::builder(golden_waterbox())
            .velocities_from_temperature(300.0, 7)
            .decomposition(decomposition)
            .threads(threads)
            .tracing(true)
            .build();
        sim.run_cycles(2);
        sim.write_checkpoint(&store).expect("checkpoint write");
        let buf = sim.trace().buf().expect("tracing was enabled");
        let mut spans = [0usize; TracePhase::ALL.len()];
        for s in buf.spans() {
            spans[s.phase.index()] += 1;
        }
        for (phase, spans) in TracePhase::ALL.iter().zip(spans) {
            assert!(
                spans > 0,
                "{decomposition:?}: phase {} recorded no span",
                phase.name()
            );
        }
        assert_eq!(buf.dropped_spans(), 0, "span capacity too small for run");
        assert_eq!(buf.dropped_counters(), 0, "counter capacity too small");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Regeneration helper: prints the constant block to paste above.
#[test]
#[ignore]
fn print_golden_checksums() {
    let seq = run_golden(1, 1, false);
    println!("const GOLDEN_CYCLE_CHECKSUMS: [u64; CYCLES] = [");
    for c in &seq {
        println!("    0x{c:016x},");
    }
    println!("];");
    println!(
        "const GOLDEN_FINAL_CHECKSUM: u64 = 0x{:016x};",
        seq.last().unwrap()
    );
}
