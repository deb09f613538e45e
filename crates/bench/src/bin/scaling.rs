//! The invariance sweep on the simulated machine: one waterbox under every
//! node-count x thread-count configuration, with modeled torus
//! communication from the exchange-plan counters — including the
//! distributed FFT's pencil messages and the mesh-halo traffic — and a
//! bitwise cross-check that every configuration produces the same
//! trajectory.
//!
//! `cargo run --release -p anton-bench --bin scaling [--full]`
//!
//! Each row runs the same waterbox under a different simulated node count
//! and worker-thread count. "state" is a checksum of the exact final state:
//! identical in every row, per the parallel-invariance property (paper §4).
//! The comm columns come from `machine::perf::ExchangeCounters`, metered by
//! the static `ExchangePlan`/`MeshExchange` over the simulated torus —
//! modeled traffic, not host traffic.
//!
//! The deterministic columns of every row — modeled comm, exact census,
//! checksums — are rendered here, by the process that holds them, into
//! `results/TABLE_scaling.csv`, `TABLE_trace_phases.csv` and
//! `TABLE_ckpt.csv`; CI diffs the bytes. Nothing here is a stopwatch: step
//! speed is measured by `bash benchmark/run.sh --workload water_ranks` and
//! gated by `benchmark/compare.sh`, whose bounds are normalised to the
//! host. A failed assert or an unwritable artifact exits non-zero.

use anton_analysis::battery::Verifier;
use anton_analysis::verify::check_census_invariance;
use anton_bench::artifacts::{
    ckpt_table, scaling_table, trace_phases_table, CkptStats, Row, TraceRow,
};
use anton_bench::report::{fresh_dir, scratch_root};
use anton_bench::{water_box, write_artifact};
use anton_ckpt::CheckpointStore;
use anton_core::{AntonSimulation, Decomposition};
use anton_machine::perf::ExchangeCounters;
use anton_machine::MachineConfig;
use anton_systems::spec::RunParams;
use anton_systems::System;
use anton_trace::{chrome_trace_json, phase_summary, summary_table};

fn waterbox(full: bool) -> System {
    let (edge, waters) = if full { (36.0, 1500) } else { (22.0, 340) };
    water_box("scaling-water", edge, waters, RunParams::paper(7.5, 16))
}

/// Mean steps per rebuild period (the initial build counts as a rebuild).
fn mean_reuse_interval(rebuilds: u64, reuses: u64) -> f64 {
    if rebuilds == 0 {
        0.0
    } else {
        (rebuilds + reuses) as f64 / rebuilds as f64
    }
}

/// Re-run a few decompositions with the trace subsystem enabled. Each
/// phase summary is printed in full — the measured wall-clock inside the
/// phase's spans included, so dispatch overhead is a number instead of a
/// guess — and returned for `TABLE_trace_phases.csv`, which keeps only the
/// span counts and modeled communication. The chrome-trace of the 8-node
/// run goes to `results/TRACE_chrome.json` (gitignored; open in
/// chrome://tracing or Perfetto).
fn traced_pass(sys: &System, cycles: usize) -> Result<(Vec<TraceRow>, CkptStats), String> {
    let mut out = Vec::new();
    let mut ckpt_stats = CkptStats::default();
    // (1, 4) is the thread fan-out probe: one node, so every RangeLimited/
    // LongRange span is pure work while the Dispatch spans are pure pool
    // overhead — the measured cost behind the nodes=1 threads>1 slowdown.
    for &(nodes, threads) in &[(1usize, 1usize), (1, 4), (8, 2), (64, 4)] {
        let decomposition = if nodes == 1 && threads == 1 {
            Decomposition::SingleRank
        } else {
            Decomposition::Nodes(nodes)
        };
        let mut sim = AntonSimulation::builder(sys.clone())
            .velocities_from_temperature(300.0, 7)
            .decomposition(decomposition)
            .threads(threads)
            .tracing(true)
            .build();
        // The 8-node row doubles as the checkpoint-cost probe: write a
        // rotated checkpoint every 4 cycles and report bytes + time. The
        // trajectory is unaffected (checkpointing is observability-only),
        // which the invariance assertion below re-proves every run.
        let store = if nodes == 8 {
            let dir =
                fresh_dir("scaling", "ckpt").map_err(|e| format!("scratch directory: {e}"))?;
            let store = CheckpointStore::create(&dir, 2);
            Some(store.map_err(|e| format!("{}: {e}", dir.display()))?)
        } else {
            None
        };
        for cycle in 1..=cycles {
            sim.run_cycle();
            if let Some(store) = store.as_ref().filter(|_| cycle % 4 == 0) {
                let written = sim.write_checkpoint(store);
                ckpt_stats.bytes_written +=
                    written.map_err(|e| format!("checkpoint at cycle {cycle}: {e}"))?;
                ckpt_stats.files += 1;
            }
        }
        let buf = sim.trace().buf().expect("tracing was enabled");
        assert_eq!(buf.dropped_spans(), 0, "trace span capacity exceeded");
        assert_eq!(buf.dropped_counters(), 0, "trace counter capacity exceeded");
        let phases = phase_summary(buf);
        if store.is_some() {
            ckpt_stats.serialize_us = phases
                .iter()
                .find(|p| p.phase.name() == "checkpoint")
                .map_or(0.0, |p| p.measured_ns as f64 / 1e3);
            println!(
                "\ncheckpoint probe (8 nodes): {} files, {} bytes, {:.1} µs serialize+write",
                ckpt_stats.files, ckpt_stats.bytes_written, ckpt_stats.serialize_us
            );
        }
        println!("\n--- traced: {nodes} nodes, {threads} threads ---");
        print!("{}", summary_table(&phases));
        if nodes == 8 {
            write_artifact("TRACE_chrome.json", &chrome_trace_json(buf))?;
        }
        // The traced rows run the same battery: tracing (like
        // checkpointing) is observability-only, so every identity must
        // still hold word-for-word.
        let mut verifier = Verifier::new(&sim);
        verifier.sample(&sim);
        verifier.assert_clean();
        out.push(TraceRow {
            nodes,
            threads,
            checksum: sim.state.checksum(),
            phases,
        });
    }
    Ok((out, ckpt_stats))
}

fn main() {
    if let Err(e) = run() {
        eprintln!("scaling: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), String> {
    let full = anton_bench::full_mode();
    let sys = waterbox(full);
    let cycles = if full { 20 } else { 8 };
    let k = sys.params.longrange_every.max(1) as u64;
    let steps = cycles as u64 * k;

    anton_bench::header(
        &format!(
            "Node/thread scaling — {} atoms, {} steps per row",
            sys.n_atoms(),
            steps
        ),
        &[
            "nodes",
            "thr",
            "links/rank",
            "KB/step·rank",
            "hops",
            "comm µs (model)",
            "fft msg/rank",
            "fft KB/rank",
            "state",
        ],
    );

    let mut rows: Vec<Row> = Vec::new();
    let mut row_counters: Vec<ExchangeCounters> = Vec::new();
    for &nodes in &[1usize, 8, 64] {
        for &threads in &[1usize, 2, 4] {
            let decomposition = if nodes == 1 && threads == 1 {
                Decomposition::SingleRank
            } else {
                Decomposition::Nodes(nodes)
            };
            let mut sim = AntonSimulation::builder(sys.clone())
                .velocities_from_temperature(300.0, 7)
                .decomposition(decomposition)
                .threads(threads)
                .build();
            sim.run_cycles(cycles);

            // Closed-form identity battery over the final state: the
            // verifier's serial recompute cross-checks every force word and
            // energy scalar bitwise, and the census identities audit the
            // cumulative exchange counters.
            let mut verifier = Verifier::new(&sim);
            verifier.sample(&sim);
            verifier.assert_clean();
            row_counters.push(sim.pipeline.counters);

            let mut row = Row {
                nodes,
                threads,
                links_per_rank: 0,
                kb_per_step_rank: 0.0,
                mean_hops: 0.0,
                modeled_comm_us: 0.0,
                fft_msgs_per_rank_lr: 0.0,
                fft_kb_per_rank_lr: 0.0,
                halo_kb_per_rank_lr: 0.0,
                match_candidates: sim.pipeline.counters.match_candidates,
                match_pairs: sim.pipeline.counters.match_pairs,
                match_batches: sim.pipeline.counters.match_batches,
                rebuild_steps: sim.pipeline.counters.rebuild_steps,
                reuse_steps: sim.pipeline.counters.reuse_steps,
                checksum: sim.state.checksum(),
            };
            if let Some(plan) = sim.pipeline.rank_set().and_then(|rs| rs.plan()) {
                let c = &sim.pipeline.counters;
                let n = plan.rank_count();
                let cfg = MachineConfig::with_nodes(n);
                row.links_per_rank = plan.max_links_per_rank() as u64;
                row.kb_per_step_rank = c.per_rank_step_bytes(n) / 1024.0;
                row.mean_hops = c.mean_hops();
                row.modeled_comm_us = c.modeled_step_comm_us(&cfg, n);
                row.fft_msgs_per_rank_lr = c.fft_messages_per_rank_lr_step(n);
                row.fft_kb_per_rank_lr = c.fft_bytes_per_rank_lr_step(n) / 1024.0;
                row.halo_kb_per_rank_lr = c.mesh_halo_bytes_per_rank_lr_step(n) / 1024.0;
            }
            println!(
                "{:>5} | {:>3} | {:>10} | {:>12.2} | {:>4.2} | {:>15.3} | {:>12.1} | {:>11.2} | {:016x}",
                row.nodes,
                row.threads,
                row.links_per_rank,
                row.kb_per_step_rank,
                row.mean_hops,
                row.modeled_comm_us,
                row.fft_msgs_per_rank_lr,
                row.fft_kb_per_rank_lr,
                row.checksum
            );
            rows.push(row);
        }
    }

    let (traced, ckpt) = traced_pass(&sys, cycles)?;

    let invariant = rows.iter().all(|r| r.checksum == rows[0].checksum)
        && traced.iter().all(|r| r.checksum == rows[0].checksum);
    // The surviving pair count is the size of the exact interaction set —
    // a pure function of the trajectory, so it must agree across every
    // decomposition (candidates and batches legitimately differ).
    assert!(
        rows.iter().all(|r| r.match_pairs == rows[0].match_pairs),
        "match-stage pair census diverged across decompositions"
    );
    // The match-cache rebuild schedule is gated by an exact fixed-point
    // mover test — a pure function of the trajectory — so the
    // rebuild/reuse split must be identical across every decomposition
    // and thread count.
    assert!(
        rows.iter()
            .all(|r| r.rebuild_steps == rows[0].rebuild_steps
                && r.reuse_steps == rows[0].reuse_steps),
        "match-cache rebuild schedule diverged across configurations"
    );
    // The same invariance, re-proved through the verifier's typed path:
    // the decomposition-independent census words (surviving pairs,
    // rebuild/reuse schedule) must agree between every pair of rows.
    for (i, c) in row_counters.iter().enumerate().skip(1) {
        let skew = check_census_invariance(cycles as u64, &row_counters[0], c);
        assert!(
            skew.is_empty(),
            "census invariance violated between row 0 and row {i}: {skew:?}"
        );
    }
    println!(
        "verifier: full identity battery clean on all {} rows; cross-row census invariant",
        rows.len()
    );
    println!(
        "match cache: {} rebuilds / {} reuses per row (mean interval {:.2} steps), identical in every row",
        rows[0].rebuild_steps,
        rows[0].reuse_steps,
        mean_reuse_interval(rows[0].rebuild_steps, rows[0].reuse_steps)
    );
    println!(
        "\nparallel invariance: {}",
        if invariant {
            "all configurations (traced and untraced) bitwise identical"
        } else {
            "VIOLATED — configurations diverged"
        }
    );
    assert!(invariant, "trajectory diverged across configurations");

    for table in [
        scaling_table(sys.n_atoms(), &rows),
        trace_phases_table(&traced),
        ckpt_table(&ckpt),
    ] {
        write_artifact(&format!("{}.csv", table.name), &table.render_csv())?;
    }
    let _ = std::fs::remove_dir_all(scratch_root("scaling"));
    Ok(())
}
