//! The paper-artifact tables: deterministic CSV renderings of the
//! Table 2 / Table 4 performance-model columns and the Figure 5–7-shaped
//! sweep, trace and fleet results.
//!
//! [`build_tables`] builds all six `results/TABLE_*.csv` in one process —
//! the two model tables, the node/thread sweep with its traced rows and
//! checkpoint probe, and the fleet's canonical pass — and asserts every
//! invariant those runs must hold on the way. Only model-derived and
//! counted quantities are exported; wall-clock fields (`measured_ns`) are
//! left out, so the rendered bytes are a pure function of the code.
//! `paper tables` writes them, and `tests/artifacts_golden.rs` holds every
//! byte to the committed files.

use crate::water_box;
use anton_analysis::artifacts::{micro_from_f64, Cell, Table};
use anton_analysis::battery::Verifier;
use anton_analysis::verify::check_census_invariance;
use anton_ckpt::CheckpointStore;
use anton_core::{system_stats, AntonSimulation, Decomposition, SimulationBuilder};
use anton_fleet::{Fleet, FleetConfig, JobPhase, JobSpec, JobStatusView};
use anton_machine::perf::{dhfr_stats, ExchangeCounters, SystemStats};
use anton_machine::{MachineConfig, PerfModel};
use anton_systems::spec::RunParams;
use anton_systems::{table4_system, System, Table4Entry, TABLE4};
use anton_trace::{chrome_trace_json, phase_summary, PhaseRow};
use std::path::{Path, PathBuf};

/// One electrostatics parameter set of Table 2 on 512 Anton nodes.
pub struct Table2Setting {
    pub label: &'static str,
    pub cutoff: f64,
    pub mesh: usize,
    /// Modeled simulation rate at this setting (µs/day).
    pub model_us_per_day: f64,
    /// (task, model µs, paper µs) per long-range step; `total` last.
    pub tasks: [(&'static str, f64, f64); 7],
}

/// Table 2's Anton columns: the calibrated 512-node model's per-task
/// breakdown for one DHFR long-range step under both electrostatics
/// parameter sets, against the paper's measured values.
pub fn table2_settings() -> [Table2Setting; 2] {
    let setting = |label, cutoff, mesh, paper: [f64; 7]| {
        let b = PerfModel::anton_512().breakdown(&dhfr_stats(cutoff, mesh));
        Table2Setting {
            label,
            cutoff,
            mesh,
            model_us_per_day: b.us_per_day,
            tasks: [
                ("range_limited", b.range_limited_us, paper[0]),
                ("fft_inverse", b.fft_us, paper[1]),
                ("mesh_interp", b.mesh_us, paper[2]),
                ("correction", b.correction_us, paper[3]),
                ("bonded", b.bonded_us, paper[4]),
                ("integration", b.integration_us, paper[5]),
                ("total", b.lr_step_us, paper[6]),
            ],
        }
    };
    [
        setting("9A_64", 9.0, 64, [1.4, 24.7, 9.5, 2.5, 3.5, 1.6, 39.2]),
        setting("13A_32", 13.0, 32, [1.9, 8.9, 2.0, 2.5, 4.1, 1.6, 15.4]),
    ]
}

fn table2() -> Table {
    let mut t = Table::new(
        "TABLE_2",
        "DHFR per-step task profile on 512 Anton nodes: calibrated model vs paper (us)",
        &["setting", "task", "model_us", "paper_us"],
    );
    for s in table2_settings() {
        for (task, model_us, paper_us) in s.tasks {
            t.push_row(vec![
                Cell::text(s.label),
                Cell::text(task),
                Cell::Fixed6(micro_from_f64(model_us)),
                Cell::Fixed6(micro_from_f64(paper_us)),
            ]);
        }
    }
    t
}

/// One benchmark system of Table 4 with its built workload statistics and
/// the 512-node modeled rate.
pub struct Table4Row {
    pub entry: &'static Table4Entry,
    pub stats: SystemStats,
    pub model_us_per_day: f64,
}

/// Table 4's performance column: modeled simulation rate for the six
/// benchmark systems at their paper parameters.
pub fn table4_rows() -> Vec<Table4Row> {
    TABLE4
        .iter()
        .map(|entry| {
            let stats = system_stats(&table4_system(entry, 1));
            Table4Row {
                entry,
                stats,
                model_us_per_day: PerfModel::anton_512().breakdown(&stats).us_per_day,
            }
        })
        .collect()
}

fn table4() -> Table {
    let mut t = Table::new(
        "TABLE_4",
        "Benchmark systems: 512-node modeled rate vs paper (us/day)",
        &[
            "system",
            "pdb_id",
            "atoms",
            "side_a",
            "cutoff_a",
            "mesh",
            "model_us_per_day",
            "paper_us_per_day",
        ],
    );
    for r in table4_rows() {
        let e = r.entry;
        t.push_row(vec![
            Cell::text(e.name),
            Cell::text(e.pdb_id),
            Cell::Int(e.n_atoms as i128),
            Cell::Fixed6(micro_from_f64(e.side)),
            Cell::Fixed6(micro_from_f64(e.cutoff)),
            Cell::Int(e.mesh as i128),
            Cell::Fixed6(micro_from_f64(r.model_us_per_day)),
            Cell::Fixed6(micro_from_f64(e.paper_us_per_day)),
        ]);
    }
    t
}

/// Everything [`build_tables`] produces.
pub struct Artifacts {
    /// The six exported tables, in the order `paper tables` writes them.
    pub tables: Vec<Table>,
    /// The traced sweep rows. Their phase summaries keep the measured
    /// wall-clock inside each phase's spans, which the tables leave out.
    pub traced: Vec<TraceRow>,
    /// Chrome-trace JSON of the 8-node traced row (chrome://tracing or
    /// Perfetto).
    pub chrome_trace: String,
}

/// Build all six exported tables in process. The sweep and the fleet pass
/// assert their invariants as they run, so a panic here is a determinism
/// or correctness failure. The error is a scratch-directory or checkpoint
/// write failure; scratch state lives under the temp dir and is removed on
/// success.
pub fn build_tables() -> Result<Artifacts, String> {
    let scratch = scratch_dir()?;
    let sys = sweep_system();
    let rows = sweep(&sys);
    let (traced, ckpt, chrome_trace) = traced_pass(&sys, &scratch)?;
    assert!(
        traced.iter().all(|r| r.checksum == rows[0].checksum),
        "traced rows diverged from the untraced sweep"
    );
    let fleet = fleet_pass(&scratch.join("fleet"))?;
    let _ = std::fs::remove_dir_all(&scratch);
    Ok(Artifacts {
        tables: vec![
            table2(),
            table4(),
            scaling_table(sys.n_atoms(), &rows),
            trace_phases_table(&traced),
            ckpt_table(&ckpt),
            fleet,
        ],
        traced,
        chrome_trace,
    })
}

/// An emptied scratch directory private to this process.
fn scratch_dir() -> Result<PathBuf, String> {
    let dir = std::env::temp_dir().join(format!("anton-tables-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// The sweep's system: 340 TIP3P waters in a 22 Å cube, the golden tier's
/// box.
fn sweep_system() -> System {
    water_box("scaling-water", 22.0, 340, RunParams::paper(7.5, 16))
}

/// Outer cycles per sweep row.
const SWEEP_CYCLES: usize = 8;

/// One simulated node count on `threads` host threads: the one-rank plan
/// only for 1 × 1, so the single-node rows on several threads run the
/// `Nodes(1)` plan.
fn sweep_builder(sys: &System, nodes: usize, threads: usize) -> SimulationBuilder {
    let decomposition = if nodes == 1 && threads == 1 {
        Decomposition::SingleRank
    } else {
        Decomposition::Nodes(nodes)
    };
    AntonSimulation::builder(sys.clone())
        .velocities_from_temperature(300.0, 7)
        .decomposition(decomposition)
        .threads(threads)
}

/// Run the identity battery over a finished simulation: every force word
/// and energy scalar recomputes bitwise, and the exchange census holds.
fn assert_battery_clean(sim: &AntonSimulation) {
    let mut verifier = Verifier::new(sim);
    verifier.sample(sim);
    verifier.assert_clean();
}

/// The node/thread sweep: 1/8/64 simulated nodes × 1/2/4 threads, with the
/// modeled torus communication of each plan. Every row must end on the
/// same state checksum, pair census and match-cache rebuild schedule
/// (paper §4: the trajectory is a pure function of the system).
fn sweep(sys: &System) -> Vec<Row> {
    let mut rows = Vec::new();
    let mut counters: Vec<ExchangeCounters> = Vec::new();
    for nodes in [1usize, 8, 64] {
        for threads in [1usize, 2, 4] {
            let mut sim = sweep_builder(sys, nodes, threads).build();
            sim.run_cycles(SWEEP_CYCLES);
            assert_battery_clean(&sim);
            let c = sim.pipeline.counters;
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
                match_candidates: c.match_candidates,
                match_pairs: c.match_pairs,
                match_batches: c.match_batches,
                rebuild_steps: c.rebuild_steps,
                reuse_steps: c.reuse_steps,
                checksum: sim.state.checksum(),
            };
            if let Some(plan) = sim.pipeline.rank_set().and_then(|rs| rs.plan()) {
                let n = plan.rank_count();
                row.links_per_rank = plan.max_links_per_rank() as u64;
                row.kb_per_step_rank = c.per_rank_step_bytes(n) / 1024.0;
                row.mean_hops = c.mean_hops();
                row.modeled_comm_us = c.modeled_step_comm_us(&MachineConfig::with_nodes(n), n);
                row.fft_msgs_per_rank_lr = c.fft_messages_per_rank_lr_step(n);
                row.fft_kb_per_rank_lr = c.fft_bytes_per_rank_lr_step(n) / 1024.0;
                row.halo_kb_per_rank_lr = c.mesh_halo_bytes_per_rank_lr_step(n) / 1024.0;
            }
            rows.push(row);
            counters.push(c);
        }
    }
    let first = &rows[0];
    for (r, c) in rows.iter().zip(&counters).skip(1) {
        let at = format!("nodes={} threads={}", r.nodes, r.threads);
        assert_eq!(r.checksum, first.checksum, "trajectory diverged: {at}");
        // Candidates and batches depend on the tiling; the surviving pairs
        // and the rebuild schedule (an exact fixed-point mover test) are
        // functions of the trajectory alone.
        assert_eq!(
            r.match_pairs, first.match_pairs,
            "pair census diverged: {at}"
        );
        assert_eq!(
            (r.rebuild_steps, r.reuse_steps),
            (first.rebuild_steps, first.reuse_steps),
            "match-cache rebuild schedule diverged: {at}"
        );
        let skew = check_census_invariance(SWEEP_CYCLES as u64, &counters[0], c);
        assert!(
            skew.is_empty(),
            "census invariance violated: {at}: {skew:?}"
        );
    }
    rows
}

/// Re-run four decompositions traced. (1, 4) is the thread fan-out probe:
/// one node, so its dispatch spans are pure pool overhead. The 8-node row
/// doubles as the checkpoint probe: a rotated checkpoint every 4 cycles,
/// which, like tracing, must leave the trajectory untouched.
fn traced_pass(sys: &System, scratch: &Path) -> Result<(Vec<TraceRow>, CkptStats, String), String> {
    let mut rows = Vec::new();
    let mut ckpt = CkptStats::default();
    let mut chrome_trace = String::new();
    for (nodes, threads) in [(1usize, 1usize), (1, 4), (8, 2), (64, 4)] {
        let mut sim = sweep_builder(sys, nodes, threads).tracing(true).build();
        let store = if nodes == 8 {
            let dir = scratch.join("ckpt");
            Some(CheckpointStore::create(&dir, 2).map_err(|e| format!("{}: {e}", dir.display()))?)
        } else {
            None
        };
        for cycle in 1..=SWEEP_CYCLES {
            sim.run_cycle();
            if let Some(store) = store.as_ref().filter(|_| cycle % 4 == 0) {
                ckpt.bytes_written += sim
                    .write_checkpoint(store)
                    .map_err(|e| format!("checkpoint at cycle {cycle}: {e}"))?;
                ckpt.files += 1;
            }
        }
        let buf = sim.trace().buf().expect("tracing was enabled");
        assert_eq!(buf.dropped_spans(), 0, "trace span capacity exceeded");
        assert_eq!(buf.dropped_counters(), 0, "trace counter capacity exceeded");
        if nodes == 8 {
            chrome_trace = chrome_trace_json(buf);
        }
        let phases = phase_summary(buf);
        assert_battery_clean(&sim);
        rows.push(TraceRow {
            nodes,
            threads,
            checksum: sim.state.checksum(),
            phases,
        });
    }
    Ok((rows, ckpt, chrome_trace))
}

/// The fleet pass's fixed shape: one worker, three cycles per slice.
const FLEET_QUANTUM: u64 = 3;

/// The fleet pass's mixed corpus: sizes, temperatures, priorities and
/// lengths all differ, and one member runs 8 nodes on 2 threads.
fn fleet_specs() -> Vec<JobSpec> {
    let spec =
        |name: &str, n_waters, box_edge, temperature_k, cycles, priority: u32, nodes, threads| {
            JobSpec {
                name: name.into(),
                n_waters,
                box_edge,
                placement_seed: 3,
                temperature_k,
                velocity_seed: 7 + u64::from(priority),
                cutoff: 6.5,
                mesh: 16,
                cycles,
                priority,
                nodes,
                threads,
            }
        };
    vec![
        spec("drill-hot-small", 20, 13.5, 320.0, 6, 3, 0, 1),
        spec("drill-mid", 30, 15.0, 300.0, 8, 2, 0, 1),
        spec("drill-wide", 40, 16.0, 300.0, 5, 1, 8, 2),
        spec("drill-cool", 24, 14.0, 285.0, 7, 0, 0, 1),
    ]
}

/// The fleet's canonical pass: drain the corpus under checkpoint
/// preemption and require every job to end on its uninterrupted solo
/// checksum with a clean battery.
fn fleet_pass(state_dir: &Path) -> Result<Table, String> {
    let specs = fleet_specs();
    let mut cfg = FleetConfig::new(state_dir);
    cfg.quantum = FLEET_QUANTUM;
    cfg.workers = 1;
    let fleet = Fleet::create(cfg).map_err(|e| format!("fleet: {e}"))?;
    for s in &specs {
        fleet
            .submit(s.clone())
            .map_err(|e| format!("submit {}: {e}", s.name))?;
    }
    fleet.run_to_completion();
    let views = fleet.list();
    for s in &specs {
        let v = views
            .iter()
            .find(|v| v.id == s.job_id())
            .expect("submitted job is listed");
        let mut solo = s.builder().expect("fleet spec builds").build();
        solo.run_cycles(s.cycles as usize);
        assert_eq!(v.phase, JobPhase::Done, "{} did not finish", s.name);
        assert_eq!(
            v.final_checksum,
            solo.state.checksum(),
            "{} diverged from solo",
            s.name
        );
        assert_eq!(v.violations, 0, "{}: battery violations", s.name);
    }
    Ok(fleet_table(FLEET_QUANTUM, &views, &specs))
}

/// One counted + modeled configuration of the sweep.
struct Row {
    nodes: usize,
    threads: usize,
    links_per_rank: u64,
    kb_per_step_rank: f64,
    mean_hops: f64,
    modeled_comm_us: f64,
    fft_msgs_per_rank_lr: f64,
    fft_kb_per_rank_lr: f64,
    halo_kb_per_rank_lr: f64,
    /// Match-stage census over the whole run: candidates examined, pairs
    /// surviving the exact cutoff, batches evaluated.
    match_candidates: u64,
    match_pairs: u64,
    match_batches: u64,
    /// Short-range evaluations that rebuilt the match cache vs reused it.
    rebuild_steps: u64,
    reuse_steps: u64,
    checksum: u64,
}

/// One traced configuration: the per-phase summary of its trace buffer.
pub struct TraceRow {
    pub nodes: usize,
    pub threads: usize,
    pub checksum: u64,
    pub phases: Vec<PhaseRow>,
}

/// The checkpoint probe of the traced 8-node row: file count and exact
/// bytes written (the snapshot encoding is deterministic).
#[derive(Default)]
struct CkptStats {
    files: u64,
    bytes_written: u64,
}

/// The deterministic columns of the sweep (Figure 5-shaped): the modeled
/// communication profile and the exact exchange census per (nodes,
/// threads) point.
fn scaling_table(atoms: usize, rows: &[Row]) -> Table {
    let mut t = Table::new(
        "TABLE_scaling",
        "Scaling sweep, deterministic columns: modeled comm profile + exact census per decomposition",
        &[
            "nodes",
            "threads",
            "atoms",
            "links_per_rank",
            "kb_per_step_rank",
            "mean_hops",
            "modeled_comm_us",
            "fft_messages_per_rank_lr_step",
            "fft_kb_per_rank_lr_step",
            "mesh_halo_kb_per_rank_lr_step",
            "match_candidates",
            "match_pairs",
            "match_batches",
            "rebuild_steps",
            "reuse_steps",
            "state_checksum",
        ],
    );
    for r in rows {
        t.push_row(vec![
            Cell::Int(r.nodes as i128),
            Cell::Int(r.threads as i128),
            Cell::Int(atoms as i128),
            Cell::Int(r.links_per_rank.into()),
            Cell::Fixed6(micro_from_f64(r.kb_per_step_rank)),
            Cell::Fixed6(micro_from_f64(r.mean_hops)),
            Cell::Fixed6(micro_from_f64(r.modeled_comm_us)),
            Cell::Fixed6(micro_from_f64(r.fft_msgs_per_rank_lr)),
            Cell::Fixed6(micro_from_f64(r.fft_kb_per_rank_lr)),
            Cell::Fixed6(micro_from_f64(r.halo_kb_per_rank_lr)),
            Cell::Int(r.match_candidates.into()),
            Cell::Int(r.match_pairs.into()),
            Cell::Int(r.match_batches.into()),
            Cell::Int(r.rebuild_steps.into()),
            Cell::Int(r.reuse_steps.into()),
            Cell::Hex(r.checksum),
        ]);
    }
    t
}

/// Per-phase span/message/byte census of the traced pass (Figure 6/7
/// shape): everything the trace models deterministically, without the
/// measured `measured_ns` column.
fn trace_phases_table(rows: &[TraceRow]) -> Table {
    let mut t = Table::new(
        "TABLE_trace_phases",
        "Traced pass, deterministic columns: per-phase spans, modeled messages/bytes/us",
        &[
            "nodes",
            "threads",
            "phase",
            "spans",
            "messages",
            "bytes",
            "modeled_us",
            "state_checksum",
        ],
    );
    for row in rows {
        for p in &row.phases {
            t.push_row(vec![
                Cell::Int(row.nodes as i128),
                Cell::Int(row.threads as i128),
                Cell::text(p.phase.name()),
                Cell::Int(p.spans.into()),
                Cell::Int(p.messages.into()),
                Cell::Int(p.bytes.into()),
                Cell::Fixed6(micro_from_f64(p.modeled_us)),
                Cell::Hex(row.checksum),
            ]);
        }
    }
    t
}

/// The checkpoint probe of the traced pass.
fn ckpt_table(ckpt: &CkptStats) -> Table {
    let mut t = Table::new(
        "TABLE_ckpt",
        "Checkpoint probe of the traced 8-node pass: exact write census",
        &["files", "bytes_written"],
    );
    t.push_row(vec![
        Cell::Int(ckpt.files.into()),
        Cell::Int(ckpt.bytes_written.into()),
    ]);
    t
}

/// The fleet's canonical-pass census: per-job preemption, resume,
/// and checkpoint-byte counters plus the pinned trajectory checksums and
/// content-fingerprint job ids, with a TOTAL row whose checksum column
/// carries the whole-fleet identity (FNV-1a over the per-job final
/// checksums in schedule order). Every column is an exact integer of the
/// canonical pass.
fn fleet_table(quantum: u64, views: &[JobStatusView], specs: &[JobSpec]) -> Table {
    let mut t = Table::new(
        "TABLE_fleet",
        "Fleet drill canonical pass: per-job slice census under checkpoint preemption",
        &[
            "job",
            "priority",
            "atoms",
            "cycles",
            "quantum",
            "preemptions",
            "resumes",
            "ckpt_bytes",
            "violations",
            "final_checksum",
            "id",
            "battery_samples",
        ],
    );
    let atoms_of = |v: &JobStatusView| -> i128 {
        specs
            .iter()
            .find(|s| s.job_id() == v.id)
            .map_or(0, |s| i128::from(s.n_waters) * 3)
    };
    let mut fleet_sum = anton_ckpt::Fnv64::new();
    for v in views {
        fleet_sum.update(&v.final_checksum.to_le_bytes());
        t.push_row(vec![
            Cell::text(v.name.as_str()),
            Cell::Int(v.priority.into()),
            Cell::Int(atoms_of(v)),
            Cell::Int(v.cycles_total.into()),
            Cell::Int(quantum.into()),
            Cell::Int(v.preemptions.into()),
            Cell::Int(v.resumes.into()),
            Cell::Int(v.ckpt_bytes.into()),
            Cell::Int(v.violations.into()),
            Cell::Hex(v.final_checksum),
            Cell::Hex(v.id.0),
            Cell::Int(v.battery_samples.into()),
        ]);
    }
    let sum =
        |f: fn(&JobStatusView) -> u64| -> i128 { views.iter().map(|v| i128::from(f(v))).sum() };
    t.push_row(vec![
        Cell::text("TOTAL"),
        Cell::Int(0),
        Cell::Int(views.iter().map(atoms_of).sum()),
        Cell::Int(sum(|v| v.cycles_total)),
        Cell::Int(quantum.into()),
        Cell::Int(sum(|v| v.preemptions)),
        Cell::Int(sum(|v| v.resumes)),
        Cell::Int(sum(|v| v.ckpt_bytes)),
        Cell::Int(0),
        Cell::Hex(fleet_sum.finish()),
        Cell::Hex(0),
        Cell::Int(sum(|v| v.battery_samples)),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_tables_are_deterministic_and_well_formed() {
        let a = table2().render_csv();
        let b = table2().render_csv();
        assert_eq!(a, b);
        assert_eq!(a.lines().count(), 2 + 1 + 14, "2 settings x 7 tasks");
        let t4 = table4().render_csv();
        assert_eq!(t4.lines().count(), 2 + 1 + TABLE4.len());
        assert!(t4.contains("DHFR"));
    }

    #[test]
    fn scaling_table_excludes_wall_clock_columns() {
        let row = Row {
            nodes: 8,
            threads: 2,
            links_per_rank: 4,
            kb_per_step_rank: 60.282629,
            mean_hops: 1.25,
            modeled_comm_us: 4.313569,
            fft_msgs_per_rank_lr: 384.0,
            fft_kb_per_rank_lr: 24.0,
            halo_kb_per_rank_lr: 56.0,
            match_candidates: 10,
            match_pairs: 5,
            match_batches: 2,
            rebuild_steps: 1,
            reuse_steps: 3,
            checksum: 0x9e6b_6ba9_19bb_f63a,
        };
        let csv = scaling_table(12, &[row]).render_csv();
        assert!(csv.contains("8,2,12,4,60.282629,1.250000,4.313569,384.000000"));
        assert!(csv.contains("0x9e6b6ba919bbf63a"));
    }
}
