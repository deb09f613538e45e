//! Paper-artifact table builders: deterministic CSV renderings of the
//! Table 2 / Table 4 performance-model columns and the Figure 5–7-shaped
//! scaling/trace/fleet results, built by the process that measured them
//! from its in-memory rows ([`Row`], [`TraceRow`], [`CkptStats`], the
//! fleet's `JobStatusView`s).
//!
//! Only model-derived and counted quantities are exported — wall-clock
//! fields (`measured_ns`, `serialize_us`) are deliberately excluded so the
//! rendered bytes are a pure function of the configuration. `paper tables`,
//! `scaling` and `fleet_drill` rewrite `results/TABLE_*.csv`; CI diffs the
//! bytes.

use anton_analysis::artifacts::{micro_from_f64, Cell, Table};
use anton_core::system_stats;
use anton_fleet::{JobSpec, JobStatusView};
use anton_machine::perf::{dhfr_stats, SystemStats};
use anton_machine::PerfModel;
use anton_systems::{table4_system, Table4Entry, TABLE4};
use anton_trace::PhaseRow;

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

pub fn table2() -> Table {
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

pub fn table4() -> Table {
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

/// One counted + modeled configuration of the scaling sweep.
pub struct Row {
    pub nodes: usize,
    pub threads: usize,
    pub links_per_rank: u64,
    pub kb_per_step_rank: f64,
    pub mean_hops: f64,
    pub modeled_comm_us: f64,
    pub fft_msgs_per_rank_lr: f64,
    pub fft_kb_per_rank_lr: f64,
    pub halo_kb_per_rank_lr: f64,
    /// Match-stage census over the whole run (candidates examined, pairs
    /// surviving the exact cutoff, batches evaluated). The pair count is a
    /// pure function of the trajectory — identical in every row — while
    /// candidates and batches depend on the decomposition's tiling.
    pub match_candidates: u64,
    pub match_pairs: u64,
    pub match_batches: u64,
    /// Persistent match-cache census: how many short-range evaluations
    /// rebuilt the tile/batch structure vs reused it. The schedule is a
    /// pure function of the trajectory (exact fixed-point mover test), so
    /// both counts are identical in every row.
    pub rebuild_steps: u64,
    pub reuse_steps: u64,
    pub checksum: u64,
}

/// One traced configuration: the per-phase summary of its trace buffer.
pub struct TraceRow {
    pub nodes: usize,
    pub threads: usize,
    pub checksum: u64,
    pub phases: Vec<PhaseRow>,
}

/// Checkpoint cost of the traced 8-node row: file/byte counts are exact
/// (the snapshot encoding is deterministic), serialize+write time is
/// measured wall-clock from the `checkpoint` trace phase.
#[derive(Default)]
pub struct CkptStats {
    pub files: u64,
    pub bytes_written: u64,
    pub serialize_us: f64,
}

/// The deterministic columns of the scaling sweep (Figure 5-shaped): the
/// modeled communication profile and the exact exchange census per
/// (nodes, threads) point. Measured wall-clock columns are excluded.
pub fn scaling_table(atoms: usize, rows: &[Row]) -> Table {
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
pub fn trace_phases_table(rows: &[TraceRow]) -> Table {
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

/// The checkpoint probe of the traced pass: file count and exact bytes
/// written (the serialize time is measured and therefore excluded).
pub fn ckpt_table(ckpt: &CkptStats) -> Table {
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

/// The fleet drill's canonical-pass census: per-job preemption, resume,
/// and checkpoint-byte counters plus the pinned trajectory checksums and
/// content-fingerprint job ids, with a TOTAL row whose checksum column
/// carries the whole-fleet identity (FNV-1a over the per-job final
/// checksums in schedule order). Every column is an exact integer of the
/// canonical pass.
pub fn fleet_table(quantum: u64, views: &[JobStatusView], specs: &[JobSpec]) -> Table {
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
