//! CI perf-regression gate over the scaling benchmark artifacts.
//!
//! Compares the current `results/BENCH_scaling.json` and
//! `results/TRACE_scaling.json` (both produced by the `scaling` binary)
//! against the checked-in `results/PERF_baseline.json`, with a tolerance
//! tier per kind of quantity:
//!
//! * **exact** — message/byte/span counts, link counts, and state
//!   checksums: pure functions of the simulation configuration, so any
//!   drift is a real behavior change (or a broken determinism claim).
//! * **modeled** (relative 1e-6) — modeled communication times: f64
//!   arithmetic over the exact counts; the slack only absorbs formatting.
//! * **measured** (factor 50) — host wall-clock: legitimately varies
//!   between machines and runs, so only catastrophic slowdowns gate.
//!
//! Two additions on top of the baseline diff: the smoke geometry's
//! single-rank step time must stay under an absolute checked-in ceiling
//! ([`MS_PER_STEP_CEILING`]), and every passing gate run appends its
//! measured step times to `results/PERF_trend.json` so the perf
//! trajectory across PRs stays reviewable.
//!
//! `cargo run --release -p anton-bench --bin perfgate` — gate (exit 1 on
//! violation); `--update` re-snapshots the baseline from the current
//! artifacts after an intentional change.

use anton_bench::json::Json;

const BENCH_PATH: &str = "results/BENCH_scaling.json";
const TRACE_PATH: &str = "results/TRACE_scaling.json";
const BASELINE_PATH: &str = "results/PERF_baseline.json";
const TREND_PATH: &str = "results/PERF_trend.json";

const MODELED_REL_TOL: f64 = 1e-6;
const MEASURED_FACTOR: f64 = 50.0;

/// Absolute ceiling on the smoke waterbox's single-rank step time: the
/// median of seven scaling runs on the reference machine (12.9 ms/step
/// with the match stage on per-atom exclusion rows, half-reach subboxes
/// and the two-pass filter) plus that series' noise floor, the 4.6 ms by
/// which its worst run (17.5, the host's slow state) exceeded the median.
/// It fails loudly if the pipeline falls back off the cached batched path
/// (~24 ms/step) or the fused tables regress (~21 ms/step), and in the
/// host's slow state also if the match stage returns to its old cost
/// (+2 ms/step amortised). Mirrored by the inline assert in
/// .github/workflows/ci.yml — keep in lockstep.
const MS_PER_STEP_CEILING: f64 = 18.0;
/// Atom count of the smoke geometry the ceiling is calibrated for.
const CEILING_ATOMS: u64 = 1020;

fn read_json(path: &str) -> Json {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {path}: {e} (run the scaling benchmark first)"));
    Json::parse(&text).unwrap_or_else(|e| panic!("cannot parse {path}: {e}"))
}

/// Collects violations instead of failing fast, so one run reports every
/// drifted quantity.
#[derive(Default)]
struct Gate {
    checks: usize,
    failures: Vec<String>,
}

impl Gate {
    fn field<'a>(&mut self, ctx: &str, obj: &'a Json, key: &str) -> Option<&'a Json> {
        let v = obj.get(key);
        if v.is_none() {
            self.failures.push(format!("{ctx}: missing field '{key}'"));
        }
        v
    }

    fn exact_u64(&mut self, ctx: &str, key: &str, base: &Json, cur: &Json) {
        self.checks += 1;
        let (b, c) = (
            self.field(ctx, base, key).and_then(Json::as_u64),
            self.field(ctx, cur, key).and_then(Json::as_u64),
        );
        if let (Some(b), Some(c)) = (b, c) {
            if b != c {
                self.failures.push(format!(
                    "{ctx}: {key} changed exactly: baseline {b}, current {c}"
                ));
            }
        }
    }

    fn exact_str(&mut self, ctx: &str, key: &str, base: &Json, cur: &Json) {
        self.checks += 1;
        let (b, c) = (
            self.field(ctx, base, key).and_then(Json::as_str),
            self.field(ctx, cur, key).and_then(Json::as_str),
        );
        if let (Some(b), Some(c)) = (b, c) {
            if b != c {
                self.failures
                    .push(format!("{ctx}: {key} changed: baseline {b}, current {c}"));
            }
        }
    }

    fn modeled(&mut self, ctx: &str, key: &str, base: &Json, cur: &Json) {
        self.checks += 1;
        let (b, c) = (
            self.field(ctx, base, key).and_then(Json::as_f64),
            self.field(ctx, cur, key).and_then(Json::as_f64),
        );
        if let (Some(b), Some(c)) = (b, c) {
            let scale = b.abs().max(c.abs()).max(1e-12);
            if (b - c).abs() > MODELED_REL_TOL * scale {
                self.failures.push(format!(
                    "{ctx}: modeled {key} drifted beyond {MODELED_REL_TOL:e} rel: \
                     baseline {b}, current {c}"
                ));
            }
        }
    }

    fn measured(&mut self, ctx: &str, key: &str, base: &Json, cur: &Json) {
        self.checks += 1;
        let (b, c) = (
            self.field(ctx, base, key).and_then(Json::as_f64),
            self.field(ctx, cur, key).and_then(Json::as_f64),
        );
        if let (Some(b), Some(c)) = (b, c) {
            if b > 0.0 && c > b * MEASURED_FACTOR {
                self.failures.push(format!(
                    "{ctx}: measured {key} regressed more than {MEASURED_FACTOR}x: \
                     baseline {b}, current {c}"
                ));
            }
        }
    }
}

/// Find the row of `rows` with the same (nodes, threads) as `base_row`.
fn matching_row<'a>(rows: &'a [Json], base_row: &Json) -> Option<&'a Json> {
    let nodes = base_row.get("nodes")?.as_u64()?;
    let threads = base_row.get("threads")?.as_u64()?;
    rows.iter().find(|r| {
        r.get("nodes").and_then(Json::as_u64) == Some(nodes)
            && r.get("threads").and_then(Json::as_u64) == Some(threads)
    })
}

fn gate_bench(g: &mut Gate, base: &Json, cur: &Json) {
    g.exact_u64("bench", "atoms", base, cur);
    g.exact_u64("bench", "steps_per_row", base, cur);
    g.checks += 1;
    if cur.get("invariant").and_then(Json::as_bool) != Some(true) {
        g.failures
            .push("bench: parallel invariance flag is not true".into());
    }
    let base_rows = base.get("rows").and_then(Json::as_arr).unwrap_or(&[]);
    let cur_rows = cur.get("rows").and_then(Json::as_arr).unwrap_or(&[]);
    for b in base_rows {
        let nodes = b.get("nodes").and_then(Json::as_u64).unwrap_or(0);
        let threads = b.get("threads").and_then(Json::as_u64).unwrap_or(0);
        let ctx = format!("bench[{nodes}n/{threads}t]");
        let Some(c) = matching_row(cur_rows, b) else {
            g.failures
                .push(format!("{ctx}: row missing from current run"));
            continue;
        };
        g.exact_str(&ctx, "state_checksum", b, c);
        g.exact_u64(&ctx, "links_per_rank", b, c);
        for key in ["match_candidates", "match_pairs", "match_batches"] {
            g.exact_u64(&ctx, key, b, c);
        }
        for key in [
            "kb_per_step_rank",
            "mean_hops",
            "modeled_comm_us",
            "fft_messages_per_rank_lr_step",
            "fft_kb_per_rank_lr_step",
            "mesh_halo_kb_per_rank_lr_step",
        ] {
            g.modeled(&ctx, key, b, c);
        }
        for key in ["ms_per_step", "lr_ms_per_eval"] {
            g.measured(&ctx, key, b, c);
        }
    }
    // Absolute ceiling on the smoke geometry's single-rank step time, on
    // top of the baseline-relative measured tier: the HTIS-shaped batch
    // pipeline's headline speedup must not silently erode.
    if cur.get("atoms").and_then(Json::as_u64) == Some(CEILING_ATOMS) {
        g.checks += 1;
        let smoke = cur_rows.iter().find(|r| {
            r.get("nodes").and_then(Json::as_u64) == Some(1)
                && r.get("threads").and_then(Json::as_u64) == Some(1)
        });
        match smoke
            .and_then(|r| r.get("ms_per_step"))
            .and_then(Json::as_f64)
        {
            Some(ms) if ms <= MS_PER_STEP_CEILING => {}
            Some(ms) => g.failures.push(format!(
                "bench[1n/1t]: ms_per_step {ms} exceeds the {MS_PER_STEP_CEILING} ceiling"
            )),
            None => g
                .failures
                .push("bench[1n/1t]: no ms_per_step for the ceiling check".into()),
        }
    }
}

fn gate_trace(g: &mut Gate, base: &Json, cur: &Json) {
    g.exact_u64("trace", "atoms", base, cur);
    g.exact_u64("trace", "cycles_per_row", base, cur);
    let base_rows = base.get("rows").and_then(Json::as_arr).unwrap_or(&[]);
    let cur_rows = cur.get("rows").and_then(Json::as_arr).unwrap_or(&[]);
    for b in base_rows {
        let nodes = b.get("nodes").and_then(Json::as_u64).unwrap_or(0);
        let threads = b.get("threads").and_then(Json::as_u64).unwrap_or(0);
        let ctx = format!("trace[{nodes}n/{threads}t]");
        let Some(c) = matching_row(cur_rows, b) else {
            g.failures
                .push(format!("{ctx}: row missing from current run"));
            continue;
        };
        g.exact_str(&ctx, "state_checksum", b, c);
        let base_phases = b.get("phases").and_then(Json::as_arr).unwrap_or(&[]);
        let cur_phases = c.get("phases").and_then(Json::as_arr).unwrap_or(&[]);
        for bp in base_phases {
            let name = bp.get("phase").and_then(Json::as_str).unwrap_or("?");
            let pctx = format!("{ctx}.{name}");
            let Some(cp) = cur_phases
                .iter()
                .find(|p| p.get("phase").and_then(Json::as_str) == Some(name))
            else {
                g.failures.push(format!("{pctx}: phase row missing"));
                continue;
            };
            g.exact_u64(&pctx, "spans", bp, cp);
            g.exact_u64(&pctx, "messages", bp, cp);
            g.exact_u64(&pctx, "bytes", bp, cp);
            g.modeled(&pctx, "modeled_us", bp, cp);
            g.measured(&pctx, "wall_us", bp, cp);
        }
    }
    // Checkpoint cost of the traced 8-node row: the snapshot encoding is
    // deterministic, so file count and bytes written gate exactly;
    // serialize+write time is host wall-clock and gates at the measured
    // tier only.
    match (base.get("checkpoint"), cur.get("checkpoint")) {
        (Some(b), Some(c)) => {
            g.exact_u64("trace.checkpoint", "files", b, c);
            g.exact_u64("trace.checkpoint", "bytes_written", b, c);
            g.measured("trace.checkpoint", "serialize_us", b, c);
        }
        _ => g
            .failures
            .push("trace: missing 'checkpoint' section".into()),
    }
}

/// Append this run's measured step times to the checked-in trend log, so
/// the perf trajectory across PRs is a first-class artifact instead of
/// archaeology over old baselines. One entry per gate run; rows in fixed
/// (nodes, threads) benchmark order; key order and formatting fixed, so
/// regenerating a run appends a byte-identical entry.
fn append_trend(bench: &Json) {
    let atoms = bench.get("atoms").and_then(Json::as_u64).unwrap_or(0);
    let steps = bench
        .get("steps_per_row")
        .and_then(Json::as_u64)
        .unwrap_or(0);
    let rows = bench.get("rows").and_then(Json::as_arr).unwrap_or(&[]);
    let mut entry = format!("{{\"atoms\": {atoms}, \"steps_per_row\": {steps}, \"rows\": [");
    for (i, r) in rows.iter().enumerate() {
        let get_u = |k: &str| r.get(k).and_then(Json::as_u64).unwrap_or(0);
        let get_f = |k: &str| r.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        entry.push_str(&format!(
            "{}{{\"nodes\": {}, \"threads\": {}, \"ms_per_step\": {:.6}, \
             \"lr_ms_per_eval\": {:.6}}}",
            if i == 0 { "" } else { ", " },
            get_u("nodes"),
            get_u("threads"),
            get_f("ms_per_step"),
            get_f("lr_ms_per_eval"),
        ));
    }
    entry.push_str("]}");

    let empty = "{\n  \"schema\": \"perf-trend/v1\",\n  \"runs\": [\n  ]\n}\n".to_string();
    let current = std::fs::read_to_string(TREND_PATH).unwrap_or(empty);
    let n_runs = Json::parse(&current)
        .ok()
        .and_then(|j| j.get("runs").and_then(Json::as_arr).map(<[Json]>::len))
        .unwrap_or_else(|| panic!("{TREND_PATH}: not a perf-trend document"));
    let tail = "\n  ]\n}";
    let Some(head) = current.trim_end().strip_suffix(tail) else {
        panic!("{TREND_PATH}: unrecognized layout; regenerate it");
    };
    let sep = if n_runs == 0 { "" } else { "," };
    let next = format!("{head}{sep}\n    {entry}{tail}\n");
    Json::parse(&next).unwrap_or_else(|e| panic!("internal: bad trend JSON produced: {e}"));
    std::fs::write(TREND_PATH, &next).unwrap_or_else(|e| panic!("cannot write {TREND_PATH}: {e}"));
    println!("appended run #{} to {TREND_PATH}", n_runs + 1);
}

fn update_baseline() {
    let bench = std::fs::read_to_string(BENCH_PATH)
        .unwrap_or_else(|e| panic!("cannot read {BENCH_PATH}: {e}"));
    let trace = std::fs::read_to_string(TRACE_PATH)
        .unwrap_or_else(|e| panic!("cannot read {TRACE_PATH}: {e}"));
    // Both inputs are themselves JSON documents; the baseline just embeds
    // them under one object (validated on the way in).
    Json::parse(&bench).unwrap_or_else(|e| panic!("invalid {BENCH_PATH}: {e}"));
    Json::parse(&trace).unwrap_or_else(|e| panic!("invalid {TRACE_PATH}: {e}"));
    let s = format!(
        "{{\n\"schema\": \"perf-baseline/v1\",\n\"bench\":\n{bench},\n\"trace\":\n{trace}}}\n",
        bench = bench.trim_end(),
        trace = trace.trim_end(),
    );
    std::fs::write(BASELINE_PATH, s)
        .unwrap_or_else(|e| panic!("cannot write {BASELINE_PATH}: {e}"));
    println!("wrote {BASELINE_PATH}");
}

fn main() {
    if std::env::args().any(|a| a == "--update") {
        update_baseline();
        return;
    }
    let baseline = read_json(BASELINE_PATH);
    let bench = read_json(BENCH_PATH);
    let trace = read_json(TRACE_PATH);

    let mut g = Gate::default();
    match (baseline.get("bench"), baseline.get("trace")) {
        (Some(bb), Some(bt)) => {
            gate_bench(&mut g, bb, &bench);
            gate_trace(&mut g, bt, &trace);
        }
        _ => g
            .failures
            .push(format!("{BASELINE_PATH}: missing 'bench'/'trace' sections")),
    }

    if g.failures.is_empty() {
        println!(
            "perf gate: {} checks against {BASELINE_PATH} — all passed",
            g.checks
        );
        append_trend(&bench);
    } else {
        eprintln!(
            "perf gate: {} of {} checks FAILED:",
            g.failures.len(),
            g.checks
        );
        for f in &g.failures {
            eprintln!("  {f}");
        }
        eprintln!("(after an intentional change: re-run scaling, then perfgate --update)");
        std::process::exit(1);
    }
}
