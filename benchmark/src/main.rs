//! anton-md benchmark: host-normalised ns/day on five workloads plus an
//! outside-timed per-layer ledger. See README.md; driven by run.sh.
//!
//!   anton-benchmark --workload NAME [--seed N] [--seconds S]
//!                   [--trace 0|1 | --layers] [--smoke]
//!   anton-benchmark --list

mod api;
mod host;
mod layers;
mod report;
mod run;
mod spans;
mod stats;
mod workloads;

use report::{Checks, MetricDef, Metrics, END_TO_END, PER_LAYER};
use stats::median;
use std::path::PathBuf;
use workloads::{Primary, Workload};

/// Spans a `--trace 1` run may record (about 20 per block).
const SPAN_CAPACITY: usize = 1 << 15;

/// Everything a run threads through its phases.
pub struct Ctx {
    pub host: host::HostRef,
    pub rec: spans::Recorder,
    pub checks: Checks,
    out_dir: PathBuf,
    scratch_root: PathBuf,
}

impl Ctx {
    /// A directory of this process's own under the output directory
    /// (checkpoint probes, fleet state); removed when the run ends.
    pub fn scratch_dir(&self, name: &str) -> PathBuf {
        self.scratch_root.join(name)
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: anton-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1 | --layers] [--smoke]\n       anton-benchmark --list\nworkloads: {}",
        workloads::NAMES.join(" ")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--list" => {
                for name in workloads::NAMES {
                    println!("{name}");
                }
                std::process::exit(0);
            }
            "--workload" => args.workload = value(),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => args.trace = value() == "1",
            "--layers" => args.trace = true,
            // Minimum blocks and rounds only: the quick pass CI can afford.
            "--smoke" => args.seconds = 0.0,
            _ => usage(),
        }
    }
    args
}

/// `--trace 0`: the end-to-end metrics of the workload's primary part.
fn plain_run(ctx: &mut Ctx, w: &Workload, seconds: f64, m: &mut Metrics) {
    match w.primary {
        Primary::Sim => {
            let (sim_run, _) = run::run_sim(ctx, &w.sim, seconds, false);
            m.set("ns_per_day", sim_run.ns_per_day());
            m.set("setup_s", sim_run.setup_s());
            m.set("peak_rss_mb", sim_run.peak_rss_mib);
            run::check_sim(ctx, &w.sim, &sim_run);
            m.set(
                "force_error",
                run::force_error(ctx, std::slice::from_ref(&sim_run.initial)),
            );
            // 7.5 s and a second 0.6 GB pipeline at DHFR size: there the
            // battery runs in the traced run only, where it is also a probe.
            if sim_run.sim.system.n_atoms() < 10_000 {
                run::check_battery(ctx, &sim_run.sim);
            }
            m.info("instances", sim_run.block_ms.len());
            m.info("block_ms", format!("{:.1?}", sim_run.block_ms));
            m.info("block_ms_raw", format!("{:.1?}", sim_run.block_ms_raw));
            m.info("block_rebuilds", format!("{:?}", sim_run.block_rebuilds));
            m.info("window_state_fnv", format!("{:016x}", sim_run.window_fnv));
            m.info("host.ns_per_day_raw", sim_run.ns_per_day_raw());
        }
        Primary::Fleet => {
            let fleet_run = run::run_fleet(ctx, &w.fleet, seconds);
            let solo = run::solo_runs(ctx, &w.fleet);
            run::check_fleet(ctx, &w.fleet, &fleet_run, &solo);
            m.set(
                "ns_per_day",
                run::ns_per_day(solo.fs_per_round, median(&fleet_run.round_ms)),
            );
            m.set("setup_s", median(&fleet_run.setup_s));
            m.set("peak_rss_mb", fleet_run.peak_rss_mib);
            m.set("force_error", run::force_error(ctx, &solo.initial));
            m.info("rounds", fleet_run.round_ms.len());
            m.info("block_ms", format!("{:.1?}", fleet_run.round_ms));
            m.info("block_ms_raw", format!("{:.1?}", fleet_run.round_ms_raw));
            m.info("solo_state_fnv", format!("{:016x?}", solo.checksums));
            m.info(
                "host.ns_per_day_raw",
                run::ns_per_day(solo.fs_per_round, median(&fleet_run.round_ms_raw)),
            );
        }
    }
}

/// `--trace 1`: every per-layer metric. The primary part gets the time
/// budget; the other part runs its minimum so its layers are probed too.
fn traced_run(ctx: &mut Ctx, w: &Workload, seconds: f64, m: &mut Metrics) {
    let (sim_seconds, fleet_seconds) = match w.primary {
        Primary::Sim => (seconds, 0.0),
        Primary::Fleet => (0.0, seconds),
    };

    // ---- simulation layers
    let (sim_run, probes) = run::run_sim(ctx, &w.sim, sim_seconds, true);
    let mut probes = probes.expect("traced run builds probes");
    let violations = probes.once(ctx, &sim_run.sim);
    ctx.checks.check(
        "analysis battery is clean on the final state",
        violations == 0,
    );
    probes.pool(ctx, &sim_run.sim.state, m);
    probes.report(ctx, m);
    run::check_sim(ctx, &w.sim, &sim_run);

    m.set("systems.build_s", median(&sim_run.system_build_s));
    m.set("core.engine_build_s", median(&sim_run.engine_build_s));
    let census = sim_run.window_census;
    let evaluations = census.evaluations() as f64;
    m.set("core.lanes_per_step", census.lanes() as f64 / evaluations);
    m.set(
        "core.live_lane_frac",
        census.pairs as f64 / census.lanes() as f64,
    );
    let rebuild_frac = census.rebuilds as f64 / evaluations;
    m.set("core.rebuild_frac", rebuild_frac);

    // The ledger: a normalised step is the outside-timed phases plus a
    // residual (integrate, constraints, kicks, glue), by construction.
    let step_ms = run::window_ms(&sim_run.block_ms) / sim_run.steps_per_window;
    let get = |m: &Metrics, name| m.get(name).expect("probe metric set");
    let long_every = sim_run.sim.system.params.longrange_every.max(1) as f64;
    let accounted = get(m, "core.evaluate_ms")
        + rebuild_frac * get(m, "core.match_rebuild_ms")
        + get(m, "core.bonded_ms")
        + get(m, "core.long_range_ms") / long_every;
    m.set("core.residual_ms_per_step", step_ms - accounted);
    m.set("core.residual_frac", (step_ms - accounted) / step_ms);
    m.set(
        "trace.overhead_frac",
        run::window_ms(&sim_run.traced_block_ms) / run::window_ms(&sim_run.block_ms) - 1.0,
    );

    // ---- fleet layers
    let fleet_run = run::run_fleet(ctx, &w.fleet, fleet_seconds);
    let two_workers_ms = run::fleet_round_two_workers(ctx, &w.fleet);
    let solo = run::solo_runs(ctx, &w.fleet);
    run::check_fleet(ctx, &w.fleet, &fleet_run, &solo);
    let round_ms = median(&fleet_run.round_ms);
    let overhead_ms = round_ms - solo.run_ms.iter().sum::<f64>();
    m.set("fleet.slices", fleet_run.slices as f64);
    m.set("fleet.resumes", fleet_run.resumes as f64);
    m.set(
        "fleet.submit_ms",
        median(&ctx.rec.durations_ms("fleet.submit")),
    );
    m.set("fleet.overhead_frac", overhead_ms / round_ms);
    m.set(
        "fleet.slice_overhead_ms",
        overhead_ms / fleet_run.slices as f64,
    );
    m.set("fleet.worker_scaling", round_ms / two_workers_ms);

    // ---- host diagnostics, on the primary part's blocks
    let raw = match w.primary {
        Primary::Sim => sim_run.ns_per_day_raw(),
        Primary::Fleet => run::ns_per_day(solo.fs_per_round, median(&fleet_run.round_ms_raw)),
    };
    m.set("host.ns_per_day_raw", raw);
    let traced_ns_per_day = match w.primary {
        Primary::Sim => sim_run.ns_per_day(),
        Primary::Fleet => run::ns_per_day(solo.fs_per_round, round_ms),
    };
    m.info("ns_per_day_traced", traced_ns_per_day);
    m.info("window_state_fnv", format!("{:016x}", sim_run.window_fnv));
    m.info(
        "sim_instances",
        sim_run.block_ms.len() + sim_run.traced_block_ms.len(),
    );
    m.info("fleet_rounds", fleet_run.round_ms.len());
    m.info("spans", ctx.rec.spans().len());
    m.info("spans_dropped", ctx.rec.dropped);
}

fn main() {
    let args = parse_args();
    let Some(w) = workloads::workload(&args.workload, args.seed) else {
        usage()
    };
    let out_dir =
        PathBuf::from(std::env::var("BENCH_OUT").unwrap_or_else(|_| "target/benchmark".into()));
    let scratch_root = out_dir.join(format!("scratch-{}-{}", w.name, std::process::id()));
    std::fs::create_dir_all(&scratch_root).expect("create the benchmark's output directory");
    let mut ctx = Ctx {
        host: host::HostRef::new(),
        rec: spans::Recorder::with_capacity(if args.trace { SPAN_CAPACITY } else { 0 }),
        checks: Checks::default(),
        out_dir,
        scratch_root,
    };

    let mut m = Metrics::default();
    let defs: &[MetricDef] = if args.trace {
        traced_run(&mut ctx, &w, args.seconds, &mut m);
        m.set("host.ref_ms_p50", ctx.host.p50());
        m.set("host.ref_spread", ctx.host.spread());
        m.set("host.nproc", host::nproc() as f64);
        &PER_LAYER
    } else {
        plain_run(&mut ctx, &w, args.seconds, &mut m);
        m.info("host.ref_ms_p50", ctx.host.p50());
        m.info("host.ref_spread", ctx.host.spread());
        m.info("host.nproc", host::nproc());
        &END_TO_END
    };
    let _ = std::fs::remove_dir_all(&ctx.scratch_root);

    println!(
        "workload {} seed {} trace {}",
        w.name, args.seed, args.trace as u8
    );
    for &(name, unit) in defs {
        println!("{name:36} {:>16.6} {unit}", m.get(name).unwrap_or(f64::NAN));
    }
    println!(
        "{:36} {:>16.6} ratio",
        "failed_frac",
        ctx.checks.failed_frac()
    );
    for (key, value) in &m.info {
        println!("info {key} = {value}");
    }
    for failure in &ctx.checks.failures {
        println!("FAILED {failure}");
    }

    let suffix = if args.trace { "layers.json" } else { "json" };
    let file = report::output_file(w.name, args.seed, args.trace, defs, &m, &ctx.checks);
    std::fs::write(ctx.out_dir.join(format!("{}.{suffix}", w.name)), file)
        .expect("write the output file");
    if args.trace {
        let trace = ctx.rec.chrome_trace_json(w.name);
        std::fs::write(ctx.out_dir.join(format!("{}.trace.json", w.name)), trace)
            .expect("write the chrome trace");
    }

    println!("{}", report::result_line(defs, &m, &ctx.checks));
    if ctx.checks.failed > 0 {
        std::process::exit(1);
    }
}
