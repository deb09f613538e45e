//! The measured runs: timed blocks of a simulation workload, timed rounds
//! of a fleet workload, and the checks on what they computed.

use crate::api::{self, Census};
use crate::host::{peak_rss_mib, scale};
use crate::layers::Probes;
use crate::stats::median;
use crate::workloads::{single_rank_twin, FleetSpec, SimSpec};
use crate::Ctx;
use std::time::Instant;

/// Simulated ns per wall day from the femtoseconds a block advances and
/// the milliseconds it takes.
pub fn ns_per_day(fs_per_block: f64, block_ms: f64) -> f64 {
    (fs_per_block * 1e-6) / (block_ms * 1e-3) * 86_400.0
}

/// The time one pass over the window takes: every instance replays the same
/// trajectory, so block `k` is the same work in each row. Its time is the
/// median over the rows, and the window is the sum over `k`. Blocks need
/// not cost the same (a block with one match rebuild fewer is cheaper),
/// and the set of blocks counted never depends on how fast the host or the
/// engine is.
pub fn window_ms(rows: &[Vec<f64>]) -> f64 {
    (0..rows[0].len())
        .map(|k| median(&rows.iter().map(|row| row[k]).collect::<Vec<_>>()))
        .sum()
}

/// What the timed blocks of a simulation workload produced.
pub struct SimRun {
    /// Normalised s per instance: system build, engine build.
    pub system_build_s: Vec<f64>,
    pub engine_build_s: Vec<f64>,
    /// Normalised / raw ms per block, one row per instance run with engine
    /// tracing off.
    pub block_ms: Vec<Vec<f64>>,
    pub block_ms_raw: Vec<Vec<f64>>,
    /// Normalised ms per block, one row per instance run with engine tracing on.
    pub traced_block_ms: Vec<Vec<f64>>,
    pub fs_per_window: f64,
    pub steps_per_window: f64,
    /// State FNV and the simulation's own census at the end of the window.
    pub window_fnv: u64,
    pub window_census: Census,
    /// Match rebuilds in each block of the window: why blocks cost unequally.
    pub block_rebuilds: Vec<u64>,
    pub peak_rss_mib: f64,
    /// The system with the engine's forces at its initial configuration
    /// (right after the build).
    pub initial: (api::System, Vec<api::Vec3>),
    /// The last instance, at the end of the window.
    pub sim: api::AntonSimulation,
}

impl SimRun {
    pub fn setup_s(&self) -> f64 {
        let total: Vec<f64> = self
            .system_build_s
            .iter()
            .zip(&self.engine_build_s)
            .map(|(s, e)| s + e)
            .collect();
        median(&total)
    }

    pub fn ns_per_day(&self) -> f64 {
        ns_per_day(self.fs_per_window, window_ms(&self.block_ms))
    }

    pub fn ns_per_day_raw(&self) -> f64 {
        ns_per_day(self.fs_per_window, window_ms(&self.block_ms_raw))
    }
}

/// Build the engine and time the window (warm-up, then `spec.blocks` blocks
/// of cycles) on it, again and again until `seconds` have passed and at
/// least `spec.min_instances` times. With `probes`, every block is followed
/// by one sample of the per-block layer probes and odd instances run with
/// the engine's own tracing on (same trajectory, so the pairing is exact).
pub fn run_sim(
    ctx: &mut Ctx,
    spec: &SimSpec,
    seconds: f64,
    trace: bool,
) -> (SimRun, Option<Probes>) {
    let mut system_build_s = Vec::new();
    let mut engine_build_s = Vec::new();
    let (mut block_ms, mut block_ms_raw, mut traced_block_ms) =
        (Vec::new(), Vec::new(), Vec::new());
    let mut window: Option<(u64, Census)> = None;
    let mut block_rebuilds = Vec::new();
    let mut initial_forces = Vec::new();
    let mut probes: Option<Probes> = None;
    let mut last: Option<api::AntonSimulation> = None;
    let started = Instant::now();

    let mut instance = 0;
    while instance < spec.min_instances || started.elapsed().as_secs_f64() < seconds {
        // One engine alive at a time: `dhfr` holds 0.6 GB of match batches.
        drop(last.take());
        // The build is serial but for its one force refresh.
        ctx.host.configure(1, spec.ref_burst);
        let r0 = ctx.host.sample();
        let setup = ctx.rec.open("setup");
        let s = ctx.rec.open("systems.build");
        let sys = api::build_system(&spec.system);
        let system_ms = ctx.rec.close(s);
        let s = ctx.rec.open("core.engine_build");
        let mut sim = api::build_sim(sys, spec);
        let engine_ms = ctx.rec.close(s);
        let r1 = ctx.host.sample();
        let k = scale(r0, r1);
        ctx.rec.close_block(setup, k);
        system_build_s.push(system_ms * k * 1e-3);
        engine_build_s.push(engine_ms * k * 1e-3);

        if instance == 0 {
            initial_forces = api::engine_forces(&sim);
            if trace {
                probes = Some(Probes::new(ctx, &sim.system, spec));
            }
        }
        let engine_tracing = trace && instance % 2 == 1;
        api::set_engine_tracing(&mut sim, engine_tracing);

        ctx.host.configure(spec.threads, spec.ref_burst);
        api::run_cycles(&mut sim, spec.warmup_cycles);
        let census0 = api::census(&sim.pipeline);
        let mut block_census = census0;
        let (mut row, mut row_raw) = (Vec::new(), Vec::new());
        for _ in 0..spec.blocks {
            let r0 = ctx.host.sample();
            let block = ctx.rec.open("block");
            let s = ctx.rec.open("core.run_cycles");
            api::run_cycles(&mut sim, spec.cycles_per_block);
            let raw = ctx.rec.close(s);
            let r1 = ctx.host.sample();
            let k = scale(r0, r1);
            ctx.rec.close_block(block, k);
            row.push(raw * k);
            row_raw.push(raw);
            if instance == 0 {
                let census = api::census(&sim.pipeline);
                block_rebuilds.push(census.since(&block_census).rebuilds);
                block_census = census;
            }
            if let Some(p) = probes.as_mut() {
                p.sample(ctx, &sim);
            }
        }
        if engine_tracing {
            traced_block_ms.push(row);
        } else {
            block_ms.push(row);
            block_ms_raw.push(row_raw);
        }
        let fnv = api::state_fnv(&sim);
        match &window {
            None => window = Some((fnv, api::census(&sim.pipeline).since(&census0))),
            Some((first, _)) => ctx.checks.check(
                &format!("instance {instance} repeats instance 0's state FNV"),
                fnv == *first,
            ),
        }
        last = Some(sim);
        instance += 1;
    }

    let sim = last.expect("at least one instance");
    let (window_fnv, window_census) = window.expect("window recorded");
    let steps_per_window = (sim.system.params.longrange_every.max(1) as usize
        * spec.cycles_per_block
        * spec.blocks) as f64;
    let run = SimRun {
        system_build_s,
        engine_build_s,
        block_ms,
        block_ms_raw,
        traced_block_ms,
        fs_per_window: steps_per_window * sim.system.params.dt_fs,
        steps_per_window,
        window_fnv,
        window_census,
        block_rebuilds,
        peak_rss_mib: peak_rss_mib(),
        initial: (sim.system.clone(), initial_forces),
        sim,
    };
    (run, probes)
}

/// Checks every simulation run makes on its final state.
pub fn check_sim(ctx: &mut Ctx, spec: &SimSpec, run: &SimRun) {
    let (pe, ke) = api::energies(&run.sim);
    ctx.checks.check(
        "final energies are finite",
        pe.is_finite() && ke.is_finite(),
    );
    if spec.nodes != 0 {
        // Parallel invariance: the single-rank, one-thread twin of this
        // workload must reach the same window state bit for bit.
        let twin = single_rank_twin(spec);
        let mut sim = api::build_sim(api::build_system(&twin.system), &twin);
        api::run_cycles(
            &mut sim,
            twin.warmup_cycles + twin.blocks * twin.cycles_per_block,
        );
        ctx.checks.check(
            "window state FNV equals the single-rank twin's",
            api::state_fnv(&sim) == run.window_fnv,
        );
    }
}

/// Table 4's "total force error": rms(F_engine − F_ref) / rms(F_ref) at the
/// initial configuration, against the conservative double-precision
/// reference; pooled over all atoms when there are several systems.
pub fn force_error(ctx: &mut Ctx, initial: &[(api::System, Vec<api::Vec3>)]) -> f64 {
    let mut engine = Vec::new();
    let mut reference = Vec::new();
    for (system, forces) in initial {
        engine.extend_from_slice(forces);
        reference.extend(api::reference_forces(system));
    }
    let error = api::rms_force_error(&engine, &reference);
    ctx.checks.check(
        "force error is finite and below 1",
        error.is_finite() && error < 1.0,
    );
    error
}

/// The full `anton_analysis` battery on the final state, untimed.
pub fn check_battery(ctx: &mut Ctx, sim: &api::AntonSimulation) {
    let mut verifier = api::verifier_new(sim);
    let violations = api::verifier_sample(&mut verifier, sim);
    ctx.checks.check(
        "analysis battery is clean on the final state",
        violations == 0,
    );
}

/// What the timed rounds of a fleet workload produced.
pub struct FleetRun {
    /// Normalised s per round: `Fleet::create` plus every `submit`.
    pub setup_s: Vec<f64>,
    /// Normalised / raw ms per round of `run_to_completion`.
    pub round_ms: Vec<f64>,
    pub round_ms_raw: Vec<f64>,
    pub slices: u64,
    pub resumes: u64,
    pub peak_rss_mib: f64,
    /// Per-round results, checked against the solo runs afterwards.
    results: Vec<Vec<api::JobResult>>,
}

/// One round: fresh state directory, create, submit all, run to completion.
fn fleet_round(
    ctx: &mut Ctx,
    spec: &FleetSpec,
    workers: usize,
) -> (f64, f64, f64, Vec<api::JobResult>) {
    let dir = ctx.scratch_dir("fleet-round");
    ctx.host.configure(workers, 1);
    let _ = std::fs::remove_dir_all(&dir);
    let r0 = ctx.host.sample();
    let setup = ctx.rec.open("fleet.setup");
    let s = ctx.rec.open("fleet.create");
    let fleet = api::fleet_create(&dir, spec.quantum, workers, spec.keep);
    ctx.rec.close(s);
    for job in &spec.jobs {
        let s = ctx.rec.open("fleet.submit");
        api::fleet_submit(&fleet, job);
        ctx.rec.close(s);
    }
    let r1 = ctx.host.sample();
    let setup_ms = ctx.rec.close_block(setup, scale(r0, r1)) * scale(r0, r1);
    let block = ctx.rec.open("block");
    let s = ctx.rec.open("fleet.run_to_completion");
    api::fleet_run_to_completion(&fleet);
    let raw = ctx.rec.close(s);
    let r2 = ctx.host.sample();
    ctx.rec.close_block(block, scale(r1, r2));
    let results = api::fleet_results(&fleet);
    drop(fleet);
    let _ = std::fs::remove_dir_all(&dir);
    (setup_ms * 1e-3, raw * scale(r1, r2), raw, results)
}

pub fn run_fleet(ctx: &mut Ctx, spec: &FleetSpec, seconds: f64) -> FleetRun {
    let mut run = FleetRun {
        setup_s: Vec::new(),
        round_ms: Vec::new(),
        round_ms_raw: Vec::new(),
        slices: 0,
        resumes: 0,
        peak_rss_mib: 0.0,
        results: Vec::new(),
    };
    let start = Instant::now();
    while run.results.len() < spec.min_rounds || start.elapsed().as_secs_f64() < seconds {
        let (setup_s, ms, raw, results) = fleet_round(ctx, spec, 1);
        run.setup_s.push(setup_s);
        run.round_ms.push(ms);
        run.round_ms_raw.push(raw);
        run.results.push(results);
    }
    let first = &run.results[0];
    run.slices = first.iter().map(|r| r.slices).sum();
    run.resumes = first.iter().map(|r| r.resumes).sum();
    run.peak_rss_mib = peak_rss_mib();
    run
}

/// The same round on two workers; returns its normalised ms.
pub fn fleet_round_two_workers(ctx: &mut Ctx, spec: &FleetSpec) -> f64 {
    fleet_round(ctx, spec, 2).1
}

/// Uninterrupted runs of the same job specs, outside the timed rounds.
pub struct Solo {
    pub checksums: Vec<u64>,
    /// Normalised ms of `run_cycles` alone (the engine build is not in it).
    pub run_ms: Vec<f64>,
    /// Simulated femtoseconds one round of the job set advances.
    pub fs_per_round: f64,
    /// Every job's system with the engine's forces at its initial
    /// configuration (right after the build).
    pub initial: Vec<(api::System, Vec<api::Vec3>)>,
}

pub fn solo_runs(ctx: &mut Ctx, spec: &FleetSpec) -> Solo {
    let mut solo = Solo {
        checksums: Vec::new(),
        run_ms: Vec::new(),
        fs_per_round: 0.0,
        initial: Vec::new(),
    };
    ctx.host.configure(1, 1);
    for job in &spec.jobs {
        let mut sim = api::solo_build(job);
        solo.initial
            .push((sim.system.clone(), api::engine_forces(&sim)));
        let r0 = ctx.host.sample();
        let block = ctx.rec.open("fleet.solo");
        api::run_cycles(&mut sim, job.cycles as usize);
        let r1 = ctx.host.sample();
        solo.run_ms
            .push(ctx.rec.close_block(block, scale(r0, r1)) * scale(r0, r1));
        solo.checksums.push(api::state_fnv(&sim));
        solo.fs_per_round +=
            (job.cycles * api::steps_per_cycle(job)) as f64 * sim.system.params.dt_fs;
    }
    solo
}

/// Every job of every round is done, clean, and bitwise equal to its solo run.
pub fn check_fleet(ctx: &mut Ctx, spec: &FleetSpec, run: &FleetRun, solo: &Solo) {
    for (round, results) in run.results.iter().enumerate() {
        ctx.checks.check(
            &format!("round {round} reports every submitted job"),
            results.len() == spec.jobs.len(),
        );
        for (job, golden) in spec.jobs.iter().zip(&solo.checksums) {
            let ok = results
                .iter()
                .find(|r| r.name == job.name)
                .is_some_and(|r| r.done && r.violations == 0 && r.final_checksum == *golden);
            ctx.checks.check(
                &format!(
                    "round {round} job {} is done, clean and equals its solo run",
                    job.name
                ),
                ok,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Unequal blocks, one spiked sample: the window is the sum of the
    /// per-block medians, whatever the number of instances.
    #[test]
    fn window_sums_per_block_medians_over_instances() {
        let rows = vec![vec![5.0, 3.5], vec![5.2, 3.5], vec![9.0, 3.7]];
        assert_eq!(window_ms(&rows), 5.2 + 3.5);
        assert_eq!(window_ms(&rows[..1]), 8.5);
    }

    #[test]
    fn ns_per_day_of_a_known_block() {
        // 20 steps of 2.5 fs in 300 ms: 50 fs per 0.3 s = 14.4 ns/day.
        assert!((ns_per_day(50.0, 300.0) - 14.4).abs() < 1e-9);
    }
}
