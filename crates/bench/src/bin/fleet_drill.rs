//! Crash drill for the `anton-fleet` subsystem: run a mixed waterbox
//! fleet under checkpoint-preemptive scheduling, kill the daemon with
//! SIGKILL at several distinct progress points (plus one deliberate
//! corruption of the newest persisted queue snapshot), restart it each
//! time, and prove that every job still finishes bitwise identical to an
//! uninterrupted solo run with a clean analysis battery.
//!
//! `cargo run --release -p anton-bench --bin fleet_drill`
//!
//! Two outputs:
//! - `results/TABLE_fleet.csv` — the *canonical pass* census (one fixed
//!   quantum/worker shape, run in-process): per-job preemptions, resumes,
//!   checkpoint bytes, job ids and final checksums. Deterministic
//!   byte-for-byte; checked in and diffed by CI.
//! - `results/FLEET_report.json` — pass/fail legs of the whole drill,
//!   including the kill rounds (whose exact kill cycles are timing-
//!   dependent); gitignored, uploaded as a CI artifact.
//!
//! The drill exits nonzero if any leg fails.

use anton_bench::artifacts::fleet_table;
use anton_bench::report::Report;
use anton_bench::write_artifact;
use anton_fleet::{Fleet, FleetConfig, JobPhase, JobSpec, JobStatusView};
use anton_trace::Phase;
use std::path::PathBuf;

/// The canonical pass shape pinned by `results/TABLE_fleet.csv`.
const CANONICAL_QUANTUM: u64 = 3;
const CANONICAL_WORKERS: usize = 1;

/// The mixed fleet: sizes, temperatures, priorities, and lengths all
/// differ, including one multi-rank multi-thread member.
fn fleet_specs() -> Vec<JobSpec> {
    let spec = |name: &str,
                n_waters: u32,
                box_edge: f64,
                temperature_k: f64,
                cycles: u64,
                priority: u32,
                nodes: u32,
                threads: u32| JobSpec {
        name: name.into(),
        n_waters,
        box_edge,
        placement_seed: 3,
        temperature_k,
        velocity_seed: 7 + priority as u64,
        cutoff: 6.5,
        mesh: 16,
        cycles,
        priority,
        nodes,
        threads,
    };
    vec![
        spec("drill-hot-small", 20, 13.5, 320.0, 6, 3, 0, 1),
        spec("drill-mid", 30, 15.0, 300.0, 8, 2, 0, 1),
        spec("drill-wide", 40, 16.0, 300.0, 5, 1, 8, 2),
        spec("drill-cool", 24, 14.0, 285.0, 7, 0, 0, 1),
    ]
}

/// Uninterrupted solo run of one spec: the golden trajectory identity.
fn solo_checksum(spec: &JobSpec) -> u64 {
    let mut sim = spec.builder().expect("drill spec must build").build();
    sim.run_cycles(spec.cycles as usize);
    sim.state.checksum()
}

fn fresh_dir(name: &str) -> PathBuf {
    anton_bench::report::fresh_dir("fleet_drill", name).expect("create drill scratch directory")
}

/// Check a drained fleet's views against the goldens; returns a detail
/// string and overall pass.
fn check_against_golden(
    views: &[JobStatusView],
    specs: &[JobSpec],
    goldens: &[u64],
) -> (bool, String) {
    let mut bad = Vec::new();
    for (spec, golden) in specs.iter().zip(goldens) {
        let Some(v) = views.iter().find(|v| v.id == spec.job_id()) else {
            bad.push(format!("{}: missing", spec.name));
            continue;
        };
        if v.phase != JobPhase::Done {
            bad.push(format!("{}: phase {}", spec.name, v.phase.name()));
        } else if v.final_checksum != *golden {
            bad.push(format!(
                "{}: checksum {:016x} want {golden:016x}",
                spec.name, v.final_checksum
            ));
        } else if v.violations != 0 {
            bad.push(format!(
                "{}: {} battery violations",
                spec.name, v.violations
            ));
        }
    }
    if bad.is_empty() {
        (
            true,
            format!(
                "{} jobs bitwise-identical to solo, batteries clean",
                specs.len()
            ),
        )
    } else {
        (false, bad.join("; "))
    }
}

/// The canonical in-process pass: fixed quantum/workers, deterministic
/// census written to `results/TABLE_fleet.csv`.
fn canonical_pass(report: &mut Report, specs: &[JobSpec], goldens: &[u64]) {
    let mut cfg = FleetConfig::new(fresh_dir("canonical"));
    cfg.quantum = CANONICAL_QUANTUM;
    cfg.workers = CANONICAL_WORKERS;
    let fleet = Fleet::create(cfg).expect("create canonical fleet");
    for s in specs {
        let (_, fresh, _) = fleet.submit(s.clone()).expect("submit");
        assert!(fresh, "duplicate spec in drill corpus");
    }
    // Idempotent resubmit: identical specs are the same job.
    let dups_fresh = specs
        .iter()
        .filter(|s| fleet.submit((*s).clone()).expect("resubmit").1)
        .count();
    report.record(
        "idempotent_resubmit",
        dups_fresh == 0,
        format!(
            "{dups_fresh} of {} resubmits created new jobs (want 0)",
            specs.len()
        ),
    );

    fleet.run_to_completion();
    let views = fleet.list();
    let (ok, detail) = check_against_golden(&views, specs, goldens);
    report.record("canonical_pass_vs_golden", ok, detail);

    // Slice counters must match the closed form: ceil(cycles/quantum)-1.
    let counter_bad: Vec<String> = views
        .iter()
        .filter_map(|v| {
            let want = v.cycles_total.div_ceil(CANONICAL_QUANTUM) - 1;
            (v.preemptions != want || v.resumes != want).then(|| {
                format!(
                    "{}: preempt {} resume {} want {want}",
                    v.name, v.preemptions, v.resumes
                )
            })
        })
        .collect();
    report.record(
        "canonical_slice_counters",
        counter_bad.is_empty(),
        if counter_bad.is_empty() {
            "preemptions and resumes match ceil(cycles/quantum)-1".into()
        } else {
            counter_bad.join("; ")
        },
    );

    // One worker reclaims a preempted job at once, so every continuation
    // runs on the resident engine: the fresh build's is the only force
    // refresh outside a cycle, and a job's reciprocal spans are cycles + 1.
    let refresh_bad: Vec<String> = specs
        .iter()
        .filter_map(|s| {
            let (_, phases) = fleet.summary(s.job_id()).expect("summary");
            let reciprocal = phases
                .iter()
                .find(|t| t.phase == Phase::Reciprocal.index() as u32)
                .map_or(0, |t| t.spans);
            (reciprocal != s.cycles + 1).then(|| {
                format!(
                    "{}: {reciprocal} reciprocal spans, want {}",
                    s.name,
                    s.cycles + 1
                )
            })
        })
        .collect();
    report.record(
        "canonical_one_force_refresh_per_job",
        refresh_bad.is_empty(),
        if refresh_bad.is_empty() {
            "reciprocal spans = cycles + 1: continuations ran on the resident engine".into()
        } else {
            refresh_bad.join("; ")
        },
    );

    let table = fleet_table(CANONICAL_QUANTUM, &views, specs);
    let written = write_artifact("TABLE_fleet.csv", &table.render_csv());
    report.record(
        "canonical_census_written",
        written.is_ok(),
        written.map_or_else(|e| e, |()| "results/TABLE_fleet.csv".into()),
    );
}

/// The preemption-invariance matrix: quantum {1,3,7} x workers {1,4},
/// each cell an in-process drain compared bitwise against the goldens.
fn invariance_matrix(report: &mut Report, specs: &[JobSpec], goldens: &[u64]) {
    for &quantum in &[1u64, 3, 7] {
        for &workers in &[1usize, 4] {
            let mut cfg = FleetConfig::new(fresh_dir(&format!("matrix-q{quantum}-w{workers}")));
            cfg.quantum = quantum;
            cfg.workers = workers;
            let fleet = Fleet::create(cfg).expect("create matrix fleet");
            for s in specs {
                fleet.submit(s.clone()).expect("submit");
            }
            fleet.run_to_completion();
            let (ok, detail) = check_against_golden(&fleet.list(), specs, goldens);
            report.record(&format!("matrix_q{quantum}_w{workers}"), ok, detail);
        }
    }
}

/// The kill -9 drill (Unix only: it spawns a real daemon process).
#[cfg(unix)]
mod killdrill {
    use super::{check_against_golden, fresh_dir, Report};
    use anton_fleet::{FleetClient, JobPhase, JobSpec};
    use std::path::{Path, PathBuf};
    use std::process::{Child, Command, Stdio};

    const QUANTUM: u64 = 1;
    const WORKERS: usize = 1;

    /// Serve a daemon in this process (the `--daemon` self-respawn mode).
    pub fn serve_daemon(socket: &str, state: &str) -> i32 {
        let mut fleet = anton_fleet::FleetConfig::new(state);
        fleet.quantum = QUANTUM;
        fleet.workers = WORKERS;
        let cfg = anton_fleet::DaemonConfig {
            socket: PathBuf::from(socket),
            fleet,
        };
        match anton_fleet::daemon::serve(&cfg) {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("fleet_drill daemon: {e}");
                1
            }
        }
    }

    fn spawn_daemon(socket: &Path, state: &Path) -> Child {
        Command::new(std::env::current_exe().expect("current_exe"))
            .arg("--daemon")
            .arg(socket)
            .arg(state)
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn fleet_drill --daemon")
    }

    fn connect(socket: &Path) -> FleetClient {
        FleetClient::connect_retry(socket, 400, 10).expect("connect to drill daemon")
    }

    /// Submit the whole corpus; returns how many submissions were fresh.
    fn submit_all(client: &mut FleetClient, specs: &[JobSpec]) -> usize {
        specs
            .iter()
            .filter(|s| client.submit((*s).clone()).expect("submit").1)
            .count()
    }

    fn total_progress(client: &mut FleetClient) -> u64 {
        client
            .list()
            .expect("list")
            .iter()
            .map(|v| {
                if v.phase == JobPhase::Done {
                    v.cycles_total
                } else {
                    v.cycles_done
                }
            })
            .sum()
    }

    /// Poll until the fleet's total completed-cycle count reaches
    /// `threshold` (or everything finishes), then SIGKILL the daemon.
    fn kill_at_progress(mut child: Child, client: &mut FleetClient, threshold: u64) -> u64 {
        let mut seen = 0u64;
        for _ in 0..20_000u32 {
            seen = total_progress(client);
            if seen >= threshold {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        child.kill().expect("SIGKILL daemon");
        let _ = child.wait();
        seen
    }

    /// Flip one bit in the newest persisted queue snapshot: the next
    /// daemon start must fall back to the previous valid snapshot.
    fn corrupt_newest_queue_snapshot(state: &Path) -> Result<String, String> {
        let qdir = state.join("queue");
        let mut newest: Option<(String, PathBuf)> = None;
        for entry in std::fs::read_dir(&qdir).map_err(|e| e.to_string())? {
            let entry = entry.map_err(|e| e.to_string())?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.starts_with("ckpt-")
                && name.ends_with(".ant")
                && newest.as_ref().map(|(n, _)| &name > n).unwrap_or(true)
            {
                newest = Some((name, entry.path()));
            }
        }
        let (name, path) = newest.ok_or("no queue snapshot found")?;
        let mut bytes = std::fs::read(&path).map_err(|e| e.to_string())?;
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).map_err(|e| e.to_string())?;
        Ok(name)
    }

    /// The drill proper: >= 3 SIGKILLs at increasing progress thresholds
    /// (one preceded by queue-snapshot corruption), a restart after each,
    /// and a final drain checked bitwise against the goldens.
    pub fn run(report: &mut Report, specs: &[JobSpec], goldens: &[u64]) {
        let root = fresh_dir("daemon");
        let socket = root.join("s");
        let state = root.join("state");
        let total: u64 = specs.iter().map(|s| s.cycles).sum();
        // Three strictly increasing kill thresholds: early, middle, late.
        let thresholds = [2u64, total / 2, total.saturating_sub(3)];

        let mut progress_at_kill = Vec::new();
        for (round, &threshold) in thresholds.iter().enumerate() {
            if round == 2 {
                // Corrupt the newest queue snapshot while the daemon is
                // down; the restart below must recover from the previous
                // valid one (and the job checkpoint stores self-heal any
                // staleness that introduces).
                match corrupt_newest_queue_snapshot(&state) {
                    Ok(name) => report.record(
                        "queue_snapshot_corruption_injected",
                        true,
                        format!("flipped one bit in {name} before restart"),
                    ),
                    Err(e) => report.record("queue_snapshot_corruption_injected", false, e),
                }
            }
            let child = spawn_daemon(&socket, &state);
            let mut client = connect(&socket);
            let fresh = submit_all(&mut client, specs);
            if round == 0 {
                report.record(
                    "kill_round_0_submit",
                    fresh == specs.len(),
                    format!(
                        "{fresh} of {} submissions fresh on first round",
                        specs.len()
                    ),
                );
            }
            let known = client.ping().expect("ping").0;
            let seen = kill_at_progress(child, &mut client, threshold);
            progress_at_kill.push(seen);
            report.record(
                &format!("kill_round_{round}"),
                known == specs.len() as u64,
                format!(
                    "daemon knew {known} jobs; SIGKILL at total progress {seen}/{total} \
                     (threshold {threshold})"
                ),
            );
        }
        report.record(
            "kill_points_distinct",
            progress_at_kill.windows(2).all(|w| w[0] <= w[1]),
            format!("kill progress sequence {progress_at_kill:?}"),
        );

        // Final restart: recover, resubmit (idempotent), drain, verify.
        let child = spawn_daemon(&socket, &state);
        let mut client = connect(&socket);
        submit_all(&mut client, specs);
        let views = client
            .wait_until_done(4_000, 25)
            .expect("wait for drill fleet");
        let (ok, detail) = check_against_golden(&views, specs, goldens);
        report.record("final_fleet_vs_golden_after_kills", ok, detail);
        client.shutdown().expect("shutdown drill daemon");
        let mut child = child;
        let status = child.wait().expect("join daemon");
        report.record(
            "daemon_clean_shutdown",
            status.success(),
            format!("daemon exit status {status}"),
        );
    }
}

fn main() {
    // Self-respawn mode: `fleet_drill --daemon <socket> <state>` serves a
    // daemon in this process (the parent SIGKILLs it mid-flight).
    #[cfg(unix)]
    {
        let args: Vec<String> = std::env::args().collect();
        if args.len() == 4 && args[1] == "--daemon" {
            std::process::exit(killdrill::serve_daemon(&args[2], &args[3]));
        }
    }

    let specs = fleet_specs();
    let total: u64 = specs.iter().map(|s| s.cycles).sum();
    println!(
        "fleet drill: {} jobs, {} total cycles, canonical quantum {CANONICAL_QUANTUM}",
        specs.len(),
        total
    );

    let mut report = Report::new("fleet-report/v1");

    let goldens: Vec<u64> = specs.iter().map(solo_checksum).collect();
    for (s, g) in specs.iter().zip(&goldens) {
        println!("  golden {}: {g:016x}", s.name);
    }

    canonical_pass(&mut report, &specs, &goldens);
    invariance_matrix(&mut report, &specs, &goldens);
    #[cfg(unix)]
    killdrill::run(&mut report, &specs, &goldens);
    #[cfg(not(unix))]
    report.record(
        "kill_drill_skipped",
        true,
        "unix sockets unavailable on this platform".into(),
    );

    if let Err(e) = write_artifact("FLEET_report.json", &report.render(&[])) {
        eprintln!("fleet drill: {e}");
        std::process::exit(1);
    }
    if !report.passed() {
        eprintln!("fleet drill FAILED");
        std::process::exit(1);
    }
    let _ = std::fs::remove_dir_all(anton_bench::report::scratch_root("fleet_drill"));
    println!(
        "fleet drill passed: every schedule, restart, and corruption path \
         reached the solo-run checksums"
    );
}
