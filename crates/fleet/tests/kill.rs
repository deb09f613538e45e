//! Crash safety of the real daemon process: `fleetd` is SIGKILLed three
//! times at increasing progress, one bit of its newest queue snapshot is
//! flipped before the third restart, and a final restart must still drain
//! every job to its uninterrupted solo checksum with a clean battery, then
//! shut down cleanly.

#![cfg(unix)]

use anton_fleet::{FleetClient, JobPhase, JobSpec};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

/// A mixed corpus: sizes, temperatures, priorities and lengths differ, and
/// one member runs 8 nodes on 2 threads.
fn specs() -> Vec<JobSpec> {
    let spec =
        |name: &str, n_waters, box_edge, temperature_k, cycles, priority: u32, nodes, threads| {
            JobSpec {
                name: name.into(),
                n_waters,
                box_edge,
                placement_seed: 3,
                temperature_k,
                velocity_seed: 17 + u64::from(priority),
                cutoff: 6.5,
                mesh: 16,
                cycles,
                priority,
                nodes,
                threads,
            }
        };
    vec![
        spec("kill-hot", 20, 13.5, 320.0, 6, 2, 0, 1),
        spec("kill-mid", 30, 15.0, 300.0, 8, 1, 0, 1),
        spec("kill-wide", 40, 16.0, 300.0, 5, 0, 8, 2),
    ]
}

fn solo_checksum(spec: &JobSpec) -> u64 {
    let mut sim = spec.builder().unwrap().build();
    sim.run_cycles(spec.cycles as usize);
    sim.state.checksum()
}

/// A running `fleetd`, SIGKILLed if the test fails before it is stopped.
struct Daemon(Child);

impl Daemon {
    /// One slice per cycle and one worker, so every cycle checkpoints the
    /// job and persists the queue.
    fn spawn(socket: &Path, state: &Path) -> Daemon {
        let child = Command::new(env!("CARGO_BIN_EXE_fleetd"))
            .arg("--socket")
            .arg(socket)
            .arg("--state")
            .arg(state)
            .args(["--quantum", "1", "--workers", "1"])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn fleetd");
        Daemon(child)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn connect(socket: &Path) -> FleetClient {
    FleetClient::connect_retry(socket, 400, 10).expect("connect to fleetd")
}

/// Cycles completed over the whole fleet.
fn progress(client: &mut FleetClient) -> u64 {
    client
        .list()
        .expect("list")
        .iter()
        .map(|v| match v.phase {
            JobPhase::Done => v.cycles_total,
            _ => v.cycles_done,
        })
        .sum()
}

/// The newest persisted queue snapshot.
fn newest_queue_snapshot(state: &Path) -> PathBuf {
    let mut snapshots: Vec<PathBuf> = std::fs::read_dir(state.join("queue"))
        .expect("read queue dir")
        .map(|e| e.expect("queue dir entry").path())
        .filter(|p| {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or_default();
            name.starts_with("ckpt-") && name.ends_with(".ant")
        })
        .collect();
    snapshots.sort();
    snapshots.pop().expect("a queue snapshot was persisted")
}

#[test]
fn killed_daemon_restarts_to_the_solo_checksums() {
    let root = std::env::temp_dir().join(format!("anton-fleet-kill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();
    let (socket, state) = (root.join("s"), root.join("state"));
    let specs = specs();
    let goldens: Vec<u64> = specs.iter().map(solo_checksum).collect();
    let total: u64 = specs.iter().map(|s| s.cycles).sum();

    let mut last_seen = 0;
    for (round, threshold) in [2, total / 2, total - 3].into_iter().enumerate() {
        if round == 2 {
            // Damage the newest queue snapshot while the daemon is down: the
            // restart must recover from the previous valid one.
            let path = newest_queue_snapshot(&state);
            let mut bytes = std::fs::read(&path).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x10;
            std::fs::write(&path, &bytes).unwrap();
        }
        let mut daemon = Daemon::spawn(&socket, &state);
        let mut client = connect(&socket);
        let fresh = specs
            .iter()
            .filter(|s| client.submit((*s).clone()).expect("submit").1)
            .count();
        assert_eq!(
            fresh,
            if round == 0 { specs.len() } else { 0 },
            "round {round}"
        );
        assert_eq!(client.ping().expect("ping").0, specs.len() as u64);
        let mut seen = progress(&mut client);
        for _ in 0..20_000 {
            if seen >= threshold {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
            seen = progress(&mut client);
        }
        daemon.0.kill().expect("SIGKILL fleetd");
        let _ = daemon.0.wait();
        assert!(
            seen >= threshold,
            "round {round}: progress {seen} never reached {threshold}"
        );
        assert!(seen >= last_seen, "round {round}: kill points out of order");
        last_seen = seen;
    }

    let mut daemon = Daemon::spawn(&socket, &state);
    let mut client = connect(&socket);
    let views = client
        .wait_until_done(4_000, 25)
        .expect("drain after restarts");
    for (spec, golden) in specs.iter().zip(&goldens) {
        let v = views
            .iter()
            .find(|v| v.id == spec.job_id())
            .unwrap_or_else(|| panic!("{} lost across restarts", spec.name));
        assert_eq!(v.phase, JobPhase::Done, "{}", spec.name);
        assert_eq!(
            v.final_checksum, *golden,
            "{} diverged from solo",
            spec.name
        );
        assert_eq!(v.violations, 0, "{}: battery violations", spec.name);
    }
    client.shutdown().expect("shutdown");
    let status = daemon.0.wait().expect("join fleetd");
    assert!(status.success(), "fleetd exit status {status}");
    let _ = std::fs::remove_dir_all(&root);
}
