//! End-to-end daemon/client exercise over a real Unix socket: submit,
//! idempotent resubmit, poll to completion, summaries, error relay, and
//! clean shutdown — all in-process (the kill -9 variants live in the
//! `fleet_drill` bench, which needs real processes).

#![cfg(unix)]

use anton_fleet::daemon::{serve, DaemonConfig};
use anton_fleet::{FleetClient, FleetConfig, JobId, JobPhase, JobSpec};

fn spec(name: &str, cycles: u64, priority: u32) -> JobSpec {
    JobSpec {
        name: name.into(),
        n_waters: 20,
        box_edge: 13.5,
        placement_seed: 6,
        temperature_k: 295.0,
        velocity_seed: 13,
        cutoff: 6.0,
        mesh: 16,
        cycles,
        priority,
        nodes: 0,
        threads: 1,
    }
}

#[test]
fn daemon_serves_a_fleet_end_to_end() {
    let root = std::env::temp_dir().join(format!("anton-fleet-sock-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();
    let cfg = DaemonConfig {
        socket: root.join("s"),
        fleet: {
            let mut f = FleetConfig::new(root.join("state"));
            f.quantum = 2;
            f.workers = 2;
            f
        },
    };

    let daemon_cfg = cfg.clone();
    let daemon = std::thread::spawn(move || serve(&daemon_cfg));

    let mut client = FleetClient::connect_retry(&cfg.socket, 100, 20).unwrap();
    let (jobs, _) = client.ping().unwrap();
    assert_eq!(jobs, 0);

    // Unknown ids and invalid specs surface as typed remote errors.
    let err = client.status(JobId(0xdead)).unwrap_err();
    assert_eq!(err.kind(), "remote");
    let mut bad = spec("bad", 1, 0);
    bad.cutoff = 9.0; // minimum image violation for this box
    assert_eq!(client.submit(bad).unwrap_err().kind(), "remote");

    // Submit two jobs; resubmitting the identical spec is a no-op.
    let a = spec("sock-a", 3, 2);
    let b = spec("sock-b", 2, 1);
    let (id_a, fresh_a, _) = client.submit(a.clone()).unwrap();
    let (id_b, fresh_b, _) = client.submit(b.clone()).unwrap();
    assert!(fresh_a && fresh_b);
    let (id_dup, fresh_dup, _) = client.submit(a.clone()).unwrap();
    assert_eq!(id_dup, id_a);
    assert!(!fresh_dup);
    assert_eq!(id_a, a.job_id(), "daemon agrees on the content id");

    // The listing is in deterministic schedule order: priority 2 first.
    let views = client.list().unwrap();
    assert_eq!(views.len(), 2);
    assert_eq!(views[0].id, id_a);
    assert_eq!(views[1].id, id_b);

    let views = client.wait_until_done(600, 25).unwrap();
    assert!(
        views.iter().all(|v| v.phase == JobPhase::Done),
        "jobs still unfinished: {views:?}"
    );

    // Completed jobs report solo-identical checksums and clean batteries.
    for (s, id) in [(&a, id_a), (&b, id_b)] {
        let mut sim = s.builder().unwrap().build();
        sim.run_cycles(s.cycles as usize);
        let golden = sim.state.checksum();
        let (view, phases) = client.summary(id).unwrap();
        assert_eq!(view.final_checksum, golden, "{}", s.name);
        assert_eq!(view.violations, 0, "{}", s.name);
        assert!(view.battery_samples > 0, "{}", s.name);
        // The per-phase trace totals accumulated across slices: the step
        // phase must have recorded every step of every slice.
        let steps: u64 = phases
            .iter()
            .filter(|p| p.phase == 0)
            .map(|p| p.spans)
            .sum();
        assert!(steps > 0, "{}: no step spans accumulated", s.name);
    }

    client.shutdown().unwrap();
    daemon.join().unwrap().unwrap();
    assert!(!cfg.socket.exists(), "socket removed on shutdown");
    let _ = std::fs::remove_dir_all(&root);
}
