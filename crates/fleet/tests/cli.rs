//! `fleetd`'s argument checks: a refused configuration exits 2 before the
//! daemon binds its socket or starts a worker.

#![cfg(unix)]

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

#[test]
fn fleetd_refuses_workers_above_the_cap() {
    let root = std::env::temp_dir().join(format!("anton-fleet-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let socket = root.join("s");
    let mut child = Command::new(env!("CARGO_BIN_EXE_fleetd"))
        .arg("--socket")
        .arg(&socket)
        .arg("--state")
        .arg(root.join("state"))
        .args(["--workers", "65"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn fleetd");
    // A daemon that accepted the count would serve until shut down: give
    // it a bounded wait, then kill it so the test fails instead of hanging.
    let deadline = Instant::now() + Duration::from_secs(20);
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break Some(status);
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            break None;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let stderr = std::io::read_to_string(child.stderr.take().unwrap()).unwrap();
    let _ = std::fs::remove_dir_all(&root);
    let status = status.expect("fleetd accepted 65 workers and kept serving");
    assert_eq!(status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("workers 65 above the cap of 64"),
        "stderr: {stderr}"
    );
    assert!(!socket.exists(), "refused daemon bound its socket");
}
