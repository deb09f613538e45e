//! `fleetd` — the anton-fleet daemon.
//!
//! ```text
//! fleetd --socket PATH --state DIR [--quantum N] [--workers N] [--keep N]
//! ```
//!
//! Binds the Unix socket, recovers any persisted queue state from the
//! state directory, and serves until a `shutdown` request arrives.

fn main() {
    std::process::exit(run(std::env::args().skip(1).collect()));
}

#[cfg(unix)]
fn run(args: Vec<String>) -> i32 {
    use anton_fleet::{daemon, DaemonConfig, FleetConfig};

    let mut socket = None;
    let mut state = None;
    let mut quantum = 4u64;
    let mut workers = 1usize;
    let mut keep = 3usize;

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| fail(&format!("{name} requires a value")))
        };
        match arg.as_str() {
            "--socket" => socket = Some(value("--socket")),
            "--state" => state = Some(value("--state")),
            "--quantum" => quantum = parse(&value("--quantum")),
            "--workers" => workers = parse(&value("--workers")),
            "--keep" => keep = parse(&value("--keep")),
            "--help" | "-h" => {
                println!(
                    "usage: fleetd --socket PATH --state DIR [--quantum N] [--workers N] [--keep N]"
                );
                return 0;
            }
            other => fail(&format!("unknown argument {other}")),
        }
    }
    let Some(socket) = socket else {
        fail("--socket is required")
    };
    let Some(state) = state else {
        fail("--state is required")
    };

    let mut fleet = FleetConfig::new(state);
    fleet.quantum = quantum.max(1);
    fleet.workers = workers.max(1);
    fleet.keep = keep.max(1);
    if let Err(e) = fleet.validate() {
        fail(&e.to_string());
    }
    let cfg = DaemonConfig {
        socket: socket.into(),
        fleet,
    };
    eprintln!(
        "fleetd: serving on {} (state {}, quantum {}, workers {})",
        cfg.socket.display(),
        cfg.fleet.state_dir.display(),
        cfg.fleet.quantum,
        cfg.fleet.workers
    );
    match daemon::serve(&cfg) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("fleetd: {e}");
            1
        }
    }
}

#[cfg(unix)]
fn parse<T: std::str::FromStr>(s: &str) -> T {
    s.parse()
        .unwrap_or_else(|_| fail(&format!("bad numeric value {s}")))
}

#[cfg(unix)]
fn fail(msg: &str) -> ! {
    eprintln!("fleetd: {msg}");
    std::process::exit(2);
}

#[cfg(not(unix))]
fn run(_args: Vec<String>) -> i32 {
    eprintln!("fleetd: unix domain sockets are unavailable on this platform");
    2
}
