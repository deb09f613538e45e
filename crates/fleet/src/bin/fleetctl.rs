//! `fleetctl` — the anton-fleet command-line client.
//!
//! ```text
//! fleetctl --socket PATH ping
//! fleetctl --socket PATH submit NAME WATERS BOX SEED TEMP VSEED CUTOFF MESH CYCLES [PRIORITY]
//! fleetctl --socket PATH status JOBID
//! fleetctl --socket PATH list
//! fleetctl --socket PATH summary JOBID
//! fleetctl --socket PATH shutdown
//! ```

fn main() {
    std::process::exit(run(std::env::args().skip(1).collect()));
}

#[cfg(unix)]
fn run(args: Vec<String>) -> i32 {
    use anton_fleet::{FleetClient, JobId};

    let mut socket = None;
    let mut rest = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--socket" => socket = it.next(),
            "--help" | "-h" => {
                usage();
                return 0;
            }
            _ => rest.push(arg),
        }
    }
    let Some(socket) = socket else {
        eprintln!("fleetctl: --socket is required");
        return 2;
    };
    let Some(verb) = rest.first().cloned() else {
        usage();
        return 2;
    };

    let mut client = match FleetClient::connect(&socket) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("fleetctl: connect {socket}: {e}");
            return 1;
        }
    };

    let outcome = match verb.as_str() {
        "ping" => client.ping().map(|(jobs, revision)| {
            println!("pong: {jobs} jobs, queue revision {revision}");
        }),
        "submit" => {
            let Some(spec) = submit_spec(&rest) else {
                usage();
                return 2;
            };
            client.submit(spec).map(|(id, fresh, position)| {
                let tag = if fresh { "submitted" } else { "already queued" };
                println!("{tag}: job {id} at schedule position {position}");
            })
        }
        "status" | "summary" => {
            let Some(id) = rest.get(1).and_then(|s| JobId::parse(s)) else {
                eprintln!("fleetctl: {verb} needs a 16-hex-digit job id");
                return 2;
            };
            if verb == "status" {
                client.status(id).map(|v| print_view(&v))
            } else {
                client.summary(id).map(|(v, counters)| {
                    print_view(&v);
                    println!("{counters:#?}");
                })
            }
        }
        "list" => client.list().map(|views| {
            for v in &views {
                print_view(v);
            }
            if views.is_empty() {
                println!("no jobs");
            }
        }),
        "shutdown" => client.shutdown().map(|()| {
            println!("daemon shutting down");
        }),
        other => {
            eprintln!("fleetctl: unknown verb {other}");
            usage();
            return 2;
        }
    };
    match outcome {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("fleetctl: {e}");
            1
        }
    }
}

/// The spec of `submit NAME WATERS BOX SEED TEMP VSEED CUTOFF MESH CYCLES
/// [PRIORITY]`, or `None` when an argument is missing, extra, not a number
/// or out of its field's range.
#[cfg(unix)]
fn submit_spec(rest: &[String]) -> Option<anton_fleet::JobSpec> {
    fn arg<T: std::str::FromStr>(rest: &[String], i: usize) -> Option<T> {
        rest.get(i)?.parse().ok()
    }
    if !(10..=11).contains(&rest.len()) {
        return None;
    }
    Some(anton_fleet::JobSpec {
        name: rest[1].clone(),
        n_waters: arg(rest, 2)?,
        box_edge: arg(rest, 3)?,
        placement_seed: arg(rest, 4)?,
        temperature_k: arg(rest, 5)?,
        velocity_seed: arg(rest, 6)?,
        cutoff: arg(rest, 7)?,
        mesh: arg(rest, 8)?,
        cycles: arg(rest, 9)?,
        priority: if rest.len() == 11 { arg(rest, 10)? } else { 0 },
        nodes: 0,
        threads: 1,
    })
}

#[cfg(unix)]
fn print_view(v: &anton_fleet::JobStatusView) {
    println!(
        "{} {:<20} {:<8} prio {} cycles {}/{} preempt {} resume {} ckpt {}B checksum {:016x} violations {}",
        v.id,
        v.name,
        v.phase.name(),
        v.priority,
        v.cycles_done,
        v.cycles_total,
        v.preemptions,
        v.resumes,
        v.ckpt_bytes,
        v.final_checksum,
        v.violations
    );
}

#[cfg(unix)]
fn usage() {
    println!(
        "usage: fleetctl --socket PATH <verb>\n\
         verbs:\n\
           ping\n\
           submit NAME WATERS BOX SEED TEMP VSEED CUTOFF MESH CYCLES [PRIORITY]\n\
           status JOBID\n\
           list\n\
           summary JOBID\n\
           shutdown"
    );
}

#[cfg(not(unix))]
fn run(_args: Vec<String>) -> i32 {
    eprintln!("fleetctl: unix domain sockets are unavailable on this platform");
    2
}
