//! The fleet daemon: a Unix-domain-socket front end over a [`Fleet`].
//!
//! One accept loop (connections served sequentially — the protocol is
//! strict request/response and every handler is a short queue operation)
//! plus `workers` slice threads in [`RunMode::Serve`]. All threads share
//! the fleet by reference inside one `std::thread::scope`, so shutdown is
//! a plain join: a `Shutdown` request sets the stop flag, wakes the
//! workers, and the scope ends when the accept loop breaks.
//!
//! The socket is pure I/O edge: every byte that crosses it is inside a
//! checksummed frame ([`crate::wire`]), and nothing host-dependent flows
//! inward past the decoder — requests are data, and the scheduler they
//! drive is deterministic by construction.

#![cfg(unix)]

use crate::error::FleetError;
use crate::scheduler::{Fleet, FleetConfig, RunMode};
use crate::wire::{read_frame, write_frame, FrameKind, Request, Response};
use std::io::ErrorKind;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;

/// Everything a daemon needs to start.
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// Unix socket path (kept short: the kernel caps it near 108 bytes).
    pub socket: PathBuf,
    pub fleet: FleetConfig,
}

/// Run a daemon until a `Shutdown` request arrives. Binds the socket,
/// recovers fleet state from `fleet.state_dir`, and serves.
// Audited socket I/O edge: accept order only decides which checksummed request is answered first; job trajectories and queue contents are schedule-invariant.
pub fn serve(cfg: &DaemonConfig) -> Result<(), FleetError> {
    let fleet = Fleet::create(cfg.fleet.clone())?;
    // A previous daemon that was killed leaves its socket file behind;
    // binding requires the name to be free. Stale-socket removal is safe
    // because the drill/ops contract is one daemon per state dir.
    match std::fs::remove_file(&cfg.socket) {
        Ok(()) => {}
        Err(e) if e.kind() == ErrorKind::NotFound => {}
        Err(e) => return Err(e.into()),
    }
    if let Some(parent) = cfg.socket.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let listener = UnixListener::bind(&cfg.socket)?;

    std::thread::scope(|s| {
        for _ in 0..cfg.fleet.workers.max(1) {
            s.spawn(|| fleet.worker_loop(RunMode::Serve));
        }
        for conn in listener.incoming() {
            let mut stream = match conn {
                Ok(c) => c,
                Err(_) => continue,
            };
            let shutdown = handle_connection(&fleet, &mut stream);
            if shutdown {
                fleet.stop();
                break;
            }
        }
    });
    let _ = std::fs::remove_file(&cfg.socket);
    Ok(())
}

/// Serve one connection: frames until EOF. Returns true when the peer
/// asked the daemon to shut down.
// Audited socket I/O edge: request bytes are checksum-verified by the wire codec before use; responses are pure functions of queue state.
fn handle_connection(fleet: &Fleet, stream: &mut UnixStream) -> bool {
    loop {
        let payload = match read_frame(stream) {
            Ok((FrameKind::Request, payload)) => payload,
            Ok((FrameKind::Response, _)) => {
                // A peer that sends us responses is confused; drop it.
                return false;
            }
            Err(FleetError::Io(e)) if e.kind() == ErrorKind::UnexpectedEof => return false,
            Err(_) => return false,
        };
        let (resp, shutdown) = match Request::decode(&payload) {
            Ok(req) => answer(fleet, req),
            Err(e) => (error_response(&e), false),
        };
        if write_frame(stream, FrameKind::Response, &resp.encode()).is_err() {
            return shutdown;
        }
        if shutdown {
            return true;
        }
    }
}

/// Map one decoded request to its response. Pure queue-state plumbing.
fn answer(fleet: &Fleet, req: Request) -> (Response, bool) {
    match req {
        Request::Ping => {
            let (jobs, revision) = fleet.ping();
            (Response::Pong { jobs, revision }, false)
        }
        Request::Submit(spec) => match fleet.submit(spec) {
            Ok((id, fresh, position)) => (
                Response::Submitted {
                    id,
                    fresh,
                    position,
                },
                false,
            ),
            Err(e) => (error_response(&e), false),
        },
        Request::Status(id) => match fleet.status(id) {
            Ok(view) => (Response::Status(view), false),
            Err(e) => (error_response(&e), false),
        },
        Request::List => (Response::Jobs(fleet.list()), false),
        Request::Summary(id) => match fleet.summary(id) {
            Ok((status, phases)) => (Response::Summary { status, phases }, false),
            Err(e) => (error_response(&e), false),
        },
        Request::Shutdown => (Response::ShuttingDown, true),
    }
}

fn error_response(e: &FleetError) -> Response {
    Response::Error {
        kind: e.kind().to_string(),
        message: e.to_string(),
    }
}
