//! The fleet client: typed request/response calls over the daemon socket.

#![cfg(unix)]

use crate::error::FleetError;
use crate::queue::JobStatusView;
use crate::spec::{JobId, JobSpec};
use crate::wire::{read_frame, write_frame, FrameKind, Request, Response};
use anton_core::ExchangeCounters;
use std::os::unix::net::UnixStream;
use std::path::Path;

/// One connection to a fleet daemon.
pub struct FleetClient {
    stream: UnixStream,
}

impl FleetClient {
    /// Connect to a daemon socket.
    // Audited socket I/O edge: connection setup only; all payloads cross through the checksummed wire codec.
    pub fn connect(socket: impl AsRef<Path>) -> Result<FleetClient, FleetError> {
        Ok(FleetClient {
            stream: UnixStream::connect(socket)?,
        })
    }

    /// Connect with retries: `attempts × delay_ms` of patience while a
    /// just-spawned daemon binds its socket. Retry count is bounded and
    /// explicit — never wall-clock-dependent.
    pub fn connect_retry(
        socket: impl AsRef<Path>,
        attempts: u32,
        delay_ms: u64,
    ) -> Result<FleetClient, FleetError> {
        let socket = socket.as_ref();
        let mut last = None;
        for _ in 0..attempts.max(1) {
            match FleetClient::connect(socket) {
                Ok(c) => return Ok(c),
                Err(e) => last = Some(e),
            }
            std::thread::sleep(std::time::Duration::from_millis(delay_ms));
        }
        Err(last.unwrap_or(FleetError::UnexpectedResponse {
            wanted: "connection",
            got: "nothing",
        }))
    }

    /// One request/response exchange. Remote error responses surface as
    /// [`FleetError::Remote`].
    pub fn request(&mut self, req: &Request) -> Result<Response, FleetError> {
        write_frame(&mut self.stream, FrameKind::Request, &req.encode())?;
        let (kind, payload) = read_frame(&mut self.stream)?;
        if kind != FrameKind::Response {
            return Err(FleetError::UnexpectedResponse {
                wanted: "response frame",
                got: "request frame",
            });
        }
        match Response::decode(&payload)? {
            Response::Error { kind, message } => Err(FleetError::Remote { kind, message }),
            resp => Ok(resp),
        }
    }

    /// Liveness probe: (jobs known, queue revision).
    pub fn ping(&mut self) -> Result<(u64, u64), FleetError> {
        match self.request(&Request::Ping)? {
            Response::Pong { jobs, revision } => Ok((jobs, revision)),
            other => unexpected("pong", &other),
        }
    }

    /// Submit a job; idempotent. Returns (id, freshly inserted, position).
    pub fn submit(&mut self, spec: JobSpec) -> Result<(JobId, bool, u64), FleetError> {
        match self.request(&Request::Submit(spec))? {
            Response::Submitted {
                id,
                fresh,
                position,
            } => Ok((id, fresh, position)),
            other => unexpected("submitted", &other),
        }
    }

    pub fn status(&mut self, id: JobId) -> Result<JobStatusView, FleetError> {
        match self.request(&Request::Status(id))? {
            Response::Status(view) => Ok(view),
            other => unexpected("status", &other),
        }
    }

    /// Every job, in deterministic schedule order.
    pub fn list(&mut self) -> Result<Vec<JobStatusView>, FleetError> {
        match self.request(&Request::List)? {
            Response::Jobs(views) => Ok(views),
            other => unexpected("jobs", &other),
        }
    }

    /// A job's status and its census ([`crate::Fleet::summary`]).
    pub fn summary(&mut self, id: JobId) -> Result<(JobStatusView, ExchangeCounters), FleetError> {
        match self.request(&Request::Summary(id))? {
            Response::Summary { status, counters } => Ok((status, counters)),
            other => unexpected("summary", &other),
        }
    }

    /// Ask the daemon to stop once current slices finish.
    pub fn shutdown(&mut self) -> Result<(), FleetError> {
        match self.request(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => unexpected("shutting_down", &other),
        }
    }

    /// Poll `list` until every job is done or `max_polls` is exhausted.
    /// Returns the final listing. Polling cadence is slice-progress bound,
    /// not wall-clock bound: the bound is an explicit attempt count.
    pub fn wait_until_done(
        &mut self,
        max_polls: u64,
        delay_ms: u64,
    ) -> Result<Vec<JobStatusView>, FleetError> {
        let mut views = self.list()?;
        for _ in 0..max_polls {
            if !views.is_empty()
                && views
                    .iter()
                    .all(|v| v.phase == crate::queue::JobPhase::Done)
            {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(delay_ms));
            views = self.list()?;
        }
        Ok(views)
    }
}

fn unexpected<T>(wanted: &'static str, got: &Response) -> Result<T, FleetError> {
    Err(FleetError::UnexpectedResponse {
        wanted,
        got: got.name(),
    })
}
