//! # anton-fleet — a deterministic multi-job simulation service
//!
//! A daemon/client pair that runs *fleets* of simulations — ensembles of
//! independent waterbox jobs, the workload shape of the massive-sampling
//! protocols built on Anton-class machines — by time-slicing them over a
//! small worker pool with **checkpoint preemption**: a job runs for a
//! quantum of outer cycles, checkpoints, and yields. Because engine
//! resume is bitwise exact (DESIGN.md §12), every job's trajectory is
//! identical to an uninterrupted solo run *regardless of quantum, worker
//! count, schedule, or daemon crashes* — scheduling decides when cycles
//! run, never what they compute.
//!
//! Layer map (DESIGN.md §17):
//!
//! - [`spec`]: job descriptions and content-derived job ids
//! - [`wire`]: the framed, checksummed socket protocol
//! - [`queue`]: the deterministic queue and its crash-safe persistence
//!   (carried in the `anton-ckpt` container format)
//! - [`scheduler`]: quantum-of-cycles preemptive slicing over a worker
//!   pool
//! - [`daemon`] / [`client`]: the Unix-socket service front end (Unix
//!   only; everything below it is platform-neutral)
//! - [`error`]: the typed failure vocabulary

#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]

pub mod client;
pub mod daemon;
pub mod error;
pub mod queue;
pub mod scheduler;
pub mod spec;
pub mod wire;

#[cfg(unix)]
pub use client::FleetClient;
#[cfg(unix)]
pub use daemon::{serve, DaemonConfig};
pub use error::FleetError;
pub use queue::{JobPhase, JobRecord, JobStatusView, PhaseTotals, QueueState, QueueStore};
pub use scheduler::{Fleet, FleetConfig, RunMode};
pub use spec::{JobId, JobSpec};
pub use wire::{Request, Response};
