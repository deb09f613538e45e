//! `anton-core`: the Anton molecular-dynamics engine.
//!
//! This is the paper's primary contribution rendered in software: an MD
//! engine whose entire force and integration pipeline runs in (or is
//! quantized to) Anton's fixed-point number formats, with forces produced by
//! the PPIP function-table models of `anton-machine`, long-range
//! electrostatics through the deterministic fixed-point Gaussian Split Ewald
//! pipeline of `anton-ewald`, and work distributed (optionally) over a
//! simulated node grid using the NT method of `anton-nt`.
//!
//! The headline numerical properties of paper §4 hold by construction and
//! are enforced by this crate's tests:
//!
//! * **Determinism** — repeated runs are bitwise identical.
//! * **Parallel invariance** — enumerating the force work per simulated
//!   node (any power-of-two count) changes only the order of wrapping
//!   integer additions, which is immaterial; trajectories are bitwise
//!   identical on 1, 2, 8, 64, … nodes. The rank fan-out ([`ranks`],
//!   [`pool`]) extends the same guarantee to host worker threads: each rank
//!   fills a private accumulator and the buffers merge in fixed rank order,
//!   so any thread count set by [`SimulationBuilder::threads`] (default 1)
//!   produces identical bits.
//! * **Exact reversibility** — without constraints or temperature control,
//!   negating all velocities and re-running recovers the initial state
//!   bit-for-bit (fixed-point velocity Verlet with round-to-nearest/even,
//!   which is odd-symmetric).
//!
//! The engine computes and the caller persists: a simulation starts one
//! way — [`SimulationBuilder::build`] at step 0, or
//! [`SimulationBuilder::resume_from`] /
//! [`SimulationBuilder::resume_from_snapshot`] at a verified snapshot,
//! continuing bitwise — and leaves one way, [`AntonSimulation::snapshot`]
//! or [`AntonSimulation::write_checkpoint`] into a [`CheckpointStore`] the
//! caller created. It holds no store, no cadence and creates no directory.
//!
//! Quick start:
//!
//! ```no_run
//! use anton_core::{AntonSimulation, Decomposition};
//! use anton_systems::{table4_system, TABLE4};
//!
//! let system = table4_system(&TABLE4[0], 1);           // gpW, 9,865 atoms
//! let mut sim = AntonSimulation::builder(system)
//!     .velocities_from_temperature(300.0, 42)
//!     .decomposition(Decomposition::SingleRank)
//!     .build();
//! sim.run_cycles(10);
//! println!("E_total = {} kcal/mol", sim.total_energy());
//! ```

#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]

pub mod batch;
pub mod engine;
pub mod forces;
pub mod pool;
pub mod ranks;
pub mod state;
pub mod stats;

pub use anton_ckpt::{CheckpointStore, CkptError, Snapshot};
pub use anton_machine::ExchangeCounters;
pub use anton_trace::{Phase as TracePhase, TraceSink};
pub use engine::{AntonSimulation, SimulationBuilder};
pub use forces::{Decomposition, ForcePipeline, RawForces};
pub use pool::DetPool;
pub use ranks::{Rank, RankSet};
pub use state::FixedState;
pub use stats::system_stats;
