//! A model of the Anton machine (paper §2.2, §3, §4).
//!
//! Anton's headline results come from an ASIC whose subsystems this crate
//! models at two levels:
//!
//! * **Functional** — bit-level models of the numerically relevant datapaths:
//!   the PPIP's tiered, block-floating-point, piecewise-cubic function
//!   evaluators ([`tables`], [`ppip`]) fit with the Remez exchange algorithm
//!   exactly as the paper describes. The Anton engine (`anton-core`)
//!   computes its range-limited forces through these models.
//! * **Performance** — a calibrated cycle/communication accounting model
//!   ([`perf`]) of a full time step over the machine constants of
//!   [`config`]: HTIS pipelines and match units (queueing simulated cycle by
//!   cycle in [`htis`]), the static per-step exchange plan metered over
//!   the torus links of the node grid ([`exchange`]), the
//!   distributed FFT traffic, and the geometry cores and correction
//!   pipeline ([`flex`]). Free constants are calibrated against a single
//!   column of the paper's Table 2 (see DESIGN.md §6); everything else is
//!   prediction.

#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]

pub mod config;
pub mod exchange;
pub mod flex;
pub mod htis;
pub mod perf;
pub mod ppip;
pub mod tables;

pub use config::MachineConfig;
pub use exchange::{ExchangePlan, Link, MeshExchange, FORCE_BYTES, MESH_BYTES, POS_BYTES};
pub use htis::{HtisRun, HtisSim};
pub use perf::{modeled_burst_us, ExchangeCounters, PerfModel, StepBreakdown, SystemStats};
pub use ppip::{PairBatch, Ppip, MATCH_WIDTH, R2_FRAC};
pub use tables::FunctionTable;
