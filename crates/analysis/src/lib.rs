//! Trajectory analysis for the paper's evaluation quantities.
//!
//! * [`drift`] — NVE energy-drift fits in the paper's Table 4 units
//!   (kcal/mol per degree of freedom per simulated µs).
//! * [`kabsch`] — optimal-rotation structural alignment (needed before
//!   computing order parameters, which must exclude overall tumbling).
//! * [`order_params`] — backbone amide S² order parameters (Figure 6).
//! * [`folding`] — native-contact reaction coordinate processing and
//!   folding/unfolding event detection (Figure 7).
//! * [`stats`] — the least-squares line fit behind [`drift`].
//! * [`verify`] / [`battery`] — the closed-form invariant verifier: exact
//!   integer identities (third law, force consistency, mesh charge,
//!   exchange census) plus bounded NVE momentum/energy checks, sampled by
//!   its caller against a live engine after `run_cycle` (DESIGN.md §15).
//! * [`artifacts`] — deterministic, schema-versioned CSV tables for the
//!   paper-shaped results (Table 2/4, scaling and trace figures).

#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]

pub mod artifacts;
pub mod battery;
pub mod drift;
pub mod folding;
pub mod kabsch;
pub mod order_params;
pub mod stats;
pub mod verify;

pub use artifacts::{micro_from_f64, Cell, Table, TABLE_SCHEMA};
pub use battery::Verifier;
pub use drift::energy_drift_per_dof_us;
pub use folding::{detect_transitions, FoldingEvents};
pub use kabsch::kabsch_rotation;
pub use order_params::order_parameters;
pub use stats::linear_fit;
pub use verify::{Identity, Violation};
