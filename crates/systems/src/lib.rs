//! Deterministic builders for the chemical systems evaluated in the paper.
//!
//! The paper's evaluation (Table 4, Figures 5–7, §5.3) runs on real proteins
//! solvated in explicit water. This workspace substitutes *synthetic*
//! protein-in-water systems with the same atom counts, box dimensions, run
//! parameters and term densities (see DESIGN.md §2 for the substitution
//! argument): all performance and numerics observables are functions of those
//! statistics, not of biological identity.
//!
//! * [`waterbox`] — jittered-lattice water at liquid density (TIP3P or
//!   TIP4P-Ew), the "water only" series of Figure 5.
//! * [`protein`] — a synthetic all-atom protein: an 8-atom residue (N, H,
//!   CA, HA, CB, HB, C, O) repeated along a helical backbone curve, with
//!   bonds/angles/dihedrals, AMBER-like charges, and hydrogen-bond
//!   constraints.
//! * [`catalog`] — the six Table 4 systems (gpW … T7Lig) and the §5.3 BPTI
//!   system (17,758 particles, TIP4P-Ew, 6 chloride ions).
//! * [`go_model`] — a Cα Gō model of gpW for the Figure 7 folding/unfolding
//!   experiment.
//! * [`velocities`] — Maxwell–Boltzmann initialization with seeded RNG and
//!   zero net momentum.

#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]

pub mod catalog;
pub mod go_model;
pub mod protein;
pub mod spec;
pub mod velocities;
pub mod waterbox;

pub use catalog::{bpti, table4_system, Table4Entry, TABLE4};
pub use go_model::GoModel;
pub use spec::{RunParams, System, Thermostat};
pub use velocities::init_velocities;
pub use waterbox::water_box;
