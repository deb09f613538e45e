//! Biomolecular force-field machinery.
//!
//! Commonly used force fields express the total force on an atom as the sum
//! of bonded terms, van der Waals interactions, and electrostatics (paper
//! §2.1). This crate provides the functional forms shared by both engines in
//! the workspace:
//!
//! * [`bonded`] — harmonic bonds and angles, periodic dihedrals, with forces
//!   validated against numerical gradients.
//! * [`lj`] — Lennard-Jones interactions with a precombined per-type-pair
//!   table (Lorentz–Berthelot rules).
//! * [`exclusions`] — 1-2/1-3 exclusions and scaled 1-4 pairs derived from
//!   the bond graph, mirroring the "correction forces" Anton computes on its
//!   correction pipeline (§3.1).
//! * [`water`] — the rigid TIP3P and TIP4P-Ew water models used in the
//!   paper's evaluations, including the TIP4P virtual-site projection and
//!   force redistribution.
//! * [`topology`] — the flat system description consumed by the engines.
//! * [`constraints`] — the SHAKE/RATTLE distance-constraint solver both
//!   engines call.
//!
//! The synthetic parameter sets standing in for AMBER99SB / OPLS-AA (see
//! DESIGN.md's substitution table) live in `anton-systems`.

pub mod bonded;
pub mod constraints;
pub mod exclusions;
pub mod lj;
pub mod topology;
pub mod units;
pub mod water;

pub use exclusions::{ExclusionPolicy, Exclusions, PairClass};
pub use lj::LjTable;
pub use topology::{Angle, Bond, ConstraintGroup, Dihedral, Topology};
