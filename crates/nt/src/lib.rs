//! The NT method and Anton's parallelization machinery (paper §3.2).
//!
//! Anton distributes particles across nodes with a spatial decomposition and
//! parallelizes the range-limited interactions with the *NT method* (Shaw
//! 2005): each node computes interactions between atoms in a **tower**
//! (its home-box column, extended ±R in z) and atoms in a **plate** (a
//! half-neighborhood in its own z-layer). Neither atom of a pair needs to
//! reside on the node that computes it — a "neutral territory" scheme — and
//! the import volume is asymptotically smaller than the traditional
//! half-shell method's.
//!
//! * [`regions`] — the import-region geometry of Figure 3 (analytic volumes
//!   plus voxelizable predicates).
//! * [`match_efficiency`] — Table 3: the fraction of considered tower×plate
//!   pairs that actually need to interact, with and without subboxes.
//! * [`assign`] — the node grid (box indexing, wrap, torus hops) and the
//!   exactly-once assignment of box pairs to nodes used by the Anton
//!   engine, validated against brute force.

pub mod assign;
pub mod match_efficiency;
pub mod regions;

pub use assign::{NodeGrid, NtAssignment};
pub use match_efficiency::MatchEfficiency;
pub use regions::ImportRegions;
