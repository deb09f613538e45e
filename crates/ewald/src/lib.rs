//! Ewald electrostatics: the decomposition at the heart of the paper's §2.1.
//!
//! The Ewald decomposition splits the Coulomb interaction into a rapidly
//! decaying direct-space part (`erfc(βr)/r`, evaluated pairwise under a
//! cutoff together with van der Waals forces — the *range-limited
//! interactions*) and a smooth long-range part evaluated on a mesh via FFTs.
//!
//! * [`direct`] — per-pair direct-space kernels (erfc-Coulomb + LJ), the
//!   excluded-pair *correction forces* of §3.1, and 1-4 scaling.
//! * [`gse`] — Gaussian Split Ewald (Shan et al. 2005), the method Anton
//!   uses because its radially symmetric Gaussian charge spreading and force
//!   interpolation map onto the HTIS pairwise pipelines, unlike SPME's
//!   B-splines: the deterministic fixed-point mesh pipeline the Anton engine
//!   runs.
//! * [`spme`] — Smooth Particle Mesh Ewald with order-4 B-splines, the
//!   commodity-hardware baseline (GROMACS/Desmond-style) used by `refmd`.
//! * [`exact`] — brute-force Ewald sums (direct k-space summation) used as
//!   ground truth on small systems and for the "conservative parameters"
//!   force-error references of Table 4.
//! * [`mesh`] — shared mesh/k-vector bookkeeping.

#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]

pub mod direct;
pub mod exact;
pub mod gse;
pub mod mesh;
pub mod spme;

pub use direct::DirectKernel;
pub use gse::{GseFixed, GseParams, GseScratch, MeshAtoms, SupportScratch, TransformStage};
pub use mesh::Mesh;
pub use spme::Spme;
