//! Geometric substrate for the Anton reproduction.
//!
//! Everything here is decomposition-agnostic plumbing shared by the reference
//! engine, the NT-method crate and the Anton engine:
//!
//! * [`Vec3`] / [`IVec3`] / [`Mat3`] — small dense linear algebra, hand
//!   written (no external linear-algebra dependency).
//! * [`PeriodicBox`] — orthorhombic periodic cell with minimum-image
//!   displacement, fractional/Cartesian conversion and wrapping.
//! * [`CellGrid`] — a classic cell list over a periodic box; used by the
//!   reference engine's pair list and by brute-force validation of the NT
//!   method.
//! * [`voxel`] — numeric volume integration of arbitrary spatial predicates,
//!   used to measure the import-region volumes of paper Figure 3.

pub mod cells;
pub mod mat3;
pub mod pbc;
pub mod tiles;
pub mod vec3;
pub mod voxel;

pub use cells::CellGrid;
pub use mat3::Mat3;
pub use pbc::PeriodicBox;
pub use tiles::{PosTiles, TileView};
pub use vec3::{IVec3, Vec3};
