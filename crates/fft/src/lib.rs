//! Fast Fourier transforms for the Anton reproduction, written from scratch.
//!
//! Anton evaluates long-range electrostatics on a small mesh (32³ for the
//! 40–80 Å systems of the paper) with two sequentially dependent 3D FFTs per
//! long-range step. Three implementations live here:
//!
//! * [`Fft1d`] / [`Fft3d`] — double-precision radix-2 transforms used by the
//!   reference engine's SPME and by accuracy tests.
//! * [`fixed`] — a deterministic fixed-point FFT modeling the 32-bit
//!   arithmetic of Anton's flexible subsystem. Per-stage scaling keeps the
//!   butterflies in range; round-to-nearest/even matches the ASIC rule. The
//!   Anton engine (`anton-core`) uses this path so that its entire force
//!   pipeline is bit-reproducible.
//! * [`distributed`] — the spatially distributed 3D FFT of paper §3.2.2 and
//!   the companion SC'09 FFT paper: the mesh lives on an `nx×ny×nz` node
//!   grid, and each of the three axis passes redistributes pencils with many
//!   small messages (hundreds per node on the 512-node machine), which the
//!   model counts for the performance model.

#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]

pub mod complex;
pub mod distributed;
pub mod fft1d;
pub mod fft3d;
pub mod fixed;

pub use complex::Complex;
pub use distributed::{
    pencil_pass_stats, CommStats, FxDistributedFft3d, PassStats, FX_BYTES_PER_POINT,
};
pub use fft1d::Fft1d;
pub use fft3d::Fft3d;
