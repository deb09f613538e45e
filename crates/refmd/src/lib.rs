//! `anton-refmd`: the double-precision reference MD engine.
//!
//! Plays the role Desmond and GROMACS play in the paper: a correct,
//! conventional engine on commodity hardware, used as
//!
//! * the **x86 execution profile** of Table 2 (per-task wall times of a
//!   single-core step: range-limited, FFT, mesh interpolation, correction,
//!   bonded, integration),
//! * the **accuracy reference** for Table 4's force errors (conservative
//!   parameters, double precision),
//! * the **comparison trajectory** of Figure 6, and
//! * the Langevin sampler for the Figure 7 Gō-model folding runs.
//!
//! Architecture: cell-list pair loop + SPME reciprocal space + exclusion
//! corrections (`forces`), velocity-Verlet with impulse (r-RESPA) multiple
//! time stepping, SHAKE/RATTLE constraints and Berendsen temperature
//! control (`engine`), and a Langevin integrator over pluggable force
//! providers (`langevin`).

pub mod engine;
pub mod forces;
pub mod langevin;
pub mod profile;
pub mod reference;

pub use engine::RefSimulation;
pub use forces::{Energies, ForceEvaluator};
pub use langevin::LangevinIntegrator;
pub use profile::TaskProfile;
