//! The assembled system handed to an engine, plus its run parameters.

use anton_forcefield::Topology;
use anton_geometry::{PeriodicBox, Vec3};

/// Tunable simulation parameters (paper Table 4 columns and §5.3).
#[derive(Clone, Copy, Debug)]
pub struct RunParams {
    /// Range-limited cutoff radius (Å).
    pub cutoff: f64,
    /// Charge-spreading / force-interpolation cutoff (Å); the BPTI run used
    /// 7.1 Å against a 10.4 Å range-limited cutoff.
    pub spread_cutoff: f64,
    /// FFT mesh dimensions.
    pub mesh: [usize; 3],
    /// Time step (fs); 2.5 throughout the paper's evaluation.
    pub dt_fs: f64,
    /// Long-range electrostatics evaluated every this many steps (2–3).
    pub longrange_every: u32,
}

impl RunParams {
    /// Paper-standard parameters for a given cutoff/mesh.
    pub fn paper(cutoff: f64, mesh: usize) -> RunParams {
        RunParams {
            cutoff,
            spread_cutoff: (cutoff * 0.68).min(cutoff),
            mesh: [mesh; 3],
            dt_fs: 2.5,
            longrange_every: 2,
        }
    }

    /// Ewald splitting parameter β (1/Å) at the production direct-space
    /// tolerance, `erfc(β·cutoff) = 1e-5`.
    pub fn ewald_beta(&self) -> f64 {
        anton_forcefield::units::ewald_beta_for(self.cutoff, 1e-5)
    }
}

/// Temperature control, the one choice both engines take.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Thermostat {
    /// Microcanonical (NVE): required for the energy-drift and
    /// reversibility experiments.
    None,
    /// Berendsen weak coupling with time constant τ (fs), as in the BPTI
    /// run of §5.3.
    Berendsen { target_k: f64, tau_fs: f64 },
}

/// A complete simulatable system.
#[derive(Clone, Debug)]
pub struct System {
    pub name: String,
    pub pbox: PeriodicBox,
    pub topology: Topology,
    pub positions: Vec<Vec3>,
    pub params: RunParams,
}

impl System {
    pub fn n_atoms(&self) -> usize {
        self.positions.len()
    }

    /// Consistency checks run by every builder before returning.
    pub fn validate(&self) -> Result<(), String> {
        if self.positions.len() != self.topology.n_atoms() {
            return Err("positions/topology length mismatch".into());
        }
        self.topology.validate()?;
        let e = self.pbox.edge();
        let min_edge = e.x.min(e.y).min(e.z);
        if self.params.cutoff * 2.0 >= min_edge {
            return Err(format!(
                "cutoff {} too large for box edge {} (minimum image violated)",
                self.params.cutoff, min_edge
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beta_selection_hits_tolerance() {
        let p = RunParams::paper(13.0, 32);
        let beta = p.ewald_beta();
        let val = anton_forcefield::units::erfc(beta * 13.0);
        assert!((val - 1e-5).abs() < 1e-7, "erfc(beta rc) = {val}");
    }

    #[test]
    fn paper_params_defaults() {
        let p = RunParams::paper(10.5, 32);
        assert_eq!(p.mesh, [32; 3]);
        assert_eq!(p.dt_fs, 2.5);
        assert_eq!(p.longrange_every, 2);
        assert!(p.spread_cutoff < p.cutoff);
    }
}
