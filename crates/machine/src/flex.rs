//! Flexible-subsystem cost model (paper §2.2, §3.2.3–3.2.4).
//!
//! Eight geometry cores evaluate bonded terms and integrate; a dedicated
//! correction pipeline (a PPIP with list-driven control) processes excluded
//! and 1-4 pairs. Cycle costs below are effective per-item costs at the
//! 485 MHz flexible clock, calibrated jointly with the performance model.

/// Effective cycle costs on the flexible subsystem.
#[derive(Clone, Copy, Debug)]
pub struct FlexModel {
    /// Effective cycles per bonded term on a GC (evaluation + position
    /// gather + force scatter).
    pub bond_term_cycles: f64,
    /// Cycles per atom for integration (kick + drift + bookkeeping).
    pub integrate_atom_cycles: f64,
    /// Cycles per constraint pair per SHAKE-style sweep set.
    pub constraint_pair_cycles: f64,
    /// Correction-pipeline throughput: pairs per cycle.
    pub correction_pairs_per_cycle: f64,
}

impl Default for FlexModel {
    fn default() -> FlexModel {
        FlexModel {
            bond_term_cycles: 375.0,
            integrate_atom_cycles: 40.0,
            constraint_pair_cycles: 80.0,
            correction_pairs_per_cycle: 1.0,
        }
    }
}

impl FlexModel {
    /// Seconds to evaluate `terms` bonded terms spread over `gcs` cores at
    /// `clock_hz`, assuming LPT-quality balance (max ≈ mean for many terms).
    pub fn bonded_time_s(&self, terms: f64, gcs: usize, clock_hz: f64) -> f64 {
        terms / gcs as f64 * self.bond_term_cycles / clock_hz
    }

    pub fn integrate_time_s(
        &self,
        atoms: f64,
        constraint_pairs: f64,
        gcs: usize,
        clock_hz: f64,
    ) -> f64 {
        (atoms * self.integrate_atom_cycles + constraint_pairs * self.constraint_pair_cycles)
            / gcs as f64
            / clock_hz
    }

    pub fn correction_time_s(&self, pairs: f64, clock_hz: f64) -> f64 {
        pairs / self.correction_pairs_per_cycle / clock_hz
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bonded_scales_linearly() {
        let m = FlexModel::default();
        let t1 = m.bonded_time_s(100.0, 8, 485e6);
        let t2 = m.bonded_time_s(200.0, 8, 485e6);
        assert!((t2 / t1 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn dhfr_node_costs_land_in_microseconds() {
        // ~42 bonded terms and ~46 atoms per node: both phases in the low
        // microseconds, as in Table 2.
        let m = FlexModel::default();
        assert!(m.bonded_time_s(42.0, 8, 485e6) * 1e6 > 2.0);
        assert!(m.bonded_time_s(42.0, 8, 485e6) * 1e6 < 6.0);
        let integ = m.integrate_time_s(46.0, 43.0, 8, 485e6) * 1e6;
        assert!(integ > 0.5 && integ < 3.0, "{integ}");
    }
}
