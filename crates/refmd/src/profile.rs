//! Per-task wall-time accounting (the Table 2 x86 columns).

/// Accumulated wall time per MD task, in seconds. Field names follow the
/// rows of the paper's Table 2.
#[derive(Clone, Copy, Debug, Default)]
pub struct TaskProfile {
    /// Electrostatic + van der Waals pairs under the cutoff.
    pub range_limited_s: f64,
    /// Forward + inverse FFT (including the Fourier-space multiply).
    pub fft_s: f64,
    /// Charge spreading + force interpolation.
    pub mesh_s: f64,
    /// Excluded-pair and 1-4 correction forces.
    pub correction_s: f64,
    /// Bond, angle and dihedral terms.
    pub bonded_s: f64,
    /// Integration, constraints and virtual-site bookkeeping.
    pub integration_s: f64,
    /// Neighbor-structure (cell grid) maintenance.
    pub neighbor_s: f64,
    /// Steps accumulated.
    pub steps: u64,
}

impl TaskProfile {
    pub fn total_s(&self) -> f64 {
        self.range_limited_s
            + self.fft_s
            + self.mesh_s
            + self.correction_s
            + self.bonded_s
            + self.integration_s
            + self.neighbor_s
    }

    /// Per-step milliseconds for each task, in Table 2 row order, plus the
    /// total (range-limited, FFT, mesh, correction, bonded, integration).
    pub fn per_step_ms(&self) -> [f64; 7] {
        let n = self.steps.max(1) as f64;
        [
            (self.range_limited_s + self.neighbor_s) / n * 1e3,
            self.fft_s / n * 1e3,
            self.mesh_s / n * 1e3,
            self.correction_s / n * 1e3,
            self.bonded_s / n * 1e3,
            self.integration_s / n * 1e3,
            self.total_s() / n * 1e3,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_step_normalizes() {
        let p = TaskProfile {
            range_limited_s: 2.0,
            steps: 4,
            ..Default::default()
        };
        assert!((p.per_step_ms()[0] - 500.0).abs() < 1e-9);
        assert!((p.per_step_ms()[6] - 500.0).abs() < 1e-9);
    }
}
