//! Volume integration of spatial predicates.
//!
//! Paper Figure 3 compares the *import regions* of several parallelization
//! methods. We measure those regions numerically: a region is an arbitrary
//! predicate over ℝ³ and we integrate its volume over a bounding domain with
//! either a regular subdivision (deterministic, used in tests) or Monte Carlo
//! sampling (used for quick estimates).

use crate::Vec3;

/// Axis-aligned bounding domain for integration.
#[derive(Clone, Copy, Debug)]
pub struct Domain {
    pub lo: Vec3,
    pub hi: Vec3,
}

impl Domain {
    pub fn new(lo: Vec3, hi: Vec3) -> Domain {
        assert!(lo.x < hi.x && lo.y < hi.y && lo.z < hi.z);
        Domain { lo, hi }
    }

    pub fn volume(&self) -> f64 {
        let d = self.hi - self.lo;
        d.x * d.y * d.z
    }
}

/// Integrate the volume of `{p ∈ domain : pred(p)}` on a regular grid with
/// `n` samples per axis (midpoint rule). Deterministic.
pub fn grid_volume(domain: Domain, n: usize, pred: impl Fn(Vec3) -> bool) -> f64 {
    assert!(n > 0);
    let d = domain.hi - domain.lo;
    let step = Vec3::new(d.x / n as f64, d.y / n as f64, d.z / n as f64);
    let mut inside = 0u64;
    for iz in 0..n {
        let z = domain.lo.z + (iz as f64 + 0.5) * step.z;
        for iy in 0..n {
            let y = domain.lo.y + (iy as f64 + 0.5) * step.y;
            for ix in 0..n {
                let x = domain.lo.x + (ix as f64 + 0.5) * step.x;
                if pred(Vec3::new(x, y, z)) {
                    inside += 1;
                }
            }
        }
    }
    domain.volume() * inside as f64 / (n as u64).pow(3) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sphere_volume_grid() {
        let r: f64 = 2.0;
        let v = grid_volume(Domain::new(Vec3::splat(-2.5), Vec3::splat(2.5)), 160, |p| {
            p.norm2() <= r * r
        });
        let exact = 4.0 / 3.0 * std::f64::consts::PI * r.powi(3);
        assert!((v - exact).abs() / exact < 0.01, "v={v} exact={exact}");
    }

    #[test]
    fn box_volume_exact() {
        let v = grid_volume(Domain::new(Vec3::splat(-2.0), Vec3::splat(2.0)), 64, |p| {
            p.x.abs() <= 1.0 && p.y.abs() <= 1.0 && p.z.abs() <= 1.0
        });
        assert!((v - 8.0).abs() < 0.1);
    }
}
