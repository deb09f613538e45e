//! Orthorhombic periodic boxes.

use crate::Vec3;

/// An orthorhombic periodic simulation cell with edge lengths in Å.
///
/// Anton's 512-node machines partition such a box 8×8×8 across the torus
/// (paper §2.2); all chemical systems in the paper's evaluation are cubic or
/// near-cubic orthorhombic cells.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct PeriodicBox {
    edge: Vec3,
}

impl PeriodicBox {
    /// A cubic box with the given edge length (Å).
    pub fn cubic(edge: f64) -> PeriodicBox {
        PeriodicBox::new(Vec3::splat(edge))
    }

    pub fn new(edge: Vec3) -> PeriodicBox {
        assert!(
            edge.x > 0.0 && edge.y > 0.0 && edge.z > 0.0,
            "box edges must be positive: {edge:?}"
        );
        PeriodicBox { edge }
    }

    #[inline]
    pub fn edge(&self) -> Vec3 {
        self.edge
    }

    #[inline]
    pub fn volume(&self) -> f64 {
        self.edge.x * self.edge.y * self.edge.z
    }

    /// Wrap a Cartesian position into the primary cell `[0, L)^3`.
    #[inline]
    pub fn wrap(&self, p: Vec3) -> Vec3 {
        Vec3::new(
            p.x - self.edge.x * (p.x / self.edge.x).floor(),
            p.y - self.edge.y * (p.y / self.edge.y).floor(),
            p.z - self.edge.z * (p.z / self.edge.z).floor(),
        )
    }

    /// Minimum-image displacement `a - b`.
    #[inline]
    pub fn min_image(&self, a: Vec3, b: Vec3) -> Vec3 {
        let mut d = a - b;
        d.x -= self.edge.x * (d.x / self.edge.x).round();
        d.y -= self.edge.y * (d.y / self.edge.y).round();
        d.z -= self.edge.z * (d.z / self.edge.z).round();
        d
    }

    /// Squared minimum-image distance.
    #[inline]
    pub fn dist2(&self, a: Vec3, b: Vec3) -> f64 {
        self.min_image(a, b).norm2()
    }

    /// Cartesian → fractional coordinates in `[0, 1)`.
    #[inline]
    pub fn to_frac(&self, p: Vec3) -> Vec3 {
        let w = self.wrap(p);
        Vec3::new(w.x / self.edge.x, w.y / self.edge.y, w.z / self.edge.z)
    }

    /// Fractional → Cartesian coordinates.
    #[inline]
    pub fn from_frac(&self, f: Vec3) -> Vec3 {
        Vec3::new(f.x * self.edge.x, f.y * self.edge.y, f.z * self.edge.z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrap_into_primary_cell() {
        let b = PeriodicBox::cubic(10.0);
        let p = b.wrap(Vec3::new(-0.5, 10.5, 25.0));
        assert!((p.x - 9.5).abs() < 1e-12);
        assert!((p.y - 0.5).abs() < 1e-12);
        assert!((p.z - 5.0).abs() < 1e-12);
    }

    #[test]
    fn min_image_short_way_around() {
        let b = PeriodicBox::cubic(10.0);
        let d = b.min_image(Vec3::new(9.5, 0.0, 0.0), Vec3::new(0.5, 0.0, 0.0));
        assert!((d.x + 1.0).abs() < 1e-12, "{d:?}");
    }

    #[test]
    fn frac_roundtrip() {
        let b = PeriodicBox::new(Vec3::new(10.0, 20.0, 40.0));
        let p = Vec3::new(3.0, 15.0, 39.0);
        let q = b.from_frac(b.to_frac(p));
        assert!((p - q).norm() < 1e-12);
    }

    #[test]
    fn min_image_is_antisymmetric() {
        let b = PeriodicBox::cubic(12.0);
        let a = Vec3::new(1.0, 11.0, 6.0);
        let c = Vec3::new(11.5, 0.5, 5.0);
        let d1 = b.min_image(a, c);
        let d2 = b.min_image(c, a);
        assert!((d1 + d2).norm() < 1e-12);
    }
}
