//! Kabsch optimal-rotation alignment.
//!
//! Order parameters measure *internal* motion, so each trajectory frame is
//! first superposed onto a reference structure (removing translation and
//! rotation). The optimal rotation comes from the polar decomposition of the
//! cross-covariance matrix, computed here with the symmetric Jacobi
//! eigensolver of `anton-geometry`.

use anton_geometry::{Mat3, Vec3};

/// Centroid of a point set.
pub fn centroid(points: &[Vec3]) -> Vec3 {
    points.iter().fold(Vec3::ZERO, |a, &p| a + p) / points.len() as f64
}

/// The rotation matrix that best maps `mobile` (centered) onto `target`
/// (centered) in the least-squares sense.
pub fn kabsch_rotation(mobile: &[Vec3], target: &[Vec3]) -> Mat3 {
    assert_eq!(mobile.len(), target.len());
    assert!(mobile.len() >= 3);
    let cm = centroid(mobile);
    let ct = centroid(target);
    // Cross-covariance H = Σ (m − cm)(t − ct)ᵀ.
    let mut h = Mat3::ZERO;
    for (m, t) in mobile.iter().zip(target) {
        h = h.add(Mat3::outer(*m - cm, *t - ct));
    }
    // Polar decomposition: R = (HᵀH)^(−1/2) Hᵀ … transposed appropriately:
    // with B = HᵀH = VΛVᵀ, R = H V Λ^(−1/2) Vᵀ, then transpose to map
    // mobile→target and fix a possible reflection.
    let b = h.transpose().mul_mat(h);
    let (vals, v) = b.sym_eigen();
    let inv_sqrt = Mat3([
        [1.0 / vals[0].max(1e-12).sqrt(), 0.0, 0.0],
        [0.0, 1.0 / vals[1].max(1e-12).sqrt(), 0.0],
        [0.0, 0.0, 1.0 / vals[2].max(1e-12).sqrt()],
    ]);
    let mut r = h
        .mul_mat(v.mul_mat(inv_sqrt).mul_mat(v.transpose()))
        .transpose();
    if r.det() < 0.0 {
        // Reflection: flip the axis of the smallest eigenvalue.
        let u = v.col(2);
        let flip = Mat3::IDENTITY.add(Mat3::outer(u, u).scale(-2.0));
        r = h
            .mul_mat(v.mul_mat(inv_sqrt).mul_mat(v.transpose()))
            .mul_mat(flip)
            .transpose();
        // Ensure we actually produced a rotation.
        if r.det() < 0.0 {
            r = Mat3::IDENTITY;
        }
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    /// RMSD after optimal superposition of `mobile` onto `target`.
    fn rmsd(mobile: &[Vec3], target: &[Vec3]) -> f64 {
        let r = kabsch_rotation(mobile, target);
        let (cm, ct) = (centroid(mobile), centroid(target));
        (mobile
            .iter()
            .zip(target)
            .map(|(&p, t)| (r.mul_vec(p - cm) + ct - *t).norm2())
            .sum::<f64>()
            / mobile.len() as f64)
            .sqrt()
    }

    fn test_points() -> Vec<Vec3> {
        vec![
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, 2.0, 0.0),
            Vec3::new(0.0, 0.0, 3.0),
            Vec3::new(1.0, 1.0, 1.0),
            Vec3::new(-1.0, 0.5, 2.0),
        ]
    }

    fn rot_z(theta: f64) -> Mat3 {
        Mat3([
            [theta.cos(), -theta.sin(), 0.0],
            [theta.sin(), theta.cos(), 0.0],
            [0.0, 0.0, 1.0],
        ])
    }

    #[test]
    fn recovers_pure_rotation() {
        let p = test_points();
        let r_true = rot_z(0.7);
        let q: Vec<Vec3> = p
            .iter()
            .map(|&x| r_true.mul_vec(x) + Vec3::new(3.0, -1.0, 2.0))
            .collect();
        assert!(rmsd(&p, &q) < 1e-10);
        let r = kabsch_rotation(&p, &q);
        assert!((r.det() - 1.0).abs() < 1e-9);
        for i in 0..3 {
            for j in 0..3 {
                assert!((r.0[i][j] - r_true.0[i][j]).abs() < 1e-9, "({i},{j})");
            }
        }
    }

    #[test]
    fn rmsd_zero_on_identity() {
        let p = test_points();
        assert!(rmsd(&p, &p) < 1e-12);
    }

    #[test]
    fn rmsd_detects_distortion() {
        let p = test_points();
        let mut q = p.clone();
        q[0] += Vec3::new(0.5, 0.0, 0.0);
        let d = rmsd(&p, &q);
        assert!(d > 0.1 && d < 0.5, "rmsd {d}");
    }
}
