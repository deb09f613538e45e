//! 3×3 matrices: just enough linear algebra for inertia tensors, rotation
//! fitting (Kabsch, in `anton-analysis`) and the order-parameter tensor.

use crate::Vec3;

/// A row-major 3×3 matrix of `f64`.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Mat3(pub [[f64; 3]; 3]);

impl Mat3 {
    pub const ZERO: Mat3 = Mat3([[0.0; 3]; 3]);
    pub const IDENTITY: Mat3 = Mat3([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]);

    /// Outer product `a bᵀ`.
    pub fn outer(a: Vec3, b: Vec3) -> Mat3 {
        let a = a.to_array();
        let b = b.to_array();
        let mut m = [[0.0; 3]; 3];
        for (i, row) in m.iter_mut().enumerate() {
            for (j, v) in row.iter_mut().enumerate() {
                *v = a[i] * b[j];
            }
        }
        Mat3(m)
    }

    pub fn transpose(self) -> Mat3 {
        let m = self.0;
        Mat3([
            [m[0][0], m[1][0], m[2][0]],
            [m[0][1], m[1][1], m[2][1]],
            [m[0][2], m[1][2], m[2][2]],
        ])
    }

    pub fn mul_mat(self, o: Mat3) -> Mat3 {
        let mut r = [[0.0; 3]; 3];
        for (i, row) in r.iter_mut().enumerate() {
            for (j, v) in row.iter_mut().enumerate() {
                *v = (0..3).map(|k| self.0[i][k] * o.0[k][j]).sum();
            }
        }
        Mat3(r)
    }

    pub fn mul_vec(self, v: Vec3) -> Vec3 {
        let a = v.to_array();
        Vec3::new(
            self.0[0][0] * a[0] + self.0[0][1] * a[1] + self.0[0][2] * a[2],
            self.0[1][0] * a[0] + self.0[1][1] * a[1] + self.0[1][2] * a[2],
            self.0[2][0] * a[0] + self.0[2][1] * a[1] + self.0[2][2] * a[2],
        )
    }

    // Not `impl Add`: keeping matrix ops as named methods mirrors
    // `mul_mat`/`mul_vec` and avoids operator overloading in hot paths.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, o: Mat3) -> Mat3 {
        let mut r = self.0;
        for (i, row) in r.iter_mut().enumerate() {
            for (j, v) in row.iter_mut().enumerate() {
                *v += o.0[i][j];
            }
        }
        Mat3(r)
    }

    pub fn scale(self, s: f64) -> Mat3 {
        let mut r = self.0;
        for row in r.iter_mut() {
            for v in row.iter_mut() {
                *v *= s;
            }
        }
        Mat3(r)
    }

    pub fn det(self) -> f64 {
        let m = self.0;
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    }

    pub fn trace(self) -> f64 {
        self.0[0][0] + self.0[1][1] + self.0[2][2]
    }

    /// Eigen-decomposition of a *symmetric* matrix by cyclic Jacobi rotation.
    /// Returns `(eigenvalues, eigenvectors)` with eigenvectors as the columns
    /// of the returned matrix, sorted by descending eigenvalue.
    // Jacobi rotations address row/column pairs (p, q) of two arrays at
    // once; index loops are clearer than split_at_mut acrobatics here.
    #[allow(clippy::needless_range_loop)]
    pub fn sym_eigen(self) -> ([f64; 3], Mat3) {
        let mut a = self.0;
        let mut v = Mat3::IDENTITY.0;
        for _sweep in 0..64 {
            let off = a[0][1] * a[0][1] + a[0][2] * a[0][2] + a[1][2] * a[1][2];
            if off < 1e-28 {
                break;
            }
            for p in 0..2 {
                for q in (p + 1)..3 {
                    if a[p][q].abs() < 1e-300 {
                        continue;
                    }
                    let theta = (a[q][q] - a[p][p]) / (2.0 * a[p][q]);
                    let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                    let c = 1.0 / (t * t + 1.0).sqrt();
                    let s = t * c;
                    for k in 0..3 {
                        let akp = a[k][p];
                        let akq = a[k][q];
                        a[k][p] = c * akp - s * akq;
                        a[k][q] = s * akp + c * akq;
                    }
                    for k in 0..3 {
                        let apk = a[p][k];
                        let aqk = a[q][k];
                        a[p][k] = c * apk - s * aqk;
                        a[q][k] = s * apk + c * aqk;
                    }
                    for k in 0..3 {
                        let vkp = v[k][p];
                        let vkq = v[k][q];
                        v[k][p] = c * vkp - s * vkq;
                        v[k][q] = s * vkp + c * vkq;
                    }
                }
            }
        }
        let mut pairs = [(a[0][0], 0usize), (a[1][1], 1), (a[2][2], 2)];
        pairs.sort_by(|x, y| y.0.partial_cmp(&x.0).unwrap_or(std::cmp::Ordering::Equal));
        let vals = [pairs[0].0, pairs[1].0, pairs[2].0];
        let mut vecs = [[0.0; 3]; 3];
        for (newcol, &(_, oldcol)) in pairs.iter().enumerate() {
            for k in 0..3 {
                vecs[k][newcol] = v[k][oldcol];
            }
        }
        (vals, Mat3(vecs))
    }

    pub fn col(self, j: usize) -> Vec3 {
        Vec3::new(self.0[0][j], self.0[1][j], self.0[2][j])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mul_identity() {
        let m = Mat3([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 10.0]]);
        assert_eq!(m.mul_mat(Mat3::IDENTITY), m);
        assert_eq!(
            Mat3::IDENTITY.mul_vec(Vec3::new(1.0, 2.0, 3.0)),
            Vec3::new(1.0, 2.0, 3.0)
        );
    }

    #[test]
    fn det_of_singular_is_zero() {
        let m = Mat3([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 1.0]]);
        assert!(m.det().abs() < 1e-12);
    }

    #[test]
    fn sym_eigen_diagonal() {
        let m = Mat3([[3.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0]]);
        let (vals, _) = m.sym_eigen();
        assert!((vals[0] - 3.0).abs() < 1e-12);
        assert!((vals[1] - 2.0).abs() < 1e-12);
        assert!((vals[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sym_eigen_reconstructs_matrix() {
        let m = Mat3([[2.0, 1.0, 0.5], [1.0, 3.0, 0.2], [0.5, 0.2, 1.5]]);
        let (vals, vecs) = m.sym_eigen();
        // Reconstruct sum λ_i v_i v_iᵀ.
        let mut r = Mat3::ZERO;
        for (i, &l) in vals.iter().enumerate() {
            let u = vecs.col(i);
            r = r.add(Mat3::outer(u, u).scale(l));
        }
        for i in 0..3 {
            for j in 0..3 {
                assert!((r.0[i][j] - m.0[i][j]).abs() < 1e-10, "({i},{j})");
            }
        }
    }
}
