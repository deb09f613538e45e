//! Smooth Particle Mesh Ewald (Essmann et al. 1995).
//!
//! The method of choice on commodity hardware, and the baseline Anton's GSE
//! replaces: B-spline charge assignment is cheap on a CPU but is *not* a
//! radially symmetric function of distance, so it cannot run on Anton's
//! table-driven pairwise pipelines (paper §3.1). `refmd` uses this module;
//! the workspace's force-accuracy references use it with conservative
//! parameters (fine mesh, high order, tight β).

use crate::mesh::Mesh;
use anton_fft::{Complex, Fft3d};
use anton_forcefield::units::COULOMB;
use anton_geometry::Vec3;

/// Cardinal B-spline `M_n(u)`, supported on `(0, n)`.
pub fn bspline(n: usize, u: f64) -> f64 {
    if u <= 0.0 || u >= n as f64 {
        return 0.0;
    }
    if n == 2 {
        return 1.0 - (u - 1.0).abs();
    }
    let nf = n as f64;
    (u / (nf - 1.0)) * bspline(n - 1, u) + ((nf - u) / (nf - 1.0)) * bspline(n - 1, u - 1.0)
}

/// Derivative `M_n'(u) = M_{n-1}(u) − M_{n-1}(u−1)`.
pub fn bspline_deriv(n: usize, u: f64) -> f64 {
    bspline(n - 1, u) - bspline(n - 1, u - 1.0)
}

/// An SPME plan.
pub struct Spme {
    pub mesh: Mesh,
    pub beta: f64,
    pub order: usize,
    fft: Fft3d,
    /// Precomputed `(4π/k²)·e^{−k²/4β²}·|b₁b₂b₃|²/V` per FFT bin (k=0 → 0).
    dk: Vec<f64>,
}

impl Spme {
    pub fn new(mesh: Mesh, beta: f64, order: usize) -> Spme {
        assert!(
            order >= 3 && order.is_multiple_of(2),
            "SPME order must be even and ≥ 4"
        );
        let [nx, ny, nz] = mesh.dims;
        let fft = Fft3d::new(nx, ny, nz);
        let bx = euler_factors(nx, order);
        let by = euler_factors(ny, order);
        let bz = euler_factors(nz, order);
        let v = mesh.pbox.volume();
        let mut dk = vec![0.0; mesh.len()];
        for kz in 0..nz {
            for ky in 0..ny {
                for kx in 0..nx {
                    let k = mesh.wave_vector(kx, ky, kz);
                    let k2 = k.norm2();
                    if k2 < 1e-12 {
                        continue;
                    }
                    dk[mesh.index(kx, ky, kz)] = 4.0 * std::f64::consts::PI / k2
                        * (-k2 / (4.0 * beta * beta)).exp()
                        * bx[kx]
                        * by[ky]
                        * bz[kz]
                        / v;
                }
            }
        }
        Spme {
            mesh,
            beta,
            order,
            fft,
            dk,
        }
    }

    /// Reciprocal energy (self-energy subtracted) with forces accumulated
    /// into `forces`: the three stages below, in order. A caller that
    /// profiles (the Table 2 x86 breakdown separates "FFT & inverse FFT"
    /// from "mesh interpolation") calls the stages itself and times them.
    pub fn compute(&self, positions: &[Vec3], charges: &[f64], forces: &mut [Vec3]) -> f64 {
        let rho = self.assign_charges(positions, charges);
        let (conv, energy) = self.convolve(&rho, charges);
        self.gather_forces(positions, charges, &conv, forces);
        energy
    }

    /// Position in mesh units along each axis.
    fn scaled(&self, p: Vec3) -> Vec3 {
        let [nx, ny, nz] = self.mesh.dims;
        let f = self.mesh.pbox.to_frac(p);
        Vec3::new(f.x * nx as f64, f.y * ny as f64, f.z * nz as f64)
    }

    /// Stage 1, charge assignment: B-spline spreading onto the mesh.
    pub fn assign_charges(&self, positions: &[Vec3], charges: &[f64]) -> Vec<f64> {
        let mut q_arr = vec![0.0f64; self.mesh.len()];
        for (p, &q) in positions.iter().zip(charges) {
            if q == 0.0 {
                continue;
            }
            spread_bspline(&mut q_arr, self.mesh.dims, self.scaled(*p), q, self.order);
        }
        q_arr
    }

    /// Stage 2, convolution: forward FFT, Fourier-space multiply, inverse
    /// FFT. Returns the convolved mesh and the reciprocal energy with the
    /// self-energy of `charges` subtracted.
    pub fn convolve(&self, q_arr: &[f64], charges: &[f64]) -> (Vec<f64>, f64) {
        let mut grid: Vec<Complex> = q_arr.iter().map(|&x| Complex::new(x, 0.0)).collect();
        self.fft.forward(&mut grid);
        let mut energy = 0.0;
        for (g, &d) in grid.iter_mut().zip(&self.dk) {
            energy += 0.5 * d * g.norm2();
            *g = g.scale(d);
        }
        self.fft.inverse(&mut grid);
        // Our inverse carries 1/N; the Parseval identity wants the plain sum,
        // so scale the convolution array by N.
        let n_total = self.mesh.len() as f64;
        let conv: Vec<f64> = grid.iter().map(|c| c.re * n_total).collect();
        energy *= COULOMB;
        let self_energy = COULOMB * self.beta / std::f64::consts::PI.sqrt()
            * charges.iter().map(|q| q * q).sum::<f64>();
        (conv, energy - self_energy)
    }

    /// Stage 3, force gather: interpolate the convolved mesh's gradient at
    /// each charge and accumulate into `forces`.
    pub fn gather_forces(
        &self,
        positions: &[Vec3],
        charges: &[f64],
        conv: &[f64],
        forces: &mut [Vec3],
    ) {
        let [nx, ny, nz] = self.mesh.dims;
        let e = self.mesh.pbox.edge();
        for (i, (p, &q)) in positions.iter().zip(charges).enumerate() {
            if q == 0.0 {
                continue;
            }
            let f = force_bspline(conv, self.mesh.dims, self.scaled(*p), q, self.order);
            // d u / d r = N / L per axis.
            forces[i] += Vec3::new(
                -f.x * nx as f64 / e.x,
                -f.y * ny as f64 / e.y,
                -f.z * nz as f64 / e.z,
            ) * COULOMB;
        }
    }
}

/// `|b(k)|²` Euler factor per axis bin.
fn euler_factors(n_mesh: usize, order: usize) -> Vec<f64> {
    (0..n_mesh)
        .map(|k| {
            let mut re = 0.0;
            let mut im = 0.0;
            for j in 0..(order - 1) {
                let phase = 2.0 * std::f64::consts::PI * k as f64 * j as f64 / n_mesh as f64;
                let m = bspline(order, (j + 1) as f64);
                re += m * phase.cos();
                im += m * phase.sin();
            }
            1.0 / (re * re + im * im)
        })
        .collect()
}

fn spread_bspline(q_arr: &mut [f64], dims: [usize; 3], u: Vec3, q: f64, order: usize) {
    let base = [u.x.floor() as i64, u.y.floor() as i64, u.z.floor() as i64];
    let mut wx = [0.0f64; 8];
    let mut wy = [0.0f64; 8];
    let mut wz = [0.0f64; 8];
    for t in 0..order {
        // Mesh point m = base − t; weight M_n(u − m) with argument in (0, n).
        wx[t] = bspline(order, u.x - (base[0] - t as i64) as f64);
        wy[t] = bspline(order, u.y - (base[1] - t as i64) as f64);
        wz[t] = bspline(order, u.z - (base[2] - t as i64) as f64);
    }
    for (tz, &wz_t) in wz.iter().enumerate().take(order) {
        let mz = (base[2] - tz as i64).rem_euclid(dims[2] as i64) as usize;
        for (ty, &wy_t) in wy.iter().enumerate().take(order) {
            let my = (base[1] - ty as i64).rem_euclid(dims[1] as i64) as usize;
            let row = dims[0] * (my + dims[1] * mz);
            for (tx, &wx_t) in wx.iter().enumerate().take(order) {
                let mx = (base[0] - tx as i64).rem_euclid(dims[0] as i64) as usize;
                q_arr[row + mx] += q * wx_t * wy_t * wz_t;
            }
        }
    }
}

/// Gradient of the interpolated convolution with respect to the *scaled*
/// coordinate u (per axis); the caller converts to Cartesian.
fn force_bspline(conv: &[f64], dims: [usize; 3], u: Vec3, q: f64, order: usize) -> Vec3 {
    let base = [u.x.floor() as i64, u.y.floor() as i64, u.z.floor() as i64];
    let mut wx = [0.0f64; 8];
    let mut wy = [0.0f64; 8];
    let mut wz = [0.0f64; 8];
    let mut dx = [0.0f64; 8];
    let mut dy = [0.0f64; 8];
    let mut dz = [0.0f64; 8];
    for t in 0..order {
        let ax = u.x - (base[0] - t as i64) as f64;
        let ay = u.y - (base[1] - t as i64) as f64;
        let az = u.z - (base[2] - t as i64) as f64;
        wx[t] = bspline(order, ax);
        wy[t] = bspline(order, ay);
        wz[t] = bspline(order, az);
        dx[t] = bspline_deriv(order, ax);
        dy[t] = bspline_deriv(order, ay);
        dz[t] = bspline_deriv(order, az);
    }
    let mut g = Vec3::ZERO;
    for tz in 0..order {
        let mz = (base[2] - tz as i64).rem_euclid(dims[2] as i64) as usize;
        for ty in 0..order {
            let my = (base[1] - ty as i64).rem_euclid(dims[1] as i64) as usize;
            let row = dims[0] * (my + dims[1] * mz);
            for tx in 0..order {
                let mx = (base[0] - tx as i64).rem_euclid(dims[0] as i64) as usize;
                let c = conv[row + mx] * q;
                g.x += c * dx[tx] * wy[ty] * wz[tz];
                g.y += c * wx[tx] * dy[ty] * wz[tz];
                g.z += c * wx[tx] * wy[ty] * dz[tz];
            }
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::ewald_kspace;
    use anton_geometry::PeriodicBox;
    use rand::{Rng, SeedableRng};

    #[test]
    fn bspline_partition_of_unity() {
        // Σ_j M_n(u + j) = 1 for any u.
        for &n in &[2usize, 3, 4, 6] {
            for i in 0..10 {
                let u = 0.1 * i as f64;
                let total: f64 = (0..n as i64 + 1).map(|j| bspline(n, u + j as f64)).sum();
                assert!((total - 1.0).abs() < 1e-12, "n={n} u={u}: {total}");
            }
        }
    }

    #[test]
    fn bspline_deriv_matches_fd() {
        for &n in &[3usize, 4, 6] {
            for i in 1..(10 * n) {
                let u = 0.1 * i as f64;
                let h = 1e-7;
                let fd = (bspline(n, u + h) - bspline(n, u - h)) / (2.0 * h);
                assert!((bspline_deriv(n, u) - fd).abs() < 1e-6, "n={n} u={u}");
            }
        }
    }

    #[test]
    fn spme_matches_exact_kspace() {
        let pbox = PeriodicBox::cubic(14.0);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(31);
        let n = 40;
        let pos: Vec<Vec3> = (0..n)
            .map(|_| {
                Vec3::new(
                    rng.gen::<f64>() * 14.0,
                    rng.gen::<f64>() * 14.0,
                    rng.gen::<f64>() * 14.0,
                )
            })
            .collect();
        let q: Vec<f64> = (0..n)
            .map(|i| if i % 2 == 0 { 0.6 } else { -0.6 })
            .collect();
        let beta = 0.5;

        let spme = Spme::new(Mesh::new([32; 3], pbox), beta, 6);
        let mut f_spme = vec![Vec3::ZERO; n];
        let e_spme = spme.compute(&pos, &q, &mut f_spme);

        let mut f_exact = vec![Vec3::ZERO; n];
        let e_k = ewald_kspace(&pbox, &pos, &q, beta, 16, &mut f_exact);
        let self_e =
            COULOMB * beta / std::f64::consts::PI.sqrt() * q.iter().map(|x| x * x).sum::<f64>();
        let e_exact = e_k - self_e;

        assert!(
            (e_spme - e_exact).abs() < 1e-4 * e_exact.abs().max(1.0),
            "{e_spme} vs {e_exact}"
        );
        let mut num = 0.0;
        let mut den = 0.0;
        for (a, b) in f_spme.iter().zip(&f_exact) {
            num += (*a - *b).norm2();
            den += b.norm2();
        }
        assert!(
            (num / den).sqrt() < 1e-4,
            "force rel err {:e}",
            (num / den).sqrt()
        );
    }

    #[test]
    fn spme_force_is_gradient() {
        let pbox = PeriodicBox::cubic(10.0);
        let mut pos = vec![
            Vec3::new(1.0, 2.0, 3.0),
            Vec3::new(6.0, 7.0, 2.0),
            Vec3::new(3.0, 8.0, 8.0),
            Vec3::new(8.0, 3.0, 6.0),
        ];
        let q = vec![0.7, -0.7, 0.3, -0.3];
        let spme = Spme::new(Mesh::new([16; 3], pbox), 0.6, 4);
        let mut f = vec![Vec3::ZERO; 4];
        spme.compute(&pos, &q, &mut f);
        let h = 1e-5;
        for i in 0..4 {
            for ax in 0..3 {
                pos[i][ax] += h;
                let mut t = vec![Vec3::ZERO; 4];
                let ep = spme.compute(&pos, &q, &mut t);
                pos[i][ax] -= 2.0 * h;
                let mut t2 = vec![Vec3::ZERO; 4];
                let em = spme.compute(&pos, &q, &mut t2);
                pos[i][ax] += h;
                let num = -(ep - em) / (2.0 * h);
                assert!(
                    (f[i][ax] - num).abs() < 1e-3 * (1.0 + num.abs()),
                    "atom {i} ax {ax}: {} vs {num}",
                    f[i][ax]
                );
            }
        }
    }
}
