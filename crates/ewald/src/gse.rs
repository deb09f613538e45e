//! Gaussian Split Ewald (GSE).
//!
//! Most high-performance codes use SPME, whose B-spline charge assignment is
//! incompatible with Anton's PPIPs: the pipelines compute interactions as a
//! *table-driven function of the distance* between two points. GSE (Shan,
//! Klepeis, Eastwood, Dror & Shaw 2005) replaces the B-splines with radially
//! symmetric Gaussians, which let Anton run charge spreading and force
//! interpolation on the HTIS "with minimal hardware modification" (§3.1).
//!
//! The decomposition: with Ewald splitting parameter β, the reciprocal-space
//! interaction is a Gaussian-screened Coulomb term of total variance
//! σ² = 1/(2β²). GSE realizes it as
//!
//! ```text
//!   spread (σ_s)  →  Fourier multiply (4π/k²)·exp(-σ_r²k²/2)  →  interpolate (σ_s)
//! ```
//!
//! with σ² = 2σ_s² + σ_r². Spreading and interpolation use the *same*
//! truncated Gaussian window, so the interpolated force is the exact gradient
//! of the mesh energy. The window is shifted to zero at its truncation radius
//! (per axis) so that the energy is continuous when an atom's mesh support
//! set changes — this keeps the NVE energy drift small.
//!
//! Two implementations share the math:
//! * [`GseReference`] — `f64`, used by tests and the reference engine.
//! * [`GseFixed`] — the deterministic path the Anton engine runs: fixed-point
//!   mesh accumulation (order-free wrapping adds), the *distributed*
//!   fixed-point pencil-exchange FFT of `anton-fft` (planned for the
//!   simulated node grid), and quantized Green's-function coefficients. The
//!   phase decomposes as per-rank spreading ([`GseFixed::spread_into`]) →
//!   rank-ordered mesh merge → FFT trunk ([`GseFixed::transform`]) →
//!   per-rank interpolation ([`GseFixed::interpolate_into`]); its output is
//!   bitwise independent of how atoms are distributed across nodes/threads.
//!   All hot-path buffers live in a caller-owned [`GseScratch`], so steady
//!   state evaluations are allocation-free.

use crate::mesh::Mesh;
use anton_fft::fixed::FxComplex;
use anton_fft::{CommStats, Complex, Fft3d, FxDistributedFft3d};
use anton_fixpoint::rounding::rne_f64;
use anton_forcefield::units::COULOMB;
use anton_geometry::Vec3;

/// GSE parameters.
#[derive(Clone, Copy, Debug)]
pub struct GseParams {
    /// Ewald splitting parameter (1/Å).
    pub beta: f64,
    /// Spreading/interpolation Gaussian width (Å).
    pub sigma_s: f64,
    /// Remaining Fourier-space variance σ_r² = σ² − 2σ_s² ≥ 0 (Å²).
    pub sigma_r2: f64,
    /// Truncation radius of the spreading window (Å).
    pub spread_cutoff: f64,
}

impl GseParams {
    /// Derive parameters from a direct-space cutoff and spreading cutoff:
    /// β makes erfc(β·rc) = 1e-5; σ_s takes (almost) all of the smearing the
    /// mesh can absorb, capped so the spreading window fits `spread_cutoff`.
    pub fn auto(cutoff: f64, spread_cutoff: f64) -> GseParams {
        // erfc(x) = 1e-5 at x ≈ 3.123.
        let beta = 3.123 / cutoff;
        let sigma2 = 1.0 / (2.0 * beta * beta);
        // σ_s at 98% of the budget keeps σ_r² ≥ 0 with a little slack, and
        // never wider than the truncation radius allows (4.2 σ).
        let sigma_s = (0.98 * (sigma2 / 2.0).sqrt()).min(spread_cutoff / 4.2);
        let sigma_r2 = (sigma2 - 2.0 * sigma_s * sigma_s).max(0.0);
        GseParams {
            beta,
            sigma_s,
            sigma_r2,
            spread_cutoff,
        }
    }

    /// The per-axis window: a truncated, shifted Gaussian
    /// `w(d) = exp(-d²/2σ_s²) − exp(-r_t²/2σ_s²)` for `|d| < r_t`, else 0.
    #[inline]
    pub fn window_1d(&self, d: f64) -> f64 {
        let s2 = self.sigma_s * self.sigma_s;
        let shift = (-self.spread_cutoff * self.spread_cutoff / (2.0 * s2)).exp();
        if d.abs() >= self.spread_cutoff {
            0.0
        } else {
            (-d * d / (2.0 * s2)).exp() - shift
        }
    }

    /// Derivative of [`Self::window_1d`].
    #[inline]
    pub fn window_1d_deriv(&self, d: f64) -> f64 {
        let s2 = self.sigma_s * self.sigma_s;
        if d.abs() >= self.spread_cutoff {
            0.0
        } else {
            -d / s2 * (-d * d / (2.0 * s2)).exp()
        }
    }

    /// Normalization constant of the 3D window (inverse of its integral),
    /// so that a spread charge integrates to the point charge.
    pub fn norm(&self) -> f64 {
        // ∫w dx = σ√(2π)·erf(rt/σ√2) − 2 rt · shift.
        let s = self.sigma_s;
        let rt = self.spread_cutoff;
        let shift = (-rt * rt / (2.0 * s * s)).exp();
        let integral_1d = s
            * (2.0 * std::f64::consts::PI).sqrt()
            * anton_forcefield::units::erf(rt / (s * std::f64::consts::SQRT_2))
            - 2.0 * rt * shift;
        1.0 / (integral_1d * integral_1d * integral_1d)
    }

    /// Fourier-space Green's function (Å² units; no Coulomb constant):
    /// `4π/k² · exp(-(σ_r² + corrections) k²/2)` with the two window
    /// convolutions compensated analytically as pure Gaussians.
    #[inline]
    pub fn green(&self, k2: f64) -> f64 {
        if k2 < 1e-12 {
            0.0 // tinfoil boundary, neutral system
        } else {
            4.0 * std::f64::consts::PI / k2 * (-self.sigma_r2 * k2 / 2.0).exp()
        }
    }
}

/// Reusable per-axis window/derivative buffers for the separable support
/// iteration. One lives in every rank's private mesh scratch so the hot
/// path never allocates; the reference path makes throwaway ones.
#[derive(Clone, Debug, Default)]
pub struct SupportScratch {
    wx: Vec<f64>,
    dwx: Vec<f64>,
    wy: Vec<f64>,
    dwy: Vec<f64>,
    wz: Vec<f64>,
    dwz: Vec<f64>,
}

/// Visit every mesh point within the (per-axis) support of the window
/// around `p`, passing the flattened index, the window value, and its
/// gradient with respect to the atom position. Shared by the reference and
/// fixed-point paths; `s` holds the separable per-axis tables, reused
/// across calls.
pub fn visit_support(
    mesh: &Mesh,
    params: &GseParams,
    p: Vec3,
    s: &mut SupportScratch,
    mut f: impl FnMut(usize, f64, Vec3),
) {
    let [nx, ny, nz] = mesh.dims;
    let rt = params.spread_cutoff;
    let (x0, cx) = mesh.support(p.x, rt, 0);
    let (y0, cy) = mesh.support(p.y, rt, 1);
    let (z0, cz) = mesh.support(p.z, rt, 2);
    let h = mesh.spacing();

    // Per-axis window values and derivatives (separable).
    s.wx.clear();
    s.dwx.clear();
    for a in 0..cx {
        let d = p.x - (x0 + a as i64) as f64 * h.x;
        s.wx.push(params.window_1d(d));
        s.dwx.push(params.window_1d_deriv(d));
    }
    s.wy.clear();
    s.dwy.clear();
    for b in 0..cy {
        let d = p.y - (y0 + b as i64) as f64 * h.y;
        s.wy.push(params.window_1d(d));
        s.dwy.push(params.window_1d_deriv(d));
    }
    s.wz.clear();
    s.dwz.clear();
    for c in 0..cz {
        let d = p.z - (z0 + c as i64) as f64 * h.z;
        s.wz.push(params.window_1d(d));
        s.dwz.push(params.window_1d_deriv(d));
    }

    for c in 0..cz {
        let mz = (z0 + c as i64).rem_euclid(nz as i64) as usize;
        for b in 0..cy {
            let my = (y0 + b as i64).rem_euclid(ny as i64) as usize;
            let base = nx * (my + ny * mz);
            for a in 0..cx {
                let mx = (x0 + a as i64).rem_euclid(nx as i64) as usize;
                let w = s.wx[a] * s.wy[b] * s.wz[c];
                let grad = Vec3::new(
                    s.dwx[a] * s.wy[b] * s.wz[c],
                    s.wx[a] * s.dwy[b] * s.wz[c],
                    s.wx[a] * s.wy[b] * s.dwz[c],
                );
                f(base + mx, w, grad);
            }
        }
    }
}

/// Double-precision GSE on a mesh.
pub struct GseReference {
    pub mesh: Mesh,
    pub params: GseParams,
    fft: Fft3d,
    green: Vec<f64>,
}

/// Result of one reciprocal-space evaluation.
#[derive(Clone, Copy, Debug, Default)]
pub struct RecipEnergy {
    /// Mesh (reciprocal) energy including the self-term (kcal/mol).
    pub mesh_energy: f64,
    /// Analytic self-energy already subtracted from `energy`.
    pub self_energy: f64,
    /// mesh_energy − self_energy.
    pub energy: f64,
}

impl GseReference {
    pub fn new(mesh: Mesh, params: GseParams) -> GseReference {
        let [nx, ny, nz] = mesh.dims;
        let fft = Fft3d::new(nx, ny, nz);
        let green = build_green_table(&mesh, &params);
        GseReference {
            mesh,
            params,
            fft,
            green,
        }
    }

    /// Compute reciprocal-space energy and add forces into `forces`.
    pub fn compute(&self, positions: &[Vec3], charges: &[f64], forces: &mut [Vec3]) -> RecipEnergy {
        let n_mesh = self.mesh.len();
        let mut rho = vec![0.0f64; n_mesh];
        let norm = self.params.norm();

        // 1. Charge spreading.
        for (p, &q) in positions.iter().zip(charges) {
            if q == 0.0 {
                continue;
            }
            self.spread_one(*p, q * norm, &mut rho);
        }

        // 2. FFT → Green multiply → inverse FFT.
        let mut grid: Vec<Complex> = rho.iter().map(|&r| Complex::new(r, 0.0)).collect();
        self.fft.forward(&mut grid);
        for (g, &gr) in grid.iter_mut().zip(&self.green) {
            *g = g.scale(gr);
        }
        self.fft.inverse(&mut grid);
        let phi: Vec<f64> = grid.iter().map(|c| c.re).collect();

        // 3. Mesh energy ½ ∫φρ ≈ ½ Vc Σ φ_m ρ_m.
        let vc = self.mesh.cell_volume();
        let mesh_energy: f64 =
            0.5 * COULOMB * vc * phi.iter().zip(&rho).map(|(a, b)| a * b).sum::<f64>();

        // 4. Force interpolation with the same window.
        for (i, (p, &q)) in positions.iter().zip(charges).enumerate() {
            if q == 0.0 {
                continue;
            }
            let f = self.interpolate_force(*p, &phi);
            forces[i] += f * (q * norm * vc * COULOMB);
        }

        let self_energy = COULOMB * self.params.beta / std::f64::consts::PI.sqrt()
            * charges.iter().map(|q| q * q).sum::<f64>();
        RecipEnergy {
            mesh_energy,
            self_energy,
            energy: mesh_energy - self_energy,
        }
    }

    fn spread_one(&self, p: Vec3, qn: f64, rho: &mut [f64]) {
        self.for_each_support(p, |idx, w, _dw| rho[idx] += qn * w);
    }

    fn interpolate_force(&self, p: Vec3, phi: &[f64]) -> Vec3 {
        let mut f = Vec3::ZERO;
        self.for_each_support(p, |idx, _w, dw| f -= phi[idx] * 1.0 * dw);
        f
    }

    fn for_each_support(&self, p: Vec3, f: impl FnMut(usize, f64, Vec3)) {
        visit_support(
            &self.mesh,
            &self.params,
            p,
            &mut SupportScratch::default(),
            f,
        );
    }
}

/// Green table in FFT-bin order. With density samples ρ_m (e/Å³), a plain
/// forward FFT, and a 1/N inverse, the potential samples come out as
/// `φ = IFFT[G(k)·FFT[ρ]]` with **no** volume factors: the continuum pair
/// `ρ̂ = Vc·FFT[ρ]`, `φ_m = (N/V)·IFFT[φ̂]` cancels because `N·Vc = V`.
fn build_green_table(mesh: &Mesh, params: &GseParams) -> Vec<f64> {
    let [nx, ny, nz] = mesh.dims;
    let mut green = vec![0.0; mesh.len()];
    for kz in 0..nz {
        for ky in 0..ny {
            for kx in 0..nx {
                let k = mesh.wave_vector(kx, ky, kz);
                green[mesh.index(kx, ky, kz)] = params.green(k.norm2());
            }
        }
    }
    green
}

// ---------------------------------------------------------------------------
// Fixed-point path
// ---------------------------------------------------------------------------

/// Fraction bits of the fixed-point charge mesh.
pub const MESH_FRAC: u32 = 40;
/// Fraction bits of the quantized Green coefficients.
pub const GREEN_FRAC: u32 = 24;

/// Sub-stage boundaries of the mesh trunk, reported by
/// [`GseFixed::transform_marked`] in this order. The discriminant doubles
/// as an index for observers collecting per-stage timestamps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransformStage {
    /// Charge mesh loaded into the complex grid; forward FFT about to run.
    Begin = 0,
    /// Forward transform done; Green multiply about to run.
    ForwardDone = 1,
    /// Green multiply done; inverse transform about to run.
    GreenDone = 2,
    /// Inverse transform done; potential mesh about to be extracted.
    InverseDone = 3,
}

/// One rank's view of its resident atoms for the mesh phase: the shared
/// position/charge arrays plus the indices of the atoms this rank spreads
/// and interpolates (its home-box population under the decomposition).
#[derive(Clone, Copy)]
pub struct MeshAtoms<'a> {
    pub positions: &'a [Vec3],
    pub charges: &'a [f64],
    /// Atom indices this rank owns.
    pub atoms: &'a [u32],
}

/// Reusable buffers of one reciprocal evaluation — the allocation-free hot
/// path. `rho_q` is the merged charge mesh the FFT trunk consumes; `phi_q`
/// is the potential mesh every rank reads back during interpolation.
#[derive(Clone, Debug, Default)]
pub struct GseScratch {
    /// Q `MESH_FRAC` spread charge (per-rank accumulators are merged into
    /// this in fixed rank order before the FFT).
    pub rho_q: Vec<i64>,
    grid: Vec<FxComplex>,
    /// Q `MESH_FRAC` interpolation potential (shared, read-only fan-out).
    pub phi_q: Vec<i64>,
    line: Vec<FxComplex>,
}

impl GseScratch {
    /// Reset the charge mesh to `n_mesh` zeros, reusing capacity.
    pub fn begin(&mut self, n_mesh: usize) {
        self.rho_q.clear();
        self.rho_q.resize(n_mesh, 0);
    }
}

/// The deterministic fixed-point GSE pipeline used by the Anton engine.
///
/// Charge spreading accumulates quantized contributions into an `i64` mesh
/// with wrapping adds (order-free → bitwise parallel invariance); the FFT is
/// the distributed fixed-point pencil-exchange transform of `anton-fft`,
/// planned over the simulated node grid; the Green coefficients are
/// quantized once at plan time. Interpolated forces are quantized on output.
pub struct GseFixed {
    pub mesh: Mesh,
    pub params: GseParams,
    fft: FxDistributedFft3d,
    /// Quantized Green table (Q `GREEN_FRAC`), including the volume factor
    /// and the FFT scale compensation (an exact power of two).
    green_q: Vec<i64>,
    /// log2 of the total mesh size (forward FFT scale to undo).
    log2n: u32,
    /// 3D window normalization, a pure function of `params`, fixed at plan
    /// time so the per-atom hot loops never recompute the erf.
    norm: f64,
}

impl GseFixed {
    /// A single-node (undistributed) plan.
    pub fn new(mesh: Mesh, params: GseParams) -> GseFixed {
        GseFixed::with_nodes(mesh, params, [1, 1, 1])
    }

    /// Plan the mesh phase for a simulated `nodes` grid: each node owns a
    /// slab of the mesh and the FFT exchanges pencils over the grid
    /// (paper §3.2.2). Node dimensions are clamped per axis so every one
    /// divides the mesh (both are powers of two). The *results* are bitwise
    /// identical for every grid; only the modeled message pattern changes.
    pub fn with_nodes(mesh: Mesh, params: GseParams, nodes: [usize; 3]) -> GseFixed {
        let dims = mesh.dims;
        let nodes = [
            nodes[0].min(dims[0]),
            nodes[1].min(dims[1]),
            nodes[2].min(dims[2]),
        ];
        let green_f = build_green_table(&mesh, &params);
        let green_q = green_f
            .iter()
            .map(|&g| rne_f64(g * (1i64 << GREEN_FRAC) as f64) as i64)
            .collect();
        let log2n = (mesh.len() as u64).trailing_zeros();
        let norm = params.norm();
        GseFixed {
            fft: FxDistributedFft3d::new(dims, nodes),
            mesh,
            params,
            green_q,
            log2n,
            norm,
        }
    }

    /// The (clamped) node grid the FFT is planned over.
    pub fn node_dims(&self) -> [usize; 3] {
        self.fft.node_dims()
    }

    /// Static pencil-exchange statistics of one 3D transform.
    pub fn fft_stats(&self) -> &CommStats {
        self.fft.stats()
    }

    /// Spread one quantized charge into the mesh (order-free accumulation).
    #[inline]
    fn spread_one(&self, p: Vec3, q: f64, rho_q: &mut [i64], st: &mut SupportScratch) {
        let norm = self.norm;
        let scale = (1i64 << MESH_FRAC) as f64;
        visit_support(&self.mesh, &self.params, p, st, |idx, w, _| {
            let contrib = rne_f64(q * norm * w * scale) as i64;
            rho_q[idx] = rho_q[idx].wrapping_add(contrib);
        });
    }

    /// Interpolate one atom's energy and force from the potential mesh.
    /// Per-atom terms are computed in f64 from the fixed mesh
    /// (deterministic) and quantized before the order-free accumulation.
    #[inline]
    fn interpolate_one(
        &self,
        p: Vec3,
        q: f64,
        phi_q: &[i64],
        force_frac: u32,
        f_out: &mut [i64; 3],
        st: &mut SupportScratch,
    ) -> i64 {
        let inv_scale = 1.0 / (1i64 << MESH_FRAC) as f64;
        let vc = self.mesh.cell_volume();
        let mut e = 0.0f64;
        let mut f = Vec3::ZERO;
        visit_support(&self.mesh, &self.params, p, st, |idx, w, dw| {
            let phi = phi_q[idx] as f64 * inv_scale;
            e += phi * w;
            f -= phi * 1.0 * dw;
        });
        let qn = q * self.norm * vc * COULOMB;
        let e_i = 0.5 * e * qn - COULOMB * self.params.beta / std::f64::consts::PI.sqrt() * q * q;
        let fs = (1i64 << force_frac) as f64;
        f_out[0] = f_out[0].wrapping_add(rne_f64(f.x * qn * fs) as i64);
        f_out[1] = f_out[1].wrapping_add(rne_f64(f.y * qn * fs) as i64);
        f_out[2] = f_out[2].wrapping_add(rne_f64(f.z * qn * fs) as i64);
        rne_f64(e_i * (1u64 << 32) as f64) as i64
    }

    /// Spread a rank's resident atoms into its *private* charge mesh. The
    /// caller merges rank meshes in fixed rank order with wrapping adds —
    /// since every contribution is quantized before accumulation, any
    /// partition of atoms over ranks produces the identical merged mesh.
    pub fn spread_into(&self, view: MeshAtoms, rho_q: &mut [i64], st: &mut SupportScratch) {
        for &a in view.atoms {
            let i = a as usize;
            let q = view.charges[i];
            if q == 0.0 {
                continue;
            }
            self.spread_one(view.positions[i], q, rho_q, st);
        }
    }

    /// Interpolate a rank's resident atoms from the shared potential mesh
    /// into its private force accumulator; returns the rank's Q32
    /// reciprocal-energy contribution (wrapping-accumulated by the caller).
    pub fn interpolate_into(
        &self,
        view: MeshAtoms,
        phi_q: &[i64],
        force_frac: u32,
        forces_raw: &mut [[i64; 3]],
        st: &mut SupportScratch,
    ) -> i64 {
        let mut energy_q: i64 = 0;
        for &a in view.atoms {
            let i = a as usize;
            let q = view.charges[i];
            if q == 0.0 {
                continue;
            }
            energy_q = energy_q.wrapping_add(self.interpolate_one(
                view.positions[i],
                q,
                phi_q,
                force_frac,
                &mut forces_raw[i],
                st,
            ));
        }
        energy_q
    }

    /// The mesh trunk between spreading and interpolation: forward fixed
    /// FFT over `s.rho_q`, Green multiply (Q `GREEN_FRAC`, undoing the
    /// forward 1/N scale with an exact left shift folded into the rounding
    /// shift), inverse fixed FFT; leaves the potential mesh in `s.phi_q`.
    /// Allocation-free in steady state.
    pub fn transform(&self, s: &mut GseScratch) {
        self.transform_marked(s, &mut |_| {});
    }

    /// [`Self::transform`] with sub-stage boundaries reported through
    /// `mark`, so an observer (the tracing layer) can time the forward
    /// transform, the Green multiply, and the inverse transform separately
    /// without this crate knowing about clocks. `mark` receives each
    /// [`TransformStage`] exactly once, in order.
    pub fn transform_marked(&self, s: &mut GseScratch, mark: &mut dyn FnMut(TransformStage)) {
        s.grid.clear();
        s.grid.extend(s.rho_q.iter().map(|&r| FxComplex::new(r, 0)));
        mark(TransformStage::Begin);
        self.fft.forward(&mut s.grid, &mut s.line);
        mark(TransformStage::ForwardDone);
        let shift = GREEN_FRAC.saturating_sub(self.log2n);
        for (g, &gq) in s.grid.iter_mut().zip(&self.green_q) {
            g.re = anton_fixpoint::rne_shr_i128(g.re as i128 * gq as i128, shift);
            g.im = anton_fixpoint::rne_shr_i128(g.im as i128 * gq as i128, shift);
        }
        mark(TransformStage::GreenDone);
        self.fft.inverse(&mut s.grid, &mut s.line);
        mark(TransformStage::InverseDone);
        s.phi_q.clear();
        s.phi_q.extend(s.grid.iter().map(|c| c.re));
    }

    /// Whole-system reciprocal evaluation on one thread — spread every
    /// atom, transform, interpolate every atom: the oracle the sharded
    /// spread/merge/interpolate composition is compared against. Positions
    /// are `f64` values understood to be already quantized; forces come
    /// back quantized to `force_frac` bits, the returned energy to 2⁻³²
    /// kcal/mol.
    #[cfg(test)]
    fn compute_fixed(
        &self,
        positions: &[Vec3],
        charges: &[f64],
        force_frac: u32,
        forces_raw: &mut [[i64; 3]],
        scratch: &mut GseScratch,
    ) -> i64 {
        let st = &mut SupportScratch::default();
        scratch.begin(self.mesh.len());
        for (p, &q) in positions.iter().zip(charges) {
            if q == 0.0 {
                continue;
            }
            self.spread_one(*p, q, &mut scratch.rho_q, st);
        }
        self.transform(scratch);
        let mut energy_q: i64 = 0;
        for (i, (p, &q)) in positions.iter().zip(charges).enumerate() {
            if q == 0.0 {
                continue;
            }
            energy_q = energy_q.wrapping_add(self.interpolate_one(
                *p,
                q,
                &scratch.phi_q,
                force_frac,
                &mut forces_raw[i],
                st,
            ));
        }
        energy_q
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::ewald_kspace;
    use anton_geometry::PeriodicBox;
    use rand::{Rng, SeedableRng};

    fn random_neutral_system(n: usize, edge: f64, seed: u64) -> (PeriodicBox, Vec<Vec3>, Vec<f64>) {
        let pbox = PeriodicBox::cubic(edge);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let pos: Vec<Vec3> = (0..n)
            .map(|_| {
                Vec3::new(
                    rng.gen::<f64>() * edge,
                    rng.gen::<f64>() * edge,
                    rng.gen::<f64>() * edge,
                )
            })
            .collect();
        let mut q: Vec<f64> = (0..n)
            .map(|i| if i % 2 == 0 { 0.5 } else { -0.5 })
            .collect();
        // jitter charges but stay neutral
        for i in 0..n / 2 {
            let dq = (rng.gen::<f64>() - 0.5) * 0.2;
            q[2 * i] += dq;
            q[2 * i + 1] -= dq;
        }
        (pbox, pos, q)
    }

    #[test]
    fn window_is_continuous_at_truncation() {
        let p = GseParams::auto(10.5, 7.1);
        let rt = p.spread_cutoff;
        assert!(p.window_1d(rt - 1e-9) < 1e-8);
        assert_eq!(p.window_1d(rt + 1e-9), 0.0);
        // And symmetric.
        assert_eq!(p.window_1d(1.3), p.window_1d(-1.3));
    }

    #[test]
    fn auto_params_satisfy_variance_budget() {
        let p = GseParams::auto(13.0, 8.8);
        let sigma2 = 1.0 / (2.0 * p.beta * p.beta);
        assert!(p.sigma_r2 >= 0.0);
        assert!((2.0 * p.sigma_s * p.sigma_s + p.sigma_r2 - sigma2).abs() < 1e-9);
        // And ~1e-5 screening at the cutoff.
        let tail = anton_forcefield::units::erfc(p.beta * 13.0);
        assert!((tail - 1e-5).abs() < 3e-6, "tail = {tail:e}");
    }

    #[test]
    fn reference_matches_exact_kspace() {
        // 64 charges in a 16 Å box; mesh 32³ (h = 0.5 Å) is fine enough that
        // GSE should match the exact reciprocal sum to ~1e-4 relative.
        let (pbox, pos, q) = random_neutral_system(64, 16.0, 5);
        let params = GseParams::auto(7.0, 4.8);
        let mesh = Mesh::new([32; 3], pbox);
        let gse = GseReference::new(mesh, params);
        let mut f_gse = vec![Vec3::ZERO; 64];
        let r = gse.compute(&pos, &q, &mut f_gse);

        let mut f_exact = vec![Vec3::ZERO; 64];
        let e_exact = ewald_kspace(&pbox, &pos, &q, params.beta, 14, &mut f_exact);
        let e_exact_minus_self = e_exact
            - COULOMB * params.beta / std::f64::consts::PI.sqrt()
                * q.iter().map(|x| x * x).sum::<f64>();

        let rel_e = (r.energy - e_exact_minus_self).abs() / e_exact_minus_self.abs();
        assert!(
            rel_e < 2e-3,
            "energy rel err {rel_e:e}: {} vs {}",
            r.energy,
            e_exact_minus_self
        );

        let mut num = 0.0;
        let mut den = 0.0;
        for (a, b) in f_gse.iter().zip(&f_exact) {
            num += (*a - *b).norm2();
            den += b.norm2();
        }
        let rel_f = (num / den).sqrt();
        assert!(rel_f < 5e-3, "force rel err {rel_f:e}");
    }

    #[test]
    fn force_is_gradient_of_energy() {
        let (pbox, mut pos, q) = random_neutral_system(16, 12.0, 7);
        let params = GseParams::auto(5.5, 3.8);
        let gse = GseReference::new(Mesh::new([16; 3], pbox), params);
        let mut f = vec![Vec3::ZERO; 16];
        gse.compute(&pos, &q, &mut f);
        let h = 1e-5;
        for i in [0usize, 7] {
            for ax in 0..3 {
                pos[i][ax] += h;
                let mut tmp = vec![Vec3::ZERO; 16];
                let ep = gse.compute(&pos, &q, &mut tmp).energy;
                pos[i][ax] -= 2.0 * h;
                let mut tmp2 = vec![Vec3::ZERO; 16];
                let em = gse.compute(&pos, &q, &mut tmp2).energy;
                pos[i][ax] += h;
                let num = -(ep - em) / (2.0 * h);
                assert!(
                    (f[i][ax] - num).abs() < 2e-4 * (1.0 + num.abs()),
                    "atom {i} axis {ax}: {} vs {num}",
                    f[i][ax]
                );
            }
        }
    }

    #[test]
    fn fixed_path_matches_reference_closely() {
        let (pbox, pos, q) = random_neutral_system(64, 16.0, 9);
        let params = GseParams::auto(7.0, 4.8);
        let mesh = Mesh::new([32; 3], pbox);
        let refr = GseReference::new(mesh.clone(), params);
        let mut f_ref = vec![Vec3::ZERO; 64];
        let r = refr.compute(&pos, &q, &mut f_ref);

        let fixed = GseFixed::new(mesh, params);
        let mut f_q = vec![[0i64; 3]; 64];
        let e_q = fixed.compute_fixed(&pos, &q, 24, &mut f_q, &mut GseScratch::default());
        let e_fixed = e_q as f64 / (1u64 << 32) as f64;

        assert!(
            (e_fixed - r.energy).abs() < 1e-3 * r.energy.abs().max(1.0),
            "{e_fixed} vs {}",
            r.energy
        );
        let mut num = 0.0;
        let mut den = 0.0;
        let fs = (1i64 << 24) as f64;
        for (a, b) in f_q.iter().zip(&f_ref) {
            let av = Vec3::new(a[0] as f64 / fs, a[1] as f64 / fs, a[2] as f64 / fs);
            num += (av - *b).norm2();
            den += b.norm2();
        }
        let rel = (num / den).sqrt();
        assert!(rel < 1e-4, "fixed-vs-ref force rel err {rel:e}");
    }

    #[test]
    fn fixed_path_is_order_invariant() {
        // Feeding atoms in a different order must produce bitwise identical
        // mesh forces — the associativity property the paper builds on.
        let (pbox, pos, q) = random_neutral_system(32, 12.0, 11);
        let params = GseParams::auto(5.5, 3.8);
        let fixed = GseFixed::new(Mesh::new([16; 3], pbox), params);

        let mut scratch = GseScratch::default();
        let mut f1 = vec![[0i64; 3]; 32];
        let e1 = fixed.compute_fixed(&pos, &q, 24, &mut f1, &mut scratch);

        // Reversed atom order (scratch reuse must not leak state between
        // evaluations).
        let pos_r: Vec<Vec3> = pos.iter().rev().copied().collect();
        let q_r: Vec<f64> = q.iter().rev().copied().collect();
        let mut f2 = vec![[0i64; 3]; 32];
        let e2 = fixed.compute_fixed(&pos_r, &q_r, 24, &mut f2, &mut scratch);
        let f2_unrev: Vec<[i64; 3]> = f2.into_iter().rev().collect();

        assert_eq!(e1, e2, "energy depends on accumulation order");
        assert_eq!(f1, f2_unrev, "forces depend on accumulation order");
    }

    #[test]
    fn distributed_mesh_phase_is_bitwise_invariant_across_node_grids() {
        // The same evaluation through FFT plans over different simulated
        // node grids must be bitwise identical: only the modeled pencil
        // message pattern changes, never the arithmetic.
        let (pbox, pos, q) = random_neutral_system(48, 18.0, 13);
        let params = GseParams::auto(9.0, 5.0);
        let mesh = Mesh::new([16; 3], pbox);

        let serial = GseFixed::new(mesh.clone(), params);
        let mut scratch = GseScratch::default();
        let mut f0 = vec![[0i64; 3]; 48];
        let e0 = serial.compute_fixed(&pos, &q, 24, &mut f0, &mut scratch);
        assert_eq!(serial.fft_stats().messages_total(), 0);

        for nodes in [[2, 2, 2], [4, 4, 4]] {
            let dist = GseFixed::with_nodes(mesh.clone(), params, nodes);
            assert_eq!(dist.node_dims(), nodes);
            assert!(dist.fft_stats().messages_total() > 0);
            assert!(dist.fft_stats().bytes_total() > 0);
            let mut f = vec![[0i64; 3]; 48];
            let e = dist.compute_fixed(&pos, &q, 24, &mut f, &mut scratch);
            assert_eq!(e0, e, "energy differs on node grid {nodes:?}");
            assert_eq!(f0, f, "forces differ on node grid {nodes:?}");
        }
    }
}
