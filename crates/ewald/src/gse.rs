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
//! [`GseFixed`] is the deterministic path the Anton engine runs: fixed-point
//! mesh accumulation (order-free wrapping adds), the *distributed*
//! fixed-point pencil-exchange FFT of `anton-fft` (planned for the simulated
//! node grid), and quantized Green's-function coefficients. The phase
//! decomposes as per-rank spreading ([`GseFixed::spread_into`]) →
//! rank-ordered mesh merge → FFT trunk ([`GseFixed::transform`]) → per-rank
//! interpolation ([`GseFixed::interpolate_into`]); its output is bitwise
//! independent of how atoms are distributed across nodes/threads. Spreading
//! and interpolation build each atom's separable stencil once
//! ([`SupportScratch`]) and then walk contiguous mesh rows. All hot-path
//! buffers live in caller-owned scratch, so steady state evaluations are
//! allocation-free. The tests keep an `f64` reference GSE and the
//! per-point visitor the stencil rows replaced, as oracles.

use crate::mesh::Mesh;
use anton_fft::fixed::FxComplex;
use anton_fft::{CommStats, FxDistributedFft3d};
use anton_fixpoint::rounding::rne_f64_to_i64;
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

/// [`GseParams::window_1d`] and [`GseParams::window_1d_deriv`] with their
/// constants (σ_s², 2σ_s², the truncation shift) fixed at plan time. The
/// per-point arithmetic is theirs operand for operand, and one `exp` feeds
/// both the value and the derivative.
#[derive(Clone, Copy, Debug)]
struct Window {
    rt: f64,
    s2: f64,
    two_s2: f64,
    shift: f64,
}

impl Window {
    fn new(p: &GseParams) -> Window {
        let s2 = p.sigma_s * p.sigma_s;
        Window {
            rt: p.spread_cutoff,
            s2,
            two_s2: 2.0 * s2,
            shift: (-p.spread_cutoff * p.spread_cutoff / (2.0 * s2)).exp(),
        }
    }
}

/// One atom's stencil along one axis: per support point the window value,
/// its derivative (interpolation only) and the mesh index wrapped into the
/// axis.
#[derive(Clone, Debug, Default)]
struct AxisRow {
    w: Vec<f64>,
    dw: Vec<f64>,
    i: Vec<usize>,
}

impl AxisRow {
    /// The row of coordinate `pos` over `Mesh::support`'s `(start, count)`
    /// on an axis of `n` points spaced `h`.
    fn fill<const DERIV: bool>(
        &mut self,
        win: &Window,
        pos: f64,
        (start, count): (i64, usize),
        h: f64,
        n: usize,
    ) {
        self.w.clear();
        self.dw.clear();
        self.i.clear();
        for m in start..start + count as i64 {
            let d = pos - m as f64 * h;
            let (w, dw) = if d.abs() >= win.rt {
                (0.0, 0.0)
            } else {
                let g = (-d * d / win.two_s2).exp();
                (g - win.shift, -d / win.s2 * g)
            };
            self.w.push(w);
            if DERIV {
                self.dw.push(dw);
            }
            self.i.push(m.rem_euclid(n as i64) as usize);
        }
    }
}

/// One atom's separable stencil, built once per atom and walked row by
/// row: an [`AxisRow`] per axis, and the `(a, b)` tables `wxy = wx·wy` and,
/// for interpolation, `dxy = dwx·wy`, `wdy = wx·dwy` (index `b·cx + a`).
/// One lives in every rank's private mesh scratch, reused across atoms, so
/// the hot path never allocates.
#[derive(Clone, Debug, Default)]
pub struct SupportScratch {
    x: AxisRow,
    y: AxisRow,
    z: AxisRow,
    wxy: Vec<f64>,
    dxy: Vec<f64>,
    wdy: Vec<f64>,
}

impl SupportScratch {
    /// Build the stencil of an atom at `p`; the derivative rows and tables
    /// only when `DERIV`.
    fn build<const DERIV: bool>(&mut self, gse: &GseFixed, p: Vec3) {
        let mesh = &gse.mesh;
        let h = mesh.spacing();
        let rows = [&mut self.x, &mut self.y, &mut self.z];
        for (axis, row) in rows.into_iter().enumerate() {
            let support = mesh.support(p[axis], gse.params.spread_cutoff, axis);
            row.fill::<DERIV>(&gse.window, p[axis], support, h[axis], mesh.dims[axis]);
        }
        self.wxy.clear();
        self.dxy.clear();
        self.wdy.clear();
        for (b, &wy) in self.y.w.iter().enumerate() {
            self.wxy.extend(self.x.w.iter().map(|&wx| wx * wy));
            if DERIV {
                let dwy = self.y.dw[b];
                self.dxy.extend(self.x.dw.iter().map(|&dwx| dwx * wy));
                self.wdy.extend(self.x.w.iter().map(|&wx| wx * dwy));
            }
        }
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
    /// The per-axis window's plan-time constants.
    window: Window,
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
            .map(|&g| rne_f64_to_i64(g * (1i64 << GREEN_FRAC) as f64))
            .collect();
        let log2n = (mesh.len() as u64).trailing_zeros();
        let norm = params.norm();
        GseFixed {
            fft: FxDistributedFft3d::new(dims, nodes),
            mesh,
            window: Window::new(&params),
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

    /// Spread one quantized charge into the mesh (order-free accumulation),
    /// walking the stencil c → b → a over contiguous x rows. The window is
    /// `(wx·wy)·wz` and the word `((q·norm)·w)·scale`, the per-point
    /// visitor's operand order, so every word is bitwise the same.
    #[inline]
    fn spread_one(&self, p: Vec3, q: f64, rho_q: &mut [i64], st: &mut SupportScratch) {
        st.build::<false>(self, p);
        let qn = q * self.norm;
        let scale = (1i64 << MESH_FRAC) as f64;
        let [nx, ny, _] = self.mesh.dims;
        let cx = st.x.i.len();
        for (&mz, &wz) in st.z.i.iter().zip(&st.z.w) {
            for (b, &my) in st.y.i.iter().enumerate() {
                let base = nx * (my + ny * mz);
                let row = &mut rho_q[base..base + nx];
                for (&mx, &wxy) in st.x.i.iter().zip(&st.wxy[b * cx..][..cx]) {
                    let w = wxy * wz;
                    row[mx] = row[mx].wrapping_add(rne_f64_to_i64(qn * w * scale));
                }
            }
        }
    }

    /// Interpolate one atom's energy and force from the potential mesh.
    /// Per-atom terms are computed in f64 from the fixed mesh
    /// (deterministic) and quantized before the order-free accumulation.
    /// The walk is [`Self::spread_one`]'s; the gradient components are
    /// `(dwx·wy)·wz`, `(wx·dwy)·wz`, `(wx·wy)·dwz`, and `e`, `fx`, `fy`, `fz`
    /// accumulate in the visitor's c → b → a order, so every rounding is
    /// unchanged.
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
        st.build::<true>(self, p);
        let inv_scale = 1.0 / (1i64 << MESH_FRAC) as f64;
        let [nx, ny, _] = self.mesh.dims;
        let cx = st.x.i.len();
        let (mut e, mut fx, mut fy, mut fz) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        for ((&mz, &wz), &dwz) in st.z.i.iter().zip(&st.z.w).zip(&st.z.dw) {
            for (b, &my) in st.y.i.iter().enumerate() {
                let base = nx * (my + ny * mz);
                let row = &phi_q[base..base + nx];
                let ab = b * cx..(b + 1) * cx;
                let tables = st.wxy[ab.clone()]
                    .iter()
                    .zip(&st.dxy[ab.clone()])
                    .zip(&st.wdy[ab]);
                for (&mx, ((&wxy, &dxy), &wdy)) in st.x.i.iter().zip(tables) {
                    let phi = row[mx] as f64 * inv_scale;
                    e += phi * (wxy * wz);
                    fx -= phi * (dxy * wz);
                    fy -= phi * (wdy * wz);
                    fz -= phi * (wxy * dwz);
                }
            }
        }
        let vc = self.mesh.cell_volume();
        let qn = q * self.norm * vc * COULOMB;
        let e_i = 0.5 * e * qn - COULOMB * self.params.beta / std::f64::consts::PI.sqrt() * q * q;
        let fs = (1i64 << force_frac) as f64;
        f_out[0] = f_out[0].wrapping_add(rne_f64_to_i64(fx * qn * fs));
        f_out[1] = f_out[1].wrapping_add(rne_f64_to_i64(fy * qn * fs));
        f_out[2] = f_out[2].wrapping_add(rne_f64_to_i64(fz * qn * fs));
        rne_f64_to_i64(e_i * (1u64 << 32) as f64)
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

/// The per-point visitor the stencil rows replaced, the `f64` reference GSE
/// built on it, and the fixed path's old closure bodies: the oracles the
/// tests hold the production mesh phase to.
#[cfg(test)]
mod oracle {
    use super::*;
    use anton_fft::{Complex, Fft3d};
    use anton_fixpoint::rounding::rne_f64;

    /// Visit every mesh point within the (per-axis) support of the window
    /// around `p`, passing the flattened index, the window value, and its
    /// gradient with respect to the atom position.
    pub fn visit_support(
        mesh: &Mesh,
        params: &GseParams,
        p: Vec3,
        mut f: impl FnMut(usize, f64, Vec3),
    ) {
        let [nx, ny, nz] = mesh.dims;
        let rt = params.spread_cutoff;
        let (x0, cx) = mesh.support(p.x, rt, 0);
        let (y0, cy) = mesh.support(p.y, rt, 1);
        let (z0, cz) = mesh.support(p.z, rt, 2);
        let h = mesh.spacing();

        // Per-axis window values and derivatives (separable).
        let row = |x: f64, start: i64, count: usize, h: f64| -> (Vec<f64>, Vec<f64>) {
            (0..count)
                .map(|a| {
                    let d = x - (start + a as i64) as f64 * h;
                    (params.window_1d(d), params.window_1d_deriv(d))
                })
                .unzip()
        };
        let (wx, dwx) = row(p.x, x0, cx, h.x);
        let (wy, dwy) = row(p.y, y0, cy, h.y);
        let (wz, dwz) = row(p.z, z0, cz, h.z);

        for c in 0..cz {
            let mz = (z0 + c as i64).rem_euclid(nz as i64) as usize;
            for b in 0..cy {
                let my = (y0 + b as i64).rem_euclid(ny as i64) as usize;
                let base = nx * (my + ny * mz);
                for a in 0..cx {
                    let mx = (x0 + a as i64).rem_euclid(nx as i64) as usize;
                    let w = wx[a] * wy[b] * wz[c];
                    let grad = Vec3::new(
                        dwx[a] * wy[b] * wz[c],
                        wx[a] * dwy[b] * wz[c],
                        wx[a] * wy[b] * dwz[c],
                    );
                    f(base + mx, w, grad);
                }
            }
        }
    }

    /// `GseFixed::spread_one` as a closure over [`visit_support`].
    pub fn spread_one(gse: &GseFixed, p: Vec3, q: f64, rho_q: &mut [i64]) {
        let norm = gse.norm;
        let scale = (1i64 << MESH_FRAC) as f64;
        visit_support(&gse.mesh, &gse.params, p, |idx, w, _| {
            let contrib = rne_f64(q * norm * w * scale) as i64;
            rho_q[idx] = rho_q[idx].wrapping_add(contrib);
        });
    }

    /// `GseFixed::interpolate_one` as a closure over [`visit_support`].
    pub fn interpolate_one(
        gse: &GseFixed,
        p: Vec3,
        q: f64,
        phi_q: &[i64],
        force_frac: u32,
        f_out: &mut [i64; 3],
    ) -> i64 {
        let inv_scale = 1.0 / (1i64 << MESH_FRAC) as f64;
        let vc = gse.mesh.cell_volume();
        let mut e = 0.0f64;
        let mut f = Vec3::ZERO;
        visit_support(&gse.mesh, &gse.params, p, |idx, w, dw| {
            let phi = phi_q[idx] as f64 * inv_scale;
            e += phi * w;
            f -= phi * 1.0 * dw;
        });
        let qn = q * gse.norm * vc * COULOMB;
        let e_i = 0.5 * e * qn - COULOMB * gse.params.beta / std::f64::consts::PI.sqrt() * q * q;
        let fs = (1i64 << force_frac) as f64;
        f_out[0] = f_out[0].wrapping_add(rne_f64(f.x * qn * fs) as i64);
        f_out[1] = f_out[1].wrapping_add(rne_f64(f.y * qn * fs) as i64);
        f_out[2] = f_out[2].wrapping_add(rne_f64(f.z * qn * fs) as i64);
        rne_f64(e_i * (1u64 << 32) as f64) as i64
    }

    /// Double-precision GSE on a mesh.
    pub struct GseReference {
        mesh: Mesh,
        params: GseParams,
        fft: Fft3d,
        green: Vec<f64>,
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

        /// Add the reciprocal-space forces into `forces` and return the
        /// energy, self-term subtracted (kcal/mol).
        pub fn compute(&self, positions: &[Vec3], charges: &[f64], forces: &mut [Vec3]) -> f64 {
            let n_mesh = self.mesh.len();
            let mut rho = vec![0.0f64; n_mesh];
            let norm = self.params.norm();

            // 1. Charge spreading.
            for (p, &q) in positions.iter().zip(charges) {
                if q == 0.0 {
                    continue;
                }
                let qn = q * norm;
                visit_support(&self.mesh, &self.params, *p, |idx, w, _dw| {
                    rho[idx] += qn * w
                });
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
                let mut f = Vec3::ZERO;
                visit_support(&self.mesh, &self.params, *p, |idx, _w, dw| {
                    f -= phi[idx] * 1.0 * dw
                });
                forces[i] += f * (q * norm * vc * COULOMB);
            }

            let self_energy = COULOMB * self.params.beta / std::f64::consts::PI.sqrt()
                * charges.iter().map(|q| q * q).sum::<f64>();
            mesh_energy - self_energy
        }
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::GseReference;
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
        let e_gse = gse.compute(&pos, &q, &mut f_gse);

        let mut f_exact = vec![Vec3::ZERO; 64];
        let e_exact = ewald_kspace(&pbox, &pos, &q, params.beta, 14, &mut f_exact);
        let e_exact_minus_self = e_exact
            - COULOMB * params.beta / std::f64::consts::PI.sqrt()
                * q.iter().map(|x| x * x).sum::<f64>();

        let rel_e = (e_gse - e_exact_minus_self).abs() / e_exact_minus_self.abs();
        assert!(
            rel_e < 2e-3,
            "energy rel err {rel_e:e}: {e_gse} vs {e_exact_minus_self}"
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
                let ep = gse.compute(&pos, &q, &mut tmp);
                pos[i][ax] -= 2.0 * h;
                let mut tmp2 = vec![Vec3::ZERO; 16];
                let em = gse.compute(&pos, &q, &mut tmp2);
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
        let e_ref = refr.compute(&pos, &q, &mut f_ref);

        let fixed = GseFixed::new(mesh, params);
        let mut f_q = vec![[0i64; 3]; 64];
        let e_q = fixed.compute_fixed(&pos, &q, 24, &mut f_q, &mut GseScratch::default());
        let e_fixed = e_q as f64 / (1u64 << 32) as f64;

        assert!(
            (e_fixed - e_ref).abs() < 1e-3 * e_ref.abs().max(1.0),
            "{e_fixed} vs {e_ref}"
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

    #[test]
    fn stencil_rows_keep_the_mesh_phase_bitwise_invariant() {
        // Each case: mesh dims, box edge, (cutoff, spread cutoff).
        let cases = [
            // Cubic, with atoms well outside [0, edge) on every axis.
            ([16, 16, 16], Vec3::splat(16.0), (7.0, 4.8)),
            // Non-cubic mesh on a non-cubic box.
            ([8, 16, 32], Vec3::new(14.0, 19.0, 23.0), (7.0, 4.8)),
            // Support 4 or 5 points wide on a 4-point x axis: wrapped
            // indices repeat within one atom's row.
            ([4, 8, 8], Vec3::splat(8.0), (9.0, 4.7)),
        ];
        let mut rng = rand::rngs::SmallRng::seed_from_u64(27);
        // One scratch across atoms and cases, so its rows are refilled at
        // changing support counts.
        let mut st = SupportScratch::default();
        for (dims, edge, (cutoff, spread)) in cases {
            let gse = GseFixed::new(
                Mesh::new(dims, PeriodicBox::new(edge)),
                GseParams::auto(cutoff, spread),
            );
            let n = 40;
            let positions: Vec<Vec3> = (0..n)
                .map(|_| {
                    let u = |e: f64, r: f64| (3.0 * r - 1.0) * e;
                    Vec3::new(
                        u(edge.x, rng.gen::<f64>()),
                        u(edge.y, rng.gen::<f64>()),
                        u(edge.z, rng.gen::<f64>()),
                    )
                })
                .collect();
            let charges: Vec<f64> = (0..n)
                .map(|i| {
                    if i % 5 == 0 {
                        0.0
                    } else {
                        rng.gen::<f64>() - 0.5
                    }
                })
                .collect();
            let counts: Vec<[usize; 3]> = positions
                .iter()
                .map(|p| [0, 1, 2].map(|ax| gse.mesh.support(p[ax], spread, ax).1))
                .collect();
            assert!(
                counts.iter().any(|&c| c != counts[0]),
                "{dims:?}: one support count only"
            );
            if dims[0] == 4 {
                assert!(counts.iter().any(|c| c[0] > dims[0]), "no wrapped repeat");
            }
            assert!(positions.iter().any(|p| p.x < 0.0) && positions.iter().any(|p| p.z >= edge.z));
            let atoms: Vec<u32> = (0..n as u32).collect();
            let view = MeshAtoms {
                positions: &positions,
                charges: &charges,
                atoms: &atoms,
            };

            // At the engine's scales a word keeps few of its f64's bits, so
            // a changed rounding would seldom reach it. Charges 2¹⁴ times
            // larger put spread words near 2⁴⁸, where one ulp shows. A
            // noise potential of ±2²⁰ per point and a force scale picked
            // for the largest force put interpolation words past 2⁵³,
            // where a word is its f64, every bit.
            let loud: Vec<f64> = charges.iter().map(|q| q * 16384.0).collect();
            for qs in [&charges, &loud] {
                let mut rho = vec![0i64; gse.mesh.len()];
                gse.spread_into(
                    MeshAtoms {
                        charges: qs,
                        ..view
                    },
                    &mut rho,
                    &mut st,
                );
                let mut rho_oracle = vec![0i64; gse.mesh.len()];
                for (&p, &q) in positions.iter().zip(qs) {
                    if q != 0.0 {
                        oracle::spread_one(&gse, p, q, &mut rho_oracle);
                    }
                }
                assert_eq!(rho, rho_oracle, "{dims:?}: rho_q words differ");
                assert!(rho.iter().any(|&r| r != 0));
            }

            let phi_q: Vec<i64> = (0..gse.mesh.len())
                .map(|_| ((rng.gen::<f64>() - 0.5) * (1u64 << 61) as f64) as i64)
                .collect();
            let interpolate = |frac: u32, st: &mut SupportScratch| {
                let mut forces = vec![[0i64; 3]; n];
                let energy = gse.interpolate_into(view, &phi_q, frac, &mut forces, st);
                (forces, energy)
            };
            let (coarse, _) = interpolate(0, &mut st);
            let top = coarse.iter().flatten().map(|f| f.unsigned_abs()).max();
            let frac = 61 - (u64::BITS - top.unwrap().leading_zeros());
            let (forces, energy) = interpolate(frac, &mut st);
            let mut forces_oracle = vec![[0i64; 3]; n];
            let mut energy_oracle = 0i64;
            for (i, (&p, &q)) in positions.iter().zip(&charges).enumerate() {
                if q != 0.0 {
                    let f = &mut forces_oracle[i];
                    let e = oracle::interpolate_one(&gse, p, q, &phi_q, frac, f);
                    energy_oracle = energy_oracle.wrapping_add(e);
                }
            }
            assert_eq!(forces, forces_oracle, "{dims:?}: force words differ");
            assert_eq!(energy, energy_oracle, "{dims:?}: Q32 energy differs");
            assert!(forces.iter().flatten().any(|&f| f != 0));
        }
    }
}
