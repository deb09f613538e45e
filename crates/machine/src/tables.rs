//! PPIP function tables (paper §4, Figure 4).
//!
//! Each PPIP evaluates interaction kernels as *tabulated piecewise-cubic
//! polynomials of r²*: a tiered indexing scheme divides the domain into
//! non-uniform segments (narrow where the kernel varies fast, near r² = 0),
//! each entry stores four coefficient mantissas sharing one block-floating-
//! point exponent, the minimax polynomial on each segment is computed with
//! the Remez exchange algorithm, and the constant terms are adjusted to make
//! the function continuous across segment boundaries. Evaluation runs in
//! integer arithmetic with round-to-nearest/even — deterministic and
//! bit-reproducible, like the hardware.

use anton_fixpoint::rounding::{rne_f64, rne_shr_i64};

/// Exact `2^e` as an `f64`, built directly from the exponent field.
///
/// Bitwise identical to `(2.0f64).powi(e)` for every normal-range `e`
/// (powers of two are exact in binary floating point), but a couple of
/// integer ops instead of a libm-style call. It forms the PPIP's fused
/// decode scales once, when the tables are built, and decodes
/// [`FunctionTable::eval_fixed_f64`]. Exponents outside the normal range
/// (never produced by the block-floating-point tables, whose exponents are
/// within a few hundred of zero) fall back to `powi`.
#[inline]
pub fn exp2i(e: i32) -> f64 {
    if (-1022..=1023).contains(&e) {
        f64::from_bits(((e + 1023) as u64) << 52)
    } else {
        (2.0f64).powi(e)
    }
}

/// Tiers of the segment ladder: the base tier `[0, 2^-(LEVELS-1))` and the
/// `LEVELS − 1` octaves above it, up to 1.
pub const LEVELS: u32 = 8;
/// Segments per tier. A power of two, so every segment boundary is an
/// exact binary fraction and past the base tier the relative width is
/// `w/u ≤ 1/PER_TIER` — the right shape for kernels with power-law
/// divergence at r² → 0 (the van der Waals r⁻¹⁴/r⁻⁸ terms). The tables are
/// user-configured per kernel on the real machine (§2.2); every kernel here
/// uses this one ladder.
pub const PER_TIER: usize = 32;
/// Segments in a table.
pub const SEGMENTS: usize = LEVELS as usize * PER_TIER;
/// Mantissa width in bits (paper: 19–22 bit data paths).
pub const MANTISSA_BITS: u32 = 22;

const _: () = assert!(LEVELS >= 2 && PER_TIER.is_power_of_two());

/// Largest Q31 table coordinate: `u` is clamped to `[0, 1)`.
pub(crate) const U_Q31_MAX: i64 = (1 << 31) - 1;

/// `(start, width)` of every segment, ascending: `PER_TIER` equal segments
/// per tier, tier `k` ending at `2^(k+1−LEVELS)`.
fn ladder() -> impl Iterator<Item = (f64, f64)> {
    (0..LEVELS as i32).flat_map(|k| {
        let end = (2.0f64).powi(k + 1 - LEVELS as i32);
        let u0 = if k == 0 { 0.0 } else { end / 2.0 };
        let w = (end - u0) / PER_TIER as f64;
        (0..PER_TIER).map(move |j| (u0 + j as f64 * w, w))
    })
}

/// One table entry: four signed coefficient mantissas with a shared
/// power-of-two exponent (block floating point). The represented cubic is
/// `p(t) = Σ coeffs[i]·2^(exponent)·tⁱ` with `t ∈ [0,1)` the position within
/// the segment and mantissas scaled by `2^-(MANTISSA_BITS-1)`.
#[derive(Clone, Copy, Debug, Default)]
pub struct Segment {
    pub coeffs: [i32; 4],
    pub exponent: i32,
}

/// A fitted, quantized function table over `u ∈ [0, 1)`.
#[derive(Clone, Debug)]
pub struct FunctionTable {
    pub segments: Vec<Segment>,
    /// `(u_start, u_width)` per segment.
    pub bounds: Vec<(f64, f64)>,
}

impl FunctionTable {
    /// Fit `f` on `[0, 1)` with per-segment Remez minimax cubics, stitch for
    /// continuity, and quantize to block floating point.
    pub fn fit(f: impl Fn(f64) -> f64) -> FunctionTable {
        let bounds: Vec<(f64, f64)> = ladder().collect();

        // Remez fit per segment (coefficients in t ∈ [0,1]), then pin each
        // segment's endpoint values to the exact kernel with a linear
        // correction. Both sides of every boundary then agree (they equal
        // f there), so the table is continuous *without* chaining constant
        // shifts across segments — chained shifts accumulate fit residuals
        // into a low-frequency error that dominates the table accuracy.
        let raw: Vec<[f64; 4]> = bounds
            .iter()
            .map(|&(s, w)| {
                let g = |t: f64| f(s + t * w);
                let mut c = remez_cubic(g, 1e-14);
                let p0 = c[0];
                let p1 = c[0] + c[1] + c[2] + c[3];
                let d0 = g(0.0) - p0;
                let d1 = g(1.0) - p1;
                // p̃(t) = p(t) + d0(1−t) + d1·t.
                c[0] += d0;
                c[1] += d1 - d0;
                c
            })
            .collect();

        // Block-float quantization.
        let mbits = MANTISSA_BITS;
        let segments = raw
            .iter()
            .map(|c| {
                let maxc = c.iter().fold(0.0f64, |m, &x| m.max(x.abs()));
                let exponent = if maxc > 0.0 {
                    maxc.log2().floor() as i32 + 1
                } else {
                    0
                };
                let scale = (2.0f64).powi(mbits as i32 - 1 - exponent);
                let mut coeffs = [0i32; 4];
                for (q, &x) in coeffs.iter_mut().zip(c.iter()) {
                    let m = rne_f64(x * scale);
                    *q = m.clamp(
                        -(1i64 << (mbits - 1)) as f64,
                        ((1i64 << (mbits - 1)) - 1) as f64,
                    ) as i32;
                }
                Segment { coeffs, exponent }
            })
            .collect();

        FunctionTable { segments, bounds }
    }

    /// The greatest segment boundary ≤ `u` (used to align kernel clamp
    /// points with segment edges, so the clamp kink never falls inside a
    /// cubic fit).
    pub fn snap_down(u: f64) -> f64 {
        ladder()
            .map(|(start, _)| start)
            .take_while(|&start| start <= u)
            .last()
            .unwrap_or(0.0)
    }

    /// Segment index and within-segment Q31 coordinate of a Q31 `u`
    /// (clamped to `[0, 1)`), with no loop and no branch: the tier is read
    /// off the bit length of `u`. Tier `k ≥ 1` is `[2^(23+k), 2^(24+k))` in
    /// Q31, exactly the `u` of bit length `24 + k`, so with
    /// `s = max(tier, 1)` the segment width is `2^(18+s)` — the base tier
    /// spans the same width as tier 1 in as many segments — and every tier
    /// start is a multiple of it. A tier `k ≥ 1` holds the `u` whose
    /// quotient by its width is `32..64`, so the index is
    /// `32·(s − 1) + (u >> (18 + s))` in every tier, the base one included,
    /// and `t` is the remainder scaled to Q31. One locate serves all six
    /// PPIP kernels (`fast_ladder_is_bitwise_identical_to_float_lookup`
    /// pins it to the f64 tier walk over the segment bounds).
    #[inline]
    pub fn locate_q31(u_q31: i64) -> (usize, i64) {
        // Bit length of the Q31 `u` at the top of the base tier.
        const BASE_BITS: u32 = 32 - LEVELS;
        let u = u_q31.clamp(0, U_Q31_MAX);
        let s = (64 - u.leading_zeros()).max(BASE_BITS + 1) - BASE_BITS;
        let width_log2 = BASE_BITS - PER_TIER.trailing_zeros() - 1 + s;
        let idx = PER_TIER * (s as usize - 1) + (u >> width_log2) as usize;
        (idx, (u << (31 - width_log2)) & U_Q31_MAX)
    }

    /// Integer Horner over one located segment (the evaluate half).
    #[inline]
    pub fn eval_at(&self, idx: usize, t_q31: i64) -> (i64, i32) {
        let t = t_q31.clamp(0, 1i64 << 31);
        let seg = &self.segments[idx];
        // Horner with Q31 t and mantissa-width accumulators.
        let mut acc = seg.coeffs[3] as i64;
        for k in (0..3).rev() {
            acc = rne_shr_i64(acc * t, 31) + seg.coeffs[k] as i64;
        }
        (acc, seg.exponent - (MANTISSA_BITS as i32 - 1))
    }

    /// Hardware-style evaluation: `u` as a Q31 raw value, Horner in integer
    /// arithmetic with round-to-nearest/even after each multiply, mantissa
    /// result + exponent out. Deterministic.
    pub fn eval_fixed(&self, u_q31: i64) -> (i64, i32) {
        let (idx, t_q31) = Self::locate_q31(u_q31);
        self.eval_at(idx, t_q31)
    }

    /// Convenience: the fixed-path value as f64 (exact conversion).
    pub fn eval_fixed_f64(&self, u_q31: i64) -> f64 {
        let (m, e) = self.eval_fixed(u_q31);
        m as f64 * exp2i(e)
    }
}

/// Minimax cubic fit of `g` on `[0, 1]` by the Remez exchange algorithm:
/// returns `[a0, a1, a2, a3]`.
pub fn remez_cubic(g: impl Fn(f64) -> f64, tol: f64) -> [f64; 4] {
    // 5 reference points for a degree-3 equioscillation (n + 2).
    let mut x: Vec<f64> = (0..5)
        .map(|i| 0.5 - 0.5 * (std::f64::consts::PI * i as f64 / 4.0).cos())
        .collect();
    let mut coeffs = [0.0f64; 4];

    for _iter in 0..30 {
        // Solve p(x_i) + (-1)^i E = g(x_i) for (a0..a3, E).
        let mut m = [[0.0f64; 5]; 5];
        let mut rhs = [0.0f64; 5];
        for (i, &xi) in x.iter().enumerate() {
            m[i][0] = 1.0;
            m[i][1] = xi;
            m[i][2] = xi * xi;
            m[i][3] = xi * xi * xi;
            m[i][4] = if i % 2 == 0 { 1.0 } else { -1.0 };
            rhs[i] = g(xi);
        }
        let sol = solve5(m, rhs);
        coeffs = [sol[0], sol[1], sol[2], sol[3]];
        let e_level = sol[4].abs();

        // Find extrema of the error on a dense grid.
        const GRID: usize = 512;
        let err = |t: f64| ((coeffs[3] * t + coeffs[2]) * t + coeffs[1]) * t + coeffs[0] - g(t);
        let mut extrema: Vec<(f64, f64)> = Vec::new();
        let mut best_in_run: Option<(f64, f64)> = None;
        let mut last_sign = 0i32;
        for i in 0..=GRID {
            let t = i as f64 / GRID as f64;
            let e = err(t);
            let sign = if e >= 0.0 { 1 } else { -1 };
            if sign != last_sign && last_sign != 0 {
                if let Some(b) = best_in_run.take() {
                    extrema.push(b);
                }
            }
            last_sign = sign;
            if best_in_run.is_none_or(|(_, be)| e.abs() > be.abs()) {
                best_in_run = Some((t, e));
            }
        }
        if let Some(b) = best_in_run {
            extrema.push(b);
        }
        if extrema.len() < 5 {
            break; // error effectively at rounding level
        }
        // Keep the 5 largest-amplitude alternating extrema (they already
        // alternate by construction of the runs).
        while extrema.len() > 5 {
            // Drop the smallest end extremum.
            if extrema.first().unwrap().1.abs() < extrema.last().unwrap().1.abs() {
                extrema.remove(0);
            } else {
                extrema.pop();
            }
        }
        let new_x: Vec<f64> = extrema.iter().map(|&(t, _)| t).collect();
        let max_dev = extrema.iter().map(|&(_, e)| e.abs()).fold(0.0f64, f64::max);
        x = new_x;
        if (max_dev - e_level).abs() < tol * (1.0 + max_dev) {
            break;
        }
    }
    coeffs
}

/// Solve a 5×5 linear system by Gaussian elimination with partial pivoting.
// Gaussian elimination touches rows r and col simultaneously; index loops
// beat split_at_mut gymnastics for a fixed 5x5 system.
#[allow(clippy::needless_range_loop)]
fn solve5(mut m: [[f64; 5]; 5], mut b: [f64; 5]) -> [f64; 5] {
    for col in 0..5 {
        let piv = (col..5)
            .max_by(|&a, &bb| m[a][col].abs().partial_cmp(&m[bb][col].abs()).unwrap())
            .unwrap();
        m.swap(col, piv);
        b.swap(col, piv);
        let d = m[col][col];
        assert!(d.abs() > 1e-300, "singular Remez system");
        for r in (col + 1)..5 {
            let f = m[r][col] / d;
            for c in col..5 {
                m[r][c] -= f * m[col][c];
            }
            b[r] -= f * b[col];
        }
    }
    let mut x = [0.0f64; 5];
    for r in (0..5).rev() {
        let mut s = b[r];
        for c in (r + 1)..5 {
            s -= m[r][c] * x[c];
        }
        x[r] = s / m[r][r];
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `exp2i` must be bit-for-bit `powi` everywhere, including the
    /// subnormal/overflow fallback edges — the PPIP decode path relies on
    /// the substitution being invisible to every checksum.
    #[test]
    fn exp2i_is_bitwise_powi() {
        for e in -1100..=1100 {
            assert_eq!(
                exp2i(e).to_bits(),
                (2.0f64).powi(e).to_bits(),
                "exp2i({e}) diverged from powi"
            );
        }
    }

    #[test]
    fn remez_fits_cubic_exactly() {
        let c = remez_cubic(|t| 1.0 + 2.0 * t - 3.0 * t * t + 0.5 * t * t * t, 1e-14);
        assert!((c[0] - 1.0).abs() < 1e-10);
        assert!((c[1] - 2.0).abs() < 1e-9);
        assert!((c[2] + 3.0).abs() < 1e-9);
        assert!((c[3] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn remez_beats_taylor_on_exp() {
        // Minimax error of cubic on exp over [0,1] is ~1.1e-4 (Taylor: ~1.5e-2).
        let c = remez_cubic(|t| t.exp(), 1e-14);
        let mut max_err: f64 = 0.0;
        for i in 0..1000 {
            let t = i as f64 / 999.0;
            let p = ((c[3] * t + c[2]) * t + c[1]) * t + c[0];
            max_err = max_err.max((p - t.exp()).abs());
        }
        // True minimax error of a cubic for exp on [0,1] is ~5.45e-4 (Taylor: 1.5e-2).
        assert!(max_err < 6e-4, "max_err = {max_err:e}");
    }

    const Q31: f64 = (1i64 << 31) as f64;

    /// The f64 tier walk `locate_q31` replaced, over the same ladder spelt
    /// out tier by tier: the segment holding `u`, its start and its width.
    fn walk(u: f64) -> (usize, f64, f64) {
        let mut u0 = 0.0;
        for tier in 0..LEVELS as usize {
            let end = (2.0f64).powi(tier as i32 + 1 - LEVELS as i32);
            if u < end {
                let w = (end - u0) / PER_TIER as f64;
                let k = (((u - u0) / w) as usize).min(PER_TIER - 1);
                return (tier * PER_TIER + k, u0 + k as f64 * w, w);
            }
            u0 = end;
        }
        unreachable!("u = {u} is outside [0, 1)")
    }

    /// The walk's locate: segment from the walk, `t` from its bounds in f64.
    fn walk_locate(u_q31: i64) -> (usize, i64) {
        let u_q31 = u_q31.clamp(0, U_Q31_MAX);
        let (idx, s, w) = walk(u_q31 as f64 / Q31);
        let s_q31 = rne_f64(s * Q31) as i64;
        (idx, rne_f64((u_q31 - s_q31) as f64 * (1.0 / w)) as i64)
    }

    /// The exact real value the quantized table represents at `u`
    /// (f64 Horner over the dequantized coefficients).
    fn eval_f64(table: &FunctionTable, u: f64) -> f64 {
        let (idx, s, w) = walk(u.clamp(0.0, 1.0 - 1e-15));
        let t = ((u - s) / w).clamp(0.0, 1.0);
        let seg = &table.segments[idx];
        let scale = (2.0f64).powi(seg.exponent - (MANTISSA_BITS as i32 - 1));
        let c = seg.coeffs.map(|m| m as f64 * scale);
        ((c[3] * t + c[2]) * t + c[1]) * t + c[0]
    }

    /// Maximum |table − f| over `samples` points in `[lo, hi)`, and the rms,
    /// both relative to the max |f| on the range.
    fn error_vs(
        table: &FunctionTable,
        f: impl Fn(f64) -> f64,
        lo: f64,
        hi: f64,
        samples: usize,
    ) -> (f64, f64) {
        let mut max_err: f64 = 0.0;
        let mut sum2 = 0.0;
        let mut max_f: f64 = 0.0;
        for i in 0..samples {
            let u = lo + (hi - lo) * (i as f64 + 0.5) / samples as f64;
            let e = eval_f64(table, u) - f(u);
            max_err = max_err.max(e.abs());
            sum2 += e * e;
            max_f = max_f.max(f(u).abs());
        }
        (max_err / max_f, (sum2 / samples as f64).sqrt() / max_f)
    }

    /// The ladder tiles `[0, 1)` on the Q31 grid, in `SEGMENTS` segments of
    /// relative width at most `1/PER_TIER` past the base tier, and it is
    /// the layout every fitted table carries.
    #[test]
    fn ladder_tiles_the_unit_interval() {
        let bounds: Vec<(f64, f64)> = ladder().collect();
        assert_eq!(bounds.len(), SEGMENTS);
        let mut end = 0.0;
        for (idx, &(start, width)) in bounds.iter().enumerate() {
            assert_eq!(
                start, end,
                "segment {idx} does not start where the last ended"
            );
            assert!(width > 0.0, "segment {idx}");
            assert_eq!((start * Q31).fract(), 0.0, "segment {idx} start");
            assert_eq!((width * Q31).fract(), 0.0, "segment {idx} width");
            if idx >= PER_TIER {
                assert!(width / start <= 1.0 / PER_TIER as f64, "segment {idx}");
            }
            end = start + width;
        }
        assert_eq!(end, 1.0);
        assert_eq!(FunctionTable::fit(|u| u).bounds, bounds);
    }

    /// `snap_down` returns each boundary at that boundary and just below
    /// the next one, 0 below the domain and the last boundary above it.
    #[test]
    fn snap_down_returns_the_boundary_at_or_below() {
        let starts: Vec<f64> = ladder().map(|(start, _)| start).collect();
        for (k, &b) in starts.iter().enumerate() {
            let next = starts.get(k + 1).copied().unwrap_or(1.0);
            assert_eq!(FunctionTable::snap_down(b), b, "at boundary {k}");
            assert_eq!(
                FunctionTable::snap_down(next.next_down()),
                b,
                "below {}",
                k + 1
            );
        }
        assert_eq!(FunctionTable::snap_down(-0.5), 0.0);
        assert_eq!(FunctionTable::snap_down(2.0), starts[SEGMENTS - 1]);
    }

    /// The closed-form locate is the f64 tier walk, index and Q31 `t`, and
    /// `eval_fixed` through it is `eval_at` the walk's locate, bit for bit:
    /// at every segment boundary ±1, both domain ends, `u` outside the
    /// domain and 10⁶ `u` spread over it.
    #[test]
    fn fast_ladder_is_bitwise_identical_to_float_lookup() {
        let table = FunctionTable::fit(|u| 1.0 / (u + 0.03));
        let mut us = vec![0, 1, U_Q31_MAX - 1, U_Q31_MAX];
        us.extend([-(1i64 << 40), -1, 1 << 31, (1 << 31) + 5, i64::MAX]);
        for (start, width) in ladder() {
            let (b, e) = ((start * Q31) as i64, ((start + width) * Q31) as i64);
            us.extend([b - 1, b, b + 1, e - 1]);
        }
        // A Weyl sequence: 31-bit values spread over the domain.
        us.extend((0..1_000_000u64).map(|i| (i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 33) as i64));
        for u in us {
            let (idx, t_q31) = walk_locate(u);
            assert_eq!(FunctionTable::locate_q31(u), (idx, t_q31), "u_q31 {u}");
            assert_eq!(table.eval_fixed(u), table.eval_at(idx, t_q31), "u_q31 {u}");
        }
    }

    #[test]
    fn table_is_continuous_across_segments() {
        let table = FunctionTable::fit(|u| (1.0 / (u + 0.01)).sqrt());
        for k in 1..table.segments.len() {
            let (s, _) = table.bounds[k];
            let left = eval_f64(&table, s - 1e-13);
            let right = eval_f64(&table, s + 1e-13);
            // Continuity up to one quantization step of the larger segment.
            let tol = (2.0f64).powi(
                table.segments[k]
                    .exponent
                    .max(table.segments[k - 1].exponent)
                    - (MANTISSA_BITS as i32 - 1),
            ) * 4.0;
            assert!(
                (left - right).abs() <= tol,
                "jump {} at seg {k}",
                (left - right).abs()
            );
        }
    }

    #[test]
    fn smooth_kernel_error_near_quantization_floor() {
        // A smooth bounded kernel should be represented to ~1e-5 relative.
        let f = |u: f64| (-3.0 * u).exp() * (1.0 + u);
        let table = FunctionTable::fit(f);
        let (max_rel, rms_rel) = error_vs(&table, f, 1e-4, 1.0, 20_000);
        assert!(max_rel < 3e-5, "max rel err {max_rel:e}");
        assert!(rms_rel < 1e-5, "rms rel err {rms_rel:e}");
    }

    #[test]
    fn fixed_eval_matches_f64_eval() {
        let f = |u: f64| 1.0 / (u + 0.05);
        let table = FunctionTable::fit(f);
        for i in 0..5000 {
            let u = (i as f64 + 0.5) / 5000.0;
            let u_q31 = (u * Q31) as i64;
            let fx = table.eval_fixed_f64(u_q31);
            let fl = eval_f64(&table, u);
            assert!(
                (fx - fl).abs() < 2e-5 * fl.abs().max(1.0),
                "u={u}: fixed {fx} vs f64 {fl}"
            );
        }
    }

    #[test]
    fn fixed_eval_is_deterministic() {
        let table = FunctionTable::fit(|u| (1.0 - u).sqrt());
        for raw in [0i64, 12345678, 1 << 30, (1 << 31) - 1] {
            assert_eq!(table.eval_fixed(raw), table.eval_fixed(raw));
        }
    }
}
