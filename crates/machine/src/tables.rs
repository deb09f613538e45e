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
/// integer ops instead of a libm-style call — this sits in the per-lane
/// mantissa→f64 decode of the PPIP evaluate path. Exponents outside the
/// normal range (never produced by the block-floating-point tables, whose
/// exponents are within a few hundred of zero) fall back to `powi`.
#[inline]
pub fn exp2i(e: i32) -> f64 {
    if (-1022..=1023).contains(&e) {
        f64::from_bits(((e + 1023) as u64) << 52)
    } else {
        (2.0f64).powi(e)
    }
}

/// Tier layout: `(entries, domain_end)` pairs over the normalized domain
/// `u = r²/r²_max ∈ [0, 1)`.
#[derive(Clone, Debug, PartialEq)]
pub struct TableSpec {
    pub tiers: Vec<(usize, f64)>,
    /// Mantissa width in bits (paper: 19–22 bit data paths).
    pub mantissa_bits: u32,
}

impl TableSpec {
    /// The paper's example configuration: 64 entries on [0, 1/128), 96 on
    /// [1/128, 1/32), 56 on [1/32, 1/4), 24 on [1/4, 1) — 240 segments.
    pub fn paper_default() -> TableSpec {
        TableSpec {
            tiers: vec![(64, 1.0 / 128.0), (96, 1.0 / 32.0), (56, 0.25), (24, 1.0)],
            mantissa_bits: 22,
        }
    }

    /// A geometric tier ladder: `levels` octaves from `2^-(levels-1)` to 1,
    /// each with `per_tier` entries, plus the base tier `[0, 2^-(levels-1))`.
    /// With `per_tier` a power of two every segment boundary is an exact
    /// binary fraction, and the relative segment width `w/u ≤ 1/per_tier`
    /// everywhere — the right shape for kernels with power-law divergence
    /// at r² → 0 (the van der Waals r⁻¹⁴/r⁻⁸ terms). The tables are
    /// user-configured per kernel on the real machine (§2.2), so different
    /// kernels using different layouts is faithful.
    pub fn geometric(levels: usize, per_tier: usize) -> TableSpec {
        assert!(levels >= 2 && per_tier.is_power_of_two());
        let tiers = (0..levels)
            .map(|k| (per_tier, (2.0f64).powi(-(levels as i32) + 1 + k as i32)))
            .collect();
        TableSpec {
            tiers,
            mantissa_bits: 22,
        }
    }

    pub fn total_entries(&self) -> usize {
        self.tiers.iter().map(|t| t.0).sum()
    }

    /// The greatest segment boundary ≤ `u` (used to align kernel clamp
    /// points with segment edges, so the clamp kink never falls inside a
    /// cubic fit).
    pub fn snap_down(&self, u: f64) -> f64 {
        let mut best = 0.0;
        let mut u0 = 0.0;
        for &(count, end) in &self.tiers {
            let w = (end - u0) / count as f64;
            for k in 0..count {
                let b = u0 + k as f64 * w;
                if b <= u {
                    best = b;
                } else {
                    return best;
                }
            }
            u0 = end;
        }
        best
    }
}

/// One table entry: four signed coefficient mantissas with a shared
/// power-of-two exponent (block floating point). The represented cubic is
/// `p(t) = Σ coeffs[i]·2^(exponent)·tⁱ` with `t ∈ [0,1)` the position within
/// the segment and mantissas scaled by `2^-(mantissa_bits-1)`.
#[derive(Clone, Copy, Debug, Default)]
pub struct Segment {
    pub coeffs: [i32; 4],
    pub exponent: i32,
}

/// One tier of the integer index ladder: valid only when the tier's segment
/// width is an exact power of two in Q31, in which case segment selection
/// and the within-segment coordinate reduce to a shift and a subtract.
#[derive(Clone, Copy, Debug)]
struct FastTier {
    /// Tier domain end as Q31 (exclusive).
    end_q31: i64,
    /// Tier domain start as Q31.
    u0_q31: i64,
    /// Global index of the tier's first segment.
    base: usize,
    /// Segment width = `2^(log2_w - 31)` in u units.
    log2_w: u32,
    /// Segments in this tier.
    count: usize,
}

/// A fitted, quantized function table over `u ∈ [0, 1)`.
#[derive(Clone, Debug)]
pub struct FunctionTable {
    pub spec: TableSpec,
    pub segments: Vec<Segment>,
    /// `(u_start, u_width)` per segment.
    pub bounds: Vec<(f64, f64)>,
    /// Integer index ladder, present when every tier width is an exact
    /// power of two in Q31 (true for both shipped specs). Rebuilt by
    /// `fit`; deserialized tables fall back to the float lookup, which
    /// produces identical bits.
    fast: Option<Vec<FastTier>>,
}

impl FunctionTable {
    /// Fit `f` on `[0, 1)` with per-segment Remez minimax cubics, stitch for
    /// continuity, and quantize to block floating point.
    pub fn fit(f: impl Fn(f64) -> f64, spec: TableSpec) -> FunctionTable {
        let mut bounds = Vec::with_capacity(spec.total_entries());
        let mut u0 = 0.0;
        for &(count, end) in &spec.tiers {
            let w = (end - u0) / count as f64;
            for k in 0..count {
                bounds.push((u0 + k as f64 * w, w));
            }
            u0 = end;
        }

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
        let mbits = spec.mantissa_bits;
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

        let fast = Self::build_fast(&spec);
        FunctionTable {
            spec,
            segments,
            bounds,
            fast,
        }
    }

    /// Build the integer index ladder when the spec qualifies: every tier
    /// boundary must be an exact multiple of 2^-31 and every tier width an
    /// exact power of two in Q31, and the domain must end at exactly 1.
    /// Under those conditions the float lookup of [`Self::segment_of`] /
    /// [`Self::eval_fixed`] is exact integer arithmetic in disguise — the
    /// ladder computes the same index and the same Q31 `t`, bit for bit —
    /// because `u`, `u − u0`, and `(u − u0)/w` are all exactly
    /// representable and the `as usize` truncation equals the shift.
    fn build_fast(spec: &TableSpec) -> Option<Vec<FastTier>> {
        let q31 = (1i64 << 31) as f64;
        let mut tiers = Vec::with_capacity(spec.tiers.len());
        let mut base = 0usize;
        let mut u0 = 0.0f64;
        for &(count, end) in &spec.tiers {
            let u0_q31f = u0 * q31;
            let end_q31f = end * q31;
            if u0_q31f.fract() != 0.0 || end_q31f.fract() != 0.0 {
                return None;
            }
            let u0_q31 = u0_q31f as i64;
            let end_q31 = end_q31f as i64;
            let span = end_q31 - u0_q31;
            if count == 0 || span <= 0 || span % count as i64 != 0 {
                return None;
            }
            let w_q31 = span / count as i64;
            if !(w_q31 as u64).is_power_of_two() {
                return None;
            }
            // The float path's segment width must round-trip exactly.
            if (end - u0) / count as f64 != w_q31 as f64 / q31 {
                return None;
            }
            tiers.push(FastTier {
                end_q31,
                u0_q31,
                base,
                log2_w: (w_q31 as u64).trailing_zeros(),
                count,
            });
            base += count;
            u0 = end;
        }
        if u0 != 1.0 {
            return None;
        }
        Some(tiers)
    }

    /// Locate the segment containing `u` (tiered index lookup).
    #[inline]
    pub fn segment_of(&self, u: f64) -> usize {
        debug_assert!((0.0..1.0).contains(&u));
        let mut base = 0usize;
        let mut u0 = 0.0;
        for &(count, end) in &self.spec.tiers {
            if u < end {
                let w = (end - u0) / count as f64;
                let k = ((u - u0) / w) as usize;
                return base + k.min(count - 1);
            }
            base += count;
            u0 = end;
        }
        self.segments.len() - 1
    }

    /// The exact real value the quantized table represents at `u`
    /// (infinite-precision Horner over the dequantized coefficients).
    pub fn eval_f64(&self, u: f64) -> f64 {
        let idx = self.segment_of(u.clamp(0.0, 1.0 - 1e-15));
        let (s, w) = self.bounds[idx];
        let t = ((u - s) / w).clamp(0.0, 1.0);
        let seg = &self.segments[idx];
        let scale = (2.0f64).powi(seg.exponent - (self.spec.mantissa_bits as i32 - 1));
        let c: Vec<f64> = seg.coeffs.iter().map(|&m| m as f64 * scale).collect();
        ((c[3] * t + c[2]) * t + c[1]) * t + c[0]
    }

    /// Segment index and within-segment Q31 coordinate for a Q31 `u` —
    /// the match half of the HTIS evaluate: one lookup shared by every
    /// table with the same spec (the six PPIP kernels), bitwise identical
    /// to the lookup [`Self::eval_fixed`] has always done.
    #[inline]
    pub fn locate_q31(&self, u_q31: i64) -> (usize, i64) {
        let u_q31 = u_q31.clamp(0, (1i64 << 31) - 1);
        if let Some(tiers) = &self.fast {
            for tier in tiers {
                if u_q31 < tier.end_q31 {
                    let k = (((u_q31 - tier.u0_q31) >> tier.log2_w) as usize).min(tier.count - 1);
                    let s_q31 = tier.u0_q31 + ((k as i64) << tier.log2_w);
                    return (tier.base + k, (u_q31 - s_q31) << (31 - tier.log2_w));
                }
            }
            // Unreachable when the ladder exists (its domain ends at 1 and
            // u is clamped below it); fall through defensively.
        }
        let u = u_q31 as f64 / (1i64 << 31) as f64;
        let idx = self.segment_of(u);
        let (s, w) = self.bounds[idx];
        // t within segment as Q31, computed from integer u and quantized
        // segment bounds (w is an exact binary fraction by construction of
        // the tiers, so this is exact integer arithmetic in disguise).
        let s_q31 = rne_f64(s * (1i64 << 31) as f64) as i64;
        let inv_w = 1.0 / w;
        let t_q31 = rne_f64((u_q31 - s_q31) as f64 * inv_w) as i64;
        (idx, t_q31)
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
        (acc, seg.exponent - (self.spec.mantissa_bits as i32 - 1))
    }

    /// Hardware-style evaluation: `u` as a Q31 raw value, Horner in integer
    /// arithmetic with round-to-nearest/even after each multiply, mantissa
    /// result + exponent out. Deterministic.
    pub fn eval_fixed(&self, u_q31: i64) -> (i64, i32) {
        let (idx, t_q31) = self.locate_q31(u_q31);
        self.eval_at(idx, t_q31)
    }

    /// Convenience: the fixed-path value as f64 (exact conversion).
    pub fn eval_fixed_f64(&self, u_q31: i64) -> f64 {
        let (m, e) = self.eval_fixed(u_q31);
        m as f64 * exp2i(e)
    }

    /// Maximum |table − f| over `samples` points in `[lo, hi)`, and the rms,
    /// both relative to the max |f| on the range.
    pub fn error_vs(&self, f: impl Fn(f64) -> f64, lo: f64, hi: f64, samples: usize) -> (f64, f64) {
        let mut max_err: f64 = 0.0;
        let mut sum2 = 0.0;
        let mut max_f: f64 = 0.0;
        for i in 0..samples {
            let u = lo + (hi - lo) * (i as f64 + 0.5) / samples as f64;
            let e = self.eval_f64(u) - f(u);
            max_err = max_err.max(e.abs());
            sum2 += e * e;
            max_f = max_f.max(f(u).abs());
        }
        (max_err / max_f, (sum2 / samples as f64).sqrt() / max_f)
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

    #[test]
    fn spec_matches_paper_entry_count() {
        let spec = TableSpec::paper_default();
        assert_eq!(spec.total_entries(), 240);
    }

    #[test]
    fn tiered_lookup_is_consistent_with_bounds() {
        let table = FunctionTable::fit(|u| u, TableSpec::paper_default());
        for i in 0..10_000 {
            let u = (i as f64 + 0.5) / 10_000.0;
            let s = table.segment_of(u);
            let (lo, w) = table.bounds[s];
            assert!(u >= lo - 1e-12 && u < lo + w + 1e-12, "u={u} seg={s}");
        }
    }

    #[test]
    fn table_is_continuous_across_segments() {
        let table = FunctionTable::fit(|u| (1.0 / (u + 0.01)).sqrt(), TableSpec::paper_default());
        for k in 1..table.segments.len() {
            let (s, _) = table.bounds[k];
            let left = table.eval_f64(s - 1e-13);
            let right = table.eval_f64(s + 1e-13);
            // Continuity up to one quantization step of the larger segment.
            let tol = (2.0f64).powi(
                table.segments[k]
                    .exponent
                    .max(table.segments[k - 1].exponent)
                    - (table.spec.mantissa_bits as i32 - 1),
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
        let table = FunctionTable::fit(f, TableSpec::paper_default());
        let (max_rel, rms_rel) = table.error_vs(f, 1e-4, 1.0, 20_000);
        assert!(max_rel < 3e-5, "max rel err {max_rel:e}");
        assert!(rms_rel < 1e-5, "rms rel err {rms_rel:e}");
    }

    #[test]
    fn fixed_eval_matches_f64_eval() {
        let f = |u: f64| 1.0 / (u + 0.05);
        let table = FunctionTable::fit(f, TableSpec::paper_default());
        for i in 0..5000 {
            let u = (i as f64 + 0.5) / 5000.0;
            let u_q31 = (u * (1i64 << 31) as f64) as i64;
            let fx = table.eval_fixed_f64(u_q31);
            let fl = table.eval_f64(u);
            assert!(
                (fx - fl).abs() < 2e-5 * fl.abs().max(1.0),
                "u={u}: fixed {fx} vs f64 {fl}"
            );
        }
    }

    #[test]
    fn fast_ladder_is_bitwise_identical_to_float_lookup() {
        // Both shipped specs qualify for the integer index ladder; a table
        // stripped of it (the deserialization fallback) must produce the
        // same segment index, the same Q31 t, and the same mantissa and
        // exponent for every representable input — including the segment
        // boundaries, where an index ladder would first diverge.
        for spec in [TableSpec::paper_default(), TableSpec::geometric(8, 32)] {
            let table = FunctionTable::fit(|u| 1.0 / (u + 0.03), spec);
            assert!(table.fast.is_some(), "shipped spec must qualify");
            let mut slow = table.clone();
            slow.fast = None;
            let mut probes: Vec<i64> = (0..40_000)
                .map(|i| (i as i64 * 53687) % ((1i64 << 31) - 1))
                .collect();
            for &(s, w) in &table.bounds {
                let q = (s * (1i64 << 31) as f64) as i64;
                let e = ((s + w) * (1i64 << 31) as f64) as i64;
                probes.extend([q, q + 1, e - 1]);
            }
            probes.extend([0, (1i64 << 31) - 1]);
            for u_q31 in probes {
                assert_eq!(
                    table.locate_q31(u_q31),
                    slow.locate_q31(u_q31),
                    "lookup diverged at u_q31={u_q31}"
                );
                assert_eq!(
                    table.eval_fixed(u_q31),
                    slow.eval_fixed(u_q31),
                    "eval diverged at u_q31={u_q31}"
                );
            }
        }
    }

    #[test]
    fn non_binary_tier_widths_fall_back_to_float_lookup() {
        // 3 segments over [0,1): width 1/3 is not a power of two in Q31,
        // so the ladder must refuse and the float path must carry.
        let spec = TableSpec {
            tiers: vec![(3, 1.0)],
            mantissa_bits: 22,
        };
        let table = FunctionTable::fit(|u| u * u, spec);
        assert!(table.fast.is_none());
        let (m, e) = table.eval_fixed(1 << 30);
        assert!((m as f64 * (2.0f64).powi(e) - 0.25).abs() < 1e-4);
    }

    #[test]
    fn fixed_eval_is_deterministic() {
        let table = FunctionTable::fit(|u| (1.0 - u).sqrt(), TableSpec::paper_default());
        for raw in [0i64, 12345678, 1 << 30, (1 << 31) - 1] {
            assert_eq!(table.eval_fixed(raw), table.eval_fixed(raw));
        }
    }
}
