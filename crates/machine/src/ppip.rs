//! Pairwise point interaction pipelines (paper §2.2, §3.2.1, Figure 4).
//!
//! A PPIP computes the interaction of two points as table-driven functions
//! of r². [`Ppip`] bundles the fitted force/energy tables for the Ewald
//! direct-space Coulomb kernel and the two Lennard-Jones powers; the Anton
//! engine evaluates every range-limited pair through this model, so the
//! engine's force field *is* the quantized piecewise-cubic one — which is
//! what Table 4's "numerical force error" measures.
//!
//! The tables are a pure function of `(β, cutoff)`, and the machine loads
//! them once and runs on them for months. [`Ppip::shared`] does the same per
//! process: every engine pipeline (and every verifier's independent one)
//! over the same parameters holds one `Arc` of one fit, and evaluates
//! through it on its own.
//!
//! The match units' low-precision distance check (Figure 4b) lives with the
//! engine's match stage: `anton_core::batch::Q20Ladder::r2_lower_bound_q40`.

use crate::tables::{exp2i, FunctionTable, MANTISSA_BITS};
use anton_fixpoint::rounding::{rne_f64_to_i64, rne_shr_i64_bounded};
use anton_forcefield::units::{erfc, COULOMB};
use std::sync::{Arc, Mutex, PoisonError};

/// Fraction bits of the r² values handed to the PPIP (Q20 Å²).
pub const R2_FRAC: u32 = 20;

/// Lanes per kernel call: the ASIC pairs each PPIP with 8 match units
/// (paper §2.2), so the evaluator hands the PPIP its cutoff-surviving pairs
/// eight at a time.
pub const MATCH_WIDTH: usize = 8;

/// One 8-wide bundle of pairs headed into the tabulated evaluator:
/// per-lane Q20 r², charge products, and LJ coefficients, plus a survivor
/// mask (bit `k` set = lane `k` holds a real pair). This is the evaluator's
/// *staging* record, formed in the pipeline and never stored: the engine's
/// match cache keeps only which atoms meet (rows of tile slots, one i slot
/// and its j slots, `anton_core::batch::PairQueue`), and every step re-derives r² from the
/// current positions, gathers the per-atom parameters and stages the
/// in-cutoff pairs into one of these on the stack, handing it to the
/// kernel each time it holds eight — so every call but the last of a list
/// is a full mask. Who `i`/`j` are and the displacement for the force
/// scatter stay with the caller — the PPIP only ever sees r² and per-pair
/// kernel parameters, like the hardware.
#[derive(Clone, Copy, Debug)]
pub struct PairBatch {
    pub r2_q20: [i64; MATCH_WIDTH],
    pub qq: [f64; MATCH_WIDTH],
    pub lj_a: [f64; MATCH_WIDTH],
    pub lj_b: [f64; MATCH_WIDTH],
    pub mask: u8,
}

impl PairBatch {
    pub const EMPTY: PairBatch = PairBatch {
        r2_q20: [0; MATCH_WIDTH],
        qq: [0.0; MATCH_WIDTH],
        lj_a: [0.0; MATCH_WIDTH],
        lj_b: [0.0; MATCH_WIDTH],
        mask: 0,
    };
}

/// Largest coefficient mantissa magnitude the fused Horner accepts (the
/// 22-bit tables of [`Ppip::build`] stay below 2²¹).
const HORNER_COEFF_MAX: u32 = 1 << 29;

/// One table's integer Horner chain at Q31 `t`, decoded: the evaluate half
/// of [`Ppip::pair`]. Every product stays inside the bounded shift's ±2⁶²:
/// t ≤ 2³¹ and |c| ≤ 2²⁹ (`HORNER_COEFF_MAX`, checked when the tables are
/// fused), so |acc| ≤ 2²⁹, then ≤ 2³⁰, then ≤ 1.5·2³⁰ entering the three
/// steps, and |acc·t| ≤ 1.5·2⁶¹.
#[inline(always)]
fn horner(seg: &FusedSeg, k: usize, t: i64) -> f64 {
    let c = &seg.coeffs[k];
    let mut acc = c[3] as i64;
    for j in (0..3).rev() {
        acc = rne_shr_i64_bounded(acc * t, 31) + c[j] as i64;
    }
    acc as f64 * seg.scale[k]
}

/// Table sets [`Ppip::shared`] keeps. At ≈ 90 KB each, a daemon fed
/// arbitrary cutoffs holds well under 1 MB.
const SHARED_CAPACITY: usize = 8;

/// The process-wide memo behind [`Ppip::shared`]: `((β bits, cutoff
/// bits), tables)`, oldest insert first.
type SharedKey = (u64, u64);
static SHARED: Mutex<Vec<(SharedKey, Arc<Ppip>)>> = Mutex::new(Vec::new());

/// One segment's worth of all six kernels, packed contiguously.
///
/// The six `FunctionTable`s share one segment ladder, so segment `idx`
/// means the same u-interval in each; fusing their coefficients puts
/// everything [`Ppip::pair`] needs for a lane behind a single
/// data-dependent address instead of six pointer-chases into six separate
/// `Vec<Segment>`s (which is where the evaluator spent most of its time —
/// the per-pair segment index is effectively random, so each chase was a
/// cache miss).
///
/// `scale[k]` is the exact block-floating-point decode factor
/// `2^(exponent_k − (MANTISSA_BITS − 1))` of table `k`'s segment (see
/// [`exp2i`]); multiplying the integer Horner result by it is
/// bit-identical to the `(mantissa, exponent)` decode it replaces.
#[derive(Clone, Debug)]
struct FusedSeg {
    /// `coeffs[k]` = cubic coefficients of table `k` on this segment,
    /// tables in the order f_elec, f12, f6, e_elec, e12, e6.
    coeffs: [[i32; 4]; 6],
    scale: [f64; 6],
}

/// A PPIP bound to an Ewald splitting parameter and cutoff.
#[derive(Clone, Debug)]
pub struct Ppip {
    /// Table domain scale: u = r² / r2_max, with r2_max slightly above rc².
    pub r2_max: f64,
    pub beta: f64,
    pub cutoff: f64,
    /// Force tables: scalar such that F = d · table(u) (per unit charge
    /// product / LJ coefficient). Electrostatic table excludes the Coulomb
    /// constant (applied at evaluation, as the charge product is).
    pub f_elec: FunctionTable,
    pub f12: FunctionTable,
    pub f6: FunctionTable,
    /// Energy tables.
    pub e_elec: FunctionTable,
    pub e12: FunctionTable,
    pub e6: FunctionTable,
    /// u below which the kernels are clamped (pairs never get this close).
    pub u_clamp_elec: f64,
    pub u_clamp_vdw: f64,
    inv_r2max_q31: f64,
    /// Segment-fused view of the six tables (see [`FusedSeg`]).
    fused: Vec<FusedSeg>,
}

impl Ppip {
    /// Build tables for the erfc-screened Coulomb and LJ kernels.
    pub fn build(beta: f64, cutoff: f64) -> Ppip {
        let r2_max = (cutoff * cutoff) * 1.05;
        let two_over_sqrt_pi = 2.0 / std::f64::consts::PI.sqrt();

        // Clamp radii: real nonbonded pairs never approach closer than the
        // steepest LJ contact; the tables hold the clamped value below.
        // Clamp points snap to segment boundaries so the kink never falls
        // inside one cubic fit.
        let r_min_elec: f64 = 0.5;
        let r_min_vdw: f64 = 1.4;
        let u_clamp_elec = FunctionTable::snap_down((r_min_elec * r_min_elec) / r2_max);
        let u_clamp_vdw = FunctionTable::snap_down((r_min_vdw * r_min_vdw) / r2_max);

        let r_of = move |u: f64, uc: f64| (u.max(uc) * r2_max).sqrt();
        let f_elec_fn = move |u: f64| {
            let r = r_of(u, u_clamp_elec);
            let x = beta * r;
            (erfc(x) / r + two_over_sqrt_pi * beta * (-x * x).exp()) / (r * r)
        };
        let e_elec_fn = move |u: f64| {
            let r = r_of(u, u_clamp_elec);
            erfc(beta * r) / r
        };
        let f12_fn = move |u: f64| {
            let r2 = u.max(u_clamp_vdw) * r2_max;
            12.0 / (r2 * r2 * r2 * r2 * r2 * r2 * r2)
        };
        let e12_fn = move |u: f64| {
            let r2 = u.max(u_clamp_vdw) * r2_max;
            1.0 / (r2 * r2 * r2 * r2 * r2 * r2)
        };
        let f6_fn = move |u: f64| {
            let r2 = u.max(u_clamp_vdw) * r2_max;
            6.0 / (r2 * r2 * r2 * r2)
        };
        let e6_fn = move |u: f64| {
            let r2 = u.max(u_clamp_vdw) * r2_max;
            1.0 / (r2 * r2 * r2)
        };

        let f_elec = FunctionTable::fit(f_elec_fn);
        let f12 = FunctionTable::fit(f12_fn);
        let f6 = FunctionTable::fit(f6_fn);
        let e_elec = FunctionTable::fit(e_elec_fn);
        let e12 = FunctionTable::fit(e12_fn);
        let e6 = FunctionTable::fit(e6_fn);
        let fused = Self::fuse([&f_elec, &f12, &f6, &e_elec, &e12, &e6]);

        Ppip {
            r2_max,
            beta,
            cutoff,
            f_elec,
            f12,
            f6,
            e_elec,
            e12,
            e6,
            u_clamp_elec,
            u_clamp_vdw,
            inv_r2max_q31: (1i64 << 31) as f64 / (r2_max * (1i64 << R2_FRAC) as f64),
            fused,
        }
    }

    /// The tables of [`Self::build`]`(beta, cutoff)`, fitted once per
    /// process. `build`'s only inputs are these two values (its segment
    /// ladder is a constant), so the key is their bit patterns and a hit is
    /// bitwise the fit it skips. The fit runs outside the lock; when two
    /// threads race on a cold key, the first `Arc` inserted is the one both
    /// get. Holds at most [`SHARED_CAPACITY`] keys, evicting the oldest.
    pub fn shared(beta: f64, cutoff: f64) -> Arc<Ppip> {
        let key = (beta.to_bits(), cutoff.to_bits());
        // Every update below is a single push or remove, so the memo is
        // valid even if a holder panicked.
        let lock = || SHARED.lock().unwrap_or_else(PoisonError::into_inner);
        let find = |memo: &[(SharedKey, Arc<Ppip>)]| {
            memo.iter()
                .find(|(k, _)| *k == key)
                .map(|(_, p)| Arc::clone(p))
        };
        if let Some(hit) = find(&lock()) {
            return hit;
        }
        let fitted = Arc::new(Ppip::build(beta, cutoff));
        let mut memo = lock();
        if let Some(first) = find(&memo) {
            return first;
        }
        if memo.len() == SHARED_CAPACITY {
            memo.remove(0);
        }
        memo.push((key, Arc::clone(&fitted)));
        fitted
    }

    /// Pack the six per-table segment arrays into one segment-major array.
    /// Pure layout change: the coefficients and decode scales are exactly
    /// the values the separate tables would have produced.
    fn fuse(tables: [&FunctionTable; 6]) -> Vec<FusedSeg> {
        (0..tables[0].segments.len())
            .map(|idx| {
                let mut coeffs = [[0i32; 4]; 6];
                let mut scale = [0.0f64; 6];
                for (k, t) in tables.iter().enumerate() {
                    let seg = &t.segments[idx];
                    // `pair`'s Horner step rounds on the bounded shift.
                    assert!(
                        seg.coeffs
                            .iter()
                            .all(|c| c.unsigned_abs() <= HORNER_COEFF_MAX),
                        "PPIP table mantissas must fit 30 bits"
                    );
                    coeffs[k] = seg.coeffs;
                    scale[k] = exp2i(seg.exponent - (MANTISSA_BITS as i32 - 1));
                }
                FusedSeg { coeffs, scale }
            })
            .collect()
    }

    /// Convert a Q20 r² raw value to the Q31 table coordinate
    /// (deterministic: one rounded multiply).
    #[inline]
    pub fn u_q31(&self, r2_q20: i64) -> i64 {
        rne_f64_to_i64(r2_q20 as f64 * self.inv_r2max_q31)
    }

    /// Table-driven `(force/r, energy)` of one range-limited pair:
    /// `F⃗ = d⃗ · force_over_r`. Deterministic for given raw inputs.
    ///
    /// All six tables share one ladder, so the segment locate is done once
    /// and reused — bitwise identical to six independent lookups —
    /// and only the tables whose coefficient is non-zero are evaluated:
    /// the two Coulomb ones always, the four LJ ones when the pair has an
    /// LJ term.
    #[inline]
    pub fn pair(&self, r2_q20: i64, qq: f64, lj_a: f64, lj_b: f64) -> (f64, f64) {
        let (idx, t) = FunctionTable::locate_q31(self.u_q31(r2_q20));
        // Evaluate the kernels out of the fused segment record: same
        // integer Horner and block-floating-point decode as
        // `FunctionTable::eval_at` + `exp2i`, but one load stream instead of
        // six scattered `segments[idx]` chases (`pair_tracks_tables` pins
        // the equivalence bit-for-bit).
        let seg = &self.fused[idx];
        let table = |k: usize| horner(seg, k, t);
        let mut f = COULOMB * qq * table(0);
        let mut e = COULOMB * qq * table(3);
        // A pair with no LJ coefficients (any pair with a TIP3P hydrogen:
        // 8 of the 9 atom pairs of a water–water contact) runs the two
        // Coulomb chains only. The skipped terms are `0·table`, exact ±0
        // addends, so `f` and `e` keep their bits wherever the Coulomb term
        // is non-zero and stay ±0 where it is zero
        // (`zero_lj_pairs_skip_four_tables_exactly`).
        if lj_a != 0.0 || lj_b != 0.0 {
            f = f + lj_a * table(1) - lj_b * table(2);
            e = e + lj_a * table(4) - lj_b * table(5);
        }
        (f, e)
    }

    /// Evaluate a whole masked match batch: lane `k` of `out` receives the
    /// `(force/r, energy)` of lane `k` of the batch when mask bit `k` is
    /// set (unset lanes are zeroed); each lane is bitwise identical to a
    /// [`Self::pair`] call with its inputs. See [`Self::pair_lanes`].
    #[inline]
    pub fn pair_batch(&self, batch: &PairBatch, out: &mut [(f64, f64); MATCH_WIDTH]) {
        self.pair_lanes::<true>(batch, out);
    }

    /// The batch kernel, stage-major: each stage runs across all eight
    /// lanes before the next starts, so the eight independent operation
    /// chains interleave and no lane waits on a branch.
    ///
    /// 1. `u` for every lane: one rounded multiply.
    /// 2. The segment locate, in closed form
    ///    ([`FunctionTable::locate_q31`], which clamps `u` to `[0, 1)`):
    ///    no tier walk.
    /// 3. The Coulomb chains, force (and energy) for every lane.
    /// 4. The four LJ chains, over a compacted list of the set lanes with
    ///    a non-zero LJ coefficient.
    ///
    /// A lane runs exactly the operations of [`Self::pair`], in its order;
    /// unset lanes are computed (whatever they hold) and zeroed at the end.
    /// With `ENERGY` false the energy chains are skipped and every energy
    /// slot is `0.0`; the force bits are the same as with it.
    #[inline]
    pub fn pair_lanes<const ENERGY: bool>(
        &self,
        batch: &PairBatch,
        out: &mut [(f64, f64); MATCH_WIDTH],
    ) {
        let mut u = [0i64; MATCH_WIDTH];
        for (u, &r2) in u.iter_mut().zip(&batch.r2_q20) {
            *u = self.u_q31(r2);
        }
        let mut located = [(0usize, 0i64); MATCH_WIDTH];
        for (at, &u) in located.iter_mut().zip(&u) {
            *at = FunctionTable::locate_q31(u);
        }
        let mut f = [0.0f64; MATCH_WIDTH];
        let mut e = [0.0f64; MATCH_WIDTH];
        for k in 0..MATCH_WIDTH {
            let (idx, t) = located[k];
            let seg = &self.fused[idx];
            f[k] = COULOMB * batch.qq[k] * horner(seg, 0, t);
            if ENERGY {
                e[k] = COULOMB * batch.qq[k] * horner(seg, 3, t);
            }
        }
        let mut lj = [0usize; MATCH_WIDTH];
        let mut n = 0;
        for k in 0..MATCH_WIDTH {
            // Non-short-circuit `&`/`|`: whether a lane has an LJ term is a
            // coin flip, so it must not become a branch.
            lj[n] = k;
            let set = batch.mask & (1u8 << k) != 0;
            n += usize::from(set & ((batch.lj_a[k] != 0.0) | (batch.lj_b[k] != 0.0)));
        }
        for &k in &lj[..n] {
            let (idx, t) = located[k];
            let seg = &self.fused[idx];
            let (a, b) = (batch.lj_a[k], batch.lj_b[k]);
            f[k] = f[k] + a * horner(seg, 1, t) - b * horner(seg, 2, t);
            if ENERGY {
                e[k] = e[k] + a * horner(seg, 4, t) - b * horner(seg, 5, t);
            }
        }
        for (k, slot) in out.iter_mut().enumerate() {
            // All ones on a set lane, +0.0 on an unset one, without a branch.
            let keep = 0u64.wrapping_sub(u64::from(batch.mask >> k & 1));
            let lane = |x: f64| f64::from_bits(x.to_bits() & keep);
            *slot = (lane(f[k]), lane(e[k]));
        }
    }

    /// Exact (double-precision) kernels with the same clamping, for error
    /// measurements against the table path.
    pub fn pair_exact(&self, r2: f64, qq: f64, lj_a: f64, lj_b: f64) -> (f64, f64) {
        let two_over_sqrt_pi = 2.0 / std::f64::consts::PI.sqrt();
        let re2 = r2.max(self.u_clamp_elec * self.r2_max);
        let r = re2.sqrt();
        let x = self.beta * r;
        let f_c = (erfc(x) / r + two_over_sqrt_pi * self.beta * (-x * x).exp()) / re2;
        let e_c = erfc(x) / r;
        let rv2 = r2.max(self.u_clamp_vdw * self.r2_max);
        let inv6 = 1.0 / (rv2 * rv2 * rv2);
        let f = COULOMB * qq * f_c + lj_a * 12.0 * inv6 * inv6 / rv2 - lj_b * 6.0 * inv6 / rv2;
        let e = COULOMB * qq * e_c + lj_a * inv6 * inv6 - lj_b * inv6;
        (f, e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tables::U_Q31_MAX;
    use rand::{Rng, SeedableRng};

    #[test]
    fn table_force_tracks_exact_kernel() {
        let ppip = Ppip::build(0.24, 13.0);
        let mut worst: f64 = 0.0;
        for i in 0..4000 {
            let r = 2.0 + 11.0 * (i as f64 + 0.5) / 4000.0;
            let r2 = r * r;
            let r2_q20 = (r2 * (1i64 << 20) as f64) as i64;
            let (f_t, e_t) = ppip.pair(r2_q20, 0.3, 5.0e5, 600.0);
            let (f_x, e_x) = ppip.pair_exact(r2, 0.3, 5.0e5, 600.0);
            let scale = f_x.abs().max(1.0);
            worst = worst.max((f_t - f_x).abs() / scale);
            assert!((e_t - e_x).abs() < 1e-3 * e_x.abs().max(1.0), "r={r}");
        }
        assert!(worst < 1e-4, "worst relative force deviation {worst:e}");
    }

    /// The r² sweep of the table pins: both domain endpoints, the clamp
    /// regions, and a dense random fill.
    fn r2_probes(ppip: &Ppip) -> Vec<i64> {
        let r2_max_q20 = (ppip.r2_max * (1i64 << 20) as f64) as i64;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(41);
        let mut probes: Vec<i64> = vec![0, 1, r2_max_q20 - 1, r2_max_q20, r2_max_q20 + 7];
        for _ in 0..20_000 {
            probes.push(rng.gen_range(0..r2_max_q20 + 4096));
        }
        probes
    }

    /// `(force/r, energy)` composed from the six standalone tables through
    /// `locate_q31` + `eval_at` + `exp2i`, every term evaluated: the path
    /// the fused record replaced, and the oracle for both pins below.
    fn six_table_pair(ppip: &Ppip, r2_q20: i64, qq: f64, lj_a: f64, lj_b: f64) -> (f64, f64) {
        let (idx, t_q31) = FunctionTable::locate_q31(ppip.u_q31(r2_q20));
        let fixed = |table: &FunctionTable| {
            let (m, e) = table.eval_at(idx, t_q31);
            m as f64 * crate::tables::exp2i(e)
        };
        (
            COULOMB * qq * fixed(&ppip.f_elec) + lj_a * fixed(&ppip.f12) - lj_b * fixed(&ppip.f6),
            COULOMB * qq * fixed(&ppip.e_elec) + lj_a * fixed(&ppip.e12) - lj_b * fixed(&ppip.e6),
        )
    }

    /// The fused-segment evaluation in `pair` is bit-identical to composing
    /// the six standalone tables (the path it replaced), over a dense r²
    /// sweep including the clamp regions and both domain endpoints.
    #[test]
    fn pair_tracks_tables() {
        let ppip = Ppip::build(0.35, 7.5);
        for r2_q20 in r2_probes(&ppip) {
            let (qq, lj_a, lj_b) = (0.41, 6.0e5, 530.0);
            let got = ppip.pair(r2_q20, qq, lj_a, lj_b);
            let want = six_table_pair(&ppip, r2_q20, qq, lj_a, lj_b);
            assert_eq!(
                got.0.to_bits(),
                want.0.to_bits(),
                "force at r2_q20={r2_q20}"
            );
            assert_eq!(
                got.1.to_bits(),
                want.1.to_bits(),
                "energy at r2_q20={r2_q20}"
            );
        }
    }

    /// With both LJ coefficients zero `pair` runs two Horner chains instead
    /// of six. The four skipped terms are `0·table`, exact ±0 addends: the
    /// result keeps its bits wherever the Coulomb term is non-zero, and is
    /// some zero where the six-table sum is some zero — which the engine's
    /// force and energy quantization (scale, round to nearest/even, to
    /// integer) cannot tell apart.
    #[test]
    fn zero_lj_pairs_skip_four_tables_exactly() {
        use anton_fixpoint::rounding::rne_f64_to_i64;
        // The engine's scatter: a displacement component times force/r at
        // FORCE_FRAC = 24, the energy at ENERGY_FRAC = 32.
        let quantized = |(f, e): (f64, f64)| {
            (
                rne_f64_to_i64(-3.25 * f * (1i64 << 24) as f64),
                rne_f64_to_i64(e * (1u64 << 32) as f64),
            )
        };
        let ppip = Ppip::build(0.35, 7.5);
        for r2_q20 in r2_probes(&ppip) {
            for qq in [0.41, -0.17, 0.0, -0.0] {
                let got = ppip.pair(r2_q20, qq, 0.0, 0.0);
                let want = six_table_pair(&ppip, r2_q20, qq, 0.0, 0.0);
                if want.0 != 0.0 {
                    assert_eq!(
                        got.0.to_bits(),
                        want.0.to_bits(),
                        "force, r2 {r2_q20} qq {qq}"
                    );
                }
                if want.1 != 0.0 {
                    assert_eq!(
                        got.1.to_bits(),
                        want.1.to_bits(),
                        "energy, r2 {r2_q20} qq {qq}"
                    );
                }
                assert_eq!(quantized(got), quantized(want), "r2 {r2_q20} qq {qq}");
            }
        }
        // The sweep saw both regimes.
        assert_ne!(ppip.pair(1 << 22, 0.41, 0.0, 0.0).0, 0.0);
        assert_eq!(ppip.pair(1 << 22, 0.0, 0.0, 0.0), (0.0, 0.0));
    }

    /// FNV-1a (64-bit) over every bit the fit produces: the fused
    /// coefficients and decode scales, each table's `(coeffs, exponent)`
    /// and segment bounds, and the clamp points and `u` scale.
    fn fit_fnv(p: &Ppip) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |word: u64| {
            for byte in word.to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for seg in &p.fused {
            seg.coeffs.iter().flatten().for_each(|&c| eat(c as u64));
            seg.scale.iter().for_each(|s| eat(s.to_bits()));
        }
        for t in [&p.f_elec, &p.f12, &p.f6, &p.e_elec, &p.e12, &p.e6] {
            for s in &t.segments {
                s.coeffs.iter().for_each(|&c| eat(c as u64));
                eat(s.exponent as u64);
            }
            for &(start, width) in &t.bounds {
                eat(start.to_bits());
                eat(width.to_bits());
            }
        }
        for x in [p.u_clamp_elec, p.u_clamp_vdw, p.inv_r2max_q31] {
            eat(x.to_bits());
        }
        h
    }

    /// The fitted tables, all 256 segments of all six kernels and both
    /// clamp regions, are pinned to the bit: a change to the ladder, the
    /// Remez fit or the quantization moves these words.
    #[test]
    fn fitted_tables_are_byte_pinned() {
        for ((beta, cutoff), want) in [
            ((0.35, 7.5), 0xdba0_908c_fc80_4d49),
            ((0.24, 13.0), 0x3aaf_cca5_b7aa_3914),
        ] {
            let got = fit_fnv(&Ppip::build(beta, cutoff));
            assert_eq!(got, want, "β {beta}, cutoff {cutoff}: {got:#018x}");
        }
    }

    #[test]
    fn rms_force_error_near_paper_numerical_error() {
        // The paper's "numerical force error" is ~9e-6 of the rms force;
        // our table path should land in the same decade.
        let ppip = Ppip::build(0.24, 13.0);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(77);
        let mut err2 = 0.0;
        let mut norm2 = 0.0;
        for _ in 0..20_000 {
            let r = 2.4 + rng.gen::<f64>() * 10.0;
            let r2 = r * r;
            let qq = (rng.gen::<f64>() - 0.5) * 0.6;
            let a = rng.gen::<f64>() * 8e5;
            let b = rng.gen::<f64>() * 1.2e3;
            let r2_q20 = (r2 * (1i64 << 20) as f64) as i64;
            let (f_t, _) = ppip.pair(r2_q20, qq, a, b);
            let (f_x, _) = ppip.pair_exact(r2, qq, a, b);
            err2 += ((f_t - f_x) * r).powi(2);
            norm2 += (f_x * r).powi(2);
        }
        let rel = (err2 / norm2).sqrt();
        assert!(rel < 5e-5, "rms relative force error {rel:e}");
        assert!(rel > 1e-9, "suspiciously exact: {rel:e}");
    }

    /// The memo is process-wide, and the tests below count on what it holds
    /// (ptr-equal hits, which key is oldest): they run one at a time.
    static MEMO_TESTS: Mutex<()> = Mutex::new(());

    fn memo_test() -> std::sync::MutexGuard<'static, ()> {
        MEMO_TESTS.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// `a` and `b` are the same tables bit for bit: every fused coefficient
    /// and decode scale, each table's segments, and `pair` over a
    /// 10⁵-point r² sweep with and without an LJ term.
    fn assert_bitwise_equal(a: &Ppip, b: &Ppip) {
        let scalars = |p: &Ppip| {
            [
                p.r2_max,
                p.beta,
                p.cutoff,
                p.u_clamp_elec,
                p.u_clamp_vdw,
                p.inv_r2max_q31,
            ]
            .map(f64::to_bits)
        };
        assert_eq!(scalars(a), scalars(b));
        assert_eq!(a.fused.len(), b.fused.len());
        for (x, y) in a.fused.iter().zip(&b.fused) {
            assert_eq!(x.coeffs, y.coeffs);
            assert_eq!(x.scale.map(f64::to_bits), y.scale.map(f64::to_bits));
        }
        fn tables(p: &Ppip) -> [&FunctionTable; 6] {
            [&p.f_elec, &p.f12, &p.f6, &p.e_elec, &p.e12, &p.e6]
        }
        let segs = |t: &FunctionTable| -> Vec<_> {
            t.segments.iter().map(|s| (s.coeffs, s.exponent)).collect()
        };
        for (x, y) in tables(a).into_iter().zip(tables(b)) {
            assert_eq!(segs(x), segs(y));
        }
        let span = (a.r2_max * (1i64 << 20) as f64) as i64 + 4096;
        for i in 0..=100_000i64 {
            let r2_q20 = i * span / 100_000;
            for (qq, lj_a, lj_b) in [(0.41, 6.0e5, 530.0), (-0.17, 0.0, 0.0)] {
                let (fa, ea) = a.pair(r2_q20, qq, lj_a, lj_b);
                let (fb, eb) = b.pair(r2_q20, qq, lj_a, lj_b);
                assert_eq!(fa.to_bits(), fb.to_bits(), "force at r2_q20={r2_q20}");
                assert_eq!(ea.to_bits(), eb.to_bits(), "energy at r2_q20={r2_q20}");
            }
        }
    }

    #[test]
    fn shared_tables_are_the_fit_bitwise() {
        let _serial = memo_test();
        for (beta, cutoff) in [(0.35, 7.5), (0.24, 13.0)] {
            assert_bitwise_equal(&Ppip::shared(beta, cutoff), &Ppip::build(beta, cutoff));
        }
    }

    #[test]
    fn shared_hands_out_one_fit_per_exact_key() {
        let _serial = memo_test();
        let (beta, cutoff) = (0.31, 8.25);
        let first = Ppip::shared(beta, cutoff);
        assert!(Arc::ptr_eq(&first, &Ppip::shared(beta, cutoff)));
        // One ulp of either input is another key, hence another fit.
        for (b, c) in [(beta.next_up(), cutoff), (beta, cutoff.next_up())] {
            let other = Ppip::shared(b, c);
            assert!(!Arc::ptr_eq(&first, &other), "β {b:e}, cutoff {c:e}");
            assert_eq!(
                (other.beta.to_bits(), other.cutoff.to_bits()),
                (b.to_bits(), c.to_bits())
            );
        }
    }

    #[test]
    fn shared_evicts_the_oldest_key_past_capacity() {
        let _serial = memo_test();
        let key = |i: usize| (0.3, 9.0 + 0.125 * i as f64);
        let oldest = Ppip::shared(key(0).0, key(0).1);
        // SHARED_CAPACITY newer keys push out `key(0)` and nothing newer,
        // whatever the memo held before.
        let newer: Vec<Arc<Ppip>> = (1..=SHARED_CAPACITY)
            .map(|i| Ppip::shared(key(i).0, key(i).1))
            .collect();
        for (i, kept) in (1..=SHARED_CAPACITY).zip(&newer) {
            assert!(
                Arc::ptr_eq(kept, &Ppip::shared(key(i).0, key(i).1)),
                "key {i}"
            );
        }
        let refit = Ppip::shared(key(0).0, key(0).1);
        assert!(
            !Arc::ptr_eq(&oldest, &refit),
            "the oldest key was not evicted"
        );
        assert_bitwise_equal(&refit, &oldest);
    }

    #[test]
    fn racing_threads_on_a_cold_key_get_one_fit() {
        let _serial = memo_test();
        let (beta, cutoff) = (0.29, 10.75);
        let start = std::sync::Barrier::new(4);
        let got: Vec<Arc<Ppip>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        Ppip::shared(beta, cutoff)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for p in &got[1..] {
            assert!(Arc::ptr_eq(&got[0], p), "the first inserted fit wins");
        }
        assert_bitwise_equal(&got[0], &Ppip::build(beta, cutoff));
    }

    /// Q31 `u` around every segment boundary of the shipped ladder (tier
    /// boundaries included): `b − 1`, `b`, `b + 1`, clamped to the domain.
    fn boundary_us(ppip: &Ppip) -> Vec<i64> {
        let q31 = (1i64 << 31) as f64;
        let mut us = vec![0, 1, U_Q31_MAX - 1, U_Q31_MAX];
        for &(start, _) in &ppip.f_elec.bounds {
            let b = (start * q31) as i64;
            us.extend([b - 1, b, b + 1].map(|u| u.clamp(0, U_Q31_MAX)));
        }
        us
    }

    /// The closed-form locate `pair` and `pair_lanes` run is the shipped
    /// tables' own layout: all six tables carry one set of bounds, and at
    /// every boundary ±1 and 10⁶ random `u` the located segment holds `u`
    /// and `t` is `u`'s offset from the segment start over its width, in Q31.
    #[test]
    fn closed_form_locate_is_the_table_locate() {
        let ppip = Ppip::build(0.35, 7.5);
        let bounds = &ppip.f_elec.bounds;
        for table in [&ppip.f12, &ppip.f6, &ppip.e_elec, &ppip.e12, &ppip.e6] {
            assert_eq!(&table.bounds, bounds);
        }
        let q31 = (1i64 << 31) as f64;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(31);
        let mut us = boundary_us(&ppip);
        us.extend((0..1_000_000).map(|_| rng.gen_range(0..=U_Q31_MAX)));
        for u in us {
            let (idx, t) = FunctionTable::locate_q31(u);
            let (start, width) = bounds[idx];
            let (s, w) = ((start * q31) as i64, (width * q31) as i64);
            assert!((s..s + w).contains(&u), "u {u} outside segment {idx}");
            assert_eq!(t, ((u - s) << 31) / w, "t at u {u}");
        }
    }

    /// `pair_batch` is `pair`, lane by lane and bit for bit, and the
    /// force-only kernel's force bits are `pair_batch`'s: over arbitrary
    /// masks, `u` at every segment boundary ±1 (on a cutoff where every
    /// Q31 `u` is some r²'s), both clamp regions, lanes with and without an
    /// LJ term side by side, and charge products of both signs and zeros.
    #[test]
    fn pair_batch_is_pair_lane_by_lane() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(12);
        for ppip in [Ppip::build(0.35, 7.5), Ppip::build(0.05, 50.0)] {
            // 50 Å puts one Q20 r² step under one Q31 `u` step, so the
            // boundary `u`s are hit exactly; at 7.5 Å the nearest r² is.
            let r2_of = |u: i64| {
                let guess = (u as f64 / ppip.inv_r2max_q31) as i64;
                (guess - 40..=guess + 40)
                    .min_by_key(|&r2| (ppip.u_q31(r2) - u).abs())
                    .unwrap()
            };
            let mut r2s: Vec<i64> = boundary_us(&ppip).into_iter().map(r2_of).collect();
            if ppip.cutoff > 8.0 {
                for u in boundary_us(&ppip) {
                    let r2 = r2_of(u);
                    assert_eq!(ppip.u_q31(r2).clamp(0, U_Q31_MAX), u, "u {u} missed");
                }
            }
            // Both clamp regions (u below either clamp point), the domain
            // end and beyond it, and a random fill.
            let clamp_q20 = |uc: f64| (uc * ppip.r2_max * (1i64 << 20) as f64) as i64;
            for uc in [ppip.u_clamp_elec, ppip.u_clamp_vdw] {
                r2s.extend([0, 1, clamp_q20(uc) / 2, clamp_q20(uc) - 1, clamp_q20(uc)]);
            }
            r2s.extend(r2_probes(&ppip).into_iter().step_by(10));
            let qqs = [0.41, -0.17, 0.0, -0.0];
            let ljs = [(6.0e5, 530.0), (0.0, 0.0), (0.0, 530.0), (6.0e5, 0.0)];
            for (b, lanes) in r2s.chunks(MATCH_WIDTH).enumerate() {
                let mut batch = PairBatch::EMPTY;
                batch.mask = if b % 3 == 0 { u8::MAX } else { rng.gen() };
                for (k, &r2) in lanes.iter().enumerate() {
                    batch.r2_q20[k] = r2;
                    batch.qq[k] = qqs[rng.gen_range(0..qqs.len())];
                    (batch.lj_a[k], batch.lj_b[k]) = ljs[rng.gen_range(0..ljs.len())];
                }
                let mut full = [(0.0, 0.0); MATCH_WIDTH];
                let mut forces = [(1.0, 1.0); MATCH_WIDTH];
                ppip.pair_batch(&batch, &mut full);
                ppip.pair_lanes::<false>(&batch, &mut forces);
                for k in 0..MATCH_WIDTH {
                    let want = if batch.mask & (1 << k) == 0 {
                        (0.0, 0.0)
                    } else {
                        ppip.pair(batch.r2_q20[k], batch.qq[k], batch.lj_a[k], batch.lj_b[k])
                    };
                    let bits = |(f, e): (f64, f64)| (f.to_bits(), e.to_bits());
                    assert_eq!(bits(full[k]), bits(want), "batch {b} lane {k}: {batch:?}");
                    assert_eq!(
                        bits(forces[k]),
                        (want.0.to_bits(), 0),
                        "force-only lane {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn batch_lanes_match_scalar_pairs_bitwise() {
        let ppip = Ppip::build(0.24, 13.0);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(9);
        for mask in [0xffu8, 0x00, 0x5a, 0x01, 0x80] {
            let mut batch = PairBatch::EMPTY;
            batch.mask = mask;
            for lane in 0..MATCH_WIDTH {
                let r = 2.0 + rng.gen::<f64>() * 10.5;
                batch.r2_q20[lane] = (r * r * (1i64 << 20) as f64) as i64;
                batch.qq[lane] = (rng.gen::<f64>() - 0.5) * 0.6;
                // Odd lanes carry no LJ term (the hydrogen lanes of a water
                // batch), so both arms of `pair` sit in one batch.
                let lj = if lane % 2 == 0 { 1.0 } else { 0.0 };
                batch.lj_a[lane] = rng.gen::<f64>() * 8e5 * lj;
                batch.lj_b[lane] = rng.gen::<f64>() * 1.2e3 * lj;
            }
            let mut out = [(0.0, 0.0); MATCH_WIDTH];
            ppip.pair_batch(&batch, &mut out);
            for (lane, got) in out.iter().enumerate() {
                if mask & (1 << lane) == 0 {
                    assert_eq!(*got, (0.0, 0.0));
                    continue;
                }
                let (f, e) = ppip.pair(
                    batch.r2_q20[lane],
                    batch.qq[lane],
                    batch.lj_a[lane],
                    batch.lj_b[lane],
                );
                assert_eq!(got.0.to_bits(), f.to_bits(), "lane {lane}");
                assert_eq!(got.1.to_bits(), e.to_bits(), "lane {lane}");
            }
        }
    }
}
