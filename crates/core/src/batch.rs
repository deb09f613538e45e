//! Match queues and cell tiling for the HTIS-shaped range-limited phase.
//!
//! On the ASIC each PPIP fronts eight match units (paper §2.2): candidate
//! pairs stream out of the position tiles, survive a low-precision distance
//! check and the exact cutoff test, and enter the evaluator eight at a
//! time. The match units never store a pair — they emit *which* two atoms
//! meet, and the pipeline forms r² and the kernel parameters from the
//! per-atom tile records. This module is the software shape of that stage:
//! a [`PairQueue`] lists cutoff survivors as slot pairs (a pure identity,
//! no r², no parameters; 1-4 pairs apart), [`CellTiling`] is the one
//! power-of-two binning rule both work plans tile atoms by (and the static
//! tile-pair list the one-rank plan streams), and [`Q20Ladder`] is the one
//! displacement/r² ladder both
//! the match stage and the evaluator run. Everything is allocation-free in
//! steady state and bitwise deterministic: the queue records pairs in
//! enumeration order, and forces accumulate in wrapping integers, so the
//! order the evaluator visits them in is immaterial.

use crate::ranks::raw_bits;
use anton_fixpoint::rounding::rne_shr_i64_bounded;
use anton_fixpoint::{FxVec3, Q20};
use anton_machine::MATCH_WIDTH;

/// The match stage's output, kept between match-cache rebuilds: every
/// padded-cutoff survivor as the flat tile-pool slots of its two atoms
/// ([`PosTiles`](anton_geometry::PosTiles) slots, stable between
/// rebuilds), 8 B a pair, in enumeration order, with 1-4 pairs listed apart
/// from plain ones. Nothing position- or parameter-dependent is stored:
/// the evaluator re-forms the displacement and r² from the refreshed tile
/// positions every step, gathers charge, LJ type and atom id by slot, and
/// groups the in-cutoff pairs into 8-lane kernel calls itself. The buffers
/// are retained across [`PairQueue::begin`] calls.
#[derive(Debug, Default)]
pub(crate) struct PairQueue {
    /// Plain pairs (unit multipliers).
    pub(crate) plain: Vec<[u32; 2]>,
    /// 1-4 pairs (scaled by the exclusion policy's 1-4 multipliers).
    pub(crate) one_four: Vec<[u32; 2]>,
    /// Candidate pairs examined by the pass that filled the queue.
    pub(crate) candidates: u64,
}

impl PairQueue {
    /// Reset for a new match pass, keeping capacity.
    pub(crate) fn begin(&mut self) {
        self.plain.clear();
        self.one_four.clear();
        self.candidates = 0;
    }

    /// Append one padded-cutoff survivor: the two atoms' flat tile slots
    /// and whether the pair is 1-4.
    #[inline]
    pub(crate) fn push(&mut self, si: u32, sj: u32, one_four: bool) {
        let list = if one_four {
            &mut self.one_four
        } else {
            &mut self.plain
        };
        list.push([si, sj]);
    }

    /// The queue's pairs at eight to a match batch, the unit the census
    /// counts.
    pub(crate) fn batches(&self) -> u64 {
        (self.plain.len() + self.one_four.len()).div_ceil(MATCH_WIDTH) as u64
    }
}

/// The engine's one fraction → Å ladder, in 64-bit words: raw
/// box-fraction deltas → per-axis Q20 displacement → Q20 r², each step
/// rounded to nearest/even once. The match stage, the evaluator, the
/// mover scan, the mover test ([`MatchCache::track_movers`]) and the
/// correction stream all call [`Self::delta_r2`], so a displacement or an
/// r² can never depend on which of them derived it.
///
/// 64 bits suffice because of the bound [`Self::new`] enforces: a fraction
/// delta is an `i32` (|Δ| ≤ 2³¹) and every half-edge is below 2³⁰ in Q20
/// (1024 Å), so `Δ·half_edge` stays within 2⁶¹, each displacement within
/// 2³⁰, and the sum of three squares within 3·2⁶⁰ < 2⁶² — inside the
/// operand bound of [`rne_shr_i64_bounded`], the add-half rounding shift
/// both roundings use.
#[derive(Clone, Copy, Debug)]
pub struct Q20Ladder {
    half_edge: [i64; 3],
}

impl Q20Ladder {
    /// Exclusive bound on a half-edge, raw Q20 (1024 Å).
    pub const HALF_EDGE_BOUND: i64 = 1 << 30;

    /// Panics when a half-edge is outside `(0, 1024 Å)`: beyond it the
    /// 64-bit products would wrap and silently change forces.
    pub fn new(half_edge_q20: [Q20; 3]) -> Q20Ladder {
        let half_edge = half_edge_q20.map(|h| h.0);
        for h in half_edge {
            assert!(
                h > 0 && h < Self::HALF_EDGE_BOUND,
                "box half-edge {h} (raw Q20) outside (0, 2^30): the pair ladder's \
                 64-bit products need every half-edge under 1024 Å"
            );
        }
        Q20Ladder { half_edge }
    }

    /// Minimum-image displacement `a − b` in Q20 Å and its r² in Q20 Å².
    #[inline]
    pub fn delta_r2(&self, a: [i32; 3], b: [i32; 3]) -> ([i64; 3], i64) {
        let he = self.half_edge;
        let axis = |k: usize| rne_shr_i64_bounded(i64::from(a[k].wrapping_sub(b[k])) * he[k], 31);
        let d = [axis(0), axis(1), axis(2)];
        (
            d,
            rne_shr_i64_bounded(d[0] * d[0] + d[1] * d[1] + d[2] * d[2], 20),
        )
    }

    /// The match units' low-precision distance check: per-axis *floor*
    /// displacements squared and summed, in Q40. Floor never exceeds the
    /// exact ladder's round-to-nearest per axis, so (with the margin in
    /// `ForcePipeline::r2_lb_max`) a pair this rejects is outside the
    /// exact radius too. Straight-line integer code, so a row of
    /// candidates runs without a data-dependent branch.
    #[inline]
    pub fn r2_lower_bound_q40(&self, a: [i32; 3], b: [i32; 3]) -> i64 {
        let he = self.half_edge;
        let axis = |k: usize| (i64::from(a[k].wrapping_sub(b[k]).unsigned_abs()) * he[k]) >> 31;
        let l = [axis(0), axis(1), axis(2)];
        l[0] * l[0] + l[1] * l[1] + l[2] * l[2]
    }

    /// The same ladder in 128-bit words with no operand bound: the oracle
    /// the 64-bit form is pinned against.
    #[cfg(test)]
    pub(crate) fn delta_r2_i128(&self, a: [i32; 3], b: [i32; 3]) -> ([i64; 3], i64) {
        use anton_fixpoint::rne_shr_i128;
        let he = self.half_edge;
        let axis =
            |k: usize| rne_shr_i128(i128::from(a[k].wrapping_sub(b[k])) * i128::from(he[k]), 31);
        let d = [axis(0), axis(1), axis(2)];
        let sum: i128 = d.iter().map(|&c| i128::from(c) * i128::from(c)).sum();
        (d, rne_shr_i128(sum, 20))
    }
}

/// Guard (Å) subtracted from the pair-list slack before squaring the
/// mover threshold. The mover test runs on the match ladder itself, so
/// what the guard still absorbs is rounding against the real
/// displacement: the ladder's Q20 half-ulps per axis and of its r², and
/// the Q20 rounding of the threshold, which the triangle inequality
/// behind the Verlet argument does not see — a few 10⁻⁶ Å in all. Its
/// value sets which atoms are movers, hence the rebuild schedule, so it
/// stays.
const MONITOR_GUARD: f64 = 0.01;

/// Most movers a reuse step absorbs by scanning them on their own; one
/// more and the whole list is matched again. The scan costs at most
/// `MOVER_CAP · N` ladder checks, a few percent of a rebuild's candidates
/// (≈ 500 per atom on the waters, ≈ 2,900 on `dhfr`).
pub const MOVER_CAP: usize = 64;

/// The persistent match stage's reference epoch and its mover test.
///
/// The cache keeps the raw positions of the last rebuild. The batches were
/// matched against them at the *padded* cutoff `rc + s` (`s` =
/// `PAIRLIST_SLACK`), so for any pair
/// `r_ref(i,j) ≤ r_now(i,j) + disp(i) + disp(j)`: a pair inside `rc` now
/// whose atoms each moved less than `(s − MONITOR_GUARD)/2` was inside
/// `rc + s` at the rebuild, i.e. it is cached. An atom whose displacement
/// reaches that half slack is a *mover* ([`Self::track_movers`]); any
/// in-cutoff pair the cached batches lack has a mover in it, and the pair
/// phase finds those pairs by scanning the movers alone. The test is
/// `4·r² ≥ (s − MONITOR_GUARD)²` on the pipeline's [`Q20Ladder`], so the
/// mover set is a pure integer function of the positions and the epoch:
/// the same on every decomposition, thread count, and tracing mode. It is
/// recomputed on every evaluation and never stored beyond it.
#[derive(Debug)]
pub struct MatchCache {
    /// Raw positions at the last rebuild; empty = cold (forces a rebuild).
    ref_pos: Vec<FxVec3>,
    /// The pipeline's displacement/r² ladder.
    ladder: Q20Ladder,
    /// Q20 of `(PAIRLIST_SLACK − MONITOR_GUARD)²`, compared against
    /// `4·r²` (i.e. `(2·disp)²`).
    thresh2_q20: i64,
    /// The movers of the last [`Self::track_movers`], ascending (scratch).
    movers: Vec<u32>,
}

impl MatchCache {
    pub fn new(ladder: Q20Ladder, slack: f64) -> MatchCache {
        assert!(
            slack > MONITOR_GUARD,
            "pair-list slack {slack} must exceed the monitor guard"
        );
        let thresh = slack - MONITOR_GUARD;
        MatchCache {
            ref_pos: Vec::new(),
            ladder,
            thresh2_q20: Q20::from_f64(thresh * thresh).0,
            movers: Vec::new(),
        }
    }

    /// Collect the movers at `positions` — the atoms displaced by half
    /// the (guarded) slack since the reference epoch — into
    /// [`Self::movers`]. Returns `false`, with no movers, when the cached
    /// batches must be rebuilt instead: a cold cache, a changed atom
    /// count, or more than [`MOVER_CAP`] movers. The displacement is the
    /// pair phase's own [`Q20Ladder::delta_r2`], so the decision is exact
    /// and reproducible.
    pub fn track_movers(&mut self, positions: &[FxVec3]) -> bool {
        self.movers.clear();
        if self.ref_pos.is_empty() || self.ref_pos.len() != positions.len() {
            return false;
        }
        for (atom, (now, reference)) in (0u32..).zip(positions.iter().zip(&self.ref_pos)) {
            let (_, r2) = self.ladder.delta_r2(raw_bits(now), raw_bits(reference));
            if 4 * r2 >= self.thresh2_q20 {
                if self.movers.len() == MOVER_CAP {
                    self.movers.clear();
                    return false;
                }
                self.movers.push(atom);
            }
        }
        true
    }

    /// The movers found by the last [`Self::track_movers`], ascending.
    pub fn movers(&self) -> &[u32] {
        &self.movers
    }

    /// Record `positions` as the new reference epoch after a rebuild.
    pub fn note_rebuild(&mut self, positions: &[FxVec3]) {
        self.ref_pos.clear();
        self.ref_pos.extend_from_slice(positions);
    }

    /// Drop the cached epoch; the next evaluation rebuilds unconditionally.
    pub fn invalidate(&mut self) {
        self.ref_pos.clear();
    }

    /// The reference positions of the current epoch (checkpointed so a
    /// restored run continues the exact rebuild schedule).
    pub fn ref_positions(&self) -> &[FxVec3] {
        &self.ref_pos
    }
}

/// The one binning rule of both work plans: a power-of-two grid of cells
/// over the box, per axis, and a particle's cell a plain shift of its raw
/// fraction bits — no floating point between positions and tiles. The
/// cells are the half-reach subboxes of the one-rank plan
/// ([`Decomposition::SingleRank`](crate::forces::Decomposition), from
/// [`Self::build`]) or the home boxes of a node grid
/// ([`Decomposition::Nodes`](crate::forces::Decomposition), from
/// [`Self::new`]); either way a cell's index packs its coordinates x
/// fastest, as [`NodeGrid::index`](anton_nt::NodeGrid::index) does.
#[derive(Clone, Copy, Debug)]
pub struct CellTiling {
    log2_dims: [u32; 3],
}

/// Margin (Å) the cell-pair stencil adds to its reach. The match stage
/// admits a pair by its Q20 r² against the Q20-rounded `reach²`, over the
/// Q20-rounded half-edges, so an admitted pair can lie a few 10⁻⁶ Å
/// beyond `reach` in f64 terms. Listing every cell pair up to the guarded
/// reach makes "in a listed cell pair" cover every pair the Q20 test
/// admits, which is what lets the mover scan read "not cached" off the
/// epoch r² alone. It never changes the cell counts.
const REACH_GUARD: f64 = 0.01;

impl CellTiling {
    /// Cells of a power-of-two grid (a node grid's torus dims).
    pub(crate) fn new(dims: [usize; 3]) -> CellTiling {
        assert!(dims.iter().all(|d| d.is_power_of_two()), "{dims:?}");
        CellTiling {
            log2_dims: dims.map(|d| d.trailing_zeros()),
        }
    }

    /// The subboxes of the one-rank plan: per axis the largest power of two
    /// whose cell width is still at least *half* of `reach` (capped at 16
    /// cells) — cells finer than the interaction radius, so less of every
    /// streamed tile pair lies outside it.
    pub fn build(edge: [f64; 3], reach: f64) -> CellTiling {
        assert!(reach > 0.0);
        let mut log2_dims = [0u32; 3];
        for k in 0..3 {
            let mut m = 0u32;
            while m < 4 && edge[k] / (1u64 << (m + 1)) as f64 >= reach / 2.0 {
                m += 1;
            }
            log2_dims[k] = m;
        }
        CellTiling { log2_dims }
    }

    /// The static conservative cell-pair list over a box of `edge`: the
    /// unordered cell pairs `(a, b)`, `a <= b`, that can hold a pair within
    /// `reach`. Two cells are listed unless the minimum separation between
    /// them (circular cell distance minus one, times the cell width, per
    /// axis) already exceeds `reach + REACH_GUARD`, so the listed tile
    /// pairs cover every interacting pair exactly once.
    pub fn pairs(&self, edge: [f64; 3], reach: f64) -> Vec<(u32, u32)> {
        let log2_dims = self.log2_dims;
        let dims = log2_dims.map(|m| 1u32 << m);
        // Per axis, the forward cell offsets `o` (mod the cell count) that
        // can reach, each with its minimum separation: zero for the same or
        // an adjacent cell (circular), else (circ − 1)·width. Enumerating
        // offsets modulo the count lists a neighbour once even where the
        // periodic wrap makes +o and −o the same cell.
        let listed = reach + REACH_GUARD;
        let axis_offsets = |k: usize| -> Vec<(u32, f64)> {
            let width = edge[k] / dims[k] as f64;
            (0..dims[k])
                .map(|o| (o, o.min(dims[k] - o).saturating_sub(1) as f64 * width))
                .filter(|&(_, gap)| gap <= listed)
                .collect()
        };
        let (ox, oy, oz) = (axis_offsets(0), axis_offsets(1), axis_offsets(2));
        let mut stencil = Vec::new();
        for &(dz, gz) in &oz {
            for &(dy, gy) in &oy {
                for &(dx, gx) in &ox {
                    if gx * gx + gy * gy + gz * gz <= listed * listed {
                        stencil.push([dx, dy, dz]);
                    }
                }
            }
        }
        // The stencil is symmetric (−o is listed wherever o is), so every
        // unordered pair of distinct cells is reached from both ends: keep
        // the walk from the lower index.
        // Cell index of (wrapped) cell coordinates, as `cell_of` packs it.
        let index = |c: [u32; 3]| {
            let [x, y, z] = [0, 1, 2].map(|k| c[k] & (dims[k] - 1));
            (((z << log2_dims[1]) | y) << log2_dims[0]) | x
        };
        let mut pairs = Vec::new();
        for z in 0..dims[2] {
            for y in 0..dims[1] {
                for x in 0..dims[0] {
                    let a = index([x, y, z]);
                    for o in &stencil {
                        let b = index([x + o[0], y + o[1], z + o[2]]);
                        if a <= b {
                            pairs.push((a, b));
                        }
                    }
                }
            }
        }
        pairs
    }

    #[inline]
    pub fn cell_count(&self) -> usize {
        1usize << (self.log2_dims[0] + self.log2_dims[1] + self.log2_dims[2])
    }

    /// Cell of a particle from its raw signed fraction bits: bias to
    /// unsigned order (so cell 0 starts at fraction 0 = box corner) and
    /// keep the top bits. Integer-exact — binning can never disagree with
    /// the fraction arithmetic the match stage runs on.
    #[inline]
    pub fn cell_of(&self, raw: [i32; 3]) -> usize {
        let bin = |r: i32, m: u32| ((((r as u32) ^ 0x8000_0000) as u64) >> (32 - m)) as usize;
        let cx = bin(raw[0], self.log2_dims[0]);
        let cy = bin(raw[1], self.log2_dims[1]);
        let cz = bin(raw[2], self.log2_dims[2]);
        (((cz << self.log2_dims[1]) | cy) << self.log2_dims[0]) | cx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_lists_pairs_by_class_in_push_order() {
        let mut q = PairQueue::default();
        q.begin();
        q.candidates = 40;
        for p in 0..11u32 {
            q.push(p + 1000, p + 2000, p == 3 || p == 9);
        }
        // Each class keeps push order; the slots stay as pushed.
        let plain: Vec<[u32; 2]> = (0..11)
            .filter(|&p| p != 3 && p != 9)
            .map(|p| [p + 1000, p + 2000])
            .collect();
        assert_eq!(q.plain, plain);
        assert_eq!(q.one_four, [[1003, 2003], [1009, 2009]]);
        // 11 pairs fill two 8-lane batches, whatever their classes.
        assert_eq!(q.batches(), 2);
        q.push(7, 8, true);
        q.push(9, 10, true);
        q.push(11, 12, false);
        q.push(13, 14, false);
        q.push(15, 16, false);
        assert_eq!(q.batches(), 2, "16 pairs are exactly two batches");
        q.push(17, 18, true);
        assert_eq!(q.batches(), 3);
        // begin() resets, keeping nothing from the previous pass.
        q.begin();
        assert!(q.plain.is_empty() && q.one_four.is_empty());
        assert_eq!((q.candidates, q.batches()), (0, 0));
        q.push(5, 6, false);
        assert_eq!(q.plain, [[5, 6]]);
        assert_eq!(q.batches(), 1);
    }

    #[test]
    fn monitor_is_cold_until_noted_and_tracks_atom_count() {
        let he = [Q20::from_f64(11.0); 3];
        let mut cache = MatchCache::new(Q20Ladder::new(he), 0.5);
        let pos = vec![FxVec3::from_unit_frac([0.25, 0.0, -0.5]); 4];
        assert!(!cache.track_movers(&pos), "cold cache must rebuild");
        cache.note_rebuild(&pos);
        assert!(cache.track_movers(&pos), "unmoved atoms reuse");
        assert!(cache.movers().is_empty());
        assert!(
            !cache.track_movers(&pos[..3]),
            "atom count change must rebuild"
        );
        cache.invalidate();
        assert!(!cache.track_movers(&pos), "invalidated cache must rebuild");
    }

    #[test]
    fn monitor_trips_exactly_at_half_guarded_slack() {
        // 22 Å box (half-edge 11 Å), slack 0.5 Å → threshold on one atom's
        // displacement is (0.5 − MONITOR_GUARD)/2 = 0.245 Å.
        let he = [Q20::from_f64(11.0); 3];
        let mut cache = MatchCache::new(Q20Ladder::new(he), 0.5);
        let base = vec![FxVec3::from_unit_frac([0.0; 3]); 8];
        cache.note_rebuild(&base);
        let moved_by = |ang: f64| {
            let mut pos = base.clone();
            // `from_unit_frac` takes a fraction of the *full* 22 Å edge.
            pos[5] = FxVec3::from_unit_frac([ang / 22.0, 0.0, 0.0]);
            pos
        };
        let movers_at = |cache: &mut MatchCache, ang: f64| {
            assert!(cache.track_movers(&moved_by(ang)), "one mover reuses");
            cache.movers().to_vec()
        };
        assert_eq!(movers_at(&mut cache, 0.2449), [] as [u32; 0]);
        assert_eq!(movers_at(&mut cache, 0.2451), [5]);
        // Displacement is measured since the *reference*, not the last step.
        cache.note_rebuild(&moved_by(0.2451));
        assert_eq!(movers_at(&mut cache, 0.2451 + 0.2449), [] as [u32; 0]);
        assert_eq!(movers_at(&mut cache, 0.2451 + 0.2451), [5]);
    }

    #[test]
    fn monitor_uses_minimum_image_displacement() {
        // An atom nudged across the periodic seam moves a hair, not a box.
        let he = [Q20::from_f64(11.0); 3];
        let mut cache = MatchCache::new(Q20Ladder::new(he), 0.5);
        let mut pos = vec![FxVec3::from_unit_frac([0.999_999_9, 0.0, 0.0]); 2];
        cache.note_rebuild(&pos);
        pos[1] = FxVec3::from_unit_frac([-0.999_999_9, 0.0, 0.0]);
        assert!(cache.track_movers(&pos));
        assert!(cache.movers().is_empty());
    }

    #[test]
    fn monitor_rebuilds_past_the_mover_cap() {
        // Movers are listed in atom order up to the cap; one more mover
        // means a rebuild, and a rebuild decision lists no movers.
        let he = [Q20::from_f64(11.0); 3];
        let mut cache = MatchCache::new(Q20Ladder::new(he), 0.5);
        let base = vec![FxVec3::from_unit_frac([0.0; 3]); 2 * MOVER_CAP + 2];
        cache.note_rebuild(&base);
        // The first `count` odd-numbered atoms move 0.3 Å, past 0.245 Å.
        let moved = |count: usize| {
            let mut pos = base.clone();
            for p in pos.iter_mut().skip(1).step_by(2).take(count) {
                *p = FxVec3::from_unit_frac([0.0, 0.3 / 22.0, 0.0]);
            }
            pos
        };
        assert!(cache.track_movers(&moved(MOVER_CAP)));
        let want: Vec<u32> = (0..MOVER_CAP as u32).map(|k| 2 * k + 1).collect();
        assert_eq!(cache.movers(), want);
        assert!(!cache.track_movers(&moved(MOVER_CAP + 1)));
        assert!(cache.movers().is_empty());
    }

    #[test]
    fn tiling_dims_cover_reach_and_cap() {
        // 22 Å box, 7.7 Å reach: 4 cells per axis (5.5 Å ≥ 3.85, 2.75 < 3.85).
        let t = CellTiling::build([22.0; 3], 7.7);
        assert_eq!(t.cell_count(), 64);
        // A cell two away on two axes is √2·5.5 Å off: 10 of the 64 offsets
        // are out of reach, and the other 53 non-zero ones pair up.
        assert_eq!(t.pairs([22.0; 3], 7.7).len(), 64 * 53 / 2 + 64);
        // 11 Å box: 2 cells per axis, every cell pair can interact:
        // C(8,2) + 8 = 36.
        let t = CellTiling::build([11.0; 3], 7.7);
        assert_eq!(t.cell_count(), 8);
        assert_eq!(t.pairs([11.0; 3], 7.7).len(), 36);
        // Tiny box: one cell, one pair.
        let t = CellTiling::build([3.0; 3], 7.7);
        assert_eq!(t.cell_count(), 1);
        assert_eq!(t.pairs([3.0; 3], 7.7), [(0, 0)]);
        // Huge box: per-axis cap at 16 cells, and the pair list stays
        // linear in the cell count (self + 13 of the 26 neighbours).
        let t = CellTiling::build([1000.0; 3], 7.7);
        assert_eq!(t.cell_count(), 16 * 16 * 16);
        assert_eq!(t.pairs([1000.0; 3], 7.7).len(), 4096 * 14);
    }

    #[test]
    fn binning_is_exact_on_fraction_bits() {
        // Two cells per axis: 11 Å ≥ half the reach, 5.5 Å is not.
        let t = CellTiling::build([22.0; 3], 15.4);
        // Fraction −1.0 (raw i32::MIN) is the box corner → cell 0; fraction
        // just below 0 is the middle → still the lower cell; fraction 0 is
        // the upper half.
        assert_eq!(t.cell_of([i32::MIN; 3]), 0);
        assert_eq!(t.cell_of([-1; 3]), 0);
        assert_eq!(t.cell_of([0; 3]), 7);
        assert_eq!(t.cell_of([0, -1, -1]), 1);
        assert_eq!(t.cell_of([-1, 0, -1]), 2);
        assert_eq!(t.cell_of([-1, -1, 0]), 4);
    }

    /// xorshift64, the tests' only randomness.
    fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut s = seed;
        move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        }
    }

    #[test]
    fn tiling_lists_every_reachable_cell_pair_exactly_once() {
        // Random non-cubic boxes whose axes land on 1, 2, 4, 8 and 16
        // cells (reach/2 × 2^m, nudged off the boundary): on the small
        // counts the stencil's +o and −o offsets are the same cell under
        // the periodic wrap. The oracle is the O(cells²) scan of every
        // unordered pair with the same minimum-separation rule.
        let mut next = xorshift(0x2545_f491_4f6c_dd1d);
        let mut seen_dims = std::collections::BTreeSet::new();
        for case in 0..60 {
            let reach = 4.0 + (next() % 900) as f64 / 100.0;
            let edge: [f64; 3] = std::array::from_fn(|_| {
                let cells = 1u64 << (next() % 5);
                reach / 2.0 * cells as f64 * (1.02 + (next() % 90) as f64 / 100.0)
            });
            let t = CellTiling::build(edge, reach);
            let dims = t.log2_dims.map(|m| 1u32 << m);
            seen_dims.extend(dims);
            let ctx = format!("case {case}: edge {edge:?} reach {reach} dims {dims:?}");

            let mut want = Vec::new();
            let coord = |c: u32| {
                [
                    c % dims[0],
                    (c / dims[0]) % dims[1],
                    c / (dims[0] * dims[1]),
                ]
            };
            for a in 0..t.cell_count() as u32 {
                for b in a..t.cell_count() as u32 {
                    let (ca, cb) = (coord(a), coord(b));
                    let g2: f64 = (0..3)
                        .map(|k| {
                            let d = ca[k].abs_diff(cb[k]);
                            let circ = d.min(dims[k] - d);
                            (circ.saturating_sub(1) as f64 * edge[k] / dims[k] as f64).powi(2)
                        })
                        .sum();
                    if g2 <= (reach + REACH_GUARD).powi(2) {
                        want.push((a, b));
                    }
                }
            }
            let mut got = t.pairs(edge, reach);
            got.sort_unstable();
            assert_eq!(got, want, "{ctx}");

            // And the rule itself is conservative: two points within the
            // reach always sit in a listed pair.
            for _ in 0..400 {
                let p = [next() as i32, next() as i32, next() as i32];
                // A neighbour within ±reach (half a box at most) on each
                // axis, so most draws are in range. A full edge is 2³² raw.
                let q: [i32; 3] = std::array::from_fn(|k| {
                    let span = ((reach / edge[k]).min(0.5) * 2f64.powi(32)) as u64;
                    let off = (next() % (2 * span + 1)) as i64 - span as i64;
                    p[k].wrapping_add(off as i32)
                });
                let r2: f64 = (0..3)
                    .map(|k| {
                        let df = p[k].wrapping_sub(q[k]) as f64 / 2f64.powi(31);
                        (df * edge[k] / 2.0).powi(2)
                    })
                    .sum();
                if r2 <= reach * reach {
                    let (a, b) = (t.cell_of(p) as u32, t.cell_of(q) as u32);
                    assert!(
                        want.binary_search(&(a.min(b), a.max(b))).is_ok(),
                        "in-reach pair in unlisted cells {a},{b} ({ctx})"
                    );
                }
            }
        }
        assert_eq!(
            seen_dims.into_iter().collect::<Vec<_>>(),
            [1, 2, 4, 8, 16],
            "the sweep must visit every per-axis cell count"
        );
    }

    #[test]
    fn ladder_matches_the_128_bit_oracle() {
        let bound = Q20Ladder::HALF_EDGE_BOUND;
        let at = |raw: i64| Q20::from_raw(raw);
        // Extremes: the widest delta against the widest admitted box, on
        // one axis and on all three.
        let widest = Q20Ladder::new([at(bound - 1); 3]);
        for (a, b) in [
            ([i32::MIN, 0, 0], [0, 0, 0]),
            ([i32::MIN; 3], [0; 3]),
            ([0; 3], [i32::MIN; 3]),
            ([i32::MAX; 3], [-1; 3]),
            ([i32::MIN, i32::MAX, 0], [i32::MAX, i32::MIN, 0]),
        ] {
            assert_eq!(
                widest.delta_r2(a, b),
                widest.delta_r2_i128(a, b),
                "{a:?} {b:?}"
            );
        }
        let (d, r2) = widest.delta_r2([i32::MIN; 3], [0; 3]);
        assert_eq!(d, [-(bound - 1); 3]);
        assert!(r2 > 0, "three squared half-edges must not wrap: {r2}");

        // r² landing exactly on a cutoff: a 32 Å box turns a fraction delta
        // of m·2⁷ into exactly m Q20 ulps, so 8 Å and 9 Å apart give
        // rc² = 64 Å² and rc_pad² = 81 Å² to the bit, and one fraction
        // step more is outside — in both ladders.
        let cube32 = Q20Ladder::new([Q20::from_f64(16.0); 3]);
        for ang in [8i32, 9] {
            let on = ang << 27;
            let r2_on = Q20::from_f64(f64::from(ang * ang)).0;
            for (delta, want_over) in [(on, false), (on + (1 << 7), true), (-on, false)] {
                let got = cube32.delta_r2([0, delta, 0], [0; 3]);
                assert_eq!(got, cube32.delta_r2_i128([0, delta, 0], [0; 3]));
                assert_eq!(got.1 > r2_on, want_over, "{ang} Å, delta {delta}");
                assert_eq!(got.1 == r2_on, !want_over);
            }
        }

        // Random deltas over random admitted boxes.
        let mut next = xorshift(0x9e37_79b9_7f4a_7c15);
        for _ in 0..200_000 {
            let he: [Q20; 3] =
                std::array::from_fn(|_| at(1 + (next() % (bound as u64 - 1)) as i64));
            let lad = Q20Ladder::new(he);
            let a = [next() as i32, next() as i32, next() as i32];
            let b = [next() as i32, next() as i32, next() as i32];
            assert_eq!(
                lad.delta_r2(a, b),
                lad.delta_r2_i128(a, b),
                "{he:?} {a:?} {b:?}"
            );
            // The low-precision bound never exceeds the exact sum it guards.
            let (d, _) = lad.delta_r2(a, b);
            assert!(lad.r2_lower_bound_q40(a, b) <= d[0] * d[0] + d[1] * d[1] + d[2] * d[2]);
        }
    }

    #[test]
    #[should_panic(expected = "half-edge")]
    fn ladder_rejects_a_half_edge_at_the_bound() {
        let ok = Q20::from_f64(30.0);
        Q20Ladder::new([ok, Q20::from_raw(Q20Ladder::HALF_EDGE_BOUND), ok]);
    }

    #[test]
    fn tiling_pair_list_is_conservative() {
        // Randomized check: any two fraction points within the reach (in a
        // 36 Å box) must land in a listed cell pair.
        let t = CellTiling::build([36.0; 3], 7.7);
        let listed: std::collections::HashSet<(u32, u32)> =
            t.pairs([36.0; 3], 7.7).into_iter().collect();
        let mut next = xorshift(0x9e3779b97f4a7c15);
        for _ in 0..20_000 {
            let p = [next() as i32, next() as i32, next() as i32];
            let q = [next() as i32, next() as i32, next() as i32];
            let mut r2 = 0.0;
            for k in 0..3 {
                let df = p[k].wrapping_sub(q[k]) as f64 / (1u64 << 31) as f64;
                r2 += (df * 18.0).powi(2); // fraction of [-1,1) × half-edge
            }
            if r2 <= 7.7 * 7.7 {
                let (a, b) = (t.cell_of(p) as u32, t.cell_of(q) as u32);
                assert!(
                    listed.contains(&(a.min(b), a.max(b))),
                    "in-reach pair in unlisted cells {a},{b}"
                );
            }
        }
    }
}
