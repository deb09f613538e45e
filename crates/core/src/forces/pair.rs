//! The pair phase: re-bin, tiles, per-rank match + evaluate, and the
//! persistent match cache.
//!
//! One evaluation, on every plan: when the match cache must be rebuilt
//! (cold, a changed atom count, or more than `MOVER_CAP` movers), atoms
//! are re-binned into the plan's SoA tile pool; otherwise the tile
//! positions are refreshed in place. Each rank then (on rebuilds) streams
//! its static tile pairs through the padded-cutoff match stage into its
//! persistent queue, replays the queue against the current positions into
//! a *private* accumulator, and the accumulators merge in rank order. On
//! reuse steps the trunk then adds the in-cutoff pairs of the movers that
//! the cached queues lack. The exact per-step cutoff mask in the
//! evaluator makes the forces independent of which arm ran and of how the
//! tile pairs were dealt to ranks.
//!
//! No stage stores a pair. The tiles hold per-atom records (position,
//! charge, LJ type, atom id); the match stage emits which slots meet, as
//! rows — one i slot, then every j slot it meets in the rank's tile pairs
//! (paper §3.1's plate atoms, named once); the evaluator is gather →
//! ladder → PPIP → scatter, reading the i position once per row and
//! forming r² and the kernel parameters from the two records every step
//! (paper §2.2, §3.2.1).

use super::{ForcePipeline, RawForces};
use crate::batch::PairQueue;
use crate::state::{FixedState, ENERGY_SCALE};
use anton_fixpoint::rounding::rne_f64_to_i64;
use anton_fixpoint::FxVec3;
use anton_forcefield::PairClass;
use anton_geometry::TileView;
use anton_machine::perf::ExchangeCounters;
use anton_machine::{PairBatch, MATCH_WIDTH};
use anton_systems::System;
use anton_trace::{Lane, Phase, RANK_MAIN};

/// Candidates one row of the match stage filters before it turns to the
/// survivors: the size of the stack buffer the low-precision pass compacts
/// slot indices into. Tiles have no size limit (under `Nodes(1)` one tile
/// holds the whole system), so rows are cut into blocks of this many.
const MATCH_BLOCK: usize = 64;

/// Live lanes the ladder pass of `ForcePipeline::evaluate_pairs` packs
/// before the kernel drains them, eight at a time (10 KB of stack). A
/// multiple of [`MATCH_WIDTH`], so a full buffer drains as whole kernel
/// calls and nothing is carried over to the next.
const LIVE_CHUNK: usize = 256;
const _: () = assert!(LIVE_CHUNK.is_multiple_of(MATCH_WIDTH));

/// One live lane between the ladder and the kernel: displacement and r²
/// from the ladder, and the two tile slots.
#[derive(Clone, Copy, Default)]
struct LiveLane {
    d: [i64; 3],
    r2: i64,
    si: u32,
    sj: u32,
}

/// One rank's short-range scratch: a private force accumulator plus the
/// trace lane its worker records phase spans into (exactly one worker owns
/// each scratch per fan-out, so lane recording needs no synchronization).
pub(super) struct RankScratch {
    pub(super) forces: RawForces,
    lane: Lane,
    /// The rank's match queue. Persistent: refilled only on cache rebuild
    /// steps, replayed (against refreshed tile positions) on reuse steps.
    pub(super) queue: PairQueue,
    /// Pairs that passed the exact per-step cutoff mask in the last
    /// evaluation, merged into the census in rank order on the trunk.
    live_pairs: u64,
}

impl ForcePipeline {
    /// Range-limited forces.
    pub fn range_limited(&mut self, sys: &System, state: &FixedState, out: &mut RawForces) {
        self.pair_phase::<true>(sys, state, out, false);
    }

    /// The short-range force class of a RESPA inner step: range-limited
    /// pairs plus bonded terms, computed per rank in one fan-out.
    pub fn short_range(&mut self, sys: &System, state: &FixedState, out: &mut RawForces) {
        self.pair_phase::<true>(sys, state, out, true);
    }

    /// [`Self::short_range`] without the range-limited energy word: the
    /// force words, bonded energy, census and cache schedule are the same
    /// bits, and `out.e_range_limited` is left alone. The engine's inner
    /// steps run on it wherever the next evaluation overwrites the word
    /// before anything can read it.
    pub(crate) fn short_range_forces(
        &mut self,
        sys: &System,
        state: &FixedState,
        out: &mut RawForces,
    ) {
        self.pair_phase::<false>(sys, state, out, true);
    }

    /// Execute the short-range work per rank: re-bin atoms into the tile
    /// pool (or meter the frozen binning and refresh the pool's
    /// positions), fan the ranks out
    /// over the pool into private accumulators, and merge them in fixed
    /// rank order (the trace lanes merge in the same order, so recorded
    /// structure is deterministic). Allocation-free in steady state.
    fn pair_phase<const ENERGY: bool>(
        &mut self,
        sys: &System,
        state: &FixedState,
        out: &mut RawForces,
        with_bonded: bool,
    ) {
        // The mover set reads only the trajectory (positions vs the cached
        // reference), so this decision — and with it the whole rebuild
        // schedule — is identical on every plan and thread count.
        let rebuild = !self.cache.track_movers(&state.positions);
        let before = self.counters;
        let t0 = self.trace.now_ns();
        if rebuild {
            self.ranks
                .rebin(&sys.topology, &state.positions, &mut self.counters);
        } else {
            // Deferred migration (§3.2.4): between pair-list rebuilds
            // atoms keep their tiles — under `Nodes(n)` the frozen home
            // assignment is covered by the NT import margin — and only
            // the static exchange plan's per-step traffic is metered.
            self.ranks.meter_step(&mut self.counters);
        }
        self.trace.end_span(Phase::ReHome, RANK_MAIN, t0);
        self.meter_since(before);
        if with_bonded {
            state.decode_positions_into(&sys.pbox, &mut self.pos_buf);
        }
        // The re-bin refilled the shared tile pool (cache rebuild); on
        // reuse, refresh its positions in place under the frozen
        // membership. Every rank streams its tile pairs out of this pool.
        let t_cache = self.trace.now_ns();
        if rebuild {
            self.cache.note_rebuild(&state.positions);
            self.counters.rebuild_steps += 1;
        } else {
            self.ranks.refresh(&state.positions);
            self.counters.reuse_steps += 1;
        }
        self.trace.end_span(
            if rebuild {
                Phase::CacheRebuild
            } else {
                Phase::CacheReuse
            },
            RANK_MAIN,
            t_cache,
        );
        let mut scratch = self.take_scratch(sys.n_atoms());
        // Dispatch span: trunk-side wall time of the whole fan-out,
        // covering pool dispatch/join overhead around the rank work.
        let t_dispatch = self.trace.now_ns();
        {
            let this = &*self;
            this.pool.run(&mut scratch, |r, buf| {
                let t = this.trace.now_ns();
                this.rank_pairs_batched::<ENERGY>(sys, r, buf, rebuild);
                if this.trace.is_on() {
                    buf.lane.push(Phase::RangeLimited, t, this.trace.now_ns());
                }
                if with_bonded {
                    let t = this.trace.now_ns();
                    this.rank_bonded(sys, &this.pos_buf, &this.ranks.ranks[r], &mut buf.forces);
                    if this.trace.is_on() {
                        buf.lane.push(Phase::Bonded, t, this.trace.now_ns());
                    }
                }
            });
        }
        self.trace.end_span(Phase::Dispatch, RANK_MAIN, t_dispatch);
        self.scratch = scratch;
        self.trace
            .merge_lanes(self.scratch.iter_mut().map(|s| &mut s.lane));
        // Live pairs (and batch count) are metered per *evaluation*, so the
        // census totals are a pure function of the trajectory — identical
        // across plans, thread counts and rebuild schedules.
        for s in &self.scratch {
            out.merge_from(&s.forces);
            if rebuild {
                self.counters.match_candidates += s.queue.candidates;
            }
            self.counters.match_pairs += s.live_pairs;
            self.counters.match_batches += s.queue.batches();
        }
        let t_movers = self.trace.now_ns();
        let mut queue = std::mem::take(&mut self.mover_queue);
        self.queue_mover_pairs(sys, &mut queue);
        self.counters.match_pairs += self.evaluate_queue::<ENERGY>(sys, &queue, out);
        self.counters.match_batches += queue.batches();
        self.mover_queue = queue;
        self.trace.end_span(Phase::MoverScan, RANK_MAIN, t_movers);
    }

    /// The mover scan: queue exactly the in-cutoff pairs with a mover in
    /// them that the cached queues lack (none on a rebuild step, whose
    /// mover set is empty). For each mover `m` every tile slot `j` is
    /// checked on the exact ladder: kept when `r²_now ≤ rc²` and
    /// `r²_epoch > (rc + s)²` — the second test is precisely "not matched
    /// at the epoch", since the epoch match queued every non-excluded pair
    /// the padded Q20 test admits. Excluded pairs are dropped and 1-4
    /// pairs flagged, as the match stage does, and a pair of two movers is
    /// queued once, from its lower atom. A pair of two non-movers needs no
    /// scan: each moved less than half the guarded slack, so if it is in
    /// cutoff now it was inside `rc + s` at the epoch and is cached. At
    /// most `MOVER_CAP · N` ladder checks.
    fn queue_mover_pairs(&self, sys: &System, q: &mut PairQueue) {
        q.begin();
        let movers = self.cache.movers();
        let epoch = self.cache.ref_positions();
        let exclusions = &sys.topology.exclusions;
        let tiles = self.ranks.tiles();
        for &m in movers {
            let sm = tiles.slot_of(m);
            let (now, then) = (tiles.raw_at(sm), epoch[m as usize].raw_bits());
            for sj in 0..tiles.len() as u32 {
                let (_, r2) = self.ladder.delta_r2(now, tiles.raw_at(sj));
                if r2 > self.rc2_q20 {
                    continue;
                }
                let aj = tiles.atom_at(sj);
                let (_, r2_epoch) = self.ladder.delta_r2(then, epoch[aj as usize].raw_bits());
                if r2_epoch <= self.rc_pad2_q20 || (aj < m && movers.binary_search(&aj).is_ok()) {
                    continue;
                }
                let class = exclusions.class(m, aj);
                if class != PairClass::Excluded {
                    q.push(sm, sj, class == PairClass::OneFour);
                }
            }
            q.end_row(sm);
        }
    }

    /// Detach the per-rank scratch, sized and zeroed. (Taken out of `self`
    /// so the fan-out can borrow `self` shared while the pool mutates the
    /// buffers.)
    fn take_scratch(&mut self, n_atoms: usize) -> Vec<RankScratch> {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.resize_with(self.ranks.rank_count(), || RankScratch {
            forces: RawForces::zeroed(0),
            lane: Lane::new(),
            queue: PairQueue::default(),
            live_pairs: 0,
        });
        for s in &mut scratch {
            s.forces.reset(n_atoms);
        }
        scratch
    }

    /// Batched pair phase for one rank: on cache-rebuild steps, stream the
    /// rank's tile pairs through the padded match stage into the rank's
    /// persistent queue; on reuse steps, keep the queue and replay it
    /// against the refreshed shared tiles. The evaluator's exact per-step
    /// cutoff mask makes the interaction set identical on every plan (and
    /// to a fresh rebuild); wrapping accumulation makes the *forces*
    /// identical bitwise.
    fn rank_pairs_batched<const ENERGY: bool>(
        &self,
        sys: &System,
        r: usize,
        buf: &mut RankScratch,
        rebuild: bool,
    ) {
        if rebuild {
            let t0 = self.trace.now_ns();
            self.fill_rank_queue(sys, r, &mut buf.queue);
            if self.trace.is_on() {
                buf.lane.push(Phase::Match, t0, self.trace.now_ns());
            }
        }
        let t0 = self.trace.now_ns();
        buf.live_pairs = self.evaluate_queue::<ENERGY>(sys, &buf.queue, &mut buf.forces);
        if self.trace.is_on() {
            buf.lane.push(Phase::Evaluate, t0, self.trace.now_ns());
        }
    }

    /// Refill one rank's persistent match queue from the shared tiles (the
    /// rebuild arm of [`Self::rank_pairs_batched`], span-free so
    /// checkpoint restore can replay the fill deterministically on the
    /// trunk). The rank's tile pairs are walked in runs of equal first
    /// tile — both plans emit them that way: `CellTiling::pairs` is
    /// a-major, the NT plan tower-major — and each slot of the run's tile
    /// streams every partner tile of the run before its row is closed, so
    /// a slot heads one row per run.
    fn fill_rank_queue(&self, sys: &System, r: usize, queue: &mut PairQueue) {
        queue.begin();
        let tiles = self.ranks.tiles();
        for run in self.ranks.ranks[r].tile_pairs.chunk_by(|p, q| p.0 == q.0) {
            let ca = run[0].0 as usize;
            let (a, sa0) = (tiles.tile(ca), tiles.tile_start(ca) as u32);
            for si in 0..a.len() {
                for &(_, cb) in run {
                    let cb = cb as usize;
                    self.match_row(
                        sys,
                        a,
                        tiles.tile(cb),
                        ca == cb,
                        sa0,
                        tiles.tile_start(cb) as u32,
                        si,
                        queue,
                    );
                }
                queue.end_row(sa0 + si as u32);
            }
        }
    }

    /// Stream slot `si` of tile `a` against tile `b` through a match unit,
    /// into the queue's open row, a block of [`MATCH_BLOCK`] candidates at
    /// a time, in two passes. The first is the ASIC match unit's
    /// reduced-precision compare — the integer lower bound of
    /// [`Q20Ladder`] on every candidate of the block, no data-dependent
    /// branch, survivors' slot indices compacted into a stack buffer. The
    /// second runs on survivors only: exact Q20 r² against the *padded*
    /// cutoff `(rc + PAIRLIST_SLACK)²`, then the exclusion class —
    /// excluded pairs are dropped, 1-4 pairs flagged. `same` marks a tile
    /// paired with itself, where slots enumerate `si < sj`. `sa0`/`sb0`
    /// are the tiles' first flat slots in the owning tile pool. What the
    /// stage emits is the pair's *identity* only — the j slot (the row
    /// names the i slot) and the 1-4 bit; r² and the kernel parameters are
    /// the evaluator's to form, every step, from the per-atom tile records.
    ///
    /// Matching at the padded radius makes the queued set hold every
    /// in-cutoff pair of two non-movers for as long as the cache is reused;
    /// the exact `r² ≤ rc²` decision is re-taken per evaluation on the
    /// same ladder, so *which* pairs contribute never depends on when the
    /// pair was matched. Coincident pairs (r² = 0) are *kept* here — the
    /// evaluator's per-step mask makes the final call either way, so the
    /// match stage only has to be conservative.
    #[expect(
        clippy::too_many_arguments,
        reason = "the tile-pair tuple the cell walk produces; a struct would only rename the call sites"
    )]
    fn match_row(
        &self,
        sys: &System,
        a: TileView<'_>,
        b: TileView<'_>,
        same: bool,
        sa0: u32,
        sb0: u32,
        si: usize,
        q: &mut PairQueue,
    ) {
        let exclusions = &sys.topology.exclusions;
        let pi = [a.x[si], a.y[si], a.z[si]];
        let ai = a.atom[si];
        let sj0 = if same { si + 1 } else { 0 };
        q.candidates += (b.len() - sj0) as u64;
        let mut kept = [0u32; MATCH_BLOCK];
        for block in (sj0..b.len()).step_by(MATCH_BLOCK) {
            let end = (block + MATCH_BLOCK).min(b.len());
            let row = b.x[block..end]
                .iter()
                .zip(&b.y[block..end])
                .zip(&b.z[block..end]);
            let mut n = 0;
            for (sj, ((&x, &y), &z)) in (block as u32..).zip(row) {
                let lb = self.ladder.r2_lower_bound_q40(pi, [x, y, z]);
                kept[n] = sj;
                n += usize::from(lb <= self.r2_lb_max);
            }
            for &sj in &kept[..n] {
                let sj = sj as usize;
                let (_, r2) = self.ladder.delta_r2(pi, [b.x[sj], b.y[sj], b.z[sj]]);
                if r2 > self.rc_pad2_q20 {
                    continue;
                }
                let class = exclusions.class(ai, b.atom[sj]);
                if class == PairClass::Excluded {
                    continue;
                }
                q.push(
                    sa0 + si as u32,
                    sb0 + sj as u32,
                    class == PairClass::OneFour,
                );
            }
        }
    }

    /// Replay a queue against the *current* tile positions: its plain
    /// rows at unit multipliers, then its 1-4 pairs (as rows of one) at
    /// the exclusion policy's 1-4 multipliers, each through
    /// [`Self::evaluate_pairs`]. Returns the number of live (in-cutoff)
    /// pairs.
    pub(super) fn evaluate_queue<const ENERGY: bool>(
        &self,
        sys: &System,
        queue: &PairQueue,
        out: &mut RawForces,
    ) -> u64 {
        let scales = |class| {
            self.policy
                .scales(class)
                .expect("only excluded pairs have no multipliers")
        };
        self.evaluate_pairs::<ENERGY>(sys, queue.plain_rows(), scales(PairClass::Plain), out)
            + self.evaluate_pairs::<ENERGY>(
                sys,
                queue.one_four_rows(),
                scales(PairClass::OneFour),
                out,
            )
    }

    /// Evaluate rows of slot pairs of one class — an i slot and its j
    /// slots — against the current tile positions, as a gather → ladder →
    /// PPIP → scatter pipeline with no per-pair state, in two passes over
    /// fixed-width work:
    ///
    /// * *Ladder.* The i position is read once per row. Per pair, the
    ///   [`Q20Ladder`] the match stage ran (bit for
    ///   bit the scalar oracle's 128-bit one) re-derives displacement and
    ///   r² straight-line, and the exact `r² ≤ rc²`, `r² ≠ 0` cutoff test
    ///   decides whether the pair is live. Every pair is written to a stack
    ///   buffer of [`LiveLane`]s and kept by advancing the cursor past it
    ///   when it is live — no branch on a coin flip — so live pairs pack
    ///   densely.
    /// * *Drain.* Each time [`LIVE_CHUNK`] lanes are collected, and once at
    ///   the end, they go through the kernel eight at a time: charge, LJ
    ///   type and atom id gathered by slot into a stack-local [`PairBatch`],
    ///   the kernel parameters formed as `qi·qj·se`, `lj_a·sl`, `lj_b·sl` in
    ///   the scalar oracle's operation order (`(se, sl)` the class's
    ///   multipliers), the PPIP kernel run, and the quantized forces (and,
    ///   with `ENERGY`, the energy word) scattered. Every kernel call is a
    ///   full mask but the tail's, whose unused lanes keep
    ///   `PairBatch::EMPTY`'s valid operands (`r² = 0`, `qq = 0`, no LJ
    ///   term) and are switched off by the mask. Out-of-cutoff pairs never
    ///   reach the kernel.
    ///
    /// Wrapping accumulation makes the sums independent of the packing, as
    /// of every other order. The queue contributes only the pair's
    /// *identity* — every position-dependent quantity is recomputed here
    /// and every parameter is a pure function of the two atoms, so the
    /// force bits are a pure function of the current positions: evaluating
    /// a freshly matched queue and a cache-replayed queue over the same
    /// positions produces identical accumulators. Returns the number of
    /// live (in-cutoff) pairs, which is likewise rebuild-schedule
    /// independent.
    pub(super) fn evaluate_pairs<'q, const ENERGY: bool>(
        &self,
        sys: &System,
        rows: impl Iterator<Item = (u32, &'q [u32])>,
        (se, sl): (f64, f64),
        out: &mut RawForces,
    ) -> u64 {
        let lj_table = &sys.topology.lj_table;
        let TileView {
            x,
            y,
            z,
            q,
            ty,
            atom,
        } = self.ranks.tiles().all();
        // Re-sliced to one visible length, so one bounds check covers a slot.
        let n = atom.len();
        let (x, y, z, q, ty) = (&x[..n], &y[..n], &z[..n], &q[..n], &ty[..n]);
        let raw = |s: u32| {
            let s = s as usize;
            [x[s], y[s], z[s]]
        };
        let mut vals = [(0.0f64, 0.0f64); MATCH_WIDTH];
        let mut drain = |group: &[LiveLane]| {
            let mut lanes = PairBatch::EMPTY;
            lanes.mask = u8::MAX >> (MATCH_WIDTH - group.len());
            for (k, l) in group.iter().enumerate() {
                let (si, sj) = (l.si as usize, l.sj as usize);
                let (lja, ljb) = lj_table.coeffs(ty[si], ty[sj]);
                lanes.r2_q20[k] = l.r2;
                lanes.qq[k] = q[si] * q[sj] * se;
                lanes.lj_a[k] = lja * sl;
                lanes.lj_b[k] = ljb * sl;
            }
            self.ppip.pair_lanes::<ENERGY>(&lanes, &mut vals);
            for (l, &(f_over_r, e)) in group.iter().zip(&vals) {
                let i = atom[l.si as usize] as usize;
                let j = atom[l.sj as usize] as usize;
                out.scatter_pair(i, j, l.d, f_over_r);
                if ENERGY {
                    out.e_range_limited = out
                        .e_range_limited
                        .wrapping_add(rne_f64_to_i64(e * ENERGY_SCALE));
                }
            }
        };
        let mut live = [LiveLane::default(); LIVE_CHUNK];
        let mut n = 0;
        let mut live_pairs = 0u64;
        for (si, js) in rows {
            let pi = raw(si);
            for &sj in js {
                let (d, r2) = self.ladder.delta_r2(pi, raw(sj));
                live[n] = LiveLane { d, r2, si, sj };
                n += usize::from((r2 <= self.rc2_q20) & (r2 != 0));
                if n == LIVE_CHUNK {
                    live.chunks_exact(MATCH_WIDTH).for_each(&mut drain);
                    live_pairs += LIVE_CHUNK as u64;
                    n = 0;
                }
            }
        }
        live[..n].chunks(MATCH_WIDTH).for_each(drain);
        live_pairs + n as u64
    }

    /// Reference-epoch positions of the persistent match cache — the
    /// positions its tiles and queues were last rebuilt at (empty while
    /// the cache is cold). Checkpointing serializes these so restore can
    /// resurrect the cache at the same epoch.
    pub fn match_ref_positions(&self) -> &[FxVec3] {
        self.cache.ref_positions()
    }

    /// Drop the persistent match cache: the next force evaluation rebuilds
    /// tiles and queues from scratch. Forces are unaffected by
    /// construction — the evaluator re-derives the interaction set from
    /// current positions every step — so this is safe at any point; the
    /// property tier uses it to pit a rebuild-every-step pipeline against
    /// a caching one, bit for bit.
    pub fn invalidate_match_cache(&mut self) {
        self.cache.invalidate();
    }

    /// Rebuild the persistent match cache — binning and tile pool, per-rank pair
    /// queues, and the displacement reference — at the given
    /// *reference-epoch* positions, exactly as the interrupted run built
    /// it. Checkpoint restore calls this before re-evaluating forces:
    /// rebuilding at the cached epoch (rather than at the restored step's
    /// positions) reproduces the original displacement reference and the
    /// frozen deferred-migration binning the cached queues were filled
    /// under, so the future mover sets and rebuild schedule — and with them
    /// every counter — continue bitwise as if the run had never stopped.
    pub fn rebuild_match_cache_at(&mut self, sys: &System, positions: &[FxVec3]) {
        assert_eq!(
            positions.len(),
            sys.n_atoms(),
            "match-cache epoch has wrong atom count"
        );
        // Restore-time metering is discarded: the caller overwrites the
        // counters from the snapshot afterwards.
        self.ranks
            .rebin(&sys.topology, positions, &mut ExchangeCounters::default());
        let mut scratch = self.take_scratch(sys.n_atoms());
        for (r, buf) in scratch.iter_mut().enumerate() {
            self.fill_rank_queue(sys, r, &mut buf.queue);
        }
        self.scratch = scratch;
        self.cache.note_rebuild(positions);
    }
}
