//! The deterministic fixed-point force pipeline.
//!
//! Every contribution — range-limited pair (through the PPIP table models),
//! bonded term, correction pair, and mesh force — is a pure function of
//! fixed-point positions, quantized to Q24 raw force components *before*
//! accumulation. Accumulation is two's-complement wrapping addition, which
//! is associative and commutative, so a decomposition can only permute
//! additions and never changes a bit of the result. This is the software
//! realization of paper §4.
//!
//! There is therefore one pipeline, parameterised by a work plan (the
//! [`RankSet`](crate::ranks::RankSet)): every phase runs the same body over
//! the plan's [`Rank`](crate::ranks::Rank)s, whether the plan is the one
//! rank of [`Decomposition::SingleRank`] or the node grid of
//! [`Decomposition::Nodes`]. Each rank computes its tile pairs, statically
//! assigned bonded terms, correction pairs and its share of the GSE mesh
//! phase into *private* accumulators (fanned out over scoped threads by
//! [`DetPool::run`]), and the rank buffers are merged serially in fixed
//! rank order. No atomics, no cross-thread reductions — thread scheduling can
//! only change when a rank buffer is filled, never its contents, so
//! trajectories are bitwise invariant across plans *and* worker-thread
//! counts.
//!
//! The phases, one module and one span family each, along the rows of the
//! perf ledger:
//!
//! * `pair` — re-bin, tile rebuild/refresh, per-rank match + evaluate,
//!   and the persistent match cache;
//! * `mesh` — per-rank spread, mesh merge, FFT trunk, per-rank
//!   correction pairs and interpolate;
//! * `flexible` — bonded terms and the packed correction stream.

mod flexible;
mod mesh;
mod pair;

#[cfg(test)]
mod batched_oracle_props;
#[cfg(test)]
mod tests;

use self::mesh::LrRank;
use self::pair::RankScratch;
use crate::batch::{MatchCache, PairQueue, Q20Ladder};
use crate::pool::DetPool;
use crate::ranks::RankSet;
use crate::state::{DISP_SCALE, ENERGY_SCALE, FORCE_SCALE};
use anton_ewald::direct::DirectKernel;
use anton_ewald::gse::{GseFixed, GseParams, GseScratch};
use anton_ewald::Mesh;
use anton_fixpoint::rounding::rne_f64_to_i64;
use anton_fixpoint::Q20;
use anton_forcefield::ExclusionPolicy;
use anton_geometry::Vec3;
use anton_machine::perf::ExchangeCounters;
use anton_machine::{modeled_burst_us, Ppip};
use anton_systems::System;
use anton_trace::{Phase, TraceSink};
use std::num::Wrapping;
use std::sync::Arc;

/// How force work is partitioned (never affects results, bitwise).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Decomposition {
    /// One rank owns all the work, over half-reach subbox tiles.
    SingleRank,
    /// A simulated Anton machine with this many nodes (power of two):
    /// work is enumerated per node with the NT method, constraint groups
    /// co-located on their leader's home node.
    Nodes(usize),
}

/// Raw fixed-point force/energy accumulators.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RawForces {
    /// Q24 force raw values per atom.
    pub f: Vec<[i64; 3]>,
    /// Q32 energy raws.
    pub e_range_limited: i64,
    pub e_bonded: i64,
    pub e_correction: i64,
    pub e_reciprocal: i64,
}

impl RawForces {
    pub fn zeroed(n: usize) -> RawForces {
        RawForces {
            f: vec![[0i64; 3]; n],
            e_range_limited: 0,
            e_bonded: 0,
            e_correction: 0,
            e_reciprocal: 0,
        }
    }

    /// Zero the accumulator, resized to `n` atoms.
    fn reset(&mut self, n: usize) {
        self.f.resize(n, [0; 3]);
        self.clear();
    }

    pub fn clear(&mut self) {
        for f in self.f.iter_mut() {
            *f = [0; 3];
        }
        self.e_range_limited = 0;
        self.e_bonded = 0;
        self.e_correction = 0;
        self.e_reciprocal = 0;
    }

    /// Quantize a pair force — ladder displacement `d = r_i − r_j` (Q20)
    /// times `f_over_r` — onto the force grid per axis, and scatter it with
    /// wrapping adds: `+` onto atom `i`, `−` onto atom `j`. The range-limited
    /// evaluator and the correction stream share this one scatter.
    #[inline]
    pub(crate) fn scatter_pair(&mut self, i: usize, j: usize, d: [i64; 3], f_over_r: f64) {
        let fi = d.map(|c| rne_f64_to_i64(c as f64 / DISP_SCALE * f_over_r * FORCE_SCALE));
        for (k, &fk) in fi.iter().enumerate() {
            self.f[i][k] = self.f[i][k].wrapping_add(fk);
            self.f[j][k] = self.f[j][k].wrapping_sub(fk);
        }
    }

    /// Fold another accumulator into this one with wrapping adds — the
    /// deterministic rank merge. Since every summand was quantized before
    /// accumulation and wrapping addition is associative and commutative,
    /// merging rank buffers in *any* fixed order reproduces the serial
    /// result bitwise; the pipeline always merges in rank-index order.
    pub fn merge_from(&mut self, other: &RawForces) {
        debug_assert_eq!(self.f.len(), other.f.len());
        for (a, b) in self.f.iter_mut().zip(&other.f) {
            a[0] = a[0].wrapping_add(b[0]);
            a[1] = a[1].wrapping_add(b[1]);
            a[2] = a[2].wrapping_add(b[2]);
        }
        self.e_range_limited = self.e_range_limited.wrapping_add(other.e_range_limited);
        self.e_bonded = self.e_bonded.wrapping_add(other.e_bonded);
        self.e_correction = self.e_correction.wrapping_add(other.e_correction);
        self.e_reciprocal = self.e_reciprocal.wrapping_add(other.e_reciprocal);
    }

    /// Potential energy (kcal/mol).
    pub fn potential(&self) -> f64 {
        (self
            .e_range_limited
            .wrapping_add(self.e_bonded)
            .wrapping_add(self.e_correction)) as f64
            / ENERGY_SCALE
            + self.e_reciprocal as f64 / ENERGY_SCALE
    }

    pub fn force_f64(&self, i: usize) -> Vec3 {
        Vec3::new(
            self.f[i][0] as f64 / FORCE_SCALE,
            self.f[i][1] as f64 / FORCE_SCALE,
            self.f[i][2] as f64 / FORCE_SCALE,
        )
    }
}

/// Slack (Å) added to the cutoff wherever *candidate* pairs are
/// enumerated from decoded or binned positions rather than the exact
/// fixed-point arithmetic: the f64 decode and the Q20 r² agree to ~1e-4 Å
/// (pinned by `pairlist_slack_covers_decode_error`), so a candidate set
/// built with this margin is a strict superset of the exact in-cutoff set
/// — the per-pair integer test always makes the final decision. Shared by
/// the cell-grid build, its pair sweep, and the tile pipeline's cell-pair
/// reach so the decode slack can never drift between sites.
///
/// It is also the Verlet buffer of the persistent match cache: pairs
/// are matched once at `cutoff + PAIRLIST_SLACK` and replayed while at
/// most [`MOVER_CAP`](crate::batch::MOVER_CAP) atoms have moved half the
/// slack ([`MatchCache::track_movers`]); those movers' missing pairs are
/// matched on their own each step. The value trades padded-set size
/// (grows with the cube of `(rc + slack)/rc`) against how soon atoms
/// become movers (linearly with the slack). It never affects forces — the
/// exact `r² ≤ rc²` mask is applied every evaluation — so retuning it
/// leaves every golden checksum unchanged.
pub const PAIRLIST_SLACK: f64 = 1.0;

/// The pipeline bound to one system and one work plan.
pub struct ForcePipeline {
    /// The process's one fit for this system's `(β, cutoff)`
    /// ([`Ppip::shared`]); read-only, so sharing it changes no result.
    pub ppip: Arc<Ppip>,
    pub gse: GseFixed,
    corr_kernel: DirectKernel,
    pub rc2_q20: i64,
    /// The one displacement/r² ladder over the box's Q20 half-edges:
    /// match stage, evaluator, mover test and scan, and the correction
    /// stream all form their displacements and r² on it.
    pub ladder: Q20Ladder,
    policy: ExclusionPolicy,
    pool: DetPool,
    /// The work plan every phase fans out over. Its tile pool (position,
    /// charge, LJ type, atom id by tile) is what every rank streams its
    /// tile pairs out of and gathers its lanes' operands from, rebuilt or
    /// refreshed on the trunk once per fan-out.
    ranks: RankSet,
    /// Match census of every evaluation, plus the modeled torus traffic
    /// when the plan models a machine.
    pub counters: ExchangeCounters,
    /// Structured event recorder ([`TraceSink::Off`] unless installed via
    /// [`Self::set_trace`]). Tracing never influences results: timestamps
    /// are observability payload only, and the golden-trajectory tier
    /// asserts bitwise identity with tracing on and off.
    trace: TraceSink,
    /// Q20 of the *padded* match cutoff `(rc + PAIRLIST_SLACK)²`: the
    /// radius pairs are matched at, so the cached pair set holds every
    /// in-cutoff pair of two non-movers while the cache is reused.
    rc_pad2_q20: i64,
    /// Upper bound on the match stage's integer lower-bound r² (Q40):
    /// `(rc_pad2_q20 << 20)` plus a margin covering the floor-vs-RNE gap
    /// of the per-axis bound and the single RNE rounding of the exact r².
    r2_lb_max: i64,
    /// Reference epoch and mover set of the persistent match stage (the
    /// rebuild schedule is a pure function of the trajectory, never of
    /// the plan).
    cache: MatchCache,
    /// The trunk's queue of mover pairs the cached queues lack, refilled
    /// on every evaluation after the rank merge.
    mover_queue: PairQueue,
    /// Per-rank private accumulators (+ trace lanes), reused across steps.
    scratch: Vec<RankScratch>,
    /// Per-rank long-range accumulators (forces + private charge mesh),
    /// reused across steps.
    lr_scratch: Vec<LrRank>,
    /// Reusable mesh-phase buffers — the allocation-free reciprocal path.
    gse_scratch: GseScratch,
    /// Decoded Cartesian positions, reused across steps.
    pos_buf: Vec<Vec3>,
}

impl ForcePipeline {
    /// Build the pipeline. The decomposition and worker-thread count are
    /// construction-time properties: the work plan (tiles, tile pairs,
    /// static bonded and correction work lists, and under `Nodes(n)` the
    /// modelled machine) is built once, here.
    pub fn new(sys: &System, decomposition: Decomposition, threads: usize) -> ForcePipeline {
        let beta = sys.params.ewald_beta();
        let e = sys.pbox.edge();
        // First, so a box too large for the pair ladder is refused before
        // anything is built on it.
        let ladder = Q20Ladder::new(
            [e.x, e.y, e.z]
                .map(|x| Q20Ladder::half_edge(x).expect("box half-edge outside (0, 1024 Å)")),
        );
        let gse = GseFixed::with_nodes(
            Mesh::new(sys.params.mesh, sys.pbox),
            GseParams::auto(sys.params.cutoff, sys.params.spread_cutoff),
            RankSet::node_dims(decomposition),
        );
        let policy = sys
            .topology
            .exclusions
            .policy
            .unwrap_or(ExclusionPolicy::amber_like());
        let rc_pad = sys.params.cutoff + PAIRLIST_SLACK;
        let rc_pad2_q20 = Q20::from_f64(rc_pad * rc_pad).raw();
        ForcePipeline {
            ppip: Ppip::shared(beta, sys.params.cutoff),
            ranks: RankSet::build(sys, decomposition, &policy, &gse),
            gse,
            corr_kernel: DirectKernel::reference(beta, sys.params.cutoff),
            rc2_q20: Q20::from_f64(sys.params.cutoff * sys.params.cutoff).raw().0,
            ladder,
            policy,
            pool: DetPool::new(threads),
            counters: ExchangeCounters::default(),
            trace: TraceSink::Off,
            rc_pad2_q20: rc_pad2_q20.0,
            r2_lb_max: ((rc_pad2_q20 << 20) + Wrapping(1 << 27)).0,
            cache: MatchCache::new(ladder, PAIRLIST_SLACK),
            mover_queue: PairQueue::default(),
            scratch: Vec::new(),
            lr_scratch: Vec::new(),
            gse_scratch: GseScratch::default(),
            pos_buf: Vec::new(),
        }
    }

    /// The work plan, when it models a machine (`None` under
    /// [`Decomposition::SingleRank`], whose one rank exchanges nothing).
    pub fn rank_set(&self) -> Option<&RankSet> {
        self.ranks.machine().map(|_| &self.ranks)
    }

    /// Total charge on the reciprocal scratch mesh after the most recent
    /// long-range evaluation: the exact sum of the rank-merged `rho_q`
    /// words (Q `MESH_FRAC`). Charge conservation through the spread is
    /// closed-form: an independent re-spread of the same positions under
    /// any plan must reproduce this total bit-for-bit (the
    /// `anton-analysis` mesh-charge identity).
    pub fn mesh_charge_total(&self) -> i128 {
        let mut total: i128 = 0;
        for &q in &self.gse_scratch.rho_q {
            total += q as i128;
        }
        total
    }

    /// Exact per-`lr_step` increments of the long-range exchange counters:
    /// `[mesh_halo_messages, mesh_halo_bytes, fft_messages, fft_bytes]`
    /// added per long-range step (`None` under `SingleRank`, where no mesh
    /// exchange is metered). See [`anton_machine::MeshExchange::per_lr_step`].
    pub fn mesh_lr_step_rates(&self) -> Option<[u64; 4]> {
        self.ranks.machine().map(|m| m.mesh.per_lr_step())
    }

    /// The trace sink recording this pipeline's phase spans and counters.
    pub fn trace(&self) -> &TraceSink {
        &self.trace
    }

    pub fn trace_mut(&mut self) -> &mut TraceSink {
        &mut self.trace
    }

    /// Install a trace sink (pass [`TraceSink::on`] to start recording).
    pub fn set_trace(&mut self, trace: TraceSink) {
        self.trace = trace;
    }

    /// Attribute the exchange traffic metered since the `before` snapshot
    /// to its emitting phases: one counter sample per traffic class, priced
    /// by the machine config's hop math (import/reduce traffic to the
    /// re-home bookkeeping, halo traffic to the mesh merge, pencil traffic
    /// split over the two FFT transforms). Nothing to attribute when no
    /// machine is modelled.
    fn meter_since(&mut self, before: ExchangeCounters) {
        let Some(machine) = self.ranks.machine() else {
            return;
        };
        if !self.trace.is_on() {
            return;
        }
        let d = self.counters.delta_since(&before);
        let n_ranks = self.ranks.rank_count();
        let cfg = &machine.config;
        let emit = |trace: &mut TraceSink, name, phase, msgs: u64, bytes: u64, hop_bytes: u64| {
            if msgs == 0 && bytes == 0 {
                return;
            }
            let modeled = modeled_burst_us(cfg, n_ranks, msgs, bytes, hop_bytes);
            trace.counter(name, phase, msgs, bytes, modeled);
        };
        emit(
            &mut self.trace,
            "import",
            Phase::ReHome,
            d.import_messages,
            d.import_bytes,
            d.import_hop_bytes,
        );
        emit(
            &mut self.trace,
            "reduce",
            Phase::ReHome,
            d.reduce_messages,
            d.reduce_bytes,
            d.reduce_hop_bytes,
        );
        // Halo and pencil messages are nearest-neighbor: hop volume = volume.
        emit(
            &mut self.trace,
            "mesh_halo",
            Phase::MeshMerge,
            d.mesh_halo_messages,
            d.mesh_halo_bytes,
            d.mesh_halo_bytes,
        );
        let (fwd_msgs, fwd_bytes) = (d.fft_messages / 2, d.fft_bytes / 2);
        emit(
            &mut self.trace,
            "fft_pencils",
            Phase::FftForward,
            fwd_msgs,
            fwd_bytes,
            fwd_bytes,
        );
        emit(
            &mut self.trace,
            "fft_pencils",
            Phase::FftInverse,
            d.fft_messages - fwd_msgs,
            d.fft_bytes - fwd_bytes,
            d.fft_bytes - fwd_bytes,
        );
    }
}
