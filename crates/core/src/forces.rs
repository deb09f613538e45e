//! The deterministic fixed-point force pipeline.
//!
//! Every contribution — range-limited pair (through the PPIP table models),
//! bonded term, correction pair, and mesh force — is a pure function of
//! fixed-point positions, quantized to Q24 raw force components *before*
//! accumulation. Accumulation is two's-complement wrapping addition, which
//! is associative and commutative, so the decomposition (single rank or any
//! simulated node grid) can only permute additions and never changes a bit
//! of the result. This is the software realization of paper §4.
//!
//! Under a [`Decomposition::Nodes`] decomposition the pipeline executes as
//! a set of [`Rank`](crate::ranks::Rank)s: each rank computes its NT pairs,
//! statically assigned bonded terms, correction pairs, *and its share of
//! the GSE mesh phase* (charge spreading and force interpolation over its
//! home box's atoms, around a distributed-FFT trunk) into *private*
//! accumulators (driven by a pinned-size [`DetPool`]), and the rank buffers
//! are merged serially in fixed rank order. No atomics, no cross-thread
//! reductions — thread scheduling can only change when a rank buffer is
//! filled, never its contents, so trajectories are bitwise invariant across
//! node count *and* worker-thread count.

use crate::batch::{BatchQueue, CellTiling, MatchCache, Q20Ladder};
use crate::pool::DetPool;
use crate::ranks::RankSet;
use crate::state::{FixedState, ENERGY_FRAC, FORCE_FRAC};
use anton_ewald::direct::DirectKernel;
use anton_ewald::gse::{GseFixed, GseParams, GseScratch, MeshAtoms, SupportScratch};
use anton_ewald::Mesh;
use anton_fixpoint::rounding::rne_f64;
use anton_fixpoint::{FxVec3, Q20};
use anton_forcefield::bonded;
use anton_forcefield::ExclusionPolicy;
use anton_geometry::{Buckets, PosTiles, TileView, Vec3};
use anton_machine::perf::ExchangeCounters;
use anton_machine::{modeled_burst_us, MachineConfig, MeshExchange, Ppip, MATCH_WIDTH};
use anton_systems::System;
use anton_trace::{Lane, Phase, TraceSink, RANK_MAIN};

/// How force work is enumerated (never affects results, bitwise).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Decomposition {
    /// One rank enumerates all pairs via a cell grid.
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
    /// Pairwise virial Σ r⃗·F⃗ over range-limited + correction pairs, kept in
    /// a wide accumulator like the ASIC's 86-bit units (paper Figure 4c):
    /// wide enough that pressure-controlled accounting stays deterministic
    /// and parallel invariant. Q32, kcal/mol.
    pub virial: anton_fixpoint::Wide<32>,
}

impl RawForces {
    pub fn zeroed(n: usize) -> RawForces {
        RawForces {
            f: vec![[0i64; 3]; n],
            e_range_limited: 0,
            e_bonded: 0,
            e_correction: 0,
            e_reciprocal: 0,
            virial: anton_fixpoint::Wide::ZERO,
        }
    }

    pub fn clear(&mut self) {
        for f in self.f.iter_mut() {
            *f = [0; 3];
        }
        self.e_range_limited = 0;
        self.e_bonded = 0;
        self.e_correction = 0;
        self.e_reciprocal = 0;
        self.virial = anton_fixpoint::Wide::ZERO;
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
        self.virial = self.virial.wrapping_add(other.virial);
    }

    /// The accumulated pairwise virial (kcal/mol).
    pub fn virial_f64(&self) -> f64 {
        self.virial.to_f64()
    }

    /// Potential energy (kcal/mol).
    pub fn potential(&self) -> f64 {
        let s = 1.0 / (1u64 << ENERGY_FRAC) as f64;
        (self
            .e_range_limited
            .wrapping_add(self.e_bonded)
            .wrapping_add(self.e_correction)) as f64
            * s
            + self.e_reciprocal as f64 * s
    }

    pub fn force_f64(&self, i: usize) -> Vec3 {
        let s = 1.0 / (1i64 << FORCE_FRAC) as f64;
        Vec3::new(
            self.f[i][0] as f64 * s,
            self.f[i][1] as f64 * s,
            self.f[i][2] as f64 * s,
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
/// Since PR 8 this is also the Verlet buffer of the persistent match
/// cache: batches are matched once at `cutoff + PAIRLIST_SLACK` and
/// replayed until some atom has moved half the slack
/// ([`MatchCache::needs_rebuild`]), so the value trades padded-set size
/// (grows with the cube of `(rc + slack)/rc`) against rebuild frequency
/// (reuse interval grows linearly with the slack). It never affects
/// forces — the exact `r² ≤ rc²` mask is applied every evaluation — so
/// retuning it leaves every golden checksum unchanged.
pub const PAIRLIST_SLACK: f64 = 1.0;

/// The pipeline bound to one system and one decomposition.
pub struct ForcePipeline {
    pub ppip: Ppip,
    pub gse: GseFixed,
    pub beta: f64,
    corr_kernel: DirectKernel,
    pub rc2_q20: i64,
    pub half_edge_q20: [Q20; 3],
    /// The displacement/r² ladder over `half_edge_q20`, shared by the
    /// match stage and the evaluator.
    ladder: Q20Ladder,
    policy: ExclusionPolicy,
    /// Import-region margin (Å) covering constraint-group co-location and
    /// deferred migration (§3.2.4); baked into the rank set's NT reach at
    /// construction.
    pub import_margin: f64,
    decomposition: Decomposition,
    pool: DetPool,
    ranks: Option<RankSet>,
    /// Modeled torus traffic of every `Nodes(n)` force evaluation.
    pub counters: ExchangeCounters,
    /// Static long-range communication plan (mesh halos + FFT pencils);
    /// `None` under [`Decomposition::SingleRank`].
    mesh_exchange: Option<MeshExchange>,
    /// Structured event recorder ([`TraceSink::Off`] unless installed via
    /// [`Self::set_trace`]). Tracing never influences results: timestamps
    /// are observability payload only, and the golden-trajectory tier
    /// asserts bitwise identity with tracing on and off.
    trace: TraceSink,
    /// Machine model pricing the metered traffic of trace counters
    /// (`Nodes(n)` only).
    machine: Option<MachineConfig>,
    /// Q20 of the *padded* match cutoff `(rc + PAIRLIST_SLACK)²`: the
    /// radius batches are matched at, so the cached pair set stays a
    /// superset of the in-cutoff set while the displacement monitor holds.
    rc_pad2_q20: i64,
    /// Upper bound on the match stage's integer lower-bound r² (Q40):
    /// `(rc_pad2_q20 << 20)` plus a margin covering the floor-vs-RNE gap
    /// of the per-axis bound and the single RNE rounding of the exact r².
    r2_lb_max: i64,
    /// Displacement monitor + reference epoch of the persistent match
    /// stage, shared by both decompositions (the rebuild schedule is a
    /// pure function of the trajectory, never of the decomposition).
    cache: MatchCache,
    /// Static packed correction stream (precomputed nonzero charge
    /// products), serial form for the single-rank path.
    corr_all: Vec<(u32, u32, f64)>,
    /// Per-rank static packed correction streams (`Nodes(n)` path).
    corr_rank: Vec<Vec<(u32, u32, f64)>>,
    /// Single-rank tile pipeline state (`None` under `Nodes(n)`).
    single: Option<SingleTiles>,
    /// Per-box SoA position/charge tiles shared by the rank fan-out
    /// (`Nodes(n)` path), rebuilt on the trunk once per fan-out.
    node_tiles: PosTiles,
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

/// One rank's short-range scratch: a private force accumulator plus the
/// trace lane its worker records phase spans into (exactly one worker owns
/// each scratch per fan-out, so lane recording needs no synchronization).
struct RankScratch {
    forces: RawForces,
    lane: Lane,
    /// The rank's match-batch queue. Persistent: refilled only on cache
    /// rebuild steps, replayed (against refreshed tile positions) on
    /// reuse steps.
    queue: BatchQueue,
    /// Pairs that passed the exact per-step cutoff mask in the last
    /// evaluation, merged into the census in rank order on the trunk.
    live_pairs: u64,
}

/// Single-rank tile pipeline state: the static cell tiling plus the
/// buckets, SoA tiles and match queue — rebuilt on cache-rebuild steps,
/// position-refreshed and replayed on reuse steps.
/// Held in an `Option` so the evaluation can detach it from `self` while
/// borrowing the pipeline shared.
struct SingleTiles {
    tiling: CellTiling,
    buckets: Buckets,
    tiles: PosTiles,
    queue: BatchQueue,
}

/// One rank's private long-range state: a force accumulator, its share of
/// the spread charge mesh, a window-stencil scratch, and its trace lane.
struct LrRank {
    forces: RawForces,
    rho: Vec<i64>,
    stencil: SupportScratch,
    lane: Lane,
}

impl LrRank {
    fn empty() -> LrRank {
        LrRank {
            forces: RawForces::zeroed(0),
            rho: Vec::new(),
            stencil: SupportScratch::default(),
            lane: Lane::new(),
        }
    }
}

const IMPORT_MARGIN: f64 = 8.0;

/// Candidates one row of the match stage filters before it turns to the
/// survivors: the size of the stack buffer the low-precision pass compacts
/// slot indices into. Tiles have no size limit (under `Nodes(1)` one tile
/// holds the whole system), so rows are cut into blocks of this many.
const MATCH_BLOCK: usize = 64;

impl ForcePipeline {
    /// Build the pipeline. The decomposition and worker-thread count are
    /// construction-time properties: `Nodes(n)` builds the full rank
    /// architecture (grid, NT assignment, exchange plan, static bonded and
    /// correction work lists) once, here.
    pub fn new(sys: &System, decomposition: Decomposition, threads: usize) -> ForcePipeline {
        let beta = sys.params.ewald_beta();
        let e = sys.pbox.edge();
        let half_edge_q20 = [
            Q20::from_f64(e.x / 2.0),
            Q20::from_f64(e.y / 2.0),
            Q20::from_f64(e.z / 2.0),
        ];
        // First, so a box too large for the pair ladder is refused before
        // anything is built on it.
        let ladder = Q20Ladder::new(half_edge_q20);
        let gse_params = GseParams::auto(sys.params.cutoff, sys.params.spread_cutoff);
        let ranks = match decomposition {
            Decomposition::SingleRank => None,
            Decomposition::Nodes(n) => {
                Some(RankSet::build(sys, n, sys.params.cutoff + IMPORT_MARGIN))
            }
        };
        // The FFT is planned over the simulated node grid (clamped per axis
        // so every node dimension divides the mesh), so the reciprocal
        // phase's pencil-message pattern matches the decomposition.
        let fft_nodes = ranks.as_ref().map_or([1, 1, 1], |rs| {
            [
                rs.grid.dims.x as usize,
                rs.grid.dims.y as usize,
                rs.grid.dims.z as usize,
            ]
        });
        let gse = GseFixed::with_nodes(Mesh::new(sys.params.mesh, sys.pbox), gse_params, fft_nodes);
        let mesh_exchange = ranks.as_ref().map(|_| {
            let h = gse.mesh.spacing();
            let halo = [
                (gse.params.spread_cutoff / h.x).ceil() as usize,
                (gse.params.spread_cutoff / h.y).ceil() as usize,
                (gse.params.spread_cutoff / h.z).ceil() as usize,
            ];
            let st = gse.fft_stats();
            MeshExchange::new(
                gse.mesh.dims,
                gse.node_dims(),
                halo,
                st.messages_total(),
                st.bytes_total(),
            )
        });
        let rc2_q20 = Q20::from_f64(sys.params.cutoff * sys.params.cutoff).raw();
        let rc_pad = sys.params.cutoff + PAIRLIST_SLACK;
        let rc_pad2_q20 = Q20::from_f64(rc_pad * rc_pad).raw();
        // Static packed correction streams: the excluded / 1-4 pair lists
        // never change, so the charge products and zero-product filtering
        // are hoisted out of the per-step stream once, here. The products
        // are the same f64 multiplications the per-step path performed, so
        // the evaluated corrections are bitwise unchanged.
        let policy = sys
            .topology
            .exclusions
            .policy
            .unwrap_or(ExclusionPolicy::amber_like());
        let pack = |pairs: &mut dyn Iterator<Item = (u32, u32, f64)>| -> Vec<(u32, u32, f64)> {
            let charge = &sys.topology.charge;
            pairs
                .filter_map(|(i, j, scale)| {
                    let qq = charge[i as usize] * charge[j as usize] * scale;
                    (qq != 0.0).then_some((i, j, qq))
                })
                .collect()
        };
        let s14 = 1.0 - policy.elec_14;
        let excl = sys.topology.exclusions.excluded_pairs();
        let p14 = sys.topology.exclusions.pairs_14();
        let (corr_all, corr_rank) = match &ranks {
            None => (
                pack(
                    &mut excl
                        .iter()
                        .map(|&(i, j)| (i, j, 1.0))
                        .chain(p14.iter().map(|&(i, j)| (i, j, s14))),
                ),
                Vec::new(),
            ),
            Some(rs) => (
                Vec::new(),
                rs.ranks
                    .iter()
                    .map(|rank| {
                        pack(
                            &mut rank
                                .excl
                                .iter()
                                .map(|&k| {
                                    let (i, j) = excl[k as usize];
                                    (i, j, 1.0)
                                })
                                .chain(rank.pair14.iter().map(|&k| {
                                    let (i, j) = p14[k as usize];
                                    (i, j, s14)
                                })),
                        )
                    })
                    .collect(),
            ),
        };
        let single = match decomposition {
            Decomposition::SingleRank => Some(SingleTiles {
                tiling: CellTiling::build([e.x, e.y, e.z], sys.params.cutoff + PAIRLIST_SLACK),
                buckets: Buckets::default(),
                tiles: PosTiles::default(),
                queue: BatchQueue::default(),
            }),
            Decomposition::Nodes(_) => None,
        };
        ForcePipeline {
            ppip: Ppip::build(beta, sys.params.cutoff),
            gse,
            beta,
            corr_kernel: DirectKernel::reference(beta, sys.params.cutoff),
            rc2_q20,
            half_edge_q20,
            ladder,
            policy,
            import_margin: IMPORT_MARGIN,
            decomposition,
            pool: DetPool::new(threads),
            ranks,
            counters: ExchangeCounters::default(),
            mesh_exchange,
            trace: TraceSink::Off,
            machine: match decomposition {
                Decomposition::SingleRank => None,
                Decomposition::Nodes(n) => Some(MachineConfig::with_nodes(n)),
            },
            rc_pad2_q20,
            r2_lb_max: (rc_pad2_q20 << 20) + (1 << 27),
            cache: MatchCache::new(half_edge_q20, PAIRLIST_SLACK),
            corr_all,
            corr_rank,
            single,
            node_tiles: PosTiles::default(),
            scratch: Vec::new(),
            lr_scratch: Vec::new(),
            gse_scratch: GseScratch::default(),
            pos_buf: Vec::new(),
        }
    }

    pub fn decomposition(&self) -> Decomposition {
        self.decomposition
    }

    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// The rank architecture (`None` under [`Decomposition::SingleRank`]).
    pub fn rank_set(&self) -> Option<&RankSet> {
        self.ranks.as_ref()
    }

    /// Total charge on the reciprocal scratch mesh after the most recent
    /// long-range evaluation: the exact sum of the merged `rho_q` words
    /// (Q `MESH_FRAC`). Under `Nodes(n)` this is the rank-merged mesh; under
    /// `SingleRank` the serially spread one. Charge conservation through
    /// the spread is closed-form: an independent serial re-spread of the
    /// same positions must reproduce this total bit-for-bit (the
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
        self.mesh_exchange.as_ref().map(MeshExchange::per_lr_step)
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
    /// split over the two FFT transforms).
    fn meter_since(&mut self, before: ExchangeCounters) {
        if !self.trace.is_on() {
            return;
        }
        let d = self.counters.delta_since(&before);
        let n_ranks = self.ranks.as_ref().map_or(1, RankSet::rank_count).max(1);
        let cfg = self.machine;
        let emit = |trace: &mut TraceSink, name, phase, msgs: u64, bytes: u64, hop_bytes: u64| {
            if msgs == 0 && bytes == 0 {
                return;
            }
            let modeled = cfg.map_or(0.0, |c| {
                modeled_burst_us(&c, n_ranks, msgs, bytes, hop_bytes)
            });
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

    /// One range-limited pair: fixed-point r², exact integer cutoff test,
    /// PPIP tables, quantized force. Returns the Q24 force on atom `i`
    /// (negate for `j`) and the Q32 pair energy. Orientation-free: calling
    /// with (j, i) yields the exact negation.
    ///
    /// Retained as the scalar *reference oracle* for the batched match/
    /// evaluate pipeline, on its own 128-bit ladder
    /// (`FixedState::delta_q20`); production paths stream tile pairs
    /// through [`Self::match_tile_pair`] + [`Self::evaluate_batches`],
    /// whose 64-bit [`Q20Ladder`] yields the same words.
    #[cfg(test)]
    #[inline]
    fn pair_contribution(
        &self,
        sys: &System,
        state: &FixedState,
        i: usize,
        j: usize,
    ) -> Option<([i64; 3], i64)> {
        let top = &sys.topology;
        let (se, sl) = self
            .policy
            .scales(top.exclusions.class(i as u32, j as u32))?;
        let d = state.delta_q20(self.half_edge_q20, i, j);
        // Exact r² in Q20 with a single rounding (component order free).
        let sum: i128 =
            d[0] as i128 * d[0] as i128 + d[1] as i128 * d[1] as i128 + d[2] as i128 * d[2] as i128;
        let r2 = anton_fixpoint::rne_shr_i128(sum, 20);
        if r2 > self.rc2_q20 || r2 == 0 {
            return None;
        }
        let qq = top.charge[i] * top.charge[j] * se;
        let (a, b) = top.lj_table.coeffs(top.lj_type[i], top.lj_type[j]);
        let (f_over_r, e) = self.ppip.pair(r2, qq, a * sl, b * sl);
        let ds = 1.0 / (1i64 << 20) as f64;
        let fs = (1i64 << FORCE_FRAC) as f64;
        let fi = [
            rne_f64(d[0] as f64 * ds * f_over_r * fs) as i64,
            rne_f64(d[1] as f64 * ds * f_over_r * fs) as i64,
            rne_f64(d[2] as f64 * ds * f_over_r * fs) as i64,
        ];
        let eq = rne_f64(e * (1u64 << ENERGY_FRAC) as f64) as i64;
        Some((fi, eq))
    }

    #[cfg(test)]
    fn apply_pair(
        &self,
        sys: &System,
        state: &FixedState,
        i: usize,
        j: usize,
        out: &mut RawForces,
    ) {
        if let Some((fi, eq)) = self.pair_contribution(sys, state, i, j) {
            let d = state.delta_q20(self.half_edge_q20, i, j);
            for k in 0..3 {
                out.f[i][k] = out.f[i][k].wrapping_add(fi[k]);
                out.f[j][k] = out.f[j][k].wrapping_sub(fi[k]);
                // r·F into the wide virial accumulator (exact products,
                // order-free accumulation).
                out.virial = out.virial.accumulate(
                    anton_fixpoint::Q::<20>::from_raw(d[k]),
                    anton_fixpoint::Q::<24>::from_raw(fi[k]),
                );
            }
            out.e_range_limited = out.e_range_limited.wrapping_add(eq);
        }
    }

    /// Stream one tile pair through a match unit, one row of `b` per slot
    /// of `a`, a block of [`MATCH_BLOCK`] candidates at a time, in two
    /// passes. The first is the ASIC match unit's reduced-precision
    /// compare — the integer lower bound of [`Q20Ladder`] on every
    /// candidate of the block, no data-dependent branch, survivors' slot
    /// indices compacted into a stack buffer. The second runs on survivors
    /// only: exact Q20 r² against the *padded* cutoff
    /// `(rc + PAIRLIST_SLACK)²`, exclusion/1-4 class, LJ and charge
    /// products, lane fill into `q`. `same` marks a tile paired with
    /// itself, where slots enumerate `si < sj`. `sa0`/`sb0` are the tiles'
    /// first flat slots in the owning [`PosTiles`] pool; the queue records
    /// each lane's slot pair so reuse steps can re-derive the displacement
    /// from refreshed tile positions.
    ///
    /// Matching at the padded radius makes the queued set a superset of
    /// the in-cutoff set for every step the displacement monitor accepts;
    /// the exact `r² ≤ rc²` decision is re-taken per evaluation on the
    /// same ladder, so *which* pairs contribute never depends on when the
    /// batch was matched. Coincident pairs (r² = 0) are *kept* here — the
    /// evaluator's per-step mask makes the final call either way, so the
    /// match stage only has to be conservative.
    // The argument list is the tile-pair tuple the cell walk produces;
    // bundling it into a struct would only rename the call sites.
    #[allow(clippy::too_many_arguments)]
    fn match_tile_pair(
        &self,
        sys: &System,
        a: TileView<'_>,
        b: TileView<'_>,
        same: bool,
        sa0: u32,
        sb0: u32,
        q: &mut BatchQueue,
    ) {
        let top = &sys.topology;
        let mut kept = [0u32; MATCH_BLOCK];
        for si in 0..a.len() {
            let pi = [a.x[si], a.y[si], a.z[si]];
            let ai = a.atom[si];
            let qi = a.q[si];
            let ti = top.lj_type[ai as usize];
            let sj0 = if same { si + 1 } else { 0 };
            q.census.candidates += (b.len() - sj0) as u64;
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
                    let aj = b.atom[sj];
                    let Some((se, sl)) = self.policy.scales(top.exclusions.class(ai, aj)) else {
                        continue;
                    };
                    let (lja, ljb) = top.lj_table.coeffs(ti, top.lj_type[aj as usize]);
                    q.push(
                        r2,
                        qi * b.q[sj] * se,
                        lja * sl,
                        ljb * sl,
                        ai,
                        aj,
                        sa0 + si as u32,
                        sb0 + sj as u32,
                    );
                }
            }
        }
    }

    /// Replay the queued batches against the *current* tile positions:
    /// per occupied lane, re-derive the exact Q20 displacement and r² from
    /// the refreshed tiles (the [`Q20Ladder`] the match stage ran, bit for
    /// bit the scalar oracle's 128-bit one), re-take the exact `r² ≤ rc²`
    /// cutoff mask, then dispatch the surviving lanes through the PPIP
    /// evaluator and scatter the quantized forces, virial and energy.
    ///
    /// The cached batch contributes only the pair's *static* identity
    /// (atom ids, tile slots, charge product, LJ coefficients) — every
    /// position-dependent quantity is recomputed here, so the force bits
    /// are a pure function of the current positions: evaluating a freshly
    /// matched queue and a cache-replayed queue over the same positions
    /// produces identical accumulators, lane for lane. Returns the number
    /// of live (in-cutoff) pairs, which is likewise rebuild-schedule
    /// independent.
    fn evaluate_batches(&self, q: &BatchQueue, tiles: &PosTiles, out: &mut RawForces) -> u64 {
        let ds = 1.0 / (1i64 << 20) as f64;
        let fs = (1i64 << FORCE_FRAC) as f64;
        let es = (1u64 << ENERGY_FRAC) as f64;
        let mut vals = [(0.0f64, 0.0f64); MATCH_WIDTH];
        let mut live_pairs = 0u64;
        for (batch, meta) in q.iter() {
            let mut live = *batch;
            let mut dd = [[0i64; 3]; MATCH_WIDTH];
            let mut mask = 0u8;
            for (lane, d_out) in dd.iter_mut().enumerate() {
                if batch.mask & (1u8 << lane) == 0 {
                    continue;
                }
                let (d, r2) = self
                    .ladder
                    .delta_r2(tiles.raw_at(meta.si[lane]), tiles.raw_at(meta.sj[lane]));
                if r2 > self.rc2_q20 || r2 == 0 {
                    continue;
                }
                live.r2_q20[lane] = r2;
                *d_out = d;
                mask |= 1u8 << lane;
            }
            live.mask = mask;
            if mask == 0 {
                continue;
            }
            live_pairs += u64::from(mask.count_ones());
            self.ppip.pair_batch(&live, &mut vals);
            for (lane, &(f_over_r, e)) in vals.iter().enumerate() {
                if mask & (1u8 << lane) == 0 {
                    continue;
                }
                let d = dd[lane];
                let fi = [
                    rne_f64(d[0] as f64 * ds * f_over_r * fs) as i64,
                    rne_f64(d[1] as f64 * ds * f_over_r * fs) as i64,
                    rne_f64(d[2] as f64 * ds * f_over_r * fs) as i64,
                ];
                let (i, j) = (meta.i[lane] as usize, meta.j[lane] as usize);
                for k in 0..3 {
                    out.f[i][k] = out.f[i][k].wrapping_add(fi[k]);
                    out.f[j][k] = out.f[j][k].wrapping_sub(fi[k]);
                    out.virial = out.virial.accumulate(
                        anton_fixpoint::Q::<20>::from_raw(d[k]),
                        anton_fixpoint::Q::<24>::from_raw(fi[k]),
                    );
                }
                out.e_range_limited = out.e_range_limited.wrapping_add(rne_f64(e * es) as i64);
            }
        }
        live_pairs
    }

    /// Rebuild the single-rank cache structure at the given positions:
    /// re-bin atoms into the static cell tiling, refill the SoA tiles, and
    /// stream the conservative cell-pair list through the padded-cutoff
    /// match stage into the persistent queue. Pure structure work — no
    /// spans, counters or monitor bookkeeping — shared by the production
    /// rebuild arm and checkpoint restore (which rebuilds at the cached
    /// *reference* epoch rather than the restored step's positions).
    fn rebuild_single_cache(&self, sys: &System, positions: &[FxVec3], st: &mut SingleTiles) {
        let n_cells = st.tiling.cell_count();
        {
            let SingleTiles {
                tiling, buckets, ..
            } = st;
            buckets.rebuild(n_cells, positions.len(), |i| {
                let p = &positions[i].0;
                tiling.cell_of([p[0].raw(), p[1].raw(), p[2].raw()])
            });
        }
        {
            let charge = &sys.topology.charge;
            let buckets = &st.buckets;
            st.tiles
                .rebuild((0..n_cells).map(|c| buckets.members(c)), |a| {
                    let p = &positions[a as usize].0;
                    ([p[0].raw(), p[1].raw(), p[2].raw()], charge[a as usize])
                });
        }
        st.queue.begin();
        for &(ca, cb) in st.tiling.pairs() {
            self.match_tile_pair(
                sys,
                st.tiles.tile(ca as usize),
                st.tiles.tile(cb as usize),
                ca == cb,
                st.tiles.tile_start(ca as usize) as u32,
                st.tiles.tile_start(cb as usize) as u32,
                &mut st.queue,
            );
        }
    }

    /// Single-rank range-limited phase on the persistent tile pipeline.
    ///
    /// When the displacement monitor trips ([`MatchCache::needs_rebuild`]):
    /// re-bin atoms into the static cell tiling from their raw fraction
    /// bits, rebuild the SoA tiles, and stream the conservative cell-pair
    /// list through the padded-cutoff match stage (the CacheRebuild span,
    /// with the Match sub-span inside it). Otherwise: refresh the tile
    /// positions in place and keep the cached batch structure (the
    /// CacheReuse span). Either way the queued batches are then replayed
    /// against the current positions by [`Self::evaluate_batches`], whose
    /// exact per-step cutoff mask makes the forces independent of which
    /// arm ran. Allocation-free in steady state.
    fn range_limited_tiles(&mut self, sys: &System, state: &FixedState, out: &mut RawForces) {
        let mut st = self.single.take().expect("single-rank tile state");
        if self.cache.needs_rebuild(&state.positions) {
            let t_cache = self.trace.now_ns();
            let t0 = self.trace.now_ns();
            self.rebuild_single_cache(sys, &state.positions, &mut st);
            self.trace.end_span(Phase::Match, RANK_MAIN, t0);
            self.cache.note_rebuild(&state.positions);
            self.counters.match_candidates += st.queue.census.candidates;
            self.counters.rebuild_steps += 1;
            self.trace.end_span(Phase::CacheRebuild, RANK_MAIN, t_cache);
        } else {
            let t_cache = self.trace.now_ns();
            let positions = &state.positions;
            st.tiles.refresh_positions(|a| {
                let p = &positions[a as usize].0;
                [p[0].raw(), p[1].raw(), p[2].raw()]
            });
            self.counters.reuse_steps += 1;
            self.trace.end_span(Phase::CacheReuse, RANK_MAIN, t_cache);
        }
        let t0 = self.trace.now_ns();
        let live = self.evaluate_batches(&st.queue, &st.tiles, out);
        self.trace.end_span(Phase::Evaluate, RANK_MAIN, t0);
        // Live pairs (and batch count) are metered per *evaluation*, so the
        // census totals are a pure function of the trajectory — identical
        // across decompositions, thread counts and rebuild schedules.
        self.counters.match_pairs += live;
        self.counters.match_batches += st.queue.batch_count() as u64;
        self.single = Some(st);
    }

    /// Range-limited forces under the pipeline's decomposition.
    pub fn range_limited(&mut self, sys: &System, state: &FixedState, out: &mut RawForces) {
        match self.decomposition {
            Decomposition::SingleRank => {
                let t0 = self.trace.now_ns();
                self.range_limited_tiles(sys, state, out);
                self.trace.end_span(Phase::RangeLimited, RANK_MAIN, t0);
            }
            Decomposition::Nodes(_) => self.rank_fanout(sys, state, out, false),
        }
    }

    /// The short-range force class of a RESPA inner step: range-limited
    /// pairs plus bonded terms. Under `Nodes(n)` both are computed per rank
    /// in one fan-out.
    pub fn short_range(&mut self, sys: &System, state: &FixedState, out: &mut RawForces) {
        match self.decomposition {
            Decomposition::SingleRank => {
                let t0 = self.trace.now_ns();
                self.range_limited_tiles(sys, state, out);
                self.trace.end_span(Phase::RangeLimited, RANK_MAIN, t0);
                let t0 = self.trace.now_ns();
                self.bonded(sys, state, out);
                self.trace.end_span(Phase::Bonded, RANK_MAIN, t0);
            }
            Decomposition::Nodes(_) => self.rank_fanout(sys, state, out, true),
        }
    }

    /// The long-range force class of a RESPA outer step: reciprocal (GSE)
    /// plus correction pairs. Under `Nodes(n)` the whole reciprocal phase
    /// is sharded over the rank set (§3.2.2): each rank spreads its home
    /// box's atoms into a *private* charge mesh; the meshes merge in fixed
    /// rank order with wrapping adds; the distributed fixed-point FFT trunk
    /// (forward → Green multiply → inverse) runs on the calling thread
    /// *overlapped* with the per-rank correction pairs — the software
    /// analogue of the concurrent HTIS and flexible chains of §3.2 — and
    /// each rank then interpolates its atoms' forces from the shared
    /// potential mesh. Every phase either partitions work (disjoint FFT
    /// pencils, disjoint atoms) or accumulates quantized summands with
    /// wrapping adds, so the result is bitwise invariant to node count and
    /// thread count. The mesh-halo and FFT pencil traffic is metered into
    /// [`ExchangeCounters`] per long-range step.
    pub fn long_range(&mut self, sys: &System, state: &FixedState, out: &mut RawForces) {
        if self.ranks.is_none() {
            let t0 = self.trace.now_ns();
            self.reciprocal(sys, state, out);
            self.trace.end_span(Phase::Reciprocal, RANK_MAIN, t0);
            let t0 = self.trace.now_ns();
            self.corrections(state, out);
            self.trace.end_span(Phase::Correction, RANK_MAIN, t0);
            return;
        }
        let n = sys.n_atoms();
        state.decode_positions_into(&sys.pbox, &mut self.pos_buf);
        // Long-range steps normally follow a short-range evaluation that
        // already re-homed atoms for these positions; only meter a fresh
        // exchange step when called standalone.
        let before = self.counters;
        let t0 = self.trace.now_ns();
        let freshly_prepared = {
            let rs = self.ranks.as_mut().expect("rank set checked above");
            if rs.is_prepared(n) {
                false
            } else {
                rs.prepare(state, &mut self.counters);
                true
            }
        };
        if freshly_prepared {
            self.trace.end_span(Phase::ReHome, RANK_MAIN, t0);
            self.meter_since(before);
        }
        let n_mesh = self.gse.mesh.len();
        let n_ranks = self.ranks.as_ref().map_or(0, RankSet::rank_count);
        // Umbrella span over the whole distributed reciprocal evaluation;
        // the Spread/MeshMerge/Fft*/Interpolate sub-phases nest inside it.
        let t_recip = self.trace.now_ns();
        let mut lr = std::mem::take(&mut self.lr_scratch);
        lr.resize_with(n_ranks, LrRank::empty);
        for s in &mut lr {
            if s.forces.f.len() == n {
                s.forces.clear();
            } else {
                s.forces = RawForces::zeroed(n);
            }
            s.rho.clear();
            s.rho.resize(n_mesh, 0);
        }
        let mut gs = std::mem::take(&mut self.gse_scratch);
        gs.begin(n_mesh);
        // Trunk-phase timestamps, collected inside the shared-borrow block
        // and turned into spans once `self` is mutable again.
        let mut merge_span = (0u64, 0u64);
        let mut fft_marks = [0u64; 4];
        // Trunk wall time of each pool fan-out (spread; overlapped
        // FFT+corrections; interpolate) — the dispatch/join overhead is
        // this span minus the rank spans it encloses.
        let mut dispatch_marks = [(0u64, 0u64); 3];
        {
            let this = &*self;
            let rs = this.ranks.as_ref().expect("rank set checked above");
            let charges = &sys.topology.charge;
            let view = |r: usize| MeshAtoms {
                positions: &this.pos_buf,
                charges,
                atoms: rs.atoms_in_box(r),
            };
            // 1. Per-rank charge spreading into private meshes.
            dispatch_marks[0].0 = this.trace.now_ns();
            this.pool.run(&mut lr, |r, s| {
                let t = this.trace.now_ns();
                this.gse.spread_into(view(r), &mut s.rho, &mut s.stencil);
                if this.trace.is_on() {
                    s.lane.push(Phase::Spread, t, this.trace.now_ns());
                }
            });
            dispatch_marks[0].1 = this.trace.now_ns();
            // 2. Serial rank-ordered wrapping merge of the charge meshes
            //    (the modeled charge-halo exchange).
            merge_span.0 = this.trace.now_ns();
            for s in &lr {
                for (a, &b) in gs.rho_q.iter_mut().zip(&s.rho) {
                    *a = a.wrapping_add(b);
                }
            }
            merge_span.1 = this.trace.now_ns();
            // 3. FFT trunk on the calling thread, overlapped with the
            //    per-rank correction pairs on the pool.
            let marks = &mut fft_marks;
            dispatch_marks[1].0 = this.trace.now_ns();
            this.pool.run_overlapped(
                &mut lr,
                |r, s| {
                    let t = this.trace.now_ns();
                    this.rank_corrections(state, r, &mut s.forces);
                    if this.trace.is_on() {
                        s.lane.push(Phase::Correction, t, this.trace.now_ns());
                    }
                },
                || {
                    this.gse.transform_marked(&mut gs, &mut |stage| {
                        marks[stage as usize] = this.trace.now_ns();
                    })
                },
            );
            dispatch_marks[1].1 = this.trace.now_ns();
            // 4. Per-rank force interpolation from the shared potential.
            dispatch_marks[2].0 = this.trace.now_ns();
            this.pool.run(&mut lr, |r, s| {
                let t = this.trace.now_ns();
                let phi = &gs.phi_q;
                let e = this.gse.interpolate_into(
                    view(r),
                    phi,
                    FORCE_FRAC,
                    &mut s.forces.f,
                    &mut s.stencil,
                );
                s.forces.e_reciprocal = s.forces.e_reciprocal.wrapping_add(e);
                if this.trace.is_on() {
                    s.lane.push(Phase::Interpolate, t, this.trace.now_ns());
                }
            });
            dispatch_marks[2].1 = this.trace.now_ns();
        }
        self.gse_scratch = gs;
        self.lr_scratch = lr;
        if self.trace.is_on() {
            for (s, e) in dispatch_marks {
                self.trace.push_span(Phase::Dispatch, RANK_MAIN, s, e);
            }
            self.trace
                .push_span(Phase::MeshMerge, RANK_MAIN, merge_span.0, merge_span.1);
            self.trace
                .push_span(Phase::FftForward, RANK_MAIN, fft_marks[0], fft_marks[1]);
            self.trace
                .push_span(Phase::FftGreen, RANK_MAIN, fft_marks[1], fft_marks[2]);
            self.trace
                .push_span(Phase::FftInverse, RANK_MAIN, fft_marks[2], fft_marks[3]);
        }
        self.trace
            .merge_lanes(self.lr_scratch.iter_mut().map(|s| &mut s.lane));
        for s in &self.lr_scratch {
            out.merge_from(&s.forces);
        }
        self.trace.end_span(Phase::Reciprocal, RANK_MAIN, t_recip);
        let before = self.counters;
        if let Some(me) = &self.mesh_exchange {
            me.record_lr_step(&mut self.counters);
        }
        self.meter_since(before);
    }

    /// Scalar reference enumeration over a decoded-position cell grid.
    /// Retained as the test oracle the batched tile pipeline is compared
    /// against (pair set and bitwise forces).
    #[cfg(test)]
    fn range_limited_cellgrid(&self, sys: &System, state: &FixedState, out: &mut RawForces) {
        use anton_geometry::CellGrid;
        let pos = state.decode_positions(&sys.pbox);
        let grid = CellGrid::build(&sys.pbox, &pos, sys.params.cutoff + PAIRLIST_SLACK);
        grid.for_each_pair_within(&pos, sys.params.cutoff + PAIRLIST_SLACK, |i, j, _d, _r2| {
            self.apply_pair(sys, state, i, j, out);
        });
    }

    /// Detach the per-rank scratch accumulators, sized and zeroed.
    /// (Taken out of `self` so the fan-out can borrow `self` shared while
    /// the pool mutates the buffers.)
    fn take_scratch(&mut self, n_atoms: usize) -> Vec<RankScratch> {
        let n_ranks = self.ranks.as_ref().map_or(0, RankSet::rank_count);
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.resize_with(n_ranks, || RankScratch {
            forces: RawForces::zeroed(n_atoms),
            lane: Lane::new(),
            queue: BatchQueue::default(),
            live_pairs: 0,
        });
        for s in &mut scratch {
            if s.forces.f.len() == n_atoms {
                s.forces.clear();
            } else {
                s.forces = RawForces::zeroed(n_atoms);
            }
        }
        scratch
    }

    /// Execute the short-range work per rank: re-home atoms, meter the
    /// exchange plan, fan the ranks out over the pool into private
    /// accumulators, and merge them in fixed rank order (the trace lanes
    /// merge in the same order, so recorded structure is deterministic).
    fn rank_fanout(
        &mut self,
        sys: &System,
        state: &FixedState,
        out: &mut RawForces,
        with_bonded: bool,
    ) {
        // The monitor reads only the trajectory (positions vs the cached
        // reference), so this decision — and with it the whole rebuild
        // schedule — is identical on every decomposition and thread count.
        let rebuild = self.cache.needs_rebuild(&state.positions);
        let before = self.counters;
        let t0 = self.trace.now_ns();
        {
            let rs = self
                .ranks
                .as_mut()
                .expect("rank fan-out without a rank set");
            if rebuild {
                rs.prepare(state, &mut self.counters);
            } else {
                // Deferred migration (§3.2.4): between pair-list rebuilds
                // atoms keep their home boxes — the frozen assignment is
                // covered by the NT import margin — and only the static
                // exchange plan's per-step traffic is metered.
                rs.meter_step(&mut self.counters);
            }
        }
        self.trace.end_span(Phase::ReHome, RANK_MAIN, t0);
        self.meter_since(before);
        if with_bonded {
            state.decode_positions_into(&sys.pbox, &mut self.pos_buf);
        }
        // Rebuild the shared per-box SoA tiles once, on the trunk (cache
        // rebuild), or refresh their positions in place under the frozen
        // membership (cache reuse); every rank streams its tower × plate
        // tile pairs out of this pool.
        let t_cache = self.trace.now_ns();
        {
            let ForcePipeline {
                node_tiles, ranks, ..
            } = self;
            let rs = ranks.as_ref().expect("rank set checked above");
            let positions = &state.positions;
            let charge = &sys.topology.charge;
            if rebuild {
                node_tiles.rebuild((0..rs.grid.node_count()).map(|b| rs.atoms_in_box(b)), |a| {
                    let p = &positions[a as usize].0;
                    ([p[0].raw(), p[1].raw(), p[2].raw()], charge[a as usize])
                });
            } else {
                node_tiles.refresh_positions(|a| {
                    let p = &positions[a as usize].0;
                    [p[0].raw(), p[1].raw(), p[2].raw()]
                });
            }
        }
        if rebuild {
            self.cache.note_rebuild(&state.positions);
            self.counters.rebuild_steps += 1;
        } else {
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
            let rs = this.ranks.as_ref().expect("rank set checked above");
            this.pool.run(&mut scratch, |r, buf| {
                let t = this.trace.now_ns();
                this.rank_pairs_batched(sys, rs, r, buf, rebuild);
                if this.trace.is_on() {
                    buf.lane.push(Phase::RangeLimited, t, this.trace.now_ns());
                }
                if with_bonded {
                    let t = this.trace.now_ns();
                    this.rank_bonded(sys, rs, r, &mut buf.forces);
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
        for s in &self.scratch {
            out.merge_from(&s.forces);
            if rebuild {
                self.counters.match_candidates += s.queue.census.candidates;
            }
            self.counters.match_pairs += s.live_pairs;
            self.counters.match_batches += s.queue.batch_count() as u64;
        }
    }

    /// Batched NT-method pair phase for one rank: on cache-rebuild steps,
    /// stream the rank's tower × plate tile pairs through the padded match
    /// stage into the rank's persistent queue; on reuse steps, keep the
    /// queue and replay it against the refreshed shared tiles. The
    /// exactly-once ownership test is hoisted from per atom pair to per
    /// *box* pair — every atom in a box shares that box's (canonical) home
    /// coordinate, so `node_for_pair(coord(a), coord(b))` decides for all
    /// its pairs at once. The evaluator's exact per-step cutoff mask makes
    /// the interaction set identical to the single-rank path (and to a
    /// fresh rebuild); wrapping accumulation makes the *forces* identical
    /// bitwise.
    fn rank_pairs_batched(
        &self,
        sys: &System,
        rs: &RankSet,
        r: usize,
        buf: &mut RankScratch,
        rebuild: bool,
    ) {
        if rebuild {
            let t0 = self.trace.now_ns();
            self.fill_rank_queue(sys, rs, r, &mut buf.queue);
            if self.trace.is_on() {
                buf.lane.push(Phase::Match, t0, self.trace.now_ns());
            }
        }
        let t0 = self.trace.now_ns();
        buf.live_pairs = self.evaluate_batches(&buf.queue, &self.node_tiles, &mut buf.forces);
        if self.trace.is_on() {
            buf.lane.push(Phase::Evaluate, t0, self.trace.now_ns());
        }
    }

    /// Reference-epoch positions of the persistent match cache — the
    /// positions its tiles and batches were last rebuilt at (empty while
    /// the cache is cold). Checkpointing serializes these so restore can
    /// resurrect the cache at the same epoch.
    pub fn match_ref_positions(&self) -> &[FxVec3] {
        self.cache.ref_positions()
    }

    /// Drop the persistent match cache: the next force evaluation rebuilds
    /// tiles and batches from scratch. Forces are unaffected by
    /// construction — the evaluator re-derives the interaction set from
    /// current positions every step — so this is safe at any point; the
    /// property tier uses it to pit a rebuild-every-step pipeline against
    /// a caching one, bit for bit.
    pub fn invalidate_match_cache(&mut self) {
        self.cache.invalidate();
    }

    /// Rebuild the persistent match cache — tiles, tile-pair batches, and
    /// the displacement reference — at the given *reference-epoch*
    /// positions, exactly as the interrupted run built it. Checkpoint
    /// restore calls this before re-evaluating forces: rebuilding at the
    /// cached epoch (rather than at the restored step's positions)
    /// reproduces the original displacement reference, so the monitor's
    /// future rebuild schedule — and with it every counter — continues
    /// bitwise as if the run had never stopped. Under `Nodes(n)` the rank
    /// set is re-homed at the epoch positions too, restoring the frozen
    /// deferred-migration assignment the cached queues were filled under.
    pub fn rebuild_match_cache_at(&mut self, sys: &System, positions: &[FxVec3]) {
        assert_eq!(
            positions.len(),
            sys.n_atoms(),
            "match-cache epoch has wrong atom count"
        );
        match self.decomposition {
            Decomposition::SingleRank => {
                let mut st = self.single.take().expect("single-rank tile state");
                self.rebuild_single_cache(sys, positions, &mut st);
                self.single = Some(st);
            }
            Decomposition::Nodes(_) => {
                let ref_state = FixedState {
                    positions: positions.to_vec(),
                    velocities: Vec::new(),
                };
                // Restore-time metering is discarded: the caller overwrites
                // the counters from the snapshot afterwards.
                let mut sink = ExchangeCounters::default();
                {
                    let rs = self.ranks.as_mut().expect("rank set under Nodes");
                    rs.prepare(&ref_state, &mut sink);
                }
                {
                    let ForcePipeline {
                        node_tiles, ranks, ..
                    } = self;
                    let rs = ranks.as_ref().expect("rank set under Nodes");
                    let charge = &sys.topology.charge;
                    node_tiles.rebuild(
                        (0..rs.grid.node_count()).map(|b| rs.atoms_in_box(b)),
                        |a| {
                            let p = &ref_state.positions[a as usize].0;
                            ([p[0].raw(), p[1].raw(), p[2].raw()], charge[a as usize])
                        },
                    );
                }
                let mut scratch = self.take_scratch(sys.n_atoms());
                {
                    let this = &*self;
                    let rs = this.ranks.as_ref().expect("rank set under Nodes");
                    for (r, buf) in scratch.iter_mut().enumerate() {
                        this.fill_rank_queue(sys, rs, r, &mut buf.queue);
                    }
                }
                self.scratch = scratch;
            }
        }
        self.cache.note_rebuild(positions);
    }

    /// Refill one rank's persistent match queue from the shared node tiles
    /// (the rebuild arm of [`Self::rank_pairs_batched`], span-free so
    /// checkpoint restore can replay the fill deterministically on the
    /// trunk).
    fn fill_rank_queue(&self, sys: &System, rs: &RankSet, r: usize, queue: &mut BatchQueue) {
        let rank = &rs.ranks[r];
        queue.begin();
        for tb in &rank.tower {
            let ca = rs.grid.index(*tb);
            let ta = self.node_tiles.tile(ca);
            if ta.is_empty() {
                continue;
            }
            let sa0 = self.node_tiles.tile_start(ca) as u32;
            let ha = rs.grid.coord(ca);
            for pb in &rank.plate {
                let cb = rs.grid.index(*pb);
                if rs.nt.node_for_pair(ha, rs.grid.coord(cb)) != rank.node {
                    continue;
                }
                self.match_tile_pair(
                    sys,
                    ta,
                    self.node_tiles.tile(cb),
                    ca == cb,
                    sa0,
                    self.node_tiles.tile_start(cb) as u32,
                    queue,
                );
            }
        }
    }

    /// Scalar NT-method pair enumeration for one rank: tower × plate
    /// candidates over the current home-box index, filtered by the
    /// exactly-once assignment per atom pair. Retained as the reference
    /// oracle for [`Self::rank_pairs_batched`].
    #[cfg(test)]
    fn rank_pairs(
        &self,
        sys: &System,
        state: &FixedState,
        rs: &RankSet,
        r: usize,
        out: &mut RawForces,
    ) {
        let rank = &rs.ranks[r];
        for tb in &rank.tower {
            for pb in &rank.plate {
                let same_box = tb == pb;
                for &i in rs.atoms_in_box(rs.grid.index(*tb)) {
                    for &j in rs.atoms_in_box(rs.grid.index(*pb)) {
                        if i == j || (same_box && i > j) {
                            continue;
                        }
                        if rs
                            .nt
                            .node_for_pair(rs.home(i as usize), rs.home(j as usize))
                            != rank.node
                        {
                            continue;
                        }
                        self.apply_pair(sys, state, i as usize, j as usize, out);
                    }
                }
            }
        }
    }

    /// This rank's statically assigned bonded terms (work lists fixed at
    /// construction, §3.2.3), from the shared decoded-position buffer.
    fn rank_bonded(&self, sys: &System, rs: &RankSet, r: usize, out: &mut RawForces) {
        let rank = &rs.ranks[r];
        let pos = &self.pos_buf;
        for &t in &rank.bonds {
            self.bond_term_into(sys, pos, t as usize, out);
        }
        for &t in &rank.angles {
            self.angle_term_into(sys, pos, t as usize, out);
        }
        for &t in &rank.dihedrals {
            self.dihedral_term_into(sys, pos, t as usize, out);
        }
    }

    /// This rank's statically assigned correction pairs, streamed through
    /// the batched correction kernel from the rank's packed static stream.
    fn rank_corrections(&self, state: &FixedState, r: usize, out: &mut RawForces) {
        self.correction_stream_into(state, &self.corr_rank[r], out);
    }

    /// Quantize an f64 force onto the Q24 grid and accumulate.
    #[inline]
    fn add_force(out: &mut RawForces, idx: u32, f: Vec3) {
        let fs = (1i64 << FORCE_FRAC) as f64;
        let a = &mut out.f[idx as usize];
        a[0] = a[0].wrapping_add(rne_f64(f.x * fs) as i64);
        a[1] = a[1].wrapping_add(rne_f64(f.y * fs) as i64);
        a[2] = a[2].wrapping_add(rne_f64(f.z * fs) as i64);
    }

    #[inline]
    fn bond_term_into(&self, sys: &System, pos: &[Vec3], t: usize, out: &mut RawForces) {
        let b = &sys.topology.bonds[t];
        let (u, fi, fj) = bonded::bond_term(&sys.pbox, pos, b);
        Self::add_force(out, b.i, fi);
        Self::add_force(out, b.j, fj);
        out.e_bonded = out
            .e_bonded
            .wrapping_add(rne_f64(u * (1u64 << ENERGY_FRAC) as f64) as i64);
    }

    #[inline]
    fn angle_term_into(&self, sys: &System, pos: &[Vec3], t: usize, out: &mut RawForces) {
        let a = &sys.topology.angles[t];
        let (u, fi, fj, fk) = bonded::angle_term(&sys.pbox, pos, a);
        Self::add_force(out, a.i, fi);
        Self::add_force(out, a.j, fj);
        Self::add_force(out, a.k_atom, fk);
        out.e_bonded = out
            .e_bonded
            .wrapping_add(rne_f64(u * (1u64 << ENERGY_FRAC) as f64) as i64);
    }

    #[inline]
    fn dihedral_term_into(&self, sys: &System, pos: &[Vec3], t: usize, out: &mut RawForces) {
        let d = &sys.topology.dihedrals[t];
        let (u, fi, fj, fk, fl) = bonded::dihedral_term(&sys.pbox, pos, d);
        Self::add_force(out, d.i, fi);
        Self::add_force(out, d.j, fj);
        Self::add_force(out, d.k_atom, fk);
        Self::add_force(out, d.l, fl);
        out.e_bonded = out
            .e_bonded
            .wrapping_add(rne_f64(u * (1u64 << ENERGY_FRAC) as f64) as i64);
    }

    /// Stream correction pairs (atom ids + precomputed charge product)
    /// through the batched correction kernel in 8-wide bundles — the
    /// flexible subsystem's analogue of the HTIS match batch. The packed
    /// streams were filtered of zero charge products at construction,
    /// exactly like the scalar reference's early return; per-lane
    /// arithmetic is bitwise identical to [`Self::correction_pair_into`].
    fn correction_stream_into(
        &self,
        state: &FixedState,
        pairs: &[(u32, u32, f64)],
        out: &mut RawForces,
    ) {
        let ds = 1.0 / (1i64 << 20) as f64;
        let mut qqs = [0.0f64; MATCH_WIDTH];
        let mut r2s = [0.0f64; MATCH_WIDTH];
        let mut ij = [(0u32, 0u32); MATCH_WIDTH];
        let mut dd = [[0i64; 3]; MATCH_WIDTH];
        let mut fill = 0usize;
        for &(i, j, qq) in pairs {
            let d = state.delta_q20(self.half_edge_q20, i as usize, j as usize);
            qqs[fill] = qq;
            r2s[fill] = (d[0] as f64 * ds).powi(2)
                + (d[1] as f64 * ds).powi(2)
                + (d[2] as f64 * ds).powi(2);
            ij[fill] = (i, j);
            dd[fill] = d;
            fill += 1;
            if fill == MATCH_WIDTH {
                self.corr_batch_into(&qqs, &r2s, &ij, &dd, fill, out);
                fill = 0;
            }
        }
        if fill > 0 {
            self.corr_batch_into(&qqs, &r2s, &ij, &dd, fill, out);
        }
    }

    /// Evaluate one (possibly partial) correction batch and scatter the
    /// quantized forces and energy (no virial — matching the scalar
    /// reference, which books correction pairs outside the pair virial).
    fn corr_batch_into(
        &self,
        qqs: &[f64; MATCH_WIDTH],
        r2s: &[f64; MATCH_WIDTH],
        ij: &[(u32, u32); MATCH_WIDTH],
        dd: &[[i64; 3]; MATCH_WIDTH],
        lanes: usize,
        out: &mut RawForces,
    ) {
        let mask = if lanes == MATCH_WIDTH {
            0xff
        } else {
            (1u8 << lanes) - 1
        };
        let mut vals = [(0.0f64, 0.0f64); MATCH_WIDTH];
        self.corr_kernel
            .exclusion_correction_batch(qqs, r2s, mask, &mut vals);
        let ds = 1.0 / (1i64 << 20) as f64;
        let fs = (1i64 << FORCE_FRAC) as f64;
        let es = (1u64 << ENERGY_FRAC) as f64;
        for lane in 0..lanes {
            let (e, f_over_r) = vals[lane];
            let d = dd[lane];
            let fi = [
                rne_f64(d[0] as f64 * ds * f_over_r * fs) as i64,
                rne_f64(d[1] as f64 * ds * f_over_r * fs) as i64,
                rne_f64(d[2] as f64 * ds * f_over_r * fs) as i64,
            ];
            let (i, j) = ij[lane];
            let a = &mut out.f[i as usize];
            a[0] = a[0].wrapping_add(fi[0]);
            a[1] = a[1].wrapping_add(fi[1]);
            a[2] = a[2].wrapping_add(fi[2]);
            let b = &mut out.f[j as usize];
            b[0] = b[0].wrapping_sub(fi[0]);
            b[1] = b[1].wrapping_sub(fi[1]);
            b[2] = b[2].wrapping_sub(fi[2]);
            out.e_correction = out.e_correction.wrapping_add(rne_f64(e * es) as i64);
        }
    }

    /// One correction pair (excluded or 1-4): the correction pipeline of
    /// the flexible subsystem (§3.1). Retained as the scalar reference
    /// oracle for the batched correction stream.
    #[cfg(test)]
    #[inline]
    fn correction_pair_into(
        &self,
        sys: &System,
        state: &FixedState,
        i: u32,
        j: u32,
        scale: f64,
        out: &mut RawForces,
    ) {
        let top = &sys.topology;
        let qq = top.charge[i as usize] * top.charge[j as usize] * scale;
        if qq == 0.0 {
            return;
        }
        let ds = 1.0 / (1i64 << 20) as f64;
        let fs = (1i64 << FORCE_FRAC) as f64;
        let d = state.delta_q20(self.half_edge_q20, i as usize, j as usize);
        let r2 =
            (d[0] as f64 * ds).powi(2) + (d[1] as f64 * ds).powi(2) + (d[2] as f64 * ds).powi(2);
        let (e, f_over_r) = self.corr_kernel.exclusion_correction(qq, r2);
        let fi = [
            rne_f64(d[0] as f64 * ds * f_over_r * fs) as i64,
            rne_f64(d[1] as f64 * ds * f_over_r * fs) as i64,
            rne_f64(d[2] as f64 * ds * f_over_r * fs) as i64,
        ];
        let a = &mut out.f[i as usize];
        a[0] = a[0].wrapping_add(fi[0]);
        a[1] = a[1].wrapping_add(fi[1]);
        a[2] = a[2].wrapping_add(fi[2]);
        let b = &mut out.f[j as usize];
        b[0] = b[0].wrapping_sub(fi[0]);
        b[1] = b[1].wrapping_sub(fi[1]);
        b[2] = b[2].wrapping_sub(fi[2]);
        out.e_correction = out
            .e_correction
            .wrapping_add(rne_f64(e * (1u64 << ENERGY_FRAC) as f64) as i64);
    }

    /// Bonded terms, serially over the whole topology: evaluated on the
    /// flexible subsystem in the paper; here each term's forces are
    /// computed from decoded positions and quantized per atom before
    /// accumulation (term order immaterial).
    pub fn bonded(&self, sys: &System, state: &FixedState, out: &mut RawForces) {
        let pos = state.decode_positions(&sys.pbox);
        for t in 0..sys.topology.bonds.len() {
            self.bond_term_into(sys, &pos, t, out);
        }
        for t in 0..sys.topology.angles.len() {
            self.angle_term_into(sys, &pos, t, out);
        }
        for t in 0..sys.topology.dihedrals.len() {
            self.dihedral_term_into(sys, &pos, t, out);
        }
    }

    /// Correction forces (excluded and 1-4 pairs), streamed through the
    /// batched correction kernel on the calling thread.
    pub fn corrections(&self, state: &FixedState, out: &mut RawForces) {
        self.correction_stream_into(state, &self.corr_all, out);
    }

    /// Long-range (mesh) forces via the fixed-point GSE pipeline, evaluated
    /// monolithically (all atoms on the calling thread). Allocation-free in
    /// steady state: positions decode into and mesh buffers live in the
    /// pipeline's reusable scratch.
    pub fn reciprocal(&mut self, sys: &System, state: &FixedState, out: &mut RawForces) {
        state.decode_positions_into(&sys.pbox, &mut self.pos_buf);
        let ForcePipeline {
            gse,
            gse_scratch,
            pos_buf,
            ..
        } = self;
        let e = gse.compute_fixed(
            pos_buf,
            &sys.topology.charge,
            FORCE_FRAC,
            &mut out.f,
            gse_scratch,
        );
        out.e_reciprocal = out.e_reciprocal.wrapping_add(e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anton_forcefield::water::TIP3P;
    use anton_forcefield::PairClass;
    use anton_geometry::{CellGrid, PeriodicBox};
    use anton_systems::spec::RunParams;
    use anton_systems::waterbox::pure_water_topology;

    pub(super) fn water_box(pbox: PeriodicBox, n: usize, seed: u64) -> System {
        let (top, positions) = pure_water_topology(&pbox, &TIP3P, n, seed);
        System {
            name: "w".into(),
            pbox,
            topology: top,
            positions,
            params: RunParams::paper(7.5, 16),
        }
    }

    pub(super) fn water_system(n: usize, seed: u64) -> System {
        water_box(PeriodicBox::cubic(18.0), n, seed)
    }

    pub(super) fn state_of(sys: &System) -> FixedState {
        FixedState::from_f64(&sys.pbox, &sys.positions, &vec![Vec3::ZERO; sys.n_atoms()])
    }

    /// The paper's parallel-invariance claim, at force granularity: the NT
    /// decomposition on several node counts produces bitwise identical raw
    /// forces to the single-rank cell-grid enumeration.
    #[test]
    fn forces_are_bitwise_invariant_across_decompositions() {
        let sys = water_system(140, 3);
        let state = state_of(&sys);

        let mut reference = RawForces::zeroed(sys.n_atoms());
        ForcePipeline::new(&sys, Decomposition::SingleRank, 1).range_limited(
            &sys,
            &state,
            &mut reference,
        );

        // The batched tile pipeline reproduces the scalar cell-grid
        // oracle bitwise.
        let mut oracle = RawForces::zeroed(sys.n_atoms());
        ForcePipeline::new(&sys, Decomposition::SingleRank, 1).range_limited_cellgrid(
            &sys,
            &state,
            &mut oracle,
        );
        assert_eq!(reference, oracle, "batched pipeline diverged from oracle");

        for nodes in [1usize, 2, 8, 64] {
            let mut pipe = ForcePipeline::new(&sys, Decomposition::Nodes(nodes), 1);
            let mut out = RawForces::zeroed(sys.n_atoms());
            pipe.range_limited(&sys, &state, &mut out);
            assert_eq!(out, reference, "decomposition over {nodes} nodes diverged");
        }
    }

    /// Thread-count invariance at force granularity: the full short- and
    /// long-range classes of a `Nodes(8)` pipeline are bitwise identical on
    /// 1, 2, and 4 worker threads.
    #[test]
    fn forces_are_bitwise_invariant_across_thread_counts() {
        let sys = water_system(140, 5);
        let state = state_of(&sys);
        let eval = |threads: usize| {
            let mut pipe = ForcePipeline::new(&sys, Decomposition::Nodes(8), threads);
            let mut short = RawForces::zeroed(sys.n_atoms());
            pipe.short_range(&sys, &state, &mut short);
            let mut long = RawForces::zeroed(sys.n_atoms());
            pipe.long_range(&sys, &state, &mut long);
            (short, long)
        };
        let reference = eval(1);
        for threads in [2usize, 4] {
            assert_eq!(eval(threads), reference, "{threads} threads diverged");
        }
    }

    /// The fused per-rank short-range/long-range paths agree bitwise with
    /// the serial reference composition of the same force classes.
    #[test]
    fn rank_execution_matches_serial_composition() {
        let sys = water_system(120, 11);
        let state = state_of(&sys);

        let mut serial = RawForces::zeroed(sys.n_atoms());
        let mut reference = ForcePipeline::new(&sys, Decomposition::SingleRank, 1);
        reference.short_range(&sys, &state, &mut serial);
        reference.corrections(&state, &mut serial);
        reference.reciprocal(&sys, &state, &mut serial);

        let mut pipe = ForcePipeline::new(&sys, Decomposition::Nodes(8), 2);
        let mut ranked = RawForces::zeroed(sys.n_atoms());
        pipe.short_range(&sys, &state, &mut ranked);
        pipe.long_range(&sys, &state, &mut ranked);
        assert_eq!(ranked, serial);
        // The fan-out metered its exchange traffic.
        assert_eq!(pipe.counters.steps, 1);
        assert!(pipe.counters.import_bytes > 0);
    }

    /// Multi-node long-range steps meter the FFT pencil and mesh-halo
    /// traffic; a single simulated node exchanges nothing.
    #[test]
    fn distributed_mesh_meters_fft_traffic() {
        let sys = water_system(120, 13);
        let state = state_of(&sys);

        let mut pipe = ForcePipeline::new(&sys, Decomposition::Nodes(8), 1);
        let mut out = RawForces::zeroed(sys.n_atoms());
        pipe.long_range(&sys, &state, &mut out);
        assert_eq!(pipe.counters.lr_steps, 1);
        assert!(pipe.counters.fft_messages > 0);
        assert!(pipe.counters.fft_bytes > 0);
        assert!(pipe.counters.mesh_halo_messages > 0);
        assert!(pipe.counters.mesh_halo_bytes > 0);

        let mut single = ForcePipeline::new(&sys, Decomposition::Nodes(1), 1);
        let mut out1 = RawForces::zeroed(sys.n_atoms());
        single.long_range(&sys, &state, &mut out1);
        assert_eq!(single.counters.lr_steps, 1);
        assert_eq!(single.counters.fft_messages, 0);
        assert_eq!(single.counters.mesh_halo_bytes, 0);
        // And the distributed evaluation is bitwise identical to it.
        assert_eq!(out, out1);
    }

    #[test]
    fn forces_are_deterministic() {
        let sys = water_system(100, 5);
        let state = state_of(&sys);
        let mut pipe = ForcePipeline::new(&sys, Decomposition::SingleRank, 1);
        let mut a = RawForces::zeroed(sys.n_atoms());
        let mut b = RawForces::zeroed(sys.n_atoms());
        for out in [&mut a, &mut b] {
            pipe.range_limited(&sys, &state, out);
            pipe.bonded(&sys, &state, out);
            pipe.corrections(&state, out);
            pipe.reciprocal(&sys, &state, out);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn range_limited_momentum_is_exactly_conserved() {
        // Pairwise quantized forces obey Newton's third law exactly, so the
        // raw force sum is exactly zero.
        let sys = water_system(120, 7);
        let state = state_of(&sys);
        let mut pipe = ForcePipeline::new(&sys, Decomposition::SingleRank, 1);
        let mut out = RawForces::zeroed(sys.n_atoms());
        pipe.range_limited(&sys, &state, &mut out);
        pipe.corrections(&state, &mut out);
        let mut net = [0i64; 3];
        for f in &out.f {
            for k in 0..3 {
                net[k] = net[k].wrapping_add(f[k]);
            }
        }
        assert_eq!(net, [0, 0, 0]);
    }

    /// Table 4's "numerical force error": the fixed-point/table forces
    /// against the same parameters evaluated in f64, as a fraction of the
    /// rms force — should land near the paper's ~1e-5.
    #[test]
    fn numerical_force_error_in_paper_decade() {
        let sys = water_system(150, 9);
        let state = state_of(&sys);
        let mut pipe = ForcePipeline::new(&sys, Decomposition::SingleRank, 1);
        let mut out = RawForces::zeroed(sys.n_atoms());
        pipe.range_limited(&sys, &state, &mut out);

        // f64 evaluation of the same interaction set with the same (exact)
        // kernels and same positions.
        let pos = state.decode_positions(&sys.pbox);
        let mut f64_forces = vec![Vec3::ZERO; sys.n_atoms()];
        let grid = CellGrid::build(&sys.pbox, &pos, sys.params.cutoff + PAIRLIST_SLACK);
        grid.for_each_pair_within(&pos, sys.params.cutoff + PAIRLIST_SLACK, |i, j, _d, _r2| {
            let top = &sys.topology;
            if top.exclusions.class(i as u32, j as u32) == PairClass::Excluded {
                return;
            }
            let d = state.delta_q20(pipe.half_edge_q20, i, j);
            let sum: i128 = d[0] as i128 * d[0] as i128
                + d[1] as i128 * d[1] as i128
                + d[2] as i128 * d[2] as i128;
            let r2q = anton_fixpoint::rne_shr_i128(sum, 20);
            if r2q > pipe.rc2_q20 || r2q == 0 {
                return;
            }
            let ds = 1.0 / (1i64 << 20) as f64;
            let r2 = (d[0] as f64 * ds).powi(2)
                + (d[1] as f64 * ds).powi(2)
                + (d[2] as f64 * ds).powi(2);
            let qq = top.charge[i] * top.charge[j];
            let (a, b) = top.lj_table.coeffs(top.lj_type[i], top.lj_type[j]);
            let (f_over_r, _e) = pipe.ppip.pair_exact(r2, qq, a, b);
            let dv = Vec3::new(d[0] as f64 * ds, d[1] as f64 * ds, d[2] as f64 * ds);
            f64_forces[i] += dv * f_over_r;
            f64_forces[j] -= dv * f_over_r;
        });

        let mut num = 0.0;
        let mut den = 0.0;
        for (i, ff) in f64_forces.iter().enumerate() {
            num += (out.force_f64(i) - *ff).norm2();
            den += ff.norm2();
        }
        let rel = (num / den).sqrt();
        assert!(rel < 1e-4, "numerical force error {rel:e}");
        assert!(rel > 1e-9, "suspiciously exact {rel:e}");
    }

    /// The pair-list slack exists to absorb decode/quantization
    /// disagreement between the f64 candidate distance (grid build and
    /// sweep) and the exact Q20 r² (the final per-pair decision). Measure
    /// the worst disagreement over a dense water box and pin it two
    /// orders of magnitude under [`PAIRLIST_SLACK`], so both enumeration
    /// sites keep a strict candidate superset.
    #[test]
    fn pairlist_slack_covers_decode_error() {
        let sys = water_system(150, 21);
        let state = state_of(&sys);
        let pipe = ForcePipeline::new(&sys, Decomposition::SingleRank, 1);
        let pos = state.decode_positions(&sys.pbox);
        let ds = 1.0 / (1i64 << 20) as f64;
        let mut worst: f64 = 0.0;
        for i in 0..sys.n_atoms() {
            for j in (i + 1)..sys.n_atoms() {
                let d = state.delta_q20(pipe.half_edge_q20, i, j);
                let r_fix = ((d[0] as f64 * ds).powi(2)
                    + (d[1] as f64 * ds).powi(2)
                    + (d[2] as f64 * ds).powi(2))
                .sqrt();
                let r_dec = sys.pbox.min_image(pos[i], pos[j]).norm2().sqrt();
                worst = worst.max((r_fix - r_dec).abs());
            }
        }
        assert!(worst > 0.0, "decode and fixed distances never disagree?");
        assert!(
            worst < PAIRLIST_SLACK / 100.0,
            "decode disagreement {worst} too close to the slack {PAIRLIST_SLACK}"
        );
    }

    /// The batched correction stream (8-wide bundles through
    /// `exclusion_correction_batch`) is bitwise identical to the scalar
    /// per-pair reference.
    #[test]
    fn batched_corrections_match_scalar_oracle() {
        let sys = water_system(140, 17);
        let state = state_of(&sys);
        let pipe = ForcePipeline::new(&sys, Decomposition::SingleRank, 1);

        let mut batched = RawForces::zeroed(sys.n_atoms());
        pipe.corrections(&state, &mut batched);

        let mut scalar = RawForces::zeroed(sys.n_atoms());
        let top = &sys.topology;
        for &(i, j) in top.exclusions.excluded_pairs() {
            pipe.correction_pair_into(&sys, &state, i, j, 1.0, &mut scalar);
        }
        for &(i, j) in top.exclusions.pairs_14() {
            pipe.correction_pair_into(&sys, &state, i, j, 1.0 - pipe.policy.elec_14, &mut scalar);
        }
        assert_eq!(batched, scalar);
        assert_ne!(batched.e_correction, 0);
    }

    /// A box whose half-edge reaches 2³⁰ raw Q20 would wrap the pair
    /// ladder's 64-bit products: construction refuses it.
    #[test]
    #[should_panic(expected = "half-edge")]
    fn pipeline_refuses_a_box_beyond_the_ladder_bound() {
        let top = anton_forcefield::Topology {
            mass: vec![39.9; 2],
            charge: vec![0.0; 2],
            lj_type: vec![0; 2],
            lj_table: anton_forcefield::LjTable::from_types(&[(3.4, 0.24)]),
            molecule_starts: vec![0, 1, 2],
            ..Default::default()
        };
        let sys = System {
            name: "vast".into(),
            pbox: PeriodicBox::new(Vec3::new(30.0, 30.0, 2048.0)),
            topology: top,
            positions: vec![Vec3::new(5.0, 5.0, 5.0), Vec3::new(8.0, 5.0, 5.0)],
            params: RunParams::paper(7.0, 16),
        };
        ForcePipeline::new(&sys, Decomposition::SingleRank, 1);
    }

    /// The match census counters book the streamed work consistently:
    /// pairs ≤ candidates, the batch count covers the pairs at 8 lanes a
    /// batch, and the surviving pair count is invariant across
    /// decompositions (it is the exact interaction set's size).
    #[test]
    fn match_census_is_decomposition_invariant() {
        let sys = water_system(140, 19);
        let state = state_of(&sys);
        let census = |decomp: Decomposition| {
            let mut pipe = ForcePipeline::new(&sys, decomp, 1);
            let mut out = RawForces::zeroed(sys.n_atoms());
            pipe.range_limited(&sys, &state, &mut out);
            (
                pipe.counters.match_candidates,
                pipe.counters.match_pairs,
                pipe.counters.match_batches,
            )
        };
        let (cand, pairs, batches) = census(Decomposition::SingleRank);
        assert!(pairs > 0 && pairs <= cand);
        assert!(batches >= pairs.div_ceil(8));
        for nodes in [1usize, 8] {
            let (c, p, b) = census(Decomposition::Nodes(nodes));
            assert_eq!(p, pairs, "{nodes} nodes found a different pair set");
            assert!(p <= c);
            assert!(b >= p.div_ceil(8));
        }
    }
}

#[cfg(test)]
mod batched_oracle_props {
    //! Property tests of the tentpole invariant: on random boxed atom
    //! sets, the batched HTIS-shaped pipeline reproduces the retained
    //! scalar oracle's pair *set* and raw forces *bitwise*, across the
    //! single-rank path and `Nodes {1, 8, 64}`.
    use super::tests::{state_of, water_box, water_system};
    use super::*;
    use anton_fixpoint::Fx32;
    use anton_forcefield::PairClass;
    use anton_geometry::{CellGrid, PeriodicBox};
    use proptest::prelude::*;

    /// A box long enough for 8 subboxes on x (35 Å / 8 is still half the
    /// 8.5 Å reach) over 4 × 4: the stencil walk away from the small cell
    /// counts, where the 18 Å cube never goes.
    fn long_water_box(n: usize, seed: u64) -> System {
        let sys = water_box(PeriodicBox::new(Vec3::new(35.0, 18.0, 18.0)), n, seed);
        let pipe = ForcePipeline::new(&sys, Decomposition::SingleRank, 1);
        let cells = pipe.single.as_ref().map(|st| st.tiling.cell_count());
        assert_eq!(cells, Some(8 * 4 * 4));
        sys
    }

    /// Exact interaction set per the scalar oracle (cell-grid sweep +
    /// `pair_contribution`'s exclusion and cutoff tests), normalized.
    fn oracle_pairs(pipe: &ForcePipeline, sys: &System, state: &FixedState) -> Vec<(u32, u32)> {
        let pos = state.decode_positions(&sys.pbox);
        let grid = CellGrid::build(&sys.pbox, &pos, sys.params.cutoff + PAIRLIST_SLACK);
        let mut pairs = Vec::new();
        grid.for_each_pair_within(&pos, sys.params.cutoff + PAIRLIST_SLACK, |i, j, _d, _r2| {
            if pipe.pair_contribution(sys, state, i, j).is_some() {
                pairs.push((i.min(j) as u32, i.max(j) as u32));
            }
        });
        pairs.sort_unstable();
        pairs
    }

    /// The queued lanes' atom pairs, normalized and sorted, whose r² (the
    /// 128-bit ladder over the tiles' current positions) passes `keep`.
    fn queued_pairs(pipe: &ForcePipeline, keep: impl Fn(i64) -> bool) -> Vec<(u32, u32)> {
        let live = |q: &BatchQueue, tiles: &PosTiles| -> Vec<(u32, u32)> {
            let mut v = Vec::new();
            for (batch, meta) in q.iter() {
                for lane in 0..MATCH_WIDTH {
                    if batch.mask & (1u8 << lane) == 0 {
                        continue;
                    }
                    let (_, r2) = pipe
                        .ladder
                        .delta_r2_i128(tiles.raw_at(meta.si[lane]), tiles.raw_at(meta.sj[lane]));
                    if !keep(r2) {
                        continue;
                    }
                    let (i, j) = (meta.i[lane], meta.j[lane]);
                    v.push((i.min(j), i.max(j)));
                }
            }
            v
        };
        let mut pairs: Vec<(u32, u32)> = match &pipe.single {
            Some(st) => live(&st.queue, &st.tiles),
            None => pipe
                .scratch
                .iter()
                .flat_map(|s| live(&s.queue, &pipe.node_tiles))
                .collect(),
        };
        pairs.sort_unstable();
        pairs
    }

    /// The *live* pair set the batched evaluator dispatched on the last
    /// `range_limited` call: queued (padded-radius) lanes filtered by the
    /// exact `r² ≤ rc²` test the evaluator masks with.
    fn batched_pairs(pipe: &ForcePipeline) -> Vec<(u32, u32)> {
        queued_pairs(pipe, |r2| r2 <= pipe.rc2_q20 && r2 != 0)
    }

    /// Scalar NT oracle: serial per-rank scalar enumeration after a
    /// fresh re-home.
    fn scalar_nodes_forces(
        pipe: &mut ForcePipeline,
        sys: &System,
        state: &FixedState,
    ) -> RawForces {
        let mut out = RawForces::zeroed(sys.n_atoms());
        {
            let rs = pipe.ranks.as_mut().expect("nodes oracle needs ranks");
            rs.prepare(state, &mut pipe.counters);
        }
        let rs = pipe.ranks.as_ref().expect("nodes oracle needs ranks");
        for r in 0..rs.rank_count() {
            pipe.rank_pairs(sys, state, rs, r, &mut out);
        }
        out
    }

    /// Drives the vendored [`TestRunner`] directly instead of the
    /// `proptest!` macro: each case builds PPIP tables several times, so
    /// the crate-wide 256-case default would dominate the suite.
    #[test]
    fn batched_path_matches_scalar_oracle() {
        let mut runner = TestRunner::new(concat!(module_path!(), "::batched_path"));
        let mut cases: Vec<System> = (0..6)
            .map(|_| {
                let n = Strategy::sample(&(20usize..60), runner.rng());
                let seed = Strategy::sample(&(0u64..(1u64 << 32)), runner.rng());
                let edge_decis = Strategy::sample(&(160u32..260), runner.rng());
                water_box(PeriodicBox::cubic(edge_decis as f64 / 10.0), n, seed)
            })
            .collect();
        cases.push(long_water_box(80, 41));
        for (case, sys) in cases.iter().enumerate() {
            let state = state_of(sys);
            let (n, edge) = (sys.n_atoms(), sys.pbox.edge());
            let ctx = format!("case {case}: {n} atoms, edge {edge:?}");

            // Single rank: batched vs cell-grid scalar oracle.
            let mut sr = ForcePipeline::new(sys, Decomposition::SingleRank, 1);
            let mut batched = RawForces::zeroed(sys.n_atoms());
            sr.range_limited(sys, &state, &mut batched);
            let mut oracle = RawForces::zeroed(sys.n_atoms());
            sr.range_limited_cellgrid(sys, &state, &mut oracle);
            assert_eq!(batched, oracle, "single-rank forces diverged ({ctx})");
            let oracle_set = oracle_pairs(&sr, sys, &state);
            assert_eq!(
                batched_pairs(&sr),
                oracle_set,
                "single-rank pair set ({ctx})"
            );

            // Nodes {1, 8, 64}: batched vs the scalar NT oracle and vs
            // the single-rank result.
            for nodes in [1usize, 8, 64] {
                let mut np = ForcePipeline::new(sys, Decomposition::Nodes(nodes), 1);
                let mut got = RawForces::zeroed(sys.n_atoms());
                np.range_limited(sys, &state, &mut got);
                assert_eq!(got, oracle, "{nodes}-node forces diverged ({ctx})");
                assert_eq!(
                    batched_pairs(&np),
                    oracle_set,
                    "{nodes}-node pair set ({ctx})"
                );
                let scalar = scalar_nodes_forces(&mut np, sys, &state);
                assert_eq!(got, scalar, "{nodes}-node scalar oracle ({ctx})");
            }
        }
    }

    /// The tentpole property of the persistent match cache: a pipeline
    /// reusing its cached tile/batch structure across a drifting
    /// trajectory produces bitwise-identical raw forces and identical
    /// *live* pair sets to a pipeline forced to rebuild from scratch
    /// every step — on every decomposition, straddling several
    /// displacement-triggered rebuild events — and the rebuild schedule
    /// itself is identical across decompositions (it is a pure function
    /// of the trajectory).
    #[test]
    fn cached_pipeline_matches_fresh_rebuild_every_step() {
        cached_matches_fresh(&water_system(100, 29));
        cached_matches_fresh(&long_water_box(100, 31));
    }

    fn cached_matches_fresh(sys: &System) {
        let n = sys.n_atoms();
        let mut state = state_of(sys);

        // The fresh oracle is invalidated before every evaluation, so it
        // re-matches at the current positions each step.
        let mut fresh = ForcePipeline::new(sys, Decomposition::SingleRank, 1);
        let decomps = [
            Decomposition::SingleRank,
            Decomposition::Nodes(1),
            Decomposition::Nodes(8),
            Decomposition::Nodes(64),
        ];
        let mut cached: Vec<ForcePipeline> = decomps
            .iter()
            .map(|&d| ForcePipeline::new(sys, d, 1))
            .collect();

        // Constant per-atom drift (splitmix-style hash): each axis moves
        // ~0.03–0.05 Å per step, so the monitor (threshold ~0.495 Å of
        // accumulated displacement) trips every ~6–8 steps.
        let drift = |atom: usize, axis: usize| -> Fx32 {
            let mut h = (atom as u64)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add((axis as u64).wrapping_mul(0xd1b5_4a32_d192_ed03));
            h ^= h >> 31;
            h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
            h ^= h >> 27;
            let mag = 7_000_000 + (h % 5_000_000) as i32;
            Fx32(if h >> 63 == 1 { -mag } else { mag })
        };

        let mut schedules: Vec<Vec<bool>> = vec![Vec::new(); cached.len()];
        for step in 0..20u32 {
            if step > 0 {
                for (a, p) in state.positions.iter_mut().enumerate() {
                    for k in 0..3 {
                        p.0[k] = p.0[k].wrapping_add(drift(a, k));
                    }
                }
            }
            fresh.invalidate_match_cache();
            let mut want = RawForces::zeroed(n);
            fresh.range_limited(sys, &state, &mut want);
            let want_pairs = batched_pairs(&fresh);
            for (c, pipe) in cached.iter_mut().enumerate() {
                let before = pipe.counters.rebuild_steps;
                let mut got = RawForces::zeroed(n);
                pipe.range_limited(sys, &state, &mut got);
                assert_eq!(got, want, "step {step}, {:?}: cached forces", decomps[c]);
                assert_eq!(
                    batched_pairs(pipe),
                    want_pairs,
                    "step {step}, {:?}: live pair set",
                    decomps[c]
                );
                schedules[c].push(pipe.counters.rebuild_steps > before);
            }
        }
        for (c, s) in schedules.iter().enumerate().skip(1) {
            assert_eq!(
                s, &schedules[0],
                "{:?}: rebuild schedule diverged from SingleRank",
                decomps[c]
            );
        }
        let rebuilds = schedules[0].iter().filter(|&&r| r).count();
        let reuses = schedules[0].len() - rebuilds;
        assert!(
            rebuilds >= 3,
            "want the initial build plus ≥2 displacement-triggered rebuilds, got {rebuilds}"
        );
        assert!(
            reuses >= 2,
            "want cache-reuse steps between rebuilds, got {reuses}"
        );
    }

    /// What the match stage *queues* — before any per-step mask — is the
    /// padded-cutoff set of an all-pairs sweep, every pair exactly once,
    /// on boxes whose axes get 1, 2, 4 and 8 subboxes (so the cell-pair
    /// stencil wraps onto itself in every way it can), and the forces are
    /// the all-pairs scalar oracle's.
    #[test]
    fn queued_pairs_equal_the_all_pairs_padded_oracle() {
        // Reach 8.5 Å: an axis gets 2^m cells while edge / 2^m ≥ 4.25 Å.
        let boxes = [
            ([8.0, 16.0, 33.0], [1, 2, 4]),
            ([34.5, 8.4, 16.9], [8, 1, 2]),
            ([17.5, 36.0, 12.0], [4, 8, 2]),
        ];
        for (case, (edge, cells)) in boxes.into_iter().enumerate() {
            let pbox = PeriodicBox::new(Vec3::new(edge[0], edge[1], edge[2]));
            let sys = water_box(pbox, 40, 100 + case as u64);
            let state = state_of(&sys);
            let mut pipe = ForcePipeline::new(&sys, Decomposition::SingleRank, 1);
            let tiling = &pipe.single.as_ref().expect("single-rank tiles").tiling;
            assert_eq!(
                tiling.cell_count(),
                cells.iter().product::<usize>(),
                "case {case}"
            );
            let mut got = RawForces::zeroed(sys.n_atoms());
            pipe.range_limited(&sys, &state, &mut got);

            let raw = |a: usize| state.positions[a].0.map(|c| c.raw());
            let mut want_pairs = Vec::new();
            let mut want = RawForces::zeroed(sys.n_atoms());
            for i in 0..sys.n_atoms() {
                for j in (i + 1)..sys.n_atoms() {
                    pipe.apply_pair(&sys, &state, i, j, &mut want);
                    let (_, r2) = pipe.ladder.delta_r2_i128(raw(i), raw(j));
                    let class = sys.topology.exclusions.class(i as u32, j as u32);
                    if r2 <= pipe.rc_pad2_q20 && class != PairClass::Excluded {
                        want_pairs.push((i as u32, j as u32));
                    }
                }
            }
            assert_eq!(
                queued_pairs(&pipe, |_| true),
                want_pairs,
                "case {case}: queued set"
            );
            assert_eq!(got, want, "case {case}: forces");
            assert!(got.e_range_limited != 0);
        }
    }
}

#[cfg(test)]
mod virial_tests {
    use super::*;
    use anton_forcefield::{LjTable, Topology};
    use anton_geometry::PeriodicBox;
    use anton_systems::spec::RunParams;

    /// Two LJ atoms: the virial must equal r·F of the single pair.
    #[test]
    fn virial_of_single_pair_matches_r_dot_f() {
        let pbox = PeriodicBox::cubic(20.0);
        let top = Topology {
            mass: vec![39.9; 2],
            charge: vec![0.3, -0.3],
            lj_type: vec![0; 2],
            lj_table: LjTable::from_types(&[(3.4, 0.24)]),
            molecule_starts: vec![0, 1, 2],
            ..Default::default()
        };
        let positions = vec![Vec3::new(5.0, 5.0, 5.0), Vec3::new(8.6, 5.0, 5.0)];
        let sys = System {
            name: "pair".into(),
            pbox,
            topology: top,
            positions: positions.clone(),
            params: RunParams::paper(7.0, 16),
        };
        let state = FixedState::from_f64(&pbox, &positions, &[Vec3::ZERO; 2]);
        let mut pipe = ForcePipeline::new(&sys, Decomposition::SingleRank, 1);
        let mut out = RawForces::zeroed(2);
        pipe.range_limited(&sys, &state, &mut out);
        let f0 = out.force_f64(0);
        // r (from 0 to ... sign convention: d = r_i − r_j with force on i
        // along d) → W = d·F_i counted once.
        let d = pbox.min_image(positions[0], positions[1]);
        let want = d.dot(f0);
        let got = out.virial_f64();
        assert!(
            (got - want).abs() < 1e-4 * want.abs().max(1.0),
            "{got} vs {want}"
        );
    }

    /// The virial inherits parallel invariance from its wide accumulator.
    #[test]
    fn virial_is_decomposition_invariant() {
        use anton_forcefield::water::TIP3P;
        use anton_systems::waterbox::pure_water_topology;
        let pbox = PeriodicBox::cubic(18.0);
        let (top, positions) = pure_water_topology(&pbox, &TIP3P, 100, 13);
        let sys = System {
            name: "w".into(),
            pbox,
            topology: top,
            positions,
            params: RunParams::paper(7.5, 16),
        };
        let state = FixedState::from_f64(&pbox, &sys.positions, &vec![Vec3::ZERO; sys.n_atoms()]);
        let mut a = RawForces::zeroed(sys.n_atoms());
        ForcePipeline::new(&sys, Decomposition::SingleRank, 1).range_limited(&sys, &state, &mut a);
        let mut b = RawForces::zeroed(sys.n_atoms());
        ForcePipeline::new(&sys, Decomposition::Nodes(8), 2).range_limited(&sys, &state, &mut b);
        assert_eq!(a.virial, b.virial);
        assert_ne!(a.virial, anton_fixpoint::Wide::ZERO);
    }
}
