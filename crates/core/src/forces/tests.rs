//! The scalar oracles the batched pipeline is pinned against, and the
//! force-level tests of the paper's §4 claims. The oracles are the
//! pre-batching formulations kept as reference implementations: one pair
//! at a time on the 128-bit ladder, a decoded-position cell-grid sweep,
//! the per-atom-pair NT enumeration, and the per-pair correction kernel.

use super::*;
use crate::ranks::raw_bits;
use crate::state::{FixedState, DISP_SCALE, ENERGY_SCALE, FORCE_FRAC, FORCE_SCALE};
use anton_fixpoint::rounding::rne_f64;
use anton_forcefield::water::TIP3P;
use anton_forcefield::PairClass;
use anton_geometry::{CellGrid, PeriodicBox};
use anton_systems::spec::RunParams;
use anton_systems::waterbox::water_box_in;

impl ForcePipeline {
    /// One range-limited pair: fixed-point r², exact integer cutoff test,
    /// PPIP tables, quantized force. Returns the Q24 force on atom `i`
    /// (negate for `j`) and the Q32 pair energy. Orientation-free: calling
    /// with (j, i) yields the exact negation.
    ///
    /// The scalar *reference oracle* for the batched match/evaluate
    /// pipeline, on the ladder's 128-bit form
    /// ([`Q20Ladder::delta_r2_i128`]); production streams tile pairs
    /// through `match_tile_pair` + `evaluate_pairs`, whose 64-bit
    /// [`Q20Ladder::delta_r2`] yields the same words.
    #[inline]
    pub(super) fn pair_contribution(
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
        let (d, r2) = delta_r2_i128(self, state, i, j);
        if r2 > self.rc2_q20 || r2 == 0 {
            return None;
        }
        let qq = top.charge[i] * top.charge[j] * se;
        let (a, b) = top.lj_table.coeffs(top.lj_type[i], top.lj_type[j]);
        let (f_over_r, e) = self.ppip.pair(r2, qq, a * sl, b * sl);
        let fi = d.map(|c| rne_f64(c as f64 / DISP_SCALE * f_over_r * FORCE_SCALE) as i64);
        let eq = rne_f64(e * ENERGY_SCALE) as i64;
        Some((fi, eq))
    }

    pub(super) fn apply_pair(
        &self,
        sys: &System,
        state: &FixedState,
        i: usize,
        j: usize,
        out: &mut RawForces,
    ) {
        if let Some((fi, eq)) = self.pair_contribution(sys, state, i, j) {
            for (k, &fk) in fi.iter().enumerate() {
                out.f[i][k] = out.f[i][k].wrapping_add(fk);
                out.f[j][k] = out.f[j][k].wrapping_sub(fk);
            }
            out.e_range_limited = out.e_range_limited.wrapping_add(eq);
        }
    }

    /// Scalar reference enumeration over a decoded-position cell grid.
    /// The oracle the batched tile pipeline is compared against (pair set
    /// and bitwise forces).
    pub(super) fn range_limited_cellgrid(
        &self,
        sys: &System,
        state: &FixedState,
        out: &mut RawForces,
    ) {
        let pos = state.decode_positions(&sys.pbox);
        let grid = CellGrid::build(&sys.pbox, &pos, sys.params.cutoff + PAIRLIST_SLACK);
        grid.for_each_pair_within(&pos, sys.params.cutoff + PAIRLIST_SLACK, |i, j, _d, _r2| {
            self.apply_pair(sys, state, i, j, out);
        });
    }

    /// Scalar NT-method pair enumeration for one rank of a `Nodes(n)`
    /// plan: tower × plate candidates over the current home-box index,
    /// filtered by the exactly-once assignment per *atom* pair — the
    /// oracle for the per-box-pair tile lists the plan precomputes.
    pub(super) fn rank_pairs(
        &self,
        sys: &System,
        state: &FixedState,
        r: usize,
        out: &mut RawForces,
    ) {
        let rs = &self.ranks;
        let m = rs.machine().expect("the NT oracle needs a Nodes(n) plan");
        let node = m.grid.coord(r);
        for tb in m.nt.tower_boxes(node) {
            for pb in m.nt.plate_boxes(node) {
                let same_box = tb == pb;
                for &i in rs.tile_members(m.grid.index(tb)) {
                    for &j in rs.tile_members(m.grid.index(pb)) {
                        if i == j || (same_box && i > j) {
                            continue;
                        }
                        // `i` is homed in box `tb`, `j` in `pb`.
                        if m.nt.node_for_pair(tb, pb) != node {
                            continue;
                        }
                        self.apply_pair(sys, state, i as usize, j as usize, out);
                    }
                }
            }
        }
    }

    /// One correction pair (excluded or 1-4): the correction pipeline of
    /// the flexible subsystem (§3.1): the scalar reference oracle for the
    /// batched correction stream.
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
        let (d, _) = delta_r2_i128(self, state, i as usize, j as usize);
        let dv = d.map(|c| c as f64 / DISP_SCALE);
        let r2 = dv[0].powi(2) + dv[1].powi(2) + dv[2].powi(2);
        let (e, f_over_r) = self.corr_kernel.exclusion_correction(qq, r2);
        let fi = dv.map(|c| rne_f64(c * f_over_r * FORCE_SCALE) as i64);
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
            .wrapping_add(rne_f64(e * ENERGY_SCALE) as i64);
    }

    /// Whole-system mesh phase on the calling thread — spread every atom,
    /// transform, interpolate every atom: the serial reference the
    /// per-rank spread/merge/interpolate composition is compared against.
    fn reciprocal_serial(&self, sys: &System, state: &FixedState, out: &mut RawForces) {
        use anton_ewald::gse::{GseScratch, MeshAtoms, SupportScratch};
        let positions = state.decode_positions(&sys.pbox);
        let atoms: Vec<u32> = (0..sys.n_atoms() as u32).collect();
        let view = MeshAtoms {
            positions: &positions,
            charges: &sys.topology.charge,
            atoms: &atoms,
        };
        let (mut gs, mut st) = (GseScratch::default(), SupportScratch::default());
        gs.begin(self.gse.mesh.len());
        self.gse.spread_into(view, &mut gs.rho_q, &mut st);
        self.gse.transform(&mut gs);
        let e = self
            .gse
            .interpolate_into(view, &gs.phi_q, FORCE_FRAC, &mut out.f, &mut st);
        out.e_reciprocal = out.e_reciprocal.wrapping_add(e);
    }
}

/// Any box, including ones thinner than twice the cutoff (the stencil
/// tests want the self-wrapping cases), hence not the validating factory.
pub(super) fn water_box(pbox: PeriodicBox, n: usize, seed: u64) -> System {
    water_box_in("w", pbox, n, seed, RunParams::paper(7.5, 16))
}

pub(super) fn water_system(n: usize, seed: u64) -> System {
    anton_systems::water_box("w", 18.0, n, seed, RunParams::paper(7.5, 16)).unwrap()
}

/// A 16-residue chain solvated to 1200 atoms: the small system with
/// bonded terms, 1-4 pairs and several LJ types.
pub(super) fn solvated_mini() -> System {
    anton_systems::catalog::build_solvated(
        "mini",
        1200,
        23.0,
        RunParams::paper(8.0, 16),
        &TIP3P,
        16,
        0,
        0,
        3,
    )
}

pub(super) fn state_of(sys: &System) -> FixedState {
    FixedState::from_f64(&sys.pbox, &sys.positions, &vec![Vec3::ZERO; sys.n_atoms()])
}

/// Displacement `i − j` and r² of two atoms on the ladder's 128-bit form,
/// the reference every oracle here forms them on.
fn delta_r2_i128(pipe: &ForcePipeline, state: &FixedState, i: usize, j: usize) -> ([i64; 3], i64) {
    let p = &state.positions;
    pipe.ladder.delta_r2_i128(raw_bits(&p[i]), raw_bits(&p[j]))
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

/// The serial entry points of the flexible phase walk every rank's static
/// lists: bonded terms and correction pairs of a protein-in-water system
/// are bitwise the same words under `Nodes(8)` as under `SingleRank`.
#[test]
fn bonded_and_corrections_are_bitwise_invariant_across_decompositions() {
    let sys = solvated_mini();
    // The builder places the chain at its bonded minimum: strain it so the
    // bonded words are not all zero.
    let strained: Vec<Vec3> = (sys.positions.iter().zip(0u32..))
        .map(|(&p, i)| p + Vec3::new(0.05, -0.03, 0.04) * f64::from(i % 3))
        .collect();
    let state = FixedState::from_f64(&sys.pbox, &strained, &vec![Vec3::ZERO; sys.n_atoms()]);
    let eval = |decomposition: Decomposition| {
        let pipe = ForcePipeline::new(&sys, decomposition, 1);
        let mut bonded = RawForces::zeroed(sys.n_atoms());
        pipe.bonded(&sys, &state, &mut bonded);
        let mut corrections = RawForces::zeroed(sys.n_atoms());
        pipe.corrections(&state, &mut corrections);
        (bonded, corrections)
    };
    let (bonded, corrections) = eval(Decomposition::SingleRank);
    assert_ne!(bonded.e_bonded, 0);
    assert_ne!(corrections.e_correction, 0);
    assert_eq!(eval(Decomposition::Nodes(8)), (bonded, corrections));
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
    reference.reciprocal_serial(&sys, &state, &mut serial);

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
        pipe.long_range(&sys, &state, out);
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
        let (d, r2q) = delta_r2_i128(&pipe, &state, i, j);
        if r2q > pipe.rc2_q20 || r2q == 0 {
            return;
        }
        let dv = Vec3::new(
            d[0] as f64 / DISP_SCALE,
            d[1] as f64 / DISP_SCALE,
            d[2] as f64 / DISP_SCALE,
        );
        let r2 = dv.x.powi(2) + dv.y.powi(2) + dv.z.powi(2);
        let qq = top.charge[i] * top.charge[j];
        let (a, b) = top.lj_table.coeffs(top.lj_type[i], top.lj_type[j]);
        let (f_over_r, _e) = pipe.ppip.pair_exact(r2, qq, a, b);
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
    let mut worst: f64 = 0.0;
    for i in 0..sys.n_atoms() {
        for j in (i + 1)..sys.n_atoms() {
            let (d, _) = delta_r2_i128(&pipe, &state, i, j);
            let r_fix = d
                .iter()
                .map(|&c| (c as f64 / DISP_SCALE).powi(2))
                .sum::<f64>()
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

/// The packed correction stream (each rank's precomputed charge products,
/// zero products dropped) is bitwise identical to the scalar per-pair
/// reference.
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

/// The evaluator's exact cutoff test drops a queued pair whose two atoms
/// coincide (r² = 0), in either list: a queue holding one live plain pair
/// among coincident ones adds exactly that pair, to every accumulator and
/// to the live-pair count.
#[test]
fn coincident_lanes_contribute_nothing() {
    use crate::batch::PairQueue;
    let sys = water_system(60, 33);
    let state = state_of(&sys);
    let n = sys.n_atoms();
    let mut pipe = ForcePipeline::new(&sys, Decomposition::SingleRank, 1);
    // One evaluation fills the tiles the hand-made queues gather from.
    pipe.range_limited(&sys, &state, &mut RawForces::zeroed(n));

    // Two slots holding an interacting pair.
    let slots = 0..pipe.ranks.tiles().len() as u32;
    let (a, b) = (slots.clone())
        .flat_map(|a| slots.clone().map(move |b| (a, b)))
        .find(|&(a, b)| {
            let (i, j) = (pipe.ranks.tiles().atom_at(a), pipe.ranks.tiles().atom_at(b));
            i < j
                && pipe
                    .pair_contribution(&sys, &state, i as usize, j as usize)
                    .is_some()
        })
        .expect("a 60-water box has an in-cutoff pair");
    let (i, j) = (pipe.ranks.tiles().atom_at(a), pipe.ranks.tiles().atom_at(b));
    let mut want = RawForces::zeroed(n);
    pipe.apply_pair(&sys, &state, i as usize, j as usize, &mut want);

    let clean = PairQueue {
        plain: vec![[a, b]],
        ..PairQueue::default()
    };
    // A coincident pair before and after the live one, and one among the
    // 1-4 pairs.
    let noisy = PairQueue {
        plain: vec![[a, a], [a, b], [b, b]],
        one_four: vec![[b, b]],
        candidates: 0,
    };
    for (name, queue) in [("clean", clean), ("noisy", noisy)] {
        let mut got = RawForces::zeroed(n);
        let live = pipe.evaluate_queue::<true>(&sys, &queue, &mut got);
        assert_eq!(live, 1, "{name}");
        assert_eq!(got, want, "{name}");
    }
    assert_ne!(want.e_range_limited, 0);
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
