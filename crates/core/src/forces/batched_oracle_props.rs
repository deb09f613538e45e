//! Property tests of the tentpole invariant: on random boxed atom
//! sets, the batched HTIS-shaped pipeline reproduces the retained
//! scalar oracle's pair *set* and raw forces *bitwise*, across the
//! one-rank plan and `Nodes {1, 8, 64}`.
use super::tests::{solvated_mini, state_of, water_box, water_system};
use super::*;
use crate::batch::BatchQueue;
use crate::state::FixedState;
use anton_fixpoint::Fx32;
use anton_forcefield::PairClass;
use anton_geometry::{CellGrid, PeriodicBox};
use anton_machine::MATCH_WIDTH;
use proptest::prelude::*;

/// A box long enough for 8 subboxes on x (35 Å / 8 is still half the
/// 8.5 Å reach) over 4 × 4: the stencil walk away from the small cell
/// counts, where the 18 Å cube never goes.
fn long_water_box(n: usize, seed: u64) -> System {
    let sys = water_box(PeriodicBox::new(Vec3::new(35.0, 18.0, 18.0)), n, seed);
    let pipe = ForcePipeline::new(&sys, Decomposition::SingleRank, 1);
    assert_eq!(pipe.ranks.tile_count(), 8 * 4 * 4);
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
        for batch in q.batches() {
            for lane in 0..MATCH_WIDTH {
                if batch.mask & (1u8 << lane) == 0 {
                    continue;
                }
                let (si, sj) = (batch.si[lane], batch.sj[lane]);
                let (_, r2) = pipe
                    .ladder
                    .delta_r2_i128(tiles.raw_at(si), tiles.raw_at(sj));
                if !keep(r2) {
                    continue;
                }
                let (i, j) = (tiles.atom_at(si), tiles.atom_at(sj));
                v.push((i.min(j), i.max(j)));
            }
        }
        v
    };
    let mut pairs: Vec<(u32, u32)> = pipe
        .scratch
        .iter()
        .flat_map(|s| live(&s.queue, &pipe.tiles))
        .collect();
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
fn scalar_nodes_forces(pipe: &mut ForcePipeline, sys: &System, state: &FixedState) -> RawForces {
    let mut out = RawForces::zeroed(sys.n_atoms());
    pipe.ranks.rebin(&state.positions, &mut pipe.counters);
    for r in 0..pipe.ranks.rank_count() {
        pipe.rank_pairs(sys, state, r, &mut out);
    }
    out
}

/// One case of the batched-vs-oracle property: under the one-rank plan
/// and each listed node count, `range_limited` reproduces the cell-grid
/// scalar oracle's raw forces bitwise and dispatches exactly the oracle's
/// pair set; under `Nodes(n)` it also matches the scalar NT enumeration.
fn assert_batched_matches_oracle(sys: &System, state: &FixedState, nodes: &[usize], ctx: &str) {
    let mut sr = ForcePipeline::new(sys, Decomposition::SingleRank, 1);
    let mut batched = RawForces::zeroed(sys.n_atoms());
    sr.range_limited(sys, state, &mut batched);
    let mut oracle = RawForces::zeroed(sys.n_atoms());
    sr.range_limited_cellgrid(sys, state, &mut oracle);
    assert_eq!(batched, oracle, "single-rank forces diverged ({ctx})");
    let oracle_set = oracle_pairs(&sr, sys, state);
    assert_eq!(
        batched_pairs(&sr),
        oracle_set,
        "single-rank pair set ({ctx})"
    );

    for &nodes in nodes {
        let mut np = ForcePipeline::new(sys, Decomposition::Nodes(nodes), 1);
        let mut got = RawForces::zeroed(sys.n_atoms());
        np.range_limited(sys, state, &mut got);
        assert_eq!(got, oracle, "{nodes}-node forces diverged ({ctx})");
        assert_eq!(
            batched_pairs(&np),
            oracle_set,
            "{nodes}-node pair set ({ctx})"
        );
        let scalar = scalar_nodes_forces(&mut np, sys, state);
        assert_eq!(got, scalar, "{nodes}-node scalar oracle ({ctx})");
    }
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
        let (n, edge) = (sys.n_atoms(), sys.pbox.edge());
        let ctx = format!("case {case}: {n} atoms, edge {edge:?}");
        assert_batched_matches_oracle(sys, &state_of(sys), &[1, 8, 64], &ctx);
    }
}

/// The same property where the evaluator's per-atom gather has something
/// to get wrong: a solvated protein, whose 1-4 pairs take the policy's
/// scaled multipliers and whose atoms span several LJ types. Pure water
/// exercises neither (no 1-4 pairs, one non-zero LJ type pair).
#[test]
fn batched_path_is_bitwise_the_scalar_oracle_on_a_solvated_protein() {
    let sys = solvated_mini();
    let state = state_of(&sys);
    assert_batched_matches_oracle(&sys, &state, &[1, 8], "solvated mini");

    // The case did evaluate what it is here for.
    let mut pipe = ForcePipeline::new(&sys, Decomposition::SingleRank, 1);
    pipe.range_limited(&sys, &state, &mut RawForces::zeroed(sys.n_atoms()));
    let tiles = &pipe.tiles;
    let mut live_14 = 0;
    let mut type_pairs = std::collections::BTreeSet::new();
    for batch in pipe.scratch.iter().flat_map(|s| s.queue.batches()) {
        for lane in crate::batch::lanes_of(batch.mask) {
            let (si, sj) = (batch.si[lane], batch.sj[lane]);
            let (_, r2) = pipe.ladder.delta_r2(tiles.raw_at(si), tiles.raw_at(sj));
            if r2 > pipe.rc2_q20 || r2 == 0 {
                continue;
            }
            live_14 += usize::from(batch.mask_14 & (1 << lane) != 0);
            let (ti, tj) = (tiles.type_at(si), tiles.type_at(sj));
            type_pairs.insert((ti.min(tj), ti.max(tj)));
        }
    }
    assert!(live_14 >= 1, "no live 1-4 lane");
    assert!(
        type_pairs.len() >= 3,
        "only {type_pairs:?} among the live lanes"
    );
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
        assert_eq!(
            pipe.ranks.tile_count(),
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
