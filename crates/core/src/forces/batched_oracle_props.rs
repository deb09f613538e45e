//! Property tests of the tentpole invariant: on random boxed atom
//! sets, the batched HTIS-shaped pipeline reproduces the retained
//! scalar oracle's pair *set* and raw forces *bitwise*, across the
//! one-rank plan and `Nodes {1, 8, 64}`.
use super::tests::{solvated_mini, state_of, water_box, water_system};
use super::*;
use crate::batch::PairQueue;
use crate::state::FixedState;
use anton_fixpoint::{Fx32, FxVec3, Q20};
use anton_forcefield::PairClass;
use anton_geometry::{CellGrid, PeriodicBox, PosTiles};
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

/// The queued atom pairs — every rank's cached queue and the trunk's
/// mover queue, both lists — normalized and sorted, whose r² (the 128-bit
/// ladder over the tiles' current positions) passes `keep`.
fn queued_pairs(pipe: &ForcePipeline, keep: impl Fn(i64) -> bool) -> Vec<(u32, u32)> {
    let live = |q: &PairQueue, tiles: &PosTiles| -> Vec<(u32, u32)> {
        let mut v = Vec::new();
        for &[si, sj] in q.plain.iter().chain(&q.one_four) {
            let (_, r2) = pipe
                .ladder
                .delta_r2_i128(tiles.raw_at(si), tiles.raw_at(sj));
            if !keep(r2) {
                continue;
            }
            let (i, j) = (tiles.atom_at(si), tiles.atom_at(sj));
            v.push((i.min(j), i.max(j)));
        }
        v
    };
    let mut pairs: Vec<(u32, u32)> = pipe
        .scratch
        .iter()
        .map(|s| &s.queue)
        .chain([&pipe.mover_queue])
        .flat_map(|q| live(q, pipe.ranks.tiles()))
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
    pipe.ranks
        .rebin(&sys.topology, &state.positions, &mut pipe.counters);
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
    let tiles = pipe.ranks.tiles();
    let mut live_14 = 0;
    let mut type_pairs = std::collections::BTreeSet::new();
    for q in pipe.scratch.iter().map(|s| &s.queue) {
        for (list, one_four) in [(&q.plain, false), (&q.one_four, true)] {
            for &[si, sj] in list {
                let (_, r2) = pipe.ladder.delta_r2(tiles.raw_at(si), tiles.raw_at(sj));
                if r2 > pipe.rc2_q20 || r2 == 0 {
                    continue;
                }
                live_14 += usize::from(one_four);
                let (ti, tj) = (tiles.all().ty[si as usize], tiles.all().ty[sj as usize]);
                type_pairs.insert((ti.min(tj), ti.max(tj)));
            }
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
/// stencil wraps onto itself in every way it can), and on `Nodes(8)` and
/// `Nodes(64)`; the forces are the all-pairs scalar oracle's. This is what
/// makes "not in the cached list" the mover scan's exact complement test:
/// an epoch pair is cached iff its Q20 r² is inside `(rc + s)²` and it is
/// not excluded, on every plan.
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
        let oracle = ForcePipeline::new(&sys, Decomposition::SingleRank, 1);
        assert_eq!(
            oracle.ranks.tile_count(),
            cells.iter().product::<usize>(),
            "case {case}"
        );
        let raw = |a: usize| state.positions[a].0.map(|c| c.raw());
        let mut want_pairs = Vec::new();
        let mut want = RawForces::zeroed(sys.n_atoms());
        for i in 0..sys.n_atoms() {
            for j in (i + 1)..sys.n_atoms() {
                oracle.apply_pair(&sys, &state, i, j, &mut want);
                let (_, r2) = oracle.ladder.delta_r2_i128(raw(i), raw(j));
                let class = sys.topology.exclusions.class(i as u32, j as u32);
                if r2 <= oracle.rc_pad2_q20 && class != PairClass::Excluded {
                    want_pairs.push((i as u32, j as u32));
                }
            }
        }
        assert!(want.e_range_limited != 0);

        for decomposition in [
            Decomposition::SingleRank,
            Decomposition::Nodes(8),
            Decomposition::Nodes(64),
        ] {
            let mut pipe = ForcePipeline::new(&sys, decomposition, 1);
            let mut got = RawForces::zeroed(sys.n_atoms());
            pipe.range_limited(&sys, &state, &mut got);
            assert_eq!(
                queued_pairs(&pipe, |_| true),
                want_pairs,
                "case {case}, {decomposition:?}: queued set"
            );
            assert_eq!(got, want, "case {case}, {decomposition:?}: forces");
        }
    }
}

/// Shift one position by `d` Å (per axis), wrapping through the seam.
fn shift(p: &mut FxVec3, d: [f64; 3], edge: Vec3) {
    for (k, e) in [edge.x, edge.y, edge.z].into_iter().enumerate() {
        let raw = (d[k] / e * 2f64.powi(32)).round() as i64;
        p.0[k] = p.0[k].wrapping_add(Fx32(raw as i32));
    }
}

/// The mover scan's defining property: a solvated protein whose bulk
/// drifts slowly while a handful of atoms are driven fast, evaluated by
/// pipelines that reuse their cached batches and add the movers' missing
/// pairs, gives the forces, energies, live-pair counts and live pair sets
/// of a pipeline that rebuilds every step — under `SingleRank` and
/// `Nodes {1, 8, 64}`, each on 1 and 2 threads, with one schedule for all.
/// The designated movers cover each way the scan can go wrong:
///
/// * a carbonyl carbon started 15.6 Å from its chain and driven home,
///   displaced by far more than the slack, so its excluded and 1-4
///   partners enter the cutoff without ever having been cached;
/// * two water oxygens 10–12 Å apart driven at each other, a mover–mover
///   pair the cache lacks, to be queued once;
/// * the atom nearest the +x face driven across the periodic seam;
/// * and at the end a kick to 100 atoms, past the cap, forcing a rebuild.
#[test]
fn mover_pairs_keep_forces_bitwise_invariant() {
    let sys = solvated_mini();
    let (n, edge) = (sys.n_atoms(), sys.pbox.edge());
    let top = &sys.topology;
    let home = state_of(&sys);
    let decoded = home.decode_positions(&sys.pbox);
    let chain_len = top.molecule_starts[1] as usize;

    // Residue 7's carbonyl carbon: in no constraint group, so its start
    // far from the chain moves no other atom's home box.
    let hot = 7 * 8 + 6;
    let partners = |class: PairClass| -> Vec<u32> {
        (0..n as u32)
            .filter(|&j| j != hot && top.exclusions.class(hot, j) == class)
            .collect()
    };
    let (excluded, one_four) = (partners(PairClass::Excluded), partners(PairClass::OneFour));
    assert!(!excluded.is_empty() && !one_four.is_empty());
    // Two water oxygens (first atom of a solvent molecule) 10–12 Å apart.
    let oxygens: Vec<usize> = top.molecule_starts[1..top.molecule_starts.len() - 1]
        .iter()
        .map(|&a| a as usize)
        .collect();
    let (a, b) = oxygens
        .iter()
        .flat_map(|&a| oxygens.iter().map(move |&b| (a, b)))
        .find(|&(a, b)| {
            let r = sys.pbox.min_image(decoded[b], decoded[a]).norm2().sqrt();
            a < b && (10.0..12.0).contains(&r)
        })
        .expect("a solvent oxygen pair 10-12 Å apart");
    let toward_b = sys.pbox.min_image(decoded[b], decoded[a]);
    let step_ab = toward_b * (0.7 / toward_b.norm2().sqrt());
    // The solvent atom nearest the +x face.
    let seam = (chain_len..n)
        .filter(|&s| s != a && s != b)
        .max_by_key(|&s| home.positions[s].0[0].raw())
        .unwrap();
    let movers = [hot as usize, a, b, seam];

    // Bulk drift ≤ 0.015 Å per axis per step: 0.18 Å over the 7 steps,
    // under the 0.495 Å mover threshold.
    let drift = |atom: usize, step: u32| -> [f64; 3] {
        std::array::from_fn(|k| {
            let h = (atom as u64 * 3 + k as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
                ^ u64::from(step).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            ((h >> 40) % 3001) as f64 / 100_000.0 - 0.015
        })
    };
    let mut state = home.clone();
    shift(&mut state.positions[hot as usize], [11.0, 11.0, 0.0], edge);
    let advance = |state: &mut FixedState, step: u32| {
        for (atom, p) in state.positions.iter_mut().enumerate() {
            shift(p, drift(atom, step), edge);
        }
        if step <= 4 {
            shift(
                &mut state.positions[hot as usize],
                [-2.75, -2.75, 0.0],
                edge,
            );
            shift(
                &mut state.positions[a],
                [step_ab.x, step_ab.y, step_ab.z],
                edge,
            );
            shift(
                &mut state.positions[b],
                [-step_ab.x, -step_ab.y, -step_ab.z],
                edge,
            );
            shift(&mut state.positions[seam], [0.6, 0.0, 0.0], edge);
        }
        if step == 6 {
            for p in &mut state.positions[300..400] {
                shift(p, [0.0, 0.6, 0.0], edge);
            }
        }
    };

    let plans: Vec<(Decomposition, usize)> = [
        Decomposition::SingleRank,
        Decomposition::Nodes(1),
        Decomposition::Nodes(8),
        Decomposition::Nodes(64),
    ]
    .into_iter()
    .flat_map(|d| [(d, 1), (d, 2)])
    .collect();
    let mut cached: Vec<ForcePipeline> = plans
        .iter()
        .map(|&(d, threads)| ForcePipeline::new(&sys, d, threads))
        .collect();
    let mut fresh = ForcePipeline::new(&sys, Decomposition::SingleRank, 1);
    let mut schedules = vec![Vec::new(); plans.len()];
    let (mut saw_pair, mut saw_14, mut saw_skipped_exclusion, mut saw_far) =
        (false, false, false, false);
    for step in 0..8u32 {
        if step > 0 {
            advance(&mut state, step);
        }
        fresh.invalidate_match_cache();
        let before = fresh.counters.match_pairs;
        let mut want = RawForces::zeroed(n);
        fresh.range_limited(&sys, &state, &mut want);
        let want_live = fresh.counters.match_pairs - before;
        let want_pairs = batched_pairs(&fresh);
        for (c, pipe) in cached.iter_mut().enumerate() {
            let ctx = format!("step {step}, {:?}", plans[c]);
            let (rebuilds, live) = (pipe.counters.rebuild_steps, pipe.counters.match_pairs);
            let mut got = RawForces::zeroed(n);
            pipe.range_limited(&sys, &state, &mut got);
            assert_eq!(got, want, "{ctx}: forces and energies");
            assert_eq!(
                pipe.counters.match_pairs - live,
                want_live,
                "{ctx}: live pairs"
            );
            assert_eq!(batched_pairs(pipe), want_pairs, "{ctx}: live pair set");
            schedules[c].push(pipe.counters.rebuild_steps > rebuilds);
        }

        // What the scan did, read off the first plan.
        let pipe = &cached[0];
        let tiles = pipe.ranks.tiles();
        let epoch = pipe.cache.ref_positions();
        // The designated atoms are the movers until the cap trips; after
        // the rebuild nothing has moved far yet.
        let mut want_movers: Vec<u32> = match step {
            1..=5 => movers.iter().map(|&m| m as u32).collect(),
            _ => Vec::new(),
        };
        want_movers.sort_unstable();
        assert_eq!(
            pipe.cache.movers(),
            want_movers,
            "step {step}: the mover set"
        );
        let q = &pipe.mover_queue;
        for &[si, sj] in q.plain.iter().chain(&q.one_four) {
            let (i, j) = (tiles.atom_at(si), tiles.atom_at(sj));
            assert_ne!(top.exclusions.class(i, j), PairClass::Excluded);
            saw_pair |= (i.min(j), i.max(j)) == (a as u32, b as u32);
        }
        saw_14 |= !q.one_four.is_empty();
        // An excluded partner of the far mover inside the cutoff now that
        // was outside the padded cutoff at the epoch: the scan met it and
        // dropped it.
        let raw = |p: &FxVec3| p.0.map(|c| c.raw());
        if !schedules[0][step as usize] {
            let hot_now = raw(&state.positions[hot as usize]);
            let hot_then = raw(&epoch[hot as usize]);
            let (_, moved2) = pipe.ladder.delta_r2(hot_now, hot_then);
            saw_far |= moved2 > Q20::from_f64(PAIRLIST_SLACK * PAIRLIST_SLACK).raw();
            saw_skipped_exclusion |= excluded.iter().any(|&j| {
                let (_, r2) = pipe
                    .ladder
                    .delta_r2(hot_now, raw(&state.positions[j as usize]));
                let (_, r2_then) = pipe.ladder.delta_r2(hot_then, raw(&epoch[j as usize]));
                r2 <= pipe.rc2_q20 && r2_then > pipe.rc_pad2_q20
            });
        }
    }
    for (c, s) in schedules.iter().enumerate() {
        assert_eq!(
            s,
            &[true, false, false, false, false, false, true, false],
            "{:?}: schedule",
            plans[c]
        );
    }
    assert!(
        saw_pair,
        "the mover-mover pair was never queued by the scan"
    );
    assert!(saw_14, "no 1-4 lane in the mover queue");
    assert!(saw_skipped_exclusion, "no excluded partner met by the scan");
    assert!(saw_far, "no mover displaced by more than the slack");
    let seam_x = |st: &FixedState| st.positions[seam].0[0].raw();
    assert!(
        seam_x(&home) > 0 && seam_x(&state) < 0,
        "the seam mover did not cross the +x face"
    );
}
