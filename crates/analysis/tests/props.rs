//! Battery properties against live engines: every closed-form identity
//! holds on every cycle of random waterboxes across decompositions and
//! thread counts, and a corrupted force word / velocity word / counter is
//! detected with the right [`Identity`] kind.

use anton_analysis::battery::Verifier;
use anton_analysis::verify::{check_census_invariance, Identity};
use anton_core::{AntonSimulation, Decomposition};
use anton_machine::perf::ExchangeCounters;
use anton_systems::{water_box, RunParams};

fn water_sim(n: usize, seed: u64, decomp: Decomposition, threads: usize) -> AntonSimulation {
    let sys = water_box("verify-water", 18.0, n, seed, RunParams::paper(7.5, 16)).unwrap();
    AntonSimulation::builder(sys)
        .velocities_from_temperature(300.0, seed ^ 0x5eed)
        .decomposition(decomp)
        .threads(threads)
        .build()
}

/// Run `cycles` cycles, sampling the battery after each. The verifier is
/// bound after the first cycle: the first SHAKE projects the unconstrained
/// Maxwell–Boltzmann velocities onto the constraint manifold, a one-time
/// kinetic-energy drop that is not drift.
fn run_verified(sim: &mut AntonSimulation, cycles: usize) -> Verifier {
    sim.run_cycle();
    let mut v = Verifier::new(sim);
    v.sample(sim);
    for _ in 1..cycles {
        sim.run_cycle();
        v.sample(sim);
    }
    v
}

/// The identity kinds of all recorded violations.
fn kinds(v: &Verifier) -> Vec<Identity> {
    v.violations().iter().map(|x| x.identity).collect()
}

/// Tentpole property: the full battery is clean every cycle for every
/// decomposition × thread combination, and the trajectory-function
/// counters are identical across all of them.
#[test]
fn battery_clean_across_decompositions_and_threads() {
    const CYCLES: usize = 3;
    for (n, seed) in [(55, 3), (60, 9)] {
        let mut census: Vec<(String, ExchangeCounters)> = Vec::new();
        for (decomp, threads) in [
            (Decomposition::SingleRank, 1),
            (Decomposition::Nodes(1), 1),
            (Decomposition::Nodes(8), 1),
            (Decomposition::Nodes(8), 4),
            (Decomposition::Nodes(64), 4),
        ] {
            let mut sim = water_sim(n, seed, decomp, threads);
            let v = run_verified(&mut sim, CYCLES);
            v.assert_clean();
            assert_eq!(v.samples(), CYCLES as u64, "{decomp:?} x{threads}");
            census.push((format!("{decomp:?} x{threads}"), sim.pipeline.counters));
        }
        let (ref_name, ref_counters) = census[0].clone();
        for (name, counters) in &census[1..] {
            let diff = check_census_invariance(CYCLES as u64, &ref_counters, counters);
            assert!(
                diff.is_empty(),
                "census differs between {ref_name} and {name}: {diff:?}"
            );
        }
    }
}

#[test]
fn corrupted_force_word_detected_as_force_consistency() {
    let mut sim = water_sim(55, 3, Decomposition::SingleRank, 1);
    sim.run_cycles(2);
    let mut v = Verifier::new(&sim);
    v.sample(&sim);
    assert!(v.violations().is_empty(), "{:?}", v.violations());

    sim.short_forces_mut().f[5][1] ^= 1;
    v.sample(&sim);
    let hit = v
        .violations()
        .iter()
        .find(|x| x.identity == Identity::ForceConsistency)
        .expect("flipped force bit must fail ForceConsistency");
    assert_eq!(hit.label, "short_forces");
    assert_eq!(hit.index, 5 * 3 + 1);
    assert_eq!((hit.lhs - hit.rhs).abs(), 1);
}

#[test]
fn corrupted_long_force_word_detected_as_force_consistency() {
    let mut sim = water_sim(55, 3, Decomposition::Nodes(8), 2);
    sim.run_cycles(2);
    let mut v = Verifier::new(&sim);
    sim.long_forces_mut().f[0][2] = sim.long_forces().f[0][2].wrapping_add(7);
    v.sample(&sim);
    let hit = v
        .violations()
        .iter()
        .find(|x| x.identity == Identity::ForceConsistency)
        .expect("corrupted long-range word must fail ForceConsistency");
    assert_eq!(hit.label, "long_forces");
    assert_eq!(hit.index, 2);
}

#[test]
fn corrupted_velocity_word_detected_as_momentum_and_energy() {
    let mut sim = water_sim(60, 9, Decomposition::SingleRank, 1);
    sim.run_cycles(2);
    let mut v = Verifier::new(&sim);
    v.sample(&sim);
    assert!(v.violations().is_empty(), "{:?}", v.violations());

    // A single flipped high bit in one velocity word: far outside the
    // closed-form rounding envelope, and a huge kinetic-energy jump.
    sim.state.velocities[4][0] += 1 << 40;
    v.sample(&sim);
    let k = kinds(&v);
    assert!(k.contains(&Identity::MomentumEnvelope), "{k:?}");
    assert!(k.contains(&Identity::EnergyDrift), "{k:?}");
    // Forces are position-only: the corruption must NOT leak there.
    assert!(!k.contains(&Identity::ForceConsistency), "{k:?}");
}

#[test]
fn displaced_position_detected_as_force_consistency() {
    let mut sim = water_sim(55, 3, Decomposition::SingleRank, 1);
    sim.run_cycles(2);
    let mut v = Verifier::new(&sim);
    sim.state.set_position_frac(3, [0.111, 0.222, 0.333]);
    v.sample(&sim);
    assert!(
        kinds(&v).contains(&Identity::ForceConsistency),
        "stale stored forces after a position edit must fail consistency: {:?}",
        v.violations()
    );
}

#[test]
fn corrupted_comm_counter_detected_as_census_comm() {
    let mut sim = water_sim(55, 3, Decomposition::Nodes(8), 1);
    sim.run_cycles(2);
    let mut v = Verifier::new(&sim);
    v.sample(&sim);
    assert!(v.violations().is_empty(), "{:?}", v.violations());

    sim.pipeline.counters.import_messages += 1;
    v.sample(&sim);
    let hit = v
        .violations()
        .iter()
        .find(|x| x.identity == Identity::CensusComm)
        .expect("import_messages skew must fail CensusComm");
    assert_eq!(hit.label, "import_messages");
    assert_eq!(hit.lhs, hit.rhs + 1);
}

#[test]
fn corrupted_lr_counter_detected_as_census() {
    let mut sim = water_sim(55, 3, Decomposition::Nodes(8), 1);
    sim.run_cycles(2);
    let mut v = Verifier::new(&sim);
    sim.pipeline.counters.lr_steps += 1;
    v.sample(&sim);
    let k = kinds(&v);
    // The skewed lr_steps breaks both the per-cycle step census and the
    // mesh/FFT traffic linearity.
    assert!(k.contains(&Identity::CensusSteps), "{k:?}");
    assert!(k.contains(&Identity::CensusComm), "{k:?}");
}

#[test]
fn corrupted_rebuild_counter_detected_as_census_steps() {
    let mut sim = water_sim(55, 3, Decomposition::SingleRank, 1);
    sim.run_cycles(2);
    let mut v = Verifier::new(&sim);
    sim.pipeline.counters.rebuild_steps += 1;
    v.sample(&sim);
    let hit = v
        .violations()
        .iter()
        .find(|x| x.identity == Identity::CensusSteps)
        .expect("rebuild_steps skew must fail CensusSteps");
    assert_eq!(hit.label, "rebuild_plus_reuse_per_cycle");
}

#[test]
fn census_invariance_detects_cross_run_pair_count_skew() {
    let mut sim = water_sim(55, 3, Decomposition::SingleRank, 1);
    sim.run_cycles(2);
    let mut skewed = sim.pipeline.counters;
    skewed.match_pairs += 1;
    let diff = check_census_invariance(2, &sim.pipeline.counters, &skewed);
    assert_eq!(diff.len(), 1);
    assert_eq!(diff[0].label, "match_pairs");
}
