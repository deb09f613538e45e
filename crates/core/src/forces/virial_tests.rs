use super::*;
use crate::state::FixedState;
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
    let sys = anton_systems::water_box("w", 18.0, 100, 13, RunParams::paper(7.5, 16)).unwrap();
    let state = FixedState::from_f64(&sys.pbox, &sys.positions, &vec![Vec3::ZERO; sys.n_atoms()]);
    let mut a = RawForces::zeroed(sys.n_atoms());
    ForcePipeline::new(&sys, Decomposition::SingleRank, 1).range_limited(&sys, &state, &mut a);
    let mut b = RawForces::zeroed(sys.n_atoms());
    ForcePipeline::new(&sys, Decomposition::Nodes(8), 2).range_limited(&sys, &state, &mut b);
    assert_eq!(a.virial, b.virial);
    assert_ne!(a.virial, anton_fixpoint::Wide::ZERO);
}
