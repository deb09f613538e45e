//! Order parameters from a short Anton-engine run of a synthetic protein
//! chain (the Figure 6 workflow in miniature).
//!
//! `cargo run --release -p anton-core --example order_parameters`

use anton_analysis::{kabsch_rotation, order_parameters};
use anton_core::AntonSimulation;
use anton_geometry::{PeriodicBox, Vec3};
use anton_systems::protein::{build_chain, chain_topology};
use anton_systems::spec::{RunParams, System, Thermostat};

fn main() {
    let chain = build_chain(24, Vec3::splat(15.0), 7.0, 5.8);
    let nh = chain.nh_pairs.clone();
    let sys = System {
        name: "chain24".into(),
        pbox: PeriodicBox::cubic(30.0),
        topology: chain_topology(&chain, 3.15, 0.152),
        positions: chain.positions,
        params: RunParams::paper(9.0, 16),
    };
    sys.validate().unwrap();
    let backbone: Vec<usize> = nh.iter().map(|&(n, _)| n as usize).collect();
    let reference: Vec<Vec3> = backbone.iter().map(|&i| sys.positions[i]).collect();

    let mut sim = AntonSimulation::builder(sys)
        .velocities_from_temperature(300.0, 3)
        .thermostat(Thermostat::Berendsen {
            target_k: 300.0,
            tau_fs: 100.0,
        })
        .build();
    sim.run_cycles(50); // equilibrate

    let mut frames = Vec::new();
    for _ in 0..400 {
        sim.run_cycles(2);
        let pos = sim.positions_f64();
        let mobile: Vec<Vec3> = backbone.iter().map(|&i| pos[i]).collect();
        let rot = kabsch_rotation(&mobile, &reference);
        frames.push(
            nh.iter()
                .map(|&(n, h)| rot.mul_vec(pos[h as usize] - pos[n as usize]))
                .collect::<Vec<_>>(),
        );
    }
    let s2 = order_parameters(&frames);
    println!("residue   S²   (1 = rigid, 0 = isotropic; short window → high values)");
    for (i, v) in s2.iter().enumerate() {
        let bar = "#".repeat((v * 40.0) as usize);
        println!("{:>6}  {v:>5.3}  |{bar}", i + 1);
    }
    println!("(the full Figure 6 harness: cargo run -p anton-bench --bin paper -- fig6)");
}
