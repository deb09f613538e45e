//! Figure 6: backbone amide S² order parameters of a GB3-like protein from
//! two independent engines (Anton fixed-point vs reference double-precision)
//! and a synthetic "NMR" profile.
//!
//! `cargo run --release -p anton-bench --bin paper -- fig6 [--full]`
//!
//! The paper compares 1 µs trajectories; on one core we sample far shorter
//! windows (default ~2,000 frames of a 56-residue chain in vacuum-box
//! conditions), which captures fast librations only — S² values sit higher
//! than the paper's, but the three-way comparison structure is the point.

use anton_analysis::kabsch::superpose;
use anton_analysis::order_parameters;
use anton_core::AntonSimulation;
use anton_geometry::{PeriodicBox, Vec3};
use anton_refmd::RefSimulation;
use anton_systems::protein::{build_chain, chain_topology};
use anton_systems::spec::{RunParams, System, Thermostat};
use anton_systems::velocities::init_velocities;
use rand::{Rng, SeedableRng};

const N_RES: usize = 56;

fn gb3_like_system() -> (System, Vec<(u32, u32)>) {
    let chain = build_chain(N_RES, Vec3::splat(20.0), 8.5, 5.8);
    let nh = chain.nh_pairs.clone();
    let top = chain_topology(&chain, 3.15, 0.152);
    let sys = System {
        name: "GB3-like".into(),
        pbox: PeriodicBox::cubic(40.0),
        topology: top,
        positions: chain.positions,
        params: RunParams::paper(9.0, 16),
    };
    sys.validate().unwrap();
    (sys, nh)
}

/// Collect aligned N–H unit vectors over a trajectory driven by `advance`.
fn collect_frames(
    mut advance: impl FnMut() -> Vec<Vec3>,
    nh: &[(u32, u32)],
    backbone: &[usize],
    reference: &[Vec3],
    frames: usize,
) -> Vec<Vec<Vec3>> {
    let mut out = Vec::with_capacity(frames);
    for _ in 0..frames {
        let pos = advance();
        // Align on backbone nitrogens to remove global tumbling.
        let mobile: Vec<Vec3> = backbone.iter().map(|&i| pos[i]).collect();
        let rot = anton_analysis::kabsch_rotation(&mobile, reference);
        out.push(
            nh.iter()
                .map(|&(n, h)| rot.mul_vec(pos[h as usize] - pos[n as usize]))
                .collect(),
        );
    }
    out
}

pub fn run() {
    let full = anton_bench::full_mode();
    let frames = if full { 12_000 } else { 1_500 };
    let stride = 2; // cycles between frames

    let (sys, nh) = gb3_like_system();
    let backbone: Vec<usize> = nh.iter().map(|&(n, _)| n as usize).collect();
    let reference: Vec<Vec3> = backbone.iter().map(|&i| sys.positions[i]).collect();

    // --- Anton engine trajectory.
    let mut anton = AntonSimulation::builder(sys.clone())
        .velocities_from_temperature(300.0, 41)
        .thermostat(Thermostat::Berendsen {
            target_k: 300.0,
            tau_fs: 100.0,
        })
        .build();
    anton.run_cycles(100); // equilibrate
    let anton_frames = collect_frames(
        || {
            anton.run_cycles(stride);
            anton.positions_f64()
        },
        &nh,
        &backbone,
        &reference,
        frames,
    );
    let s2_anton = order_parameters(&anton_frames);

    // --- Reference engine trajectory (independent seed → independent
    // trajectory, like the paper's Anton-vs-Desmond comparison).
    let vel = init_velocities(&sys.topology, 300.0, 43);
    let mut refsim = RefSimulation::new(
        sys.clone(),
        vel,
        Thermostat::Berendsen {
            target_k: 300.0,
            tau_fs: 100.0,
        },
    );
    for _ in 0..100 {
        refsim.run_cycle();
    }
    let ref_frames = collect_frames(
        || {
            for _ in 0..stride {
                refsim.run_cycle();
            }
            refsim.positions.clone()
        },
        &nh,
        &backbone,
        &reference,
        frames,
    );
    let s2_ref = order_parameters(&ref_frames);

    // --- Synthetic "NMR" profile: the reference-engine values plus
    // measurement noise (substitution for Hall & Fushman 2006; DESIGN.md §2).
    let mut rng = rand::rngs::SmallRng::seed_from_u64(4242);
    let s2_nmr: Vec<f64> = s2_ref
        .iter()
        .map(|&s| (s + rng.gen_range(-0.03..0.03)).clamp(0.0, 1.0))
        .collect();

    anton_bench::header(
        "Figure 6 — backbone amide S² order parameters (GB3-like)",
        &["residue", "Anton", "reference", "\"NMR\""],
    );
    for i in 0..N_RES {
        println!(
            "{:>7} | {:>6.3} | {:>9.3} | {:>6.3}",
            i + 1,
            s2_anton[i],
            s2_ref[i],
            s2_nmr[i]
        );
    }

    // Agreement summary (the paper's claim: the two simulation estimates are
    // highly similar; both track experiment).
    let rmsd = |a: &[f64], b: &[f64]| {
        (a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>() / a.len() as f64).sqrt()
    };
    println!(
        "\nS² rms difference Anton vs reference: {:.4}",
        rmsd(&s2_anton, &s2_ref)
    );
    println!(
        "S² rms difference Anton vs \"NMR\"   : {:.4}",
        rmsd(&s2_anton, &s2_nmr)
    );
    println!(
        "(window: {} frames x {} cycles x {} fs; the paper used 1 µs trajectories)",
        frames,
        stride,
        sys.params.dt_fs * sys.params.longrange_every as f64
    );
    let _ = superpose; // part of the public analysis API exercised in tests
}
