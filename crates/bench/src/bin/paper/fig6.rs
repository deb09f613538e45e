//! Figure 6: backbone amide S² order parameters of a GB3-like protein from
//! two independent engines (Anton fixed-point vs reference double-precision)
//! and a synthetic "NMR" profile.
//!
//! `cargo run --release -p anton-bench --bin paper -- fig6 [--full]`
//!
//! The paper compares 1 µs trajectories; on one core we sample far shorter
//! windows (default 1,500 frames of a 56-residue chain in vacuum-box
//! conditions), which capture fast librations only. Each engine's
//! temperature after equilibration and at the end of the window is
//! printed, so a trajectory that blew up shows in the output itself: at the
//! default window both do, and the comparison does not reproduce the
//! paper's (EXPERIMENTS.md).

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

/// A temperature for the summary line: fixed-point while physical,
/// scientific once a trajectory has blown up.
fn kelvin(t: f64) -> String {
    if t.abs() < 1e5 {
        format!("{t:.1}")
    } else {
        format!("{t:.2e}")
    }
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
    let anton_equilibrated_k = anton.temperature_k();
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
    let anton_final_k = anton.temperature_k();

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
    let ref_equilibrated_k = refsim.temperature_k();
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
    let ref_final_k = refsim.temperature_k();

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
        "temperature after equilibration / at end of window (target 300 K): \
         Anton {} / {} K, reference {} / {} K",
        kelvin(anton_equilibrated_k),
        kelvin(anton_final_k),
        kelvin(ref_equilibrated_k),
        kelvin(ref_final_k)
    );
    println!(
        "(window: {} frames x {} cycles x {} fs; the paper used 1 µs trajectories)",
        frames,
        stride,
        sys.params.dt_fs * sys.params.longrange_every as f64
    );
}
