//! Figure 5 + Table 4: performance, accuracy and energy drift for the six
//! protein-in-water benchmark systems (and Figure 5's water-only series).
//!
//! `cargo run --release -p anton-bench --bin paper -- fig5_table4 [--full]`
//!
//! Default: performance model for all systems; force errors measured on the
//! two smallest systems; drift on a reduced surrogate. `--full` measures
//! force errors on all six systems and drift on gpW itself.

use anton_bench::artifacts::table4_rows;
use anton_core::AntonSimulation;
use anton_machine::PerfModel;
use anton_refmd::reference::{reference_forces, rms_force_error};
use anton_systems::spec::RunParams;
use anton_systems::{table4_system, TABLE4};

pub fn run() {
    let full = anton_bench::full_mode();
    let model = PerfModel::anton_512();

    // ---------------- Figure 5 + Table 4 performance column ----------------
    anton_bench::header(
        "Figure 5 / Table 4 — 512-node performance (µs/day)",
        &[
            "system",
            "atoms",
            "cutoff",
            "mesh",
            "model",
            "paper",
            "water-only model",
        ],
    );
    // The model column is the `model_us_per_day` column of
    // `results/TABLE_4.csv`.
    for row in table4_rows() {
        let e = row.entry;
        let mut wstats = row.stats;
        wstats.n_bonded_terms = 0;
        wstats.protein_atoms = 0;
        wstats.n_correction_pairs = row.stats.n_atoms; // waters' intra-molecular exclusions
        let wb = model.breakdown(&wstats);
        println!(
            "{:<7} | {:>6} | {:>5.1} | {:>3}³ | {:>6.1} | {:>5.1} | {:>7.1}",
            e.name,
            e.n_atoms,
            e.cutoff,
            e.mesh,
            row.model_us_per_day,
            e.paper_us_per_day,
            wb.us_per_day
        );
    }

    // ---------------- Table 4 force errors ----------------
    anton_bench::header(
        "Table 4 — force errors (fraction of rms force)",
        &[
            "system",
            "total (ours)",
            "total (paper)",
            "numerical (ours)",
            "numerical (paper)",
        ],
    );
    let n_measure = if full { TABLE4.len() } else { 2 };
    for e in TABLE4.iter().take(n_measure) {
        let sys = table4_system(e, 1);
        let sim = AntonSimulation::builder(sys.clone())
            .velocities_from_temperature(300.0, 5)
            .build();

        // Total force error: Anton forces vs the conservative double-
        // precision reference.
        let (f_ref, _) = reference_forces(&sys, &sim.positions_f64());
        let f_anton: Vec<_> = (0..f_ref.len()).map(|i| sim.total_force_f64(i)).collect();
        let total_err = rms_force_error(&f_anton, &f_ref);

        // Numerical force error: the same interactions evaluated with the
        // same parameters in f64 — isolate quantization. We approximate it
        // with the table-vs-exact kernel deviation over the live pair set,
        // which the `anton-core` tests measure directly; here we reuse the
        // engine's own comparison by evaluating exact kernels.
        let numerical_err = numerical_error(&sys, &sim);

        println!(
            "{:<7} | {:>11.2e} | {:>12.1e} | {:>15.2e} | {:>16.1e}",
            e.name, total_err, e.paper_total_force_err, numerical_err, e.paper_numerical_force_err
        );
    }
    if !full {
        println!("(force errors for the remaining systems with --full)");
    }

    // ---------------- Table 4 energy drift ----------------
    anton_bench::header(
        "Table 4 — NVE energy drift (kcal/mol/DoF/µs)",
        &["system", "drift (ours)", "paper", "window (fs)"],
    );
    // Drift is a per-DoF rate, so a water box at the entry's parameters
    // transfers across sizes. The paper's 0.02–0.05 kcal/mol/DoF/µs values
    // come from very long runs; a picosecond window can only bound the
    // drift by its own energy-fluctuation floor, which we report alongside.
    let cycles = if full { 1500 } else { 300 };
    let sys = anton_bench::water_box("drift-water", 22.0, 340, RunParams::paper(10.5, 32));
    let dof = sys.topology.degrees_of_freedom();
    let (d, window) = anton_bench::measure_drift(sys, cycles, 13);
    println!(
        "{:<7} | {:>12.1} | {:>5.3} | {:>8.0}   (equilibrated water at gpW parameters)",
        "gpW*", d, TABLE4[0].paper_drift, window
    );
    println!(
        "noise floor: ±{:.0} kcal/mol/DoF/µs on a {window:.0} fs window (DoF = {dof});\n\
         the paper's 0.035 needs ~10⁶ fs windows — this measurement bounds the drift, it\n\
         cannot resolve the paper's second digit.",
        0.001 / (window * 1e-9)
    );
}

/// Numerical force error: table/fixed-point forces vs exact-kernel f64
/// forces over the identical pair set and positions.
fn numerical_error(sys: &anton_systems::System, sim: &AntonSimulation) -> f64 {
    use anton_core::state::DISP_SCALE;
    use anton_geometry::{CellGrid, Vec3};
    let state = &sim.state;
    let pipe = &sim.pipeline;
    let pos = state.decode_positions(&sys.pbox);
    let top = &sys.topology;
    let mut exact = vec![Vec3::ZERO; sys.n_atoms()];
    let grid = CellGrid::build(&sys.pbox, &pos, sys.params.cutoff + 0.2);
    let policy = top.exclusions.policy.unwrap();
    grid.for_each_pair_within(&pos, sys.params.cutoff + 0.2, |i, j, _d, _r2| {
        let Some((se, sl)) = policy.scales(top.exclusions.class(i as u32, j as u32)) else {
            return;
        };
        let raw = |a: usize| state.positions[a].0.map(|c| c.raw());
        let (d, r2q) = pipe.ladder.delta_r2(raw(i), raw(j));
        if r2q > pipe.rc2_q20 || r2q == 0 {
            return;
        }
        let dv = Vec3::new(
            d[0] as f64 / DISP_SCALE,
            d[1] as f64 / DISP_SCALE,
            d[2] as f64 / DISP_SCALE,
        );
        let qq = top.charge[i] * top.charge[j] * se;
        let (a, b) = top.lj_table.coeffs(top.lj_type[i], top.lj_type[j]);
        let (f_over_r, _) = pipe.ppip.pair_exact(dv.norm2(), qq, a * sl, b * sl);
        exact[i] += dv * f_over_r;
        exact[j] -= dv * f_over_r;
    });
    // Compare only the range-limited component (dominant in both error
    // columns' gap).
    let mut num = 0.0;
    let mut den = 0.0;
    let mut rl = anton_core::RawForces::zeroed(sys.n_atoms());
    // `range_limited` is `&mut self` (per-rank scratch); build a fresh
    // single-rank pipeline rather than mutating the simulation's own.
    anton_core::ForcePipeline::new(sys, anton_core::Decomposition::SingleRank, 1)
        .range_limited(sys, state, &mut rl);
    for (i, ex) in exact.iter().enumerate() {
        num += (rl.force_f64(i) - *ex).norm2();
        den += ex.norm2();
    }
    (num / den).sqrt()
}
