//! Figure 7: folding and unfolding events of gpW at its melting temperature.
//!
//! `cargo run --release -p anton-bench --bin paper -- fig7 [--full]`
//!
//! The paper's 236 µs explicit-solvent run is compute-gated; this harness
//! runs the standard Gō-model substitution (DESIGN.md §2): locate the
//! model's melting temperature (equal folded/unfolded populations), then run
//! a long Langevin trajectory and report Q(t) and detected transitions.

use anton_analysis::detect_transitions;
use anton_refmd::LangevinIntegrator;
use anton_systems::GoModel;

fn folded_fraction_at(temp: f64, steps: usize, seed: u64) -> f64 {
    let model = GoModel::gpw();
    let native = model.native.clone();
    let n = model.n_beads();
    let mut li = LangevinIntegrator::new(model, native, vec![100.0; n], temp, 0.004, 12.0, seed);
    let mut folded = 0usize;
    let mut total = 0usize;
    for s in 0..steps {
        li.step();
        if s > steps / 4 && s % 20 == 0 {
            total += 1;
            if li.provider.fraction_native(&li.positions) > 0.6 {
                folded += 1;
            }
        }
    }
    folded as f64 / total.max(1) as f64
}

pub fn run() {
    let full = anton_bench::full_mode();

    // 1. Bracket the melting temperature.
    println!("locating the Gō-model melting temperature…");
    let (mut t_lo, mut t_hi) = (300.0f64, 3000.0f64);
    for _ in 0..7 {
        let mid = 0.5 * (t_lo + t_hi);
        let f = folded_fraction_at(mid, 120_000, 3);
        println!("  T = {mid:>5.0} K: folded fraction {f:.2}");
        if f > 0.5 {
            t_lo = mid;
        } else {
            t_hi = mid;
        }
    }
    // Bias to the folded-side bracket: transitions are slow and the folded
    // basin empties quickly above Tm, so the lower edge samples both states.
    let tm = 0.97 * t_lo;
    println!("melting temperature ≈ {tm:.0} K (model units)");

    // 2. Long run at Tm.
    let steps = if full { 8_000_000 } else { 2_000_000 };
    let model = GoModel::gpw();
    let native = model.native.clone();
    let n = model.n_beads();
    let mut li = LangevinIntegrator::new(model, native, vec![100.0; n], tm, 0.004, 12.0, 17);
    let mut q_series = Vec::new();
    for s in 0..steps {
        li.step();
        if s % 200 == 0 {
            q_series.push(li.provider.fraction_native(&li.positions));
        }
    }

    // 3. Report the trace (coarse ASCII sparkline) and events.
    let ev = detect_transitions(&q_series, 0.75, 0.35);
    anton_bench::header(
        "Figure 7 — gpW folding/unfolding at Tm (Gō model)",
        &["quantity", "value"],
    );
    println!("{:<26} | {}", "samples", q_series.len());
    println!("{:<26} | {:.2}", "folded fraction", ev.folded_fraction);
    println!("{:<26} | {}", "folding events", ev.folding_at.len());
    println!("{:<26} | {}", "unfolding events", ev.unfolding_at.len());

    println!(
        "\nQ(t) trace (each char = {} steps):",
        200 * (q_series.len() / 80).max(1)
    );
    let bins = 80.min(q_series.len());
    let chunk = q_series.len() / bins;
    let glyphs = [' ', '.', ':', '-', '=', '#'];
    let line: String = (0..bins)
        .map(|b| {
            let q: f64 = q_series[b * chunk..(b + 1) * chunk].iter().sum::<f64>() / chunk as f64;
            glyphs[((q * (glyphs.len() - 1) as f64).round() as usize).min(glyphs.len() - 1)]
        })
        .collect();
    println!("folded   ^ |{line}|");
    println!("unfolded v  (paper Fig. 7: repeated folding/unfolding over 236 µs at Tm)");

    if ev.folding_at.is_empty() && ev.unfolding_at.is_empty() {
        println!(
            "\nnote: no complete transitions in this window — rerun with --full \
             (the paper's observation needed hundreds of µs on Anton)"
        );
    }
}
