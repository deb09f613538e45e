//! Minimal gpW folding experiment on the public API: build the Gō model,
//! run Langevin dynamics near the melting temperature, and report the
//! native-contact coordinate (the Figure 7 workflow in miniature).
//!
//! `cargo run --release -p anton-core --example folding_gpw`

use anton_analysis::detect_transitions;
use anton_refmd::LangevinIntegrator;
use anton_systems::GoModel;

fn main() {
    let model = GoModel::gpw();
    println!(
        "gpW Gō model: {} beads, {} native contacts",
        model.n_beads(),
        model.contacts.len()
    );

    let native = model.native.clone();
    let n = model.n_beads();
    // Slightly below this model's melting point: folded with excursions.
    let mut li = LangevinIntegrator::new(model, native, vec![100.0; n], 650.0, 0.004, 12.0, 7);

    let mut q = Vec::new();
    for s in 0..300_000 {
        li.step();
        if s % 200 == 0 {
            q.push(li.provider.fraction_native(&li.positions));
        }
    }
    let ev = detect_transitions(&q, 0.75, 0.35);
    let (qmin, qmax) = q
        .iter()
        .fold((1.0f64, 0.0f64), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    println!(
        "Q(t): min {qmin:.2}, max {qmax:.2}; folded fraction {:.2}; {} unfolding / {} folding events",
        ev.folded_fraction,
        ev.unfolding_at.len(),
        ev.folding_at.len()
    );
    println!("(the full Figure 7 harness: cargo run -p anton-bench --bin paper -- fig7)");
}
