//! Table 3: match efficiency of the NT method.
//!
//! `cargo run --release -p anton-bench --bin paper -- table3 [--full]`
//! (`--full` adds the Monte Carlo cross-check, which is slower.)

use anton_nt::MatchEfficiency;

pub fn run() {
    let paper: [[f64; 3]; 3] = [[0.25, 0.40, 0.51], [0.12, 0.25, 0.40], [0.04, 0.12, 0.25]];
    anton_bench::header(
        "Table 3 — NT match efficiency, 13 Å cutoff (ours vs paper)",
        &["box side", "1x1x1", "2x2x2", "4x4x4"],
    );
    for (bi, &b) in [8.0f64, 16.0, 32.0].iter().enumerate() {
        let mut row = format!("{b:>7.0} Å");
        for (si, &s) in [1usize, 2, 4].iter().enumerate() {
            let eff = MatchEfficiency::new(b, s, 13.0).analytic();
            row += &format!(
                " | {:>4.0}% (paper {:>2.0}%)",
                eff * 100.0,
                paper[bi][si] * 100.0
            );
        }
        println!("{row}");
    }

    if anton_bench::full_mode() {
        println!("\nMonte Carlo cross-check (explicit random atoms, box 8 Å):");
        for s in [1usize, 2, 4] {
            let me = MatchEfficiency::new(8.0, s, 13.0);
            let mc: f64 = (0..8).map(|k| me.monte_carlo(0.05, 100 + k)).sum::<f64>() / 8.0;
            println!(
                "  subdiv {s}: analytic {:.1}%  monte-carlo {:.1}%",
                me.analytic() * 100.0,
                mc * 100.0
            );
        }
    }
}
