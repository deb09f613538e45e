//! Ablations of the paper's design choices (DESIGN.md's "co-design" story):
//!
//! 1. Subboxes → match efficiency → *measured* PPIP utilization (the chain
//!    from Table 3 through §3.2.1's eight-match-units argument).
//! 2. NT method vs traditional half-shell: import volume → modeled
//!    communication time at several parallelism levels.
//! 3. GSE parameter trade (the Table 2 pivot): larger cutoff + coarser mesh
//!    vs smaller cutoff + finer mesh on both architectures.
//! 4. Fixed-point vs f64 FFT accuracy (what the flexible subsystem's 32-bit
//!    arithmetic costs).
//!
//! `cargo run --release -p anton-bench --bin paper -- ablations`

use anton_fft::fixed::{FxComplex, FxFft};
use anton_fft::{Complex, Fft1d};
use anton_machine::perf::dhfr_stats;
use anton_machine::{HtisSim, MachineConfig, PerfModel};
use anton_nt::{ImportRegions, MatchEfficiency};

pub fn run() {
    // ---- 1. Subboxes → utilization ----
    anton_bench::header(
        "Ablation 1 — subbox division → match efficiency → PPIP utilization (32 Å box, 13 Å cutoff)",
        &["subboxes", "match eff", "PPIP utilization (HTIS sim)"],
    );
    let sim = HtisSim::default();
    for s in [1usize, 2, 4] {
        let eff = MatchEfficiency::new(32.0, s, 13.0).analytic();
        let run = sim.run(2_000_000, eff, 11);
        println!(
            "{:>8} | {:>8.1}% | {:>6.1}%",
            s * s * s,
            eff * 100.0,
            run.utilization * 100.0
        );
    }
    println!("(§3.2.1: PPIPs approach full utilization once ≥1 matched pair/cycle arrives)");

    // ---- 2. NT vs half-shell import at increasing parallelism ----
    anton_bench::header(
        "Ablation 2 — NT vs half-shell import volume (13 Å cutoff)",
        &[
            "nodes for 62 Å box",
            "box edge",
            "NT import (Å³)",
            "half-shell (Å³)",
            "NT saves",
        ],
    );
    for nodes in [64usize, 512, 4096] {
        let edge = 62.2 / (nodes as f64).cbrt();
        let r = ImportRegions::new(edge, 13.0);
        println!(
            "{:>18} | {:>7.2} | {:>13.0} | {:>14.0} | {:>6.0}%",
            nodes,
            edge,
            r.nt_total_volume(),
            r.half_shell_volume(),
            100.0 * (1.0 - r.nt_total_volume() / r.half_shell_volume())
        );
    }

    // ---- 3. The electrostatics parameter pivot on both architectures ----
    anton_bench::header(
        "Ablation 3 — (cutoff, mesh) trade on Anton vs a 1-node machine (model)",
        &["config", "Anton 512 (µs/step)", "1 node (µs/step)"],
    );
    let m512 = PerfModel::anton_512();
    let m1 = PerfModel::new(MachineConfig::with_nodes(1));
    for (rc, mesh) in [(9.0, 64usize), (13.0, 32)] {
        let s = dhfr_stats(rc, mesh);
        println!(
            "{:>4} Å / {:>2}³ | {:>19.1} | {:>16.0}",
            rc,
            mesh,
            m512.breakdown(&s).lr_step_us,
            m1.breakdown(&s).lr_step_us
        );
    }
    println!(
        "(a 1-node Anton still has PPIPs, so it also prefers the large cutoff;\n\
         the x86 engine — where the same pivot costs ~2x — is profiled by the table2 binary)"
    );

    // ---- 4. Fixed-point FFT accuracy ----
    anton_bench::header(
        "Ablation 4 — fixed-point FFT error vs f64 (relative rms, random Q40 data)",
        &["length", "rel rms error"],
    );
    for n in [16usize, 32, 64] {
        let data: Vec<f64> = (0..n)
            .map(|i| ((i * 2654435761) % 1000) as f64 / 500.0 - 1.0)
            .collect();
        let mut fx: Vec<FxComplex> = data
            .iter()
            .map(|&x| FxComplex::new((x * (1i64 << 40) as f64) as i64, 0))
            .collect();
        FxFft::new(n).forward_scaled(&mut fx);
        let mut fl: Vec<Complex> = data.iter().map(|&x| Complex::new(x, 0.0)).collect();
        Fft1d::new(n).forward(&mut fl);
        let scale = 1.0 / n as f64;
        let mut num = 0.0;
        let mut den = 0.0;
        for (a, b) in fx.iter().zip(&fl) {
            let av = Complex::new(
                a.re as f64 / (1i64 << 40) as f64,
                a.im as f64 / (1i64 << 40) as f64,
            );
            let bv = b.scale(scale);
            num += (av - bv).norm2();
            den += bv.norm2();
        }
        println!("{n:>6} | {:>12.3e}", (num / den).sqrt());
    }
}
