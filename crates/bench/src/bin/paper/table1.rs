//! Table 1: the longest published all-atom protein MD simulations, plus the
//! rates this reproduction's performance model assigns to the hardware each
//! ran on, and the wall-clock a millisecond costs at each rate.
//!
//! `cargo run --release -p anton-bench --bin paper -- table1`

use anton_core::system_stats;
use anton_machine::PerfModel;
use anton_systems::bpti;

pub fn run() {
    // (length µs, protein, hardware, software).
    let rows = [
        (1031.0, "BPTI", "Anton (512 nodes)", "[native]"),
        (236.0, "gpW", "Anton (512 nodes)", "[native]"),
        (10.0, "WW domain", "x86 cluster (NCSA Abe)", "NAMD"),
        (2.0, "villin HP-35", "x86", "GROMACS"),
        (2.0, "rhodopsin", "Blue Gene/L", "Blue Matter"),
        (2.0, "rhodopsin", "Blue Gene/L", "Blue Matter"),
        (2.0, "beta2AR", "x86 cluster", "Desmond"),
    ];
    anton_bench::header(
        "Table 1 — longest published all-atom protein simulations (paper data)",
        &["length (µs)", "protein", "hardware", "software"],
    );
    for (len, protein, hw, sw) in rows {
        println!("{len:>10.0} | {protein:<12} | {hw:<24} | {sw}");
    }

    // Our model's account of why the top rows are Anton's.
    let sys = bpti(1);
    let stats = system_stats(&sys);
    let anton = PerfModel::anton_512().breakdown(&stats);
    let cluster = PerfModel::commodity_cluster_us_per_day(&stats, 512, 2);
    println!("\nBPTI-system rates from this reproduction's performance model:");
    println!(
        "  Anton 512 nodes : {:>8.1} µs/day (paper measured 9.8, later 18.2)",
        anton.us_per_day
    );
    println!(
        "  512-node cluster: {:>8.3} µs/day (Desmond-class, §5.1 reports 0.471)",
        cluster
    );
    println!(
        "  => 1031 µs of BPTI ≈ {:>5.0} days on Anton vs {:>7.0} days on the cluster",
        1031.0 / anton.us_per_day,
        1031.0 / cluster
    );
}
