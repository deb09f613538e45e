//! §5.1 headline performance claims: DHFR at 16.4 µs/day on 512 nodes,
//! 7.5 µs/day per 128-node partition, Desmond at 471 ns/day on a 512-node
//! commodity cluster, and the node-count scaling family.
//!
//! `cargo run --release -p anton-bench --bin paper -- section5_1`

use anton_machine::perf::dhfr_stats;
use anton_machine::{MachineConfig, PerfModel};

pub fn run() {
    let stats = dhfr_stats(13.0, 32);

    anton_bench::header(
        "§5.1 — DHFR (23,558 atoms) across machine configurations",
        &["nodes", "torus", "µs/day (model)", "paper"],
    );
    for &nodes in &[1usize, 8, 64, 128, 256, 512, 1024, 4096] {
        let cfg = MachineConfig::with_nodes(nodes);
        let b = PerfModel::new(cfg).breakdown(&stats);
        let paper = match nodes {
            512 => "16.4",
            128 => "7.5",
            _ => "-",
        };
        println!(
            "{nodes:>5} | {:?} | {:>13.2} | {paper}",
            cfg.torus, b.us_per_day
        );
    }

    let b512 = PerfModel::anton_512().breakdown(&stats);
    let b128 = PerfModel::new(MachineConfig::with_nodes(128)).breakdown(&stats);
    println!(
        "\n128-node partition delivers {:.0}% of 512-node performance (paper: \"well over 25%\")",
        100.0 * b128.us_per_day / b512.us_per_day
    );

    let cluster = PerfModel::commodity_cluster_us_per_day(&stats, 512, 2);
    println!(
        "commodity 512-node cluster model: {:.3} µs/day (paper Desmond: 0.471 µs/day)",
        cluster
    );
    println!(
        "Anton advantage over the cluster: x{:.0} (paper: ~35x vs best cluster result, \
         >100x vs practical cluster rates)",
        b512.us_per_day / cluster
    );
}
