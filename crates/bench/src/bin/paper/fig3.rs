//! Figure 3: import regions of the NT method vs the traditional half-shell
//! method, plus the symmetric spreading-plate variant.
//!
//! `cargo run --release -p anton-bench --bin paper -- fig3`

use anton_nt::ImportRegions;

pub fn run() {
    anton_bench::header(
        "Figure 3 — import-region volumes (Å³), 13 Å cutoff",
        &[
            "box side",
            "NT tower",
            "NT plate",
            "NT total",
            "half-shell",
            "NT/half-shell",
            "spread plate",
        ],
    );
    for b in [4.0f64, 8.0, 13.0, 16.0, 26.0, 32.0] {
        let r = ImportRegions::new(b, 13.0);
        println!(
            "{:>8.0} | {:>9.0} | {:>9.0} | {:>9.0} | {:>10.0} | {:>12.2} | {:>11.0}",
            b,
            r.nt_tower_volume(),
            r.nt_plate_volume(),
            r.nt_total_volume(),
            r.half_shell_volume(),
            r.nt_total_volume() / r.half_shell_volume(),
            r.spreading_plate_volume(),
        );
    }
    println!(
        "\nThe NT advantage grows as boxes shrink relative to the cutoff — \
         \"an advantage that grows asymptotically as the level of parallelism increases\" (§3.2.1)."
    );

    // Voxel-integrated cross-check at one size.
    let r = ImportRegions::new(8.0, 13.0);
    let vox_nt = r.measure(|p| r.nt_tower(p) || r.nt_plate(p), 120);
    println!(
        "voxel cross-check (8 Å box): NT total {:.0} Å³ analytic vs {:.0} Å³ voxelized",
        r.nt_total_volume(),
        vox_nt
    );
}
