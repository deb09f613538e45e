//! The deterministic, fast `paper` sections must print exactly their
//! committed captures `results/<name>.txt`. The minutes-long deterministic
//! ones (`fig5_table4`, `fig6`, `fig7`) are diffed by a CI job of their
//! own; `table2` and `bpti` print host wall-clock lines and are not gated.

use anton_bench::results_dir;
use std::process::Command;

const GATED: [&str; 6] = [
    "fig3",
    "fig4",
    "table1",
    "table3",
    "section5_1",
    "ablations",
];

#[test]
fn fast_sections_print_their_committed_captures() {
    for name in GATED {
        let out = Command::new(env!("CARGO_BIN_EXE_paper"))
            .arg(name)
            .output()
            .unwrap_or_else(|e| panic!("run paper {name}: {e}"));
        assert!(out.status.success(), "paper {name} exited {}", out.status);
        let path = results_dir().join(format!("{name}.txt"));
        let committed = std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(
            out.stdout == committed,
            "paper {name} drifted from results/{name}.txt; if the change is intended, \
             regenerate with `cargo run --release -p anton-bench --bin paper -- {name} > \
             results/{name}.txt` and commit the diff"
        );
    }
}
