//! Golden checks for the paper-artifact CSVs: `build_tables` regenerates
//! all six `results/TABLE_*.csv` in this process — the model tables, the
//! node/thread sweep with its traced rows and checkpoint probe, and the
//! fleet's canonical pass, each asserting its own invariants — and every
//! byte must equal the committed file.

use anton_analysis::artifacts::Table;
use anton_bench::artifacts::build_tables;
use anton_bench::results_dir;
use std::fs;
use std::sync::OnceLock;

/// The tables, built once per test binary.
fn tables() -> &'static [Table] {
    static TABLES: OnceLock<Vec<Table>> = OnceLock::new();
    TABLES.get_or_init(|| build_tables().expect("build the paper tables").tables)
}

fn committed(name: &str) -> String {
    let path = results_dir().join(format!("{name}.csv"));
    fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{} is not checked in ({e}); run `paper tables`",
            path.display()
        )
    })
}

#[test]
fn checked_in_tables_regenerate_byte_identically() {
    let names: Vec<&str> = tables().iter().map(|t| t.name).collect();
    assert_eq!(
        names,
        [
            "TABLE_2",
            "TABLE_4",
            "TABLE_scaling",
            "TABLE_trace_phases",
            "TABLE_ckpt",
            "TABLE_fleet"
        ],
        "exported table set changed"
    );
    for t in tables() {
        let (want, got) = (committed(t.name), t.render_csv());
        if want != got {
            let line = want
                .lines()
                .zip(got.lines())
                .position(|(w, g)| w != g)
                .map_or_else(|| "length".to_string(), |i| format!("line {}", i + 1));
            panic!(
                "{} drifted from the code at {line}; if the change is intended, \
                 regenerate with `cargo run --release -p anton-bench --bin paper -- tables` \
                 and commit the diff",
                t.name
            );
        }
    }
}

#[test]
fn rendered_tables_are_schema_versioned_and_newline_clean() {
    for t in tables() {
        let rendered = t.render_csv();
        // Renders are idempotent: a second render is the same bytes.
        assert_eq!(rendered, t.render_csv());
        assert!(
            rendered.starts_with(&format!("# anton-tables/v1 {}\n", t.name)),
            "{} missing schema header",
            t.name
        );
        assert!(
            rendered.ends_with('\n'),
            "{} not newline-terminated",
            t.name
        );
        assert!(!rendered.contains('\r'), "{} contains CR bytes", t.name);
    }
}

/// Phase coverage does not depend on the configuration: every traced row —
/// the one-rank plan included — records spans in the same set of phases,
/// so `TABLE_trace_phases.csv` has no structural zeros. (`checkpoint` is
/// excepted: it is emitted only where a store is configured, which is the
/// 8-node probe row alone.)
#[test]
fn every_trace_row_covers_the_same_phases() {
    let csv = committed("TABLE_trace_phases");
    let mut configurations = std::collections::BTreeSet::new();
    for line in csv.lines().skip(3) {
        let cells: Vec<&str> = line.split(',').collect();
        let [nodes, threads, phase, spans, ..] = cells[..] else {
            panic!("short row {line:?}");
        };
        configurations.insert((nodes, threads));
        assert!(
            spans != "0" || phase == "checkpoint",
            "row nodes={nodes} threads={threads} records no span for {phase}"
        );
    }
    assert!(configurations.len() >= 2);
}
