//! Golden checks for the paper-artifact CSVs. The model-only tables
//! (`TABLE_2`, `TABLE_4`) must regenerate bit-for-bit here; the run-fed
//! tables are rendered by `scaling` / `fleet_drill` from the rows they
//! measured (CI reruns both and `git diff --exit-code`s the bytes), so this
//! tier holds their checked-in headers to the builders' and their contents
//! to the structural invariants.

use anton_analysis::artifacts::Table;
use anton_bench::artifacts::{
    ckpt_table, fleet_table, scaling_table, table2, table4, trace_phases_table, CkptStats,
};
use anton_bench::results_dir;
use std::fs;

/// Every exported table in a fixed order: the two model tables in full,
/// the four run-fed ones as built from no rows (name, title and columns).
fn all_tables() -> Vec<Table> {
    vec![
        table2(),
        table4(),
        scaling_table(0, &[]),
        trace_phases_table(&[]),
        ckpt_table(&CkptStats::default()),
        fleet_table(0, &[], &[]),
    ]
}

fn committed(t: &Table) -> String {
    let path = results_dir().join(format!("{}.csv", t.name));
    fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{} is not checked in ({e}); run `paper tables`, `scaling` and `fleet_drill`",
            path.display()
        )
    })
}

/// The two `#` comment lines and the column header.
fn header(csv: &str) -> Vec<&str> {
    csv.lines().take(3).collect()
}

#[test]
fn checked_in_tables_regenerate_byte_identically() {
    let tables = all_tables();
    let names: Vec<&str> = tables.iter().map(|t| t.name).collect();
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
        "exported table set changed — update this test and the CI diff legs together"
    );
    for t in &tables[..2] {
        assert_eq!(
            committed(t),
            t.render_csv(),
            "{} drifted from the model; regenerate with \
             `cargo run -p anton-bench --bin paper -- tables` and commit the diff",
            t.name
        );
    }
    for t in &tables[2..] {
        assert_eq!(
            header(&committed(t)),
            header(&t.render_csv()),
            "{} header drifted from its builder; rerun `scaling` / `fleet_drill` \
             and commit the diff",
            t.name
        );
    }
}

#[test]
fn rendered_tables_are_schema_versioned_and_newline_clean() {
    for t in &all_tables() {
        let rendered = t.render_csv();
        // Renders are idempotent: a second render is the same bytes.
        assert_eq!(rendered, t.render_csv());
        for csv in [rendered, committed(t)] {
            assert!(
                csv.starts_with(&format!("# anton-tables/v1 {}\n", t.name)),
                "{} missing schema header",
                t.name
            );
            assert!(csv.ends_with('\n'), "{} not newline-terminated", t.name);
            assert!(!csv.contains('\r'), "{} contains CR bytes", t.name);
        }
    }
}

/// Phase coverage does not depend on the configuration: every row of the
/// checked-in traced pass — the one-rank plan included — records spans in
/// the same set of phases, so `TABLE_trace_phases.csv` has no structural
/// zeros. (`checkpoint` is excepted: it is emitted only where a store is
/// configured, which is the 8-node probe row alone.)
#[test]
fn every_trace_row_covers_the_same_phases() {
    let csv = committed(&trace_phases_table(&[]));
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
