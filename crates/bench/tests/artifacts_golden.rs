//! Golden byte-identity for the paper-artifact CSVs: the checked-in
//! `results/TABLE_*.csv` files must regenerate bit-for-bit from the
//! checked-in benchmark JSON artifacts. Any drift — a formatting change, a
//! model retune, a column reorder — fails here (and in the CI leg that
//! runs `export_tables` + `git diff --exit-code`) until the tables are
//! intentionally regenerated and committed.

use anton_bench::artifacts::{all_tables, results_dir};
use anton_bench::json::Json;
use std::fs;

fn load(name: &str) -> Json {
    let path = results_dir().join(name);
    let text =
        fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    Json::parse(&text).unwrap_or_else(|e| panic!("parsing {}: {e}", path.display()))
}

#[test]
fn checked_in_tables_regenerate_byte_identically() {
    let tables = all_tables(
        &load("BENCH_scaling.json"),
        &load("TRACE_scaling.json"),
        &load("FLEET_drill.json"),
    )
    .expect("artifact build failed");
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
        "exported table set changed — update this test and the CI diff leg together"
    );
    for t in &tables {
        let path = results_dir().join(format!("{}.csv", t.name));
        let committed = fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "{} is not checked in ({e}); run `cargo run -p anton-bench --bin export_tables`",
                path.display()
            )
        });
        assert_eq!(
            committed,
            t.render_csv(),
            "{} drifted from its inputs; regenerate with \
             `cargo run -p anton-bench --bin export_tables` and commit the diff",
            t.name
        );
    }
}

#[test]
fn rendered_tables_are_schema_versioned_and_newline_clean() {
    let tables = all_tables(
        &load("BENCH_scaling.json"),
        &load("TRACE_scaling.json"),
        &load("FLEET_drill.json"),
    )
    .unwrap();
    for t in &tables {
        let csv = t.render_csv();
        assert!(
            csv.starts_with(&format!("# anton-tables/v1 {}\n", t.name)),
            "{} missing schema header",
            t.name
        );
        assert!(csv.ends_with('\n'), "{} not newline-terminated", t.name);
        assert!(!csv.contains('\r'), "{} contains CR bytes", t.name);
        // Renders are idempotent: a second render is the same bytes.
        assert_eq!(csv, t.render_csv());
    }
}

/// Phase coverage does not depend on the configuration: every row of the
/// checked-in traced pass — the one-rank plan included — records spans in
/// the same set of phases, so `TABLE_trace_phases.csv` has no structural
/// zeros. (`checkpoint` is excepted: it is emitted only where a store is
/// configured, which is the 8-node probe row alone.)
#[test]
fn every_trace_row_covers_the_same_phases() {
    let trace = load("TRACE_scaling.json");
    let rows = trace.get("rows").and_then(Json::as_arr).expect("rows");
    assert!(rows.len() >= 2);
    for row in rows {
        let silent: Vec<&str> = (row.get("phases").and_then(Json::as_arr).expect("phases"))
            .iter()
            .filter(|p| p.get("spans").and_then(Json::as_u64) == Some(0))
            .map(|p| p.get("phase").and_then(Json::as_str).expect("phase name"))
            .filter(|&name| name != "checkpoint")
            .collect();
        assert!(
            silent.is_empty(),
            "row nodes={:?} threads={:?} records no span for {silent:?}",
            row.get("nodes").and_then(Json::as_u64),
            row.get("threads").and_then(Json::as_u64),
        );
    }
}
