//! Fixture-driven tests: one pass and one fail case per rule, driven
//! through the public `lint_source` API with a virtual workspace path.

use detlint::{lint_source, FileLint};

fn fixture(name: &str) -> String {
    let path = format!("{}/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// (rule, line) of every violation, in report order.
fn hits(lint: &FileLint) -> Vec<(&'static str, u32)> {
    lint.violations.iter().map(|v| (v.rule, v.line)).collect()
}

fn rules_hit(virtual_path: &str, name: &str) -> Vec<(String, u32)> {
    lint_source(virtual_path, &fixture(name))
        .violations
        .iter()
        .map(|v| (v.rule.to_string(), v.line))
        .collect()
}

#[test]
fn d1_flags_floats_in_fixed_point_core() {
    let hits = rules_hit("crates/fixpoint/src/fx32.rs", "fail_d1_float.rs");
    assert_eq!(hits, [("D1".into(), 4), ("D1".into(), 5), ("D1".into(), 8)]);
}

#[test]
fn d1_does_not_police_non_core_files() {
    // Same source under a crate outside the D1 file list: no violations.
    let hits = rules_hit("crates/refmd/src/anything.rs", "fail_d1_float.rs");
    assert_eq!(hits, []);
}

#[test]
fn d2_flags_unordered_containers() {
    let hits = rules_hit("crates/nt/src/bad.rs", "fail_d2_hashmap.rs");
    assert_eq!(hits, [("D2".into(), 4), ("D2".into(), 6)]);
}

#[test]
fn d2_covers_systems_but_not_refmd() {
    assert_eq!(
        rules_hit("crates/systems/src/bad.rs", "fail_d2_hashmap.rs"),
        [("D2".into(), 4), ("D2".into(), 6)]
    );
    assert_eq!(
        rules_hit("crates/refmd/src/ok.rs", "fail_d2_hashmap.rs"),
        []
    );
}

#[test]
fn d3_flags_lossy_casts_outside_rounding() {
    let hits = rules_hit("crates/fixpoint/src/bad.rs", "fail_d3_cast.rs");
    assert_eq!(hits, [("D3".into(), 5)]);
}

#[test]
fn d3_exempts_the_audited_rounding_module() {
    let hits = rules_hit("crates/fixpoint/src/rounding.rs", "fail_d3_cast.rs");
    assert_eq!(hits, []);
}

#[test]
fn d4_flags_wall_clock_and_thread_topology() {
    let hits = rules_hit("crates/core/src/bad.rs", "fail_d4_instant.rs");
    assert_eq!(hits, [("D4".into(), 4), ("D4".into(), 7), ("D4".into(), 8)]);
}

#[test]
fn d5_flags_parallel_float_reductions() {
    let hits = rules_hit("crates/ewald/src/bad.rs", "fail_d5_rayon.rs");
    assert_eq!(hits, [("D5".into(), 5)]);
}

#[test]
fn d5_flags_cross_thread_channel_reductions() {
    let hits = rules_hit("crates/core/src/bad.rs", "fail_d5_thread.rs");
    assert_eq!(hits, [("D5".into(), 6)]);
}

#[test]
fn d5_accepts_rank_indexed_merge_after_scoped_fanout() {
    // The sanctioned pattern: scoped threads fill disjoint buffers, the
    // caller merges serially — reducers inside the spawned closures are
    // private and must not fire.
    let hits = rules_hit("crates/core/src/good.rs", "pass_d5_ranks.rs");
    assert_eq!(hits, []);
}

#[test]
fn d5_accepts_pencil_fanout_with_rank_ordered_mesh_merge() {
    // The distributed-FFT shape: scoped workers own disjoint pencil chunks,
    // the charge meshes merge serially in rank order after the scope.
    let hits = rules_hit("crates/fft/src/good.rs", "pass_d5_fft_pencils.rs");
    assert_eq!(hits, []);
}

#[test]
fn d5_flags_unordered_pencil_merge() {
    let hits = rules_hit("crates/fft/src/bad.rs", "fail_d5_fft_merge.rs");
    assert_eq!(hits, [("D5".into(), 6)]);
}

#[test]
fn d5_accepts_fixed_order_batch_merge() {
    // The batched match/evaluate shape: scoped workers fill disjoint
    // per-rank batch queues, the caller merges serially in rank order.
    let hits = rules_hit("crates/core/src/good.rs", "pass_d5_batch_merge.rs");
    assert_eq!(hits, []);
}

#[test]
fn d5_flags_arrival_order_batch_merge() {
    // Same pipeline with batches drained off a channel: the accumulation
    // order becomes the thread finish order — D5 fires on the reduction.
    let hits = rules_hit("crates/core/src/bad.rs", "fail_d5_batch_merge.rs");
    assert_eq!(hits, [("D5".into(), 7)]);
}

#[test]
fn d5_flags_cache_epoch_channel_merge() {
    // The match-cache rebuild decision folded out of a channel drain: the
    // epoch becomes a function of thread completion order, so the cached
    // pair list (and everything downstream of it) stops being a pure
    // function of the trajectory — D5 fires on the fold.
    let hits = rules_hit("crates/core/src/bad.rs", "fail_d5_cache_epoch_merge.rs");
    assert_eq!(hits, [("D5".into(), 8)]);
}

#[test]
fn d5_accepts_slab_ordered_cache_epoch_merge() {
    // The sanctioned monitor shape: per-slab maxima in disjoint slots,
    // folded serially in slab order — the rebuild schedule is trajectory-
    // determined and identical on every decomposition.
    let hits = rules_hit("crates/core/src/good.rs", "pass_d5_cache_epoch_merge.rs");
    assert_eq!(hits, []);
}

#[test]
fn trace_crate_is_on_the_simulation_path() {
    // The trace crate joined DET_CRATES: an unsanctioned wall-clock read
    // there is a D4 violation like anywhere else in the deterministic core.
    let hits = rules_hit("crates/trace/src/bad.rs", "fail_trace_wallclock.rs");
    assert_eq!(hits, [("D4".into(), 5), ("D4".into(), 8)]);
}

#[test]
fn sanctioned_trace_shape_passes() {
    // The shape the real `anton-trace` uses: one audited clock origin
    // behind an allow(D4), integer timestamps in per-rank lanes, serial
    // rank-ordered merge after the scoped fan-out.
    // Linted as the audited clock file: an allow(D4) anywhere else in
    // `trace` is a D6.
    let lint = lint_source(
        "crates/trace/src/clock.rs",
        &fixture("pass_trace_rank_merge.rs"),
    );
    assert_eq!(lint.violations, []);
    assert_eq!(lint.allows.len(), 1);
    assert_eq!(lint.allows[0].rule, "D4");
    assert!(!lint.allows[0].reason.is_empty());
}

#[test]
fn ckpt_crate_is_on_the_simulation_path() {
    // `ckpt` joined DET_CRATES: deriving checkpoint names from the wall
    // clock makes recovery order host-dependent — D4 fires on the import
    // and on the read.
    let hits = rules_hit("crates/ckpt/src/bad.rs", "fail_ckpt_wallclock_name.rs");
    assert_eq!(hits, [("D4".into(), 6), ("D4".into(), 9)]);
}

#[test]
fn sanctioned_ckpt_atomic_write_shape_passes() {
    // The shape the real `anton-ckpt` store uses: step-derived names and
    // tmp + fsync + atomic rename, with no clock read to annotate.
    let lint = lint_source(
        "crates/ckpt/src/good.rs",
        &fixture("pass_ckpt_atomic_write.rs"),
    );
    assert_eq!(lint.violations, []);
    assert_eq!(lint.allows.len(), 0);
}

#[test]
fn meta_flags_malformed_directives() {
    let hits = rules_hit("crates/core/src/bad.rs", "fail_meta_directives.rs");
    let rules: Vec<&str> = hits.iter().map(|(r, _)| r.as_str()).collect();
    assert_eq!(rules, ["META", "META", "META", "META"]);
}

#[test]
fn allow_suppresses_exactly_its_rule_and_records_reason() {
    // The allow mechanics, exercised where an allow(D4) is legal (D6).
    let lint = lint_source("crates/trace/src/clock.rs", &fixture("pass_allowed.rs"));
    assert_eq!(lint.violations, []);
    assert_eq!(lint.allows.len(), 2);
    assert!(lint
        .allows
        .iter()
        .all(|a| a.rule == "D4" && !a.reason.is_empty()));
}

#[test]
fn allow_for_the_wrong_rule_does_not_suppress() {
    let src = fixture("pass_allowed.rs").replace("allow(D4", "allow(D2");
    let lint = lint_source("crates/trace/src/clock.rs", &src);
    assert!(lint.violations.iter().all(|v| v.rule == "D4"));
    assert_eq!(lint.violations.len(), 2);
}

#[test]
fn boundary_admits_d1_and_d3_for_the_item() {
    let lint = lint_source("crates/fixpoint/src/fx32.rs", &fixture("pass_boundary.rs"));
    assert_eq!(lint.violations, []);
    assert_eq!(lint.boundaries.len(), 1);
    let b = &lint.boundaries[0];
    assert!(
        b.end_line > b.line,
        "boundary should span the following item"
    );
}

#[test]
fn boundary_does_not_leak_past_its_item() {
    // Append a float after the boundary item: it must be flagged.
    let src = format!(
        "{}\npub fn leak() -> f64 {{ 0.25 }}\n",
        fixture("pass_boundary.rs")
    );
    let lint = lint_source("crates/fixpoint/src/fx32.rs", &src);
    assert_eq!(lint.violations.len(), 1);
    assert_eq!(lint.violations[0].rule, "D1");
}

#[test]
fn cfg_test_regions_are_exempt() {
    let lint = lint_source("crates/nt/src/good.rs", &fixture("pass_cfg_test.rs"));
    assert_eq!(lint.violations, []);
}

#[test]
fn clean_fixed_point_code_passes() {
    let lint = lint_source("crates/fixpoint/src/fx32.rs", &fixture("pass_clean.rs"));
    assert_eq!(lint.violations, []);
}

#[test]
fn d6_flags_a_nondeterminism_allow_outside_the_audited_files() {
    // The leak is refused at its source: the allow(D4) still silences D4,
    // but the directive itself is a D6 unless policy.rs names the file.
    let lint = lint_source(
        "crates/core/src/x.rs",
        &fixture("fail_d6_unaudited_allow.rs"),
    );
    assert_eq!(hits(&lint), [("D6", 8)]);
    let v = &lint.violations[0];
    assert!(v.message.contains("D4"), "{}", v.message);
    assert!(
        v.message.contains("policy::NONDET_AUDITED_FILES"),
        "{}",
        v.message
    );
    assert_eq!(
        rules_hit("crates/trace/src/clock.rs", "fail_d6_unaudited_allow.rs"),
        []
    );
}

#[test]
fn d6_is_not_legalised_by_a_boundary() {
    // state.rs is a D1 file, so the boundary itself is well-formed — and
    // changes nothing: a boundary permits D1/D3, never a wall-clock allow.
    let src = fixture("fail_d6_unaudited_allow.rs").replace(
        "pub fn host_jitter_ns",
        "// detlint::boundary(reason = \"audited absorber, says the comment\")\npub fn host_jitter_ns",
    );
    let lint = lint_source("crates/core/src/state.rs", &src);
    assert_eq!(lint.boundaries.len(), 1);
    assert_eq!(hits(&lint), [("D6", 9)]);
}

#[test]
fn d6_cannot_be_allowed() {
    let src = fixture("fail_d6_unaudited_allow.rs").replace(
        "    // detlint::allow(D4",
        "    // detlint::allow(D6, reason = \"trust me\")\n    // detlint::allow(D4",
    );
    let lint = lint_source("crates/core/src/x.rs", &src);
    assert_eq!(hits(&lint), [("META", 8), ("D6", 9)]);
    assert!(lint.allows.iter().all(|a| a.rule != "D6"));
}

#[test]
fn d6_ignores_value_precision_allows_and_unpoliced_paths() {
    // D1/D3/D7/D8 allows are deterministic by construction: no D6 at any
    // path, audited or not.
    for rule in ["D1", "D3", "D7", "D8"] {
        let src = format!("// detlint::allow({rule}, reason = \"r\")\npub fn f() {{}}\n");
        for path in [
            "crates/core/src/x.rs",
            "crates/fixpoint/src/fx32.rs",
            "crates/ckpt/src/codec.rs",
            "crates/trace/src/clock.rs",
            "crates/refmd/src/x.rs",
        ] {
            assert_eq!(lint_source(path, &src).violations, [], "{rule} at {path}");
        }
    }
    // Where D4 does not apply its allow is inert, and D6 says nothing.
    assert_eq!(
        rules_hit("crates/refmd/src/x.rs", "fail_d6_unaudited_allow.rs"),
        []
    );
    assert_eq!(
        rules_hit("crates/core/tests/x.rs", "fail_d6_unaudited_allow.rs"),
        []
    );
    // D2 reaches one crate further than D4/D5, and D6 follows it.
    let d2 = "// detlint::allow(D2, reason = \"r\")\nuse std::collections::HashMap;\n";
    assert_eq!(
        hits(&lint_source("crates/systems/src/x.rs", d2)),
        [("D6", 1)]
    );
}

#[test]
fn boundary_outside_d1_and_d3_files_is_meta() {
    let src = "// detlint::boundary(reason = \"audited socket I/O edge\")\npub fn serve() {}\n";
    let lint = lint_source("crates/fleet/src/daemon.rs", src);
    assert_eq!(hits(&lint), [("META", 1)]);
    assert_eq!(lint.boundaries.len(), 0);
}

#[test]
fn d7_flags_unchecked_raw_fixed_point_arithmetic() {
    let hits = rules_hit("crates/core/src/bad.rs", "fail_d7_raw_arith.rs");
    let rules: Vec<&str> = hits.iter().map(|(r, _)| r.as_str()).collect();
    assert_eq!(rules, ["D7", "D7", "D7", "D7"], "hits: {hits:?}");
}

#[test]
fn d7_exempts_fixpoint_wrappers_and_sanctioned_shapes() {
    // Inside fixpoint the wrappers themselves are the sanctioned home of
    // raw arithmetic; outside, wrapping_* / shifts-right / comparisons and
    // an audited allow(D7) are all clean.
    // (the fixture's `as usize` index trips D3 under fixpoint — only D7's
    // silence matters here)
    let fixpoint_hits = rules_hit("crates/fixpoint/src/fx32.rs", "fail_d7_raw_arith.rs");
    assert!(
        fixpoint_hits.iter().all(|(r, _)| r != "D7"),
        "hits: {fixpoint_hits:?}"
    );
    assert_eq!(
        rules_hit("crates/core/src/good.rs", "pass_d7_wrapping.rs"),
        []
    );
}

#[test]
fn d7_flags_raw_arith_in_batch_kernels() {
    // A match-batch kernel doing bare `+ - * <<` on raw lanes: every
    // unchecked op adjacent to a `.raw()` read fires; the comparison-only
    // cutoff test stays silent.
    let hits = rules_hit("crates/core/src/bad.rs", "fail_d7_batch_kernel.rs");
    let rules: Vec<&str> = hits.iter().map(|(r, _)| r.as_str()).collect();
    assert_eq!(rules, ["D7", "D7", "D7", "D7"], "hits: {hits:?}");
}

#[test]
fn d7_accepts_sanctioned_batch_kernel_shape() {
    // The shape the real match stage uses: raw bits on their own binding,
    // wrapping ops, right shifts, masks and comparisons only.
    let hits = rules_hit("crates/core/src/good.rs", "pass_d7_batch_kernel.rs");
    assert_eq!(hits, []);
}

#[test]
fn d7_flags_raw_q20_displacement_monitor() {
    // A displacement monitor doing bare `- * <<` on raw Q20 components:
    // the subtraction, the doubled threshold, and the shift all fire; the
    // epoch-equality comparison stays silent.
    let hits = rules_hit("crates/core/src/bad.rs", "fail_d7_q20_displacement.rs");
    let rules: Vec<&str> = hits.iter().map(|(r, _)| r.as_str()).collect();
    assert_eq!(rules, ["D7", "D7", "D7"], "hits: {hits:?}");
}

#[test]
fn d7_accepts_wrapped_displacement_monitor() {
    // The real monitor's shape: wrapping_sub displacements, the doubled
    // threshold behind an audited allow, raw reads only in comparisons.
    let hits = rules_hit("crates/core/src/good.rs", "pass_d7_q20_displacement.rs");
    assert_eq!(hits, []);
}

#[test]
fn d8_flags_native_endian_bytes_in_payload_paths() {
    // The fixture's wrong-rule allow(D2) does not suppress the transmute's
    // D8 — and, `ckpt` being no audited file, earns a D6 of its own.
    let hits = rules_hit("crates/ckpt/src/bad.rs", "fail_d8_ne_bytes.rs");
    let rules: Vec<&str> = hits.iter().map(|(r, _)| r.as_str()).collect();
    assert_eq!(rules, ["D8", "D8", "D6", "D8"], "hits: {hits:?}");
}

#[test]
fn d8_scope_is_ckpt_and_trace_only() {
    // The same source outside the payload crates is not D8's business
    // (what remains is the D6 of its allow(D2)).
    assert_eq!(
        rules_hit("crates/core/src/bad.rs", "fail_d8_ne_bytes.rs"),
        [("D6".into(), 15)]
    );
    assert_eq!(
        rules_hit("crates/trace/src/good.rs", "pass_d8_le_bytes.rs"),
        []
    );
}

#[test]
fn analysis_verify_is_a_d1_file() {
    // `analysis` joined the simulation path and verify.rs joined the D1
    // list: a float-tolerance comparison in an identity check fires like
    // any float in the fixed-point core.
    let hits = rules_hit(
        "crates/analysis/src/verify.rs",
        "fail_analysis_float_tolerance.rs",
    );
    assert_eq!(hits, [("D1".into(), 5), ("D1".into(), 6), ("D1".into(), 9)]);
    // The ban is scoped to the identity checks: the statistics modules of
    // the same crate keep ordinary floating point.
    assert_eq!(
        rules_hit(
            "crates/analysis/src/stats.rs",
            "fail_analysis_float_tolerance.rs"
        ),
        []
    );
}

#[test]
fn exact_integer_identity_checks_pass_in_analysis() {
    let hits = rules_hit(
        "crates/analysis/src/verify.rs",
        "pass_analysis_exact_sum.rs",
    );
    assert_eq!(hits, []);
}

#[test]
fn raw_strings_and_nested_comments_do_not_smuggle_violations() {
    let lint = lint_source(
        "crates/core/src/good.rs",
        &fixture("pass_raw_string_smuggle.rs"),
    );
    assert_eq!(lint.violations, []);
}

/// The real workspace must be clean: this is the same gate as
/// `cargo run -p detlint -- check`, run as a plain unit test so `cargo test`
/// alone already enforces the determinism policy.
#[test]
fn workspace_is_clean() {
    let root = format!("{}/../..", env!("CARGO_MANIFEST_DIR"));
    let ws = detlint::lint_workspace(std::path::Path::new(&root)).expect("scan workspace");
    assert!(
        ws.files.len() > 50,
        "workspace scan looks wrong: only {} files",
        ws.files.len()
    );
    let rendered: Vec<String> = ws
        .violations
        .iter()
        .map(|v| format!("[{}] {}:{}:{} {}", v.rule, v.file, v.line, v.col, v.message))
        .collect();
    assert!(
        rendered.is_empty(),
        "determinism violations:\n{}",
        rendered.join("\n")
    );
    assert!(ws.allows.iter().all(|a| !a.reason.trim().is_empty()));
    // The audited-files table neither lags the tree nor holds a stale entry.
    let mut nondet: Vec<&str> = ws
        .allows
        .iter()
        .filter(|a| matches!(a.rule, "D2" | "D4" | "D5"))
        .map(|a| a.file.as_str())
        .collect();
    nondet.dedup();
    assert_eq!(nondet, detlint::policy::NONDET_AUDITED_FILES);
}
