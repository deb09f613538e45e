//! Fixture-driven tests: one pass and one fail case per rule, driven
//! through the public `lint_source` API with a virtual workspace path.

use detlint::lint_source;

fn fixture(name: &str) -> String {
    let path = format!("{}/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
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
    let lint = lint_source(
        "crates/trace/src/good.rs",
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
    let lint = lint_source("crates/ewald/src/good.rs", &fixture("pass_allowed.rs"));
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
    let lint = lint_source("crates/ewald/src/good.rs", &src);
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
fn d6_taints_across_an_intermediate_call_invisible_per_file() {
    // The canonical leak the per-file rules cannot see: every file lints
    // clean in isolation (the source's Instant is behind an allow(D4)),
    // but engine -> helper -> source is a chain from a simulation root
    // into a nondeterminism source with no boundary in between.
    let files = vec![
        (
            "crates/core/src/engine.rs".to_string(),
            fixture("d6_engine.rs"),
        ),
        (
            "crates/nt/src/helper.rs".to_string(),
            fixture("d6_helper.rs"),
        ),
        (
            "crates/trace/src/stamp.rs".to_string(),
            fixture("d6_source.rs"),
        ),
    ];
    let per_file_clean = files
        .iter()
        .all(|(p, s)| lint_source(p, s).violations.is_empty());
    assert!(per_file_clean, "each file must be clean in isolation");

    let ws = detlint::lint_sources(&files);
    let d6: Vec<_> = ws.violations.iter().filter(|v| v.rule == "D6").collect();
    assert_eq!(d6.len(), 1, "violations: {:?}", ws.violations);
    let v = d6[0];
    assert_eq!(v.file, "crates/nt/src/helper.rs");
    assert!(v.message.contains("run_cycle"), "{}", v.message);
    assert!(v.message.contains("pace_budget"), "{}", v.message);
    assert!(v.message.contains("host_jitter_ns"), "{}", v.message);
    assert!(
        v.message
            .contains("D4-class `Instant` at crates/trace/src/stamp.rs"),
        "{}",
        v.message
    );
}

#[test]
fn d6_boundary_absorbs_the_taint() {
    // Same chain, but the source item is declared an audited boundary:
    // taint is absorbed and the chain is sanctioned.
    let files = vec![
        (
            "crates/core/src/engine.rs".to_string(),
            fixture("d6_engine.rs"),
        ),
        (
            "crates/nt/src/helper.rs".to_string(),
            fixture("d6_helper.rs"),
        ),
        (
            "crates/trace/src/stamp.rs".to_string(),
            fixture("d6_source_boundary.rs"),
        ),
    ];
    let ws = detlint::lint_sources(&files);
    assert_eq!(ws.violations, [], "boundary must absorb the chain");
}

#[test]
fn d6_allow_on_the_call_site_cuts_the_edge() {
    // allow(D6) on the edge that enters the source sanctions exactly that
    // call without blessing the source for other callers.
    let helper = fixture("d6_helper.rs").replace(
        "    1 + host_jitter_ns(step) % 2",
        "    // detlint::allow(D6, reason = \"jitter only widens the pacing budget; the result gates sleep, not state\")\n    1 + host_jitter_ns(step) % 2",
    );
    assert!(helper.contains("allow(D6"), "fixture edit must apply");
    let files = vec![
        (
            "crates/core/src/engine.rs".to_string(),
            fixture("d6_engine.rs"),
        ),
        ("crates/nt/src/helper.rs".to_string(), helper),
        (
            "crates/trace/src/stamp.rs".to_string(),
            fixture("d6_source.rs"),
        ),
    ];
    let ws = detlint::lint_sources(&files);
    assert_eq!(ws.violations, [], "allow(D6) must cut the edge");
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
    let hits = rules_hit("crates/ckpt/src/bad.rs", "fail_d8_ne_bytes.rs");
    let rules: Vec<&str> = hits.iter().map(|(r, _)| r.as_str()).collect();
    assert_eq!(rules, ["D8", "D8", "D8"], "hits: {hits:?}");
}

#[test]
fn d8_scope_is_ckpt_and_trace_only() {
    // The same source outside the payload crates is not D8's business.
    assert_eq!(
        rules_hit("crates/core/src/bad.rs", "fail_d8_ne_bytes.rs"),
        []
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
}
