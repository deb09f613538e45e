//! Fixture-driven tests: one pass and one fail case per rule. The rules
//! detlint keeps (D1's float tokens, D6) run through `lint_source` with a
//! virtual workspace path. The clippy-owned rules run through clippy
//! itself: each case becomes a throw-away crate whose root carries the
//! lint attributes of the file it is linted "as" (`policy::clippy_attrs`),
//! under the real `[workspace.lints]` and the real root `clippy.toml`, and
//! one `cargo clippy -- -D warnings` checks them all, as CI checks the tree.

use detlint::{clippy, lint_source, policy, FileLint};
use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;
use std::sync::OnceLock;

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

fn fixture(name: &str) -> String {
    let path = format!("{}/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// (rule, line) of every detlint violation, in report order.
fn hits(lint: &FileLint) -> Vec<(&'static str, u32)> {
    lint.violations.iter().map(|v| (v.rule, v.line)).collect()
}

fn rules_hit(virtual_path: &str, name: &str) -> Vec<(&'static str, u32)> {
    hits(&lint_source(virtual_path, &fixture(name)))
}

// ---------------------------------------------------------------------------
// The clippy harness
// ---------------------------------------------------------------------------

/// Every case clippy checks: (virtual path, fixture name or variant label).
const CASES: &[(&str, &str)] = &[
    ("crates/core/src/state.rs", "fail_d1_untyped_float_arith.rs"),
    ("crates/nt/src/bad.rs", "fail_d2_hashmap.rs"),
    ("crates/systems/src/bad.rs", "fail_d2_hashmap.rs"),
    ("crates/refmd/src/ok.rs", "fail_d2_hashmap.rs"),
    ("crates/fixpoint/src/bad.rs", "fail_d3_cast.rs"),
    ("crates/fixpoint/src/rounding.rs", "real rounding.rs"),
    ("crates/core/src/bad.rs", "fail_d4_instant.rs"),
    ("crates/ewald/src/bad.rs", "fail_d5_spawn_sum.rs"),
    ("crates/core/src/bad.rs", "fail_d5_thread.rs"),
    ("crates/core/src/pool.rs", "pass_d5_ranks.rs"),
    ("crates/core/src/pool.rs", "pass_d5_fft_pencils.rs"),
    ("crates/fft/src/bad.rs", "fail_d5_fft_merge.rs"),
    ("crates/core/src/pool.rs", "pass_d5_batch_merge.rs"),
    ("crates/core/src/bad.rs", "fail_d5_batch_merge.rs"),
    ("crates/core/src/bad.rs", "fail_d5_cache_epoch_merge.rs"),
    ("crates/core/src/pool.rs", "pass_d5_cache_epoch_merge.rs"),
    ("crates/trace/src/bad.rs", "fail_trace_wallclock.rs"),
    ("crates/trace/src/clock.rs", "pass_trace_rank_merge.rs"),
    ("crates/ckpt/src/bad.rs", "fail_ckpt_wallclock_name.rs"),
    ("crates/ckpt/src/good.rs", "pass_ckpt_atomic_write.rs"),
    ("crates/core/src/bad.rs", "fail_meta_directives.rs"),
    ("crates/trace/src/clock.rs", "pass_allowed.rs"),
    ("crates/trace/src/clock.rs", "wrong-lint pass_allowed.rs"),
    ("crates/fixpoint/src/fx32.rs", "pass_boundary.rs"),
    ("crates/nt/src/good.rs", "pass_cfg_test.rs"),
    ("crates/fixpoint/src/fx32.rs", "pass_clean.rs"),
    ("crates/core/src/x.rs", "fail_d6_unaudited_allow.rs"),
    ("crates/fleet/src/daemon.rs", "float expect without floats"),
    ("crates/core/src/bad.rs", "fail_d7_raw_arith.rs"),
    ("crates/core/src/good.rs", "pass_d7_wrapping.rs"),
    ("crates/core/src/bad.rs", "fail_d7_batch_kernel.rs"),
    ("crates/core/src/good.rs", "pass_d7_batch_kernel.rs"),
    ("crates/core/src/bad.rs", "fail_d7_q20_displacement.rs"),
    ("crates/core/src/good.rs", "pass_d7_q20_displacement.rs"),
    ("crates/ckpt/src/bad.rs", "fail_d8_ne_bytes.rs"),
    ("crates/core/src/bad.rs", "fail_d8_ne_bytes.rs"),
    ("crates/refmd/src/bad.rs", "fail_d8_ne_bytes.rs"),
    ("crates/trace/src/good.rs", "pass_d8_le_bytes.rs"),
    (
        "crates/analysis/src/verify.rs",
        "fail_analysis_float_tolerance.rs",
    ),
    (
        "crates/analysis/src/verify.rs",
        "pass_analysis_exact_sum.rs",
    ),
    ("crates/core/src/state.rs", "pass_raw_string_smuggle.rs"),
];

/// The source of a case: a fixture file, or one of the named variants.
fn case_source(name: &str) -> String {
    match name {
        "real rounding.rs" => fs::read_to_string(root().join("crates/fixpoint/src/rounding.rs"))
            .expect("read rounding.rs"),
        "wrong-lint pass_allowed.rs" => fixture("pass_allowed.rs")
            .replace(
                "clippy::disallowed_types, clippy::disallowed_methods",
                "clippy::disallowed_methods",
            )
            .replace(
                "expect(clippy::disallowed_types",
                "expect(clippy::disallowed_methods",
            ),
        "float expect without floats" => "#[expect(clippy::float_arithmetic, reason = \"audited \
                                          socket I/O edge\")]\npub fn serve() {}\n"
            .to_string(),
        _ => fixture(name),
    }
}

/// The `[workspace.lints.*]` tables of the real root manifest, verbatim.
fn workspace_lints() -> String {
    let manifest = fs::read_to_string(root().join("Cargo.toml")).expect("read Cargo.toml");
    let mut on = false;
    let mut out = String::new();
    for line in manifest.lines() {
        if line.starts_with('[') {
            on = line.starts_with("[workspace.lints");
        }
        if on {
            out.push_str(line);
            out.push('\n');
        }
    }
    assert!(out.contains("[workspace.lints.clippy]"), "{out}");
    out
}

/// (lint or error code, line) of every clippy diagnostic, per case.
fn clippy_results() -> &'static BTreeMap<usize, Vec<(String, u32)>> {
    static RESULTS: OnceLock<BTreeMap<usize, Vec<(String, u32)>>> = OnceLock::new();
    RESULTS.get_or_init(|| {
        let root = root();
        let dir = std::env::temp_dir().join(format!("detlint-fixtures-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut members = Vec::new();
        for (i, (path, name)) in CASES.iter().enumerate() {
            let krate = format!("c{i}");
            let src = dir.join(&krate).join("src");
            fs::create_dir_all(&src).expect("create case dir");
            let manifest = format!(
                "[package]\nname = \"{krate}\"\nversion = \"0.0.0\"\nedition = \"2021\"\n\
                 publish = false\n\n[dependencies]\nanton-fixpoint = {{ path = {:?} }}\n\n\
                 [lints]\nworkspace = true\n",
                root.join("crates/fixpoint")
            );
            fs::write(dir.join(&krate).join("Cargo.toml"), manifest).expect("write manifest");
            let attrs = policy::clippy_attrs(path).join("\n");
            fs::write(src.join("lib.rs"), format!("{attrs}\npub mod fixture;\n"))
                .expect("write lib.rs");
            fs::write(src.join("fixture.rs"), case_source(name)).expect("write fixture");
            members.push(krate);
        }
        let manifest = format!(
            "[workspace]\nmembers = {members:?}\nresolver = \"2\"\n\n{}",
            workspace_lints()
        );
        fs::write(dir.join("Cargo.toml"), manifest).expect("write workspace manifest");
        let diags = clippy::run(&dir, &dir.join("target"), &root, true);
        let _ = fs::remove_dir_all(&dir);
        let mut out: BTreeMap<usize, Vec<(String, u32)>> = BTreeMap::new();
        for d in diags.expect("run clippy over the fixtures") {
            let case = d
                .file
                .strip_suffix("/src/fixture.rs")
                .and_then(|k| k.strip_prefix('c')?.parse().ok())
                .unwrap_or_else(|| panic!("diagnostic outside a fixture: {d:?}"));
            out.entry(case).or_default().push((d.code, d.line));
        }
        out
    })
}

/// What clippy reports on `name` linted as `path`: (code, line), sorted.
fn clippy_hits(path: &str, name: &str) -> Vec<(String, u32)> {
    let case = CASES
        .iter()
        .position(|&c| c == (path, name))
        .unwrap_or_else(|| panic!("no clippy case ({path}, {name})"));
    let mut hits = clippy_results().get(&case).cloned().unwrap_or_default();
    hits.sort_by_key(|(code, line)| (*line, code.clone()));
    hits
}

fn expect(hits: &[(&str, u32)]) -> Vec<(String, u32)> {
    hits.iter().map(|&(c, l)| (c.to_string(), l)).collect()
}

const TYPES: &str = "clippy::disallowed_types";
const METHODS: &str = "clippy::disallowed_methods";
const FLOAT: &str = "clippy::float_arithmetic";
const UNFULFILLED: &str = "unfulfilled_lint_expectations";

// ---------------------------------------------------------------------------
// D1
// ---------------------------------------------------------------------------

#[test]
fn d1_flags_floats_in_fixed_point_core() {
    let hits = rules_hit("crates/fixpoint/src/fx32.rs", "fail_d1_float.rs");
    assert_eq!(hits, [("D1", 4), ("D1", 5), ("D1", 8)]);
}

#[test]
fn d1_does_not_police_non_core_files() {
    // Same source under a crate outside the D1 file list: no violations.
    let hits = rules_hit("crates/refmd/src/anything.rs", "fail_d1_float.rs");
    assert_eq!(hits, []);
}

#[test]
fn d1_flags_untyped_float_arithmetic() {
    // No `f64` token, no literal: the token rule passes it, and clippy's
    // float_arithmetic (the module attribute of the D1 files) refuses it.
    let name = "fail_d1_untyped_float_arith.rs";
    assert_eq!(rules_hit("crates/core/src/state.rs", name), []);
    assert_eq!(
        clippy_hits("crates/core/src/state.rs", name),
        expect(&[(FLOAT, 11)])
    );
}

#[test]
fn analysis_verify_is_a_d1_file() {
    // A float-tolerance comparison in an identity check fires like any
    // float in the fixed-point core: the tokens under detlint, the
    // arithmetic under clippy.
    let name = "fail_analysis_float_tolerance.rs";
    let path = "crates/analysis/src/verify.rs";
    assert_eq!(rules_hit(path, name), [("D1", 5), ("D1", 6), ("D1", 9)]);
    assert_eq!(clippy_hits(path, name), expect(&[(FLOAT, 6)]));
    // The ban is scoped to the identity checks: the statistics modules of
    // the same crate keep ordinary floating point.
    assert_eq!(rules_hit("crates/analysis/src/stats.rs", name), []);
}

#[test]
fn exact_integer_identity_checks_pass_in_analysis() {
    let name = "pass_analysis_exact_sum.rs";
    assert_eq!(rules_hit("crates/analysis/src/verify.rs", name), []);
    assert_eq!(clippy_hits("crates/analysis/src/verify.rs", name), []);
}

#[test]
fn boundary_admits_d1_and_d3_for_the_item() {
    let path = "crates/fixpoint/src/fx32.rs";
    let lint = lint_source(path, &fixture("pass_boundary.rs"));
    assert_eq!(lint.violations, []);
    assert_eq!(lint.boundaries.len(), 1);
    let b = &lint.boundaries[0];
    assert!(
        b.end_line > b.line,
        "boundary should span the following item"
    );
    assert_eq!(b.reason, "documented f64 -> fixed quantization edge");
    assert_eq!(clippy_hits(path, "pass_boundary.rs"), []);
}

#[test]
fn boundary_does_not_leak_past_its_item() {
    // Append a float after the boundary item: it must be flagged.
    let src = format!(
        "{}\npub fn leak() -> f64 {{ 0.25 }}\n",
        fixture("pass_boundary.rs")
    );
    let lint = lint_source("crates/fixpoint/src/fx32.rs", &src);
    assert_eq!(hits(&lint), [("D1", 19)]);
    // A reason-less expect is no boundary (and clippy refuses it, META).
    let bare = fixture("pass_boundary.rs").replace(
        "    reason = \"documented f64 -> fixed quantization edge\"\n",
        "",
    );
    let lint = lint_source("crates/fixpoint/src/fx32.rs", &bare);
    assert_eq!(lint.boundaries.len(), 0);
    assert_eq!(hits(&lint), [("D1", 9), ("D1", 10)]);
}

#[test]
fn boundary_outside_d1_and_d3_files_is_meta() {
    // Outside the D1 files a float expect marks nothing for detlint, and
    // an escape that never fires fails the build.
    let path = "crates/fleet/src/daemon.rs";
    let name = "float expect without floats";
    let lint = lint_source(path, &case_source(name));
    assert_eq!((hits(&lint), lint.boundaries.len()), (vec![], 0));
    assert_eq!(clippy_hits(path, name), expect(&[(UNFULFILLED, 1)]));
}

#[test]
fn cfg_test_regions_are_exempt() {
    let lint = lint_source("crates/nt/src/good.rs", &fixture("pass_cfg_test.rs"));
    assert_eq!(lint.violations, []);
    assert_eq!(
        lint_source("crates/core/src/state.rs", &fixture("pass_cfg_test.rs")).violations,
        []
    );
    assert_eq!(clippy_hits("crates/nt/src/good.rs", "pass_cfg_test.rs"), []);
}

#[test]
fn clean_fixed_point_code_passes() {
    let path = "crates/fixpoint/src/fx32.rs";
    assert_eq!(lint_source(path, &fixture("pass_clean.rs")).violations, []);
    assert_eq!(clippy_hits(path, "pass_clean.rs"), []);
}

#[test]
fn raw_strings_and_nested_comments_do_not_smuggle_violations() {
    let path = "crates/core/src/state.rs";
    let lint = lint_source(path, &fixture("pass_raw_string_smuggle.rs"));
    assert_eq!(lint.violations, []);
    assert_eq!(lint.escapes, []);
    assert_eq!(clippy_hits(path, "pass_raw_string_smuggle.rs"), []);
}

// ---------------------------------------------------------------------------
// D2, D3, D4
// ---------------------------------------------------------------------------

#[test]
fn d2_flags_unordered_containers() {
    assert_eq!(
        clippy_hits("crates/nt/src/bad.rs", "fail_d2_hashmap.rs"),
        expect(&[(TYPES, 4), (TYPES, 6)])
    );
}

#[test]
fn d2_covers_systems_but_not_refmd() {
    assert_eq!(
        clippy_hits("crates/systems/src/bad.rs", "fail_d2_hashmap.rs"),
        expect(&[(TYPES, 4), (TYPES, 6)])
    );
    assert_eq!(
        clippy_hits("crates/refmd/src/ok.rs", "fail_d2_hashmap.rs"),
        []
    );
}

#[test]
fn d3_flags_lossy_casts_outside_rounding() {
    assert_eq!(
        clippy_hits("crates/fixpoint/src/bad.rs", "fail_d3_cast.rs"),
        expect(&[("clippy::cast_possible_truncation", 5)])
    );
}

#[test]
fn d3_exempts_the_audited_rounding_module() {
    // The real rounding module passes under fixpoint's lints: each of its
    // audited casts sits under a reasoned expect that still fires.
    assert_eq!(
        clippy_hits("crates/fixpoint/src/rounding.rs", "real rounding.rs"),
        []
    );
}

#[test]
fn d4_flags_wall_clock_and_thread_topology() {
    assert_eq!(
        clippy_hits("crates/core/src/bad.rs", "fail_d4_instant.rs"),
        expect(&[(TYPES, 4), (METHODS, 7), (TYPES, 7), (METHODS, 8)])
    );
}

#[test]
fn trace_crate_is_on_the_simulation_path() {
    // An unsanctioned wall-clock read in `trace` is refused like anywhere
    // else in the deterministic core.
    assert_eq!(
        clippy_hits("crates/trace/src/bad.rs", "fail_trace_wallclock.rs"),
        expect(&[(TYPES, 5), (METHODS, 8), (TYPES, 8)])
    );
}

#[test]
fn sanctioned_trace_shape_passes() {
    // The shape the real `anton-trace` uses: one audited clock origin
    // behind a reasoned expect, in the audited clock file, integer
    // timestamps in per-rank lanes drained in fixed rank order.
    let path = "crates/trace/src/clock.rs";
    let lint = lint_source(path, &fixture("pass_trace_rank_merge.rs"));
    assert_eq!(lint.violations, []);
    assert_eq!(lint.escapes.len(), 1);
    assert_eq!(lint.escapes[0].lints, ["disallowed_types"]);
    assert!(lint.escapes[0].reason.is_some());
    assert_eq!(clippy_hits(path, "pass_trace_rank_merge.rs"), []);
}

#[test]
fn ckpt_crate_is_on_the_simulation_path() {
    // Checkpoint names from the wall clock make recovery order
    // host-dependent: refused on the import and on the read.
    assert_eq!(
        clippy_hits("crates/ckpt/src/bad.rs", "fail_ckpt_wallclock_name.rs"),
        expect(&[(TYPES, 6), (METHODS, 9), (TYPES, 9)])
    );
}

#[test]
fn sanctioned_ckpt_atomic_write_shape_passes() {
    // Step-derived names and tmp + fsync + atomic rename: no clock read,
    // nothing to escape.
    let path = "crates/ckpt/src/good.rs";
    let lint = lint_source(path, &fixture("pass_ckpt_atomic_write.rs"));
    assert_eq!((lint.violations, lint.escapes), (vec![], vec![]));
    assert_eq!(clippy_hits(path, "pass_ckpt_atomic_write.rs"), []);
}

// ---------------------------------------------------------------------------
// D5
// ---------------------------------------------------------------------------

#[test]
fn d5_flags_parallel_float_reductions() {
    assert_eq!(
        clippy_hits("crates/ewald/src/bad.rs", "fail_d5_spawn_sum.rs"),
        expect(&[(METHODS, 12)])
    );
}

#[test]
fn d5_flags_cross_thread_channel_reductions() {
    assert_eq!(
        clippy_hits("crates/core/src/bad.rs", "fail_d5_thread.rs"),
        expect(&[(TYPES, 5), (TYPES, 9)])
    );
}

/// A sanctioned fan-out: clean under clippy thanks to its reasoned expect,
/// and clean under D6 because it is linted as the audited pool.
fn assert_sanctioned_fanout(name: &str) {
    let path = "crates/core/src/pool.rs";
    let lint = lint_source(path, &fixture(name));
    assert_eq!(lint.violations, [], "{name}");
    assert_eq!(lint.escapes.len(), 1, "{name}");
    assert_eq!(clippy_hits(path, name), [], "{name}");
    // The same fan-out anywhere else is a D6.
    assert_eq!(
        hits(&lint_source("crates/core/src/ranks.rs", &fixture(name))).len(),
        1,
        "{name}"
    );
}

#[test]
fn d5_accepts_rank_indexed_merge_after_scoped_fanout() {
    assert_sanctioned_fanout("pass_d5_ranks.rs");
}

#[test]
fn d5_accepts_pencil_fanout_with_rank_ordered_mesh_merge() {
    assert_sanctioned_fanout("pass_d5_fft_pencils.rs");
}

#[test]
fn d5_flags_unordered_pencil_merge() {
    assert_eq!(
        clippy_hits("crates/fft/src/bad.rs", "fail_d5_fft_merge.rs"),
        expect(&[(TYPES, 5), (TYPES, 9)])
    );
}

#[test]
fn d5_accepts_fixed_order_batch_merge() {
    assert_sanctioned_fanout("pass_d5_batch_merge.rs");
}

#[test]
fn d5_flags_arrival_order_batch_merge() {
    assert_eq!(
        clippy_hits("crates/core/src/bad.rs", "fail_d5_batch_merge.rs"),
        expect(&[(TYPES, 6), (TYPES, 10)])
    );
}

#[test]
fn d5_flags_cache_epoch_channel_merge() {
    assert_eq!(
        clippy_hits("crates/core/src/bad.rs", "fail_d5_cache_epoch_merge.rs"),
        expect(&[(TYPES, 7), (TYPES, 12)])
    );
}

#[test]
fn d5_accepts_slab_ordered_cache_epoch_merge() {
    assert_sanctioned_fanout("pass_d5_cache_epoch_merge.rs");
}

// ---------------------------------------------------------------------------
// D6 and META
// ---------------------------------------------------------------------------

#[test]
fn d6_flags_a_nondeterminism_allow_outside_the_audited_files() {
    // The escape silences clippy, but the escape itself is a D6 unless
    // policy.rs names the file.
    let name = "fail_d6_unaudited_allow.rs";
    let lint = lint_source("crates/core/src/x.rs", &fixture(name));
    assert_eq!(hits(&lint), [("D6", 8)]);
    let v = &lint.violations[0];
    assert!(v.message.contains("disallowed_types"), "{}", v.message);
    assert!(
        v.message.contains("policy::NONDET_AUDITED_FILES"),
        "{}",
        v.message
    );
    assert_eq!(clippy_hits("crates/core/src/x.rs", name), []);
    assert_eq!(rules_hit("crates/trace/src/clock.rs", name), []);
}

#[test]
fn d6_is_not_legalised_by_a_boundary() {
    // state.rs is a D1 file, so the boundary itself is well-formed — and
    // changes nothing: a boundary admits floats, never a ban escape.
    let src = fixture("fail_d6_unaudited_allow.rs").replace(
        "pub fn host_jitter_ns",
        "#[expect(clippy::float_arithmetic, reason = \"audited absorber, says the comment\")]\n\
         pub fn host_jitter_ns",
    );
    let lint = lint_source("crates/core/src/state.rs", &src);
    assert_eq!(lint.boundaries.len(), 1);
    assert_eq!(hits(&lint), [("D6", 9)]);
}

#[test]
fn d6_cannot_be_allowed() {
    // D6 has no escape of its own, and every spelling of a ban escape is
    // one: allow, warn, cfg_attr-wrapped, file-wide.
    let base = fixture("fail_d6_unaudited_allow.rs");
    let expect_attr =
        "#[expect(clippy::disallowed_types, clippy::disallowed_methods, reason = \"span \
                       stamp for observability output\")]";
    for spelling in [
        "#[allow(clippy::disallowed_types, reason = \"r\")]",
        "#[warn(clippy::disallowed_types)]",
        "#[cfg_attr(not(test), allow(clippy::disallowed_types, reason = \"r\"))]",
        "#![expect(clippy::disallowed_types, clippy::disallowed_methods, reason = \"r\")]",
    ] {
        let src = base.replace(expect_attr, spelling);
        let lint = lint_source("crates/core/src/x.rs", &src);
        assert_eq!(hits(&lint), [("D6", 8)], "{spelling}");
    }
}

#[test]
fn d6_ignores_value_precision_allows_and_unpoliced_paths() {
    // Escapes of the float, cast and style lints are not ban escapes: no D6
    // at any path, audited or not.
    for lint in [
        "float_arithmetic",
        "cast_possible_truncation",
        "needless_range_loop",
    ] {
        let src = format!("#[expect(clippy::{lint}, reason = \"r\")]\npub fn f() {{}}\n");
        for path in [
            "crates/core/src/x.rs",
            "crates/fixpoint/src/fx32.rs",
            "crates/ckpt/src/codec.rs",
            "crates/trace/src/clock.rs",
            "crates/refmd/src/x.rs",
        ] {
            assert_eq!(lint_source(path, &src).violations, [], "{lint} at {path}");
        }
    }
    // Where the bans are off, an escape of them is inert and D6 says nothing.
    let name = "fail_d6_unaudited_allow.rs";
    assert_eq!(rules_hit("crates/refmd/src/x.rs", name), []);
    assert_eq!(rules_hit("crates/core/tests/x.rs", name), []);
    // The bans reach one crate further than DET_CRATES, and D6 follows.
    assert_eq!(rules_hit("crates/systems/src/x.rs", name), [("D6", 8)]);
}

#[test]
fn meta_flags_malformed_directives() {
    // A misspelt lint, an escape without a reason, an escape that never
    // fires: each fails the build.
    assert_eq!(
        clippy_hits("crates/core/src/bad.rs", "fail_meta_directives.rs"),
        expect(&[
            ("unknown_lints", 4),
            ("clippy::allow_attributes_without_reason", 7),
            ("clippy::allow_attributes_without_reason", 10),
            (UNFULFILLED, 15),
        ])
    );
}

#[test]
fn allow_suppresses_exactly_its_rule_and_records_reason() {
    let path = "crates/trace/src/clock.rs";
    let lint = lint_source(path, &fixture("pass_allowed.rs"));
    assert_eq!(lint.violations, []);
    assert_eq!(lint.escapes.len(), 2);
    assert!(lint
        .escapes
        .iter()
        .all(|e| e.level == "expect" && e.lints[0] == "disallowed_types" && e.reason.is_some()));
    assert_eq!(clippy_hits(path, "pass_allowed.rs"), []);
}

#[test]
fn allow_for_the_wrong_rule_does_not_suppress() {
    // Expecting only the methods lint leaves the type uses reported, and
    // the expectation on the `use` unfulfilled (and useless there).
    assert_eq!(
        clippy_hits("crates/trace/src/clock.rs", "wrong-lint pass_allowed.rs"),
        expect(&[
            ("clippy::useless_attribute", 5),
            (UNFULFILLED, 5),
            (TYPES, 6),
            (TYPES, 10)
        ])
    );
}

// ---------------------------------------------------------------------------
// D7: raw words are `Wrapping`, and their fields are the fixpoint crate's
// ---------------------------------------------------------------------------

#[test]
fn d7_flags_unchecked_raw_fixed_point_arithmetic() {
    let hits = clippy_hits("crates/core/src/bad.rs", "fail_d7_raw_arith.rs");
    let lines: Vec<u32> = hits.iter().map(|(_, l)| *l).collect();
    assert_eq!(lines, [10, 14, 18, 22, 26, 30, 34, 38, 42], "{hits:?}");
    assert!(hits.iter().all(|(c, _)| c.starts_with('E')), "{hits:?}");
    // The field read and the two constructors are refused as private.
    assert_eq!(
        hits[6..],
        expect(&[("E0616", 34), ("E0423", 38), ("E0423", 42)])
    );
}

#[test]
fn d7_exempts_fixpoint_wrappers_and_sanctioned_shapes() {
    // The wrappers and position methods, and arithmetic on the `Wrapping`
    // word itself, compile clean.
    assert_eq!(
        clippy_hits("crates/core/src/good.rs", "pass_d7_wrapping.rs"),
        []
    );
}

#[test]
fn d7_flags_raw_arith_in_batch_kernels() {
    let hits = clippy_hits("crates/core/src/bad.rs", "fail_d7_batch_kernel.rs");
    let lines: Vec<u32> = hits.iter().map(|(_, l)| *l).collect();
    assert_eq!(lines, [9, 13, 17, 21], "{hits:?}");
}

#[test]
fn d7_accepts_sanctioned_batch_kernel_shape() {
    assert_eq!(
        clippy_hits("crates/core/src/good.rs", "pass_d7_batch_kernel.rs"),
        []
    );
}

#[test]
fn d7_flags_raw_q20_displacement_monitor() {
    let hits = clippy_hits("crates/core/src/bad.rs", "fail_d7_q20_displacement.rs");
    let lines: Vec<u32> = hits.iter().map(|(_, l)| *l).collect();
    assert_eq!(lines, [9, 13, 17], "{hits:?}");
}

#[test]
fn d7_accepts_wrapped_displacement_monitor() {
    assert_eq!(
        clippy_hits("crates/core/src/good.rs", "pass_d7_q20_displacement.rs"),
        []
    );
}

// ---------------------------------------------------------------------------
// D8
// ---------------------------------------------------------------------------

#[test]
fn d8_flags_native_endian_bytes_in_payload_paths() {
    // The wrong-lint expect does not silence the transmute — it is
    // unfulfilled — and, `ckpt` being no audited file, is a D6 as well.
    let name = "fail_d8_ne_bytes.rs";
    assert_eq!(
        clippy_hits("crates/ckpt/src/bad.rs", name),
        expect(&[
            (METHODS, 7),
            (METHODS, 11),
            (UNFULFILLED, 14),
            (METHODS, 16)
        ])
    );
    assert_eq!(rules_hit("crates/ckpt/src/bad.rs", name), [("D6", 14)]);
}

#[test]
fn d8_covers_every_policed_crate() {
    // The bans are crate-wide, so a native-endian encode is refused on the
    // whole simulation path, not only in the payload crates; outside it
    // only the stray expect is left.
    let name = "fail_d8_ne_bytes.rs";
    assert_eq!(
        clippy_hits("crates/core/src/bad.rs", name),
        clippy_hits("crates/ckpt/src/bad.rs", name)
    );
    assert_eq!(
        clippy_hits("crates/refmd/src/bad.rs", name),
        expect(&[(UNFULFILLED, 14)])
    );
    // UTF-8 needs no escape.
    assert_eq!(
        clippy_hits("crates/trace/src/good.rs", "pass_d8_le_bytes.rs"),
        []
    );
}

// ---------------------------------------------------------------------------
// The real tree
// ---------------------------------------------------------------------------

/// The real workspace is clean under every rule: detlint's over the
/// sources, clippy's over the crates, and the tables that tie them.
#[test]
fn workspace_is_clean() {
    let root = root();
    let ws = detlint::lint_workspace(&root).expect("scan workspace");
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

    // Every policed crate root, and every D1 module, carries its lint
    // attributes (whitespace aside: rustfmt may wrap them).
    let squash = |s: &str| s.split_whitespace().collect::<String>();
    let roots = policy::DET_CRATES
        .iter()
        .chain(policy::BANS_EXTRA_CRATES)
        .map(|c| format!("crates/{c}/src/lib.rs"));
    for file in roots.chain(policy::D1_FILES.iter().map(|f| f.to_string())) {
        let src = squash(&fs::read_to_string(root.join(&file)).expect("read source"));
        let is_root = file.ends_with("/lib.rs");
        for attr in policy::clippy_attrs(&file) {
            if is_root || attr == policy::D1_MODULE_ATTR {
                assert!(src.contains(&squash(attr)), "{file} lacks {attr}");
            }
        }
    }

    // The audited-files table neither lags the tree nor holds a stale
    // entry, and every escape is a reasoned expect.
    let mut audited: Vec<&str> = ws
        .escapes
        .iter()
        .filter(|e| policy::bans_apply(&e.file))
        .map(|e| e.file.as_str())
        .collect();
    audited.dedup();
    assert_eq!(audited, policy::NONDET_AUDITED_FILES);
    assert!(
        ws.escapes
            .iter()
            .all(|e| e.level == "expect" && e.reason.is_some()),
        "{:?}",
        ws.escapes
    );

    // Clippy's policy lints report nothing on the real crates.
    let target = std::env::temp_dir().join(format!("detlint-workspace-{}", std::process::id()));
    let diags = clippy::run(&root, &target, &root, false);
    let _ = fs::remove_dir_all(&target);
    let policy_hits: Vec<String> = diags
        .expect("run clippy over the workspace")
        .into_iter()
        .filter(|d| policy::POLICY_LINTS.contains(&d.code.as_str()) || d.code.starts_with('E'))
        .map(|d| format!("[{}] {}:{} {}", d.code, d.file, d.line, d.message))
        .collect();
    assert!(
        policy_hits.is_empty(),
        "clippy policy findings:\n{}",
        policy_hits.join("\n")
    );
}
