//! Which rules apply where, and the lint attributes that carry them.
//!
//! The determinism policy (DESIGN.md §8) splits the workspace into the
//! *simulation path* — crates whose arithmetic must be bitwise
//! reproducible — and everything else (reference MD, benches, tests),
//! where ordinary floating point, clocks and threads are fine.

/// Crates on the simulation path. `analysis` is included because its
/// verifier recomputes engine state word-for-word and renders byte-stable
/// artifacts — a nondeterministic check would report phantom violations.
pub const DET_CRATES: &[&str] = &[
    "fixpoint", "geometry", "fft", "ewald", "nt", "machine", "core", "trace", "ckpt", "analysis",
    "fleet",
];

/// `systems` builds the initial conditions every deterministic run starts
/// from, so it is held to the same bans as the simulation path.
pub const BANS_EXTRA_CRATES: &[&str] = &["systems"];

/// The crate-root attribute that turns on the paths `clippy.toml` bans
/// (D2, D4, D5, D8) over the workspace-level `allow`. `not(test)` keeps
/// test code free.
pub const BANS_ATTR: &str =
    "#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]";

/// anton-fixpoint's root attribute: no float arithmetic (D1) and no lossy
/// integer cast (D3) outside a reasoned `#[expect]`.
pub const FIXPOINT_ATTR: &str = "#![cfg_attr(not(test), deny(clippy::float_arithmetic, \
     clippy::cast_possible_truncation, clippy::cast_possible_wrap, clippy::cast_sign_loss))]";

/// The module attribute of the D1 files outside anton-fixpoint.
pub const D1_MODULE_ATTR: &str = "#![cfg_attr(not(test), deny(clippy::float_arithmetic))]";

/// Files where floating point is banned outside annotated quantization
/// boundaries (D1): the fixed-point arithmetic core and the bit-exact
/// simulation state. The rest of the simulation path is allowed interior
/// f64 because every value is quantized through `rounding::rne_f64` before
/// it reaches an accumulator (see DESIGN.md).
pub const D1_FILES: &[&str] = &[
    "crates/fixpoint/src/lib.rs",
    "crates/fixpoint/src/fx32.rs",
    "crates/fixpoint/src/q.rs",
    "crates/fixpoint/src/fxvec.rs",
    "crates/core/src/state.rs",
    // The closed-form identity checks: every comparison must be an exact
    // integer-word test, never a float tolerance (the one physical-bound
    // check, energy drift, sits behind an audited boundary).
    "crates/analysis/src/verify.rs",
];

/// The clippy lints whose reasoned `#[expect]` marks a D1 boundary: the
/// float arithmetic of a quantize or decode, or the int → float cast of a
/// scale constant (clippy does not lint arithmetic inside a `const`).
pub const BOUNDARY_LINTS: &[&str] = &["float_arithmetic", "cast_precision_loss"];

/// The clippy lints `clippy.toml`'s bans report through.
pub const BAN_LINTS: &[&str] = &["disallowed_types", "disallowed_methods"];

/// Files where an escape from a ban (`allow`/`expect`/`warn` of a
/// [`BAN_LINTS`] lint) is legal (D6). Such an escape admits host-dependent
/// behaviour — the wall clock, a thread fan-out — onto the simulation path,
/// so each file holding one is audited by hand and named here; anywhere
/// else the escape itself is a violation. Admitting a new site therefore
/// takes an edit to this table.
pub const NONDET_AUDITED_FILES: &[&str] = &[
    "crates/core/src/pool.rs",
    "crates/fleet/src/daemon.rs",
    "crates/fleet/src/scheduler.rs",
    "crates/trace/src/clock.rs",
];

/// Every lint the policy is stated in. `workspace_is_clean` requires clippy
/// to report none of them on the real tree.
pub const POLICY_LINTS: &[&str] = &[
    "clippy::disallowed_types",
    "clippy::disallowed_methods",
    "clippy::float_arithmetic",
    "clippy::cast_possible_truncation",
    "clippy::cast_possible_wrap",
    "clippy::cast_sign_loss",
    "clippy::allow_attributes_without_reason",
    "unfulfilled_lint_expectations",
    "unknown_lints",
];

/// `crates/<name>/...` → `<name>`.
pub fn crate_of(rel: &str) -> Option<&str> {
    let rest = rel.strip_prefix("crates/")?;
    rest.split('/').next()
}

/// Rules only police shipped code: `crates/<c>/src/**`.
fn in_src(rel: &str) -> bool {
    crate_of(rel).is_some_and(|c| rel.starts_with(&format!("crates/{c}/src/")))
}

pub fn d1_applies(rel: &str) -> bool {
    D1_FILES.contains(&rel)
}

/// Does the crate holding `rel` carry [`BANS_ATTR`]?
pub fn bans_apply(rel: &str) -> bool {
    in_src(rel)
        && crate_of(rel).is_some_and(|c| DET_CRATES.contains(&c) || BANS_EXTRA_CRATES.contains(&c))
}

/// The lint attributes a file at `rel` sits under: its crate root's and,
/// for a D1 module outside anton-fixpoint, its own. The fixture tests give
/// a fixture linted "as" `rel` exactly these, and `workspace_is_clean`
/// checks that the real tree carries them.
pub fn clippy_attrs(rel: &str) -> Vec<&'static str> {
    let mut attrs = Vec::new();
    if bans_apply(rel) {
        attrs.push(BANS_ATTR);
    }
    if in_src(rel) && crate_of(rel) == Some("fixpoint") {
        attrs.push(FIXPOINT_ATTR);
    } else if d1_applies(rel) {
        attrs.push(D1_MODULE_ATTR);
    }
    attrs
}
