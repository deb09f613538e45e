//! Which rules apply where.
//!
//! The determinism policy (DESIGN.md, "Determinism policy") splits the
//! workspace into the *simulation path* — crates whose arithmetic must be
//! bitwise reproducible — and everything else (reference MD, analysis,
//! benches, tests), where ordinary floating point is fine.

/// Crates on the simulation path: wall-clock reads (D4) and parallel
/// reductions (D5) are policed here. `analysis` is included because its
/// verifier recomputes engine state word-for-word and renders byte-stable
/// artifacts — a nondeterministic check would report phantom violations.
pub const DET_CRATES: &[&str] = &[
    "fixpoint", "geometry", "fft", "ewald", "nt", "machine", "core", "trace", "ckpt", "analysis",
    "fleet",
];

/// Crates where unordered-container iteration (D2) is policed. `systems`
/// builds the initial conditions every deterministic run starts from, so it
/// is held to the same ordering discipline as the simulation path itself.
pub const D2_EXTRA_CRATES: &[&str] = &["systems"];

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

/// The one module where lossy integer `as` casts are audited by hand (D3
/// does not apply): every rounding primitive lives here.
pub const D3_AUDITED: &str = "crates/fixpoint/src/rounding.rs";

/// Narrowing / sign-changing `as` targets flagged by D3.
pub const NARROW_INT_TARGETS: &[&str] = &["i8", "i16", "i32", "u8", "u16", "u32", "isize", "usize"];

/// Wall-clock and concurrency-topology identifiers flagged by D4.
pub const D4_IDENTS: &[&str] = &[
    "Instant",
    "SystemTime",
    "available_parallelism",
    "thread_rng",
    "num_cpus",
];

/// Rayon parallel-iterator entry points scanned by D5.
pub const D5_PAR_IDENTS: &[&str] = &[
    "par_iter",
    "par_iter_mut",
    "into_par_iter",
    "par_chunks",
    "par_bridge",
];

/// `std::thread` fan-out / channel-drain entry points scanned by D5: the
/// same order-sensitivity arises when hand-rolled threads feed a reduction
/// (channel drain order = thread finish order). The sanctioned pattern is
/// per-thread private buffers merged serially in fixed rank order
/// (DESIGN.md §8); reducers *inside* a spawned closure never fire because
/// the closure body sits at nested delimiter depth.
pub const D5_THREAD_IDENTS: &[&str] = &["spawn", "scope", "try_iter", "recv", "recv_timeout"];

/// Reduction combinators that are order-sensitive over floats.
pub const D5_REDUCERS: &[&str] = &["sum", "reduce", "fold", "product"];

/// Files where a `detlint::allow` of D2, D4 or D5 is legal (D6). Such an
/// allow admits host-dependent behaviour — hash order, the wall clock, a
/// scheduling-ordered reduction — onto the simulation path, so each file
/// holding one is audited by hand and named here; anywhere else the
/// directive itself is a violation, and `allow(D6)` does not exist.
/// Admitting a new site therefore takes an edit to this table.
pub const NONDET_AUDITED_FILES: &[&str] = &["crates/trace/src/clock.rs"];

/// Method names whose raw fixed-point result must not feed bare `+ - * <<`
/// arithmetic outside the fixpoint crate (D7): these expose the two's-
/// complement representation, where unchecked ops panic in debug builds and
/// silently wrap in release — breaking bit-exactness symptoms-first.
pub const D7_RAW_ACCESSORS: &[&str] = &["raw"];

/// Byte-serialization identifiers that are not endian-explicit (D8):
/// checkpoint and trace payloads must be byte-identical across hosts, so
/// every integer crossing into bytes goes through `to_le_bytes`/
/// `from_le_bytes` (or an audited allow for endian-free data like UTF-8).
pub const D8_IDENTS: &[&str] = &[
    "to_ne_bytes",
    "from_ne_bytes",
    "as_ne_bytes",
    "transmute",
    "as_bytes",
    "align_to",
    "from_raw_parts",
];

/// `crates/<name>/...` → `<name>`.
pub fn crate_of(rel: &str) -> Option<&str> {
    let rest = rel.strip_prefix("crates/")?;
    rest.split('/').next()
}

/// Rules only police shipped simulation code: `crates/<c>/src/**`.
/// Integration tests, benches and binaries compare against f64 references
/// by design, and `#[cfg(test)]` regions inside src are skipped separately.
fn in_src(rel: &str) -> bool {
    crate_of(rel).is_some_and(|c| rel.starts_with(&format!("crates/{c}/src/")))
}

pub fn d1_applies(rel: &str) -> bool {
    D1_FILES.contains(&rel)
}

pub fn d2_applies(rel: &str) -> bool {
    in_src(rel)
        && crate_of(rel).is_some_and(|c| DET_CRATES.contains(&c) || D2_EXTRA_CRATES.contains(&c))
}

pub fn d3_applies(rel: &str) -> bool {
    in_src(rel) && crate_of(rel) == Some("fixpoint") && rel != D3_AUDITED
}

pub fn d4_applies(rel: &str) -> bool {
    in_src(rel) && crate_of(rel).is_some_and(|c| DET_CRATES.contains(&c))
}

pub fn d5_applies(rel: &str) -> bool {
    in_src(rel) && crate_of(rel).is_some_and(|c| DET_CRATES.contains(&c))
}

/// D7 polices raw fixed-point arithmetic everywhere on the simulation path
/// *except* inside `fixpoint` itself, whose modules are the sanctioned
/// wrappers (every `.raw()` manipulation there is audited alongside the
/// rounding primitives).
pub fn d7_applies(rel: &str) -> bool {
    in_src(rel) && crate_of(rel).is_some_and(|c| DET_CRATES.contains(&c) && c != "fixpoint")
}

/// D8 polices byte serialization in the crates whose payloads are
/// host-portable on-disk formats: checkpoints and traces.
pub fn d8_applies(rel: &str) -> bool {
    in_src(rel) && matches!(crate_of(rel), Some("ckpt") | Some("trace"))
}

/// One-line description per rule, embedded in the JSON report.
pub fn rule_description(rule: &str) -> &'static str {
    match rule {
        "D1" => "no floating point in fixed-point core / bit-exact state outside annotated quantization boundaries",
        "D2" => "no HashMap/HashSet in deterministic crates (unordered iteration)",
        "D3" => "no lossy integer `as` casts in fixpoint outside the audited rounding module",
        "D4" => "no wall-clock or thread-topology reads on the simulation path",
        "D5" => "no order-sensitive parallel reductions on the simulation path",
        "D6" => "no D2/D4/D5 allow on the simulation path outside the audited files policy::NONDET_AUDITED_FILES names",
        "D7" => "no unchecked + - * << arithmetic on raw fixed-point values outside the fixpoint wrapper modules",
        "D8" => "no non-endian-explicit byte serialization (to_ne_bytes/transmute/as_bytes) in checkpoint or trace payload paths",
        "META" => "malformed or incomplete detlint directive",
        _ => "unknown rule",
    }
}

pub const ALL_RULES: &[&str] = &["D1", "D2", "D3", "D4", "D5", "D6", "D7", "D8", "META"];
