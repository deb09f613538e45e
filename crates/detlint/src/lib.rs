//! # detlint — determinism static analysis for the Anton workspace
//!
//! Bitwise reproducibility is a core claim of the Anton design (DESIGN.md):
//! the simulation path does all accumulation in two's-complement fixed point,
//! so results are independent of summation order, thread count and host.
//! That property is easy to destroy with one stray `f64`, one `HashMap`
//! iteration, or one `Instant::now()` branch. detlint is the tier-1 gate
//! that keeps those out.
//!
//! ## Rules
//!
//! | id | policed code | what it flags |
//! |----|--------------|---------------|
//! | D1 | fixed-point core + bit-exact state ([`policy::D1_FILES`]) | float literals, `f32`/`f64` |
//! | D2 | deterministic crates + `systems` | `HashMap`/`HashSet` (unordered iteration) |
//! | D3 | `fixpoint` outside `rounding.rs` | lossy integer `as` casts |
//! | D4 | deterministic crates | `Instant`, `SystemTime`, thread-topology reads |
//! | D5 | deterministic crates | rayon reductions (`par_iter().sum()` etc.) |
//! | D6 | wherever D2, D4 or D5 applies | a `detlint::allow` of one of them in a file [`policy::NONDET_AUDITED_FILES`] does not name |
//! | D7 | deterministic crates outside `fixpoint` | unchecked `+ - * <<` on raw fixed-point values (`.raw()`) |
//! | D8 | `ckpt` + `trace` payload paths | native-endian byte serialization (`to_ne_bytes`, `transmute`, `as_bytes`, ...) |
//! | META | everywhere | malformed detlint directives |
//!
//! Every rule is lexical and per-file ([`lint_source`]): it reads one
//! token stream and one table in [`policy`]. The workspace result
//! ([`lint_sources`]) is the concatenation, sorted by path.
//!
//! `#[cfg(test)]` regions are exempt, as are `tests/`, `benches/`,
//! `examples/` and `src/bin` trees: the rules police shipped simulation
//! code (`crates/<c>/src/**`) only.
//!
//! ## Escape hatches
//!
//! * `// detlint::allow(D7, reason = "...")` — suppresses one rule on the
//!   directive's line and the next code line. The reason is mandatory.
//!   Allowing D2, D4 or D5 is itself a violation (D6) outside the audited
//!   files, and D6 has no allow: admitting a wall-clock, hash-order or
//!   reduction-order site takes an edit to `policy.rs`.
//! * `// detlint::boundary(reason = "...")` — declares the next item an
//!   audited quantization boundary: D1 and D3 are permitted inside it.
//!   This is how the `from_f64`/`to_f64` conversions are marked. In a file
//!   where neither D1 nor D3 applies the directive is malformed.
//!
//! Malformed directives (unknown rule id, missing reason) are themselves
//! violations (META), so a typo cannot silently disable a rule.

pub mod lexer;
pub mod lint;
pub mod policy;
pub mod report;
pub mod rules;

pub use lint::{lint_sources, lint_workspace, WorkspaceLint};
pub use rules::{lint_source, Allow, Boundary, FileLint, Violation};
