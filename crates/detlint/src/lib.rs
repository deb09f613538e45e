//! # detlint — the determinism rules clippy and the types cannot state
//!
//! Bitwise reproducibility is a core claim of the Anton design (DESIGN.md
//! §8): the simulation path does all accumulation in two's-complement fixed
//! point, so results are independent of summation order, thread count and
//! host. The policy that keeps it so is stated where a tool can check it:
//!
//! | id | rule | enforcer |
//! |----|------|----------|
//! | D1 | no float arithmetic in the fixed-point core | `clippy::float_arithmetic`, denied in `fixpoint`, `core/src/state.rs`, `analysis/src/verify.rs` |
//! | D1 | no `f32`/`f64`/float literal in [`policy::D1_FILES`] | detlint ([`lint_source`]) |
//! | D2 | no `HashMap`/`HashSet` | `clippy.toml` `disallowed-types` |
//! | D3 | no lossy integer cast in `fixpoint` | `clippy::cast_possible_truncation`, `cast_possible_wrap`, `cast_sign_loss` |
//! | D4 | no wall clock or thread topology | `clippy.toml` `disallowed-types` / `disallowed-methods` |
//! | D5 | no thread fan-out or channel drain outside the audited pools | `clippy.toml` `disallowed-methods` / `disallowed-types` |
//! | D6 | a ban escape only in [`policy::NONDET_AUDITED_FILES`] | detlint ([`lint_source`]) |
//! | D7 | raw fixed-point words wrap | the type: `Fx32::raw`/`Q::raw` return `Wrapping` |
//! | D8 | no native-endian byte layout | `clippy.toml` `disallowed-methods` |
//! | META | every escape says why | `clippy::allow_attributes_without_reason`, `#[expect]` |
//!
//! The bans bite in the crates whose root carries [`policy::BANS_ATTR`];
//! test code is exempt through its `cfg_attr(not(test), ..)`.
//!
//! detlint is a library and a tier-1 test suite, not a CLI: the fixture
//! tests drive [`lint_source`] and, through [`clippy::run`], clippy itself
//! on throw-away crates built from `fixtures/`; `workspace_is_clean` runs
//! both over the real tree.
//!
//! ## Boundaries and escapes
//!
//! * A D1 boundary is the item under a reasoned
//!   `#[expect(clippy::float_arithmetic | clippy::cast_precision_loss, reason = "..")]`.
//!   Clippy fails the build when the escape stops firing; detlint admits
//!   `f32`/`f64` and float literals inside the item.
//! * A ban escape is a reasoned `#[expect(clippy::disallowed_*, reason = "..")]`.
//!   Outside the audited files it is a D6 violation (any `allow`, `expect`
//!   or `warn` of the two lints, `cfg_attr`-wrapped or not), and D6 has no
//!   escape: admitting a site takes an edit to `policy.rs`.

pub mod clippy;
pub mod lexer;
pub mod lint;
pub mod policy;
pub mod rules;

pub use lint::{lint_sources, lint_workspace, WorkspaceLint};
pub use rules::{lint_source, Boundary, Escape, FileLint, Violation};
