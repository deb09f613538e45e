// Fixture: linted as crates/core/src/bad.rs — malformed escapes: a typo
// cannot silently disable a rule, and every escape says why and must fire.

#[expect(clippy::disalowed_methods, reason = "no such lint")]
pub fn a() {}

#[allow(clippy::needless_range_loop)]
pub fn b() {}

#[expect(clippy::float_arithmetic)]
pub fn c(x: f64) -> f64 {
    x * x
}

#[expect(clippy::disallowed_methods, reason = "an escape that never fires")]
pub fn d() {}
