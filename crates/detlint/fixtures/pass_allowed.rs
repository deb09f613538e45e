// Fixture: linted as crates/trace/src/clock.rs, an audited file — a
// reasoned expect silences exactly its lint, and detlint records it with
// its reason.

#[expect(clippy::disallowed_types, reason = "coarse profiling timer; result never feeds the trajectory")]
use std::time::Instant;

pub fn profiled() -> u128 {
    #[expect(clippy::disallowed_types, clippy::disallowed_methods, reason = "coarse profiling timer; result never feeds the trajectory")]
    let t0 = Instant::now();
    t0.elapsed().as_nanos()
}
