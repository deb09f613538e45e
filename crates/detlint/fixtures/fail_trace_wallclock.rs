// Fixture: linted as crates/trace/src/bad.rs — the trace crate sits on the
// simulation path, so an unsanctioned wall-clock read (no audited expect)
// is refused like anywhere else in the deterministic core.

use std::time::Instant;

pub fn timestamp_ns() -> u64 {
    let t0 = Instant::now();
    t0.elapsed().as_nanos() as u64
}
