// Fixture: a sanctioned-looking allow(D4) site. The allow suppresses D4,
// but the returned value is derived from the wall clock: linted anywhere
// on the simulation path except a file `policy::NONDET_AUDITED_FILES`
// names, the directive itself is a D6 violation (line 8). Linted as
// crates/trace/src/clock.rs — the one audited file — it is clean.

pub fn host_jitter_ns(step: u64) -> u64 {
    // detlint::allow(D4, reason = "span stamp for observability output")
    let t0 = std::time::Instant::now();
    step ^ t0.elapsed().as_nanos() as u64
}
