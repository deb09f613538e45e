// Fixture: a sanctioned-looking escape from the D4 ban. The expect silences
// clippy, but the returned value is derived from the wall clock: linted
// anywhere on the simulation path except a file
// `policy::NONDET_AUDITED_FILES` names, the escape itself is a D6
// violation (line 8). Linted as crates/trace/src/clock.rs it is clean.

pub fn host_jitter_ns(step: u64) -> u64 {
    #[expect(clippy::disallowed_types, clippy::disallowed_methods, reason = "span stamp for observability output")]
    let t0 = std::time::Instant::now();
    step ^ t0.elapsed().as_nanos() as u64
}
