//! The sanctioned wall-clock edge of the simulation path.
//!
//! The determinism policy (DESIGN.md §8, rule D4) bans wall-clock reads on
//! the simulation path because host time must never influence simulation
//! state. Tracing needs *measured* nanoseconds, so this file is the one
//! `detlint`'s `policy::NONDET_AUDITED_FILES` names (rule D6): a monotonic
//! clock whose readings flow only into trace events — observability output
//! — with no path from a timestamp back to an accumulator, a position or a
//! velocity. Each `Instant` mention below carries a `detlint::allow(D4)`
//! with this argument; anywhere else that directive is itself a violation.

/// Monotonic nanosecond clock, origin fixed at construction.
#[derive(Clone, Copy, Debug)]
pub struct TraceClock {
    // detlint::allow(D4, reason = "trace clock origin: measured ns are observability payload only; no trace value ever flows back into simulation state")
    origin: std::time::Instant,
}

impl TraceClock {
    pub fn new() -> TraceClock {
        TraceClock {
            // detlint::allow(D4, reason = "trace clock origin: measured ns are observability payload only; no trace value ever flows back into simulation state")
            origin: std::time::Instant::now(),
        }
    }

    /// Nanoseconds since the clock's origin (saturating at u64::MAX, which
    /// is ~584 years of tracing).
    // Audited wall-clock edge: span timestamps feed only trace event payloads consumed by offline analysis; replay and perf-gate comparisons diff event sequences and counters, never these wall-clock stamps.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        let ns = self.origin.elapsed().as_nanos();
        if ns > u64::MAX as u128 {
            u64::MAX
        } else {
            ns as u64
        }
    }
}

impl Default for TraceClock {
    fn default() -> TraceClock {
        TraceClock::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotonic_from_origin() {
        let c = TraceClock::new();
        let a = c.now_ns();
        let b = c.now_ns();
        assert!(b >= a);
    }
}
