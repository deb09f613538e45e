// Fixture: linted as crates/trace/src/clock.rs — the sanctioned trace
// shape. The single wall-clock read sits behind the audited expect;
// per-rank lanes hold integer timestamps only and drain serially in fixed
// rank order.

pub struct TraceClock {
    #[expect(clippy::disallowed_types, reason = "trace clock origin: measured ns are observability payload only; no trace value ever flows back into simulation state")]
    origin: std::time::Instant,
}

impl TraceClock {
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

pub struct Lane {
    pub entries: Vec<(u64, u64)>,
}

pub fn merge(lanes: &mut [Lane]) -> Vec<(usize, u64, u64)> {
    // Deterministic merge: slice order is rank order, never finish order.
    let mut spans = Vec::new();
    for (rank, lane) in lanes.iter_mut().enumerate() {
        for (start, end) in lane.entries.drain(..) {
            spans.push((rank, start, end));
        }
    }
    spans
}
