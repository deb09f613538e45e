//! The recorder: per-rank lanes and the central fixed-capacity buffer.

use crate::clock::TraceClock;
use crate::event::{Counter, Phase, Span, RANK_MAIN};

/// A span as recorded inside a rank's lane: rank and step are attached at
/// merge time (the lane belongs to exactly one rank, and a whole fan-out
/// executes within one step).
#[derive(Clone, Copy, Debug)]
struct LaneSpan {
    phase: Phase,
    start_ns: u64,
    end_ns: u64,
}

/// One rank's private recording lane. Exactly one worker thread mutates a
/// lane during a fan-out (it lives in that rank's scratch), so recording
/// needs no synchronization; the sink drains lanes serially in fixed rank
/// order afterward. Fixed capacity: a full lane drops further spans and
/// counts them.
#[derive(Clone, Debug)]
pub struct Lane {
    entries: Vec<LaneSpan>,
    dropped: u64,
}

/// Spans per lane per fan-out: the pipeline records at most a handful of
/// phases per rank per call, so this never drops in practice.
const LANE_CAPACITY: usize = 16;

impl Lane {
    pub fn new() -> Lane {
        Lane {
            entries: Vec::with_capacity(LANE_CAPACITY),
            dropped: 0,
        }
    }

    /// Record one completed phase interval. Never allocates: a full lane
    /// drops the span and counts it.
    #[inline]
    pub fn push(&mut self, phase: Phase, start_ns: u64, end_ns: u64) {
        if self.entries.len() < LANE_CAPACITY {
            self.entries.push(LaneSpan {
                phase,
                start_ns,
                end_ns,
            });
        } else {
            self.dropped += 1;
        }
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl Default for Lane {
    fn default() -> Lane {
        Lane::new()
    }
}

/// The central event buffer: every span and counter of a traced run, in
/// deterministic order (recording order on the trunk thread; rank order
/// within every fan-out). Fixed capacity — overflow drops and counts.
#[derive(Debug)]
pub struct TraceBuf {
    clock: TraceClock,
    step: u64,
    spans: Vec<Span>,
    counters: Vec<Counter>,
    max_spans: usize,
    max_counters: usize,
    dropped_spans: u64,
    dropped_counters: u64,
}

impl TraceBuf {
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn counters(&self) -> &[Counter] {
        &self.counters
    }

    pub fn dropped_spans(&self) -> u64 {
        self.dropped_spans
    }

    pub fn dropped_counters(&self) -> u64 {
        self.dropped_counters
    }

    #[inline]
    fn push_span(&mut self, span: Span) {
        if self.spans.len() < self.max_spans {
            self.spans.push(span);
        } else {
            self.dropped_spans += 1;
        }
    }
}

/// The sink the engine and pipeline write through. [`TraceSink::Off`]
/// short-circuits every operation before any clock read or formatting, so
/// an untraced run pays one predictable branch per instrumentation site.
#[derive(Debug, Default)]
pub enum TraceSink {
    #[default]
    Off,
    On(Box<TraceBuf>),
}

/// Default central-buffer span capacity (~4 MB of spans).
pub const DEFAULT_SPAN_CAPACITY: usize = 1 << 17;
/// Default central-buffer counter capacity.
pub const DEFAULT_COUNTER_CAPACITY: usize = 1 << 15;

impl TraceSink {
    /// The disabled sink.
    pub fn off() -> TraceSink {
        TraceSink::Off
    }

    /// An enabled sink with default capacity.
    pub fn on() -> TraceSink {
        TraceSink::with_capacity(DEFAULT_SPAN_CAPACITY, DEFAULT_COUNTER_CAPACITY)
    }

    /// An enabled sink holding at most `max_spans` spans and `max_counters`
    /// counters; all buffer memory is reserved here, the hot path never
    /// allocates.
    pub fn with_capacity(max_spans: usize, max_counters: usize) -> TraceSink {
        TraceSink::On(Box::new(TraceBuf {
            clock: TraceClock::new(),
            step: 0,
            spans: Vec::with_capacity(max_spans),
            counters: Vec::with_capacity(max_counters),
            max_spans,
            max_counters,
            dropped_spans: 0,
            dropped_counters: 0,
        }))
    }

    #[inline]
    pub fn is_on(&self) -> bool {
        matches!(self, TraceSink::On(_))
    }

    /// Current monotonic time (ns); 0 when off, without touching the clock.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        match self {
            TraceSink::Off => 0,
            TraceSink::On(b) => b.clock.now_ns(),
        }
    }

    /// The step id attached to subsequently recorded events.
    #[inline]
    pub fn step(&self) -> u64 {
        match self {
            TraceSink::Off => 0,
            TraceSink::On(b) => b.step,
        }
    }

    pub fn set_step(&mut self, step: u64) {
        if let TraceSink::On(b) = self {
            b.step = step;
        }
    }

    /// Record a trunk-thread span that started at `start_ns` (a value from
    /// [`Self::now_ns`]) and ends now.
    #[inline]
    pub fn end_span(&mut self, phase: Phase, rank: u32, start_ns: u64) {
        if let TraceSink::On(b) = self {
            let end_ns = b.clock.now_ns();
            let step = b.step;
            b.push_span(Span {
                phase,
                rank,
                step,
                start_ns,
                end_ns,
            });
        }
    }

    /// Record a span with both endpoints already measured (used for the FFT
    /// trunk, whose stage marks are collected while the pipeline is
    /// borrowed shared).
    #[inline]
    pub fn push_span(&mut self, phase: Phase, rank: u32, start_ns: u64, end_ns: u64) {
        if let TraceSink::On(b) = self {
            let step = b.step;
            b.push_span(Span {
                phase,
                rank,
                step,
                start_ns,
                end_ns,
            });
        }
    }

    /// Record a machine-wide communication counter attributed to `phase`.
    pub fn counter(
        &mut self,
        name: &'static str,
        phase: Phase,
        messages: u64,
        bytes: u64,
        modeled_us: f64,
    ) {
        if let TraceSink::On(b) = self {
            if b.counters.len() < b.max_counters {
                let step = b.step;
                b.counters.push(Counter {
                    name,
                    phase,
                    rank: RANK_MAIN,
                    step,
                    messages,
                    bytes,
                    modeled_us,
                });
            } else {
                b.dropped_counters += 1;
            }
        }
    }

    /// Drain per-rank lanes into the central buffer **in the order given**,
    /// which callers must make the fixed rank order (lane `i` belongs to
    /// rank `i`). This is the determinism pivot: the merged event order is
    /// a pure function of the work structure, independent of which worker
    /// thread finished first. Lanes are cleared either way (an off sink
    /// discards whatever a disabled-path lane might hold).
    pub fn merge_lanes<'a>(&mut self, lanes: impl IntoIterator<Item = &'a mut Lane>) {
        match self {
            TraceSink::Off => {
                for lane in lanes {
                    lane.entries.clear();
                    lane.dropped = 0;
                }
            }
            TraceSink::On(b) => {
                for (rank, lane) in lanes.into_iter().enumerate() {
                    b.dropped_spans += lane.dropped;
                    lane.dropped = 0;
                    let step = b.step;
                    for e in lane.entries.drain(..) {
                        b.push_span(Span {
                            phase: e.phase,
                            rank: rank as u32,
                            step,
                            start_ns: e.start_ns,
                            end_ns: e.end_ns,
                        });
                    }
                }
            }
        }
    }

    /// Overwrite the dropped-event counts (checkpoint resume: the counts
    /// are part of the snapshot, so post-resume observability bookkeeping
    /// continues from the values the interrupted run had accumulated
    /// rather than restarting from zero). No-op when off.
    pub fn set_dropped(&mut self, spans: u64, counters: u64) {
        if let TraceSink::On(b) = self {
            b.dropped_spans = spans;
            b.dropped_counters = counters;
        }
    }

    /// The recorded buffer, if tracing is on.
    pub fn buf(&self) -> Option<&TraceBuf> {
        match self {
            TraceSink::Off => None,
            TraceSink::On(b) => Some(b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_sink_records_nothing_and_reads_no_clock() {
        let mut s = TraceSink::off();
        assert_eq!(s.now_ns(), 0);
        s.end_span(Phase::Step, RANK_MAIN, 0);
        s.counter("import", Phase::ReHome, 10, 100, 1.0);
        let mut lanes = [Lane::new(), Lane::new()];
        lanes[1].push(Phase::Spread, 1, 2);
        s.merge_lanes(lanes.iter_mut());
        assert!(s.buf().is_none());
        assert!(lanes.iter().all(Lane::is_empty), "lanes must be drained");
    }

    #[test]
    fn lanes_merge_in_rank_order_not_finish_order() {
        let mut s = TraceSink::with_capacity(16, 4);
        let mut lanes = [Lane::new(), Lane::new(), Lane::new()];
        // "Finish order" 2, 0, 1 — but the merge only sees slice order.
        lanes[2].push(Phase::RangeLimited, 30, 31);
        lanes[0].push(Phase::RangeLimited, 10, 11);
        lanes[1].push(Phase::RangeLimited, 20, 21);
        s.merge_lanes(lanes.iter_mut());
        let ranks: Vec<u32> = s.buf().unwrap().spans().iter().map(|e| e.rank).collect();
        assert_eq!(ranks, [0, 1, 2]);
    }

    #[test]
    fn full_buffers_drop_and_count_instead_of_reallocating() {
        let mut s = TraceSink::with_capacity(2, 1);
        for _ in 0..5 {
            s.end_span(Phase::Step, RANK_MAIN, 0);
        }
        s.counter("a", Phase::Step, 1, 1, 0.0);
        s.counter("b", Phase::Step, 1, 1, 0.0);
        let b = s.buf().unwrap();
        assert_eq!(b.spans().len(), 2);
        assert_eq!(b.dropped_spans(), 3);
        assert_eq!(b.counters().len(), 1);
        assert_eq!(b.dropped_counters(), 1);
        // Capacity was reserved up front; the drops never grew the buffer.
        assert!(b.spans.capacity() >= 2);
    }

    #[test]
    fn lane_overflow_is_counted_through_the_merge() {
        let mut lane = Lane::new();
        for i in 0..(LANE_CAPACITY + 3) {
            lane.push(Phase::Spread, i as u64, i as u64 + 1);
        }
        assert_eq!(lane.len(), LANE_CAPACITY);
        let mut s = TraceSink::with_capacity(64, 4);
        s.merge_lanes(std::iter::once(&mut lane));
        assert_eq!(s.buf().unwrap().dropped_spans(), 3);
    }

    #[test]
    fn dropped_counts_can_be_restored_for_resume() {
        let mut s = TraceSink::with_capacity(8, 8);
        s.set_dropped(5, 9);
        let b = s.buf().unwrap();
        assert_eq!(b.dropped_spans(), 5);
        assert_eq!(b.dropped_counters(), 9);
        let mut off = TraceSink::off();
        off.set_dropped(1, 1);
        assert!(off.buf().is_none());
    }

    #[test]
    fn steps_stamp_events() {
        let mut s = TraceSink::with_capacity(8, 8);
        s.set_step(7);
        let t0 = s.now_ns();
        s.end_span(Phase::Integrate, RANK_MAIN, t0);
        s.counter("import", Phase::ReHome, 2, 24, 0.5);
        let b = s.buf().unwrap();
        assert_eq!(b.spans()[0].step, 7);
        assert_eq!(b.counters()[0].step, 7);
        assert_eq!(b.counters()[0].name, "import");
    }
}
