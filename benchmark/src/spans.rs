//! The harness's own span recorder: one span per call into a layer, nested
//! under a per-block span, kept in memory and written once at exit.

use std::fmt::Write;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    /// Raw → normalised factor of the block this span belongs to.
    pub scale: f64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span being timed. Timing works whether or not the span is recorded,
/// so the plain and the traced run share one code path.
pub struct Open {
    index: Option<u32>,
    t0: Instant,
}

/// Fixed-capacity buffer; capacity 0 records nothing. Spans past the
/// capacity are counted in `dropped`, never reallocated for.
pub struct Recorder {
    epoch: Instant,
    capacity: usize,
    spans: Vec<Span>,
    stack: Vec<u32>,
    pub dropped: u64,
}

impl Recorder {
    pub fn with_capacity(capacity: usize) -> Recorder {
        Recorder {
            epoch: Instant::now(),
            capacity,
            spans: Vec::with_capacity(capacity),
            stack: Vec::new(),
            dropped: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    pub fn open(&mut self, name: &'static str) -> Open {
        let t0 = Instant::now();
        let index = if self.spans.len() < self.capacity {
            let start_ns = t0.duration_since(self.epoch).as_nanos() as u64;
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: self.stack.last().copied().unwrap_or(NO_PARENT),
                scale: 1.0,
            });
            let index = (self.spans.len() - 1) as u32;
            self.stack.push(index);
            Some(index)
        } else {
            self.dropped += self.enabled() as u64;
            None
        };
        Open { index, t0 }
    }

    /// Close a span; returns its raw duration in ms.
    pub fn close(&mut self, open: Open) -> f64 {
        let elapsed = open.t0.elapsed();
        if let Some(i) = open.index {
            let span = &mut self.spans[i as usize];
            span.end_ns = span.start_ns + elapsed.as_nanos() as u64;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(i), "spans close in LIFO order");
        }
        elapsed.as_secs_f64() * 1e3
    }

    /// Close a block span and stamp its normalisation factor on it and on
    /// every span recorded inside it.
    pub fn close_block(&mut self, open: Open, scale: f64) -> f64 {
        let first = open.index;
        let ms = self.close(open);
        if let Some(i) = first {
            for span in &mut self.spans[i as usize..] {
                span.scale = scale;
            }
        }
        ms
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Normalised durations (ms) of every span with this name.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64 * 1e-6 * s.scale)
            .collect()
    }

    /// A span's duration minus the time its direct children cover.
    pub fn self_ns(&self, index: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == index as u32)
            .map(Span::ns)
            .sum();
        self.spans[index].ns().saturating_sub(children)
    }

    /// Chrome trace (`chrome://tracing`, Perfetto): one complete event per
    /// span, the workload as the process name.
    pub fn chrome_trace_json(&self, workload: &str) -> String {
        let mut s = String::from("{\"traceEvents\":[\n");
        let _ = write!(
            s,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{{\"name\":\"{workload}\"}}}}"
        );
        for (i, span) in self.spans.iter().enumerate() {
            let parent = match span.parent {
                NO_PARENT => -1,
                p => p as i64,
            };
            let _ = write!(
                s,
                ",\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"workload\":\"{workload}\",\
                 \"self_us\":{:.3},\"scale\":{:.6}}}}}",
                span.name,
                span.start_ns as f64 * 1e-3,
                span.ns() as f64 * 1e-3,
                self.self_ns(i) as f64 * 1e-3,
                span.scale,
            );
        }
        let _ = write!(s, "\n],\"droppedSpans\":{}}}\n", self.dropped);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// block ⊃ {a ⊃ {a1}, b}: self time subtracts direct children only.
    fn fixture() -> Recorder {
        let mut r = Recorder::with_capacity(8);
        for (name, start, end, parent) in [
            ("block", 0, 100, NO_PARENT),
            ("a", 10, 50, 0),
            ("a1", 20, 30, 1),
            ("b", 60, 90, 0),
        ] {
            r.spans.push(Span {
                name,
                start_ns: start,
                end_ns: end,
                parent,
                scale: 1.0,
            });
        }
        r
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let r = fixture();
        assert_eq!(r.self_ns(0), 100 - 40 - 30);
        assert_eq!(r.self_ns(1), 40 - 10);
        assert_eq!(r.self_ns(2), 10);
        assert_eq!(r.self_ns(3), 30);
    }

    #[test]
    fn open_close_nests_and_block_scale_reaches_descendants() {
        let mut r = Recorder::with_capacity(8);
        let before = r.open("probe");
        r.close(before);
        let block = r.open("block");
        let child = r.open("core.evaluate");
        r.close(child);
        r.close_block(block, 1.25);
        let s = r.spans();
        assert_eq!(s[1].parent, NO_PARENT);
        assert_eq!(s[2].parent, 1);
        assert_eq!((s[0].scale, s[1].scale, s[2].scale), (1.0, 1.25, 1.25));
        assert!(s[1].ns() >= s[2].ns());
        assert!(r
            .chrome_trace_json("w")
            .contains("\"name\":\"core.evaluate\""));
    }

    #[test]
    fn a_full_or_disabled_recorder_still_times() {
        let mut off = Recorder::with_capacity(0);
        let o = off.open("x");
        assert!(off.close(o) >= 0.0);
        assert_eq!((off.spans().len(), off.dropped), (0, 0));

        let mut tiny = Recorder::with_capacity(1);
        let a = tiny.open("a");
        let b = tiny.open("b");
        tiny.close(b);
        tiny.close(a);
        assert_eq!((tiny.spans().len(), tiny.dropped), (1, 1));
    }
}
