//! The timing rule: every wall-clock figure is divided by a frozen
//! reference kernel sampled on the same host just before and just after it.

use crate::stats::median;
use std::time::Instant;

/// What one `host_ref` sample takes on the host the benchmark was sized on.
/// A block's normalised time is `wall / mean(ref_before, ref_after)` times
/// this, so normalised figures read as milliseconds on that host.
pub const REF_NOMINAL_MS: f64 = 10.0;

const TABLE_WORDS: usize = 32 * 1024; // 256 KiB of u64
const REF_ITERS: u32 = 4_000_000;

/// The frozen reference kernel: a xorshift-indexed integer multiply-add
/// plus one f64 multiply-add per iteration over a 256 KiB table. It must
/// never change: every normalised number is relative to it.
fn host_ref(table: &mut [u64]) -> f64 {
    let t = Instant::now();
    let mask = table.len() - 1;
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 1.0f64;
    for _ in 0..REF_ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x as usize) & mask;
        table[i] = table[i]
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(x);
        acc = acc * 0.999_999 + (table[i] >> 40) as f64 * 1e-9;
    }
    std::hint::black_box(acc);
    t.elapsed().as_secs_f64() * 1e3
}

/// Samples the reference kernel on as many threads as the workload uses
/// (a sample is the slowest thread) and keeps every sample for `host.*`.
pub struct HostRef {
    tables: Vec<Vec<u64>>,
    threads: usize,
    burst: usize,
    last: Option<(Instant, f64)>,
    pub samples: Vec<f64>,
}

impl HostRef {
    pub fn new() -> HostRef {
        HostRef {
            tables: vec![vec![1; TABLE_WORDS]],
            threads: 1,
            burst: 1,
            last: None,
            samples: Vec::new(),
        }
    }

    /// From now on sample on `threads` threads, as many as the code about
    /// to be timed uses, and let one sample be the median of `burst` runs
    /// of the kernel: 1 around sub-second blocks, where the median over
    /// many blocks absorbs a spiked sample, 3 around blocks that take
    /// seconds, where there are only a few.
    pub fn configure(&mut self, threads: usize, burst: usize) {
        self.threads = threads.max(1);
        self.burst = burst.max(1);
        if self.tables.len() < self.threads {
            self.tables.resize(self.threads, vec![1; TABLE_WORDS]);
        }
        self.last = None;
    }

    /// One sample in ms. Back-to-back timed blocks share the sample between
    /// them: one taken under a millisecond ago is returned again.
    pub fn sample(&mut self) -> f64 {
        if let Some((at, ms)) = self.last {
            if at.elapsed().as_secs_f64() < 1e-3 {
                return ms;
            }
        }
        let first = self.samples.len();
        for _ in 0..self.burst {
            let ms = self.run_kernel();
            self.samples.push(ms);
        }
        let ms = median(&self.samples[first..]);
        self.last = Some((Instant::now(), ms));
        ms
    }

    /// One run of the kernel on every configured thread; the slowest counts.
    fn run_kernel(&mut self) -> f64 {
        match &mut self.tables[..self.threads] {
            [one] => host_ref(one),
            many => std::thread::scope(|s| {
                let handles: Vec<_> = many
                    .iter_mut()
                    .map(|t| s.spawn(move || host_ref(t)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("reference kernel thread"))
                    .fold(0.0, f64::max)
            }),
        }
    }

    pub fn p50(&self) -> f64 {
        median(&self.samples)
    }

    /// p90 / p10 of the samples: how unsteady the host was during the run.
    pub fn spread(&self) -> f64 {
        crate::stats::percentile(&self.samples, 0.9) / crate::stats::percentile(&self.samples, 0.1)
    }
}

/// Factor that turns raw milliseconds measured between two reference
/// samples into normalised milliseconds.
pub fn scale(ref_before: f64, ref_after: f64) -> f64 {
    REF_NOMINAL_MS / (0.5 * (ref_before + ref_after))
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic blocks on a host that is 1.3× slow for half of them: the
    /// raw median moves with the host, the normalised one does not.
    #[test]
    fn normalisation_cancels_an_injected_host_slowdown() {
        let true_block_ms = 300.0;
        let run = |slow: f64| -> (f64, f64) {
            let mut raw = Vec::new();
            let mut norm = Vec::new();
            for k in 0..40 {
                // A deterministic ±3 % wobble stands in for block content.
                let wobble = 1.0 + 0.03 * ((k * 7 % 11) as f64 / 5.0 - 1.0);
                let host = if k % 2 == 0 { slow } else { 1.0 };
                let wall = true_block_ms * wobble * host;
                let r = REF_NOMINAL_MS * host;
                raw.push(wall);
                norm.push(wall * scale(r, r));
            }
            (median(&raw), median(&norm))
        };
        let (raw_quiet, norm_quiet) = run(1.0);
        let (raw_slow, norm_slow) = run(1.3);
        assert!((raw_slow / raw_quiet - 1.0).abs() > 0.05);
        assert!((norm_slow / norm_quiet - 1.0).abs() < 0.02);
        assert!((norm_quiet / true_block_ms - 1.0).abs() < 0.02);
    }

    #[test]
    fn reference_kernel_runs_and_is_shared_back_to_back() {
        let mut h = HostRef::new();
        h.configure(2, 3);
        let a = h.sample();
        let b = h.sample();
        assert!(a > 0.0);
        assert_eq!(a, b);
        assert_eq!(h.samples.len(), 3);
    }
}
