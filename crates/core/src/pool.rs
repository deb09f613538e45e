//! A pinned-size deterministic thread pool for per-rank fan-out.
//!
//! Parallelism here never touches results: every work item (a rank's
//! private accumulator) is processed by exactly one worker, the partition
//! of items into workers is a pure function of the item count and the pool
//! size, and nothing is reduced across threads — the caller merges the
//! item buffers afterward in a fixed, rank-indexed order (the sanctioned
//! pattern of DESIGN.md §8). Thread scheduling can therefore only change
//! *when* a buffer is filled, never *what* it contains.

/// Worker-thread count from the `ANTON_THREADS` environment variable
/// (a run configuration input, like a command-line flag); defaults to 1.
pub fn threads_from_env() -> usize {
    match std::env::var("ANTON_THREADS") {
        Ok(s) => s.trim().parse::<usize>().unwrap_or(1).max(1),
        Err(_) => 1,
    }
}

/// A fixed-size pool of scoped worker threads.
#[derive(Clone, Copy, Debug)]
pub struct DetPool {
    threads: usize,
}

impl DetPool {
    pub fn new(threads: usize) -> DetPool {
        DetPool {
            threads: threads.max(1),
        }
    }

    /// Apply `f(index, item)` to every item, fanning contiguous chunks of
    /// the slice out to workers. With one thread (the default) no threads
    /// are spawned at all.
    pub fn run<T: Send>(&self, items: &mut [T], f: impl Fn(usize, &mut T) + Sync) {
        self.run_overlapped(items, f, || {});
    }

    /// Like [`Self::run`], but additionally executes `main` on the calling
    /// thread while the workers process `items` — the engine overlaps the
    /// FFT trunk of the mesh phase with per-rank correction work this way,
    /// mirroring the paper's concurrent HTIS and flexible-subsystem chains
    /// (§3.2). `main` and the workers must write disjoint buffers.
    pub fn run_overlapped<T: Send, R>(
        &self,
        items: &mut [T],
        f: impl Fn(usize, &mut T) + Sync,
        main: impl FnOnce() -> R,
    ) -> R {
        if self.threads == 1 || items.len() <= 1 {
            let r = main();
            for (i, item) in items.iter_mut().enumerate() {
                f(i, item);
            }
            return r;
        }
        let chunk = items.len().div_ceil(self.threads);
        let f = &f;
        #[expect(
            clippy::disallowed_methods,
            reason = "D5: the one compute fan-out; workers write disjoint items and every merge is the caller's, in item order"
        )]
        std::thread::scope(|s| {
            for (c, slice) in items.chunks_mut(chunk).enumerate() {
                let base = c * chunk;
                s.spawn(move || {
                    for (k, item) in slice.iter_mut().enumerate() {
                        f(base + k, item);
                    }
                });
            }
            main()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The partition is contiguous and exhaustive: every index is visited
    /// exactly once with its own item, for any pool size.
    #[test]
    fn every_item_is_processed_once_with_its_index() {
        for threads in 1..=5 {
            let pool = DetPool::new(threads);
            let mut items: Vec<(usize, u32)> = (0..11).map(|i| (i, 0u32)).collect();
            pool.run(&mut items, |i, item| {
                assert_eq!(i, item.0);
                item.1 += 1;
            });
            assert!(items.iter().all(|&(_, n)| n == 1), "threads={threads}");
        }
    }

    /// Buffer contents are independent of the pool size — the property the
    /// engine's thread-count invariance rests on.
    #[test]
    fn results_are_identical_across_pool_sizes() {
        let fill = |threads: usize| {
            let mut buf = vec![0u64; 23];
            DetPool::new(threads).run(&mut buf, |i, b| {
                *b = (i as u64).wrapping_mul(0x9E3779B97F4A7C15);
            });
            buf
        };
        let one = fill(1);
        for threads in 2..=4 {
            assert_eq!(fill(threads), one, "pool size {threads} diverged");
        }
    }

    #[test]
    fn overlapped_main_runs_and_returns() {
        for threads in [1usize, 3] {
            let mut buf = vec![0u8; 7];
            let r = DetPool::new(threads).run_overlapped(&mut buf, |_, b| *b = 1, || 42usize);
            assert_eq!(r, 42);
            assert!(buf.iter().all(|&b| b == 1));
        }
    }

    #[test]
    fn env_parse_is_defensive() {
        // Only exercises the parsing contract, not the process environment.
        assert_eq!("4".trim().parse::<usize>().unwrap_or(1).max(1), 4);
        assert_eq!("zero".trim().parse::<usize>().unwrap_or(1).max(1), 1);
        assert_eq!("0".trim().parse::<usize>().unwrap_or(1).max(1), 1);
    }
}
