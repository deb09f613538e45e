//! Deterministic per-rank fan-out over scoped threads.
//!
//! Each [`DetPool::run`] call spawns up to `threads` scoped threads for
//! that one fan-out and joins them before it returns; nothing outlives the
//! call. Parallelism here never touches results: every work item (a rank's
//! private accumulator) is processed by exactly one thread, the partition
//! of items into threads is a pure function of the item count and the
//! thread count, and nothing is reduced across threads — the caller merges
//! the item buffers afterward in a fixed, rank-indexed order (the
//! sanctioned pattern of DESIGN.md §8). Thread scheduling can therefore
//! only change *when* a buffer is filled, never *what* it contains.

/// The thread count of a per-rank fan-out.
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
    /// the slice out to scoped threads. With one thread (the default) or
    /// at most one item no thread is spawned at all.
    pub fn run<T: Send>(&self, items: &mut [T], f: impl Fn(usize, &mut T) + Sync) {
        if self.threads == 1 || items.len() <= 1 {
            for (i, item) in items.iter_mut().enumerate() {
                f(i, item);
            }
            return;
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
        });
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
}
