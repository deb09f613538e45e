// Fixture: linted as crates/core/src/pool.rs, the audited pool — the
// sanctioned deterministic fan-out (DESIGN.md §8): scoped threads fill
// disjoint per-rank buffers and the caller merges them serially in fixed
// rank order with wrapping adds. Reducers inside the spawned closures
// operate on private data only.

pub fn rank_sums(items: &mut [Vec<i64>]) -> i64 {
    #[expect(
        clippy::disallowed_methods,
        reason = "the audited fan-out: workers write disjoint buffers, the caller merges in rank order"
    )]
    std::thread::scope(|s| {
        for chunk in items.chunks_mut(2) {
            s.spawn(move || {
                for buf in chunk.iter_mut() {
                    let local: i64 = buf.iter().copied().sum();
                    buf.push(local);
                }
            });
        }
    });
    let mut total: i64 = 0;
    for buf in items.iter() {
        total = total.wrapping_add(*buf.last().unwrap());
    }
    total
}
