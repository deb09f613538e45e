// Fixture: linted as crates/core/src/pool.rs, the audited pool — the
// batched match/evaluate fan-out in its sanctioned shape: scoped workers
// fill disjoint per-rank batch queues (private force buffers included),
// then the caller walks the queues serially in fixed rank order and merges
// with wrapping adds. No reduction sees data in thread-completion order.

pub struct RankBatches {
    pub lanes: Vec<[i64; 8]>,
    pub forces: Vec<i64>,
}

pub fn fanout_and_merge(ranks: &mut [RankBatches], out: &mut [i64]) {
    #[expect(
        clippy::disallowed_methods,
        reason = "the audited fan-out: workers write disjoint buffers, the caller merges in rank order"
    )]
    std::thread::scope(|s| {
        for rank in ranks.iter_mut() {
            s.spawn(move || {
                for lane in rank.lanes.iter() {
                    let local: i64 = lane.iter().copied().sum();
                    rank.forces.push(local);
                }
            });
        }
    });
    // Serial merge in rank order: batch lane order is the force order.
    for rank in ranks.iter() {
        for (slot, f) in rank.forces.iter().enumerate() {
            out[slot % out.len()] = out[slot % out.len()].wrapping_add(*f);
        }
    }
}
