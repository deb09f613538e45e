// Fixture: linted as crates/core/src/pool.rs, the audited pool — the
// displacement monitor in its sanctioned shape: scoped workers write each
// slab's maximum into its own pre-allocated slot, then the caller folds
// the slots serially in slab order. The rebuild decision is a pure
// function of the trajectory on every node count, thread count and rerun.

pub fn slab_maxima(slabs: &mut [(Vec<i64>, i64)]) {
    #[expect(
        clippy::disallowed_methods,
        reason = "the audited fan-out: workers write disjoint buffers, the caller merges in rank order"
    )]
    std::thread::scope(|s| {
        for (disps, max_out) in slabs.iter_mut() {
            s.spawn(move || {
                for &d in disps.iter() {
                    if d > *max_out {
                        *max_out = d;
                    }
                }
            });
        }
    });
}

pub fn rebuild_epoch(slabs: &mut [(Vec<i64>, i64)], threshold: i64) -> bool {
    slab_maxima(slabs);
    // Serial merge in slab order: deterministic regardless of which worker
    // finished first (max is order-free today, but the shape stays safe if
    // the combine ever becomes order-sensitive).
    let mut max_disp = 0i64;
    for (_, m) in slabs.iter() {
        max_disp = max_disp.max(*m);
    }
    max_disp >= threshold
}
