// Fixture: linted as crates/core/src/bad.rs — the match-cache rebuild
// decision derived from per-thread displacement maxima draining off a
// channel: the fold sees slab results in thread-completion order, so the
// cache epoch becomes a function of scheduling, not the trajectory. D5
// bans the `Receiver` type.

pub fn rebuild_epoch(rx: &std::sync::mpsc::Receiver<i64>, threshold: i64) -> bool {
    let max_disp = rx.try_iter().fold(0i64, i64::max);
    max_disp >= threshold
}

pub fn slabs_reported(rx: &std::sync::mpsc::Receiver<i64>) -> usize {
    // Even an order-insensitive drain is refused: the ban is on the type.
    rx.try_iter().count()
}
