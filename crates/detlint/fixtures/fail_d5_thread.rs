// Fixture: linted as crates/core/src/bad.rs — a channel drain feeding an
// order-sensitive float reduction: the accumulation order is the thread
// finish order. D5 bans the `Receiver` type outright.

pub fn total_energy(rx: &std::sync::mpsc::Receiver<f64>) -> f64 {
    rx.try_iter().sum()
}

pub fn drained(rx: &std::sync::mpsc::Receiver<f64>) -> usize {
    // Even an order-insensitive drain is refused: the ban is on the type.
    rx.try_iter().count()
}
