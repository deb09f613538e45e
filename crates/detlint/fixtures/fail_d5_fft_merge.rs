// Fixture: linted as crates/fft/src/bad.rs — distributed-FFT pencil results
// drain off a channel straight into a reduction: the merge order is the
// worker finish order, not the fixed rank order. D5 bans the `Receiver`.

pub fn merged_charge(rx: &std::sync::mpsc::Receiver<f64>) -> f64 {
    rx.try_iter().fold(0.0, |acc, q| acc + q)
}

pub fn pencil_count(rx: &std::sync::mpsc::Receiver<f64>) -> usize {
    // Even an order-insensitive drain is refused: the ban is on the type.
    rx.try_iter().count()
}
