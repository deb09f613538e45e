// Fixture: linted as crates/core/src/bad.rs — evaluated batches come back
// over a channel and merge in arrival order: the energy accumulation order
// is then the thread finish order, not the fixed batch order the
// determinism contract requires. D5 bans the `Receiver` type.

pub fn merge_batch_energies(rx: &std::sync::mpsc::Receiver<f64>) -> f64 {
    rx.try_iter().sum()
}

pub fn batches_received(rx: &std::sync::mpsc::Receiver<f64>) -> usize {
    // Even an order-insensitive drain is refused: the ban is on the type.
    rx.try_iter().count()
}
