// Fixture: linted as crates/ewald/src/bad.rs — a parallel float reduction:
// each spawned thread returns a partial sum and the joins feed `sum`, so
// the result depends on how the work was split. D5 refuses the fan-out
// itself: every `std::thread` entry point is banned outside the audited
// pools.

pub fn energy(contributions: &[f64]) -> f64 {
    let handles: Vec<_> = contributions
        .chunks(64)
        .map(|c| {
            let c = c.to_vec();
            std::thread::spawn(move || c.iter().map(|x| x * x).sum::<f64>())
        })
        .collect();
    handles.into_iter().map(|h| h.join().unwrap_or(0.0)).sum()
}
