// Fixture: linted as crates/core/src/bad.rs — bare arithmetic on a raw
// fixed-point word, used as if it were a plain integer. `raw()` returns a
// `Wrapping`, so `+ - * <<` on it can only be the two's-complement wrap,
// and code that needs an unchecked integer result does not type-check.

use anton_fixpoint::{Fx32, Q20};

pub fn drift(a: Fx32, b: Fx32) -> i32 {
    a.raw() + b.raw()
}

pub fn scaled(q: Q20) -> i64 {
    q.raw() << 4
}

pub fn lever(q: Q20, k: i64) -> i64 {
    k * q.raw()
}

pub fn span(a: Q20, b: Q20) -> i64 {
    a.raw() - b.raw()
}

pub fn compare_is_fine(a: Fx32, b: Fx32) -> bool {
    a.raw() == b.raw()
}

pub fn index_is_fine(cells: &[u32], q: Q20) -> u32 {
    cells[q.raw().0 as usize]
}
