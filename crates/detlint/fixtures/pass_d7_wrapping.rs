// Fixture: linted as crates/core/src/good.rs — the sanctioned shapes: the
// fixpoint wrappers, or arithmetic on the `Wrapping` word `raw()` returns,
// which is the two's-complement wrap by type.

use anton_fixpoint::{Fx32, Q20};

pub fn drift(a: Fx32, b: Fx32) -> Fx32 {
    a.wrapping_add(b)
}

pub fn minimum_image(a: Fx32, b: Fx32) -> Fx32 {
    a.wrapping_sub(b)
}

pub fn sum(a: Q20, b: Q20) -> Q20 {
    Q20::from_raw((a.raw() + b.raw()).0)
}

pub fn bucket(q: Q20, shift: usize) -> usize {
    (q.raw() >> shift).0 as usize
}

pub fn doubled(q: Q20) -> i64 {
    (q.raw() << 1).0
}
