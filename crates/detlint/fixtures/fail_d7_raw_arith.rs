// Fixture: linted as crates/core/src/bad.rs — a fixed-point word used as a
// bare integer outside `anton-fixpoint`. `raw()` returns a `Wrapping`, so
// `+ - * <<` on it can only be the two's-complement wrap and code that
// needs an unchecked integer result does not type-check; the words'
// fields are private, so neither does a `.0` read or a tuple constructor.

use anton_fixpoint::{Fx32, FxVec3, Q20};

pub fn drift(a: Fx32, b: Fx32) -> i32 {
    a.raw() + b.raw()
}

pub fn span(a: Q20, b: Q20) -> i64 {
    a.raw() - b.raw()
}

pub fn lane_r2(d: Q20) -> i64 {
    d.raw() * d.raw()
}

pub fn lever(q: Q20, k: i64) -> i64 {
    k * q.raw()
}

pub fn crossed(max_disp: Q20, slack: Q20) -> bool {
    2 * max_disp.raw() >= slack.raw()
}

pub fn scaled(q: Q20) -> i64 {
    q.raw() << 4
}

pub fn bits(q: Q20) -> i64 {
    q.0
}

pub fn word(raw: i32) -> Fx32 {
    Fx32(raw)
}

pub fn position(x: Fx32) -> FxVec3 {
    FxVec3([x; 3])
}
