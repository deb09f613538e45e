// Fixture: linted as crates/core/src/bad.rs — a match-batch kernel doing
// bare integer arithmetic on raw fixed-point lanes. `raw()` returns a
// `Wrapping`, so each op is refused by type; the comparison-only cutoff
// test compiles.

use anton_fixpoint::{Fx32, Q20};

pub fn lane_delta(x: [Fx32; 8], y: [Fx32; 8], lane: usize) -> i32 {
    x[lane].raw() - y[lane].raw()
}

pub fn lane_r2(d: Q20) -> i64 {
    d.raw() * d.raw()
}

pub fn lane_scaled(d: Q20, half_edge: i64) -> i64 {
    half_edge + d.raw()
}

pub fn lane_widened(d: Q20) -> i64 {
    d.raw() << 20
}

pub fn lane_cutoff_is_fine(r2: Q20, rc2: Q20) -> bool {
    r2.raw() <= rc2.raw()
}
