// Fixture: linted as crates/core/src/good.rs — the sanctioned shapes: the
// fixpoint wrappers and position methods, arithmetic on the `Wrapping`
// word `raw()` returns (the two's-complement wrap by type), and raw words
// read in comparisons and indices.

use anton_fixpoint::{Fx32, FxVec3, Q20};
use std::num::Wrapping;

pub fn minimum_image(a: Fx32, b: Fx32) -> Fx32 {
    a.wrapping_sub(b)
}

pub fn drift(a: Fx32, b: Fx32) -> Fx32 {
    a.wrapping_add(b)
}

pub fn sum(a: Q20, b: Q20) -> Q20 {
    Q20::from_raw((a.raw() + b.raw()).0)
}

pub fn crossed(max_disp: Q20, slack: Q20) -> bool {
    (max_disp.raw() << 1) >= slack.raw()
}

pub fn bucket(q: Q20, shift: usize) -> usize {
    (q.raw() >> shift).0 as usize
}

pub fn index(cells: &[u32], q: Q20) -> u32 {
    cells[q.raw().0 as usize]
}

pub fn unchanged(a: Fx32, b: Fx32) -> bool {
    a.raw() == b.raw()
}

pub fn lane_r2_mask(x: [Fx32; 8], y: [Fx32; 8], cutoff: Q20) -> u8 {
    let limit = cutoff.raw();
    let mut mask = 0u8;
    for (lane, (a, b)) in x.iter().zip(y).enumerate() {
        let d = Wrapping(i64::from(a.wrapping_sub(b).raw().0));
        if (d * d) >> 31 <= limit {
            mask |= 1u8 << lane;
        }
    }
    mask
}

pub fn moved(p: FxVec3, delta: [i64; 3]) -> FxVec3 {
    p.wrapping_add_raw(delta)
}

pub fn reencoded(p: FxVec3) -> FxVec3 {
    FxVec3::from_raw_bits(p.raw_bits())
}
