// Fixture: linted as crates/core/src/good.rs — a match-batch kernel in its
// sanctioned shape: displacements through the wrapping wrappers, the
// product and shift on `Wrapping` words, the cutoff a comparison.

use anton_fixpoint::{Fx32, Q20};
use std::num::Wrapping;

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

pub fn lane_bucket(q: Q20, shift: usize) -> usize {
    (q.raw() >> shift).0 as usize
}
