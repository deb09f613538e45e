// Fixture: linted as crates/core/src/good.rs — the displacement monitor in
// its sanctioned shape: minimum-image displacements via wrapping_sub, the
// doubled threshold on the `Wrapping` word, raw reads in comparisons.

use anton_fixpoint::{Fx32, Q20};

pub fn displacement(cur: Fx32, reference: Fx32) -> Fx32 {
    // Wrapping subtraction *is* the minimum-image convention in box-fraction
    // coordinates.
    cur.wrapping_sub(reference)
}

pub fn crossed(max_disp: Q20, slack: Q20) -> bool {
    (max_disp.raw() << 1) >= slack.raw()
}

pub fn epoch_unchanged(a: Fx32, b: Fx32) -> bool {
    a.raw() == b.raw()
}
