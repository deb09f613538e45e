// Fixture: linted as crates/core/src/bad.rs — bare integer arithmetic over
// raw Q20 displacement components in a match-cache monitor: the
// subtraction, the doubled threshold and the shift are refused by type
// (`raw()` returns a `Wrapping`); the epoch-equality comparison compiles.

use anton_fixpoint::{Fx32, Q20};

pub fn displacement(cur: Fx32, reference: Fx32) -> i32 {
    cur.raw() - reference.raw()
}

pub fn crossed(max_disp: Q20, slack: Q20) -> bool {
    2 * max_disp.raw() >= slack.raw()
}

pub fn padded(d: Q20) -> i64 {
    d.raw() << 1
}

pub fn epoch_unchanged(a: Fx32, b: Fx32) -> bool {
    // Comparisons on the raw representation stay fine.
    a.raw() == b.raw()
}
