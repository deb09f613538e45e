// Fixture: linted as crates/fixpoint/src/fx32.rs — plain fixed-point code
// trips nothing, including tricky lexical look-alikes.

use anton_fixpoint::rne_shr_i128;

pub fn lerp_fixed(a: i64, b: i64, t_frac: i64) -> i64 {
    // Strings and comments may mention 1.0, f64, HashMap, Instant freely.
    let _label = "uses f64? no: 1.0 / HashMap / Instant are just text here";
    let span = i128::from(b.wrapping_sub(a)) * i128::from(t_frac);
    a.wrapping_add(rne_shr_i128(span, 31))
}

pub fn ranges_are_not_floats(n: usize) -> usize {
    (0..8).chain(0..n).max().unwrap_or(0)
}
