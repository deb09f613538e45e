// Fixture: linted as crates/fixpoint/src/fx32.rs — a reasoned expect of the
// float and cast lints marks a quantization boundary: clippy admits the
// escape while it fires, and detlint admits the item's f64 tokens.

#[expect(
    clippy::float_arithmetic,
    clippy::cast_possible_truncation,
    reason = "documented f64 -> fixed quantization edge"
)]
pub fn from_f64(x: f64) -> i32 {
    let scaled = x * (1u64 << 31) as f64;
    scaled as i64 as i32
}

pub fn pure_fixed(a: i32, b: i32) -> i32 {
    a.wrapping_add(b)
}
