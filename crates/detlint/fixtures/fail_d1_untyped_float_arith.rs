// Fixture: linted as crates/core/src/state.rs — float arithmetic with no
// `f64` token and no float literal, the shape `decode_position` had before
// it was marked a boundary: the token rule sees nothing, and
// `clippy::float_arithmetic`, denied module-wide in the D1 files, refuses
// the three multiplies.

use anton_fixpoint::FxVec3;

pub fn scaled(p: FxVec3, edge: FxVec3) -> FxVec3 {
    let (f, e) = (p.to_unit_frac(), edge.to_unit_frac());
    FxVec3::from_unit_frac([f[0] * e[0], f[1] * e[1], f[2] * e[2]])
}
