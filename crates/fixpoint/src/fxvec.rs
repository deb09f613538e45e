//! Periodic positions: one box fraction per axis.

use crate::Fx32;

/// A position expressed as a per-axis fraction of the periodic box, one
/// [`Fx32`] per axis. Wrapping arithmetic implements periodic boundary
/// conditions exactly.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct FxVec3(pub [Fx32; 3]);

impl FxVec3 {
    pub const ZERO: FxVec3 = FxVec3([Fx32(0); 3]);

    /// Build from box-fraction coordinates in `[0, 1)` (the conventional MD
    /// fractional coordinate), mapping onto the symmetric `[-1, 1)` fraction
    /// representation used internally.
    // detlint::boundary(reason = "per-axis f64 -> fraction quantization edge; delegates to Fx32::from_f64_wrapped")
    #[allow(clippy::float_arithmetic)]
    #[inline]
    pub fn from_unit_frac(f: [f64; 3]) -> FxVec3 {
        FxVec3([
            Fx32::from_f64_wrapped(2.0 * f[0] - 1.0),
            Fx32::from_f64_wrapped(2.0 * f[1] - 1.0),
            Fx32::from_f64_wrapped(2.0 * f[2] - 1.0),
        ])
    }

    /// Fractional coordinates in `[0, 1)`.
    // detlint::boundary(reason = "exact fraction -> f64 decode; read-only, never accumulated back")
    #[allow(clippy::float_arithmetic)]
    #[inline]
    pub fn to_unit_frac(self) -> [f64; 3] {
        let f = |a: Fx32| (a.to_f64() + 1.0) / 2.0;
        [f(self.0[0]), f(self.0[1]), f(self.0[2])]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_frac_roundtrip() {
        let p = FxVec3::from_unit_frac([0.25, 0.5, 0.75]);
        let f = p.to_unit_frac();
        for (a, b) in f.iter().zip([0.25, 0.5, 0.75]) {
            assert!((a - b).abs() < 1e-9);
        }
    }
}
