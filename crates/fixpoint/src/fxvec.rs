//! Periodic positions: one box fraction per axis.

use crate::Fx32;

/// A position expressed as a per-axis fraction of the periodic box, one
/// [`Fx32`] per axis. Wrapping arithmetic implements periodic boundary
/// conditions exactly.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct FxVec3(pub(crate) [Fx32; 3]);

impl FxVec3 {
    /// Build from box-fraction coordinates in `[0, 1)` (the conventional MD
    /// fractional coordinate), mapping onto the symmetric `[-1, 1)` fraction
    /// representation used internally.
    #[expect(
        clippy::float_arithmetic,
        reason = "D1 boundary: per-axis f64 -> fraction quantization edge; delegates to Fx32::from_f64_wrapped"
    )]
    #[inline]
    pub fn from_unit_frac(f: [f64; 3]) -> FxVec3 {
        FxVec3([
            Fx32::from_f64_wrapped(2.0 * f[0] - 1.0),
            Fx32::from_f64_wrapped(2.0 * f[1] - 1.0),
            Fx32::from_f64_wrapped(2.0 * f[2] - 1.0),
        ])
    }

    /// The raw signed fraction bits, one word per axis.
    #[inline]
    pub fn raw_bits(self) -> [i32; 3] {
        self.0.map(|c| c.0)
    }

    /// The position whose per-axis raw fraction bits are `bits`.
    #[inline]
    pub fn from_raw_bits(bits: [i32; 3]) -> FxVec3 {
        FxVec3(bits.map(Fx32))
    }

    /// Add a per-axis delta in raw fraction units, wrapping periodically.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "positions are words mod 2^32, so only a delta's low 32 bits move one"
    )]
    #[inline]
    pub fn wrapping_add_raw(self, d: [i64; 3]) -> FxVec3 {
        FxVec3([0, 1, 2].map(|k| Fx32(self.0[k].0.wrapping_add(d[k] as i32))))
    }

    /// Fractional coordinates in `[0, 1)`.
    #[expect(
        clippy::float_arithmetic,
        reason = "D1 boundary: exact fraction -> f64 decode; read-only, never accumulated back"
    )]
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
