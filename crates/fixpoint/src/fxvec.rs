//! Three-component fixed-point vectors: periodic positions and Q-format
//! displacement / force / velocity triples.

use crate::{Fx32, Q};

/// A position expressed as a per-axis fraction of the periodic box, one
/// [`Fx32`] per axis. Wrapping arithmetic implements periodic boundary
/// conditions exactly.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct FxVec3(pub [Fx32; 3]);

/// A Q-format vector (displacement in Å, force in kcal/mol/Å, velocity in
/// Å/fs, ... depending on `FRAC`).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct QVec3<const FRAC: u32>(pub [Q<FRAC>; 3]);

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

    /// Minimum-image displacement `self - rhs` as box fractions, valid while
    /// the true separation is under half a box edge on each axis.
    #[inline]
    pub fn wrapping_sub(self, rhs: FxVec3) -> FxVec3 {
        FxVec3([
            self.0[0].wrapping_sub(rhs.0[0]),
            self.0[1].wrapping_sub(rhs.0[1]),
            self.0[2].wrapping_sub(rhs.0[2]),
        ])
    }

    #[inline]
    pub fn wrapping_add(self, rhs: FxVec3) -> FxVec3 {
        FxVec3([
            self.0[0].wrapping_add(rhs.0[0]),
            self.0[1].wrapping_add(rhs.0[1]),
            self.0[2].wrapping_add(rhs.0[2]),
        ])
    }

    /// Convert a (small) fraction displacement to Å given the box half-edges
    /// in Q-format: `delta_Å = frac * half_edge` because the fraction spans
    /// `[-1, 1)` over the full edge.
    ///
    /// `half_edge_raw[k]` carries `edge[k]/2` in Å with `EDGE_FRAC` fraction
    /// bits; the result has `OUT` fraction bits.
    #[inline]
    pub fn frac_to_len<const EDGE_FRAC: u32, const OUT: u32>(
        self,
        half_edge: [Q<EDGE_FRAC>; 3],
    ) -> QVec3<OUT> {
        QVec3([
            Q::from_raw(self.0[0].scale(half_edge[0].raw(), EDGE_FRAC, OUT)),
            Q::from_raw(self.0[1].scale(half_edge[1].raw(), EDGE_FRAC, OUT)),
            Q::from_raw(self.0[2].scale(half_edge[2].raw(), EDGE_FRAC, OUT)),
        ])
    }
}

impl<const FRAC: u32> QVec3<FRAC> {
    pub const ZERO: QVec3<FRAC> = QVec3([Q(0); 3]);

    // detlint::boundary(reason = "per-axis f64 -> Q quantization edge; delegates to Q::from_f64")
    #[inline]
    pub fn from_f64(v: [f64; 3]) -> Self {
        QVec3([Q::from_f64(v[0]), Q::from_f64(v[1]), Q::from_f64(v[2])])
    }

    // detlint::boundary(reason = "per-axis Q -> f64 decode; read-only, never accumulated back")
    #[inline]
    pub fn to_f64(self) -> [f64; 3] {
        [self.0[0].to_f64(), self.0[1].to_f64(), self.0[2].to_f64()]
    }

    #[inline]
    pub fn wrapping_add(self, rhs: Self) -> Self {
        QVec3([
            self.0[0].wrapping_add(rhs.0[0]),
            self.0[1].wrapping_add(rhs.0[1]),
            self.0[2].wrapping_add(rhs.0[2]),
        ])
    }

    #[inline]
    pub fn wrapping_sub(self, rhs: Self) -> Self {
        QVec3([
            self.0[0].wrapping_sub(rhs.0[0]),
            self.0[1].wrapping_sub(rhs.0[1]),
            self.0[2].wrapping_sub(rhs.0[2]),
        ])
    }

    #[inline]
    pub fn wrapping_neg(self) -> Self {
        QVec3([
            self.0[0].wrapping_neg(),
            self.0[1].wrapping_neg(),
            self.0[2].wrapping_neg(),
        ])
    }

    /// Squared length rounded into `OUT` fraction bits. The three squares are
    /// computed exactly in 128 bits and summed before a single rounding, so
    /// the result is independent of component order.
    #[inline]
    pub fn norm2<const OUT: u32>(self) -> Q<OUT> {
        let s: i128 = self.0.iter().map(|c| c.0 as i128 * c.0 as i128).sum();
        Q::from_raw(crate::rounding::rne_shr_i128(s, 2 * FRAC - OUT))
    }

    /// Scale every component by a Q-format scalar, rounding each component.
    #[inline]
    pub fn scale<const S: u32, const OUT: u32>(self, s: Q<S>) -> QVec3<OUT> {
        QVec3([
            self.0[0].mul_into::<S, OUT>(s),
            self.0[1].mul_into::<S, OUT>(s),
            self.0[2].mul_into::<S, OUT>(s),
        ])
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

    #[test]
    fn frac_to_len_scales_by_half_edge() {
        // Box edge 40 Å; fraction displacement 0.1 of [-1,1) = 0.1 * 20 Å = 2 Å.
        let half_edge = [Q::<20>::from_f64(20.0); 3];
        let a = FxVec3::from_unit_frac([0.55, 0.5, 0.5]);
        let b = FxVec3::from_unit_frac([0.50, 0.5, 0.5]);
        let d: QVec3<20> = a.wrapping_sub(b).frac_to_len(half_edge);
        assert!((d.to_f64()[0] - 2.0).abs() < 1e-4, "{:?}", d.to_f64());
        assert!(d.to_f64()[1].abs() < 1e-4);
    }

    #[test]
    fn minimum_image_across_boundary() {
        let half_edge = [Q::<20>::from_f64(25.0); 3]; // 50 Å box
        let a = FxVec3::from_unit_frac([0.98, 0.5, 0.5]);
        let b = FxVec3::from_unit_frac([0.02, 0.5, 0.5]);
        let d: QVec3<20> = a.wrapping_sub(b).frac_to_len(half_edge);
        // True separation via images: 0.98 - 1.02 = -0.04 of box = -2 Å.
        assert!((d.to_f64()[0] + 2.0).abs() < 1e-4, "{:?}", d.to_f64());
    }

    #[test]
    fn norm2_is_component_order_free_and_correct() {
        let v = QVec3::<20>::from_f64([3.0, 4.0, 12.0]);
        let n: Q<20> = v.norm2();
        assert_eq!(n.to_f64(), 169.0);
    }
}
