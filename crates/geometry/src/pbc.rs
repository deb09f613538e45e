//! Orthorhombic periodic boxes.

use crate::Vec3;

/// An orthorhombic periodic simulation cell with edge lengths in Å.
///
/// Anton's 512-node machines partition such a box 8×8×8 across the torus
/// (paper §2.2); all chemical systems in the paper's evaluation are cubic or
/// near-cubic orthorhombic cells.
///
/// `min_image` and `wrap` skip their divide-and-round when every axis is in
/// a range where it provably returns `x + 0.0` (see [`quotient_bound`]);
/// otherwise they run the division formula. Both bounds are functions of
/// `edge`.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct PeriodicBox {
    edge: Vec3,
    /// Per axis: every `|c| <= image_bound` has `c / L` below 0.5 in
    /// floating point, so `round` gives ±0.
    image_bound: Vec3,
    /// Per axis: every `0 <= p <= wrap_bound` has `p / L` below 1 in
    /// floating point, so `floor` gives ±0.
    wrap_bound: Vec3,
}

/// The largest `c >= 0` whose floating-point quotient `c / l` is below
/// `limit`, or −∞ when `l` is not finite.
///
/// For finite `l > 0` and `|q| < 1/2` (`round`) or `0 <= q < 1` (`floor`),
/// the integer part is ±0 with the sign of `q`, `l · ±0` is ±0, and
/// `x − (±0)` is `x + 0.0` bit for bit (`−0 − (−0)` is `+0`, the only case
/// where `x + 0.0` is not `x`). Correctly rounded division is monotone, so
/// one check at the bound covers every `|x|` below it. The start `l · limit`
/// is exact for normal `l`; the loop steps down from it until the quotient
/// clears `limit` (one step for a normal `l`, a few for a subnormal one).
fn quotient_bound(l: f64, limit: f64) -> f64 {
    if !l.is_finite() {
        return f64::NEG_INFINITY;
    }
    let mut c = l * limit;
    while c / l >= limit {
        c = c.next_down();
    }
    c
}

impl PeriodicBox {
    /// A cubic box with the given edge length (Å).
    pub fn cubic(edge: f64) -> PeriodicBox {
        PeriodicBox::new(Vec3::splat(edge))
    }

    pub fn new(edge: Vec3) -> PeriodicBox {
        assert!(
            edge.x > 0.0 && edge.y > 0.0 && edge.z > 0.0,
            "box edges must be positive: {edge:?}"
        );
        let bound = |limit| {
            Vec3::new(
                quotient_bound(edge.x, limit),
                quotient_bound(edge.y, limit),
                quotient_bound(edge.z, limit),
            )
        };
        PeriodicBox {
            edge,
            image_bound: bound(0.5),
            wrap_bound: bound(1.0),
        }
    }

    #[inline]
    pub fn edge(&self) -> Vec3 {
        self.edge
    }

    #[inline]
    pub fn volume(&self) -> f64 {
        self.edge.x * self.edge.y * self.edge.z
    }

    /// Wrap a Cartesian position into the primary cell `[0, L)^3`:
    /// `p − L·floor(p/L)` per axis, bit for bit.
    #[inline]
    pub fn wrap(&self, p: Vec3) -> Vec3 {
        let b = self.wrap_bound;
        let inside = |x: f64, bound: f64| (0.0..=bound).contains(&x);
        if inside(p.x, b.x) & inside(p.y, b.y) & inside(p.z, b.z) {
            p + Vec3::ZERO
        } else {
            self.wrap_by_floor(p)
        }
    }

    #[cold]
    #[inline(never)]
    fn wrap_by_floor(&self, p: Vec3) -> Vec3 {
        let e = self.edge;
        Vec3::new(
            p.x - e.x * (p.x / e.x).floor(),
            p.y - e.y * (p.y / e.y).floor(),
            p.z - e.z * (p.z / e.z).floor(),
        )
    }

    /// Minimum-image displacement `a - b`: `d − L·round(d/L)` per axis,
    /// bit for bit.
    #[inline]
    pub fn min_image(&self, a: Vec3, b: Vec3) -> Vec3 {
        let d = a - b;
        let m = self.image_bound;
        if (d.x.abs() <= m.x) & (d.y.abs() <= m.y) & (d.z.abs() <= m.z) {
            // `+ 0` turns −0 into +0, as `d − L·(−0)` does.
            d + Vec3::ZERO
        } else {
            self.image_by_rounding(d)
        }
    }

    #[cold]
    #[inline(never)]
    fn image_by_rounding(&self, mut d: Vec3) -> Vec3 {
        let e = self.edge;
        d.x -= e.x * (d.x / e.x).round();
        d.y -= e.y * (d.y / e.y).round();
        d.z -= e.z * (d.z / e.z).round();
        d
    }

    /// Squared minimum-image distance.
    #[inline]
    pub fn dist2(&self, a: Vec3, b: Vec3) -> f64 {
        self.min_image(a, b).norm2()
    }

    /// Cartesian → fractional coordinates in `[0, 1)`.
    #[inline]
    pub fn to_frac(&self, p: Vec3) -> Vec3 {
        let w = self.wrap(p);
        Vec3::new(w.x / self.edge.x, w.y / self.edge.y, w.z / self.edge.z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    /// `wrap` before its fast path: the floor formula on every input.
    fn wrap_oracle(b: &PeriodicBox, p: Vec3) -> Vec3 {
        let e = b.edge();
        Vec3::new(
            p.x - e.x * (p.x / e.x).floor(),
            p.y - e.y * (p.y / e.y).floor(),
            p.z - e.z * (p.z / e.z).floor(),
        )
    }

    /// `min_image` before its fast path: the division formula on every input.
    fn min_image_oracle(b: &PeriodicBox, a: Vec3, c: Vec3) -> Vec3 {
        let e = b.edge();
        let mut d = a - c;
        d.x -= e.x * (d.x / e.x).round();
        d.y -= e.y * (d.y / e.y).round();
        d.z -= e.z * (d.z / e.z).round();
        d
    }

    fn bits(v: Vec3) -> [u64; 3] {
        [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()]
    }

    /// Cubic, power-of-two, non-cubic, tiny, huge and subnormal edges.
    fn boxes() -> Vec<PeriodicBox> {
        vec![
            PeriodicBox::cubic(18.0),
            PeriodicBox::cubic(64.0),
            PeriodicBox::new(Vec3::new(10.0, 23.7, 0.3)),
            PeriodicBox::new(Vec3::new(1e-3, 3.0, 1e5)),
            PeriodicBox::new(Vec3::new(0.1, 62.23, 1e300)),
            PeriodicBox::new(Vec3::new(1e-310, 5e-324, f64::MIN_POSITIVE)),
        ]
    }

    /// Every special value of `b`'s three axes, each ±: zero, the fast-path
    /// `bound` and L/2 and L, each ±1 ulp, NaN, ∞, subnormals, extremes.
    fn edge_cases(b: &PeriodicBox, bound: Vec3) -> Vec<f64> {
        let mut v = vec![
            0.0,
            f64::NAN,
            f64::INFINITY,
            5e-324,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 3.0,
            f64::MAX,
            1.0,
        ];
        for k in 0..3 {
            for x in [bound[k], b.edge()[k] * 0.5, b.edge()[k]] {
                v.extend([x.next_down(), x, x.next_up()]);
            }
        }
        let negated: Vec<f64> = v.iter().map(|x| -x).collect();
        v.extend(negated);
        v
    }

    #[test]
    fn min_image_fast_path_is_the_division_formula_bitwise() {
        for b in boxes() {
            for k in 0..3 {
                let (l, bound) = (b.edge()[k], b.image_bound[k]);
                if l >= f64::MIN_POSITIVE {
                    // The bound is the last value the fast path may take.
                    assert!(bound / l < 0.5 && bound.next_up() / l >= 0.5, "{b:?}");
                }
            }
            for x in edge_cases(&b, b.image_bound) {
                for (a, c) in [
                    (Vec3::splat(x), Vec3::ZERO),
                    (Vec3::ZERO, Vec3::splat(x)),
                    (Vec3::splat(x), Vec3::splat(-x)),
                ] {
                    assert_eq!(
                        bits(b.min_image(a, c)),
                        bits(min_image_oracle(&b, a, c)),
                        "{b:?}: {a:?} - {c:?}"
                    );
                }
            }
        }
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0x5eed);
        let boxes = boxes();
        for n in 0..1_000_000 {
            let b = &boxes[n % 5];
            let e = b.edge();
            let mut point = || {
                Vec3::new(
                    (rng.gen::<f64>() * 4.0 - 1.5) * e.x,
                    (rng.gen::<f64>() * 4.0 - 1.5) * e.y,
                    (rng.gen::<f64>() * 4.0 - 1.5) * e.z,
                )
            };
            let (a, c) = (point(), point());
            assert_eq!(
                bits(b.min_image(a, c)),
                bits(min_image_oracle(b, a, c)),
                "{b:?}: {a:?} - {c:?}"
            );
        }
    }

    #[test]
    fn wrap_fast_path_is_the_floor_formula_bitwise() {
        for b in boxes() {
            for k in 0..3 {
                let (l, bound) = (b.edge()[k], b.wrap_bound[k]);
                if l >= f64::MIN_POSITIVE {
                    assert!(bound / l < 1.0 && bound.next_up() / l >= 1.0, "{b:?}");
                }
            }
            for x in edge_cases(&b, b.wrap_bound) {
                let p = Vec3::splat(x);
                assert_eq!(bits(b.wrap(p)), bits(wrap_oracle(&b, p)), "{b:?}: {p:?}");
            }
        }
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0x3a9);
        let boxes = boxes();
        for n in 0..1_000_000 {
            let b = &boxes[n % 5];
            let e = b.edge();
            let p = Vec3::new(
                (rng.gen::<f64>() * 4.0 - 1.5) * e.x,
                (rng.gen::<f64>() * 4.0 - 1.5) * e.y,
                (rng.gen::<f64>() * 4.0 - 1.5) * e.z,
            );
            assert_eq!(bits(b.wrap(p)), bits(wrap_oracle(b, p)), "{b:?}: {p:?}");
        }
    }

    #[test]
    fn wrap_into_primary_cell() {
        let b = PeriodicBox::cubic(10.0);
        let p = b.wrap(Vec3::new(-0.5, 10.5, 25.0));
        assert!((p.x - 9.5).abs() < 1e-12);
        assert!((p.y - 0.5).abs() < 1e-12);
        assert!((p.z - 5.0).abs() < 1e-12);
    }

    #[test]
    fn min_image_short_way_around() {
        let b = PeriodicBox::cubic(10.0);
        let d = b.min_image(Vec3::new(9.5, 0.0, 0.0), Vec3::new(0.5, 0.0, 0.0));
        assert!((d.x + 1.0).abs() < 1e-12, "{d:?}");
    }

    #[test]
    fn min_image_is_antisymmetric() {
        let b = PeriodicBox::cubic(12.0);
        let a = Vec3::new(1.0, 11.0, 6.0);
        let c = Vec3::new(11.5, 0.5, 5.0);
        let d1 = b.min_image(a, c);
        let d2 = b.min_image(c, a);
        assert!((d1 + d2).norm() < 1e-12);
    }
}
