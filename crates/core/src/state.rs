//! Fixed-point simulation state.

use anton_ckpt::{CkptError, Reader, Writer};
use anton_fixpoint::rounding::rne_f64_to_i64;
use anton_fixpoint::{Fx32, FxVec3};
use anton_geometry::{PeriodicBox, Vec3};

// Each word is a raw `i64` with its own fraction bits and `2^FRAC` as an
// f64 scale: a value quantizes as `rne_f64_to_i64(x * SCALE)` and decodes
// as `word as f64 / SCALE` (exact, a power of two).

/// Fraction bits of velocity raw values (Å/fs).
pub const VEL_FRAC: u32 = 40;
// detlint::boundary(reason = "the velocity word's f64 scale, read only where a velocity is quantized or decoded")
pub const VEL_SCALE: f64 = (1u64 << VEL_FRAC) as f64;
/// Fraction bits of force raw values (kcal/mol/Å).
pub const FORCE_FRAC: u32 = 24;
// detlint::boundary(reason = "the force word's f64 scale, read only where a force is quantized or decoded")
pub const FORCE_SCALE: f64 = (1u64 << FORCE_FRAC) as f64;
/// Fraction bits of energy raw values (kcal/mol).
pub const ENERGY_FRAC: u32 = 32;
// detlint::boundary(reason = "the energy word's f64 scale, read only where an energy is quantized or decoded")
pub const ENERGY_SCALE: f64 = (1u64 << ENERGY_FRAC) as f64;
/// Fraction bits of the pair ladder's displacement words (Å), which
/// [`Q20Ladder`](crate::batch::Q20Ladder) forms and the kernels decode.
pub const DISP_FRAC: u32 = 20;
// detlint::boundary(reason = "the displacement word's f64 scale, read only where a kernel decodes a ladder displacement")
pub const DISP_SCALE: f64 = (1u64 << DISP_FRAC) as f64;

/// The complete dynamic state: per-axis box-fraction positions ([`FxVec3`],
/// whose two's-complement wrap *is* the periodic boundary condition) and
/// Q40 velocities. All mutation happens through quantized, odd-symmetric
/// updates, so the state evolves identically regardless of decomposition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FixedState {
    pub positions: Vec<FxVec3>,
    /// Velocity raw values, Q40 Å/fs per axis.
    pub velocities: Vec<[i64; 3]>,
}

impl FixedState {
    /// Quantize f64 positions/velocities onto the fixed grids.
    // detlint::boundary(reason = "setup-time f64 -> fixed quantization edge; every component rounds via rne_f64_to_i64 / from_unit_frac")
    pub fn from_f64(pbox: &PeriodicBox, positions: &[Vec3], velocities: &[Vec3]) -> FixedState {
        assert_eq!(positions.len(), velocities.len());
        let positions = positions
            .iter()
            .map(|&p| Self::quantize_position(pbox, p))
            .collect();
        let velocities = velocities
            .iter()
            .map(|v| {
                [
                    rne_f64_to_i64(v.x * VEL_SCALE),
                    rne_f64_to_i64(v.y * VEL_SCALE),
                    rne_f64_to_i64(v.z * VEL_SCALE),
                ]
            })
            .collect();
        FixedState {
            positions,
            velocities,
        }
    }

    /// One f64 position's fraction word, as [`Self::from_f64`] forms it:
    /// wrapped into the box, then rounded per axis.
    // detlint::boundary(reason = "setup-time f64 -> fraction quantization edge; rounds via from_unit_frac")
    pub(crate) fn quantize_position(pbox: &PeriodicBox, p: Vec3) -> FxVec3 {
        let e = pbox.edge();
        let w = pbox.wrap(p);
        FxVec3::from_unit_frac([w.x / e.x, w.y / e.y, w.z / e.z])
    }

    pub fn n_atoms(&self) -> usize {
        self.positions.len()
    }

    /// Exact Cartesian decode of one position (deterministic).
    #[inline]
    pub fn decode_position(&self, pbox: &PeriodicBox, i: usize) -> Vec3 {
        let e = pbox.edge();
        let f = self.positions[i].to_unit_frac();
        Vec3::new(f[0] * e.x, f[1] * e.y, f[2] * e.z)
    }

    /// All positions decoded to Cartesian f64 (for neighbor search and
    /// kernel interiors; every decode is exact and order-independent).
    pub fn decode_positions(&self, pbox: &PeriodicBox) -> Vec<Vec3> {
        let mut out = Vec::new();
        self.decode_positions_into(pbox, &mut out);
        out
    }

    /// Buffer-reusing form of [`Self::decode_positions`] for per-step
    /// callers: `out` is cleared and refilled.
    pub fn decode_positions_into(&self, pbox: &PeriodicBox, out: &mut Vec<Vec3>) {
        out.clear();
        out.extend((0..self.n_atoms()).map(|i| self.decode_position(pbox, i)));
    }

    /// Velocity of atom `i` in Å/fs.
    // detlint::boundary(reason = "exact Q40 -> f64 decode for kernel interiors and diagnostics; read-only")
    #[inline]
    pub fn velocity_f64(&self, i: usize) -> Vec3 {
        Vec3::new(
            self.velocities[i][0] as f64 / VEL_SCALE,
            self.velocities[i][1] as f64 / VEL_SCALE,
            self.velocities[i][2] as f64 / VEL_SCALE,
        )
    }

    /// Negate every velocity exactly (the paper's reversibility experiment).
    pub fn negate_velocities(&mut self) {
        for v in self.velocities.iter_mut() {
            v[0] = v[0].wrapping_neg();
            v[1] = v[1].wrapping_neg();
            v[2] = v[2].wrapping_neg();
        }
    }

    /// Overwrite a position from a freshly computed fraction (virtual sites).
    // detlint::boundary(reason = "virtual-site f64 -> fraction quantization edge; rounds via from_unit_frac")
    #[inline]
    pub fn set_position_frac(&mut self, i: usize, frac: [f64; 3]) {
        self.positions[i] = FxVec3::from_unit_frac(frac);
    }

    /// Apply a quantized position increment (drift), wrapping periodically.
    #[inline]
    pub fn drift(&mut self, i: usize, d_frac_raw: [i64; 3]) {
        let p = &mut self.positions[i];
        p.0[0] = p.0[0].wrapping_add(Fx32(d_frac_raw[0] as i32));
        p.0[1] = p.0[1].wrapping_add(Fx32(d_frac_raw[1] as i32));
        p.0[2] = p.0[2].wrapping_add(Fx32(d_frac_raw[2] as i32));
    }
}

/// Encoded bytes per atom of a position block (`3 × i32`).
const POS_BYTES: usize = 12;
/// Encoded bytes per atom of a velocity block (`3 × i64`).
const VEL_BYTES: usize = 24;

/// Append `positions` as raw `n × 3 × i32` fraction bits: the layout of
/// the state image's position block and of a checkpoint's match-cache
/// reference-epoch section.
fn write_positions(w: &mut Writer, positions: &[FxVec3]) {
    for p in positions {
        for a in p.0 {
            w.i32(a.raw());
        }
    }
}

/// Read back `n` positions written by [`write_positions`].
fn read_positions(r: &mut Reader<'_>, n: usize) -> Result<Vec<FxVec3>, CkptError> {
    (0..n)
        .map(|_| Ok(FxVec3([Fx32(r.i32()?), Fx32(r.i32()?), Fx32(r.i32()?)])))
        .collect()
}

/// A standalone position block (a checkpoint's match-cache epoch section).
pub fn positions_to_bytes(positions: &[FxVec3]) -> Vec<u8> {
    let mut w = Writer::with_capacity(positions.len() * POS_BYTES);
    write_positions(&mut w, positions);
    w.finish()
}

/// Decode a [`positions_to_bytes`] block that must hold exactly `n` atoms.
pub fn positions_from_bytes(data: &[u8], n: usize) -> Result<Vec<FxVec3>, CkptError> {
    if data.len() != n * POS_BYTES {
        return Err(CkptError::LengthMismatch {
            what: "match-cache epoch section",
            expected: (n * POS_BYTES) as u64,
            got: data.len() as u64,
        });
    }
    read_positions(&mut Reader::new(data), n)
}

impl FixedState {
    /// Serialize the exact raw state (for bit-exact checkpoints: restoring
    /// and continuing reproduces the uninterrupted trajectory bitwise —
    /// a direct corollary of the engine's determinism).
    pub fn to_bytes(&self) -> Vec<u8> {
        let n = self.n_atoms();
        let mut w = Writer::with_capacity(8 + n * (POS_BYTES + VEL_BYTES));
        w.u64(n as u64);
        write_positions(&mut w, &self.positions);
        for v in &self.velocities {
            for &c in v {
                w.i64(c);
            }
        }
        w.finish()
    }

    /// FNV-1a over [`Self::to_bytes`]: the trajectory identity every
    /// golden test, bench row and fleet record compares.
    pub fn checksum(&self) -> u64 {
        anton_ckpt::fnv1a(&self.to_bytes())
    }

    /// Restore from [`Self::to_bytes`] output, with typed failures from
    /// the shared checkpoint error vocabulary ([`anton_ckpt::CkptError`]):
    /// too-short input, or a body whose length disagrees with the declared
    /// atom count. (Magic, version, and checksums belong to the enclosing
    /// `anton-ckpt` container — this byte string is its raw payload, whose
    /// format predates the container and is checksummed by it.)
    pub fn from_bytes(data: &[u8]) -> Result<FixedState, CkptError> {
        let mut r = Reader::new(data);
        let declared = r.u64()?;
        // Atom-count consistency: the declared count must exactly account
        // for the bytes present (checked in u64 so an absurd count cannot
        // overflow the expected size).
        match declared.checked_mul((POS_BYTES + VEL_BYTES) as u64) {
            Some(expected) if r.remaining() as u64 == expected => {}
            expected => {
                return Err(CkptError::LengthMismatch {
                    what: "state body",
                    expected: expected.unwrap_or(u64::MAX),
                    got: r.remaining() as u64,
                })
            }
        }
        let n = declared as usize;
        let positions = read_positions(&mut r, n)?;
        let velocities = (0..n)
            .map(|_| Ok([r.i64()?, r.i64()?, r.i64()?]))
            .collect::<Result<_, CkptError>>()?;
        Ok(FixedState {
            positions,
            velocities,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoint_roundtrip_is_exact() {
        let pbox = PeriodicBox::cubic(12.0);
        let st = FixedState::from_f64(
            &pbox,
            &[Vec3::new(1.0, 2.0, 3.0), Vec3::new(11.9, 0.1, 6.0)],
            &[Vec3::new(0.01, -0.02, 0.003), Vec3::new(-0.001, 0.0, 0.07)],
        );
        // Format pin: the encoded bytes themselves, not just the round trip.
        assert_eq!(
            anton_ckpt::fnv1a(st.to_bytes().as_ref()),
            0x06c4_0763_e951_ce2f
        );
        let restored = FixedState::from_bytes(&st.to_bytes()).unwrap();
        assert_eq!(restored, st);
    }

    #[test]
    fn from_bytes_rejects_malformed_with_typed_errors() {
        assert!(matches!(
            FixedState::from_bytes(&[1, 2, 3]),
            Err(CkptError::TooShort { needed: 8, got: 3 })
        ));
        let st = FixedState::from_f64(
            &PeriodicBox::cubic(5.0),
            &[Vec3::new(1.0, 1.0, 1.0)],
            &[Vec3::ZERO],
        );
        let mut truncated = st.to_bytes();
        truncated.pop();
        assert!(matches!(
            FixedState::from_bytes(&truncated),
            Err(CkptError::LengthMismatch {
                what: "state body",
                expected: 36,
                got: 35,
            })
        ));
        // Declared atom count disagreeing with the body is a length
        // mismatch too (consistency validation, not a silent truncation).
        let mut wrong_count = st.to_bytes();
        wrong_count[0] = 2;
        assert!(matches!(
            FixedState::from_bytes(&wrong_count),
            Err(CkptError::LengthMismatch { expected: 72, .. })
        ));
        // An absurd count cannot overflow the expected-size arithmetic.
        let mut absurd = st.to_bytes();
        absurd[0..8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            FixedState::from_bytes(&absurd),
            Err(CkptError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn roundtrip_positions() {
        let pbox = PeriodicBox::cubic(40.0);
        let pos = vec![Vec3::new(1.0, 20.0, 39.5), Vec3::new(0.0, 0.0, 0.0)];
        let vel = vec![Vec3::new(0.001, -0.002, 0.0); 2];
        let st = FixedState::from_f64(&pbox, &pos, &vel);
        for (i, p) in pos.iter().enumerate() {
            let d = (st.decode_position(&pbox, i) - *p).norm();
            assert!(d < 40.0 * Fx32::EPSILON * 2.0, "decode error {d}");
        }
        assert!((st.velocity_f64(0).x - 0.001).abs() < 1e-11);
    }

    #[test]
    fn negation_is_exact_involution() {
        let pbox = PeriodicBox::cubic(10.0);
        let st0 = FixedState::from_f64(
            &pbox,
            &[Vec3::new(1.0, 2.0, 3.0)],
            &[Vec3::new(0.013, -0.007, 0.001)],
        );
        let mut st = st0.clone();
        st.negate_velocities();
        st.negate_velocities();
        assert_eq!(st, st0);
    }

    #[test]
    fn delta_wraps_minimum_image() {
        let pbox = PeriodicBox::cubic(20.0);
        let st = FixedState::from_f64(
            &pbox,
            &[Vec3::new(19.5, 0.0, 0.0), Vec3::new(0.5, 0.0, 0.0)],
            &[Vec3::ZERO; 2],
        );
        let ladder = crate::batch::Q20Ladder::new([anton_fixpoint::Q20::from_f64(10.0); 3]);
        let raw = |i: usize| crate::ranks::raw_bits(&st.positions[i]);
        let (d, _) = ladder.delta_r2(raw(0), raw(1));
        let dx = d[0] as f64 / DISP_SCALE;
        assert!((dx + 1.0).abs() < 1e-4, "dx = {dx}");
    }
}
