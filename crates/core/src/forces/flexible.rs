//! The flexible phase: bonded terms and the packed correction stream
//! (the work of the ASIC's flexible subsystem, §3.1), evaluated per rank
//! from the plan's static work lists.

use super::{ForcePipeline, RawForces};
use crate::ranks::Rank;
use crate::state::{FixedState, DISP_SCALE, ENERGY_SCALE, FORCE_SCALE};
use anton_fixpoint::rounding::rne_f64_to_i64;
use anton_forcefield::bonded;
use anton_geometry::Vec3;
use anton_systems::System;

impl ForcePipeline {
    /// One rank's statically assigned bonded terms (work lists fixed at
    /// construction, §3.2.3), from decoded positions: each term's forces
    /// are quantized per atom before accumulation (term order immaterial).
    pub(super) fn rank_bonded(&self, sys: &System, pos: &[Vec3], rank: &Rank, out: &mut RawForces) {
        for &t in &rank.bonds {
            self.bond_term_into(sys, pos, t as usize, out);
        }
        for &t in &rank.angles {
            self.angle_term_into(sys, pos, t as usize, out);
        }
        for &t in &rank.dihedrals {
            self.dihedral_term_into(sys, pos, t as usize, out);
        }
    }

    /// Quantize an f64 force onto the Q24 grid and accumulate.
    #[inline]
    fn add_force(out: &mut RawForces, idx: u32, f: Vec3) {
        let a = &mut out.f[idx as usize];
        a[0] = a[0].wrapping_add(rne_f64_to_i64(f.x * FORCE_SCALE));
        a[1] = a[1].wrapping_add(rne_f64_to_i64(f.y * FORCE_SCALE));
        a[2] = a[2].wrapping_add(rne_f64_to_i64(f.z * FORCE_SCALE));
    }

    #[inline]
    fn bond_term_into(&self, sys: &System, pos: &[Vec3], t: usize, out: &mut RawForces) {
        let b = &sys.topology.bonds[t];
        let (u, fi, fj) = bonded::bond_term(&sys.pbox, pos, b);
        Self::add_force(out, b.i, fi);
        Self::add_force(out, b.j, fj);
        out.e_bonded = out.e_bonded.wrapping_add(rne_f64_to_i64(u * ENERGY_SCALE));
    }

    #[inline]
    fn angle_term_into(&self, sys: &System, pos: &[Vec3], t: usize, out: &mut RawForces) {
        let a = &sys.topology.angles[t];
        let (u, fi, fj, fk) = bonded::angle_term(&sys.pbox, pos, a);
        Self::add_force(out, a.i, fi);
        Self::add_force(out, a.j, fj);
        Self::add_force(out, a.k_atom, fk);
        out.e_bonded = out.e_bonded.wrapping_add(rne_f64_to_i64(u * ENERGY_SCALE));
    }

    #[inline]
    fn dihedral_term_into(&self, sys: &System, pos: &[Vec3], t: usize, out: &mut RawForces) {
        let d = &sys.topology.dihedrals[t];
        let (u, fi, fj, fk, fl) = bonded::dihedral_term(&sys.pbox, pos, d);
        Self::add_force(out, d.i, fi);
        Self::add_force(out, d.j, fj);
        Self::add_force(out, d.k_atom, fk);
        Self::add_force(out, d.l, fl);
        out.e_bonded = out.e_bonded.wrapping_add(rne_f64_to_i64(u * ENERGY_SCALE));
    }

    /// Stream correction pairs (atom ids + precomputed charge product)
    /// through the correction kernel, one pair at a time. The packed
    /// streams were filtered of zero charge products at construction,
    /// exactly like the scalar reference's early return; the arithmetic is
    /// bitwise the scalar oracle's `correction_pair_into`.
    pub(super) fn correction_stream_into(
        &self,
        state: &FixedState,
        pairs: &[(u32, u32, f64)],
        out: &mut RawForces,
    ) {
        let pos = &state.positions;
        for &(i, j, qq) in pairs {
            let (d, _) = self
                .ladder
                .delta_r2(pos[i as usize].raw_bits(), pos[j as usize].raw_bits());
            // The kernel's r² is formed in f64 from the ladder's `d`.
            let r2 = (d[0] as f64 / DISP_SCALE).powi(2)
                + (d[1] as f64 / DISP_SCALE).powi(2)
                + (d[2] as f64 / DISP_SCALE).powi(2);
            let (e, f_over_r) = self.corr_kernel.exclusion_correction(qq, r2);
            out.scatter_pair(i as usize, j as usize, d, f_over_r);
            out.e_correction = out
                .e_correction
                .wrapping_add(rne_f64_to_i64(e * ENERGY_SCALE));
        }
    }

    /// Bonded terms of every rank, in rank order on the calling thread.
    pub fn bonded(&self, sys: &System, state: &FixedState, out: &mut RawForces) {
        let pos = state.decode_positions(&sys.pbox);
        for rank in &self.ranks.ranks {
            self.rank_bonded(sys, &pos, rank, out);
        }
    }

    /// Correction forces (excluded and 1-4 pairs): every rank's stream, in
    /// rank order on the calling thread.
    pub fn corrections(&self, state: &FixedState, out: &mut RawForces) {
        for rank in &self.ranks.ranks {
            self.correction_stream_into(state, &rank.corrections, out);
        }
    }
}
