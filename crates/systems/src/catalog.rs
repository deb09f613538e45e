//! The paper's benchmark systems.
//!
//! [`TABLE4`] lists the six protein-in-water systems of Table 4 / Figure 5
//! with the paper's reported reference values; [`table4_system`] builds the
//! synthetic stand-in for each (same atom count, box edge and run
//! parameters). [`bpti`] builds the §5.3 millisecond-simulation system:
//! 17,758 particles — 892 protein atoms, 6 chloride ions, and 4,215 TIP4P-Ew
//! waters of 4 particles each — in a 51.3 Å cubic box.

use crate::protein::{build_globule, LJ_C, LJ_ION};
use crate::spec::{RunParams, System};
use crate::waterbox::{append_waters, empty_topology, water_sites, Buckets};
use anton_forcefield::exclusions::ExclusionPolicy;
use anton_forcefield::topology::Bond;
use anton_forcefield::water::{WaterModel, TIP3P, TIP4P_EW};
use anton_geometry::{PeriodicBox, Vec3};

/// One row of the paper's Table 4, with its reported measurements (used by
/// the harness to print paper-vs-measured comparisons).
#[derive(Clone, Copy, Debug)]
pub struct Table4Entry {
    pub name: &'static str,
    pub pdb_id: &'static str,
    pub n_atoms: usize,
    /// Cubic box side length (Å).
    pub side: f64,
    /// Range-limited cutoff radius (Å).
    pub cutoff: f64,
    /// FFT mesh (cubic).
    pub mesh: usize,
    /// Synthetic-protein residue count (sized to a realistic protein atom
    /// fraction; see DESIGN.md §2).
    pub protein_residues: usize,
    /// Paper: performance on a 512-node Anton (µs/day).
    pub paper_us_per_day: f64,
    /// Paper: energy drift (kcal/mol/DoF/µs).
    pub paper_drift: f64,
    /// Paper: total force error (fraction of rms force).
    pub paper_total_force_err: f64,
    /// Paper: numerical force error (fraction of rms force).
    pub paper_numerical_force_err: f64,
}

/// Table 4 of the paper.
pub const TABLE4: [Table4Entry; 6] = [
    Table4Entry {
        name: "gpW",
        pdb_id: "1HYW",
        n_atoms: 9865,
        side: 46.8,
        cutoff: 10.5,
        mesh: 32,
        protein_residues: 118,
        paper_us_per_day: 18.7,
        paper_drift: 0.035,
        paper_total_force_err: 80.7e-6,
        paper_numerical_force_err: 9.8e-6,
    },
    Table4Entry {
        name: "DHFR",
        pdb_id: "5DFR",
        n_atoms: 23558,
        side: 62.2,
        cutoff: 13.0,
        mesh: 32,
        protein_residues: 314,
        paper_us_per_day: 16.4,
        paper_drift: 0.053,
        paper_total_force_err: 73.9e-6,
        paper_numerical_force_err: 9.0e-6,
    },
    Table4Entry {
        name: "aSFP",
        pdb_id: "1SFP",
        n_atoms: 48423,
        side: 78.8,
        cutoff: 15.5,
        mesh: 32,
        protein_residues: 700,
        paper_us_per_day: 11.2,
        paper_drift: 0.036,
        paper_total_force_err: 67.3e-6,
        paper_numerical_force_err: 11.5e-6,
    },
    Table4Entry {
        name: "NADHOx",
        pdb_id: "1NOX",
        n_atoms: 78017,
        side: 92.6,
        cutoff: 10.5,
        mesh: 64,
        protein_residues: 420,
        paper_us_per_day: 6.4,
        paper_drift: 0.015,
        paper_total_force_err: 58.4e-6,
        paper_numerical_force_err: 8.3e-6,
    },
    Table4Entry {
        name: "FtsZ",
        pdb_id: "1FSZ",
        n_atoms: 98236,
        side: 99.8,
        cutoff: 11.0,
        mesh: 64,
        protein_residues: 640,
        paper_us_per_day: 5.8,
        paper_drift: 0.015,
        paper_total_force_err: 62.0e-6,
        paper_numerical_force_err: 8.9e-6,
    },
    Table4Entry {
        name: "T7Lig",
        pdb_id: "1A0I",
        n_atoms: 116650,
        side: 105.6,
        cutoff: 11.0,
        mesh: 64,
        protein_residues: 1060,
        paper_us_per_day: 5.5,
        paper_drift: 0.021,
        paper_total_force_err: 60.6e-6,
        paper_numerical_force_err: 8.9e-6,
    },
];

/// Build a synthetic protein-in-water system with an exact total atom count.
///
/// `n_ions` chloride counter-ions are added; the protein gains `n_ions`
/// compensating +1 charges on CA atoms so the system stays neutral.
/// `extra_tail` forces that many additional heavy atoms onto the protein
/// (BPTI's 892 = 111×8 + 4); further tail atoms are added automatically so
/// the water particle count divides evenly.
// The parameter list mirrors the per-system columns of Table 4; a builder
// struct would just rename the same nine knobs.
#[allow(clippy::too_many_arguments)]
pub fn build_solvated(
    name: &str,
    total_atoms: usize,
    box_edge: f64,
    params: RunParams,
    model: &WaterModel,
    protein_residues: usize,
    extra_tail: usize,
    n_ions: usize,
    seed: u64,
) -> System {
    let pbox = PeriodicBox::cubic(box_edge);
    let center = Vec3::splat(box_edge / 2.0);

    let mut top = empty_topology(model);
    let mut positions: Vec<Vec3> = Vec::with_capacity(total_atoms);
    let mut occupied = Buckets::new(pbox, 4.5);

    // 1. Protein globule (one molecule per shell chain).
    for chain in build_globule(protein_residues, center) {
        let offset = positions.len() as u32;
        positions.extend(chain.positions.iter().map(|p| pbox.wrap(*p)));
        top.mass.extend(&chain.mass);
        top.charge.extend(&chain.charge);
        top.lj_type.extend(&chain.lj_type);
        top.bonds.extend(chain.bonds.iter().map(|b| Bond {
            i: b.i + offset,
            j: b.j + offset,
            ..*b
        }));
        top.angles.extend(chain.angles.iter().map(|a| {
            let mut a = *a;
            a.i += offset;
            a.j += offset;
            a.k_atom += offset;
            a
        }));
        top.dihedrals.extend(chain.dihedrals.iter().map(|d| {
            let mut d = *d;
            d.i += offset;
            d.j += offset;
            d.k_atom += offset;
            d.l += offset;
            d
        }));
        top.constraint_groups
            .extend(chain.constraint_groups.iter().map(|g| {
                anton_forcefield::ConstraintGroup {
                    pairs: g
                        .pairs
                        .iter()
                        .map(|&(i, j, r)| (i + offset, j + offset, r))
                        .collect(),
                }
            }));
        top.molecule_starts.push(positions.len() as u32);
    }
    let protein_core = positions.len();

    // 2. Compensating +1 charges on evenly spaced CA atoms (index 2 mod 8).
    if n_ions > 0 {
        let n_res_total = protein_core / crate::protein::ATOMS_PER_RESIDUE;
        assert!(n_res_total >= n_ions, "not enough residues to charge");
        for k in 0..n_ions {
            let res = k * n_res_total / n_ions;
            let ca = res * crate::protein::ATOMS_PER_RESIDUE + 2;
            top.charge[ca] += 1.0;
        }
    }

    // 3. Tail heavy atoms: the requested extras plus whatever is needed so
    //    that (total - protein - ions) divides the water site count exactly.
    let remaining = total_atoms - protein_core - n_ions - extra_tail;
    let tail = extra_tail + remaining % model.sites;
    if tail > 0 {
        // Extend radially outward from the last residue's C atom so the
        // tail lands in solvent, not inside the next helix turn.
        let mut prev = (protein_core - 2) as u32;
        let anchor0 = positions[prev as usize];
        let dir = (anchor0 - center)
            .normalized()
            .unwrap_or(Vec3::new(1.0, 0.0, 0.0));
        for t in 0..tail {
            let idx = positions.len() as u32;
            positions.push(pbox.wrap(anchor0 + dir * (1.5 * (t + 1) as f64)));
            top.mass.push(12.011);
            top.charge.push(0.0);
            top.lj_type.push(LJ_C);
            top.bonds.push(Bond {
                i: prev,
                j: idx,
                r0: 1.5,
                k: 300.0,
            });
            prev = idx;
        }
        *top.molecule_starts.last_mut().unwrap() = positions.len() as u32;
    }
    let n_protein = positions.len();
    for (i, p) in positions.iter().enumerate() {
        occupied.insert(*p, top.charge[i]);
    }

    // 4. Water candidate sites around the solute.
    let mut sites = water_sites(&pbox, &occupied, 2.4, seed);
    let n_waters = (total_atoms - n_protein - n_ions) / model.sites;
    // If the solute shadows too much lattice, densify the candidate lattice
    // rather than relaxing the keep-out: sub-2.2 Å water–solute contacts
    // blow up 2.5 fs dynamics.
    for spacing_factor in [0.92, 0.87, 0.82] {
        if sites.len() >= n_waters + n_ions {
            break;
        }
        sites = crate::waterbox::water_sites_scaled(&pbox, &occupied, 2.4, spacing_factor, seed);
    }
    assert!(
        sites.len() >= n_waters + n_ions,
        "{name}: need {} solvent sites, found {}",
        n_waters + n_ions,
        sites.len()
    );

    // 5. Chloride ions on the last candidate sites (far from the shuffled
    //    front used by the waters).
    for k in 0..n_ions {
        let p = sites[sites.len() - 1 - k];
        positions.push(p);
        top.mass.push(35.453);
        top.charge.push(-1.0);
        top.lj_type.push(LJ_ION);
        top.molecule_starts.push(positions.len() as u32);
        occupied.insert(p, -1.0);
    }

    // 6. Waters.
    append_waters(
        &mut top,
        &mut positions,
        model,
        &sites,
        n_waters,
        &mut occupied,
        seed,
    );

    top.rebuild_exclusions(ExclusionPolicy::amber_like());
    let sys = System {
        name: name.to_string(),
        pbox,
        topology: top,
        positions,
        params,
    };
    assert_eq!(sys.n_atoms(), total_atoms, "{name}: atom count mismatch");
    sys.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
    debug_assert!(sys.topology.total_charge().abs() < 1e-6);
    sys
}

/// Build the synthetic stand-in for a Table 4 entry.
pub fn table4_system(entry: &Table4Entry, seed: u64) -> System {
    build_solvated(
        entry.name,
        entry.n_atoms,
        entry.side,
        RunParams::paper(entry.cutoff, entry.mesh),
        &TIP3P,
        entry.protein_residues,
        0,
        0,
        seed,
    )
}

/// The §5.3 BPTI system: 892 protein atoms (112 residues of 8 atoms, minus a
/// 4-atom adjustment handled via the tail mechanism), 6 Cl⁻, and 4,215
/// TIP4P-Ew waters in a 51.3 Å box; 10.4 Å cutoff, 7.1 Å spreading cutoff,
/// 32³ mesh, 2.5 fs steps with long-range every other step.
pub fn bpti(seed: u64) -> System {
    let params = RunParams {
        spread_cutoff: 7.1,
        ..RunParams::paper(10.4, 32)
    };
    // 111 residues × 8 = 888 atoms + 4 tail atoms = 892; with 6 ions that
    // leaves 16,860 = 4,215 × 4 water particles.
    build_solvated("BPTI", 17758, 51.3, params, &TIP4P_EW, 111, 4, 6, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpw_builds_exact_atom_count() {
        let sys = table4_system(&TABLE4[0], 1);
        assert_eq!(sys.n_atoms(), 9865);
        assert!(sys.topology.total_charge().abs() < 1e-9);
        // Density should be biomolecular (~0.1 atoms/Å³).
        let density = sys.n_atoms() as f64 / sys.pbox.volume();
        assert!((density - 0.0963).abs() < 0.002, "density {density}");
    }

    #[test]
    fn bpti_matches_paper_particle_budget() {
        let sys = bpti(2);
        assert_eq!(sys.n_atoms(), 17758);
        // 4,215 four-site waters.
        assert_eq!(sys.topology.virtual_sites.len(), 4215);
        // 6 chloride ions.
        let n_ions = sys.topology.charge.iter().filter(|&&q| q == -1.0).count();
        assert_eq!(n_ions, 6);
        assert!(sys.topology.total_charge().abs() < 1e-9);
        assert_eq!(sys.params.spread_cutoff, 7.1);
    }

    #[test]
    fn table4_entries_are_well_formed() {
        for e in &TABLE4 {
            // Cutoff respects minimum image; protein fits in the box.
            assert!(e.cutoff * 2.0 < e.side, "{}", e.name);
            let r = crate::protein::globule_radius(e.protein_residues);
            assert!(
                r + 3.0 < e.side / 2.0,
                "{}: globule radius {r} too big",
                e.name
            );
        }
    }
}
