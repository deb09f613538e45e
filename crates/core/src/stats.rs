//! Extract performance-model workload statistics from a built system.

use anton_machine::SystemStats;
use anton_systems::System;

/// Count the workload statistics the performance model needs: correction
/// pairs, bonded terms, constraint pairs, and the solute atom count (atoms
/// belonging to molecules that carry bonded terms — water molecules are
/// rigid and term-free).
pub fn system_stats(sys: &System) -> SystemStats {
    let top = &sys.topology;
    let e = sys.pbox.edge();

    // Mark molecules containing at least one bonded term as solute.
    let mol_of = |atom: u32| -> usize {
        match top.molecule_starts.binary_search(&atom) {
            Ok(k) => k,
            Err(k) => k - 1,
        }
    };
    let n_mols = top.molecule_starts.len() - 1;
    let mut is_solute = vec![false; n_mols];
    for b in &top.bonds {
        is_solute[mol_of(b.i)] = true;
    }
    let protein_atoms: usize = (0..n_mols)
        .filter(|&m| is_solute[m])
        .map(|m| (top.molecule_starts[m + 1] - top.molecule_starts[m]) as usize)
        .sum();

    SystemStats {
        n_atoms: sys.n_atoms(),
        box_edge: [e.x, e.y, e.z],
        cutoff: sys.params.cutoff,
        spread_cutoff: sys.params.spread_cutoff,
        mesh: sys.params.mesh,
        dt_fs: sys.params.dt_fs,
        longrange_every: sys.params.longrange_every,
        n_correction_pairs: top.exclusions.correction_workload(),
        n_bonded_terms: top.bonds.len() + top.angles.len() + top.dihedrals.len(),
        protein_atoms,
        n_constraint_pairs: top.n_constraints(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anton_systems::{table4_system, TABLE4};

    #[test]
    fn gpw_stats_are_coherent() {
        let sys = table4_system(&TABLE4[0], 1);
        let s = system_stats(&sys);
        assert_eq!(s.n_atoms, 9865);
        assert!((s.density() - 0.0963).abs() < 0.003);
        // Solute atoms: 118 residues × 8 + tail.
        assert!(
            s.protein_atoms >= 944 && s.protein_atoms < 1000,
            "{}",
            s.protein_atoms
        );
        // Water: 3 constraint pairs per molecule, protein: 3 per residue.
        assert!(s.n_constraint_pairs > 8000);
        assert!(s.n_bonded_terms > 1000);
        assert!(
            s.n_correction_pairs > s.n_atoms,
            "corrections {}",
            s.n_correction_pairs
        );
    }

    #[test]
    fn water_only_has_no_solute() {
        let e = &TABLE4[0];
        let params = anton_systems::RunParams::paper(e.cutoff, e.mesh);
        let sys = anton_systems::water_box("gpW-water", e.side, e.n_atoms / 3, 2, params).unwrap();
        let s = system_stats(&sys);
        assert_eq!(s.protein_atoms, 0);
        assert_eq!(s.n_bonded_terms, 0);
    }
}
