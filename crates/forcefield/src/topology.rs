//! Flat system description consumed by both MD engines.

use crate::exclusions::{ExclusionPolicy, Exclusions};
use crate::lj::LjTable;

/// A harmonic bond `U = k (r - r0)²` between atoms `i` and `j`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Bond {
    pub i: u32,
    pub j: u32,
    /// Equilibrium length (Å).
    pub r0: f64,
    /// Force constant (kcal/mol/Å²).
    pub k: f64,
}

/// A harmonic angle `U = k (θ - θ0)²` centered on atom `j`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Angle {
    pub i: u32,
    pub j: u32,
    pub k_atom: u32,
    /// Equilibrium angle (radians).
    pub theta0: f64,
    /// Force constant (kcal/mol/rad²).
    pub k: f64,
}

/// A periodic (proper or improper) dihedral `U = k (1 + cos(n φ - φ0))`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Dihedral {
    pub i: u32,
    pub j: u32,
    pub k_atom: u32,
    pub l: u32,
    /// Multiplicity.
    pub n: u32,
    /// Phase (radians).
    pub phi0: f64,
    /// Barrier height (kcal/mol).
    pub k: f64,
}

/// A group of distance constraints that must be satisfied together (rigid
/// water, bonds to hydrogen). Paper §3.2.4: Anton keeps all atoms of a
/// constraint group on the same node and expands the NT import region to
/// compensate.
#[derive(Clone, Debug, PartialEq)]
pub struct ConstraintGroup {
    /// Constrained atom pairs with their target distances (Å).
    pub pairs: Vec<(u32, u32, f64)>,
}

impl ConstraintGroup {
    /// All atoms participating in the group (deduplicated, sorted).
    pub fn atoms(&self) -> Vec<u32> {
        let mut a: Vec<u32> = self.pairs.iter().flat_map(|&(i, j, _)| [i, j]).collect();
        a.sort_unstable();
        a.dedup();
        a
    }
}

/// A virtual interaction site whose position is a fixed linear combination
/// of three parent atoms (the TIP4P-Ew "M" site):
/// `r_v = r_a + γ · ((r_b + r_c)/2 − r_a)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct VirtualSite {
    /// Index of the virtual particle.
    pub site: u32,
    pub a: u32,
    pub b: u32,
    pub c: u32,
    pub gamma: f64,
}

/// The complete chemical-system description: per-atom parameters plus term
/// lists. Positions/velocities live in the engines, not here.
#[derive(Clone, Debug, Default)]
pub struct Topology {
    /// Masses (amu). Virtual sites carry zero mass.
    pub mass: Vec<f64>,
    /// Partial charges (e).
    pub charge: Vec<f64>,
    /// Lennard-Jones type index per atom.
    pub lj_type: Vec<u16>,
    /// Per-type-pair LJ coefficients.
    pub lj_table: LjTable,
    pub bonds: Vec<Bond>,
    pub angles: Vec<Angle>,
    pub dihedrals: Vec<Dihedral>,
    pub constraint_groups: Vec<ConstraintGroup>,
    pub virtual_sites: Vec<VirtualSite>,
    /// Nonbonded exclusions and 1-4 scale pairs.
    pub exclusions: Exclusions,
    /// First atom index of each molecule, plus a final sentinel equal to the
    /// atom count; used for migration bookkeeping and diffusion analyses.
    pub molecule_starts: Vec<u32>,
}

impl Topology {
    pub fn n_atoms(&self) -> usize {
        self.mass.len()
    }

    /// Total number of scalar distance constraints.
    pub fn n_constraints(&self) -> usize {
        self.constraint_groups.iter().map(|g| g.pairs.len()).sum()
    }

    /// Degrees of freedom: 3N minus constraints minus overall momentum,
    /// not counting massless virtual sites. This is the "DoF" denominator in
    /// the paper's Table 4 energy-drift column (kcal/mol/DoF/µs).
    pub fn degrees_of_freedom(&self) -> usize {
        let massive = self.mass.iter().filter(|&&m| m > 0.0).count();
        3 * massive - self.n_constraints() - 3
    }

    /// Rebuild the exclusion lists from the current bond graph and the rigid
    /// constraint pairs (constrained pairs are excluded like bonds).
    pub fn rebuild_exclusions(&mut self, policy: ExclusionPolicy) {
        let mut edges: Vec<(u32, u32)> = self.bonds.iter().map(|b| (b.i, b.j)).collect();
        for g in &self.constraint_groups {
            edges.extend(g.pairs.iter().map(|&(i, j, _)| (i, j)));
        }
        // Virtual sites inherit their parent atom's exclusions; model this by
        // linking the site to its primary parent in the graph.
        edges.extend(self.virtual_sites.iter().map(|v| (v.site, v.a)));
        self.exclusions = Exclusions::from_bond_graph(self.n_atoms(), &edges, policy);
    }

    /// Basic structural validation; called by system builders after assembly.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.n_atoms() as u32;
        if self.charge.len() != n as usize || self.lj_type.len() != n as usize {
            return Err("per-atom arrays disagree in length".into());
        }
        for b in &self.bonds {
            if b.i >= n || b.j >= n || b.i == b.j {
                return Err(format!("bad bond {b:?}"));
            }
        }
        for a in &self.angles {
            if a.i >= n || a.j >= n || a.k_atom >= n {
                return Err(format!("bad angle {a:?}"));
            }
        }
        for d in &self.dihedrals {
            if d.i >= n || d.j >= n || d.k_atom >= n || d.l >= n {
                return Err(format!("bad dihedral {d:?}"));
            }
        }
        for t in &self.lj_type {
            if *t as usize >= self.lj_table.n_types() {
                return Err("LJ type out of range".into());
            }
        }
        for v in &self.virtual_sites {
            if v.site >= n || v.a >= n || v.b >= n || v.c >= n {
                return Err(format!("bad virtual site {v:?}"));
            }
            if self.mass[v.site as usize] != 0.0 {
                return Err("virtual site must be massless".into());
            }
        }
        if self.molecule_starts.first() != Some(&0)
            || self.molecule_starts.last() != Some(&n)
            || !self.molecule_starts.windows(2).all(|w| w[0] < w[1])
        {
            return Err("molecule_starts must be increasing from 0 to n_atoms".into());
        }
        Ok(())
    }

    /// Net charge of the system (e).
    pub fn total_charge(&self) -> f64 {
        self.charge.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PairClass;

    fn tiny_topology() -> Topology {
        let mut t = Topology {
            mass: vec![12.0, 1.0, 1.0, 1.0],
            charge: vec![-0.3, 0.1, 0.1, 0.1],
            lj_type: vec![0, 1, 1, 1],
            lj_table: LjTable::from_types(&[(3.4, 0.1), (2.5, 0.03)]),
            bonds: vec![
                Bond {
                    i: 0,
                    j: 1,
                    r0: 1.09,
                    k: 340.0,
                },
                Bond {
                    i: 0,
                    j: 2,
                    r0: 1.09,
                    k: 340.0,
                },
                Bond {
                    i: 0,
                    j: 3,
                    r0: 1.09,
                    k: 340.0,
                },
            ],
            molecule_starts: vec![0, 4],
            ..Default::default()
        };
        t.rebuild_exclusions(ExclusionPolicy::amber_like());
        t
    }

    #[test]
    fn validates_and_counts() {
        let t = tiny_topology();
        assert!(t.validate().is_ok());
        assert_eq!(t.n_atoms(), 4);
        assert_eq!(t.degrees_of_freedom(), 9);
        assert!((t.total_charge() - 0.0).abs() < 1e-12);
    }

    #[test]
    fn exclusions_cover_12_and_13() {
        let t = tiny_topology();
        // 1-2: (0,1), (0,2), (0,3); 1-3: (1,2), (1,3), (2,3).
        for &(i, j) in &[(0u32, 1u32), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)] {
            assert_eq!(
                t.exclusions.class(i, j),
                PairClass::Excluded,
                "({i},{j}) should be excluded"
            );
        }
    }

    #[test]
    fn validate_rejects_bad_bond() {
        let mut t = tiny_topology();
        t.bonds.push(Bond {
            i: 0,
            j: 9,
            r0: 1.0,
            k: 1.0,
        });
        assert!(t.validate().is_err());
    }

    #[test]
    fn constraint_group_atoms_dedup() {
        let g = ConstraintGroup {
            pairs: vec![(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.6)],
        };
        assert_eq!(g.atoms(), vec![0, 1, 2]);
    }
}
