//! Nonbonded exclusions derived from the bond graph.
//!
//! In most force fields, electrostatic and van der Waals interactions between
//! atoms separated by one or two covalent bonds are eliminated, and those
//! separated by three bonds (1-4 pairs) are scaled down (paper §3.1). The
//! long-range Ewald sum nonetheless includes every pair, so the excluded
//! contribution must be subtracted as a *correction force* — on Anton this
//! runs on the correction pipeline in the flexible subsystem.

use std::collections::BTreeSet;

/// How 1-4 interactions are scaled.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ExclusionPolicy {
    /// Multiplier on 1-4 electrostatics (AMBER: 1/1.2).
    pub elec_14: f64,
    /// Multiplier on 1-4 Lennard-Jones (AMBER: 1/2).
    pub lj_14: f64,
}

impl ExclusionPolicy {
    /// AMBER-style scaling, used by the paper's AMBER99SB simulations.
    pub fn amber_like() -> ExclusionPolicy {
        ExclusionPolicy {
            elec_14: 1.0 / 1.2,
            lj_14: 0.5,
        }
    }

    /// OPLS-style scaling (both halved).
    pub fn opls_like() -> ExclusionPolicy {
        ExclusionPolicy {
            elec_14: 0.5,
            lj_14: 0.5,
        }
    }
}

/// Exclusion table: fully excluded pairs (1-2, 1-3) and scaled 1-4 pairs.
#[derive(Clone, Debug, Default)]
pub struct Exclusions {
    /// Sorted `(min, max)` excluded pairs.
    excluded: Vec<(u32, u32)>,
    /// Sorted `(min, max)` 1-4 pairs.
    pairs_14: Vec<(u32, u32)>,
    pub policy: Option<ExclusionPolicy>,
}

impl Exclusions {
    /// Build from an undirected bond graph: neighbors at graph distance 1 or
    /// 2 are excluded; distance 3 becomes a scaled 1-4 pair (unless the pair
    /// is also reachable in ≤2 bonds through a ring).
    pub fn from_bond_graph(
        n_atoms: usize,
        edges: &[(u32, u32)],
        policy: ExclusionPolicy,
    ) -> Exclusions {
        let mut adj = vec![Vec::new(); n_atoms];
        for &(i, j) in edges {
            adj[i as usize].push(j);
            adj[j as usize].push(i);
        }
        for a in adj.iter_mut() {
            a.sort_unstable();
            a.dedup();
        }

        let mut excluded = BTreeSet::new();
        let mut pairs_14 = BTreeSet::new();
        for i in 0..n_atoms as u32 {
            // Distance-1 and distance-2 neighbors.
            let mut d12 = BTreeSet::new();
            for &j in &adj[i as usize] {
                d12.insert(j);
                for &k in &adj[j as usize] {
                    if k != i {
                        d12.insert(k);
                    }
                }
            }
            for &j in &d12 {
                if j > i {
                    excluded.insert((i, j));
                }
            }
            // Distance-3 neighbors not already within distance 2.
            for &j in &adj[i as usize] {
                for &k in &adj[j as usize] {
                    if k == i {
                        continue;
                    }
                    for &l in &adj[k as usize] {
                        if l != i && l != j && l > i && !d12.contains(&l) {
                            pairs_14.insert((i, l));
                        }
                    }
                }
            }
        }

        Exclusions {
            excluded: excluded.into_iter().collect(),
            pairs_14: pairs_14.into_iter().collect(),
            policy: Some(policy),
        }
    }

    #[inline]
    fn key(i: u32, j: u32) -> (u32, u32) {
        (i.min(j), i.max(j))
    }

    /// Is the (i, j) nonbonded interaction fully excluded?
    #[inline]
    pub fn is_excluded(&self, i: u32, j: u32) -> bool {
        self.excluded.binary_search(&Self::key(i, j)).is_ok()
    }

    /// Is (i, j) a scaled 1-4 pair?
    #[inline]
    pub fn is_14(&self, i: u32, j: u32) -> bool {
        self.pairs_14.binary_search(&Self::key(i, j)).is_ok()
    }

    pub fn excluded_pairs(&self) -> &[(u32, u32)] {
        &self.excluded
    }

    pub fn pairs_14(&self) -> &[(u32, u32)] {
        &self.pairs_14
    }

    /// Number of correction-pipeline work items: every excluded pair needs a
    /// k-space correction, every 1-4 pair needs a scaled re-evaluation.
    pub fn correction_workload(&self) -> usize {
        self.excluded.len() + self.pairs_14.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Butane-like chain 0-1-2-3-4.
    fn chain5() -> Exclusions {
        Exclusions::from_bond_graph(
            5,
            &[(0, 1), (1, 2), (2, 3), (3, 4)],
            ExclusionPolicy::amber_like(),
        )
    }

    #[test]
    fn chain_exclusions() {
        let e = chain5();
        assert!(e.is_excluded(0, 1)); // 1-2
        assert!(e.is_excluded(0, 2)); // 1-3
        assert!(!e.is_excluded(0, 3)); // 1-4 is scaled, not excluded
        assert!(e.is_14(0, 3));
        assert!(e.is_14(1, 4));
        assert!(!e.is_14(0, 4)); // 1-5 is a full interaction
        assert!(!e.is_excluded(0, 4));
    }

    #[test]
    fn ring_pairs_prefer_shorter_path() {
        // Cyclobutane ring 0-1-2-3-0: the 0-2 pair is distance 2 both ways,
        // never a 1-4 pair.
        let e = Exclusions::from_bond_graph(
            4,
            &[(0, 1), (1, 2), (2, 3), (3, 0)],
            ExclusionPolicy::amber_like(),
        );
        assert!(e.is_excluded(0, 2));
        assert!(!e.is_14(0, 2));
    }

    #[test]
    fn symmetric_queries() {
        let e = chain5();
        assert_eq!(e.is_excluded(1, 0), e.is_excluded(0, 1));
        assert_eq!(e.is_14(3, 0), e.is_14(0, 3));
    }

    #[test]
    fn workload_counts() {
        let e = chain5();
        // Excluded: 4 bonds + 3 one-three pairs = 7; 1-4 pairs: (0,3),(1,4).
        assert_eq!(e.excluded_pairs().len(), 7);
        assert_eq!(e.pairs_14().len(), 2);
        assert_eq!(e.correction_workload(), 9);
    }
}
