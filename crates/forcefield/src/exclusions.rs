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

/// How the range-limited phase treats one atom pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PairClass {
    /// A full nonbonded interaction.
    Plain,
    /// 1-2 or 1-3: no range-limited interaction.
    Excluded,
    /// 1-4: interacts, scaled by the [`ExclusionPolicy`].
    OneFour,
}

impl ExclusionPolicy {
    /// `(electrostatic, LJ)` multipliers of a pair of this class; `None`
    /// when the pair does not interact.
    #[inline]
    pub fn scales(&self, class: PairClass) -> Option<(f64, f64)> {
        match class {
            PairClass::Plain => Some((1.0, 1.0)),
            PairClass::Excluded => None,
            PairClass::OneFour => Some((self.elec_14, self.lj_14)),
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
    /// Both lists again as per-atom rows keyed by the lower atom:
    /// `rows[row_start[lo]..row_start[lo + 1]]` holds every `(hi, class)`
    /// with `hi > lo`. A bonded neighbourhood is a dozen atoms at most, so
    /// [`Self::class`] is a short scan of one row instead of two binary
    /// searches over the whole system's lists.
    row_start: Vec<u32>,
    rows: Vec<(u32, PairClass)>,
    /// Largest `hi − lo` of any listed pair: atoms further apart in index
    /// are `Plain` without a row being read — nearly every pair of a
    /// solvated system.
    max_span: u32,
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

        let excluded: Vec<(u32, u32)> = excluded.into_iter().collect();
        let pairs_14: Vec<(u32, u32)> = pairs_14.into_iter().collect();

        // The two lists are disjoint and each sorted by (lo, hi), so one
        // counting pass places every entry in its lower atom's row.
        let mut row_start = vec![0u32; n_atoms + 1];
        for &(lo, _) in excluded.iter().chain(&pairs_14) {
            row_start[lo as usize + 1] += 1;
        }
        for a in 0..n_atoms {
            row_start[a + 1] += row_start[a];
        }
        let mut fill = row_start.clone();
        let mut rows = vec![(0u32, PairClass::Plain); excluded.len() + pairs_14.len()];
        let classed = excluded
            .iter()
            .map(|&p| (p, PairClass::Excluded))
            .chain(pairs_14.iter().map(|&p| (p, PairClass::OneFour)));
        for ((lo, hi), class) in classed {
            let slot = &mut fill[lo as usize];
            rows[*slot as usize] = (hi, class);
            *slot += 1;
        }

        let max_span = excluded
            .iter()
            .chain(&pairs_14)
            .map(|&(lo, hi)| hi - lo)
            .max()
            .unwrap_or(0);

        Exclusions {
            excluded,
            pairs_14,
            row_start,
            rows,
            max_span,
            policy: Some(policy),
        }
    }

    /// Classify the (i, j) nonbonded interaction (argument order free).
    #[inline]
    pub fn class(&self, i: u32, j: u32) -> PairClass {
        let (lo, hi) = (i.min(j), i.max(j));
        if hi - lo > self.max_span {
            return PairClass::Plain;
        }
        // An atom past the table (or any atom of an empty table) has no row.
        let lo = lo as usize;
        let (Some(&start), Some(&end)) = (self.row_start.get(lo), self.row_start.get(lo + 1))
        else {
            return PairClass::Plain;
        };
        self.rows[start as usize..end as usize]
            .iter()
            .find(|&&(partner, _)| partner == hi)
            .map_or(PairClass::Plain, |&(_, class)| class)
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

    /// The lookup `class` replaced: a binary search of each sorted
    /// whole-system pair list.
    fn class_by_pair_lists(e: &Exclusions, i: u32, j: u32) -> PairClass {
        let key = (i.min(j), i.max(j));
        if e.excluded_pairs().binary_search(&key).is_ok() {
            PairClass::Excluded
        } else if e.pairs_14().binary_search(&key).is_ok() {
            PairClass::OneFour
        } else {
            PairClass::Plain
        }
    }

    #[test]
    fn chain_exclusions() {
        let e = chain5();
        assert_eq!(e.class(0, 1), PairClass::Excluded); // 1-2
        assert_eq!(e.class(0, 2), PairClass::Excluded); // 1-3
        assert_eq!(e.class(0, 3), PairClass::OneFour); // scaled, not excluded
        assert_eq!(e.class(1, 4), PairClass::OneFour);
        assert_eq!(e.class(0, 4), PairClass::Plain); // 1-5 is a full interaction
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
        assert_eq!(e.class(0, 2), PairClass::Excluded);
    }

    #[test]
    fn symmetric_queries() {
        let e = chain5();
        assert_eq!(e.class(1, 0), e.class(0, 1));
        assert_eq!(e.class(3, 0), e.class(0, 3));
    }

    #[test]
    fn class_agrees_with_the_sorted_pair_lists() {
        // Chain, ring with a tail, and two waters beside an unbonded ion
        // (atom 6 has an empty row).
        let chain = chain5();
        let ring = Exclusions::from_bond_graph(
            7,
            &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (5, 6)],
            ExclusionPolicy::opls_like(),
        );
        let water = Exclusions::from_bond_graph(
            7,
            &[(0, 1), (0, 2), (3, 4), (3, 5)],
            ExclusionPolicy::amber_like(),
        );
        for (name, e, n) in [
            ("chain", &chain, 5u32),
            ("ring", &ring, 7),
            ("water", &water, 7),
        ] {
            let mut seen = [0usize; 3];
            // Two indices past the table too: such atoms are in no pair.
            for i in 0..n + 2 {
                for j in 0..n + 2 {
                    if i == j {
                        continue;
                    }
                    let want = class_by_pair_lists(e, i, j);
                    assert_eq!(e.class(i, j), want, "{name}: ({i}, {j})");
                    seen[want as usize] += 1;
                }
            }
            // Every listed pair was classified, in both argument orders.
            assert_eq!(
                seen[PairClass::Excluded as usize],
                2 * e.excluded_pairs().len()
            );
            assert_eq!(seen[PairClass::OneFour as usize], 2 * e.pairs_14().len());
        }
        assert!(!ring.pairs_14().is_empty() && water.pairs_14().is_empty());
        assert_eq!(water.class(6, 0), PairClass::Plain);
        // A table built from nothing has no rows at all.
        assert_eq!(Exclusions::default().class(0, 1), PairClass::Plain);
    }

    #[test]
    fn policy_scales_by_class() {
        let p = ExclusionPolicy::amber_like();
        assert_eq!(p.scales(PairClass::Plain), Some((1.0, 1.0)));
        assert_eq!(p.scales(PairClass::Excluded), None);
        assert_eq!(p.scales(PairClass::OneFour), Some((1.0 / 1.2, 0.5)));
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
