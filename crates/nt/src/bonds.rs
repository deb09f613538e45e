//! Static assignment of bond terms to geometry cores (paper §3.2.3).
//!
//! Anton assigns every bonded term to a specific GC before the simulation
//! runs; each atom then has a fixed set of "bond destinations" its position
//! is multicast to every step. Static assignment permits load balancing the
//! *worst-case* GC, which sets the bonded-phase critical path. The
//! assignment is recomputed every ~100,000 steps as atoms drift.

/// Result of statically assigning weighted terms to the GCs of each node.
#[derive(Clone, Debug)]
pub struct GcAssignment {
    /// `(node, gc)` per term, aligned with the input term list.
    pub placement: Vec<(u32, u8)>,
    /// Heaviest GC load (cost units) across the whole machine.
    pub max_load: f64,
    /// Mean GC load over *occupied* nodes.
    pub mean_load: f64,
}

/// Assign terms to GCs: each term is pinned to a node (the home node of its
/// first atom, supplied by the caller) and greedily placed on that node's
/// least-loaded GC in descending cost order (LPT heuristic).
pub fn assign_terms(
    n_nodes: usize,
    gcs_per_node: usize,
    term_node: &[u32],
    term_cost: &[f64],
) -> GcAssignment {
    assert_eq!(term_node.len(), term_cost.len());
    assert!(gcs_per_node >= 1);
    let mut loads = vec![0.0f64; n_nodes * gcs_per_node];
    let mut placement = vec![(0u32, 0u8); term_node.len()];

    //

    let mut order: Vec<usize> = (0..term_node.len()).collect();
    order.sort_by(|&a, &b| {
        term_cost[b]
            .partial_cmp(&term_cost[a])
            .unwrap()
            .then(a.cmp(&b)) // deterministic tiebreak
    });

    for t in order {
        let node = term_node[t] as usize;
        assert!(node < n_nodes, "term node {node} out of range");
        let base = node * gcs_per_node;
        let (gc, _) = loads[base..base + gcs_per_node]
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap();
        loads[base + gc] += term_cost[t];
        placement[t] = (node as u32, gc as u8);
    }

    let occupied: Vec<f64> = loads.iter().copied().filter(|&l| l > 0.0).collect();
    let max_load = loads.iter().copied().fold(0.0, f64::max);
    let mean_load = if occupied.is_empty() {
        0.0
    } else {
        occupied.iter().sum::<f64>() / occupied.len() as f64
    };
    GcAssignment {
        placement,
        max_load,
        mean_load,
    }
}

/// The per-atom "bond destination" sets: which `(node, gc)` slots each atom
/// must multicast its position to. Term atom lists come from the caller.
pub fn bond_destinations(
    n_atoms: usize,
    assignment: &GcAssignment,
    term_atoms: &[Vec<u32>],
) -> Vec<Vec<(u32, u8)>> {
    let mut dest: Vec<Vec<(u32, u8)>> = vec![Vec::new(); n_atoms];
    for (t, atoms) in term_atoms.iter().enumerate() {
        let slot = assignment.placement[t];
        for &a in atoms {
            if !dest[a as usize].contains(&slot) {
                dest[a as usize].push(slot);
            }
        }
    }
    dest
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balances_within_one_max_term() {
        // 100 terms of varying cost on one node with 8 GCs: LPT guarantees
        // max ≤ mean + max_single.
        let costs: Vec<f64> = (0..100).map(|i| 1.0 + (i % 7) as f64).collect();
        let nodes = vec![0u32; 100];
        let a = assign_terms(1, 8, &nodes, &costs);
        let total: f64 = costs.iter().sum();
        let ideal = total / 8.0;
        let max_single = 7.0;
        assert!(
            a.max_load <= ideal + max_single,
            "max {} ideal {ideal}",
            a.max_load
        );
    }

    #[test]
    fn respects_node_pinning() {
        let nodes = vec![0u32, 1, 1, 0, 1];
        let costs = vec![1.0; 5];
        let a = assign_terms(2, 4, &nodes, &costs);
        for (t, &(n, _)) in a.placement.iter().enumerate() {
            assert_eq!(n, nodes[t]);
        }
    }

    #[test]
    fn deterministic() {
        let nodes: Vec<u32> = (0..50).map(|i| i % 4).collect();
        let costs: Vec<f64> = (0..50).map(|i| ((i * 37) % 11) as f64 + 1.0).collect();
        let a = assign_terms(4, 8, &nodes, &costs);
        let b = assign_terms(4, 8, &nodes, &costs);
        assert_eq!(a.placement, b.placement);
    }

    #[test]
    fn destinations_deduplicate() {
        let nodes = vec![0u32, 0];
        let costs = vec![1.0, 1.0];
        let a = assign_terms(1, 1, &nodes, &costs);
        // Two terms sharing atom 0, same (node, gc) slot.
        let dest = bond_destinations(2, &a, &[vec![0, 1], vec![0]]);
        assert_eq!(dest[0].len(), 1);
        assert_eq!(dest[1].len(), 1);
    }
}
