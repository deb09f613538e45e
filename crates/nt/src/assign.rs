//! Exactly-once assignment of interactions to nodes under the NT method.
//!
//! The interaction between two atoms may be computed by a node on which
//! neither resides. For boxes `A` and `B`, the computing node takes its
//! (x, y) from one box (whose column is the node's *tower*) and its z from
//! the other (whose layer is the node's *plate*); an asymmetric half-space
//! convention on the xy displacement decides which box plays which role, so
//! every pair is computed exactly once. This module implements that
//! convention and the tower/plate box enumeration engines iterate over.

use anton_geometry::IVec3;

/// The grid of nodes (home boxes). Anton's 512-node machine is 8×8×8.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeGrid {
    pub dims: IVec3,
}

impl NodeGrid {
    pub fn new(nx: i32, ny: i32, nz: i32) -> NodeGrid {
        assert!(nx >= 1 && ny >= 1 && nz >= 1);
        NodeGrid {
            dims: IVec3::new(nx, ny, nz),
        }
    }

    pub fn cubic(n: i32) -> NodeGrid {
        NodeGrid::new(n, n, n)
    }

    pub fn node_count(&self) -> usize {
        (self.dims.x * self.dims.y * self.dims.z) as usize
    }

    /// Flatten a (wrapped) box coordinate.
    #[inline]
    pub fn index(&self, c: IVec3) -> usize {
        let w = c.rem_euclid(self.dims);
        ((w.z * self.dims.y + w.y) * self.dims.x + w.x) as usize
    }

    #[inline]
    pub fn coord(&self, index: usize) -> IVec3 {
        let i = index as i32;
        IVec3::new(
            i % self.dims.x,
            (i / self.dims.x) % self.dims.y,
            i / (self.dims.x * self.dims.y),
        )
    }

    /// Dimension-order routing hop count between two nodes of the torus:
    /// the minimal ring distance, summed over the axes.
    pub fn hops(&self, a: IVec3, b: IVec3) -> u32 {
        let axis = |a: i32, b: i32, n: i32| {
            let d = (a - b).rem_euclid(n);
            d.min(n - d) as u32
        };
        axis(a.x, b.x, self.dims.x) + axis(a.y, b.y, self.dims.y) + axis(a.z, b.z, self.dims.z)
    }

    /// Minimum-image displacement of box coordinates along one axis, in
    /// `[-d/2, d/2)` — fixed to the *negative* half on ties so that
    /// `wrap(x) == -wrap(-x)` fails only at the exact half, which the
    /// assignment canonicalizes away by ordering the pair first.
    #[inline]
    pub fn wrap_axis(&self, d: i32, axis: usize) -> i32 {
        let n = match axis {
            0 => self.dims.x,
            1 => self.dims.y,
            _ => self.dims.z,
        };
        let mut w = d.rem_euclid(n);
        if w >= (n + 1) / 2 && n > 1 {
            w -= n;
        }
        w
    }
}

/// The NT assignment for a node grid with tower half-range `zr` and plate
/// half-range `xyr`, in box units (⌈cutoff+margin / box edge⌉).
#[derive(Clone, Copy, Debug)]
pub struct NtAssignment {
    pub grid: NodeGrid,
    pub zr: i32,
    pub xyr: i32,
}

impl NtAssignment {
    pub fn new(grid: NodeGrid, zr: i32, xyr: i32) -> NtAssignment {
        NtAssignment { grid, zr, xyr }
    }

    /// Choose ranges from a cutoff (plus import margin) and box edges.
    pub fn for_cutoff(grid: NodeGrid, reach: f64, box_edges: [f64; 3]) -> NtAssignment {
        let zr = (reach / box_edges[2]).ceil() as i32;
        let xyr = (reach / box_edges[0].min(box_edges[1])).ceil() as i32;
        NtAssignment { grid, zr, xyr }
    }

    /// The node that computes the interaction of (atoms in) boxes `a` and
    /// `b`. A pure function of the *unordered* pair.
    pub fn node_for_pair(&self, a: IVec3, b: IVec3) -> IVec3 {
        // Canonical order so ties in the wrap convention cannot produce two
        // different answers for (a,b) vs (b,a).
        let (a, b) = if (a.x, a.y, a.z) <= (b.x, b.y, b.z) {
            (a, b)
        } else {
            (b, a)
        };
        let dx = self.grid.wrap_axis(b.x - a.x, 0);
        let dy = self.grid.wrap_axis(b.y - a.y, 1);
        let dz = self.grid.wrap_axis(b.z - a.z, 2);
        if dx == 0 && dy == 0 {
            // Same column: the lower atom (by wrapped dz) hosts the plate.
            if dz >= 0 {
                IVec3::new(a.x, a.y, a.z).rem_euclid(self.grid.dims)
            } else {
                IVec3::new(a.x, a.y, b.z).rem_euclid(self.grid.dims)
            }
        } else if dx > 0 || (dx == 0 && dy > 0) {
            // b lies in the half-plate relative to a's column.
            IVec3::new(a.x, a.y, b.z).rem_euclid(self.grid.dims)
        } else {
            IVec3::new(b.x, b.y, a.z).rem_euclid(self.grid.dims)
        }
    }

    /// Boxes of this node's tower (home column ± zr), deduplicated under
    /// wrapping, home box included.
    pub fn tower_boxes(&self, node: IVec3) -> Vec<IVec3> {
        let mut out = Vec::new();
        for dz in -self.zr..=self.zr {
            let c = IVec3::new(node.x, node.y, node.z + dz).rem_euclid(self.grid.dims);
            if !out.contains(&c) {
                out.push(c);
            }
        }
        out
    }

    /// Boxes of this node's plate: home box plus the half-neighborhood in
    /// the node's layer, deduplicated under wrapping.
    pub fn plate_boxes(&self, node: IVec3) -> Vec<IVec3> {
        let mut out = vec![node.rem_euclid(self.grid.dims)];
        for dx in -self.xyr..=self.xyr {
            for dy in -self.xyr..=self.xyr {
                if dx == 0 && dy == 0 {
                    continue;
                }
                if dx > 0 || (dx == 0 && dy > 0) {
                    let c = IVec3::new(node.x + dx, node.y + dy, node.z).rem_euclid(self.grid.dims);
                    if !out.contains(&c) {
                        out.push(c);
                    }
                }
            }
        }
        out
    }

    /// Import-region box counts `(tower_import, plate_import)` excluding the
    /// home box (used by the communication model).
    pub fn import_counts(&self, node: IVec3) -> (usize, usize) {
        let home = node.rem_euclid(self.grid.dims);
        let t = self
            .tower_boxes(node)
            .into_iter()
            .filter(|&c| c != home)
            .count();
        let p = self
            .plate_boxes(node)
            .into_iter()
            .filter(|&c| c != home)
            .count();
        (t, p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anton_geometry::{PeriodicBox, Vec3};
    use rand::{Rng, SeedableRng};
    use std::collections::HashSet;

    #[test]
    fn hop_counts_wrap() {
        let grid = NodeGrid::cubic(8);
        assert_eq!(grid.hops(IVec3::new(0, 0, 0), IVec3::new(7, 0, 0)), 1);
        assert_eq!(grid.hops(IVec3::new(0, 0, 0), IVec3::new(4, 4, 4)), 12);
    }

    #[test]
    fn node_for_pair_is_symmetric() {
        let nt = NtAssignment::new(NodeGrid::cubic(8), 2, 2);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(3);
        for _ in 0..2000 {
            let a = IVec3::new(
                rng.gen_range(0..8),
                rng.gen_range(0..8),
                rng.gen_range(0..8),
            );
            let b = IVec3::new(
                rng.gen_range(0..8),
                rng.gen_range(0..8),
                rng.gen_range(0..8),
            );
            assert_eq!(
                nt.node_for_pair(a, b),
                nt.node_for_pair(b, a),
                "{a:?} {b:?}"
            );
        }
    }

    #[test]
    fn assigned_node_hosts_tower_and_plate() {
        // For in-range pairs, the chosen node's tower must contain one box
        // and its plate the other.
        let nt = NtAssignment::new(NodeGrid::cubic(8), 2, 2);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(4);
        for _ in 0..3000 {
            let a = IVec3::new(
                rng.gen_range(0..8),
                rng.gen_range(0..8),
                rng.gen_range(0..8),
            );
            let db = IVec3::new(
                rng.gen_range(-2..=2),
                rng.gen_range(-2..=2),
                rng.gen_range(-2..=2),
            );
            let b = (a + db).rem_euclid(IVec3::new(8, 8, 8));
            let n = nt.node_for_pair(a, b);
            let tower = nt.tower_boxes(n);
            let plate = nt.plate_boxes(n);
            let ok = (tower.contains(&a) && plate.contains(&b))
                || (tower.contains(&b) && plate.contains(&a));
            assert!(
                ok,
                "pair {a:?},{b:?} -> node {n:?} tower {tower:?} plate {plate:?}"
            );
        }
    }

    /// The crucial property: enumerating tower×plate pairs on every node,
    /// filtered by `node_for_pair`, visits every within-cutoff atom pair
    /// exactly once — validated against brute force.
    #[test]
    fn covers_every_pair_exactly_once() {
        let grid = NodeGrid::cubic(4);
        let edge = 24.0; // box edge 6 Å per node box
        let cutoff = 7.5; // spans > 1 box
        let pbox = PeriodicBox::cubic(edge);
        let nt = NtAssignment::for_cutoff(grid, cutoff, [6.0, 6.0, 6.0]);
        assert_eq!(nt.zr, 2);

        let mut rng = rand::rngs::SmallRng::seed_from_u64(5);
        let n_atoms = 300;
        let pos: Vec<Vec3> = (0..n_atoms)
            .map(|_| {
                Vec3::new(
                    rng.gen::<f64>() * edge,
                    rng.gen::<f64>() * edge,
                    rng.gen::<f64>() * edge,
                )
            })
            .collect();
        let axis_box = |c: f64| ((c / edge * 4.0) as i32).clamp(0, 3);
        let box_of: Vec<IVec3> = pos
            .iter()
            .map(|p| IVec3::new(axis_box(p.x), axis_box(p.y), axis_box(p.z)))
            .collect();

        // Atoms per box.
        let mut atoms_in: Vec<Vec<u32>> = vec![Vec::new(); grid.node_count()];
        for (i, b) in box_of.iter().enumerate() {
            atoms_in[grid.index(*b)].push(i as u32);
        }

        let mut visited: Vec<(u32, u32)> = Vec::new();
        for node_idx in 0..grid.node_count() {
            let node = grid.coord(node_idx);
            let tower = nt.tower_boxes(node);
            let plate = nt.plate_boxes(node);
            for tb in &tower {
                for pb in &plate {
                    for &i in &atoms_in[grid.index(*tb)] {
                        for &j in &atoms_in[grid.index(*pb)] {
                            if i == j {
                                continue;
                            }
                            // Same-box pairs appear as (tower home, plate
                            // home); avoid double visits within the node by
                            // ordering.
                            if tb == pb && i > j {
                                continue;
                            }
                            if nt.node_for_pair(box_of[i as usize], box_of[j as usize]) != node {
                                continue;
                            }
                            // Distinct (tower, plate) box roles can both be
                            // enumerated when both boxes sit in tower∩plate
                            // (the home box): only counted once above.
                            if pbox.dist2(pos[i as usize], pos[j as usize]) <= cutoff * cutoff {
                                visited.push((i.min(j), i.max(j)));
                            }
                        }
                    }
                }
            }
        }
        visited.sort_unstable();

        let mut expected: Vec<(u32, u32)> = Vec::new();
        for i in 0..n_atoms as u32 {
            for j in (i + 1)..n_atoms as u32 {
                if pbox.dist2(pos[i as usize], pos[j as usize]) <= cutoff * cutoff {
                    expected.push((i, j));
                }
            }
        }
        expected.sort_unstable();

        // No duplicates.
        let unique: HashSet<_> = visited.iter().collect();
        assert_eq!(unique.len(), visited.len(), "pairs visited more than once");
        assert_eq!(
            visited, expected,
            "NT enumeration disagrees with brute force"
        );
    }

    #[test]
    fn import_counts_match_region_arithmetic() {
        let nt = NtAssignment::new(NodeGrid::cubic(8), 2, 2);
        let (t, p) = nt.import_counts(IVec3::new(3, 3, 3));
        assert_eq!(t, 4); // ±2 boxes in z
                          // Half of the 5×5−1 ring = 12 boxes.
        assert_eq!(p, 12);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// For random grids, node_for_pair is a pure function of the
        /// unordered pair and always lands on a node whose tower/plate hold
        /// the two boxes (for pairs within range).
        #[test]
        fn assignment_invariants(
            gx in 1i32..6, gy in 1i32..6, gz in 1i32..6,
            ax in 0i32..6, ay in 0i32..6, az in 0i32..6,
            dx in -2i32..3, dy in -2i32..3, dz in -2i32..3,
        ) {
            let grid = NodeGrid::new(gx, gy, gz);
            let nt = NtAssignment::new(grid, 2, 2);
            let a = IVec3::new(ax % gx, ay % gy, az % gz);
            let b = (a + IVec3::new(dx, dy, dz)).rem_euclid(grid.dims);
            let n1 = nt.node_for_pair(a, b);
            let n2 = nt.node_for_pair(b, a);
            prop_assert_eq!(n1, n2, "unordered-pair symmetry");
            let tower = nt.tower_boxes(n1);
            let plate = nt.plate_boxes(n1);
            prop_assert!(
                (tower.contains(&a) && plate.contains(&b))
                    || (tower.contains(&b) && plate.contains(&a)),
                "node {:?} does not host pair ({:?}, {:?})", n1, a, b
            );
        }

        /// Tower and plate only overlap at the home box.
        #[test]
        fn tower_plate_overlap_is_home_only(
            g in 3i32..8, zr in 1i32..3, xyr in 1i32..3,
            nx in 0i32..8, ny in 0i32..8, nz in 0i32..8,
        ) {
            let grid = NodeGrid::cubic(g);
            let nt = NtAssignment::new(grid, zr, xyr);
            let node = IVec3::new(nx % g, ny % g, nz % g);
            let tower = nt.tower_boxes(node);
            let plate = nt.plate_boxes(node);
            for t in &tower {
                for p in &plate {
                    if t == p {
                        prop_assert_eq!(*t, node.rem_euclid(grid.dims));
                    }
                }
            }
        }
    }
}
