//! Cell lists over a periodic box.
//!
//! The reference engine builds its pair list from this grid; the NT-method
//! validation uses it as the ground truth "all pairs within the cutoff".

use crate::{IVec3, PeriodicBox, Vec3};

/// Stable counting sort of items `0..n` on `key(i) < n_buckets`, the one
/// bucketing of this crate (cell lists here, particle tiles in
/// [`PosTiles`](crate::PosTiles)): on return bucket `b` spans
/// `starts[b]..starts[b + 1]` and item `i` sits at `slot[i]`, items
/// ascending within a bucket. Both buffers are cleared and refilled, so a
/// caller that keeps them allocates nothing in steady state.
pub(crate) fn counting_sort(
    n_buckets: usize,
    n: usize,
    key: impl Fn(usize) -> usize,
    starts: &mut Vec<u32>,
    slot: &mut Vec<u32>,
) {
    // Count into `starts[b]`, prefix-sum to bucket ends, then place the
    // items from the last down, each taking the slot below its bucket's
    // end: the ends walk down to the starts, and items ascend within each
    // bucket.
    starts.clear();
    starts.resize(n_buckets + 1, 0);
    for i in 0..n {
        starts[key(i)] += 1;
    }
    for b in 1..starts.len() {
        starts[b] += starts[b - 1];
    }
    slot.resize(n, 0);
    for i in (0..n).rev() {
        let b = key(i);
        starts[b] -= 1;
        slot[i] = starts[b];
    }
}

/// A uniform cell decomposition of a periodic box with cell edges ≥ some
/// interaction cutoff, so that all neighbors of a particle lie in the 27
/// surrounding cells.
#[derive(Clone, Debug)]
pub struct CellGrid {
    pub pbox: PeriodicBox,
    dims: IVec3,
    cell_of: Vec<u32>,
    /// Particles sorted by cell, addressed through `starts`.
    order: Vec<u32>,
    /// `starts[c]..starts[c + 1]` spans cell `c` inside `order`.
    starts: Vec<u32>,
}

impl CellGrid {
    /// Build a grid whose cells are at least `min_cell` Å on a side
    /// (usually the cutoff plus a pair-list margin).
    pub fn build(pbox: &PeriodicBox, positions: &[Vec3], min_cell: f64) -> CellGrid {
        assert!(min_cell > 0.0);
        let e = pbox.edge();
        let dims = IVec3::new(
            ((e.x / min_cell).floor() as i32).max(1),
            ((e.y / min_cell).floor() as i32).max(1),
            ((e.z / min_cell).floor() as i32).max(1),
        );
        let ncells = (dims.x * dims.y * dims.z) as usize;

        let mut cell_of = Vec::with_capacity(positions.len());
        for &p in positions {
            let f = pbox.to_frac(p);
            let c = IVec3::new(
                ((f.x * dims.x as f64) as i32).clamp(0, dims.x - 1),
                ((f.y * dims.y as f64) as i32).clamp(0, dims.y - 1),
                ((f.z * dims.z as f64) as i32).clamp(0, dims.z - 1),
            );
            cell_of.push(Self::cell_index(dims, c));
        }
        let (mut starts, mut slot) = (Vec::new(), Vec::new());
        counting_sort(
            ncells,
            positions.len(),
            |i| cell_of[i] as usize,
            &mut starts,
            &mut slot,
        );
        let mut order = vec![0; positions.len()];
        for (i, &s) in slot.iter().enumerate() {
            order[s as usize] = i as u32;
        }
        CellGrid {
            pbox: *pbox,
            dims,
            cell_of,
            order,
            starts,
        }
    }

    #[inline]
    fn cell_index(dims: IVec3, c: IVec3) -> u32 {
        ((c.z * dims.y + c.y) * dims.x + c.x) as u32
    }

    #[inline]
    pub fn dims(&self) -> IVec3 {
        self.dims
    }

    #[inline]
    pub fn cell_count(&self) -> usize {
        (self.dims.x * self.dims.y * self.dims.z) as usize
    }

    /// Particles in one cell.
    pub fn cell_members(&self, cell: u32) -> &[u32] {
        let c = cell as usize;
        &self.order[self.starts[c] as usize..self.starts[c + 1] as usize]
    }

    /// The cell a particle was binned into.
    #[inline]
    pub fn cell_of(&self, particle: usize) -> u32 {
        self.cell_of[particle]
    }

    /// Visit every unordered particle pair within `cutoff` exactly once,
    /// using a half stencil over neighbor cells (Newton's third law).
    pub fn for_each_pair_within(
        &self,
        positions: &[Vec3],
        cutoff: f64,
        mut f: impl FnMut(usize, usize, Vec3, f64),
    ) {
        let c2 = cutoff * cutoff;
        let dims = self.dims;
        // Half stencil: the 13 lexicographically positive neighbor offsets;
        // together with in-cell pairs this visits each unordered pair once.
        let mut stencil = Vec::with_capacity(13);
        for dz in -1i32..=1 {
            for dy in -1i32..=1 {
                for dx in -1i32..=1 {
                    if (dz, dy, dx) > (0, 0, 0) {
                        stencil.push(IVec3::new(dx, dy, dz));
                    }
                }
            }
        }
        debug_assert_eq!(stencil.len(), 13);

        // With very small grids (< 3 cells on an axis) the stencil would visit
        // the same neighbor twice; fall back to all-pairs in that case.
        if dims.x < 3 || dims.y < 3 || dims.z < 3 {
            for i in 0..positions.len() {
                for j in (i + 1)..positions.len() {
                    let d = self.pbox.min_image(positions[i], positions[j]);
                    let r2 = d.norm2();
                    if r2 <= c2 {
                        f(i, j, d, r2);
                    }
                }
            }
            return;
        }

        for cz in 0..dims.z {
            for cy in 0..dims.y {
                for cx in 0..dims.x {
                    let c = IVec3::new(cx, cy, cz);
                    let ci = Self::cell_index(dims, c);
                    let members = self.cell_members(ci);
                    // Pairs within the cell.
                    for (a, &i) in members.iter().enumerate() {
                        for &j in &members[a + 1..] {
                            let d = self
                                .pbox
                                .min_image(positions[i as usize], positions[j as usize]);
                            let r2 = d.norm2();
                            if r2 <= c2 {
                                f(i as usize, j as usize, d, r2);
                            }
                        }
                    }
                    // Pairs against the half stencil.
                    for off in &stencil {
                        let n = (c + *off).rem_euclid(dims);
                        let ni = Self::cell_index(dims, n);
                        for &i in members {
                            for &j in self.cell_members(ni) {
                                let d = self
                                    .pbox
                                    .min_image(positions[i as usize], positions[j as usize]);
                                let r2 = d.norm2();
                                if r2 <= c2 {
                                    f(i as usize, j as usize, d, r2);
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn brute_force_pairs(pbox: &PeriodicBox, pos: &[Vec3], cutoff: f64) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for i in 0..pos.len() {
            for j in (i + 1)..pos.len() {
                if pbox.dist2(pos[i], pos[j]) <= cutoff * cutoff {
                    out.push((i, j));
                }
            }
        }
        out.sort_unstable();
        out
    }

    #[test]
    fn buckets_preserve_input_order_and_cover_all_items() {
        let order = |slot: &[u32]| {
            let mut o = vec![0; slot.len()];
            for (i, &s) in slot.iter().enumerate() {
                o[s as usize] = i;
            }
            o
        };
        let keys = [2usize, 0, 2, 1, 0, 2, 3];
        let (mut starts, mut slot) = (Vec::new(), Vec::new());
        counting_sort(4, keys.len(), |i| keys[i], &mut starts, &mut slot);
        assert_eq!(starts, [0, 2, 3, 6, 7]);
        assert_eq!(order(&slot), [1, 4, 3, 0, 2, 5, 6]);
        // Rebuilding with fewer buckets reuses the buffers and stays exact.
        counting_sort(2, 4, |i| i % 2, &mut starts, &mut slot);
        assert_eq!(starts, [0, 2, 4]);
        assert_eq!(order(&slot), [0, 2, 1, 3]);
    }

    #[test]
    fn matches_brute_force_on_random_points() {
        let pbox = PeriodicBox::cubic(30.0);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
        let pos: Vec<Vec3> = (0..400)
            .map(|_| {
                Vec3::new(
                    rng.gen::<f64>() * 30.0,
                    rng.gen::<f64>() * 30.0,
                    rng.gen::<f64>() * 30.0,
                )
            })
            .collect();
        let cutoff = 6.5;
        let grid = CellGrid::build(&pbox, &pos, cutoff);
        let mut got = Vec::new();
        grid.for_each_pair_within(&pos, cutoff, |i, j, _d, _r2| {
            got.push((i.min(j), i.max(j)));
        });
        got.sort_unstable();
        assert_eq!(got, brute_force_pairs(&pbox, &pos, cutoff));
    }

    #[test]
    fn small_box_falls_back_to_all_pairs() {
        let pbox = PeriodicBox::cubic(8.0);
        let pos = vec![
            Vec3::new(0.5, 0.5, 0.5),
            Vec3::new(7.5, 7.5, 7.5), // 1.73 Å away through the corner
            Vec3::new(4.0, 4.0, 4.0),
        ];
        let grid = CellGrid::build(&pbox, &pos, 6.0);
        let mut got = Vec::new();
        grid.for_each_pair_within(&pos, 2.0, |i, j, _d, _r2| got.push((i, j)));
        assert_eq!(got, vec![(0, 1)]);
    }

    #[test]
    fn pair_count_matches_density_estimate() {
        // Uniform density: expected pairs ≈ N^2/2 * (4/3 π r^3 / V).
        let pbox = PeriodicBox::cubic(40.0);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(99);
        let n = 2000;
        let pos: Vec<Vec3> = (0..n)
            .map(|_| {
                Vec3::new(
                    rng.gen::<f64>() * 40.0,
                    rng.gen::<f64>() * 40.0,
                    rng.gen::<f64>() * 40.0,
                )
            })
            .collect();
        let cutoff = 9.0;
        let grid = CellGrid::build(&pbox, &pos, cutoff);
        let mut count = 0usize;
        grid.for_each_pair_within(&pos, cutoff, |_, _, _, _| count += 1);
        let expected = (n * n) as f64 / 2.0 * (4.0 / 3.0) * std::f64::consts::PI * cutoff.powi(3)
            / pbox.volume();
        let rel = (count as f64 - expected).abs() / expected;
        assert!(rel < 0.05, "count {count} vs expected {expected}");
    }
}
