//! Cell lists over a periodic box.
//!
//! The reference engine builds its pair list from this grid; the NT-method
//! validation uses it as the ground truth "all pairs within the cutoff".

use crate::{IVec3, PeriodicBox, Vec3};

/// Reusable counting-sort bucketing of items by a small integer key (a cell
/// index, a node-box index, …). Deterministic: items keep their input order
/// within a bucket, and rebuilding with the same keys reproduces the same
/// layout bit for bit. Buffers are retained across [`Buckets::rebuild`]
/// calls so per-step re-bucketing allocates nothing in steady state.
#[derive(Clone, Debug, Default)]
pub struct Buckets {
    /// Item indices sorted by bucket, addressed through `starts`.
    order: Vec<u32>,
    /// `starts[b]..starts[b + 1]` spans bucket `b` inside `order`.
    starts: Vec<u32>,
    cursor: Vec<u32>,
}

impl Buckets {
    /// Re-bucket `n_items` items into `n_buckets` buckets; `key(i)` must
    /// return a bucket index `< n_buckets` for every `i < n_items`.
    pub fn rebuild(&mut self, n_buckets: usize, n_items: usize, key: impl Fn(usize) -> usize) {
        self.starts.clear();
        self.starts.resize(n_buckets + 1, 0);
        for i in 0..n_items {
            self.starts[key(i) + 1] += 1;
        }
        for b in 1..self.starts.len() {
            self.starts[b] += self.starts[b - 1];
        }
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.starts);
        self.order.clear();
        self.order.resize(n_items, 0);
        for i in 0..n_items {
            let b = key(i);
            self.order[self.cursor[b] as usize] = i as u32;
            self.cursor[b] += 1;
        }
    }

    /// Number of items in the current layout (0 before the first rebuild).
    pub fn item_count(&self) -> usize {
        self.order.len()
    }

    /// Number of buckets in the current layout.
    pub fn bucket_count(&self) -> usize {
        self.starts.len().saturating_sub(1)
    }

    /// Items in one bucket, in input order.
    #[inline]
    pub fn members(&self, bucket: usize) -> &[u32] {
        let s = self.starts[bucket] as usize;
        let e = self.starts[bucket + 1] as usize;
        &self.order[s..e]
    }

    /// Items of a run of consecutive buckets, bucket by bucket.
    #[inline]
    pub fn span(&self, buckets: std::ops::Range<usize>) -> &[u32] {
        &self.order[self.starts[buckets.start] as usize..self.starts[buckets.end] as usize]
    }

    /// Item count of one bucket.
    #[inline]
    pub fn count(&self, bucket: usize) -> usize {
        (self.starts[bucket + 1] - self.starts[bucket]) as usize
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
    buckets: Buckets,
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
        let mut buckets = Buckets::default();
        buckets.rebuild(ncells, positions.len(), |i| cell_of[i] as usize);
        CellGrid {
            pbox: *pbox,
            dims,
            cell_of,
            buckets,
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
        self.buckets.members(cell as usize)
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
        let keys = [2usize, 0, 2, 1, 0, 2, 3];
        let mut b = Buckets::default();
        b.rebuild(4, keys.len(), |i| keys[i]);
        assert_eq!(b.bucket_count(), 4);
        assert_eq!(b.members(0), &[1, 4]);
        assert_eq!(b.members(1), &[3]);
        assert_eq!(b.members(2), &[0, 2, 5]);
        assert_eq!(b.members(3), &[6]);
        assert_eq!(b.span(1..3), &[3, 0, 2, 5]);
        assert_eq!(b.span(0..4).len(), keys.len());
        assert_eq!(b.item_count(), keys.len());
        assert_eq!((0..4).map(|c| b.count(c)).sum::<usize>(), keys.len());
        // Rebuilding with fewer buckets reuses the buffers and stays exact.
        b.rebuild(2, 4, |i| i % 2);
        assert_eq!(b.members(0), &[0, 2]);
        assert_eq!(b.members(1), &[1, 3]);
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
