//! Structure-of-arrays particle tiles for the batched match stage.
//!
//! The HTIS streams *tiles* of particle data — contiguous per-axis
//! coordinate arrays plus per-particle kernel parameters — through its
//! match units. [`PosTiles`] is that layout in software: one flat SoA pool
//! segmented into tiles (one tile per subbox / home box), rebuilt on every
//! match-cache rebuild by one stable counting sort of the particles on
//! their tile keys (positions refreshed in place in between) without
//! allocating in steady state. The pool is the only particles-by-tile
//! index: a tile's members, a run of tiles' members, a tile's population
//! and a particle's slot are all read off it. Coordinates
//! are stored as the *raw* signed 32-bit box-fraction bits, so the match
//! stage can form minimum-image deltas with plain wrapping subtraction and
//! never touches floating point.
//!
//! The pool is also the evaluator's per-atom record store: a cached match
//! lane is only a pair of flat slots, and everything a pair needs — both
//! positions, both charges, both LJ types, both particle ids — is gathered
//! from here by slot, through the whole-pool view [`PosTiles::all`] (or
//! [`PosTiles::raw_at`] and [`PosTiles::atom_at`] for one field).

use crate::cells::counting_sort;

/// A read-only view of one tile (or of the whole pool), as the match stage
/// streams it and the evaluator gathers from it: parallel slices of one
/// length over the slots.
#[derive(Clone, Copy, Debug)]
pub struct TileView<'a> {
    /// Raw per-axis box-fraction coordinates (signed Q31 bits).
    pub x: &'a [i32],
    pub y: &'a [i32],
    pub z: &'a [i32],
    /// Charge and LJ type of each slot.
    pub q: &'a [f64],
    pub ty: &'a [u16],
    /// Global particle index of each slot.
    pub atom: &'a [u32],
}

impl TileView<'_> {
    #[inline]
    pub fn len(&self) -> usize {
        self.atom.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.atom.is_empty()
    }
}

/// SoA position/charge/type tiles over a set of particles, segmented by tile.
///
/// Buffers are retained across [`PosTiles::rebuild`] calls; rebuilding with
/// the same keys and fetch results reproduces the same layout bit for bit
/// (within a tile, slots run in ascending particle id).
#[derive(Clone, Debug, Default)]
pub struct PosTiles {
    x: Vec<i32>,
    y: Vec<i32>,
    z: Vec<i32>,
    q: Vec<f64>,
    ty: Vec<u16>,
    atom: Vec<u32>,
    /// `starts[t]..starts[t + 1]` spans tile `t` inside the flat arrays.
    starts: Vec<u32>,
    /// Flat slot of each particle: `slot[atom[s]] == s`.
    slot: Vec<u32>,
}

impl PosTiles {
    /// Refill the pool with particles `0..n` in `n_tiles` tiles by one
    /// stable counting sort on `key(p) < n_tiles`: a tile holds its
    /// particles in ascending id. `fetch` supplies each particle's raw
    /// coordinates, charge and LJ type.
    pub fn rebuild(
        &mut self,
        n_tiles: usize,
        n: usize,
        key: impl Fn(usize) -> usize,
        mut fetch: impl FnMut(u32) -> ([i32; 3], f64, u16),
    ) {
        counting_sort(n_tiles, n, key, &mut self.starts, &mut self.slot);
        for col in [&mut self.x, &mut self.y, &mut self.z] {
            col.clear();
            col.resize(n, 0);
        }
        self.q.clear();
        self.q.resize(n, 0.0);
        self.ty.clear();
        self.ty.resize(n, 0);
        self.atom.clear();
        self.atom.resize(n, 0);
        for (p, &s) in self.slot.iter().enumerate() {
            let (c, q, ty) = fetch(p as u32);
            let s = s as usize;
            self.x[s] = c[0];
            self.y[s] = c[1];
            self.z[s] = c[2];
            self.q[s] = q;
            self.ty[s] = ty;
            self.atom[s] = p as u32;
        }
    }

    /// Overwrite every slot's coordinates from `fetch`, keeping the tile
    /// membership, slot order, charges, types and segmentation untouched. This is
    /// the per-step refresh of a persistent match cache: atoms keep their
    /// slots between pair-list rebuilds, only their raw fraction bits move.
    pub fn refresh_positions(&mut self, mut fetch: impl FnMut(u32) -> [i32; 3]) {
        for (slot, &p) in self.atom.iter().enumerate() {
            let c = fetch(p);
            self.x[slot] = c[0];
            self.y[slot] = c[1];
            self.z[slot] = c[2];
        }
    }

    /// Number of tiles in the current layout.
    #[inline]
    pub fn tile_count(&self) -> usize {
        self.starts.len().saturating_sub(1)
    }

    /// First flat slot of tile `t` (slot indices returned here address the
    /// whole pool, e.g. via [`Self::raw_at`]); `tile_start(tile_count())`
    /// is the pool's length, so a run of tiles `a..b` spans slots
    /// `tile_start(a)..tile_start(b)`.
    #[inline]
    pub fn tile_start(&self, t: usize) -> usize {
        self.starts[t] as usize
    }

    /// Flat slot of particle `p`.
    #[inline]
    pub fn slot_of(&self, p: u32) -> u32 {
        self.slot[p as usize]
    }

    /// Raw coordinates of one flat slot.
    #[inline]
    pub fn raw_at(&self, slot: u32) -> [i32; 3] {
        let s = slot as usize;
        [self.x[s], self.y[s], self.z[s]]
    }

    /// Global particle index of one flat slot.
    #[inline]
    pub fn atom_at(&self, slot: u32) -> u32 {
        self.atom[slot as usize]
    }

    /// Total slots across all tiles.
    #[inline]
    pub fn len(&self) -> usize {
        self.atom.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.atom.is_empty()
    }

    /// View of one tile's parallel slices.
    #[inline]
    pub fn tile(&self, t: usize) -> TileView<'_> {
        self.slots(self.starts[t] as usize..self.starts[t + 1] as usize)
    }

    /// View of every slot, flat slot `s` at index `s`: the evaluator's
    /// gather source.
    #[inline]
    pub fn all(&self) -> TileView<'_> {
        self.slots(0..self.len())
    }

    #[inline]
    fn slots(&self, r: std::ops::Range<usize>) -> TileView<'_> {
        TileView {
            x: &self.x[r.clone()],
            y: &self.y[r.clone()],
            z: &self.z[r.clone()],
            q: &self.q[r.clone()],
            ty: &self.ty[r.clone()],
            atom: &self.atom[r],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Coordinates, charge and type of particle `p` as a test pattern.
    fn record(p: u32) -> ([i32; 3], f64, u16) {
        let c = p as i32;
        ([c, -c, c * 10], p as f64 * 0.5, p as u16 + 7)
    }

    /// Particles 2 and 0 in tile 0, none in tile 1, particle 1 in tile 2.
    fn three_tiles() -> PosTiles {
        let mut tiles = PosTiles::default();
        let keys = [0, 2, 0];
        tiles.rebuild(3, 3, |p| keys[p], record);
        tiles
    }

    #[test]
    fn rebuild_partitions_members_in_order() {
        let tiles = three_tiles();
        assert_eq!(tiles.tile_count(), 3);
        assert_eq!(tiles.len(), 3);
        let t0 = tiles.tile(0);
        assert_eq!(t0.atom, &[0, 2], "ascending id within a tile");
        assert_eq!(t0.x, &[0, 2]);
        assert_eq!(t0.y, &[0, -2]);
        assert_eq!(t0.z, &[0, 20]);
        assert!(tiles.tile(1).is_empty());
        assert_eq!(tiles.tile(2).atom, &[1]);
        assert_eq!(tiles.tile_start(3), 3, "the end of the last tile");
        // Charge and type sit in the same slot order, read by flat slot.
        let all = tiles.all();
        for (slot, p) in [(0u32, 0u32), (1, 2), (2, 1)] {
            let (c, q, ty) = record(p);
            assert_eq!(tiles.atom_at(slot), p);
            assert_eq!(tiles.slot_of(p), slot);
            assert_eq!(tiles.raw_at(slot), c);
            assert_eq!(all.q[slot as usize], q);
            assert_eq!(all.ty[slot as usize], ty);
        }
    }

    #[test]
    fn refresh_updates_coordinates_and_preserves_layout() {
        let mut tiles = three_tiles();
        tiles.refresh_positions(|p| [p as i32 + 100, p as i32 - 100, 7]);
        let t0 = tiles.tile(0);
        assert_eq!(t0.atom, &[0, 2], "membership untouched");
        for (slot, p) in [(0usize, 0u32), (1, 2), (2, 1)] {
            assert_eq!(tiles.all().q[slot], record(p).1, "charges untouched");
            assert_eq!(tiles.all().ty[slot], record(p).2, "types untouched");
        }
        assert_eq!(t0.x, &[100, 102]);
        assert_eq!(t0.y, &[-100, -98]);
        assert_eq!(t0.z, &[7, 7]);
        assert_eq!(tiles.tile_start(2), 2);
        assert_eq!(tiles.raw_at(2), [101, -99, 7]);
        assert_eq!(tiles.tile_count(), 3, "segmentation untouched");
    }

    #[test]
    fn rebuild_reuses_buffers_and_resets_layout() {
        let mut tiles = PosTiles::default();
        tiles.rebuild(1, 100, |_| 0, |p| ([p as i32; 3], 0.0, 3));
        assert_eq!(tiles.len(), 100);
        tiles.rebuild(
            2,
            3,
            |p| usize::from(p > 0),
            |p| ([p as i32; 3], 1.0, p as u16 + 5),
        );
        assert_eq!(tiles.tile_count(), 2);
        assert_eq!(tiles.len(), 3);
        assert_eq!(tiles.tile(1).atom, &[1, 2]);
        assert_eq!(tiles.all().ty, &[5, 6, 7]);
        assert_eq!(tiles.all().q[2], 1.0);
        assert_eq!(tiles.slot_of(2), 2);
    }
}
