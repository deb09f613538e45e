//! Structure-of-arrays particle tiles for the batched match stage.
//!
//! The HTIS streams *tiles* of particle data — contiguous per-axis
//! coordinate arrays plus per-particle kernel parameters — through its
//! match units. [`PosTiles`] is that layout in software: one flat SoA pool
//! segmented into tiles (one tile per subbox / cell), rebuilt on every
//! match-cache rebuild from a bucketed particle index (positions refreshed
//! in place in between) without allocating in steady state. Coordinates
//! are stored as the *raw* signed 32-bit box-fraction bits, so the match
//! stage can form minimum-image deltas with plain wrapping subtraction and
//! never touches floating point.
//!
//! The pool is also the evaluator's per-atom record store: a cached match
//! lane is only a pair of flat slots, and everything a pair needs — both
//! positions, both charges, both LJ types, both particle ids — is gathered
//! from here by slot, through the whole-pool view [`PosTiles::all`] (or
//! [`PosTiles::raw_at`] and [`PosTiles::atom_at`] for one field).

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
/// the same membership and fetch results reproduces the same layout bit
/// for bit (slot order is the membership order handed in).
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
}

impl PosTiles {
    /// Refill the tiles: one tile per `members` item (its slice lists the
    /// particles of that tile, in slot order), `fetch` supplies each
    /// particle's raw coordinates, charge and LJ type.
    pub fn rebuild<'a>(
        &mut self,
        members: impl Iterator<Item = &'a [u32]>,
        mut fetch: impl FnMut(u32) -> ([i32; 3], f64, u16),
    ) {
        self.x.clear();
        self.y.clear();
        self.z.clear();
        self.q.clear();
        self.ty.clear();
        self.atom.clear();
        self.starts.clear();
        self.starts.push(0);
        for tile in members {
            for &p in tile {
                let (c, q, ty) = fetch(p);
                self.x.push(c[0]);
                self.y.push(c[1]);
                self.z.push(c[2]);
                self.q.push(q);
                self.ty.push(ty);
                self.atom.push(p);
            }
            self.starts.push(self.atom.len() as u32);
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
    /// whole pool, e.g. via [`Self::raw_at`]).
    #[inline]
    pub fn tile_start(&self, t: usize) -> usize {
        self.starts[t] as usize
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

    fn three_tiles() -> PosTiles {
        let mut tiles = PosTiles::default();
        let members: [&[u32]; 3] = [&[2, 0], &[], &[1]];
        tiles.rebuild(members.into_iter(), record);
        tiles
    }

    #[test]
    fn rebuild_partitions_members_in_order() {
        let tiles = three_tiles();
        assert_eq!(tiles.tile_count(), 3);
        assert_eq!(tiles.len(), 3);
        let t0 = tiles.tile(0);
        assert_eq!(t0.atom, &[2, 0]);
        assert_eq!(t0.x, &[2, 0]);
        assert_eq!(t0.y, &[-2, 0]);
        assert_eq!(t0.z, &[20, 0]);
        assert!(tiles.tile(1).is_empty());
        assert_eq!(tiles.tile(2).atom, &[1]);
        // Charge and type sit in the same slot order, read by flat slot.
        let all = tiles.all();
        for (slot, p) in [(0u32, 2u32), (1, 0), (2, 1)] {
            let (c, q, ty) = record(p);
            assert_eq!(tiles.atom_at(slot), p);
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
        assert_eq!(t0.atom, &[2, 0], "membership untouched");
        for (slot, p) in [(0usize, 2u32), (1, 0), (2, 1)] {
            assert_eq!(tiles.all().q[slot], record(p).1, "charges untouched");
            assert_eq!(tiles.all().ty[slot], record(p).2, "types untouched");
        }
        assert_eq!(t0.x, &[102, 100]);
        assert_eq!(t0.y, &[-98, -100]);
        assert_eq!(t0.z, &[7, 7]);
        assert_eq!(tiles.tile_start(2), 2);
        assert_eq!(tiles.raw_at(2), [101, -99, 7]);
        assert_eq!(tiles.tile_count(), 3, "segmentation untouched");
    }

    #[test]
    fn rebuild_reuses_buffers_and_resets_layout() {
        let mut tiles = PosTiles::default();
        let big: Vec<u32> = (0..100).collect();
        tiles.rebuild([big.as_slice()].into_iter(), |p| ([p as i32; 3], 0.0, 3));
        assert_eq!(tiles.len(), 100);
        let members: [&[u32]; 2] = [&[5], &[7, 9]];
        tiles.rebuild(members.into_iter(), |p| ([p as i32; 3], 1.0, p as u16));
        assert_eq!(tiles.tile_count(), 2);
        assert_eq!(tiles.len(), 3);
        assert_eq!(tiles.tile(1).atom, &[7, 9]);
        assert_eq!(tiles.all().ty, &[5, 7, 9]);
        assert_eq!(tiles.all().q[2], 1.0);
    }
}
