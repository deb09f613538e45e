//! Structure-of-arrays position/charge tiles for the batched match stage.
//!
//! The HTIS streams *tiles* of particle data — contiguous per-axis
//! coordinate arrays plus per-particle kernel parameters — through its
//! match units. [`PosTiles`] is that layout in software: one flat SoA pool
//! segmented into tiles (one tile per subbox / cell), rebuilt on every
//! match-cache rebuild from a bucketed particle index (positions refreshed
//! in place in between) without allocating in steady state. Coordinates are stored as the *raw* signed 32-bit box-fraction
//! bits, so the match stage can form minimum-image deltas with plain
//! wrapping subtraction and never touches floating point.

/// A read-only view of one tile: parallel slices over the tile's slots.
#[derive(Clone, Copy, Debug)]
pub struct TileView<'a> {
    /// Raw per-axis box-fraction coordinates (signed Q31 bits).
    pub x: &'a [i32],
    pub y: &'a [i32],
    pub z: &'a [i32],
    /// Per-slot charge.
    pub q: &'a [f64],
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

/// SoA position/charge tiles over a set of particles, segmented by tile.
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
    atom: Vec<u32>,
    /// `starts[t]..starts[t + 1]` spans tile `t` inside the flat arrays.
    starts: Vec<u32>,
}

impl PosTiles {
    /// Refill the tiles: one tile per `members` item (its slice lists the
    /// particles of that tile, in slot order), `fetch` supplies each
    /// particle's raw coordinates and charge.
    pub fn rebuild<'a>(
        &mut self,
        members: impl Iterator<Item = &'a [u32]>,
        mut fetch: impl FnMut(u32) -> ([i32; 3], f64),
    ) {
        self.x.clear();
        self.y.clear();
        self.z.clear();
        self.q.clear();
        self.atom.clear();
        self.starts.clear();
        self.starts.push(0);
        for tile in members {
            for &p in tile {
                let (c, q) = fetch(p);
                self.x.push(c[0]);
                self.y.push(c[1]);
                self.z.push(c[2]);
                self.q.push(q);
                self.atom.push(p);
            }
            self.starts.push(self.atom.len() as u32);
        }
    }

    /// Overwrite every slot's coordinates from `fetch`, keeping the tile
    /// membership, slot order, charges and segmentation untouched. This is
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
        let s = self.starts[t] as usize;
        let e = self.starts[t + 1] as usize;
        TileView {
            x: &self.x[s..e],
            y: &self.y[s..e],
            z: &self.z[s..e],
            q: &self.q[s..e],
            atom: &self.atom[s..e],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rebuild_partitions_members_in_order() {
        let mut tiles = PosTiles::default();
        let members: [&[u32]; 3] = [&[2, 0], &[], &[1]];
        tiles.rebuild(members.into_iter(), |p| {
            ([p as i32, -(p as i32), p as i32 * 10], p as f64 * 0.5)
        });
        assert_eq!(tiles.tile_count(), 3);
        assert_eq!(tiles.len(), 3);
        let t0 = tiles.tile(0);
        assert_eq!(t0.atom, &[2, 0]);
        assert_eq!(t0.x, &[2, 0]);
        assert_eq!(t0.y, &[-2, 0]);
        assert_eq!(t0.z, &[20, 0]);
        assert_eq!(t0.q, &[1.0, 0.0]);
        assert!(tiles.tile(1).is_empty());
        assert_eq!(tiles.tile(2).atom, &[1]);
    }

    #[test]
    fn refresh_updates_coordinates_and_preserves_layout() {
        let mut tiles = PosTiles::default();
        let members: [&[u32]; 3] = [&[2, 0], &[], &[1]];
        tiles.rebuild(members.into_iter(), |p| {
            ([p as i32, -(p as i32), p as i32 * 10], p as f64 * 0.5)
        });
        tiles.refresh_positions(|p| [p as i32 + 100, p as i32 - 100, 7]);
        let t0 = tiles.tile(0);
        assert_eq!(t0.atom, &[2, 0], "membership untouched");
        assert_eq!(t0.q, &[1.0, 0.0], "charges untouched");
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
        tiles.rebuild([big.as_slice()].into_iter(), |p| ([p as i32; 3], 0.0));
        assert_eq!(tiles.len(), 100);
        let members: [&[u32]; 2] = [&[5], &[7, 9]];
        tiles.rebuild(members.into_iter(), |p| ([p as i32; 3], 1.0));
        assert_eq!(tiles.tile_count(), 2);
        assert_eq!(tiles.len(), 3);
        assert_eq!(tiles.tile(1).atom, &[7, 9]);
    }
}
