//! The work plan: which rank does which share of a force evaluation.
//!
//! A [`RankSet`] always exists. It cuts the system into *tiles* (sets of
//! atoms binned together) and hands every [`Rank`] a static description of
//! its work, fixed at construction: the tile pairs it matches and
//! evaluates, its bonded terms (§3.2.3), its packed correction stream, and
//! the tiles whose atoms it spreads onto and interpolates from the mesh.
//! The force pipeline runs one body per phase over these lists, whatever
//! the plan.
//!
//! The two plans differ only in how atoms are binned into tiles:
//!
//! * [`Decomposition::SingleRank`] — tiles are the half-reach subboxes of a
//!   [`CellTiling`], binned from raw fraction bits; one rank owns every
//!   listed subbox pair.
//! * [`Decomposition::Nodes`] — tiles are the home boxes of a simulated
//!   node grid, binned by the NT method's home assignment with constraint
//!   groups on their leader (§3.2.4); rank `r` is node `r` and owns the
//!   tower × plate box pairs the NT assignment gives it (§3.2.1). This
//!   plan also carries the modelled machine: the torus [`ExchangePlan`],
//!   the mesh-phase [`MeshExchange`] and the [`MachineConfig`] pricing
//!   them. No machine is modelled under `SingleRank`, so nothing is
//!   metered there.
//!
//! Everything static is fixed from the *initial* configuration; atoms
//! drifting across tile boundaries later changes which rank enumerates
//! which pair but never the quantized contributions being accumulated, so
//! any static split is bitwise equivalent (paper §4).

use crate::batch::CellTiling;
use crate::forces::{Decomposition, PAIRLIST_SLACK};
use crate::state::FixedState;
use anton_ewald::gse::GseFixed;
use anton_fixpoint::FxVec3;
use anton_forcefield::ExclusionPolicy;
use anton_geometry::{Buckets, IVec3};
use anton_machine::config::near_cubic_torus;
use anton_machine::exchange::ExchangePlan;
use anton_machine::perf::ExchangeCounters;
use anton_machine::{MachineConfig, MeshExchange};
use anton_nt::assign::{NodeGrid, NtAssignment};
use anton_nt::migration::{assign_homes, assign_homes_into};
use anton_systems::System;
use std::ops::Range;

/// Import-region margin (Å) of the NT reach, covering constraint-group
/// co-location and deferred migration (§3.2.4).
const IMPORT_MARGIN: f64 = 8.0;

/// One rank's static work description.
#[derive(Clone, Debug)]
pub struct Rank {
    /// Tile pairs `(a, b)` this rank matches and evaluates; `a == b` is a
    /// tile paired with itself. Every interacting tile pair is owned by
    /// exactly one rank.
    pub tile_pairs: Vec<(u32, u32)>,
    /// Tiles whose atoms this rank spreads and interpolates.
    pub mesh_tiles: Range<usize>,
    /// Indices into `topology.bonds` this rank evaluates.
    pub bonds: Vec<u32>,
    /// Indices into `topology.angles`.
    pub angles: Vec<u32>,
    /// Indices into `topology.dihedrals`.
    pub dihedrals: Vec<u32>,
    /// Packed correction stream: excluded and 1-4 pairs with their charge
    /// product (scaled for 1-4), zero products dropped. The lists never
    /// change, so the products are formed once, here.
    pub corrections: Vec<(u32, u32, f64)>,
}

/// The machine a `Nodes(n)` plan models: its decomposition geometry, its
/// exchange schedules, and the reusable re-homing buffers.
pub(crate) struct Machine {
    pub(crate) grid: NodeGrid,
    pub(crate) nt: NtAssignment,
    pub(crate) plan: ExchangePlan,
    /// Static long-range communication plan (mesh halos + FFT pencils).
    pub(crate) mesh: MeshExchange,
    /// Prices the metered traffic of trace counters.
    pub(crate) config: MachineConfig,
    groups: Vec<Vec<u32>>,
    fracs: Vec<[f64; 3]>,
    pub(crate) homes: Vec<IVec3>,
    atoms_per_box: Vec<u32>,
}

/// How atoms are binned into tiles — the one step that knows the plan.
enum Binning {
    Cells(CellTiling),
    Homes(Box<Machine>),
}

/// The ranks of a plan, the binning that feeds them, and the atom index it
/// last produced.
pub struct RankSet {
    pub ranks: Vec<Rank>,
    binning: Binning,
    /// Atoms bucketed by tile as of the last [`Self::rebin`].
    buckets: Buckets,
}

/// Raw signed fraction bits of one position.
#[inline]
pub(crate) fn raw_bits(p: &FxVec3) -> [i32; 3] {
    p.0.map(|c| c.raw())
}

impl RankSet {
    /// Node grid the mesh phase's FFT is planned over, so its
    /// pencil-message pattern matches the plan.
    pub fn node_dims(decomposition: Decomposition) -> [usize; 3] {
        match decomposition {
            Decomposition::SingleRank => [1, 1, 1],
            Decomposition::Nodes(n) => near_cubic_torus(n),
        }
    }

    /// Build the plan. `gse` must be planned over [`Self::node_dims`].
    pub fn build(
        sys: &System,
        decomposition: Decomposition,
        policy: &ExclusionPolicy,
        gse: &GseFixed,
    ) -> RankSet {
        let e = sys.pbox.edge();
        let top = &sys.topology;
        let n_atoms = sys.n_atoms();
        // Per plan: the binning, each rank's tile pairs and mesh tiles, and
        // the rank owning each atom's bonded terms and correction pairs.
        type RankTiles = (Vec<(u32, u32)>, Range<usize>);
        let (binning, rank_tiles, owner): (Binning, Vec<RankTiles>, Vec<u32>) = match decomposition
        {
            Decomposition::SingleRank => {
                let tiling = CellTiling::build([e.x, e.y, e.z], sys.params.cutoff + PAIRLIST_SLACK);
                let all = (tiling.pairs().to_vec(), 0..tiling.cell_count());
                (Binning::Cells(tiling), vec![all], vec![0; n_atoms])
            }
            Decomposition::Nodes(nodes) => {
                let machine = Machine::build(sys, nodes, gse);
                // The exactly-once ownership test is taken per *box* pair:
                // every atom in a box shares that box's (canonical) home
                // coordinate, so `node_for_pair` decides for all its pairs
                // at once.
                let (grid, nt) = (&machine.grid, &machine.nt);
                let rank_tiles = (0..grid.node_count())
                    .map(|r| {
                        let node = grid.coord(r);
                        let plate = nt.plate_boxes(node);
                        let mut pairs = Vec::new();
                        for tb in nt.tower_boxes(node) {
                            let ca = grid.index(tb);
                            for pb in &plate {
                                let cb = grid.index(*pb);
                                if nt.node_for_pair(grid.coord(ca), grid.coord(cb)) == node {
                                    pairs.push((ca as u32, cb as u32));
                                }
                            }
                        }
                        (pairs, r..r + 1)
                    })
                    .collect();
                // Each bonded term / correction pair is pinned to the
                // initial home node of its first atom.
                let init_fracs: Vec<[f64; 3]> = sys
                    .positions
                    .iter()
                    .map(|&p| {
                        let w = sys.pbox.wrap(p);
                        [w.x / e.x, w.y / e.y, w.z / e.z]
                    })
                    .collect();
                let owner = assign_homes(grid, &init_fracs, &machine.groups)
                    .into_iter()
                    .map(|h| grid.index(h) as u32)
                    .collect();
                (Binning::Homes(Box::new(machine)), rank_tiles, owner)
            }
        };
        let mut ranks: Vec<Rank> = rank_tiles
            .into_iter()
            .map(|(tile_pairs, mesh_tiles)| Rank {
                tile_pairs,
                mesh_tiles,
                bonds: Vec::new(),
                angles: Vec::new(),
                dihedrals: Vec::new(),
                corrections: Vec::new(),
            })
            .collect();
        let owner_of = |atom: u32| owner[atom as usize] as usize;
        for (t, b) in top.bonds.iter().enumerate() {
            ranks[owner_of(b.i)].bonds.push(t as u32);
        }
        for (t, a) in top.angles.iter().enumerate() {
            ranks[owner_of(a.i)].angles.push(t as u32);
        }
        for (t, d) in top.dihedrals.iter().enumerate() {
            ranks[owner_of(d.i)].dihedrals.push(t as u32);
        }
        // The products are plain f64 multiplications of static inputs, so
        // every plan streams the same words.
        let s14 = 1.0 - policy.elec_14;
        let excluded = top.exclusions.excluded_pairs().iter().map(|&p| (p, 1.0));
        let pairs_14 = top.exclusions.pairs_14().iter().map(|&p| (p, s14));
        for ((i, j), scale) in excluded.chain(pairs_14) {
            let qq = top.charge[i as usize] * top.charge[j as usize] * scale;
            if qq != 0.0 {
                ranks[owner_of(i)].corrections.push((i, j, qq));
            }
        }
        RankSet {
            ranks,
            binning,
            buckets: Buckets::default(),
        }
    }

    pub fn rank_count(&self) -> usize {
        self.ranks.len()
    }

    /// Tiles the binning cuts the system into.
    pub fn tile_count(&self) -> usize {
        match &self.binning {
            Binning::Cells(tiling) => tiling.cell_count(),
            Binning::Homes(m) => m.grid.node_count(),
        }
    }

    /// The modelled machine (`None` under `SingleRank`).
    pub(crate) fn machine(&self) -> Option<&Machine> {
        match &self.binning {
            Binning::Cells(_) => None,
            Binning::Homes(m) => Some(m),
        }
    }

    /// The torus exchange plan of the modelled machine (`None` under
    /// `SingleRank`).
    pub fn plan(&self) -> Option<&ExchangePlan> {
        self.machine().map(|m| &m.plan)
    }

    /// Bin every atom into its tile at `positions` and, when a machine is
    /// modelled, meter one step of its exchange plan into `c`. Subboxes
    /// are a plain shift of the raw fraction bits; home boxes come from
    /// the NT home assignment with constraint groups on their leader
    /// (§3.2.4). Allocation-free in steady state.
    pub fn rebin(&mut self, positions: &[FxVec3], c: &mut ExchangeCounters) {
        let buckets = &mut self.buckets;
        match &mut self.binning {
            Binning::Cells(tiling) => {
                buckets.rebuild(tiling.cell_count(), positions.len(), |i| {
                    tiling.cell_of(raw_bits(&positions[i]))
                });
            }
            Binning::Homes(m) => {
                FixedState::unit_fracs_into(positions, &mut m.fracs);
                assign_homes_into(&m.grid, &m.fracs, &m.groups, &mut m.homes);
                let (grid, homes) = (&m.grid, &m.homes);
                buckets.rebuild(grid.node_count(), homes.len(), |i| grid.index(homes[i]));
                m.atoms_per_box.clear();
                m.atoms_per_box
                    .extend((0..grid.node_count()).map(|b| buckets.count(b) as u32));
                m.plan.record_step(&m.atoms_per_box, c);
            }
        }
    }

    /// Meter one exchange step over the *frozen* binning: between
    /// pair-list rebuilds atoms keep the tiles [`Self::rebin`] last gave
    /// them (deferred migration, paper §3.2.4), so the per-step position
    /// import / force reduction traffic is priced against the unchanged
    /// occupancy without re-homing anything.
    pub fn meter_step(&self, c: &mut ExchangeCounters) {
        if let Some(m) = self.machine() {
            m.plan.record_step(&m.atoms_per_box, c);
        }
    }

    /// Whether [`Self::rebin`] has run for a state of `n_atoms` atoms —
    /// i.e. `tile_members` partitions the atom set.
    #[inline]
    pub fn is_binned(&self, n_atoms: usize) -> bool {
        self.buckets.item_count() == n_atoms
    }

    /// Atoms currently binned in one tile (valid after [`Self::rebin`]).
    #[inline]
    pub fn tile_members(&self, tile: usize) -> &[u32] {
        self.buckets.members(tile)
    }

    /// Atoms of one rank's mesh tiles (valid after [`Self::rebin`]).
    #[inline]
    pub fn mesh_atoms(&self, rank: usize) -> &[u32] {
        self.buckets.span(self.ranks[rank].mesh_tiles.clone())
    }
}

impl Machine {
    fn build(sys: &System, nodes: usize, gse: &GseFixed) -> Machine {
        let config = MachineConfig::with_nodes(nodes);
        let dims = config.torus;
        let grid = NodeGrid::new(dims[0] as i32, dims[1] as i32, dims[2] as i32);
        let e = sys.pbox.edge();
        let box_edges = [
            e.x / dims[0] as f64,
            e.y / dims[1] as f64,
            e.z / dims[2] as f64,
        ];
        let nt = NtAssignment::for_cutoff(grid, sys.params.cutoff + IMPORT_MARGIN, box_edges);
        let h = gse.mesh.spacing();
        let halo = [
            (gse.params.spread_cutoff / h.x).ceil() as usize,
            (gse.params.spread_cutoff / h.y).ceil() as usize,
            (gse.params.spread_cutoff / h.z).ceil() as usize,
        ];
        let st = gse.fft_stats();
        Machine {
            grid,
            plan: ExchangePlan::build(&nt),
            nt,
            mesh: MeshExchange::new(
                gse.mesh.dims,
                gse.node_dims(),
                halo,
                st.messages_total(),
                st.bytes_total(),
            ),
            config,
            groups: sys
                .topology
                .constraint_groups
                .iter()
                .map(|g| g.atoms())
                .collect(),
            fracs: Vec::new(),
            homes: Vec::new(),
            atoms_per_box: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anton_ewald::gse::GseParams;
    use anton_ewald::Mesh;
    use anton_forcefield::water::TIP3P;
    use anton_geometry::Vec3;
    use anton_systems::catalog::build_solvated;
    use anton_systems::spec::RunParams;

    fn water_system(n: usize, seed: u64) -> System {
        anton_systems::water_box("w", 18.0, n, seed, RunParams::paper(7.5, 16)).unwrap()
    }

    fn plan(sys: &System, decomposition: Decomposition) -> RankSet {
        let gse = GseFixed::with_nodes(
            Mesh::new(sys.params.mesh, sys.pbox),
            GseParams::auto(sys.params.cutoff, sys.params.spread_cutoff),
            RankSet::node_dims(decomposition),
        );
        RankSet::build(sys, decomposition, &ExclusionPolicy::amber_like(), &gse)
    }

    /// Under both plans, every bonded term, correction pair and tile pair
    /// is owned by exactly one rank, and the mesh tiles partition the
    /// tiles.
    #[test]
    fn static_work_lists_partition_the_topology() {
        // Protein in water: bonds, angles, dihedrals, exclusions, 1-4s.
        let sys = build_solvated(
            "mini",
            1200,
            23.0,
            RunParams::paper(8.0, 16),
            &TIP3P,
            16,
            0,
            0,
            3,
        );
        let top = &sys.topology;
        assert!(!top.bonds.is_empty() && !top.dihedrals.is_empty());
        let charged_pairs = top
            .exclusions
            .excluded_pairs()
            .iter()
            .chain(top.exclusions.pairs_14())
            .filter(|&&(i, j)| top.charge[i as usize] * top.charge[j as usize] != 0.0)
            .count();
        for (decomposition, n_ranks) in
            [(Decomposition::SingleRank, 1), (Decomposition::Nodes(8), 8)]
        {
            let rs = plan(&sys, decomposition);
            assert_eq!(rs.rank_count(), n_ranks);
            let owned_once = |n_terms: usize, list: fn(&Rank) -> &Vec<u32>| {
                let mut seen = vec![false; n_terms];
                for r in &rs.ranks {
                    for &t in list(r) {
                        assert!(!seen[t as usize], "term {t} owned twice");
                        seen[t as usize] = true;
                    }
                }
                assert!(seen.iter().all(|&s| s), "{decomposition:?}: unowned term");
            };
            owned_once(top.bonds.len(), |r| &r.bonds);
            owned_once(top.angles.len(), |r| &r.angles);
            owned_once(top.dihedrals.len(), |r| &r.dihedrals);
            let corrections: usize = rs.ranks.iter().map(|r| r.corrections.len()).sum();
            assert_eq!(corrections, charged_pairs, "{decomposition:?}");

            let mut pairs: Vec<(u32, u32)> = rs
                .ranks
                .iter()
                .flat_map(|r| r.tile_pairs.iter().map(|&(a, b)| (a.min(b), a.max(b))))
                .collect();
            let listed = pairs.len();
            pairs.sort_unstable();
            pairs.dedup();
            assert_eq!(
                pairs.len(),
                listed,
                "{decomposition:?}: tile pair owned twice"
            );
            assert!(pairs.iter().all(|&(_, b)| (b as usize) < rs.tile_count()));

            let mut next_tile = 0;
            for r in &rs.ranks {
                assert_eq!(r.mesh_tiles.start, next_tile, "{decomposition:?}");
                next_tile = r.mesh_tiles.end;
            }
            assert_eq!(next_tile, rs.tile_count(), "{decomposition:?}");
        }
    }

    /// After a rebin, the tile index covers every atom exactly once — per
    /// tile and through the ranks' mesh slices — and under `Nodes(n)`
    /// constraint groups are co-located and one exchange step is metered.
    #[test]
    fn prepare_rebuilds_a_consistent_home_index() {
        let sys = water_system(100, 5);
        let state =
            FixedState::from_f64(&sys.pbox, &sys.positions, &vec![Vec3::ZERO; sys.n_atoms()]);
        for decomposition in [Decomposition::SingleRank, Decomposition::Nodes(8)] {
            let mut rs = plan(&sys, decomposition);
            let mut c = ExchangeCounters::default();
            assert!(!rs.is_binned(sys.n_atoms()));
            rs.rebin(&state.positions, &mut c);
            assert!(rs.is_binned(sys.n_atoms()));
            let mut by_tile: Vec<u32> = (0..rs.tile_count())
                .flat_map(|t| rs.tile_members(t).iter().copied())
                .collect();
            let by_rank: Vec<u32> = (0..rs.rank_count())
                .flat_map(|r| rs.mesh_atoms(r).iter().copied())
                .collect();
            assert_eq!(by_tile, by_rank, "{decomposition:?}");
            by_tile.sort_unstable();
            assert!(by_tile.iter().copied().eq(0..sys.n_atoms() as u32));
            match rs.machine() {
                None => assert_eq!(c.to_words(), ExchangeCounters::default().to_words()),
                Some(m) => {
                    for g in &sys.topology.constraint_groups {
                        let atoms = g.atoms();
                        for &a in &atoms {
                            assert_eq!(m.homes[a as usize], m.homes[atoms[0] as usize]);
                        }
                    }
                    assert_eq!(c.steps, 1);
                    assert!(c.import_bytes > 0, "8 ranks must exchange positions");
                }
            }
        }
    }
}
