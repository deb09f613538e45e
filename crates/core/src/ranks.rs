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
//! Both plans bin atoms by one rule, a [`CellTiling`]: a tile is the top
//! bits of an atom's raw fraction words. They differ only in the grid:
//!
//! * [`Decomposition::SingleRank`] — tiles are the half-reach subboxes;
//!   one rank owns every listed subbox pair.
//! * [`Decomposition::Nodes`] — tiles are the home boxes of a simulated
//!   node grid, and every atom of a constraint group takes its leader's
//!   box (§3.2.4); rank `r` is node `r` and owns the tower × plate box
//!   pairs the NT assignment gives it (§3.2.1). This plan also carries the
//!   modelled machine: the torus [`ExchangePlan`], the mesh-phase
//!   [`MeshExchange`] and the [`MachineConfig`] pricing them. No machine
//!   is modelled under `SingleRank`, so nothing is metered there.
//!
//! The binning fills the plan's tile pool ([`PosTiles`]), the one
//! atoms-by-tile index: the match stage streams it, the evaluator gathers
//! from it, and a tile's members, a rank's mesh atoms, a box's population
//! and an atom's slot are all read off it.
//!
//! Everything static is fixed from the *initial* configuration; atoms
//! drifting across tile boundaries later changes which rank enumerates
//! which pair but never the quantized contributions being accumulated, so
//! any static split is bitwise equivalent (paper §4). Between pair-list
//! rebuilds the binning stays frozen (deferred migration, §3.2.4);
//! `IMPORT_MARGIN` widens the NT reach to cover both that and the group
//! co-location, while the match stage keeps testing the true cutoff.

use crate::batch::CellTiling;
use crate::forces::{Decomposition, PAIRLIST_SLACK};
use crate::state::FixedState;
use anton_ewald::gse::GseFixed;
use anton_fixpoint::FxVec3;
use anton_forcefield::{ExclusionPolicy, Topology};
use anton_geometry::PosTiles;
use anton_machine::config::near_cubic_torus;
use anton_machine::exchange::ExchangePlan;
use anton_machine::perf::ExchangeCounters;
use anton_machine::{MachineConfig, MeshExchange};
use anton_nt::assign::{NodeGrid, NtAssignment};
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

/// The machine a `Nodes(n)` plan models: its decomposition geometry and
/// its exchange schedules.
pub(crate) struct Machine {
    pub(crate) grid: NodeGrid,
    pub(crate) nt: NtAssignment,
    pub(crate) plan: ExchangePlan,
    /// Static long-range communication plan (mesh halos + FFT pencils).
    pub(crate) mesh: MeshExchange,
    /// Prices the metered traffic of trace counters.
    pub(crate) config: MachineConfig,
}

/// The ranks of a plan, the binning rule that feeds them, and the tile
/// pool it last filled.
pub struct RankSet {
    pub ranks: Vec<Rank>,
    tiling: CellTiling,
    /// The atom whose position bins each atom: its constraint group's
    /// leader under `Nodes(n)`; empty under `SingleRank`, where every atom
    /// bins by its own position.
    leader: Vec<u32>,
    /// The modelled machine (`Nodes(n)` only).
    machine: Option<Box<Machine>>,
    /// Atoms by tile as of the last [`Self::rebin`], with their position,
    /// charge and LJ type records.
    tiles: PosTiles,
}

/// Raw signed fraction bits of one position.
#[inline]
pub(crate) fn raw_bits(p: &FxVec3) -> [i32; 3] {
    p.0.map(|c| c.0)
}

/// Tile of atom `a` at `positions`: the tiling's cell of its binning
/// atom.
#[inline]
fn tile_key(tiling: &CellTiling, leader: &[u32], positions: &[FxVec3], a: usize) -> usize {
    let b = leader.get(a).map_or(a, |&l| l as usize);
    tiling.cell_of(raw_bits(&positions[b]))
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
        // Per plan: the tiling, the binning atoms, each rank's tile pairs
        // and mesh tiles, and the machine.
        type RankTiles = (Vec<(u32, u32)>, Range<usize>);
        let (tiling, leader, rank_tiles, machine): (_, _, Vec<RankTiles>, _) = match decomposition {
            Decomposition::SingleRank => {
                let reach = sys.params.cutoff + PAIRLIST_SLACK;
                let tiling = CellTiling::build([e.x, e.y, e.z], reach);
                let all = (tiling.pairs([e.x, e.y, e.z], reach), 0..tiling.cell_count());
                (tiling, Vec::new(), vec![all], None)
            }
            Decomposition::Nodes(nodes) => {
                let machine = Machine::build(sys, nodes, gse);
                let mut leader: Vec<u32> = (0..n_atoms as u32).collect();
                for g in &top.constraint_groups {
                    if let Some((&first, rest)) = g.atoms().split_first() {
                        for &m in rest {
                            leader[m as usize] = first;
                        }
                    }
                }
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
                let tiling = CellTiling::new(machine.config.torus);
                (tiling, leader, rank_tiles, Some(Box::new(machine)))
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
        // Each bonded term / correction pair is pinned to the rank whose
        // mesh tiles hold its first atom's tile at the initial positions,
        // binned by the same rule as every step.
        let initial: Vec<FxVec3> = sys
            .positions
            .iter()
            .map(|&p| FixedState::quantize_position(&sys.pbox, p))
            .collect();
        let owner_of = |atom: u32| {
            let t = tile_key(&tiling, &leader, &initial, atom as usize);
            ranks.partition_point(|r| r.mesh_tiles.end <= t)
        };
        let owner: Vec<usize> = (0..n_atoms as u32).map(owner_of).collect();
        for (t, b) in top.bonds.iter().enumerate() {
            ranks[owner[b.i as usize]].bonds.push(t as u32);
        }
        for (t, a) in top.angles.iter().enumerate() {
            ranks[owner[a.i as usize]].angles.push(t as u32);
        }
        for (t, d) in top.dihedrals.iter().enumerate() {
            ranks[owner[d.i as usize]].dihedrals.push(t as u32);
        }
        // The products are plain f64 multiplications of static inputs, so
        // every plan streams the same words.
        let s14 = 1.0 - policy.elec_14;
        let excluded = top.exclusions.excluded_pairs().iter().map(|&p| (p, 1.0));
        let pairs_14 = top.exclusions.pairs_14().iter().map(|&p| (p, s14));
        for ((i, j), scale) in excluded.chain(pairs_14) {
            let qq = top.charge[i as usize] * top.charge[j as usize] * scale;
            if qq != 0.0 {
                ranks[owner[i as usize]].corrections.push((i, j, qq));
            }
        }
        RankSet {
            ranks,
            tiling,
            leader,
            machine,
            tiles: PosTiles::default(),
        }
    }

    pub fn rank_count(&self) -> usize {
        self.ranks.len()
    }

    /// Tiles the binning cuts the system into.
    pub fn tile_count(&self) -> usize {
        self.tiling.cell_count()
    }

    /// The modelled machine (`None` under `SingleRank`).
    pub(crate) fn machine(&self) -> Option<&Machine> {
        self.machine.as_deref()
    }

    /// The torus exchange plan of the modelled machine (`None` under
    /// `SingleRank`).
    pub fn plan(&self) -> Option<&ExchangePlan> {
        self.machine().map(|m| &m.plan)
    }

    /// Bin every atom into its tile at `positions`, refill the tile pool
    /// with one stable counting sort on the tiles (ascending atom id
    /// within a tile), and, when a machine is modelled, meter one step of
    /// its exchange plan into `c`. Allocation-free in steady state.
    pub fn rebin(&mut self, top: &Topology, positions: &[FxVec3], c: &mut ExchangeCounters) {
        let (tiling, leader) = (&self.tiling, &self.leader);
        self.tiles.rebuild(
            tiling.cell_count(),
            positions.len(),
            |a| tile_key(tiling, leader, positions, a),
            |a| {
                let a = a as usize;
                (raw_bits(&positions[a]), top.charge[a], top.lj_type[a])
            },
        );
        self.meter_step(c);
    }

    /// Overwrite the pool's positions from `positions`, keeping every atom
    /// in the tile and slot [`Self::rebin`] last gave it.
    pub(crate) fn refresh(&mut self, positions: &[FxVec3]) {
        self.tiles
            .refresh_positions(|a| raw_bits(&positions[a as usize]));
    }

    /// Meter one exchange step over the *frozen* binning: between
    /// pair-list rebuilds atoms keep the tiles [`Self::rebin`] last gave
    /// them (deferred migration, paper §3.2.4), so the per-step position
    /// import / force reduction traffic is priced against the unchanged
    /// occupancy without re-homing anything.
    pub fn meter_step(&self, c: &mut ExchangeCounters) {
        if let Some(m) = self.machine() {
            m.plan.record_step(|b| self.tiles.tile(b).len() as u64, c);
        }
    }

    /// Whether [`Self::rebin`] has run for a state of `n_atoms` atoms —
    /// i.e. the tile pool partitions the atom set.
    #[inline]
    pub fn is_binned(&self, n_atoms: usize) -> bool {
        self.tiles.len() == n_atoms
    }

    /// The tile pool (valid after [`Self::rebin`]).
    #[inline]
    pub(crate) fn tiles(&self) -> &PosTiles {
        &self.tiles
    }

    /// Atoms currently binned in one tile (valid after [`Self::rebin`]).
    #[inline]
    pub fn tile_members(&self, tile: usize) -> &[u32] {
        self.tiles.tile(tile).atom
    }

    /// Atoms of one rank's mesh tiles (valid after [`Self::rebin`]).
    #[inline]
    pub fn mesh_atoms(&self, rank: usize) -> &[u32] {
        let tiles = &self.ranks[rank].mesh_tiles;
        let slots = self.tiles.tile_start(tiles.start)..self.tiles.tile_start(tiles.end);
        &self.tiles.all().atom[slots]
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
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anton_ewald::gse::GseParams;
    use anton_ewald::Mesh;
    use anton_fixpoint::Fx32;
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

    /// The f64 home-box formula the integer shift replaced, kept as its
    /// oracle: `floor(f · d)` of the unit fraction, clamped to the grid.
    fn box_of_frac(dims: [usize; 3], f: [f64; 3]) -> [usize; 3] {
        [0, 1, 2].map(|k| ((f[k] * dims[k] as f64) as i32).clamp(0, dims[k] as i32 - 1) as usize)
    }

    /// On every node grid `near_cubic_torus` gives up to 2¹⁵ nodes, the
    /// home box the plan bins by — the top `log2(d)` bits of the biased
    /// fraction word, packed as `NodeGrid::index` packs the box — is bit
    /// for bit the f64 formula's, at each box boundary ±2, the extremes,
    /// 0, ±1 and 10⁶ random words.
    #[test]
    fn home_box_shift_is_box_of_frac_bitwise() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(35);
        let random: Vec<i32> = (0..1_000_000).map(|_| rng.gen()).collect();
        for k in 0..=15 {
            let dims = near_cubic_torus(1 << k);
            let tiling = CellTiling::new(dims);
            let [dx, dy, dz] = dims.map(|d| d as i32);
            let grid = NodeGrid::new(dx, dy, dz);
            let mut words = vec![i32::MIN, i32::MAX, 0, 1, -1];
            for d in dims {
                for b in 0..d as u64 {
                    let edge = ((b << (32 - d.trailing_zeros())) as u32 ^ 0x8000_0000) as i32;
                    words.extend((-2..=2).map(|o| edge.wrapping_add(o)));
                }
            }
            for &w in words.iter().chain(&random) {
                let p = FxVec3([Fx32(w); 3]);
                let [x, y, z] = box_of_frac(dims, p.to_unit_frac()).map(|c| c as i32);
                let want = grid.index(anton_geometry::IVec3::new(x, y, z));
                assert_eq!(
                    tiling.cell_of(raw_bits(&p)),
                    want,
                    "word {w:#x} on {dims:?}"
                );
            }
        }
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

    /// The tile atom `a` is binned in.
    fn tile_of(rs: &RankSet, a: u32) -> usize {
        (0..rs.tile_count())
            .find(|&t| rs.tile_members(t).contains(&a))
            .expect("binned")
    }

    /// Under `Nodes(n)` a constraint group is binned on its leader's home
    /// box even where a member strayed into the next box; other atoms
    /// keep their own.
    #[test]
    fn groups_are_colocated() {
        let sys = water_system(100, 5);
        let mut state =
            FixedState::from_f64(&sys.pbox, &sys.positions, &vec![Vec3::ZERO; sys.n_atoms()]);
        let (g0, g1) = (
            sys.topology.constraint_groups[0].atoms(),
            sys.topology.constraint_groups[1].atoms(),
        );
        // 4×4×4 home boxes: the leader in box (0,0,0), a member strayed
        // into (1,0,0); the next group's leader in (3,3,3).
        state.positions[g0[0] as usize] = FxVec3::from_unit_frac([0.05, 0.05, 0.05]);
        state.positions[g0[1] as usize] = FxVec3::from_unit_frac([0.30, 0.05, 0.05]);
        state.positions[g1[0] as usize] = FxVec3::from_unit_frac([0.80, 0.80, 0.80]);
        let mut rs = plan(&sys, Decomposition::Nodes(64));
        rs.rebin(
            &sys.topology,
            &state.positions,
            &mut ExchangeCounters::default(),
        );
        assert_eq!(tile_of(&rs, g0[0]), 0);
        assert_eq!(tile_of(&rs, g0[1]), 0);
        assert_eq!(tile_of(&rs, g1[0]), 63);
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
            rs.rebin(&sys.topology, &state.positions, &mut c);
            assert!(rs.is_binned(sys.n_atoms()));
            let mut by_tile: Vec<u32> = (0..rs.tile_count())
                .flat_map(|t| rs.tile_members(t).iter().copied())
                .collect();
            for (slot, &a) in by_tile.iter().enumerate() {
                assert_eq!(rs.tiles().slot_of(a) as usize, slot, "{decomposition:?}");
            }
            let by_rank: Vec<u32> = (0..rs.rank_count())
                .flat_map(|r| rs.mesh_atoms(r).iter().copied())
                .collect();
            assert_eq!(by_tile, by_rank, "{decomposition:?}");
            by_tile.sort_unstable();
            assert!(by_tile.iter().copied().eq(0..sys.n_atoms() as u32));
            match rs.machine() {
                None => assert_eq!(c.to_words(), ExchangeCounters::default().to_words()),
                Some(_) => {
                    for g in &sys.topology.constraint_groups {
                        let atoms = g.atoms();
                        for &a in &atoms {
                            assert_eq!(tile_of(&rs, a), tile_of(&rs, atoms[0]));
                        }
                    }
                    assert_eq!(c.steps, 1);
                    assert!(c.import_bytes > 0, "8 ranks must exchange positions");
                }
            }
        }
    }
}
