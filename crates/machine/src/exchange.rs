//! Static torus exchange plan for the simulated rank architecture.
//!
//! The NT method fixes, at decomposition time, which boxes every node
//! imports (its tower and plate, §3.2.1) — so the communication pattern of
//! a time step is a *static plan*: the same directed links carry position
//! imports forward and force reductions backward on every step. This module
//! builds that plan from an [`NtAssignment`] and the torus geometry, and
//! meters it into [`ExchangeCounters`](crate::perf::ExchangeCounters) so
//! bench binaries can report modeled communication volume alongside
//! measured step time.

use crate::perf::ExchangeCounters;
use anton_geometry::IVec3;
use anton_nt::assign::{NodeGrid, NtAssignment};

/// Wire bytes per imported atom position (3 × 32-bit fixed-point words).
pub const POS_BYTES: u64 = 12;
/// Wire bytes per reduced atom force (3 × 64-bit raw accumulator words).
pub const FORCE_BYTES: u64 = 24;
/// Wire bytes per exchanged mesh point (one 64-bit fixed-point charge or
/// potential accumulator word).
pub const MESH_BYTES: u64 = 8;

/// One directed import link: rank `dst` needs the atoms of the box owned by
/// rank `src`, a dimension-order-routed `hops` away on the torus. The force
/// reduction traverses the same link in reverse.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Link {
    pub src: u32,
    pub dst: u32,
    pub hops: u32,
}

/// The static per-step exchange schedule of a node grid under the NT
/// assignment: for every rank, the links over which it imports remote boxes
/// (tower ∪ plate, home box excluded).
#[derive(Clone, Debug)]
pub struct ExchangePlan {
    grid: NodeGrid,
    /// `imports[rank]` — links with `dst == rank`, in deterministic
    /// (tower-then-plate enumeration) order.
    imports: Vec<Vec<Link>>,
}

impl ExchangePlan {
    /// Build the plan for an NT assignment. The torus dimensions are the
    /// node-grid dimensions (one home box per node).
    pub fn build(nt: &NtAssignment) -> ExchangePlan {
        let grid = nt.grid;
        let mut imports = Vec::with_capacity(grid.node_count());
        for rank in 0..grid.node_count() {
            let node = grid.coord(rank);
            let home = node.rem_euclid(grid.dims);
            let mut links: Vec<Link> = Vec::new();
            let mut push = |b: IVec3| {
                if b == home {
                    return;
                }
                let src = grid.index(b) as u32;
                if links.iter().any(|l| l.src == src) {
                    return;
                }
                links.push(Link {
                    src,
                    dst: rank as u32,
                    hops: grid.hops(home, b),
                });
            };
            for b in nt.tower_boxes(node) {
                push(b);
            }
            for b in nt.plate_boxes(node) {
                push(b);
            }
            imports.push(links);
        }
        ExchangePlan { grid, imports }
    }

    pub fn grid(&self) -> NodeGrid {
        self.grid
    }

    pub fn rank_count(&self) -> usize {
        self.imports.len()
    }

    /// Import links terminating at `rank`.
    pub fn imports(&self, rank: usize) -> &[Link] {
        &self.imports[rank]
    }

    /// Total directed import links across the machine (the reduction adds
    /// the same number again, reversed).
    pub fn total_links(&self) -> usize {
        self.imports.iter().map(Vec::len).sum()
    }

    /// Links into the busiest rank — the import-phase critical path.
    pub fn max_links_per_rank(&self) -> usize {
        self.imports.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Mean torus hop count over all import links.
    pub fn mean_hops(&self) -> f64 {
        let (n, h) = self
            .imports
            .iter()
            .flatten()
            .fold((0u64, 0u64), |acc, l| (acc.0 + 1, acc.1 + l.hops as u64));
        if n == 0 {
            0.0
        } else {
            h as f64 / n as f64
        }
    }

    /// Meter one step of the plan into `c`: every import link carries its
    /// source box's atoms forward as positions, and the reduction returns
    /// forces for the same atoms over the same links in reverse.
    /// `atoms_in_box(b)` is the current population of box `b`.
    pub fn record_step(&self, atoms_in_box: impl Fn(usize) -> u64, c: &mut ExchangeCounters) {
        c.steps += 1;
        for links in &self.imports {
            for l in links {
                let atoms = atoms_in_box(l.src as usize);
                let pos = atoms * POS_BYTES;
                let force = atoms * FORCE_BYTES;
                c.import_messages += 1;
                c.import_atoms += atoms;
                c.import_bytes += pos;
                c.import_hop_bytes += pos * l.hops as u64;
                c.reduce_messages += 1;
                c.reduce_bytes += force;
                c.reduce_hop_bytes += force * l.hops as u64;
            }
        }
    }
}

/// Static long-range (reciprocal) communication plan: the mesh-halo
/// exchange of the spread/interpolate phases plus the pencil gather/scatter
/// traffic of the distributed FFT (paper §3.2.2).
///
/// Each node owns the mesh slab `mesh/nodes` covering its home box. An
/// atom's spreading stencil reaches up to `halo_cells` mesh cells beyond
/// the slab in each direction, so the slab owner must exchange the dilated
/// shell with every node whose slab the shell overlaps — once outbound
/// after spreading (charge merge) and once inbound before interpolation
/// (potential halo). The FFT message counts are input-independent and come
/// precomputed from the planned transform's
/// [`CommStats`](anton_fft::CommStats).
///
/// Like [`ExchangePlan`], the pattern is static: population shifts change
/// nothing, so one plan meters every long-range step.
#[derive(Clone, Copy, Debug)]
pub struct MeshExchange {
    ranks: u64,
    /// Mesh points in one rank's halo shell (dilated slab minus slab).
    halo_points_per_rank: u64,
    /// Distinct remote slab owners a rank's halo shell overlaps.
    halo_neighbors_per_rank: u64,
    /// Pencil messages of ONE 3D transform (whole machine).
    fft_messages_per_transform: u64,
    /// Pencil bytes of ONE 3D transform (whole machine).
    fft_bytes_per_transform: u64,
}

impl MeshExchange {
    /// Plan for a `mesh` distributed over `nodes` (each axis divides), with
    /// a spreading stencil reaching `halo_cells[a]` cells beyond the slab
    /// per direction, and the FFT's per-transform message/byte totals.
    pub fn new(
        mesh: [usize; 3],
        nodes: [usize; 3],
        halo_cells: [usize; 3],
        fft_messages_per_transform: u64,
        fft_bytes_per_transform: u64,
    ) -> MeshExchange {
        let mut slab = [0u64; 3];
        let mut dilated = [0u64; 3];
        let mut cover = [0u64; 3];
        for a in 0..3 {
            assert!(nodes[a] > 0 && mesh[a].is_multiple_of(nodes[a]), "axis {a}");
            let s = (mesh[a] / nodes[a]) as i64;
            let h = halo_cells[a] as i64;
            slab[a] = s as u64;
            dilated[a] = ((s + 2 * h) as u64).min(mesh[a] as u64);
            // Slabs overlapped by [-h, s+h): integer interval of slab
            // indices, clamped to the node count (wrap-around dedup).
            let lo = (-h).div_euclid(s);
            let hi = (s + h - 1).div_euclid(s);
            cover[a] = ((hi - lo + 1) as u64).min(nodes[a] as u64);
        }
        let ranks = (nodes[0] * nodes[1] * nodes[2]) as u64;
        let halo_points_per_rank =
            dilated[0] * dilated[1] * dilated[2] - slab[0] * slab[1] * slab[2];
        let halo_neighbors_per_rank = cover[0] * cover[1] * cover[2] - 1;
        MeshExchange {
            ranks,
            halo_points_per_rank,
            halo_neighbors_per_rank,
            fft_messages_per_transform,
            fft_bytes_per_transform,
        }
    }

    pub fn halo_points_per_rank(&self) -> u64 {
        self.halo_points_per_rank
    }

    pub fn halo_neighbors_per_rank(&self) -> u64 {
        self.halo_neighbors_per_rank
    }

    /// Meter one long-range step into `c`: charge-halo merge after
    /// spreading + potential-halo broadcast before interpolation (factor
    /// two), and the forward + inverse FFT (factor two).
    pub fn record_lr_step(&self, c: &mut ExchangeCounters) {
        let [halo_msgs, halo_bytes, fft_msgs, fft_bytes] = self.per_lr_step();
        c.lr_steps += 1;
        c.mesh_halo_messages += halo_msgs;
        c.mesh_halo_bytes += halo_bytes;
        c.fft_messages += fft_msgs;
        c.fft_bytes += fft_bytes;
    }

    /// The exact per-step increments of [`Self::record_lr_step`]:
    /// `[mesh_halo_messages, mesh_halo_bytes, fft_messages, fft_bytes]`
    /// added per long-range step. The plan is static, so the cumulative
    /// counters are *linear* in `lr_steps` with exactly these rates — the
    /// closed-form identity the `anton-analysis` verifier checks
    /// [`ExchangeCounters`] against every sampled cycle.
    pub fn per_lr_step(&self) -> [u64; 4] {
        [
            2 * self.ranks * self.halo_neighbors_per_rank,
            2 * self.ranks * self.halo_points_per_rank * MESH_BYTES,
            2 * self.fft_messages_per_transform,
            2 * self.fft_bytes_per_transform,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(g: i32, zr: i32, xyr: i32) -> ExchangePlan {
        ExchangePlan::build(&NtAssignment::new(NodeGrid::cubic(g), zr, xyr))
    }

    #[test]
    fn two_cubed_grid_has_four_import_links_per_rank() {
        // On a 2×2×2 grid with zr = xyr = 1, ±1 wraps to the same box:
        // 1 unique tower import + 3 unique plate imports.
        let p = plan(2, 1, 1);
        for r in 0..p.rank_count() {
            assert_eq!(p.imports(r).len(), 4, "rank {r}");
            for l in p.imports(r) {
                assert_eq!(l.dst as usize, r);
                assert_ne!(l.src as usize, r, "home box is never imported");
                assert!(l.hops >= 1 && l.hops <= 3);
            }
        }
    }

    #[test]
    fn link_counts_match_import_counts() {
        let nt = NtAssignment::new(NodeGrid::cubic(8), 2, 2);
        let p = ExchangePlan::build(&nt);
        for r in 0..p.rank_count() {
            let (t, pl) = nt.import_counts(p.grid().coord(r));
            assert_eq!(p.imports(r).len(), t + pl, "rank {r}");
        }
        assert_eq!(p.total_links(), 512 * (4 + 12));
        assert_eq!(p.max_links_per_rank(), 16);
    }

    #[test]
    fn hops_are_bounded_by_the_diameter() {
        let p = plan(4, 2, 2);
        // The diameter of the 4×4×4 torus: half of each ring.
        let diameter = 3 * 2;
        for r in 0..p.rank_count() {
            for l in p.imports(r) {
                assert!(l.hops >= 1 && l.hops <= diameter);
            }
        }
        assert!(p.mean_hops() >= 1.0);
    }

    #[test]
    fn record_step_meters_positions_and_forces() {
        let p = plan(2, 1, 1);
        let mut c = ExchangeCounters::default();
        p.record_step(|_| 10, &mut c);
        p.record_step(|_| 10, &mut c);
        assert_eq!(c.steps, 2);
        let links = p.total_links() as u64;
        assert_eq!(c.import_messages, 2 * links);
        assert_eq!(c.reduce_messages, 2 * links);
        assert_eq!(c.import_bytes, 2 * links * 10 * POS_BYTES);
        assert_eq!(c.reduce_bytes, 2 * links * 10 * FORCE_BYTES);
        // Hop-weighted volume strictly exceeds plain volume: no 0-hop links.
        assert!(c.import_hop_bytes >= c.import_bytes);
    }

    #[test]
    fn single_rank_plan_is_empty() {
        let p = plan(1, 1, 1);
        assert_eq!(p.rank_count(), 1);
        assert_eq!(p.total_links(), 0);
        let mut c = ExchangeCounters::default();
        p.record_step(|_| 42, &mut c);
        assert_eq!(c.import_bytes, 0);
    }

    #[test]
    fn mesh_exchange_counts_halo_shell_and_neighbors() {
        // 16³ mesh over 2×2×2 nodes with a 5-cell stencil reach: the slab
        // is 8³, the dilated box (8+10 clamped to 16)³ = 16³, so the halo
        // shell is 16³ − 8³ = 3584 points and covers both slabs per axis —
        // all 7 other nodes are neighbors.
        let me = MeshExchange::new([16; 3], [2; 3], [5; 3], 100, 800);
        assert_eq!(me.halo_points_per_rank(), 16 * 16 * 16 - 8 * 8 * 8);
        assert_eq!(me.halo_neighbors_per_rank(), 7);
        let mut c = ExchangeCounters::default();
        me.record_lr_step(&mut c);
        assert_eq!(c.lr_steps, 1);
        assert_eq!(c.mesh_halo_messages, 2 * 8 * 7);
        assert_eq!(c.mesh_halo_bytes, 2 * 8 * 3584 * MESH_BYTES);
        // Forward + inverse transform.
        assert_eq!(c.fft_messages, 200);
        assert_eq!(c.fft_bytes, 1600);
    }

    #[test]
    fn single_node_mesh_exchange_is_free() {
        let me = MeshExchange::new([16; 3], [1; 3], [5; 3], 0, 0);
        assert_eq!(me.halo_points_per_rank(), 0);
        assert_eq!(me.halo_neighbors_per_rank(), 0);
        let mut c = ExchangeCounters::default();
        me.record_lr_step(&mut c);
        me.record_lr_step(&mut c);
        assert_eq!(c.lr_steps, 2);
        assert_eq!(c.mesh_halo_bytes, 0);
        assert_eq!(c.fft_messages, 0);
    }

    #[test]
    fn mesh_halo_traffic_feeds_modeled_comm_time() {
        use crate::config::MachineConfig;
        let me = MeshExchange::new([16; 3], [2; 3], [5; 3], 100, 800);
        let p = plan(2, 1, 1);
        let mut with_mesh = ExchangeCounters::default();
        p.record_step(|_| 10, &mut with_mesh);
        let mut without_mesh = with_mesh;
        me.record_lr_step(&mut with_mesh);
        without_mesh.lr_steps += 1;
        let cfg = MachineConfig::anton_512();
        assert!(
            with_mesh.modeled_step_comm_us(&cfg, 8) > without_mesh.modeled_step_comm_us(&cfg, 8),
            "mesh traffic must increase modeled comm time"
        );
    }
}
