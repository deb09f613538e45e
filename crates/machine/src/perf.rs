//! Calibrated performance model of an Anton time step.
//!
//! Structure (matching the execution described in §3.2 and Table 2):
//!
//! ```text
//!   position import/multicast
//!   HTIS chain: range-limited  →  charge spreading  →  [FFT on flexible]
//!               →  force interpolation
//!   flexible chain (concurrent): bonded terms, correction forces
//!   integration (+ constraints)
//! ```
//!
//! Per-phase times come from first-principles throughput numbers (PPIP and
//! match-unit rates, link bandwidth, distributed-FFT message counts, GC
//! costs) plus a small set of calibration constants fit against the Anton
//! (13 Å, 32³) column of Table 2 and the measured 16.4 µs/day DHFR rate
//! (see DESIGN.md §6). The (9 Å, 64³) column, Figure 5, Table 4 and the
//! 128-node partition numbers are *predictions*.

use crate::config::MachineConfig;
use crate::flex::FlexModel;
use anton_nt::regions::ImportRegions;

/// Workload statistics of a chemical system + run parameters.
#[derive(Clone, Copy, Debug)]
pub struct SystemStats {
    pub n_atoms: usize,
    pub box_edge: [f64; 3],
    pub cutoff: f64,
    pub spread_cutoff: f64,
    pub mesh: [usize; 3],
    pub dt_fs: f64,
    pub longrange_every: u32,
    /// Excluded + 1-4 pairs (correction-pipeline items).
    pub n_correction_pairs: usize,
    /// Bond + angle + dihedral terms.
    pub n_bonded_terms: usize,
    /// Atoms belonging to the solute (bonded terms concentrate there).
    pub protein_atoms: usize,
    /// Scalar distance constraints.
    pub n_constraint_pairs: usize,
}

impl SystemStats {
    pub fn density(&self) -> f64 {
        self.n_atoms as f64 / self.volume()
    }

    pub fn volume(&self) -> f64 {
        self.box_edge[0] * self.box_edge[1] * self.box_edge[2]
    }

    /// Bonded terms on the busiest node: the solute occupies only the nodes
    /// its globule overlaps, concentrating bonded work (the reason the
    /// paper's water-only systems run 3–24% faster).
    pub fn hot_node_bonded_terms(&self, nodes: usize) -> f64 {
        if self.n_bonded_terms == 0 {
            return 0.0;
        }
        // Solute volume at typical packing, clamped to the box.
        let protein_volume = (self.protein_atoms as f64 / 0.047).min(self.volume());
        let node_volume = self.volume() / nodes as f64;
        let protein_nodes = (protein_volume / node_volume).clamp(1.0, nodes as f64);
        self.n_bonded_terms as f64 / protein_nodes
    }
}

/// Accumulated communication volume of a simulated run, metered by
/// [`ExchangePlan::record_step`](crate::exchange::ExchangePlan::record_step)
/// (position imports forward over the torus, force reductions backward) and
/// [`MeshExchange::record_lr_step`](crate::exchange::MeshExchange::record_lr_step)
/// (charge-halo exchange plus the distributed FFT's pencil messages on
/// long-range steps). Hop-weighted byte counts capture link occupancy under
/// dimension-order routing (a 3-hop message consumes three links' bandwidth).
#[derive(Clone, Copy, Debug, Default)]
pub struct ExchangeCounters {
    pub steps: u64,
    pub import_messages: u64,
    pub import_atoms: u64,
    pub import_bytes: u64,
    pub import_hop_bytes: u64,
    pub reduce_messages: u64,
    pub reduce_bytes: u64,
    pub reduce_hop_bytes: u64,
    /// Steps that evaluated the long-range (reciprocal) phase.
    pub lr_steps: u64,
    /// Pencil gather/scatter messages of the distributed FFT (both
    /// transforms of a long-range step).
    pub fft_messages: u64,
    pub fft_bytes: u64,
    /// Charge-spreading / force-interpolation halo exchange between mesh
    /// slab owners.
    pub mesh_halo_messages: u64,
    pub mesh_halo_bytes: u64,
    /// Match batches dispatched into the PPIP evaluator (8-wide bundles,
    /// including partially-filled tails).
    pub match_batches: u64,
    /// Pairs that survived the exact cutoff test and filled a batch lane.
    pub match_pairs: u64,
    /// Candidate pairs streamed through the match stage (tile-pair lanes
    /// examined, before the cutoff mask). Only rebuild steps stream
    /// candidates; reuse steps replay the cached batches.
    pub match_candidates: u64,
    /// Range-limited evaluations that rebuilt the match cache (tiling,
    /// tile SoA, pair matching from scratch).
    pub rebuild_steps: u64,
    /// Range-limited evaluations that reused the cached batch structure,
    /// refreshing only tile positions.
    pub reuse_steps: u64,
}

impl ExchangeCounters {
    /// Mean torus hops per byte moved (import + reduction; mesh traffic is
    /// nearest-neighbor-dominated and excluded from the hop estimate).
    pub fn mean_hops(&self) -> f64 {
        let bytes = self.import_bytes + self.reduce_bytes;
        if bytes == 0 {
            return 0.0;
        }
        (self.import_hop_bytes + self.reduce_hop_bytes) as f64 / bytes as f64
    }

    /// Total bytes moved per step across all three force phases.
    fn total_bytes(&self) -> u64 {
        self.import_bytes + self.reduce_bytes + self.fft_bytes + self.mesh_halo_bytes
    }

    /// Total messages across all three force phases.
    fn total_messages(&self) -> u64 {
        self.import_messages + self.reduce_messages + self.fft_messages + self.mesh_halo_messages
    }

    /// Bytes injected per rank per step (all phases).
    pub fn per_rank_step_bytes(&self, n_ranks: usize) -> f64 {
        if self.steps == 0 || n_ranks == 0 {
            return 0.0;
        }
        self.total_bytes() as f64 / self.steps as f64 / n_ranks as f64
    }

    /// FFT pencil messages per rank per long-range step.
    pub fn fft_messages_per_rank_lr_step(&self, n_ranks: usize) -> f64 {
        if self.lr_steps == 0 || n_ranks == 0 {
            return 0.0;
        }
        self.fft_messages as f64 / self.lr_steps as f64 / n_ranks as f64
    }

    /// FFT pencil bytes per rank per long-range step.
    pub fn fft_bytes_per_rank_lr_step(&self, n_ranks: usize) -> f64 {
        if self.lr_steps == 0 || n_ranks == 0 {
            return 0.0;
        }
        self.fft_bytes as f64 / self.lr_steps as f64 / n_ranks as f64
    }

    /// Mesh-halo bytes per rank per long-range step.
    pub fn mesh_halo_bytes_per_rank_lr_step(&self, n_ranks: usize) -> f64 {
        if self.lr_steps == 0 || n_ranks == 0 {
            return 0.0;
        }
        self.mesh_halo_bytes as f64 / self.lr_steps as f64 / n_ranks as f64
    }

    /// Number of u64 words in the [`Self::to_words`] serialization.
    pub const WORDS: usize = 18;

    /// Serialize to a fixed word array for the checkpoint payload. The
    /// word order is the struct declaration order and is part of the
    /// `anton-ckpt` format: changing it (or [`Self::WORDS`]) requires a
    /// format version bump.
    pub fn to_words(&self) -> [u64; Self::WORDS] {
        [
            self.steps,
            self.import_messages,
            self.import_atoms,
            self.import_bytes,
            self.import_hop_bytes,
            self.reduce_messages,
            self.reduce_bytes,
            self.reduce_hop_bytes,
            self.lr_steps,
            self.fft_messages,
            self.fft_bytes,
            self.mesh_halo_messages,
            self.mesh_halo_bytes,
            self.match_batches,
            self.match_pairs,
            self.match_candidates,
            self.rebuild_steps,
            self.reuse_steps,
        ]
    }

    /// Inverse of [`Self::to_words`]; `None` when `words` has the wrong
    /// arity (a snapshot from an incompatible layout).
    pub fn from_words(words: &[u64]) -> Option<ExchangeCounters> {
        let w: &[u64; Self::WORDS] = words.try_into().ok()?;
        Some(ExchangeCounters {
            steps: w[0],
            import_messages: w[1],
            import_atoms: w[2],
            import_bytes: w[3],
            import_hop_bytes: w[4],
            reduce_messages: w[5],
            reduce_bytes: w[6],
            reduce_hop_bytes: w[7],
            lr_steps: w[8],
            fft_messages: w[9],
            fft_bytes: w[10],
            mesh_halo_messages: w[11],
            mesh_halo_bytes: w[12],
            match_batches: w[13],
            match_pairs: w[14],
            match_candidates: w[15],
            rebuild_steps: w[16],
            reuse_steps: w[17],
        })
    }

    /// Field-wise difference `self − earlier`: the traffic metered between
    /// two snapshots of the same counter set, for attributing a burst of
    /// communication to the pipeline phase that emitted it. Saturating, so
    /// mismatched snapshots degrade to zero rather than wrapping.
    pub fn delta_since(&self, earlier: &ExchangeCounters) -> ExchangeCounters {
        ExchangeCounters {
            steps: self.steps.saturating_sub(earlier.steps),
            import_messages: self.import_messages.saturating_sub(earlier.import_messages),
            import_atoms: self.import_atoms.saturating_sub(earlier.import_atoms),
            import_bytes: self.import_bytes.saturating_sub(earlier.import_bytes),
            import_hop_bytes: self
                .import_hop_bytes
                .saturating_sub(earlier.import_hop_bytes),
            reduce_messages: self.reduce_messages.saturating_sub(earlier.reduce_messages),
            reduce_bytes: self.reduce_bytes.saturating_sub(earlier.reduce_bytes),
            reduce_hop_bytes: self
                .reduce_hop_bytes
                .saturating_sub(earlier.reduce_hop_bytes),
            lr_steps: self.lr_steps.saturating_sub(earlier.lr_steps),
            fft_messages: self.fft_messages.saturating_sub(earlier.fft_messages),
            fft_bytes: self.fft_bytes.saturating_sub(earlier.fft_bytes),
            mesh_halo_messages: self
                .mesh_halo_messages
                .saturating_sub(earlier.mesh_halo_messages),
            mesh_halo_bytes: self.mesh_halo_bytes.saturating_sub(earlier.mesh_halo_bytes),
            match_batches: self.match_batches.saturating_sub(earlier.match_batches),
            match_pairs: self.match_pairs.saturating_sub(earlier.match_pairs),
            match_candidates: self
                .match_candidates
                .saturating_sub(earlier.match_candidates),
            rebuild_steps: self.rebuild_steps.saturating_sub(earlier.rebuild_steps),
            reuse_steps: self.reuse_steps.saturating_sub(earlier.reuse_steps),
        }
    }

    /// Modeled per-step communication time (µs) on `cfg`'s links: per-rank
    /// serialization through the node's channels, wire latency of the mean
    /// hop distance, and per-message overhead. Covers all three force
    /// phases (range-limited import/reduce, mesh halo, FFT pencils).
    pub fn modeled_step_comm_us(&self, cfg: &MachineConfig, n_ranks: usize) -> f64 {
        if self.steps == 0 || n_ranks == 0 {
            return 0.0;
        }
        let msgs_per_rank_step = self.total_messages() as f64 / self.steps as f64 / n_ranks as f64;
        let wire_s = self.per_rank_step_bytes(n_ranks) / cfg.node_bandwidth_bytes()
            + self.mean_hops() * cfg.hop_latency_s
            + msgs_per_rank_step * cfg.message_overhead_s;
        wire_s * 1e6
    }
}

/// Modeled wire time (µs) of one traffic burst on `cfg`'s links: `bytes`
/// over `messages` messages spread across `n_ranks` injecting ranks, with
/// `hop_bytes` the hop-weighted volume (pass `bytes` for nearest-neighbor
/// traffic like mesh halos and FFT pencil segments). The per-burst analogue
/// of [`ExchangeCounters::modeled_step_comm_us`], used by the tracing layer
/// to attribute modeled link time to the emitting pipeline phase.
pub fn modeled_burst_us(
    cfg: &MachineConfig,
    n_ranks: usize,
    messages: u64,
    bytes: u64,
    hop_bytes: u64,
) -> f64 {
    if n_ranks == 0 || (messages == 0 && bytes == 0) {
        return 0.0;
    }
    let mean_hops = if bytes == 0 {
        0.0
    } else {
        hop_bytes as f64 / bytes as f64
    };
    let wire_s = bytes as f64 / n_ranks as f64 / cfg.node_bandwidth_bytes()
        + mean_hops * cfg.hop_latency_s
        + messages as f64 / n_ranks as f64 * cfg.message_overhead_s;
    wire_s * 1e6
}

/// Calibration constants (see module docs).
#[derive(Clone, Copy, Debug)]
pub struct Calibration {
    /// Load-imbalance coefficient: factor = 1 + c/√(atoms per node).
    pub imbalance_coeff: f64,
    /// HTIS cycles of overhead per subbox round (pipeline fill/drain).
    pub rl_round_overhead_cycles: f64,
    /// Fixed per-phase overhead of the mesh (spread + interpolate) phase (µs).
    pub mesh_fixed_us: f64,
    /// Distributed-FFT per-transform fixed cost (sync + wire latency, µs).
    pub fft_fixed_us: f64,
    /// Distributed-FFT cost per message (µs).
    pub fft_per_msg_us: f64,
    /// Distributed-FFT compute cost per local mesh point (µs).
    pub fft_per_point_us: f64,
    /// Correction-phase fixed cost (pair-list delivery, µs).
    pub corr_fixed_us: f64,
    /// Integration fixed cost (µs).
    pub integ_fixed_us: f64,
    /// Position import fixed cost (µs).
    pub import_fixed_us: f64,
    /// Per-step costs outside Table 2's rows: host interaction, migration
    /// amortization, global synchronization (µs).
    pub step_fixed_us: f64,
}

impl Calibration {
    /// Constants calibrated against the Anton (13 Å, 32³) DHFR column of
    /// Table 2 and the 16.4 µs/day DHFR rate.
    pub fn paper() -> Calibration {
        Calibration {
            imbalance_coeff: 2.0,
            rl_round_overhead_cycles: 40.0,
            mesh_fixed_us: 0.5,
            fft_fixed_us: 2.36,
            fft_per_msg_us: 0.020,
            fft_per_point_us: 0.0064,
            corr_fixed_us: 2.3,
            integ_fixed_us: 0.2,
            import_fixed_us: 0.5,
            step_fixed_us: 2.3,
        }
    }
}

/// Per-task and per-step times (µs), the Table 2 quantities.
#[derive(Clone, Copy, Debug, Default)]
pub struct StepBreakdown {
    pub import_us: f64,
    pub range_limited_us: f64,
    pub mesh_us: f64,
    pub fft_us: f64,
    pub correction_us: f64,
    pub bonded_us: f64,
    pub integration_us: f64,
    /// Wall time of a step evaluating long-range forces.
    pub lr_step_us: f64,
    /// Wall time of a range-limited-only step.
    pub nonlr_step_us: f64,
    /// Average over the RESPA cycle plus fixed per-step costs.
    pub avg_step_us: f64,
    /// Simulated µs per wall-clock day.
    pub us_per_day: f64,
    /// Subbox subdivision the model selected for the HTIS.
    pub chosen_subdiv: usize,
}

/// The calibrated machine performance model.
#[derive(Clone, Copy, Debug)]
pub struct PerfModel {
    pub cfg: MachineConfig,
    pub cal: Calibration,
    pub flex: FlexModel,
}

impl PerfModel {
    pub fn new(cfg: MachineConfig) -> PerfModel {
        PerfModel {
            cfg,
            cal: Calibration::paper(),
            flex: FlexModel::default(),
        }
    }

    pub fn anton_512() -> PerfModel {
        PerfModel::new(MachineConfig::anton_512())
    }

    /// Full step-time breakdown for a system.
    pub fn breakdown(&self, s: &SystemStats) -> StepBreakdown {
        let nodes = self.cfg.nodes as f64;
        let rho = s.density();
        let atoms_per_node = s.n_atoms as f64 / nodes;
        let imb = 1.0 + self.cal.imbalance_coeff / atoms_per_node.max(1.0).sqrt();
        let node_edge = [
            s.box_edge[0] / self.cfg.torus[0] as f64,
            s.box_edge[1] / self.cfg.torus[1] as f64,
            s.box_edge[2] / self.cfg.torus[2] as f64,
        ];
        // Geometric-mean node box edge for the region arithmetic.
        let c_node = (node_edge[0] * node_edge[1] * node_edge[2]).cbrt();
        let rc = s.cutoff;

        // --- Range-limited phase: pick the subbox division minimizing time.
        let necessary =
            0.5 * rho * atoms_per_node * (4.0 / 3.0) * std::f64::consts::PI * rc.powi(3);
        let mut best = (f64::INFINITY, 1usize);
        for &sub in &[1usize, 2, 4] {
            let csub = c_node / sub as f64;
            let rounds = (sub * sub * sub) as f64;
            let tower = rho * csub * csub * (csub + 2.0 * rc);
            let plate =
                rho * csub * (csub * csub + 2.0 * csub * rc + std::f64::consts::PI * rc * rc / 2.0);
            let considered = rounds * tower * plate;
            let interact = (considered / (self.cfg.ppips * self.cfg.match_units_per_ppip) as f64)
                .max(necessary / self.cfg.ppips as f64);
            let stream = 2.0 * rounds * (tower + plate);
            let cycles = interact * imb + stream + rounds * self.cal.rl_round_overhead_cycles;
            let t = cycles / self.cfg.clock_ppip_hz * 1e6;
            if t < best.0 {
                best = (t, sub);
            }
        }
        let (range_limited_us, chosen_subdiv) = best;

        // --- Position import (NT import region with migration margin).
        let margin = 1.5;
        let reg = ImportRegions::new(c_node, rc + margin);
        let import_atoms = rho * reg.nt_total_volume();
        let import_us =
            self.cfg.transfer_time_s(import_atoms * 12.0, 2) * 1e6 + self.cal.import_fixed_us;

        // --- Mesh phase (charge spreading + force interpolation on HTIS).
        let vc = s.volume() / (s.mesh[0] * s.mesh[1] * s.mesh[2]) as f64;
        let pts_per_atom = (4.0 / 3.0) * std::f64::consts::PI * s.spread_cutoff.powi(3) / vc;
        let mesh_inter = 2.0 * atoms_per_node * pts_per_atom;
        let mesh_us = mesh_inter / self.cfg.ppip_throughput() * imb * 1e6 + self.cal.mesh_fixed_us;

        // --- FFT (forward + inverse), message counts per §3.2.2.
        let fft_us = 2.0 * self.fft_one_transform_us(s.mesh);

        // --- Correction pipeline.
        let corr_pairs = s.n_correction_pairs as f64 / nodes;
        let correction_us = self
            .flex
            .correction_time_s(corr_pairs, self.cfg.clock_flex_hz)
            * imb
            * 1e6
            + self.cal.corr_fixed_us;

        // --- Bonded terms (hot-node load: the solute is spatially compact).
        let hot_terms = s.hot_node_bonded_terms(self.cfg.nodes);
        let bonded_us = self
            .flex
            .bonded_time_s(hot_terms, self.cfg.gcs, self.cfg.clock_flex_hz)
            * 1e6;

        // --- Integration + constraints.
        let integration_us = self.flex.integrate_time_s(
            atoms_per_node,
            s.n_constraint_pairs as f64 / nodes,
            self.cfg.gcs,
            self.cfg.clock_flex_hz,
        ) * imb
            * 1e6
            + self.cal.integ_fixed_us;

        // --- Step assembly: HTIS chain is serial (range-limited, spreading,
        // FFT, interpolation share hardware or depend on each other); the
        // flexible chain (bonded + correction) overlaps it.
        let htis_chain = range_limited_us + mesh_us + fft_us;
        let flex_chain = bonded_us + correction_us;
        let lr_step_us = import_us + htis_chain.max(flex_chain) + integration_us;
        let nonlr_step_us = import_us + range_limited_us.max(bonded_us) + integration_us;
        let k = s.longrange_every.max(1) as f64;
        let avg_step_us = (lr_step_us + (k - 1.0) * nonlr_step_us) / k + self.cal.step_fixed_us;
        let us_per_day = s.dt_fs * (86_400.0 / (avg_step_us * 1e-6)) * 1e-9;

        StepBreakdown {
            import_us,
            range_limited_us,
            mesh_us,
            fft_us,
            correction_us,
            bonded_us,
            integration_us,
            lr_step_us,
            nonlr_step_us,
            avg_step_us,
            us_per_day,
            chosen_subdiv,
        }
    }

    /// One distributed 3D transform (µs): per-axis pencil exchange message
    /// counts (2·lines·(1−1/g) per node per axis) plus local butterflies.
    fn fft_one_transform_us(&self, mesh: [usize; 3]) -> f64 {
        let g = self.cfg.torus;
        let mut msgs = 0.0;
        for axis in 0..3 {
            let (u, v) = match axis {
                0 => (1, 2),
                1 => (0, 2),
                _ => (0, 1),
            };
            let lines_per_node =
                (mesh[u] / g[u].min(mesh[u])) as f64 * (mesh[v] / g[v].min(mesh[v])) as f64;
            let ga = g[axis].min(mesh[axis]) as f64;
            msgs += 2.0 * lines_per_node * (1.0 - 1.0 / ga);
        }
        let points_per_node = (mesh[0] * mesh[1] * mesh[2]) as f64 / self.cfg.nodes as f64;
        self.cal.fft_fixed_us
            + msgs * self.cal.fft_per_msg_us
            + points_per_node * self.cal.fft_per_point_us
    }

    /// Crude commodity-cluster model for the §5.1 Desmond comparison: pair
    /// compute spread over cores plus PME all-to-all latency per step.
    pub fn commodity_cluster_us_per_day(
        s: &SystemStats,
        cluster_nodes: usize,
        cores_per_node: usize,
    ) -> f64 {
        let pairs = 0.5
            * s.density()
            * s.n_atoms as f64
            * (4.0 / 3.0)
            * std::f64::consts::PI
            * s.cutoff.powi(3);
        let cores = (cluster_nodes * cores_per_node) as f64;
        let compute_us = pairs * 2.5e-3 / cores; // ~2.5 ns per pair-interaction per core
                                                 // Two PME transposes: ~0.4 µs of network service per peer message.
        let comm_us = 2.0 * cluster_nodes as f64 * 0.4;
        let step_us = compute_us + comm_us;
        s.dt_fs * (86_400.0 / (step_us * 1e-6)) * 1e-9
    }
}

/// The DHFR benchmark workload of Table 2 / §5.1 (23,558 atoms, 62.2 Å box).
pub fn dhfr_stats(cutoff: f64, mesh: usize) -> SystemStats {
    SystemStats {
        n_atoms: 23558,
        box_edge: [62.2; 3],
        cutoff,
        spread_cutoff: cutoff * 0.68,
        mesh: [mesh; 3],
        dt_fs: 2.5,
        longrange_every: 2,
        n_correction_pairs: 41_000,
        n_bonded_terms: 4_700,
        protein_atoms: 2_512,
        n_constraint_pairs: 22_000,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Calibration check: the DHFR (13 Å, 32³) column of Table 2.
    #[test]
    fn dhfr_13a_column_matches_table2() {
        let model = PerfModel::anton_512();
        let b = model.breakdown(&dhfr_stats(13.0, 32));
        let within = |got: f64, paper: f64, tol: f64| {
            assert!(
                (got - paper).abs() <= tol * paper,
                "got {got:.2} µs, paper {paper:.2} µs"
            );
        };
        within(b.range_limited_us, 1.9, 0.35);
        within(b.fft_us, 8.9, 0.15);
        within(b.mesh_us, 2.0, 0.35);
        within(b.correction_us, 2.5, 0.30);
        within(b.bonded_us, 4.1, 0.40);
        within(b.integration_us, 1.6, 0.40);
        within(b.lr_step_us, 15.4, 0.25);
        // The headline: 16.4 µs/day.
        within(b.us_per_day, 16.4, 0.15);
    }

    /// Prediction check: the (9 Å, 64³) column — parameters Anton does NOT
    /// prefer. The model must reproduce the *direction* of every change and
    /// the >2× overall slowdown.
    #[test]
    fn small_cutoff_fine_mesh_is_slower_on_anton() {
        let model = PerfModel::anton_512();
        let coarse = model.breakdown(&dhfr_stats(13.0, 32));
        let fine = model.breakdown(&dhfr_stats(9.0, 64));
        assert!(fine.range_limited_us < coarse.range_limited_us);
        assert!(fine.fft_us > 2.0 * coarse.fft_us);
        assert!(fine.mesh_us > 2.0 * coarse.mesh_us);
        assert!(
            fine.lr_step_us > 1.8 * coarse.lr_step_us,
            "fine {:.1} vs coarse {:.1}",
            fine.lr_step_us,
            coarse.lr_step_us
        );
    }

    /// §5.1: a 128-node partition achieves "well over 25%" of the 512-node
    /// DHFR performance (paper: 7.5 µs/day).
    #[test]
    fn dhfr_128_node_partition() {
        let m512 = PerfModel::anton_512().breakdown(&dhfr_stats(13.0, 32));
        let m128 = PerfModel::new(MachineConfig::with_nodes(128)).breakdown(&dhfr_stats(13.0, 32));
        let frac = m128.us_per_day / m512.us_per_day;
        assert!(frac > 0.25 && frac < 0.8, "128-node fraction {frac}");
        assert!(
            (m128.us_per_day - 7.5).abs() < 3.5,
            "128-node rate {}",
            m128.us_per_day
        );
    }

    /// Figure 5 shape: rate scales roughly inversely with atom count above
    /// 25k atoms and plateaus below.
    #[test]
    fn rate_scales_inversely_with_size() {
        let model = PerfModel::anton_512();
        let mk = |n: usize, edge: f64| SystemStats {
            n_atoms: n,
            box_edge: [edge; 3],
            cutoff: 11.0,
            spread_cutoff: 7.5,
            mesh: [if n > 60_000 { 64 } else { 32 }; 3],
            dt_fs: 2.5,
            longrange_every: 2,
            n_correction_pairs: n * 2,
            n_bonded_terms: n / 5,
            protein_atoms: n / 10,
            n_constraint_pairs: n,
        };
        let r50 = model.breakdown(&mk(50_000, 80.0)).us_per_day;
        let r100 = model.breakdown(&mk(100_000, 100.8)).us_per_day;
        let ratio = r50 / r100;
        assert!(ratio > 1.4 && ratio < 2.6, "inverse scaling ratio {ratio}");
    }

    /// Desmond on a 512-node commodity cluster: hundreds of ns/day (the
    /// paper reports 471 ns/day), two orders of magnitude below Anton.
    #[test]
    fn commodity_cluster_is_two_orders_slower() {
        let s = dhfr_stats(13.0, 32);
        let cluster = PerfModel::commodity_cluster_us_per_day(&s, 512, 2);
        assert!(
            cluster > 0.1 && cluster < 1.5,
            "cluster rate {cluster} µs/day"
        );
        let anton = PerfModel::anton_512().breakdown(&s).us_per_day;
        assert!(anton / cluster > 10.0, "speedup {}", anton / cluster);
    }

    #[test]
    fn counter_words_roundtrip_and_reject_wrong_arity() {
        let c = ExchangeCounters {
            steps: 1,
            import_messages: 2,
            import_atoms: 3,
            import_bytes: 4,
            import_hop_bytes: 5,
            reduce_messages: 6,
            reduce_bytes: 7,
            reduce_hop_bytes: 8,
            lr_steps: 9,
            fft_messages: 10,
            fft_bytes: 11,
            mesh_halo_messages: 12,
            mesh_halo_bytes: 13,
            match_batches: 14,
            match_pairs: 15,
            match_candidates: 16,
            rebuild_steps: 17,
            reuse_steps: 18,
        };
        let words = c.to_words();
        // Every field is distinct, so a permutation or a dropped field
        // cannot round-trip unnoticed.
        assert_eq!(
            words,
            [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18]
        );
        let back = ExchangeCounters::from_words(&words).unwrap();
        assert_eq!(back.to_words(), words);
        assert!(ExchangeCounters::from_words(&words[..17]).is_none());
        assert!(ExchangeCounters::from_words(&[0; 19]).is_none());
    }

    #[test]
    fn water_only_is_faster_than_protein() {
        let model = PerfModel::anton_512();
        let mut s = dhfr_stats(13.0, 32);
        let with_protein = model.breakdown(&s).us_per_day;
        s.n_bonded_terms = 0;
        s.protein_atoms = 0;
        let water_only = model.breakdown(&s).us_per_day;
        let gain = water_only / with_protein;
        assert!(gain > 1.0 && gain < 1.35, "water-only speedup {gain}");
    }
}
