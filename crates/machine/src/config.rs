//! Machine configuration constants (paper §2.2).

/// Configuration of an Anton machine. Defaults reflect the 512-node
/// machines evaluated in the paper; node counts may be any power of two
/// from 1 to 32,768 (§5.1).
#[derive(Clone, Copy, Debug)]
pub struct MachineConfig {
    /// Number of nodes (power of two).
    pub nodes: usize,
    /// Torus dimensions (product = nodes).
    pub torus: [usize; 3],
    /// Flexible-subsystem clock (Hz): 485 MHz.
    pub clock_flex_hz: f64,
    /// PPIP array clock (Hz): 970 MHz.
    pub clock_ppip_hz: f64,
    /// Pairwise point interaction pipelines per ASIC.
    pub ppips: usize,
    /// Match units feeding each PPIP.
    pub match_units_per_ppip: usize,
    /// Geometry cores per ASIC.
    pub gcs: usize,
    /// Inter-node channels per ASIC (6 on the 3D torus).
    pub channels: usize,
    /// Per-direction channel bandwidth (bit/s): 50.6 Gbit/s.
    pub link_bits_per_s: f64,
    /// One-hop latency (s): "tens of nanoseconds".
    pub hop_latency_s: f64,
    /// Fixed per-message overhead (s); small messages are efficient.
    pub message_overhead_s: f64,
}

impl MachineConfig {
    /// A machine with `nodes` nodes (power of two) and near-cubic torus.
    pub fn with_nodes(nodes: usize) -> MachineConfig {
        assert!(nodes.is_power_of_two() && (1..=32768).contains(&nodes));
        MachineConfig {
            nodes,
            torus: near_cubic_torus(nodes),
            clock_flex_hz: 485e6,
            clock_ppip_hz: 970e6,
            ppips: 32,
            match_units_per_ppip: 8,
            gcs: 8,
            channels: 6,
            link_bits_per_s: 50.6e9,
            hop_latency_s: 50e-9,
            message_overhead_s: 12e-9,
        }
    }

    /// The paper's standard 512-node machine (8×8×8 torus).
    pub fn anton_512() -> MachineConfig {
        MachineConfig::with_nodes(512)
    }

    /// Total PPIP interaction throughput per node (pairs/s).
    pub fn ppip_throughput(&self) -> f64 {
        self.ppips as f64 * self.clock_ppip_hz
    }

    /// Aggregate outgoing link bandwidth per node (bytes/s).
    pub fn node_bandwidth_bytes(&self) -> f64 {
        self.channels as f64 * self.link_bits_per_s / 8.0
    }

    /// Time to push `bytes` through one node's links plus the wire latency
    /// of `hops` hops.
    pub fn transfer_time_s(&self, bytes: f64, hops: u32) -> f64 {
        bytes / self.node_bandwidth_bytes() + hops as f64 * self.hop_latency_s
    }
}

/// Factor a power of two into three near-equal powers of two
/// (512 → 8×8×8, 128 → 8×4×4, 2 → 2×1×1).
pub fn near_cubic_torus(nodes: usize) -> [usize; 3] {
    let k = nodes.trailing_zeros() as usize;
    let a = k.div_ceil(3);
    let b = (k - a).div_ceil(2);
    let c = k - a - b;
    [1usize << a, 1 << b, 1 << c]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn torus_factorizations() {
        assert_eq!(near_cubic_torus(512), [8, 8, 8]);
        assert_eq!(near_cubic_torus(128), [8, 4, 4]);
        assert_eq!(near_cubic_torus(64), [4, 4, 4]);
        assert_eq!(near_cubic_torus(8), [2, 2, 2]);
        assert_eq!(near_cubic_torus(2), [2, 1, 1]);
        assert_eq!(near_cubic_torus(1), [1, 1, 1]);
        for k in 0..=15 {
            let n = 1usize << k;
            let t = near_cubic_torus(n);
            assert_eq!(t[0] * t[1] * t[2], n);
            assert!(t[0] >= t[1] && t[1] >= t[2]);
        }
    }

    #[test]
    fn throughput_numbers() {
        let cfg = MachineConfig::anton_512();
        // 32 PPIPs at 970 MHz ≈ 31 G interactions/s/node.
        assert!((cfg.ppip_throughput() - 31.04e9).abs() < 1e7);
    }

    #[test]
    fn transfer_time_orders_of_magnitude() {
        let cfg = MachineConfig::anton_512();
        // 6 kB over ~38 GB/s plus 3 hops ≈ 0.3 µs.
        let s = cfg.transfer_time_s(6000.0, 3);
        assert!(s > 0.1e-6 && s < 1e-6, "{s}");
    }
}
