//! The bidirectional on-chip communication ring (paper Figure 2).
//!
//! Every unit on the Anton ASIC — the HTIS, the four flexible-subsystem
//! slices, the two DRAM controllers, the six channel interfaces and the host
//! interface — hangs off one bidirectional ring. Intra-node data
//! choreography (§3.2: "data transfers between these subunits are carefully
//! choreographed … to deliver data just when it is needed") rides on it.
//! This model provides hop counts and transfer-time estimates used when
//! reasoning about intra-node latency budgets.

/// Ring stations, in their order around the ring.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Station {
    Htis,
    Flex0,
    Flex1,
    Flex2,
    Flex3,
    Dram0,
    Dram1,
    Channel(u8),
    Host,
}

/// The on-chip ring: fixed station order, bidirectional routing.
#[derive(Clone, Debug)]
pub struct Ring {
    stations: Vec<Station>,
    /// Per-hop latency (cycles at the 485 MHz flexible clock).
    pub hop_cycles: u32,
    /// Payload bandwidth per direction (bytes per cycle).
    pub bytes_per_cycle: f64,
}

impl Default for Ring {
    fn default() -> Ring {
        let mut stations = vec![Station::Htis, Station::Flex0, Station::Flex1];
        stations.push(Station::Dram0);
        stations.extend((0..3).map(Station::Channel));
        stations.push(Station::Host);
        stations.push(Station::Flex2);
        stations.push(Station::Flex3);
        stations.push(Station::Dram1);
        stations.extend((3..6).map(Station::Channel));
        Ring {
            stations,
            hop_cycles: 1,
            bytes_per_cycle: 32.0,
        }
    }
}

impl Ring {
    pub fn len(&self) -> usize {
        self.stations.len()
    }

    pub fn is_empty(&self) -> bool {
        self.stations.is_empty()
    }

    fn index_of(&self, s: Station) -> usize {
        self.stations
            .iter()
            .position(|&x| x == s)
            .unwrap_or_else(|| panic!("station {s:?} not on ring"))
    }

    /// Hop count taking the shorter ring direction.
    pub fn hops(&self, from: Station, to: Station) -> u32 {
        let n = self.len() as i32;
        let d = (self.index_of(to) as i32 - self.index_of(from) as i32).rem_euclid(n);
        d.min(n - d) as u32
    }

    /// Transfer time in flexible-clock cycles: wire hops plus payload
    /// serialization.
    pub fn transfer_cycles(&self, from: Station, to: Station, bytes: f64) -> f64 {
        self.hops(from, to) as f64 * self.hop_cycles as f64 + bytes / self.bytes_per_cycle
    }

    /// Seconds at a given clock.
    pub fn transfer_time_s(&self, from: Station, to: Station, bytes: f64, clock_hz: f64) -> f64 {
        self.transfer_cycles(from, to, bytes) / clock_hz
    }

    /// Worst-case cycles to funnel `bytes` of imported positions from the
    /// channel interfaces into the HTIS (the intra-node leg of the §3.2.1
    /// import): the farthest channel's wire hops plus serialization.
    pub fn import_fan_in_cycles(&self, bytes: f64) -> f64 {
        let worst = self
            .stations
            .iter()
            .filter(|s| matches!(s, Station::Channel(_)))
            .map(|&s| self.hops(s, Station::Htis))
            .max()
            .unwrap_or(0);
        worst as f64 * self.hop_cycles as f64 + bytes / self.bytes_per_cycle
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_has_all_units() {
        let r = Ring::default();
        // HTIS + 4 flexible + 2 DRAM + 6 channels + host = 14 stations.
        assert_eq!(r.len(), 14);
    }

    #[test]
    fn hops_take_shorter_direction() {
        let r = Ring::default();
        let n = r.len() as u32;
        for &a in &[Station::Htis, Station::Dram1, Station::Channel(5)] {
            for &b in &[Station::Host, Station::Flex3, Station::Channel(0)] {
                let h = r.hops(a, b);
                assert!(h <= n / 2, "{a:?}→{b:?}: {h} hops");
                assert_eq!(h, r.hops(b, a), "ring distance must be symmetric");
            }
        }
        assert_eq!(r.hops(Station::Htis, Station::Htis), 0);
    }

    #[test]
    fn intra_node_latency_is_nanoseconds() {
        // A 256-byte position bundle from a channel interface to the HTIS
        // should take tens of nanoseconds at 485 MHz — far below the
        // microseconds of a commodity memory hierarchy round trip, which is
        // what makes the §3.2 choreography viable.
        let r = Ring::default();
        let t = r.transfer_time_s(Station::Channel(0), Station::Htis, 256.0, 485e6);
        assert!(t < 50e-9, "transfer took {t:e} s");
        assert!(t > 1e-9);
    }

    #[test]
    fn import_fan_in_dominated_by_serialization() {
        let r = Ring::default();
        // A full import region (~2400 atoms × 12 B) serializes in ~900
        // cycles; the wire hops are negligible next to that.
        let cycles = r.import_fan_in_cycles(2400.0 * 12.0);
        assert!(cycles > 800.0 && cycles < 1000.0, "{cycles}");
        assert!(r.import_fan_in_cycles(0.0) <= 7.0);
    }
}
