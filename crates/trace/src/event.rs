//! The event model: phases, spans, and counters.

/// Rank id used for work executed on the calling ("trunk") thread rather
/// than inside a per-rank fan-out: the FFT trunk, mesh merges, integration.
pub const RANK_MAIN: u32 = u32::MAX;

/// The phases of a simulated Anton time step (paper §3.2 / Table 2). One
/// span per phase execution; the fixed enumeration order below is the
/// canonical sort order of every exporter, so summaries are deterministic.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// One inner integration step end to end.
    Step,
    /// Re-homing atoms to boxes + metering the static exchange plan (the
    /// position import / force reduction of §3.2.1, bookkeeping side).
    ReHome,
    /// NT tower×plate pair enumeration on one rank.
    RangeLimited,
    /// Match sub-phase of the range-limited pipeline: tile-pair candidate
    /// streaming, the low-precision prefilter, and the exact cutoff test
    /// that packs surviving pairs into 8-wide batches (the ASIC's match
    /// units).
    Match,
    /// Evaluate sub-phase of the range-limited pipeline: masked batch
    /// dispatch through the PPIP table evaluator plus the force scatter.
    Evaluate,
    /// Match-cache rebuild: re-binning atoms to cells, refilling the SoA
    /// tiles, and re-running the padded-cutoff match from scratch (taken
    /// only when the cache is cold, the atom count changed, or more atoms
    /// moved half the slack than the mover scan absorbs).
    CacheRebuild,
    /// Match-cache reuse: refreshing tile positions in place and replaying
    /// the cached batch structure (the steady-state step shape).
    CacheReuse,
    /// Trunk-side fan-out overhead: the span covers thread-pool dispatch
    /// and join around one per-rank parallel section, so the nodes=1
    /// threads>1 pool cost is measured rather than inferred.
    Dispatch,
    /// Statically assigned bonded terms on one rank.
    Bonded,
    /// Correction pairs (excluded + 1-4) on one rank.
    Correction,
    /// GSE charge spreading into one rank's private mesh.
    Spread,
    /// Serial rank-ordered merge of the private charge meshes (the modeled
    /// charge-halo exchange).
    MeshMerge,
    /// Forward fixed-point FFT of the distributed trunk.
    FftForward,
    /// Green-function multiply between the transforms.
    FftGreen,
    /// Inverse fixed-point FFT of the distributed trunk.
    FftInverse,
    /// Per-rank force interpolation from the shared potential mesh.
    Interpolate,
    /// Umbrella over one whole reciprocal evaluation: the spread, mesh
    /// merge, FFT and interpolate spans nest inside it.
    Reciprocal,
    /// Kick/drift/constraint/virtual-site work of the integrator.
    Integrate,
    /// Checkpoint serialization + atomic write (`anton-ckpt`): snapshot
    /// encode, checksum, temp-file write, rename, rotation. Observability
    /// of the checkpoint cost — never on the inner-step path (checkpoints
    /// happen at cycle boundaries only).
    Checkpoint,
    /// Trunk-side mover scan after the rank merge: the in-cutoff pairs of
    /// atoms that moved half the slack which the cached batches lack,
    /// matched and evaluated on their own (one span per evaluation; empty
    /// on rebuild steps). Last in the order so persisted phase indices
    /// keep their meaning.
    MoverScan,
}

impl Phase {
    /// Every phase, in canonical order.
    pub const ALL: [Phase; 20] = [
        Phase::Step,
        Phase::ReHome,
        Phase::RangeLimited,
        Phase::Match,
        Phase::Evaluate,
        Phase::CacheRebuild,
        Phase::CacheReuse,
        Phase::Dispatch,
        Phase::Bonded,
        Phase::Correction,
        Phase::Spread,
        Phase::MeshMerge,
        Phase::FftForward,
        Phase::FftGreen,
        Phase::FftInverse,
        Phase::Interpolate,
        Phase::Reciprocal,
        Phase::Integrate,
        Phase::Checkpoint,
        Phase::MoverScan,
    ];

    /// Stable snake_case name used by both exporters.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Step => "step",
            Phase::ReHome => "re_home",
            Phase::RangeLimited => "range_limited",
            Phase::Match => "match",
            Phase::Evaluate => "evaluate",
            Phase::CacheRebuild => "cache_rebuild",
            Phase::CacheReuse => "cache_reuse",
            Phase::Dispatch => "dispatch",
            Phase::Bonded => "bonded",
            Phase::Correction => "correction",
            Phase::Spread => "spread",
            Phase::MeshMerge => "mesh_merge",
            Phase::FftForward => "fft_forward",
            Phase::FftGreen => "fft_green",
            Phase::FftInverse => "fft_inverse",
            Phase::Interpolate => "interpolate",
            Phase::Reciprocal => "reciprocal",
            Phase::Integrate => "integrate",
            Phase::Checkpoint => "checkpoint",
            Phase::MoverScan => "mover_scan",
        }
    }

    /// Index into [`Phase::ALL`].
    pub fn index(self) -> usize {
        Phase::ALL.iter().position(|&p| p == self).unwrap_or(0)
    }
}

/// One completed phase execution: measured wall-clock interval (monotonic
/// ns since the sink's origin) on one rank at one step. Timestamps are
/// observability payload only — they never feed back into the simulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub phase: Phase,
    /// Rank that executed the work, or [`RANK_MAIN`] for the trunk thread.
    pub rank: u32,
    pub step: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One communication-volume sample attributed to the emitting span's phase:
/// message/byte counts from the static exchange plans (deterministic) plus
/// the modeled link time of that traffic under the machine config's hop
/// math (deterministic, microseconds).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Counter {
    /// Name of the metered traffic class (e.g. `"import"`, `"fft_pencils"`).
    pub name: &'static str,
    /// Phase of the span this traffic is attributed to.
    pub phase: Phase,
    pub rank: u32,
    pub step: u64,
    pub messages: u64,
    pub bytes: u64,
    /// Modeled wire time of this traffic (µs, machine model — not wall
    /// clock).
    pub modeled_us: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_names_are_unique_and_ordered() {
        let names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), Phase::ALL.len(), "duplicate phase name");
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
    }

    #[test]
    fn span_duration_saturates() {
        let s = Span {
            phase: Phase::Step,
            rank: 0,
            step: 0,
            start_ns: 10,
            end_ns: 4,
        };
        assert_eq!(s.duration_ns(), 0);
    }
}
