//! The mesh phase: per-rank spread, mesh merge, FFT trunk, per-rank
//! interpolate — with the correction stream overlapped on the pool.

use super::{ForcePipeline, RawForces};
use crate::state::{FixedState, FORCE_FRAC};
use anton_ewald::gse::{MeshAtoms, SupportScratch};
use anton_systems::System;
use anton_trace::{Lane, Phase, RANK_MAIN};

/// One rank's private long-range state: a force accumulator, its share of
/// the spread charge mesh, a window-stencil scratch, and its trace lane.
pub(super) struct LrRank {
    forces: RawForces,
    rho: Vec<i64>,
    stencil: SupportScratch,
    lane: Lane,
}

impl LrRank {
    fn empty() -> LrRank {
        LrRank {
            forces: RawForces::zeroed(0),
            rho: Vec::new(),
            stencil: SupportScratch::default(),
            lane: Lane::new(),
        }
    }
}

impl ForcePipeline {
    /// The long-range force class of a RESPA outer step: reciprocal (GSE)
    /// plus correction pairs, sharded over the plan's ranks (§3.2.2): each
    /// rank spreads its mesh tiles' atoms into a *private* charge mesh;
    /// the meshes merge in fixed rank order with wrapping adds; the
    /// distributed fixed-point FFT trunk (forward → Green multiply →
    /// inverse) runs on the calling thread *overlapped* with the per-rank
    /// correction pairs — the software analogue of the concurrent HTIS and
    /// flexible chains of §3.2 — and each rank then interpolates its
    /// atoms' forces from the shared potential mesh. Every phase either
    /// partitions work (disjoint FFT pencils, disjoint atoms) or
    /// accumulates quantized summands with wrapping adds, so the result is
    /// bitwise invariant to the plan and the thread count. When a machine
    /// is modelled, its mesh-halo and FFT pencil traffic is metered into
    /// [`ExchangeCounters`](anton_machine::perf::ExchangeCounters) per
    /// long-range step.
    pub fn long_range(&mut self, sys: &System, state: &FixedState, out: &mut RawForces) {
        let n = sys.n_atoms();
        state.decode_positions_into(&sys.pbox, &mut self.pos_buf);
        // Long-range steps normally follow a short-range evaluation that
        // already binned atoms for these positions; only bin (and meter a
        // fresh exchange step) when called standalone.
        if !self.ranks.is_binned(n) {
            let before = self.counters;
            let t0 = self.trace.now_ns();
            self.ranks
                .rebin(&sys.topology, &state.positions, &mut self.counters);
            self.trace.end_span(Phase::ReHome, RANK_MAIN, t0);
            self.meter_since(before);
        }
        let n_mesh = self.gse.mesh.len();
        // Umbrella span over the whole reciprocal evaluation; the
        // Spread/MeshMerge/Fft*/Interpolate sub-phases nest inside it.
        let t_recip = self.trace.now_ns();
        let mut lr = std::mem::take(&mut self.lr_scratch);
        lr.resize_with(self.ranks.rank_count(), LrRank::empty);
        for s in &mut lr {
            s.forces.reset(n);
            s.rho.clear();
            s.rho.resize(n_mesh, 0);
        }
        let mut gs = std::mem::take(&mut self.gse_scratch);
        gs.begin(n_mesh);
        // Trunk-phase timestamps, collected inside the shared-borrow block
        // and turned into spans once `self` is mutable again.
        let mut merge_span = (0u64, 0u64);
        let mut fft_marks = [0u64; 4];
        // Trunk wall time of each pool fan-out (spread; overlapped
        // FFT+corrections; interpolate) — the dispatch/join overhead is
        // this span minus the rank spans it encloses.
        let mut dispatch_marks = [(0u64, 0u64); 3];
        {
            let this = &*self;
            let rs = &this.ranks;
            let charges = &sys.topology.charge;
            let view = |r: usize| MeshAtoms {
                positions: &this.pos_buf,
                charges,
                atoms: rs.mesh_atoms(r),
            };
            // 1. Per-rank charge spreading into private meshes.
            dispatch_marks[0].0 = this.trace.now_ns();
            this.pool.run(&mut lr, |r, s| {
                let t = this.trace.now_ns();
                this.gse.spread_into(view(r), &mut s.rho, &mut s.stencil);
                if this.trace.is_on() {
                    s.lane.push(Phase::Spread, t, this.trace.now_ns());
                }
            });
            dispatch_marks[0].1 = this.trace.now_ns();
            // 2. Serial rank-ordered wrapping merge of the charge meshes
            //    (the modeled charge-halo exchange).
            merge_span.0 = this.trace.now_ns();
            for s in &lr {
                for (a, &b) in gs.rho_q.iter_mut().zip(&s.rho) {
                    *a = a.wrapping_add(b);
                }
            }
            merge_span.1 = this.trace.now_ns();
            // 3. FFT trunk on the calling thread, overlapped with the
            //    per-rank correction pairs on the pool.
            let marks = &mut fft_marks;
            dispatch_marks[1].0 = this.trace.now_ns();
            this.pool.run_overlapped(
                &mut lr,
                |r, s| {
                    let t = this.trace.now_ns();
                    this.correction_stream_into(state, &rs.ranks[r].corrections, &mut s.forces);
                    if this.trace.is_on() {
                        s.lane.push(Phase::Correction, t, this.trace.now_ns());
                    }
                },
                || {
                    this.gse.transform_marked(&mut gs, &mut |stage| {
                        marks[stage as usize] = this.trace.now_ns();
                    })
                },
            );
            dispatch_marks[1].1 = this.trace.now_ns();
            // 4. Per-rank force interpolation from the shared potential.
            dispatch_marks[2].0 = this.trace.now_ns();
            this.pool.run(&mut lr, |r, s| {
                let t = this.trace.now_ns();
                let phi = &gs.phi_q;
                let e = this.gse.interpolate_into(
                    view(r),
                    phi,
                    FORCE_FRAC,
                    &mut s.forces.f,
                    &mut s.stencil,
                );
                s.forces.e_reciprocal = s.forces.e_reciprocal.wrapping_add(e);
                if this.trace.is_on() {
                    s.lane.push(Phase::Interpolate, t, this.trace.now_ns());
                }
            });
            dispatch_marks[2].1 = this.trace.now_ns();
        }
        self.gse_scratch = gs;
        self.lr_scratch = lr;
        if self.trace.is_on() {
            for (s, e) in dispatch_marks {
                self.trace.push_span(Phase::Dispatch, RANK_MAIN, s, e);
            }
            self.trace
                .push_span(Phase::MeshMerge, RANK_MAIN, merge_span.0, merge_span.1);
            self.trace
                .push_span(Phase::FftForward, RANK_MAIN, fft_marks[0], fft_marks[1]);
            self.trace
                .push_span(Phase::FftGreen, RANK_MAIN, fft_marks[1], fft_marks[2]);
            self.trace
                .push_span(Phase::FftInverse, RANK_MAIN, fft_marks[2], fft_marks[3]);
        }
        self.trace
            .merge_lanes(self.lr_scratch.iter_mut().map(|s| &mut s.lane));
        for s in &self.lr_scratch {
            out.merge_from(&s.forces);
        }
        self.trace.end_span(Phase::Reciprocal, RANK_MAIN, t_recip);
        let before = self.counters;
        if let Some(machine) = self.ranks.machine() {
            machine.mesh.record_lr_step(&mut self.counters);
        }
        self.meter_since(before);
    }
}
