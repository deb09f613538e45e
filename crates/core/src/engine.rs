//! The Anton engine: fixed-point velocity Verlet with RESPA impulses,
//! deterministic constraints and optional Berendsen coupling.

use crate::forces::{Decomposition, ForcePipeline, RawForces};
use crate::state::{
    positions_from_bytes, positions_to_bytes, FixedState, FORCE_SCALE, VEL_FRAC, VEL_SCALE,
};
use anton_ckpt::{CheckpointStore, CkptError, Fingerprint, Snapshot};
use anton_fixpoint::rounding::rne_f64_to_i64;
use anton_fixpoint::FxVec3;
use anton_forcefield::constraints::{assert_disjoint_groups, shake};
use anton_forcefield::units::ACCEL;
use anton_geometry::{PeriodicBox, Vec3};
use anton_machine::ExchangeCounters;
use anton_systems::velocities::init_velocities;
use anton_systems::{System, Thermostat};
use anton_trace::{Phase, TraceSink, RANK_MAIN};
use std::path::Path;

/// Relative SHAKE tolerance on each constrained distance.
const SHAKE_TOL: f64 = 1e-10;
/// SHAKE sweep cap per step.
const SHAKE_MAX_ITERS: usize = 200;

/// Builder for [`AntonSimulation`].
pub struct SimulationBuilder {
    system: System,
    velocities: Option<Vec<Vec3>>,
    decomposition: Decomposition,
    threads: usize,
    thermostat: Thermostat,
    tracing: bool,
}

impl SimulationBuilder {
    /// Maxwell–Boltzmann velocities at `temp_k`, seeded.
    pub fn velocities_from_temperature(mut self, temp_k: f64, seed: u64) -> Self {
        let v = init_velocities(&self.system.topology, temp_k, seed);
        self.velocities = Some(v);
        self
    }

    pub fn decomposition(mut self, d: Decomposition) -> Self {
        self.decomposition = d;
        self
    }

    /// Thread count for the per-rank fan-out (default 1); the only way to
    /// set it. Never affects results — trajectories are bitwise invariant
    /// across thread counts — but it enters the config fingerprint, so a
    /// checkpoint resumes only under the count it was written with.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    pub fn thermostat(mut self, t: Thermostat) -> Self {
        self.thermostat = t;
        self
    }

    /// Enable structured tracing: the pipeline records phase spans and
    /// communication counters into a [`TraceSink`] readable through
    /// [`AntonSimulation::trace`]. Never affects results — trajectories are
    /// bitwise identical with tracing on and off.
    pub fn tracing(mut self, on: bool) -> Self {
        self.tracing = on;
        self
    }

    /// Start at the newest valid checkpoint under `path` (a store
    /// directory, or a single `.ant` file); see
    /// [`Self::resume_from_snapshot`].
    pub fn resume_from(self, path: impl AsRef<Path>) -> Result<AntonSimulation, CkptError> {
        let path = path.as_ref();
        let snap = if path.is_dir() {
            CheckpointStore::open(path, 1).latest_valid()?.1
        } else {
            anton_ckpt::load_file(path)?
        };
        self.resume_from_snapshot(&snap)
    }

    /// Start at `snap` (a snapshot the caller already loaded and verified)
    /// and continue the interrupted trajectory bit-for-bit. Everything a
    /// snapshot can be refused for is decided here, **before** anything is
    /// built, config fingerprint first: resuming under a different node
    /// grid, thread count, system, or run parameters is
    /// [`CkptError::FingerprintMismatch`], because the bitwise-resume
    /// contract could silently not hold.
    pub fn resume_from_snapshot(self, snap: &Snapshot) -> Result<AntonSimulation, CkptError> {
        let fingerprint = config_fingerprint(&self.system, self.decomposition, self.threads);
        if snap.fingerprint != fingerprint {
            return Err(CkptError::FingerprintMismatch {
                stored: snap.fingerprint,
                expected: fingerprint,
            });
        }
        let state = FixedState::from_bytes(&snap.state)?;
        let got = state.n_atoms() as u64;
        for expected in [snap.n_atoms, self.system.n_atoms() as u64] {
            if got != expected {
                return Err(CkptError::AtomCountMismatch { expected, got });
            }
        }
        // An empty epoch section is a cold match cache, which is how every
        // pipeline starts.
        let match_ref = match snap.match_ref.as_slice() {
            [] => Vec::new(),
            bytes => positions_from_bytes(bytes, state.n_atoms())?,
        };
        let counters =
            ExchangeCounters::from_words(&snap.counters).ok_or(CkptError::LengthMismatch {
                what: "exchange-counter words",
                expected: ExchangeCounters::WORDS as u64,
                got: snap.counters.len() as u64,
            })?;
        let resumed = Resumed {
            step: snap.step,
            match_ref,
            counters,
            trace_dropped: snap.trace_dropped,
        };
        Ok(AntonSimulation::new(
            self,
            fingerprint,
            state,
            Some(resumed),
        ))
    }

    /// Start at step 0 from the system's coordinates and the builder's
    /// velocities (zero when none were given).
    pub fn build(mut self) -> AntonSimulation {
        let velocities = self
            .velocities
            .take()
            .unwrap_or_else(|| vec![Vec3::ZERO; self.system.n_atoms()]);
        let fingerprint = config_fingerprint(&self.system, self.decomposition, self.threads);
        let state = FixedState::from_f64(&self.system.pbox, &self.system.positions, &velocities);
        AntonSimulation::new(self, fingerprint, state, None)
    }
}

/// What a decoded snapshot carries beyond the state words.
struct Resumed {
    step: u64,
    /// The match cache's reference-epoch positions (empty: it was cold).
    match_ref: Vec<FxVec3>,
    counters: ExchangeCounters,
    trace_dropped: [u64; 2],
}

/// The config fingerprint of DESIGN.md §12: every configuration input the
/// bitwise-resume contract depends on, digested with labels. A snapshot
/// restores only into a simulation with an equal fingerprint.
fn config_fingerprint(system: &System, decomposition: Decomposition, threads: usize) -> u64 {
    let e = system.pbox.edge();
    let p = &system.params;
    let nodes = match decomposition {
        Decomposition::SingleRank => 0u64,
        Decomposition::Nodes(n) => n as u64,
    };
    Fingerprint::new()
        .field("n_atoms", system.n_atoms() as u64)
        .field("edge_x", e.x.to_bits())
        .field("edge_y", e.y.to_bits())
        .field("edge_z", e.z.to_bits())
        .field("cutoff", p.cutoff.to_bits())
        .field("spread_cutoff", p.spread_cutoff.to_bits())
        .field("mesh_x", p.mesh[0] as u64)
        .field("mesh_y", p.mesh[1] as u64)
        .field("mesh_z", p.mesh[2] as u64)
        .field("dt_fs", p.dt_fs.to_bits())
        .field("longrange_every", p.longrange_every as u64)
        .field("nodes", nodes)
        .field("threads", threads.max(1) as u64)
        .finish()
}

/// A running Anton simulation.
pub struct AntonSimulation {
    pub system: System,
    pub state: FixedState,
    pub pipeline: ForcePipeline,
    pub thermostat: Thermostat,
    short: RawForces,
    long: RawForces,
    /// Per-atom half-kick constants: dt/2 · ACCEL/m · 2^(VEL−FORCE).
    kick_half: Vec<f64>,
    /// Long-impulse constants: k·dt/2 scaled likewise.
    kick_long_half: Vec<f64>,
    /// Per-axis drift constants: dt · 2^(31−VEL) / (edge/2).
    drift_c: [f64; 3],
    /// Every atom of every constraint group, each once (groups are
    /// disjoint): the atoms SHAKE reads and writes back.
    constrained: Vec<u32>,
    /// Per-step scratch for [`Self::apply_constraints`], indexed by atom;
    /// only the `constrained` entries are live: the pre-drift positions
    /// and the positions SHAKE adjusts.
    pos_ref: Vec<Vec3>,
    pos: Vec<Vec3>,
    /// Per-step scratch for [`Self::update_virtual_sites`].
    vsite_pos: Vec<Vec3>,
    step: u64,
    /// Config fingerprint (pure function of system/decomposition/threads),
    /// stamped into every written checkpoint and verified on restore.
    fingerprint: u64,
}

impl AntonSimulation {
    pub fn builder(system: System) -> SimulationBuilder {
        SimulationBuilder {
            system,
            velocities: None,
            decomposition: Decomposition::SingleRank,
            threads: 1,
            thermostat: Thermostat::None,
            tracing: false,
        }
    }

    /// The one way in: build the pipeline once around `state`, then
    /// evaluate each force class once. A resumed start first rebuilds the
    /// match cache at the snapshot's reference epoch, so the evaluation takes
    /// the same rebuild-or-reuse decision and mover set the uninterrupted
    /// run took, and the rebuild schedule continues bitwise.
    fn new(
        b: SimulationBuilder,
        fingerprint: u64,
        state: FixedState,
        resumed: Option<Resumed>,
    ) -> AntonSimulation {
        let system = b.system;
        let groups = &system.topology.constraint_groups;
        assert_disjoint_groups(groups, system.n_atoms());
        let constrained = groups.iter().flat_map(|g| g.atoms()).collect();
        let mut pipeline = ForcePipeline::new(&system, b.decomposition, b.threads);
        if b.tracing {
            pipeline.set_trace(TraceSink::on());
        }
        let n = system.n_atoms();
        let dt = system.params.dt_fs;
        let k = system.params.longrange_every.max(1) as f64;
        let fscale = VEL_SCALE / FORCE_SCALE;
        let kick_half: Vec<f64> = system
            .topology
            .mass
            .iter()
            .map(|&m| {
                if m > 0.0 {
                    dt / 2.0 * ACCEL / m * fscale
                } else {
                    0.0
                }
            })
            .collect();
        let kick_long_half = kick_half.iter().map(|c| c * k).collect();
        let e = system.pbox.edge();
        let pscale = (2.0f64).powi(31 - VEL_FRAC as i32);
        let drift_c = [
            dt * pscale / (e.x / 2.0),
            dt * pscale / (e.y / 2.0),
            dt * pscale / (e.z / 2.0),
        ];
        let mut sim = AntonSimulation {
            system,
            state,
            pipeline,
            thermostat: b.thermostat,
            short: RawForces::zeroed(n),
            long: RawForces::zeroed(n),
            kick_half,
            kick_long_half,
            drift_c,
            constrained,
            pos_ref: vec![Vec3::ZERO; n],
            pos: vec![Vec3::ZERO; n],
            vsite_pos: Vec::new(),
            step: 0,
            fingerprint,
        };
        let Some(resumed) = resumed else {
            sim.refresh_all_forces();
            return sim;
        };
        sim.step = resumed.step;
        if !resumed.match_ref.is_empty() {
            sim.pipeline
                .rebuild_match_cache_at(&sim.system, &resumed.match_ref);
        }
        sim.refresh_all_forces();
        // Installed *after* the evaluation, which metered traffic the
        // uninterrupted run had already counted.
        sim.pipeline.counters = resumed.counters;
        let [spans, counters] = resumed.trace_dropped;
        sim.pipeline.trace_mut().set_dropped(spans, counters);
        sim
    }

    fn update_virtual_sites(&mut self) {
        if self.system.topology.virtual_sites.is_empty() {
            return;
        }
        // The engine's positions are wrapped into the primary cell, so a
        // molecule straddling the boundary must be reconstructed with
        // minimum-image displacements before the linear-combination site is
        // placed — plain averaging would put the site across the box.
        let pos = &mut self.vsite_pos;
        self.state.decode_positions_into(&self.system.pbox, pos);
        let pbox = self.system.pbox;
        for v in &self.system.topology.virtual_sites {
            let ra = pos[v.a as usize];
            let dab = pbox.min_image(pos[v.b as usize], ra);
            let dac = pbox.min_image(pos[v.c as usize], ra);
            let p = ra + (dab + dac) * (0.5 * v.gamma);
            self.state.set_position(&pbox, v.site as usize, p);
        }
    }

    /// Spread accumulated virtual-site raw forces onto parents (quantized,
    /// deterministic). Public so an external checker (the `anton-analysis`
    /// verifier) can reproduce the engine's exact post-pipeline force words
    /// from an independent recomputation.
    pub fn spread_vsite_forces(out: &mut RawForces, sys: &System) {
        for v in &sys.topology.virtual_sites {
            let fm = out.f[v.site as usize];
            out.f[v.site as usize] = [0; 3];
            for (k, &fmk) in fm.iter().enumerate() {
                let a = rne_f64_to_i64(fmk as f64 * (1.0 - v.gamma));
                let h = rne_f64_to_i64(fmk as f64 * (v.gamma * 0.5));
                out.f[v.a as usize][k] = out.f[v.a as usize][k].wrapping_add(a);
                out.f[v.b as usize][k] = out.f[v.b as usize][k].wrapping_add(h);
                out.f[v.c as usize][k] = out.f[v.c as usize][k].wrapping_add(h);
            }
        }
    }

    /// Evaluate the short-range class at `state`; with `energy` false the
    /// range-limited energy word is not formed (see [`Self::run_cycles`]).
    fn refresh_short(&mut self, energy: bool) {
        self.short.clear();
        if energy {
            self.pipeline
                .short_range(&self.system, &self.state, &mut self.short);
        } else {
            self.pipeline
                .short_range_forces(&self.system, &self.state, &mut self.short);
        }
        Self::spread_vsite_forces(&mut self.short, &self.system);
    }

    fn refresh_long(&mut self) {
        self.long.clear();
        self.pipeline
            .long_range(&self.system, &self.state, &mut self.long);
        Self::spread_vsite_forces(&mut self.long, &self.system);
    }

    /// Place the virtual sites and evaluate both force classes at `state`.
    fn refresh_all_forces(&mut self) {
        self.update_virtual_sites();
        self.refresh_short(true);
        self.refresh_long();
    }

    #[inline]
    fn kick(state: &mut FixedState, forces: &RawForces, consts: &[f64]) {
        for (i, c) in consts.iter().enumerate() {
            if *c == 0.0 {
                continue;
            }
            let v = &mut state.velocities[i];
            for (vk, &fk) in v.iter_mut().zip(&forces.f[i]) {
                *vk = vk.wrapping_add(rne_f64_to_i64(fk as f64 * c));
            }
        }
    }

    fn drift_all(&mut self) {
        for i in 0..self.state.n_atoms() {
            if self.system.topology.mass[i] <= 0.0 {
                continue;
            }
            let v = self.state.velocities[i];
            let d = [0, 1, 2].map(|k| rne_f64_to_i64(v[k] as f64 * self.drift_c[k]));
            let p = &mut self.state.positions[i];
            *p = p.wrapping_add_raw(d);
        }
    }

    /// Decode the constrained atoms' positions into `out` (indexed by atom).
    fn decode_constrained(state: &FixedState, pbox: &PeriodicBox, atoms: &[u32], out: &mut [Vec3]) {
        for &a in atoms {
            out[a as usize] = state.decode_position(pbox, a as usize);
        }
    }

    /// Fixed-point SHAKE: iterate in f64 over the decoded group atoms, with
    /// `pos_ref` (their pre-drift positions) as the constraint directions,
    /// then quantize back. Deterministic (not reversible — matching the
    /// paper, whose reversibility experiments run without constraints).
    fn apply_constraints(&mut self) {
        if self.constrained.is_empty() {
            return;
        }
        let pbox = self.system.pbox;
        Self::decode_constrained(&self.state, &pbox, &self.constrained, &mut self.pos);
        shake(
            &pbox,
            &self.system.topology.constraint_groups,
            &self.system.topology.mass,
            &self.pos_ref,
            &mut self.pos,
            SHAKE_TOL,
            SHAKE_MAX_ITERS,
        );
        // Write back: positions and constrained velocities.
        let dt = self.system.params.dt_fs;
        for &a in &self.constrained {
            let i = a as usize;
            let (p, p_ref) = (self.pos[i], self.pos_ref[i]);
            self.state.set_position(&pbox, i, p);
            let v = pbox.min_image(p, p_ref) * (1.0 / dt);
            self.state.velocities[i] = [
                rne_f64_to_i64(v.x * VEL_SCALE),
                rne_f64_to_i64(v.y * VEL_SCALE),
                rne_f64_to_i64(v.z * VEL_SCALE),
            ];
        }
    }

    /// One r-RESPA outer cycle: [`Self::run_cycles`]`(1)`.
    pub fn run_cycle(&mut self) {
        self.run_cycles(1);
    }

    /// `n` r-RESPA outer cycles of `longrange_every` inner steps each. A
    /// cycle is palindromic: half long impulse · (VV steps) · half long
    /// impulse, so a velocity negation at a cycle boundary reverses the
    /// trajectory exactly when constraints and the thermostat are off.
    ///
    /// Only the last inner step of the call forms the range-limited energy
    /// word; every earlier one evaluates forces only. The short-range
    /// words are private, the integrator reads only their forces, and each
    /// evaluation clears and overwrites them, so nothing can read an
    /// energy before the last evaluation replaces it: `short_forces`,
    /// `potential_energy`, checkpoints and the verifier see the bits every
    /// evaluation forming it would leave.
    pub fn run_cycles(&mut self, n: usize) {
        let k = self.system.params.longrange_every.max(1);
        for c in 0..n {
            self.cycle(if c + 1 == n { k - 1 } else { k });
        }
    }

    /// One outer cycle, whose inner steps from `energy_from` on form the
    /// range-limited energy word.
    fn cycle(&mut self, energy_from: u32) {
        self.pipeline.trace_mut().set_step(self.step);
        let t0 = self.pipeline.trace().now_ns();
        Self::kick(&mut self.state, &self.long, &self.kick_long_half);
        self.pipeline
            .trace_mut()
            .end_span(Phase::Integrate, RANK_MAIN, t0);
        let k = self.system.params.longrange_every.max(1);
        for s in 0..k {
            self.inner_step(s >= energy_from);
        }
        self.pipeline.trace_mut().set_step(self.step);
        self.refresh_long();
        let t0 = self.pipeline.trace().now_ns();
        Self::kick(&mut self.state, &self.long, &self.kick_long_half);
        self.pipeline
            .trace_mut()
            .end_span(Phase::Integrate, RANK_MAIN, t0);

        if let Thermostat::Berendsen { target_k, tau_fs } = self.thermostat {
            let t = self.temperature_k();
            if t > 1e-9 {
                let dt = self.system.params.dt_fs * k as f64;
                let lambda = (1.0 + (dt / tau_fs) * (target_k / t - 1.0)).max(0.0).sqrt();
                for v in self.state.velocities.iter_mut() {
                    for c in v.iter_mut() {
                        *c = rne_f64_to_i64(*c as f64 * lambda);
                    }
                }
            }
        }
    }

    /// One velocity-Verlet inner step; `energy` forms the range-limited
    /// energy word of its short-range evaluation.
    fn inner_step(&mut self, energy: bool) {
        self.pipeline.trace_mut().set_step(self.step);
        let t_step = self.pipeline.trace().now_ns();
        Self::kick(&mut self.state, &self.short, &self.kick_half);
        let pbox = self.system.pbox;
        Self::decode_constrained(&self.state, &pbox, &self.constrained, &mut self.pos_ref);
        self.drift_all();
        self.apply_constraints();
        self.update_virtual_sites();
        self.pipeline
            .trace_mut()
            .end_span(Phase::Integrate, RANK_MAIN, t_step);
        self.refresh_short(energy);
        let t1 = self.pipeline.trace().now_ns();
        Self::kick(&mut self.state, &self.short, &self.kick_half);
        self.pipeline
            .trace_mut()
            .end_span(Phase::Integrate, RANK_MAIN, t1);
        self.pipeline
            .trace_mut()
            .end_span(Phase::Step, RANK_MAIN, t_step);
        self.step += 1;
    }

    pub fn step_count(&self) -> u64 {
        self.step
    }

    /// Completed outer RESPA cycles (`step / longrange_every`).
    pub fn cycle_count(&self) -> u64 {
        self.step / self.system.params.longrange_every.max(1) as u64
    }

    /// The short-range force class exactly as the integrator will kick with
    /// it: range-limited + bonded raw words, virtual-site spread applied.
    pub fn short_forces(&self) -> &RawForces {
        &self.short
    }

    /// The long-range force class (reciprocal + correction, virtual-site
    /// spread applied).
    pub fn long_forces(&self) -> &RawForces {
        &self.long
    }

    /// Mutable short-range force words. Exists for fault-injection tests
    /// (proving the verifier's force-consistency identity can fire); code
    /// that mutates these outside a test is corrupting the trajectory.
    pub fn short_forces_mut(&mut self) -> &mut RawForces {
        &mut self.short
    }

    /// Mutable long-range force words (fault injection; see
    /// [`Self::short_forces_mut`]).
    pub fn long_forces_mut(&mut self) -> &mut RawForces {
        &mut self.long
    }

    /// Capture the complete simulation state as an `anton-ckpt` snapshot:
    /// raw fixed-point positions/velocities, step counter, config
    /// fingerprint, exchange counters, and trace drop counts. Pure
    /// observation — the simulation is untouched.
    pub fn snapshot(&self) -> Snapshot {
        let (dropped_spans, dropped_counters) = match self.trace().buf() {
            Some(b) => (b.dropped_spans(), b.dropped_counters()),
            None => (0, 0),
        };
        // Match-cache reference epoch: the positions movers are measured
        // against. A resumed start rebuilds the cache at exactly this
        // epoch so the rebuild schedule continues bitwise.
        Snapshot {
            step: self.step,
            fingerprint: self.fingerprint,
            n_atoms: self.state.n_atoms() as u64,
            state: self.state.to_bytes(),
            counters: self.pipeline.counters.to_words().to_vec(),
            trace_dropped: [dropped_spans, dropped_counters],
            match_ref: positions_to_bytes(self.pipeline.match_ref_positions()),
        }
    }

    /// Write a checkpoint of the current state into the caller's `store`
    /// (atomic temp-file+rename, with the store's rotation) and return the
    /// encoded size in bytes. Call it at cycle boundaries, where the
    /// palindromic cycle has closed and the raw state alone determines the
    /// continuation; how often is the caller's policy. The write is
    /// recorded as a [`Phase::Checkpoint`] trace span plus a `ckpt_write`
    /// counter carrying the byte count; a failed write changes nothing in
    /// the simulation.
    pub fn write_checkpoint(&mut self, store: &CheckpointStore) -> Result<u64, CkptError> {
        let t0 = self.pipeline.trace().now_ns();
        let bytes = store.write(&self.snapshot())?.bytes;
        self.pipeline
            .trace_mut()
            .end_span(Phase::Checkpoint, RANK_MAIN, t0);
        self.pipeline
            .trace_mut()
            .counter("ckpt_write", Phase::Checkpoint, 1, bytes, 0.0);
        Ok(bytes)
    }

    /// The trace sink ([`TraceSink::Off`] unless built with
    /// [`SimulationBuilder::tracing`]).
    pub fn trace(&self) -> &TraceSink {
        self.pipeline.trace()
    }

    pub fn trace_mut(&mut self) -> &mut TraceSink {
        self.pipeline.trace_mut()
    }

    /// Negate all velocities (the reversibility experiment of §4). Only
    /// meaningful at cycle boundaries.
    pub fn negate_velocities(&mut self) {
        self.state.negate_velocities();
    }

    pub fn kinetic_energy(&self) -> f64 {
        let v: Vec<Vec3> = (0..self.state.n_atoms())
            .map(|i| self.state.velocity_f64(i))
            .collect();
        anton_systems::velocities::kinetic_energy(&self.system.topology, &v)
    }

    pub fn temperature_k(&self) -> f64 {
        let v: Vec<Vec3> = (0..self.state.n_atoms())
            .map(|i| self.state.velocity_f64(i))
            .collect();
        anton_systems::velocities::temperature(&self.system.topology, &v)
    }

    pub fn potential_energy(&self) -> f64 {
        self.short.potential() + self.long.potential()
    }

    pub fn total_energy(&self) -> f64 {
        self.potential_energy() + self.kinetic_energy()
    }

    /// Raw forces (short + long), for force-error measurements.
    pub fn total_force_f64(&self, i: usize) -> Vec3 {
        self.short.force_f64(i) + self.long.force_f64(i)
    }

    /// The decoded positions (Å).
    pub fn positions_f64(&self) -> Vec<Vec3> {
        self.state.decode_positions(&self.system.pbox)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anton_geometry::PeriodicBox;
    use anton_systems::spec::RunParams;

    fn water_system(n: usize, seed: u64) -> System {
        anton_systems::water_box("w", 18.0, n, seed, RunParams::paper(7.5, 16)).unwrap()
    }

    /// An unconstrained LJ + charge fluid for reversibility experiments
    /// (paper §4: exact reversibility "when run without constraints,
    /// temperature control or pressure control").
    fn argon_salt_system(seed: u64) -> System {
        use anton_forcefield::{LjTable, Topology};
        use rand::{Rng, SeedableRng};
        let pbox = PeriodicBox::cubic(16.0);
        let n = 108;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        // Jittered lattice to avoid overlaps.
        let per_axis = 5;
        let mut positions = Vec::new();
        'outer: for z in 0..per_axis {
            for y in 0..per_axis {
                for x in 0..per_axis {
                    if positions.len() >= n {
                        break 'outer;
                    }
                    positions.push(Vec3::new(
                        (x as f64 + 0.5) * 3.2 + (rng.gen::<f64>() - 0.5) * 0.4,
                        (y as f64 + 0.5) * 3.2 + (rng.gen::<f64>() - 0.5) * 0.4,
                        (z as f64 + 0.5) * 3.2 + (rng.gen::<f64>() - 0.5) * 0.4,
                    ));
                }
            }
        }
        let top = Topology {
            mass: vec![39.9; n],
            charge: (0..n)
                .map(|i| if i % 2 == 0 { 0.2 } else { -0.2 })
                .collect(),
            lj_type: vec![0; n],
            lj_table: LjTable::from_types(&[(3.4, 0.24)]),
            molecule_starts: (0..=n as u32).collect(),
            ..Default::default()
        };
        System {
            name: "argon-salt".into(),
            pbox,
            topology: top,
            positions,
            params: RunParams::paper(7.0, 16),
        }
    }

    /// Paper §4 "Determinism": bitwise identical repeated runs.
    #[test]
    fn trajectories_are_bitwise_deterministic() {
        let mk = || {
            let sys = water_system(80, 3);
            AntonSimulation::builder(sys)
                .velocities_from_temperature(300.0, 7)
                .build()
        };
        let mut a = mk();
        let mut b = mk();
        a.run_cycles(5);
        b.run_cycles(5);
        assert_eq!(a.state, b.state);
    }

    /// Paper §4 "Parallel invariance": identical trajectories on any node
    /// count (the paper verified 128-node vs 512-node bitwise identity over
    /// 2.7 billion steps; we verify several decompositions over a shorter
    /// window). The decomposed runs fan out over 4 threads against the
    /// one-thread `SingleRank` reference.
    #[test]
    fn trajectories_are_bitwise_invariant_across_node_counts() {
        let run = |decomposition, threads| {
            let sys = water_system(80, 5);
            let mut sim = AntonSimulation::builder(sys)
                .velocities_from_temperature(300.0, 9)
                .decomposition(decomposition)
                .threads(threads)
                .build();
            sim.run_cycles(4);
            sim.state
        };
        let reference = run(Decomposition::SingleRank, 1);
        for nodes in [2usize, 8, 64] {
            assert_eq!(
                run(Decomposition::Nodes(nodes), 4),
                reference,
                "trajectory diverged on {nodes} nodes × 4 threads"
            );
        }
    }

    /// The same invariance across *worker thread* counts: the per-rank
    /// fan-out writes private accumulators merged in fixed rank order, so
    /// the pool size can only change scheduling, never a bit of the state.
    #[test]
    fn trajectories_are_bitwise_invariant_across_thread_counts() {
        let run = |threads| {
            let sys = water_system(80, 5);
            let mut sim = AntonSimulation::builder(sys)
                .velocities_from_temperature(300.0, 9)
                .decomposition(Decomposition::Nodes(8))
                .threads(threads)
                .build();
            sim.run_cycles(4);
            sim.state
        };
        let reference = run(1);
        for threads in [2usize, 4] {
            assert_eq!(
                run(threads),
                reference,
                "trajectory diverged on {threads} worker threads"
            );
        }
    }

    /// Paper §4 "Exact reversibility": negate velocities, run the same
    /// number of cycles, recover the initial state bit-for-bit (the paper
    /// did 400 million steps each way on BPTI-scale hardware).
    #[test]
    fn trajectory_is_exactly_reversible() {
        let sys = argon_salt_system(11);
        let mut sim = AntonSimulation::builder(sys)
            .velocities_from_temperature(120.0, 13)
            .build();
        let x0 = sim.state.clone();
        let cycles = 25;
        sim.run_cycles(cycles);
        assert_ne!(sim.state, x0, "system did not move");
        sim.negate_velocities();
        sim.run_cycles(cycles);
        sim.negate_velocities();
        assert_eq!(
            sim.state, x0,
            "reversed trajectory failed to recover the initial state"
        );
    }

    #[test]
    fn nve_energy_is_stable() {
        let sys = argon_salt_system(17);
        let mut sim = AntonSimulation::builder(sys)
            .velocities_from_temperature(120.0, 19)
            .build();
        let e0 = sim.total_energy();
        sim.run_cycles(100);
        let e1 = sim.total_energy();
        let per_dof = (e1 - e0).abs() / sim.system.topology.degrees_of_freedom() as f64;
        assert!(
            per_dof < 0.02,
            "energy moved {per_dof} kcal/mol/DoF over 500 fs"
        );
    }

    #[test]
    fn constraints_hold_in_fixed_point() {
        let sys = water_system(60, 21);
        let mut sim = AntonSimulation::builder(sys)
            .velocities_from_temperature(300.0, 23)
            .build();
        sim.run_cycles(10);
        let pos = sim.positions_f64();
        for g in &sim.system.topology.constraint_groups {
            for &(i, j, d0) in &g.pairs {
                let d = sim
                    .system
                    .pbox
                    .min_image(pos[i as usize], pos[j as usize])
                    .norm();
                // Constraint satisfied to the position-grid resolution.
                assert!((d - d0).abs() < 5e-4, "constraint ({i},{j}) at {d} vs {d0}");
            }
        }
    }

    fn ckpt_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "anton-engine-ckpt-test-{}-{tag}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The caller's cadence, spelled out: a checkpoint after every cycle.
    fn run_checkpointing(sim: &mut AntonSimulation, store: &CheckpointStore, cycles: usize) {
        for _ in 0..cycles {
            sim.run_cycle();
            sim.write_checkpoint(store).expect("checkpoint write");
        }
    }

    fn resume_test_builder() -> SimulationBuilder {
        AntonSimulation::builder(water_system(80, 3))
            .velocities_from_temperature(300.0, 7)
            .decomposition(Decomposition::Nodes(8))
            .threads(2)
    }

    /// Kill-and-resume is bitwise equal to the uninterrupted run, and the
    /// restored bookkeeping (step counter, exchange counters) continues
    /// exactly where the interrupted run left off.
    #[test]
    fn interrupted_and_resumed_run_is_bitwise_identical() {
        let dir = ckpt_dir("resume");
        let mut golden = resume_test_builder().build();
        golden.run_cycles(5);

        {
            let store = CheckpointStore::create(&dir, 3).unwrap();
            let mut sim = resume_test_builder().build();
            run_checkpointing(&mut sim, &store, 3);
            assert_eq!(store.list().unwrap().len(), 3);
            // The "crash": sim dropped here without any shutdown path.
        }
        let mut resumed = resume_test_builder().resume_from(&dir).expect("resume");
        assert_eq!(
            resumed.step_count(),
            3 * resumed.system.params.longrange_every.max(1) as u64
        );
        // The checkpoint must land *inside* a cache-reuse window for this
        // test to exercise the serialized ref epoch: the restored match
        // reference has to be the older rebuild-time positions, not the
        // positions at the checkpointed step. If the schedule ever shifts
        // so the checkpoint coincides with a rebuild step, this assert
        // flags the test as vacuous rather than silently passing.
        assert!(
            resumed
                .pipeline
                .match_ref_positions()
                .iter()
                .zip(&resumed.state.positions)
                .any(|(r, p)| r != p),
            "checkpoint landed on a rebuild step; move it to cross a reuse window"
        );
        resumed.run_cycles(2);
        assert_eq!(resumed.state, golden.state, "resumed trajectory diverged");
        assert_eq!(
            resumed.pipeline.counters.to_words(),
            golden.pipeline.counters.to_words(),
            "restored exchange counters diverged from the uninterrupted run"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A resumed start costs one evaluation of each force class — the
    /// pipeline is built once, at the snapshot — and lands on the
    /// uninterrupted run's force words, energies, counters and step.
    #[test]
    fn resume_evaluates_each_force_class_once() {
        let mut sim = resume_test_builder().tracing(true).build();
        sim.run_cycles(3);
        let resumed = resume_test_builder()
            .tracing(true)
            .resume_from_snapshot(&sim.snapshot())
            .expect("resume");
        let spans = |phase: Phase| {
            let buf = resumed.trace().buf().expect("tracing was enabled");
            buf.spans().iter().filter(|s| s.phase == phase).count()
        };
        assert_eq!(spans(Phase::CacheRebuild) + spans(Phase::CacheReuse), 1);
        assert_eq!(spans(Phase::Reciprocal), 1);
        assert_eq!(resumed.short_forces(), sim.short_forces());
        assert_eq!(resumed.long_forces(), sim.long_forces());
        assert_eq!(
            resumed.total_energy().to_bits(),
            sim.total_energy().to_bits()
        );
        assert_eq!(
            resumed.pipeline.counters.to_words(),
            sim.pipeline.counters.to_words()
        );
        assert_eq!(resumed.step_count(), sim.step_count());
    }

    /// Resume refuses a mismatched node/thread/config fingerprint with a
    /// typed error, before touching any state.
    #[test]
    fn resume_refuses_mismatched_configuration() {
        let dir = ckpt_dir("refuse");
        {
            let store = CheckpointStore::create(&dir, 3).unwrap();
            let mut sim = resume_test_builder().build();
            run_checkpointing(&mut sim, &store, 1);
        }
        // Different node decomposition.
        let err = AntonSimulation::builder(water_system(80, 3))
            .velocities_from_temperature(300.0, 7)
            .decomposition(Decomposition::Nodes(64))
            .threads(2)
            .resume_from(&dir)
            .err()
            .expect("resume under a different decomposition must fail");
        assert!(matches!(
            err,
            anton_ckpt::CkptError::FingerprintMismatch { .. }
        ));
        // Different thread count.
        let err = AntonSimulation::builder(water_system(80, 3))
            .velocities_from_temperature(300.0, 7)
            .decomposition(Decomposition::Nodes(8))
            .threads(4)
            .resume_from(&dir)
            .err()
            .expect("resume under a different thread count must fail");
        assert!(matches!(
            err,
            anton_ckpt::CkptError::FingerprintMismatch { .. }
        ));
        // Different system (atom count).
        let err = AntonSimulation::builder(water_system(60, 3))
            .velocities_from_temperature(300.0, 7)
            .decomposition(Decomposition::Nodes(8))
            .threads(2)
            .resume_from(&dir)
            .err()
            .expect("resume into a different system must fail");
        assert!(matches!(
            err,
            anton_ckpt::CkptError::FingerprintMismatch { .. }
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The fingerprint is the first check: a snapshot that is foreign *and*
    /// carries a wrong atom count is refused as foreign. With the
    /// fingerprint right, the atom count is what refuses it.
    #[test]
    fn fingerprint_is_checked_before_anything_else() {
        let mut snap = resume_test_builder().build().snapshot();
        snap.n_atoms += 1;
        let err = resume_test_builder().resume_from_snapshot(&snap).err();
        assert!(
            matches!(err, Some(CkptError::AtomCountMismatch { .. })),
            "{err:?}"
        );
        snap.fingerprint ^= 1;
        let err = resume_test_builder().resume_from_snapshot(&snap).err();
        assert!(
            matches!(err, Some(CkptError::FingerprintMismatch { .. })),
            "{err:?}"
        );
    }

    /// The rotated store keeps only the last K checkpoints, and resume
    /// picks the newest. (The cadence that was automatic is the caller's
    /// loop now; the name is the one the test floor knows.)
    #[test]
    fn automatic_cadence_rotates_and_resumes_from_newest() {
        let dir = ckpt_dir("rotate");
        let k;
        {
            let store = CheckpointStore::create(&dir, 2).unwrap();
            let mut sim = AntonSimulation::builder(water_system(60, 5))
                .velocities_from_temperature(300.0, 9)
                .build();
            k = sim.system.params.longrange_every.max(1) as u64;
            run_checkpointing(&mut sim, &store, 4);
        }
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".ant"))
            .collect();
        assert_eq!(names.len(), 2, "rotation kept {names:?}");
        let resumed = AntonSimulation::builder(water_system(60, 5))
            .velocities_from_temperature(300.0, 9)
            .resume_from(&dir)
            .expect("resume");
        assert_eq!(resumed.step_count(), 4 * k);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A failed write is the caller's `Err` and nothing else: the
    /// trajectory continued afterwards is the uninterrupted one.
    #[test]
    fn failed_checkpoint_write_is_an_io_error_and_leaves_the_trajectory_alone() {
        let dir = ckpt_dir("unwritable");
        let mut golden = resume_test_builder().build();
        golden.run_cycles(3);

        let store = CheckpointStore::create(&dir, 3).unwrap();
        let mut sim = resume_test_builder().build();
        run_checkpointing(&mut sim, &store, 1);
        // A regular file takes the directory's place (permission bits
        // would not stop a root test run).
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::write(&dir, b"not a directory").unwrap();
        sim.run_cycle();
        let err = sim.write_checkpoint(&store).err();
        assert!(matches!(err, Some(CkptError::Io(_))), "{err:?}");
        sim.run_cycle();
        assert_eq!(sim.state, golden.state);
        let _ = std::fs::remove_file(&dir);
    }

    /// A 16-residue chain solvated to 1200 atoms, SHAKE-constrained waters.
    fn solvated_mini() -> System {
        anton_systems::catalog::build_solvated(
            "mini",
            1200,
            23.0,
            RunParams::paper(8.0, 16),
            &anton_forcefield::water::TIP3P,
            16,
            0,
            0,
            3,
        )
    }

    /// The energy rule of `run_cycles` is invisible, bit for bit:
    /// `run_cycles(n)`, `n` × `run_cycle()` and an oracle that forms the
    /// energy word on every evaluation leave identical state bytes,
    /// short-range words and potential-energy bits after every call — on
    /// constrained water and on a solvated protein, under `SingleRank` and
    /// `Nodes(8)` on 1 and 2 threads. The rule is live: a force-only cycle
    /// leaves the range-limited energy word unformed and every force word
    /// the oracle's.
    #[test]
    fn energy_rule_is_bitwise_invisible() {
        let water = water_system(80, 3);
        for sys in [water, solvated_mini()] {
            assert!(!sys.topology.constraint_groups.is_empty());
            for (decomposition, threads) in [
                (Decomposition::SingleRank, 1),
                (Decomposition::Nodes(8), 1),
                (Decomposition::Nodes(8), 2),
            ] {
                let mk = || {
                    AntonSimulation::builder(sys.clone())
                        .velocities_from_temperature(300.0, 7)
                        .decomposition(decomposition)
                        .threads(threads)
                        .build()
                };
                let (mut batched, mut single, mut oracle) = (mk(), mk(), mk());
                for n in [1, 3, 2] {
                    batched.run_cycles(n);
                    for _ in 0..n {
                        single.run_cycle();
                        oracle.cycle(0);
                    }
                    let what = format!("{} {decomposition:?} x{threads}, n {n}", sys.name);
                    for sim in [&single, &oracle] {
                        assert_eq!(sim.state.to_bytes(), batched.state.to_bytes(), "{what}");
                        assert_eq!(sim.short_forces(), batched.short_forces(), "{what}");
                        assert_eq!(
                            sim.potential_energy().to_bits(),
                            batched.potential_energy().to_bits(),
                            "{what}"
                        );
                    }
                }
                let k = batched.system.params.longrange_every.max(1);
                batched.cycle(k);
                oracle.cycle(0);
                assert_eq!(batched.short.e_range_limited, 0);
                assert_ne!(oracle.short.e_range_limited, 0);
                assert_eq!(batched.short.f, oracle.short.f);
                assert_eq!(batched.state, oracle.state);
            }
        }
    }

    /// The six-atom, three-pair residue groups beside the three-atom waters
    /// (the group shapes `dhfr` has; the goldens hold only waters): the
    /// state after 4 cycles of `solvated_mini` is pinned to one FNV, under
    /// `SingleRank` on 1 thread and `Nodes(8)` on 2.
    #[test]
    fn constrained_protein_trajectory_is_bitwise_pinned() {
        const PINNED_STATE_FNV: u64 = 0x2584_7578_3335_af8c;
        let sys = solvated_mini();
        let groups = &sys.topology.constraint_groups;
        assert_eq!(groups.iter().filter(|g| g.atoms().len() == 6).count(), 16);
        for (decomposition, threads) in
            [(Decomposition::SingleRank, 1), (Decomposition::Nodes(8), 2)]
        {
            let mut sim = AntonSimulation::builder(sys.clone())
                .velocities_from_temperature(300.0, 7)
                .decomposition(decomposition)
                .threads(threads)
                .build();
            sim.run_cycles(4);
            let fnv = anton_ckpt::fnv1a(&sim.state.to_bytes());
            assert_eq!(
                fnv, PINNED_STATE_FNV,
                "{decomposition:?} x{threads}: state FNV {fnv:#018x}"
            );
        }
    }

    /// The modelled machine's counters, which otherwise only the artifact
    /// tables read: after 4 cycles of `solvated_mini` (its constraint
    /// groups exercise home-box co-location) under `Nodes(2)`, `Nodes(8)`
    /// and `Nodes(64)`, every counter word of the three plans is pinned to
    /// one FNV and the state bytes to another, on 1 and 2 threads.
    #[test]
    fn exchange_counters_are_bitwise_pinned() {
        const PINNED_COUNTERS_FNV: u64 = 0xf23d_aa40_4462_3966;
        const PINNED_STATE_FNV: u64 = 0x2584_7578_3335_af8c;
        let sys = solvated_mini();
        for threads in [1, 2] {
            let mut words = Vec::new();
            for nodes in [2, 8, 64] {
                let mut sim = AntonSimulation::builder(sys.clone())
                    .velocities_from_temperature(300.0, 7)
                    .decomposition(Decomposition::Nodes(nodes))
                    .threads(threads)
                    .build();
                sim.run_cycles(4);
                let fnv = anton_ckpt::fnv1a(&sim.state.to_bytes());
                assert_eq!(
                    fnv, PINNED_STATE_FNV,
                    "Nodes({nodes}) x{threads}: state FNV {fnv:#018x}"
                );
                let counters = sim.pipeline.counters.to_words();
                words.extend(counters.iter().flat_map(|w| w.to_le_bytes()));
            }
            let fnv = anton_ckpt::fnv1a(&words);
            assert_eq!(
                fnv, PINNED_COUNTERS_FNV,
                "x{threads}: counters FNV {fnv:#018x}"
            );
        }
    }

    /// SHAKE's per-group solve rests on groups sharing no atom, so the
    /// build refuses a topology where two groups do.
    #[test]
    #[should_panic(expected = "share atom 0")]
    fn build_refuses_overlapping_constraint_groups() {
        let mut sys = water_system(8, 3);
        sys.topology
            .constraint_groups
            .push(anton_forcefield::ConstraintGroup {
                pairs: vec![(0, 3, 2.8)],
            });
        AntonSimulation::builder(sys).build();
    }

    #[test]
    fn berendsen_controls_temperature() {
        let sys = water_system(60, 25);
        let mut sim = AntonSimulation::builder(sys)
            .velocities_from_temperature(250.0, 27)
            .thermostat(Thermostat::Berendsen {
                target_k: 300.0,
                tau_fs: 25.0,
            })
            .build();
        for _ in 0..120 {
            sim.run_cycle();
        }
        let t = sim.temperature_k();
        assert!((t - 300.0).abs() < 60.0, "temperature {t}");
    }
}
