//! Every call the benchmark makes into the engine crates lives in this
//! file (README.md lists them as the surface the benchmark depends on).
//! The rest of the benchmark sees the engine only through these functions
//! and the re-exported types, so an engine API change is repaired here.

pub use anton_analysis::battery::Verifier;
pub use anton_ckpt::{CheckpointStore, Snapshot};
pub use anton_core::{AntonSimulation, Decomposition, FixedState, ForcePipeline, RawForces};
pub use anton_ewald::gse::{GseScratch, SupportScratch};
pub use anton_fft::distributed::FxDistributedFft3d;
pub use anton_fft::fixed::FxComplex;
pub use anton_fleet::Fleet;
pub use anton_geometry::Vec3;
pub use anton_machine::{PairBatch, Ppip, MATCH_WIDTH};
pub use anton_systems::System;

use crate::workloads::{Job, SimSpec, SystemSpec};
use anton_core::state::FORCE_FRAC;
use anton_core::TraceSink;
use anton_ewald::gse::MeshAtoms;
use anton_fleet::{FleetConfig, JobPhase, JobSpec, RunMode};
use anton_machine::MachineConfig;
use std::path::Path;

// ---- systems --------------------------------------------------------------

pub fn build_system(spec: &SystemSpec) -> System {
    match *spec {
        SystemSpec::Water {
            waters,
            edge,
            cutoff,
            mesh,
            placement_seed,
        } => {
            let pbox = anton_geometry::PeriodicBox::cubic(edge);
            let (topology, positions) = anton_systems::waterbox::pure_water_topology(
                &pbox,
                &anton_forcefield::water::TIP3P,
                waters,
                placement_seed,
            );
            System {
                name: "bench-water".into(),
                pbox,
                topology,
                positions,
                params: anton_systems::spec::RunParams::paper(cutoff, mesh),
            }
        }
        SystemSpec::Dhfr { seed } => anton_systems::table4_system(&anton_systems::TABLE4[1], seed),
    }
}

// ---- core: the simulation -------------------------------------------------

pub fn decomposition(nodes: usize) -> Decomposition {
    match nodes {
        0 => Decomposition::SingleRank,
        n => Decomposition::Nodes(n),
    }
}

/// `SimulationBuilder::build` with tracing and observers off: 300 K
/// velocities, constraints on, no thermostat.
pub fn build_sim(sys: System, spec: &SimSpec) -> AntonSimulation {
    AntonSimulation::builder(sys)
        .velocities_from_temperature(300.0, spec.velocity_seed)
        .decomposition(decomposition(spec.nodes))
        .threads(spec.threads)
        .tracing(false)
        .build()
}

/// `SimulationBuilder::resume_from` under the same configuration.
pub fn resume_sim(sys: System, spec: &SimSpec, dir: &Path) -> AntonSimulation {
    AntonSimulation::builder(sys)
        .velocities_from_temperature(300.0, spec.velocity_seed)
        .decomposition(decomposition(spec.nodes))
        .threads(spec.threads)
        .tracing(false)
        .resume_from(dir)
        .expect("resume from the checkpoint the benchmark just wrote")
}

pub fn run_cycles(sim: &mut AntonSimulation, n: usize) {
    sim.run_cycles(n);
}

/// What `.tracing(on)` does at build time, applied to a built simulation.
pub fn set_engine_tracing(sim: &mut AntonSimulation, on: bool) {
    sim.pipeline
        .set_trace(if on { TraceSink::on() } else { TraceSink::Off });
}

pub fn state_fnv(sim: &AntonSimulation) -> u64 {
    anton_ckpt::fnv1a(sim.state.to_bytes().as_ref())
}

pub fn energies(sim: &AntonSimulation) -> (f64, f64) {
    (sim.potential_energy(), sim.kinetic_energy())
}

pub fn engine_forces(sim: &AntonSimulation) -> Vec<Vec3> {
    (0..sim.system.n_atoms())
        .map(|i| sim.total_force_f64(i))
        .collect()
}

/// The public match-stage census of a pipeline.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Census {
    pub candidates: u64,
    pub pairs: u64,
    pub batches: u64,
    pub rebuilds: u64,
    pub reuses: u64,
}

impl Census {
    pub fn since(&self, earlier: &Census) -> Census {
        Census {
            candidates: self.candidates - earlier.candidates,
            pairs: self.pairs - earlier.pairs,
            batches: self.batches - earlier.batches,
            rebuilds: self.rebuilds - earlier.rebuilds,
            reuses: self.reuses - earlier.reuses,
        }
    }

    pub fn lanes(&self) -> u64 {
        self.batches * MATCH_WIDTH as u64
    }

    pub fn evaluations(&self) -> u64 {
        self.rebuilds + self.reuses
    }
}

pub fn census(p: &ForcePipeline) -> Census {
    let c = &p.counters;
    Census {
        candidates: c.match_candidates,
        pairs: c.match_pairs,
        batches: c.match_batches,
        rebuilds: c.rebuild_steps,
        reuses: c.reuse_steps,
    }
}

/// Exact modelled traffic of a `Nodes(n)` pipeline since construction:
/// (position-import bytes per step, modelled Anton communication µs per step).
pub fn modelled_comm(p: &ForcePipeline, nodes: usize) -> (f64, f64) {
    let c = &p.counters;
    let steps = c.steps.max(1) as f64;
    (
        c.import_bytes as f64 / steps,
        c.modeled_step_comm_us(&MachineConfig::with_nodes(nodes), nodes),
    )
}

// ---- core: the force pipeline, phase by phase -----------------------------

pub fn new_pipeline(sys: &System, nodes: usize, threads: usize) -> ForcePipeline {
    ForcePipeline::new(sys, decomposition(nodes), threads)
}

pub fn new_forces(sys: &System) -> RawForces {
    RawForces::zeroed(sys.n_atoms())
}

pub fn range_limited(p: &mut ForcePipeline, sys: &System, st: &FixedState, out: &mut RawForces) {
    out.clear();
    p.range_limited(sys, st, out);
}

pub fn invalidate_match_cache(p: &mut ForcePipeline) {
    p.invalidate_match_cache();
}

pub fn short_range(p: &mut ForcePipeline, sys: &System, st: &FixedState, out: &mut RawForces) {
    out.clear();
    p.short_range(sys, st, out);
}

pub fn long_range(p: &mut ForcePipeline, sys: &System, st: &FixedState, out: &mut RawForces) {
    out.clear();
    p.long_range(sys, st, out);
}

pub fn bonded(p: &ForcePipeline, sys: &System, st: &FixedState, out: &mut RawForces) {
    out.clear();
    p.bonded(sys, st, out);
}

pub fn corrections(p: &ForcePipeline, st: &FixedState, out: &mut RawForces) {
    out.clear();
    p.corrections(st, out);
}

pub fn decode_positions(sys: &System, st: &FixedState) -> Vec<Vec3> {
    st.decode_positions(&sys.pbox)
}

// ---- machine --------------------------------------------------------------

pub fn ppip_build(sys: &System) -> Ppip {
    Ppip::build(sys.params.ewald_beta(), sys.params.cutoff)
}

pub fn pair_batch(ppip: &Ppip, batch: &PairBatch, out: &mut [(f64, f64); MATCH_WIDTH]) {
    ppip.pair_batch(batch, out);
}

/// Full-mask batches of in-cutoff pairs drawn from the system's initial
/// configuration: what the match stage hands the evaluator, packed by the
/// harness so `Ppip::pair_batch` can be timed without gather or scatter.
pub fn pack_batches(sys: &System, batches: usize, seed: u64) -> Vec<PairBatch> {
    let top = &sys.topology;
    let n = sys.n_atoms() as u64;
    let rc2 = sys.params.cutoff * sys.params.cutoff;
    let mut x = seed | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut out = Vec::with_capacity(batches);
    let mut batch = PairBatch::EMPTY;
    let mut lane = 0;
    while out.len() < batches {
        let (i, j) = ((next() % n) as usize, (next() % n) as usize);
        let r2 = sys
            .pbox
            .min_image(sys.positions[i], sys.positions[j])
            .norm2();
        // Closer than 2 Å is an intramolecular (excluded) pair in these systems.
        if i == j || r2 >= rc2 || r2 < 4.0 {
            continue;
        }
        let (a, b) = top.lj_table.coeffs(top.lj_type[i], top.lj_type[j]);
        batch.r2_q20[lane] = (r2 * (1u64 << anton_machine::R2_FRAC) as f64) as i64;
        batch.qq[lane] = top.charge[i] * top.charge[j];
        batch.lj_a[lane] = a;
        batch.lj_b[lane] = b;
        batch.mask |= 1 << lane;
        lane += 1;
        if lane == MATCH_WIDTH {
            out.push(batch);
            batch = PairBatch::EMPTY;
            lane = 0;
        }
    }
    out
}

// ---- ewald / fft ----------------------------------------------------------

/// The mesh phase of one pipeline, driven stage by stage over all atoms.
pub struct MeshProbe {
    scratch: GseScratch,
    stencil: SupportScratch,
    atoms: Vec<u32>,
    forces: Vec<[i64; 3]>,
}

impl MeshProbe {
    pub fn new(sys: &System) -> MeshProbe {
        MeshProbe {
            scratch: GseScratch::default(),
            stencil: SupportScratch::default(),
            atoms: (0..sys.n_atoms() as u32).collect(),
            forces: vec![[0; 3]; sys.n_atoms()],
        }
    }

    pub fn spread(&mut self, p: &ForcePipeline, sys: &System, positions: &[Vec3]) {
        self.scratch.begin(p.gse.mesh.len());
        let view = MeshAtoms {
            positions,
            charges: &sys.topology.charge,
            atoms: &self.atoms,
        };
        p.gse
            .spread_into(view, &mut self.scratch.rho_q, &mut self.stencil);
    }

    /// The spread charge mesh as the FFT's input grid.
    pub fn charge_mesh_into(&self, out: &mut Vec<FxComplex>) {
        out.clear();
        out.extend(self.scratch.rho_q.iter().map(|&r| FxComplex::new(r, 0)));
    }

    pub fn transform(&mut self, p: &ForcePipeline) {
        p.gse.transform(&mut self.scratch);
    }

    pub fn interpolate(&mut self, p: &ForcePipeline, sys: &System, positions: &[Vec3]) -> i64 {
        let view = MeshAtoms {
            positions,
            charges: &sys.topology.charge,
            atoms: &self.atoms,
        };
        p.gse.interpolate_into(
            view,
            &self.scratch.phi_q,
            FORCE_FRAC,
            &mut self.forces,
            &mut self.stencil,
        )
    }
}

/// Mesh points one atom touches in spread or interpolation, computed from
/// the spreading cutoff and the mesh spacing (not counted at run time).
pub fn support_points_per_atom(p: &ForcePipeline) -> f64 {
    (0..3)
        .map(|axis| p.gse.mesh.support(0.0, p.gse.params.spread_cutoff, axis).1 as f64)
        .product()
}

pub fn mesh_dims(p: &ForcePipeline) -> [usize; 3] {
    p.gse.mesh.dims
}

pub fn charged_atoms(sys: &System) -> usize {
    sys.topology.charge.iter().filter(|&&q| q != 0.0).count()
}

pub fn fft_plan(mesh: [usize; 3], nodes: [usize; 3]) -> FxDistributedFft3d {
    FxDistributedFft3d::new(mesh, nodes)
}

pub fn fft_forward(fft: &FxDistributedFft3d, data: &mut [FxComplex], line: &mut Vec<FxComplex>) {
    fft.forward(data, line);
}

pub fn fft_messages(fft: &FxDistributedFft3d) -> u64 {
    fft.stats().messages_total()
}

// ---- ckpt -----------------------------------------------------------------

pub fn snapshot(sim: &AntonSimulation) -> Snapshot {
    sim.snapshot()
}

pub fn snapshot_encode(snap: &Snapshot) -> Vec<u8> {
    snap.encode()
}

pub fn store_create(dir: &Path, keep: usize) -> CheckpointStore {
    CheckpointStore::create(dir, keep).expect("create checkpoint store")
}

/// `CheckpointStore::write` (fsync included); returns the file size.
pub fn store_write(store: &CheckpointStore, snap: &Snapshot) -> u64 {
    store.write(snap).expect("write checkpoint").bytes
}

pub fn store_latest_valid(store: &CheckpointStore) -> Snapshot {
    store.latest_valid().expect("load checkpoint").1
}

// ---- analysis -------------------------------------------------------------

pub fn verifier_new(sim: &AntonSimulation) -> Verifier {
    Verifier::new(sim)
}

/// Run the full battery on the current state; returns violations so far.
pub fn verifier_sample(v: &mut Verifier, sim: &AntonSimulation) -> usize {
    v.sample(sim);
    v.violations().len()
}

pub fn reference_forces(sys: &System) -> Vec<Vec3> {
    anton_refmd::reference::reference_forces(sys, &sys.positions).0
}

pub fn rms_force_error(test: &[Vec3], reference: &[Vec3]) -> f64 {
    anton_refmd::reference::rms_force_error(test, reference)
}

// ---- fleet ----------------------------------------------------------------

fn job_spec(job: &Job) -> JobSpec {
    JobSpec {
        name: job.name.clone(),
        n_waters: job.waters,
        box_edge: job.edge,
        placement_seed: job.placement_seed,
        temperature_k: 300.0,
        velocity_seed: job.velocity_seed,
        cutoff: job.cutoff,
        mesh: job.mesh,
        cycles: job.cycles,
        priority: job.priority,
        nodes: 0,
        threads: 1,
    }
}

pub fn fleet_create(state_dir: &Path, quantum: u64, workers: usize, keep: usize) -> Fleet {
    let mut cfg = FleetConfig::new(state_dir);
    cfg.quantum = quantum;
    cfg.workers = workers;
    cfg.keep = keep;
    Fleet::create(cfg).expect("create fleet")
}

pub fn fleet_submit(fleet: &Fleet, job: &Job) {
    fleet.submit(job_spec(job)).expect("submit job");
}

/// `Fleet::run_to_completion`. A one-worker fleet drains on the calling
/// thread (the same `worker_loop` the call would spawn once): the host's
/// CPUs change speed independently, so the reference kernel is only a
/// yardstick for work done on the thread that samples it.
pub fn fleet_run_to_completion(fleet: &Fleet) {
    if fleet.config().workers <= 1 {
        fleet.worker_loop(RunMode::Drain);
    } else {
        fleet.run_to_completion();
    }
}

/// What `JobStatusView` says about one finished job.
pub struct JobResult {
    pub name: String,
    pub done: bool,
    pub violations: u64,
    pub final_checksum: u64,
    pub slices: u64,
    pub resumes: u64,
}

pub fn fleet_results(fleet: &Fleet) -> Vec<JobResult> {
    fleet
        .list()
        .into_iter()
        .map(|v| JobResult {
            name: v.name,
            done: v.phase == JobPhase::Done,
            violations: v.violations,
            final_checksum: v.final_checksum,
            slices: v.preemptions + 1,
            resumes: v.resumes,
        })
        .collect()
}

/// The engine a fleet slice builds for this job, before any cycle runs.
pub fn solo_build(job: &Job) -> AntonSimulation {
    job_spec(job).builder().expect("valid job spec").build()
}

pub fn steps_per_cycle(job: &Job) -> u64 {
    job_spec(job).steps_per_cycle()
}
