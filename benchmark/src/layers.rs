//! The outside-timed per-layer ledger of a simulation workload.
//!
//! Every probe is a call into a public function of one layer, wrapped in a
//! span named after the metric it feeds. Force-pipeline probes run against
//! harness-owned pipelines fed the measured simulation's state, so probing
//! never touches the simulation's own match cache or counters.

use crate::api::{self, Census};
use crate::host::scale;
use crate::report::Metrics;
use crate::stats::median;
use crate::workloads::SimSpec;
use crate::Ctx;
use std::path::PathBuf;

/// Batches handed to `Ppip::pair_batch` per probe (32 Ki lanes).
const PACKED_BATCHES: usize = 4096;
/// Simulated nodes of the fan-out probes and of the exact traffic counts.
const POOL_NODES: usize = 8;

pub struct Probes {
    sys: api::System,
    spec: SimSpec,
    /// Pipeline under the workload's decomposition and thread count.
    workload_pipe: api::ForcePipeline,
    /// Serial pipeline: bonded, corrections and the mesh stages, which
    /// only have whole-system entry points on a single rank.
    serial_pipe: api::ForcePipeline,
    out: api::RawForces,
    mesh: api::MeshProbe,
    fft: api::FxDistributedFft3d,
    fft_data: Vec<api::FxComplex>,
    fft_line: Vec<api::FxComplex>,
    ppip: api::Ppip,
    batches: Vec<api::PairBatch>,
    ckpt_dir: PathBuf,
    store: api::CheckpointStore,
    ckpt_bytes: u64,
    /// Census deltas of each sample's rebuild and of its warm evaluation.
    rebuilds: Vec<Census>,
    evaluations: Vec<Census>,
}

impl Probes {
    pub fn new(ctx: &Ctx, sys: &api::System, spec: &SimSpec) -> Probes {
        let serial_pipe = api::new_pipeline(sys, 0, 1);
        let mesh_dims = api::mesh_dims(&serial_pipe);
        let ckpt_dir = ctx.scratch_dir("ckpt-probe");
        Probes {
            sys: sys.clone(),
            spec: spec.clone(),
            workload_pipe: api::new_pipeline(sys, spec.nodes, spec.threads),
            serial_pipe,
            out: api::new_forces(sys),
            mesh: api::MeshProbe::new(sys),
            fft: api::fft_plan(mesh_dims, [1, 1, 1]),
            fft_data: Vec::new(),
            fft_line: Vec::new(),
            ppip: api::ppip_build(sys),
            batches: api::pack_batches(sys, PACKED_BATCHES, spec.velocity_seed),
            store: api::store_create(&ckpt_dir, 2),
            ckpt_dir,
            ckpt_bytes: 0,
            rebuilds: Vec::new(),
            evaluations: Vec::new(),
        }
    }

    /// One sample of every per-block probe at the simulation's current state.
    pub fn sample(&mut self, ctx: &mut Ctx, sim: &api::AntonSimulation) {
        let (sys, state) = (&self.sys, &sim.state);
        if self.rebuilds.is_empty() {
            // The first evaluation of a pipeline grows its batch storage
            // (0.6 GB on `dhfr`); a steady-state rebuild does not.
            api::range_limited(&mut self.workload_pipe, sys, state, &mut self.out);
        }
        let r0 = ctx.host.sample();
        let block = ctx.rec.open("probes");

        // core: rebuild + evaluate first, so the second call is a pure
        // evaluation on a cache that is warm at exactly this state.
        api::invalidate_match_cache(&mut self.workload_pipe);
        let c0 = api::census(&self.workload_pipe);
        let s = ctx.rec.open("core.rebuild_evaluate");
        api::range_limited(&mut self.workload_pipe, sys, state, &mut self.out);
        ctx.rec.close(s);
        let c1 = api::census(&self.workload_pipe);
        let s = ctx.rec.open("core.evaluate");
        api::range_limited(&mut self.workload_pipe, sys, state, &mut self.out);
        ctx.rec.close(s);
        let c2 = api::census(&self.workload_pipe);
        self.rebuilds.push(c1.since(&c0));
        self.evaluations.push(c2.since(&c1));

        let s = ctx.rec.open("core.long_range");
        api::long_range(&mut self.workload_pipe, sys, state, &mut self.out);
        ctx.rec.close(s);
        let s = ctx.rec.open("core.bonded");
        api::bonded(&self.serial_pipe, sys, state, &mut self.out);
        ctx.rec.close(s);
        let s = ctx.rec.open("core.corrections");
        api::corrections(&self.serial_pipe, state, &mut self.out);
        ctx.rec.close(s);

        // ewald: the three stages of the mesh phase, all atoms on one rank.
        let positions = api::decode_positions(sys, state);
        let s = ctx.rec.open("ewald.spread");
        self.mesh.spread(&self.serial_pipe, sys, &positions);
        ctx.rec.close(s);
        self.mesh.charge_mesh_into(&mut self.fft_data);
        let s = ctx.rec.open("ewald.transform");
        self.mesh.transform(&self.serial_pipe);
        ctx.rec.close(s);
        let s = ctx.rec.open("ewald.interpolate");
        std::hint::black_box(self.mesh.interpolate(&self.serial_pipe, sys, &positions));
        ctx.rec.close(s);

        // fft: one forward transform of the spread charge mesh.
        let s = ctx.rec.open("fft.forward");
        api::fft_forward(&self.fft, &mut self.fft_data, &mut self.fft_line);
        ctx.rec.close(s);

        // machine: the evaluator alone, on pre-packed batches.
        let mut lanes = [(0.0, 0.0); api::MATCH_WIDTH];
        let s = ctx.rec.open("machine.pair_batch");
        for batch in &self.batches {
            api::pair_batch(&self.ppip, batch, &mut lanes);
            std::hint::black_box(&lanes);
        }
        ctx.rec.close(s);

        // ckpt: encode, durable write, verified load of this state.
        let snap = api::snapshot(sim);
        let s = ctx.rec.open("ckpt.encode");
        std::hint::black_box(api::snapshot_encode(&snap));
        ctx.rec.close(s);
        let s = ctx.rec.open("ckpt.write");
        self.ckpt_bytes = api::store_write(&self.store, &snap);
        ctx.rec.close(s);
        let s = ctx.rec.open("ckpt.load");
        std::hint::black_box(api::store_latest_valid(&self.store));
        ctx.rec.close(s);

        let r1 = ctx.host.sample();
        ctx.rec.close_block(block, scale(r0, r1));
    }

    /// The once-per-run probes, on the final simulation of the run. Needs
    /// at least one `sample` before it (resume reads that checkpoint).
    /// Returns the battery's violation count.
    pub fn once(&mut self, ctx: &mut Ctx, sim: &api::AntonSimulation) -> usize {
        let mut violations = 0;
        ctx.host.configure(self.spec.threads, self.spec.ref_burst);
        for _ in 0..self.spec.probe_reps {
            let sys = self.sys.clone();
            let r0 = ctx.host.sample();
            let block = ctx.rec.open("probes.once");
            let s = ctx.rec.open("machine.ppip_build");
            std::hint::black_box(api::ppip_build(&self.sys));
            ctx.rec.close(s);
            let s = ctx.rec.open("core.resume");
            let resumed = api::resume_sim(sys, &self.spec, &self.ckpt_dir);
            ctx.rec.close(s);
            drop(resumed);
            let s = ctx.rec.open("analysis.verifier_build");
            let mut verifier = api::verifier_new(sim);
            ctx.rec.close(s);
            let s = ctx.rec.open("analysis.sample");
            violations += api::verifier_sample(&mut verifier, sim);
            ctx.rec.close(s);
            let r1 = ctx.host.sample();
            ctx.rec.close_block(block, scale(r0, r1));
        }
        violations
    }

    /// Fan-out probes: the same `Nodes(8)` pipeline at one thread and at
    /// two, two short-range evaluations per long-range one as in a RESPA
    /// cycle, all at one fixed state so the traffic counts are exact.
    pub fn pool(&mut self, ctx: &mut Ctx, state: &api::FixedState, m: &mut Metrics) {
        let sys = &self.sys;
        let mut one = api::new_pipeline(sys, POOL_NODES, 1);
        let mut two = api::new_pipeline(sys, POOL_NODES, 2);
        ctx.host.configure(1, self.spec.ref_burst);
        // Fill both match caches outside the timed spans.
        api::short_range(&mut one, sys, state, &mut self.out);
        api::short_range(&mut two, sys, state, &mut self.out);
        for _ in 0..self.spec.probe_reps {
            let r0 = ctx.host.sample();
            let block = ctx.rec.open("probes.pool");
            for (pipe, short, long) in [
                (&mut one, "core.pool.short_1t", "core.pool.long_1t"),
                (&mut two, "core.pool.short_2t", "core.pool.long_2t"),
            ] {
                let s = ctx.rec.open(short);
                api::short_range(pipe, sys, state, &mut self.out);
                api::short_range(pipe, sys, state, &mut self.out);
                ctx.rec.close(s);
                let s = ctx.rec.open(long);
                api::long_range(pipe, sys, state, &mut self.out);
                ctx.rec.close(s);
            }
            let r1 = ctx.host.sample();
            ctx.rec.close_block(block, scale(r0, r1));
        }
        let med = |name: &str| median(&ctx.rec.durations_ms(name));
        m.set(
            "core.pool.short_range_speedup",
            med("core.pool.short_1t") / med("core.pool.short_2t"),
        );
        m.set(
            "core.pool.long_range_speedup",
            med("core.pool.long_1t") / med("core.pool.long_2t"),
        );
        let (import_bytes, comm_us) = api::modelled_comm(&two, POOL_NODES);
        m.set("nt.import_bytes_per_step", import_bytes);
        m.set("machine.modeled_comm_us_per_step", comm_us);
    }

    /// Medians of the per-block and once-per-run spans, and the unit costs
    /// they give when divided by the census deltas taken beside them.
    pub fn report(&self, ctx: &Ctx, m: &mut Metrics) {
        let ms = |name: &str| ctx.rec.durations_ms(name);
        let med = |name: &str| median(&ms(name));
        let per = |times: &[f64], counts: Vec<f64>| -> f64 {
            let unit: Vec<f64> = times.iter().zip(counts).map(|(t, n)| t * 1e6 / n).collect();
            median(&unit)
        };

        let evaluate = ms("core.evaluate");
        let lanes: Vec<f64> = self.evaluations.iter().map(|c| c.lanes() as f64).collect();
        m.set("core.evaluate_ms", median(&evaluate));
        m.set("core.evaluate_ns_per_lane", per(&evaluate, lanes));

        // A rebuild is what `invalidate + range_limited` costs beyond the
        // evaluation it ends with.
        let rebuild: Vec<f64> = ms("core.rebuild_evaluate")
            .iter()
            .zip(&evaluate)
            .map(|(both, eval)| both - eval)
            .collect();
        let candidates: Vec<f64> = self.rebuilds.iter().map(|c| c.candidates as f64).collect();
        m.set("core.match_rebuild_ms", median(&rebuild));
        m.set(
            "core.match_ns_per_candidate",
            per(&rebuild, candidates.clone()),
        );
        m.set("core.candidates_per_rebuild", median(&candidates));
        let keep: Vec<f64> = self
            .rebuilds
            .iter()
            .map(|c| c.lanes() as f64 / c.candidates as f64)
            .collect();
        m.set("core.match_keep_frac", median(&keep));

        m.set("core.long_range_ms", med("core.long_range"));
        m.set("core.bonded_ms", med("core.bonded"));
        m.set("core.corrections_ms", med("core.corrections"));

        let support = api::support_points_per_atom(&self.serial_pipe);
        let points = api::charged_atoms(&self.sys) as f64 * support;
        let n = evaluate.len();
        m.set("ewald.support_points_per_atom", support);
        m.set("ewald.spread_ms", med("ewald.spread"));
        m.set(
            "ewald.spread_ns_per_point",
            per(&ms("ewald.spread"), vec![points; n]),
        );
        m.set("ewald.interpolate_ms", med("ewald.interpolate"));
        m.set(
            "ewald.interpolate_ns_per_point",
            per(&ms("ewald.interpolate"), vec![points; n]),
        );
        m.set("ewald.transform_ms", med("ewald.transform"));

        let dims = api::mesh_dims(&self.serial_pipe);
        let mesh_points = dims.iter().product::<usize>() as f64;
        m.set("fft.forward_ms", med("fft.forward"));
        m.set(
            "fft.ns_per_point",
            per(&ms("fft.forward"), vec![mesh_points; n]),
        );
        m.set(
            "fft.dist_messages_per_transform",
            api::fft_messages(&api::fft_plan(dims, [2, 2, 2])) as f64,
        );

        let packed_lanes = (self.batches.len() * api::MATCH_WIDTH) as f64;
        m.set(
            "machine.pair_batch_ns_per_lane",
            per(&ms("machine.pair_batch"), vec![packed_lanes; n]),
        );
        m.set("machine.ppip_build_ms", med("machine.ppip_build"));

        m.set("ckpt.encode_ms", med("ckpt.encode"));
        m.set("ckpt.write_ms", med("ckpt.write"));
        m.set("ckpt.load_ms", med("ckpt.load"));
        m.set("ckpt.bytes", self.ckpt_bytes as f64);

        m.set("core.resume_ms", med("core.resume"));
        m.set("analysis.verifier_build_ms", med("analysis.verifier_build"));
        m.set("analysis.sample_ms", med("analysis.sample"));
    }
}
