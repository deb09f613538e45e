//! Preemption invariance: the fleet's checkpoint-preemptive time-slicing
//! must not change a single bit of any job's trajectory.
//!
//! For every (quantum, workers) point in the acceptance grid — quantum ∈
//! {1, 3, 7} × workers ∈ {1, 4} — every job a fleet drains must end at
//! exactly the state checksum of an uninterrupted solo run of the same
//! spec, with a clean analysis battery. A seeded random-spec sweep then
//! varies the physics knobs (box, seeds, temperature, priorities, thread
//! counts) to show the property is not an artifact of one hand-picked
//! workload.

use anton_fleet::{Fleet, FleetConfig, JobPhase, JobSpec};

fn solo_checksum(spec: &JobSpec) -> u64 {
    let mut sim = spec.builder().unwrap().build();
    sim.run_cycles(spec.cycles as usize);
    sim.state.checksum()
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("anton-fleet-preempt-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn drain(specs: &[JobSpec], quantum: u64, workers: usize, tag: &str) -> Vec<(JobSpec, u64, u64)> {
    let mut cfg = FleetConfig::new(temp_dir(tag));
    cfg.quantum = quantum;
    cfg.workers = workers;
    let fleet = Fleet::create(cfg).unwrap();
    for s in specs {
        let (_, fresh, _) = fleet.submit(s.clone()).unwrap();
        assert!(fresh, "{}: duplicate spec in test corpus", s.name);
    }
    fleet.run_to_completion();
    let out = specs
        .iter()
        .map(|s| {
            let v = fleet.status(s.job_id()).unwrap();
            assert_eq!(v.phase, JobPhase::Done, "{} did not finish", s.name);
            assert_eq!(v.cycles_done, s.cycles, "{} cycle count", s.name);
            (s.clone(), v.final_checksum, v.violations)
        })
        .collect();
    let _ = std::fs::remove_dir_all(&fleet.config().state_dir);
    out
}

fn base_spec(name: &str, cycles: u64, priority: u32) -> JobSpec {
    JobSpec {
        name: name.into(),
        n_waters: 24,
        box_edge: 14.0,
        placement_seed: 4,
        temperature_k: 300.0,
        velocity_seed: 11,
        cutoff: 6.5,
        mesh: 16,
        cycles,
        priority,
        nodes: 0,
        threads: 1,
    }
}

/// The acceptance grid: quantum {1,3,7} × workers {1,4}, two jobs with
/// different lengths and priorities, every cell bitwise-equal to solo.
#[test]
fn preemption_invariance_grid() {
    let specs = [base_spec("grid-a", 7, 1), base_spec("grid-b", 4, 3)];
    let goldens: Vec<u64> = specs.iter().map(solo_checksum).collect();
    for &quantum in &[1u64, 3, 7] {
        for &workers in &[1usize, 4] {
            let tag = format!("grid-q{quantum}-w{workers}");
            for ((spec, checksum, violations), golden) in
                drain(&specs, quantum, workers, &tag).iter().zip(&goldens)
            {
                assert_eq!(
                    checksum, golden,
                    "{}: quantum {quantum} workers {workers} diverged from solo",
                    spec.name
                );
                assert_eq!(*violations, 0, "{}: battery violations", spec.name);
            }
        }
    }
}

/// Preemption/resume counters are a pure function of (cycles, quantum) —
/// never of the worker count or interleaving.
#[test]
fn slice_counters_are_schedule_invariant() {
    let specs = [base_spec("count-a", 5, 0), base_spec("count-b", 3, 2)];
    for &workers in &[1usize, 4] {
        let quantum = 2u64;
        let mut cfg = FleetConfig::new(temp_dir(&format!("count-w{workers}")));
        cfg.quantum = quantum;
        cfg.workers = workers;
        let fleet = Fleet::create(cfg).unwrap();
        for s in &specs {
            fleet.submit(s.clone()).unwrap();
        }
        fleet.run_to_completion();
        for s in &specs {
            let v = fleet.status(s.job_id()).unwrap();
            let slices = s.cycles.div_ceil(quantum);
            assert_eq!(v.preemptions, slices - 1, "{} workers={workers}", s.name);
            assert_eq!(v.resumes, slices - 1, "{} workers={workers}", s.name);
        }
        let _ = std::fs::remove_dir_all(&fleet.config().state_dir);
    }
}

/// SplitMix64: the workspace-standard deterministic test stream.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seeded property sweep: random small specs (varying seeds, box sizes,
/// temperatures, priorities, thread counts), random quantum, two workers —
/// every draw must match its solo run bit-for-bit.
#[test]
fn preemption_invariance_random_specs() {
    let mut rng = 0x0005_eedf_1ee7_u64;
    for round in 0..3u32 {
        let specs: Vec<JobSpec> = (0..2)
            .map(|i| {
                let r = splitmix(&mut rng);
                JobSpec {
                    name: format!("rand-{round}-{i}"),
                    n_waters: 16 + (r % 16) as u32,
                    box_edge: 13.5 + (r >> 8 & 3) as f64 * 0.5,
                    placement_seed: splitmix(&mut rng),
                    temperature_k: 280.0 + (r >> 16 & 63) as f64,
                    velocity_seed: splitmix(&mut rng),
                    cutoff: 6.0,
                    mesh: 16,
                    cycles: 2 + (r >> 24 & 3),
                    priority: (r >> 32 & 7) as u32,
                    nodes: 0,
                    threads: 1 + (r >> 40 & 1) as u32,
                }
            })
            .collect();
        let quantum = 1 + splitmix(&mut rng) % 3;
        let goldens: Vec<u64> = specs.iter().map(solo_checksum).collect();
        let tag = format!("rand-{round}");
        for ((spec, checksum, violations), golden) in
            drain(&specs, quantum, 2, &tag).iter().zip(&goldens)
        {
            assert_eq!(
                checksum, golden,
                "{}: random spec diverged from solo (quantum {quantum})",
                spec.name
            );
            assert_eq!(*violations, 0, "{}: battery violations", spec.name);
        }
    }
}
