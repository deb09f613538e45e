//! The five workloads as plain data. `workload(name, seed)` is a pure
//! function: the engine only ever sees inputs generated from the seed.

/// How the chemical system is generated.
#[derive(Clone, Debug, PartialEq)]
pub enum SystemSpec {
    /// Pure TIP3P water in a cubic box, `RunParams::paper(cutoff, mesh)`.
    Water {
        waters: usize,
        edge: f64,
        cutoff: f64,
        mesh: usize,
        placement_seed: u64,
    },
    /// `table4_system(&TABLE4[1], seed)`: 23,558 atoms, 62.2 Å.
    Dhfr { seed: u64 },
}

/// One simulation configuration and the window of timed blocks a run
/// repeats on it.
///
/// A run builds the engine again for every pass over the window. Every
/// instance replays the same trajectory (same seed), so block `k` is
/// identical work in each; repeating the build gives `setup_s` its samples
/// and spreads the per-allocation page-placement luck over several draws.
#[derive(Clone, Debug, PartialEq)]
pub struct SimSpec {
    pub system: SystemSpec,
    /// Simulated nodes (0 = `SingleRank`).
    pub nodes: usize,
    pub threads: usize,
    pub velocity_seed: u64,
    pub warmup_cycles: usize,
    pub cycles_per_block: usize,
    /// Blocks in the window. The state FNV and the census are taken at its
    /// end, so they do not depend on the time budget.
    pub blocks: usize,
    /// Passes over the window a run makes however short its time budget.
    pub min_instances: usize,
    /// Samples of the once-per-run layer probes.
    pub probe_reps: usize,
    /// Kernel runs per reference sample (see `HostRef::configure`).
    pub ref_burst: usize,
}

/// One fleet job (a seeded waterbox; `nodes = 0`, `threads = 1`, 300 K).
#[derive(Clone, Debug, PartialEq)]
pub struct Job {
    pub name: String,
    pub waters: u32,
    pub edge: f64,
    pub cutoff: f64,
    pub mesh: u32,
    pub cycles: u64,
    pub priority: u32,
    pub placement_seed: u64,
    pub velocity_seed: u64,
}

/// A job set and the slicing rules of the fleet that runs it. One round =
/// fresh state directory, `Fleet::create`, all submits, `run_to_completion`.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetSpec {
    pub jobs: Vec<Job>,
    pub quantum: u64,
    pub keep: usize,
    pub min_rounds: usize,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Primary {
    Sim,
    Fleet,
}

/// A workload names the part the end-to-end metrics are measured on. The
/// other part is the fixed small input the `--trace 1` run uses to probe
/// the layers this workload does not exercise, so that every per-layer
/// metric exists on every workload.
#[derive(Clone, Debug, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    pub primary: Primary,
    pub sim: SimSpec,
    pub fleet: FleetSpec,
}

pub const NAMES: [&str; 5] = [
    "water_small",
    "water_ranks",
    "water_mesh",
    "dhfr",
    "fleet_churn",
];

const VELOCITY_SALT: u64 = 0x5eed_0000_0000_0001;

fn water_sim(
    seed: u64,
    mesh: usize,
    nodes: usize,
    threads: usize,
    cycles_per_block: usize,
) -> SimSpec {
    SimSpec {
        system: SystemSpec::Water {
            waters: 340,
            edge: 22.0,
            cutoff: 7.5,
            mesh,
            placement_seed: seed,
        },
        nodes,
        threads,
        velocity_seed: seed ^ VELOCITY_SALT,
        warmup_cycles: 4,
        cycles_per_block,
        blocks: 6,
        min_instances: 3,
        probe_reps: 5,
        ref_burst: 1,
    }
}

fn job(seed: u64, k: u64, waters: u32, edge: f64, priority: u32) -> Job {
    Job {
        name: format!("bench-{k}"),
        waters,
        edge,
        cutoff: 7.5,
        mesh: 16,
        cycles: 4,
        priority,
        placement_seed: seed.wrapping_mul(4).wrapping_add(k),
        velocity_seed: (seed ^ VELOCITY_SALT).wrapping_add(k),
    }
}

/// The service's job mix: four unequal boxes at two priorities, preempted
/// every 2 of their 4 cycles, so a round is 8 slices of which 4 resume a
/// checkpoint. Short jobs keep a round near 1 s: the host changes speed
/// every few seconds, and a round it changes inside cannot be normalised.
fn churn_fleet(seed: u64) -> FleetSpec {
    FleetSpec {
        jobs: vec![
            job(seed, 0, 200, 19.0, 1),
            job(seed, 1, 240, 20.0, 0),
            job(seed, 2, 280, 21.0, 1),
            job(seed, 3, 240, 20.0, 0),
        ],
        quantum: 2,
        keep: 2,
        min_rounds: 2,
    }
}

/// One round of the first two churn jobs: enough to give the fleet layer's
/// unit costs on workloads that are not about the fleet.
fn probe_fleet(seed: u64) -> FleetSpec {
    let mut fleet = churn_fleet(seed);
    fleet.jobs.truncate(2);
    fleet.min_rounds = 1;
    fleet
}

pub fn workload(name: &str, seed: u64) -> Option<Workload> {
    let sim_workload = |name, sim| Workload {
        name,
        primary: Primary::Sim,
        sim,
        fleet: probe_fleet(seed),
    };
    Some(match name {
        "water_small" => sim_workload("water_small", water_sim(seed, 16, 0, 1, 10)),
        "water_ranks" => sim_workload("water_ranks", water_sim(seed, 16, 8, 2, 10)),
        "water_mesh" => sim_workload("water_mesh", water_sim(seed, 32, 0, 1, 5)),
        "dhfr" => sim_workload(
            "dhfr",
            SimSpec {
                system: SystemSpec::Dhfr { seed },
                nodes: 0,
                threads: 1,
                velocity_seed: seed ^ VELOCITY_SALT,
                warmup_cycles: 0,
                cycles_per_block: 1,
                blocks: 1,
                min_instances: 3,
                probe_reps: 1,
                ref_burst: 3,
            },
        ),
        "fleet_churn" => {
            let fleet = churn_fleet(seed);
            let first = &fleet.jobs[0];
            Workload {
                name: "fleet_churn",
                primary: Primary::Fleet,
                // The engine a slice of job 0 builds, probed like any other.
                sim: SimSpec {
                    system: SystemSpec::Water {
                        waters: first.waters as usize,
                        edge: first.edge,
                        cutoff: first.cutoff,
                        mesh: first.mesh as usize,
                        placement_seed: first.placement_seed,
                    },
                    nodes: 0,
                    threads: 1,
                    velocity_seed: first.velocity_seed,
                    warmup_cycles: 0,
                    cycles_per_block: 2,
                    blocks: 3,
                    min_instances: 2,
                    probe_reps: 5,
                    ref_burst: 1,
                },
                fleet,
            }
        }
        _ => return None,
    })
}

/// `water_ranks` must reproduce `water_small` bit for bit; this is the
/// configuration its trajectory is checked against.
pub fn single_rank_twin(sim: &SimSpec) -> SimSpec {
    SimSpec {
        nodes: 0,
        threads: 1,
        ..sim.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_is_a_pure_function_of_name_and_seed() {
        for name in NAMES {
            assert_eq!(workload(name, 42), workload(name, 42));
            assert_ne!(workload(name, 42), workload(name, 7), "{name}");
        }
        assert!(workload("nope", 42).is_none());
    }

    #[test]
    fn ranks_and_small_differ_only_in_decomposition() {
        let small = workload("water_small", 9).unwrap().sim;
        let ranks = workload("water_ranks", 9).unwrap().sim;
        assert_ne!(small, ranks);
        assert_eq!(single_rank_twin(&ranks), small);
    }
}
