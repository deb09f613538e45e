//! Checkpoint-preemptive scheduling: a worker pool time-slices many
//! simulations through quantum-of-cycles slices.
//!
//! **Preemption mechanism.** A job never holds a worker longer than one
//! quantum. Each slice continues the job from the first of: the
//! *resident* engine — the one this worker ran the job's previous slice
//! on, kept while nothing else advanced the job — else the newest valid
//! checkpoint in the job's own store (rebuilding the engine purely from
//! its spec), else a fresh build. It runs `min(quantum, remaining)` outer
//! cycles and writes a checkpoint. Because engine resume is bitwise exact
//! (DESIGN.md §12) and the engine configuration is a pure function of the
//! spec, the resident engine and a store resume are the same engine, and
//! the trajectory a job traces is **identical for every quantum, worker
//! count, and interleaving** — scheduling decides only *when* the cycles
//! run, never *what* they compute. A worker keeps at most one engine, and
//! none while it is parked.
//!
//! **Crash safety.** Every slice writes its checkpoint, resident or not, so
//! the only authority on a job's progress — and on its census, the
//! engine's `ExchangeCounters` the checkpoint carries — is its newest valid
//! checkpoint.
//! The persisted queue record is a (possibly slightly stale) index — if
//! the daemon dies between a slice's checkpoint write and its queue
//! commit, recovery resumes from the checkpoint and the record catches up
//! at the next commit. Nothing is lost; at worst a tail of cycles is re-run
//! bitwise-identically from the last checkpoint.

use crate::error::FleetError;
use crate::queue::{JobPhase, JobRecord, JobStatusView, QueueState, QueueStore};
use crate::spec::{JobId, JobSpec};
use anton_analysis::battery::Verifier;
use anton_ckpt::{CheckpointStore, CkptError, Snapshot};
use anton_core::{AntonSimulation, ExchangeCounters};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::{Condvar, Mutex, MutexGuard};

/// How a fleet instance is laid out and sliced.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Root of all durable state: `<state_dir>/queue` holds the queue
    /// snapshots, `<state_dir>/jobs/<id>` each job's checkpoint store.
    pub state_dir: PathBuf,
    /// Outer cycles per slice before a job is preempted (min 1).
    pub quantum: u64,
    /// Concurrent slice workers (min 1).
    pub workers: usize,
    /// Rotated checkpoints kept per job.
    pub keep: usize,
}

impl FleetConfig {
    /// Most slice workers a fleet may run, each an OS thread: the cap
    /// [`JobSpec`] puts on one job's pool.
    pub const MAX_WORKERS: usize = JobSpec::MAX_THREADS as usize;

    pub fn new(state_dir: impl Into<PathBuf>) -> FleetConfig {
        FleetConfig {
            state_dir: state_dir.into(),
            quantum: 4,
            workers: 1,
            keep: 3,
        }
    }

    /// Checkpoint-store directory of one job.
    pub fn job_dir(&self, id: JobId) -> PathBuf {
        self.state_dir.join("jobs").join(format!("{id}"))
    }

    fn queue_dir(&self) -> PathBuf {
        self.state_dir.join("queue")
    }

    /// Refuse a layout no fleet may run: more workers than
    /// [`Self::MAX_WORKERS`].
    pub fn validate(&self) -> Result<(), FleetError> {
        if self.workers > Self::MAX_WORKERS {
            return Err(FleetError::TooManyWorkers {
                workers: self.workers,
                max: Self::MAX_WORKERS,
            });
        }
        Ok(())
    }
}

/// Worker termination policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunMode {
    /// Exit when every job is done (batch: `Fleet::run_to_completion`).
    Drain,
    /// Park when idle and wait for submissions until [`Fleet::stop`].
    Serve,
}

/// What one slice did, computed entirely outside the queue lock.
struct SliceOutcome {
    cycles_done: u64,
    done: bool,
    resumed: bool,
    /// The slice built its engine, fresh or from the store, rather than
    /// continuing the worker's resident one.
    built: bool,
    ckpt_bytes: u64,
    final_checksum: u64,
    violations: u64,
    battery_samples: u64,
}

/// Mutable scheduler state, always accessed under the fleet lock.
struct Inner {
    queue: QueueState,
    /// Jobs currently out on a worker (in-memory only; never persisted).
    running: BTreeSet<JobId>,
    /// Jobs whose last slice failed for environmental reasons; excluded
    /// from claiming until a restart (in-memory only, so a restart
    /// retries them — right for transient I/O failures).
    failed: BTreeSet<JobId>,
    stopping: bool,
}

/// A fleet: the shared queue, its durable store, and the slicing rules.
/// Clone-free sharing is by reference (`std::thread::scope`).
pub struct Fleet {
    cfg: FleetConfig,
    store: QueueStore,
    inner: Mutex<Inner>,
    cv: Condvar,
}

impl Fleet {
    /// Open (and recover) a fleet rooted at `cfg.state_dir`. Recovery
    /// takes the newest valid queue snapshot — a corrupted newest file
    /// falls back to the previous one — and reconciles each unfinished
    /// job's progress against its own checkpoint store, which is the
    /// authority after a crash. A config that fails
    /// [`FleetConfig::validate`] is refused before anything is touched.
    pub fn create(cfg: FleetConfig) -> Result<Fleet, FleetError> {
        cfg.validate()?;
        let store = QueueStore::create(cfg.queue_dir())?;
        let mut queue = store.recover()?.unwrap_or_default();
        for (id, rec) in queue.jobs.iter_mut() {
            if rec.phase == JobPhase::Done {
                continue;
            }
            if let Some(snap) = newest_checkpoint(&cfg, *id) {
                rec.cycles_done = snap.step / rec.spec.steps_per_cycle().max(1);
            }
        }
        Ok(Fleet {
            cfg,
            store,
            inner: Mutex::new(Inner {
                queue,
                running: BTreeSet::new(),
                failed: BTreeSet::new(),
                stopping: false,
            }),
            cv: Condvar::new(),
        })
    }

    pub fn config(&self) -> &FleetConfig {
        &self.cfg
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // A panicking worker must not wedge the daemon: the queue state is
        // persisted transactionally, so the data is consistent regardless.
        self.inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Validate and enqueue a job; idempotent on identical specs. Returns
    /// (id, freshly inserted, position in the deterministic schedule). A
    /// job is queued only once it is persisted: when the persist fails the
    /// insert is rolled back, so `Err` means "not queued" and a retry is
    /// fresh.
    pub fn submit(&self, spec: JobSpec) -> Result<(JobId, bool, u64), FleetError> {
        let mut g = self.lock();
        let (id, fresh) = g.queue.submit(spec)?;
        if fresh {
            g.queue.revision += 1;
            if let Err(e) = self.store.persist(&g.queue) {
                g.queue.jobs.remove(&id);
                g.queue.revision -= 1;
                return Err(e);
            }
            self.cv.notify_all();
        }
        let position = g.queue.position(id).unwrap_or(0);
        Ok((id, fresh, position))
    }

    pub fn status(&self, id: JobId) -> Result<JobStatusView, FleetError> {
        self.lock().queue.view(id)
    }

    pub fn list(&self) -> Vec<JobStatusView> {
        self.lock().queue.views()
    }

    /// A job's status and its census: the engine's exchange counters at
    /// the job's newest valid checkpoint (zeros before its first slice),
    /// read outside the queue lock. The census is a pure function of the
    /// spec and the cycles run, the same for every slicing of the job.
    pub fn summary(&self, id: JobId) -> Result<(JobStatusView, ExchangeCounters), FleetError> {
        let view = self.status(id)?;
        let Some(snap) = newest_checkpoint(&self.cfg, id) else {
            return Ok((view, ExchangeCounters::default()));
        };
        let counters =
            ExchangeCounters::from_words(&snap.counters).ok_or(CkptError::LengthMismatch {
                what: "checkpoint exchange counters",
                expected: ExchangeCounters::WORDS as u64,
                got: snap.counters.len() as u64,
            })?;
        Ok((view, counters))
    }

    /// (total jobs, queue revision) — the liveness headline.
    pub fn ping(&self) -> (u64, u64) {
        let g = self.lock();
        (g.queue.jobs.len() as u64, g.queue.revision)
    }

    /// Ask every worker to wind down after its current slice.
    pub fn stop(&self) {
        self.lock().stopping = true;
        self.cv.notify_all();
    }

    /// First claimable job in schedule order: queued, not out on a
    /// worker, not failed. Pure function of the (set-derived) schedule
    /// order and the claim set — so with one worker the execution order
    /// *is* the schedule order, and with N workers the claim sequence is
    /// still deterministic even though slice completion order is not
    /// (harmless: trajectories do not depend on interleaving).
    fn claimable(g: &Inner) -> Option<JobId> {
        g.queue
            .runnable()
            .into_iter()
            .find(|id| !g.running.contains(id) && !g.failed.contains(id))
    }

    /// One worker: claim → slice → commit, until the mode says stop.
    pub fn worker_loop(&self, mode: RunMode) {
        // The engine of the job this worker sliced last, while that job is
        // preempted: continuing it on the next claim skips the rebuild, the
        // checkpoint read and the force refresh.
        let mut resident: Option<(JobId, AntonSimulation)> = None;
        loop {
            // Claim under the lock.
            let claim = {
                let mut g = self.lock();
                loop {
                    if g.stopping {
                        break None;
                    }
                    if let Some(id) = Self::claimable(&g) {
                        g.running.insert(id);
                        let rec = g.queue.jobs.get_mut(&id).unwrap();
                        rec.phase = JobPhase::Running;
                        break Some((id, rec.spec.clone(), rec.cycles_done));
                    }
                    if mode == RunMode::Drain && g.running.is_empty() {
                        break None; // every job done (or failed): drained
                    }
                    if resident.is_some() {
                        // Park empty-handed: free the engine outside the
                        // lock, then look again.
                        drop(g);
                        resident = None;
                        g = self.lock();
                        continue;
                    }
                    g = self
                        .cv
                        .wait(g)
                        .unwrap_or_else(|poisoned| poisoned.into_inner());
                }
            };
            let Some((id, spec, cycles_done)) = claim else {
                self.cv.notify_all();
                return;
            };

            // Slice outside the lock: this is the long part.
            let kept = reusable(resident.take(), id, cycles_done);
            let outcome = run_job_slice(&self.cfg, id, &spec, kept);

            // Commit under the lock.
            let mut g = self.lock();
            g.running.remove(&id);
            match outcome {
                Ok((out, sim)) => {
                    let rec = g.queue.jobs.get_mut(&id).unwrap();
                    apply_outcome(rec, &out);
                    g.queue.revision += 1;
                    let persist = self.store.persist(&g.queue);
                    drop(g);
                    if let Err(e) = persist {
                        eprintln!("fleet: queue persist failed: {e}");
                    }
                    if !out.done {
                        resident = Some((id, sim));
                    }
                }
                Err(e) => {
                    eprintln!("fleet: slice for job {id} failed: {e}");
                    g.queue.jobs.get_mut(&id).unwrap().phase = JobPhase::Queued;
                    g.failed.insert(id);
                    drop(g);
                }
            }
            self.cv.notify_all();
        }
    }

    /// Batch mode: run `cfg.workers` workers until every job is done.
    pub fn run_to_completion(&self) {
        let n = self.cfg.workers.max(1);
        #[expect(
            clippy::disallowed_methods,
            reason = "D5: workers run whole jobs, each a single-threaded deterministic engine; no value merges across threads"
        )]
        std::thread::scope(|s| {
            for _ in 0..n {
                s.spawn(|| self.worker_loop(RunMode::Drain));
            }
        });
    }
}

/// Fold a slice outcome into the job's persistent record.
fn apply_outcome(rec: &mut JobRecord, out: &SliceOutcome) {
    rec.cycles_done = out.cycles_done;
    rec.ckpt_bytes = out.ckpt_bytes;
    if out.resumed {
        rec.resumes += 1;
    }
    rec.engine_builds += u64::from(out.built);
    if out.done {
        rec.phase = JobPhase::Done;
        rec.final_checksum = out.final_checksum;
        rec.violations = out.violations;
        rec.battery_samples = out.battery_samples;
    } else {
        rec.phase = JobPhase::Queued;
        rec.preemptions += 1;
    }
}

/// The job's newest checkpoint that verifies, or `None` before its first
/// slice: the authority on its progress and its census.
fn newest_checkpoint(cfg: &FleetConfig, id: JobId) -> Option<Snapshot> {
    CheckpointStore::open(cfg.job_dir(id), cfg.keep.max(1))
        .latest_valid()
        .ok()
        .map(|(_, snap)| snap)
}

/// The resident engine, if it may continue the claimed job: it must be
/// that job's, at the progress the queue records for it. Otherwise the job
/// moved to another worker, which advanced it, and the engine is stale.
fn reusable(
    resident: Option<(JobId, AntonSimulation)>,
    id: JobId,
    cycles_done: u64,
) -> Option<AntonSimulation> {
    resident
        .filter(|(rid, sim)| *rid == id && sim.cycle_count() == cycles_done)
        .map(|(_, sim)| sim)
}

/// Run one quantum of one job and hand back its engine. `kept` is this
/// worker's engine from the job's previous slice ([`reusable`]); without
/// one, progress is read from the job's checkpoint store, never from the
/// caller's bookkeeping.
fn run_job_slice(
    cfg: &FleetConfig,
    id: JobId,
    spec: &JobSpec,
    kept: Option<AntonSimulation>,
) -> Result<(SliceOutcome, AntonSimulation), FleetError> {
    // The slice's one store, written once at the end; read for the newest
    // checkpoint that verifies only when no engine was kept (none means
    // this is the job's first slice).
    let store = CheckpointStore::create(cfg.job_dir(id), cfg.keep)?;
    let built = kept.is_none();
    let (mut sim, resumed) = match kept {
        Some(sim) => (sim, true),
        None => {
            let builder = spec.builder()?;
            match store.latest_valid() {
                Ok((_, snap)) => (builder.resume_from_snapshot(&snap)?, true),
                Err(_) => (builder.build(), false),
            }
        }
    };

    let before = sim.cycle_count();
    let remaining = spec.cycles.saturating_sub(before);
    let slice = remaining.min(cfg.quantum.max(1));
    sim.run_cycles(slice as usize);
    let ckpt_bytes = sim.write_checkpoint(&store)?;

    let cycles_done = sim.cycle_count();
    let done = cycles_done >= spec.cycles;
    let (final_checksum, violations, battery_samples) = if done {
        let mut v = Verifier::new(&sim);
        v.sample(&sim);
        (
            sim.state.checksum(),
            v.violations().len() as u64,
            v.samples(),
        )
    } else {
        (0, 0, 0)
    };

    let outcome = SliceOutcome {
        cycles_done,
        done,
        resumed,
        built,
        ckpt_bytes,
        final_checksum,
        violations,
        battery_samples,
    };
    Ok((outcome, sim))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::JobPhase;

    fn spec(name: &str, cycles: u64, priority: u32) -> JobSpec {
        JobSpec {
            name: name.into(),
            n_waters: 24,
            box_edge: 14.0,
            placement_seed: 2,
            temperature_k: 300.0,
            velocity_seed: 9,
            cutoff: 6.5,
            mesh: 16,
            cycles,
            priority,
            nodes: 0,
            threads: 1,
        }
    }

    fn temp_fleet(tag: &str, quantum: u64, workers: usize) -> Fleet {
        let dir = std::env::temp_dir().join(format!(
            "anton-fleet-sched-test-{}-{tag}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = FleetConfig::new(dir);
        cfg.quantum = quantum;
        cfg.workers = workers;
        Fleet::create(cfg).unwrap()
    }

    fn cleanup(f: &Fleet) {
        let _ = std::fs::remove_dir_all(&f.config().state_dir);
    }

    /// The uninterrupted reference trajectory for a spec.
    fn solo_checksum(spec: &JobSpec) -> u64 {
        let mut sim = spec.builder().unwrap().build();
        sim.run_cycles(spec.cycles as usize);
        sim.state.checksum()
    }

    #[test]
    fn preempted_jobs_reach_the_solo_checksum() {
        let fleet = temp_fleet("preempt", 1, 1);
        let s = spec("sliced", 3, 0);
        let golden = solo_checksum(&s);
        let (id, fresh, _) = fleet.submit(s.clone()).unwrap();
        assert!(fresh);
        fleet.run_to_completion();
        let view = fleet.status(id).unwrap();
        assert_eq!(view.phase, JobPhase::Done);
        assert_eq!(view.cycles_done, 3);
        // quantum 1 over 3 cycles: two preemptions, two resumes.
        assert_eq!(view.preemptions, 2);
        assert_eq!(view.resumes, 2);
        assert_eq!(view.final_checksum, golden);
        assert_eq!(view.violations, 0);
        assert!(view.ckpt_bytes > 0);
        cleanup(&fleet);
    }

    #[test]
    fn recovery_resumes_from_job_checkpoints() {
        let dir = std::env::temp_dir().join(format!(
            "anton-fleet-sched-test-{}-recover",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let s = spec("recoverable", 4, 0);
        let golden = solo_checksum(&s);
        let id;
        {
            let mut cfg = FleetConfig::new(&dir);
            cfg.quantum = 1;
            let fleet = Fleet::create(cfg).unwrap();
            id = fleet.submit(s.clone()).unwrap().0;
            // Run exactly one slice by hand, then drop the fleet —
            // simulating a daemon that died mid-batch.
            let (out, _) = run_job_slice(fleet.config(), id, &s, None).unwrap();
            assert!(!out.done);
            assert_eq!(out.cycles_done, 1);
        }
        {
            let mut cfg = FleetConfig::new(&dir);
            cfg.quantum = 2;
            let fleet = Fleet::create(cfg).unwrap();
            // Reconciliation read the job store, not the stale record.
            assert_eq!(fleet.status(id).unwrap().cycles_done, 1);
            fleet.run_to_completion();
            let view = fleet.status(id).unwrap();
            assert_eq!(view.phase, JobPhase::Done);
            assert_eq!(view.final_checksum, golden);
            cleanup(&fleet);
        }
    }

    /// The worker cap is checked before the state directory is touched,
    /// and `create` starts no worker either way: only `run_to_completion`
    /// and the daemon do.
    #[test]
    fn create_refuses_workers_above_the_cap() {
        let dir =
            std::env::temp_dir().join(format!("anton-fleet-sched-test-{}-cap", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = FleetConfig::new(&dir);
        cfg.workers = 65;
        let Err(err) = Fleet::create(cfg.clone()) else {
            panic!("65 workers accepted");
        };
        assert_eq!(err.kind(), "too_many_workers");
        assert!(err.to_string().contains("65"), "{err}");
        assert!(!dir.exists(), "refused fleet touched its state dir");
        cfg.workers = 64;
        let fleet = Fleet::create(cfg).unwrap();
        assert_eq!(fleet.config().workers, FleetConfig::MAX_WORKERS);
        cleanup(&fleet);
    }

    #[test]
    fn multiple_workers_drain_a_mixed_queue_deterministically() {
        let fleet = temp_fleet("mixed", 2, 3);
        let specs = [spec("aa", 2, 0), spec("bb", 3, 2), spec("cc", 1, 1)];
        let goldens: Vec<u64> = specs.iter().map(solo_checksum).collect();
        for s in &specs {
            fleet.submit(s.clone()).unwrap();
        }
        fleet.run_to_completion();
        for (s, golden) in specs.iter().zip(&goldens) {
            let view = fleet.status(s.job_id()).unwrap();
            assert_eq!(view.phase, JobPhase::Done, "{}", s.name);
            assert_eq!(view.final_checksum, *golden, "{}", s.name);
            assert_eq!(view.violations, 0, "{}", s.name);
        }
        cleanup(&fleet);
    }

    /// A job whose checkpoint directory cannot be created fails its slice
    /// with a typed error and goes back to `Queued`; the worker survives,
    /// the other job finishes and the drain returns. (Persisting a
    /// `Failed` phase for such a job is the *Fail loudly* roadmap item's
    /// job, not this test's.)
    #[test]
    fn uncreatable_job_dir_fails_the_slice_not_the_fleet() {
        let fleet = temp_fleet("squatted", 2, 2);
        let (good, bad) = (spec("good", 2, 0), spec("bad", 2, 1));
        let golden = solo_checksum(&good);
        // A regular file squats on the bad job's directory (permission
        // bits would not stop a root test run).
        let squatted = fleet.config().job_dir(bad.job_id());
        std::fs::create_dir_all(squatted.parent().unwrap()).unwrap();
        std::fs::write(&squatted, b"not a directory").unwrap();
        for s in [&good, &bad] {
            fleet.submit(s.clone()).unwrap();
        }
        fleet.run_to_completion();
        let view = fleet.status(good.job_id()).unwrap();
        assert_eq!(view.phase, JobPhase::Done);
        assert_eq!(view.final_checksum, golden);
        assert_eq!(view.violations, 0);
        let view = fleet.status(bad.job_id()).unwrap();
        assert_eq!(view.phase, JobPhase::Queued);
        assert_eq!(view.cycles_done, 0);
        cleanup(&fleet);
    }

    /// A persist failure leaves no job behind: `Err` means "not queued",
    /// the revision is untouched, and the retry is a fresh submit that a
    /// restarted daemon recovers.
    #[test]
    fn a_failed_submit_queues_nothing() {
        let fleet = temp_fleet("submit-fail", 1, 1);
        let cfg = fleet.config().clone();
        let queue_dir = cfg.queue_dir();
        std::fs::remove_dir_all(&queue_dir).unwrap();
        std::fs::write(&queue_dir, b"not a directory").unwrap();
        let s = spec("unpersisted", 1, 0);
        assert!(fleet.submit(s.clone()).is_err());
        assert!(fleet.list().is_empty());
        assert_eq!(fleet.ping(), (0, 0));

        std::fs::remove_file(&queue_dir).unwrap();
        std::fs::create_dir(&queue_dir).unwrap();
        let (id, fresh, _) = fleet.submit(s).unwrap();
        assert!(fresh, "the failed submit left the job queued");
        drop(fleet);
        let recovered = Fleet::create(cfg).unwrap();
        let ids: Vec<JobId> = recovered.list().iter().map(|v| v.id).collect();
        assert_eq!(ids, [id]);
        cleanup(&recovered);
    }

    /// Garble every checkpoint file of the job's store.
    fn garble_store(cfg: &FleetConfig, id: JobId) {
        for entry in std::fs::read_dir(cfg.job_dir(id)).unwrap() {
            std::fs::write(entry.unwrap().path(), b"garbage").unwrap();
        }
    }

    /// A kept engine continues the job without reading its store: with
    /// every checkpoint garbled before each slice the job still reaches its
    /// solo checksum. Without a kept engine the same store holds nothing
    /// valid, so the slice starts fresh.
    #[test]
    fn a_kept_engine_never_reads_the_store() {
        let fleet = temp_fleet("kept", 1, 1);
        let s = spec("kept", 3, 0);
        let golden = solo_checksum(&s);
        let id = fleet.submit(s.clone()).unwrap().0;
        let cfg = fleet.config();
        let (mut out, mut sim) = run_job_slice(cfg, id, &s, None).unwrap();
        assert!(!out.resumed);
        while !out.done {
            garble_store(cfg, id);
            (out, sim) = run_job_slice(cfg, id, &s, Some(sim)).unwrap();
            assert!(out.resumed && !out.built);
        }
        assert_eq!(out.cycles_done, 3);
        assert_eq!(out.final_checksum, golden);
        assert_eq!(out.violations, 0);

        garble_store(cfg, id);
        let (out, sim) = run_job_slice(cfg, id, &s, None).unwrap();
        assert!(!out.resumed);
        assert_eq!((out.cycles_done, sim.cycle_count()), (1, 1));
        cleanup(&fleet);
    }

    /// The resident engine continues a claim only for its own job at the
    /// progress the queue records; anything else means the job moved.
    #[test]
    fn a_resident_engine_is_reused_only_for_its_job_at_its_progress() {
        let s = spec("resident", 3, 0);
        let id = s.job_id();
        let engine = || {
            let mut sim = s.builder().unwrap().build();
            sim.run_cycles(1);
            sim
        };
        let kept = reusable(Some((id, engine())), id, 1).expect("same job, same progress");
        assert_eq!(kept.cycle_count(), 1);
        let other = spec("other", 3, 0).job_id();
        assert!(
            reusable(Some((id, engine())), other, 1).is_none(),
            "another job"
        );
        assert!(
            reusable(Some((id, engine())), id, 2).is_none(),
            "advanced elsewhere"
        );
        assert!(reusable(None, id, 0).is_none());
    }

    /// With one worker every continuation is resident: each job builds its
    /// engine once, and its census counts every inner step once plus the
    /// one force refresh of that build.
    #[test]
    fn one_worker_builds_each_engine_once() {
        let fleet = temp_fleet("builds", 1, 1);
        let specs = [spec("build-a", 3, 1), spec("build-b", 2, 0)];
        for s in &specs {
            fleet.submit(s.clone()).unwrap();
        }
        fleet.run_to_completion();
        for s in &specs {
            let (view, census) = fleet.summary(s.job_id()).unwrap();
            assert_eq!(view.phase, JobPhase::Done);
            assert_eq!(view.resumes, s.cycles - 1, "{}", s.name);
            assert_eq!(view.engine_builds, 1, "{}", s.name);
            assert_eq!(
                census.rebuild_steps + census.reuse_steps,
                s.cycles * s.steps_per_cycle() + 1,
                "{}",
                s.name
            );
        }
        cleanup(&fleet);
    }

    /// Format pin: the FNV-1a of every checkpoint file a 2-job, quantum-1,
    /// 1-worker fleet writes (`keep` holds all of them). Recorded when every
    /// continuation slice resumed from the store, so any other way of
    /// continuing a job must write these exact bytes. Each file also pins
    /// the FNV-1a of its decoded `state` section alone: the trajectory, as
    /// opposed to the match-cache bookkeeping (counters, reference epoch)
    /// stored beside it, so a change to the rebuild schedule can move the
    /// whole-file words but never these.
    #[test]
    fn fleet_checkpoint_bytes_are_pinned() {
        let dir = std::env::temp_dir().join(format!(
            "anton-fleet-sched-test-{}-ckpt-pin",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = FleetConfig::new(dir);
        cfg.quantum = 1;
        cfg.workers = 1;
        cfg.keep = 4;
        let fleet = Fleet::create(cfg).unwrap();
        let specs = [
            spec("pin-a", 3, 1),
            JobSpec {
                velocity_seed: 10,
                ..spec("pin-b", 2, 0)
            },
        ];
        for s in &specs {
            fleet.submit(s.clone()).unwrap();
        }
        fleet.run_to_completion();
        let mut got = Vec::new();
        for s in &specs {
            let mut files: Vec<_> = std::fs::read_dir(fleet.config().job_dir(s.job_id()))
                .unwrap()
                .map(|e| e.unwrap().path())
                .collect();
            files.sort();
            for path in files {
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                let bytes = std::fs::read(&path).unwrap();
                let state = anton_ckpt::Snapshot::decode(&bytes).unwrap().state;
                got.push((name, anton_ckpt::fnv1a(&bytes), anton_ckpt::fnv1a(&state)));
            }
        }
        let want = [
            (
                "ckpt-000000000002.ant",
                0xde5b_f700_1218_84c1,
                0x867b_11f7_dfce_9b01,
            ),
            (
                "ckpt-000000000004.ant",
                0x663e_27dc_3e3f_a5c8,
                0xf84f_71fc_e935_a052,
            ),
            // Re-recorded for the mover rule: this file's counters and
            // reference epoch follow the new rebuild schedule; its state
            // words are the ones pinned before.
            (
                "ckpt-000000000006.ant",
                0x7070_73ae_e205_6aed,
                0xa89d_3d23_e950_535c,
            ),
            (
                "ckpt-000000000002.ant",
                0x7ced_6b7b_1368_93e3,
                0xbddf_54cb_82dc_e74f,
            ),
            (
                "ckpt-000000000004.ant",
                0x9139_e35e_8d38_5105,
                0x47f2_0c43_6665_cf51,
            ),
        ];
        let got: Vec<(&str, u64, u64)> = got.iter().map(|(n, h, s)| (n.as_str(), *h, *s)).collect();
        assert_eq!(got, want, "{got:#x?}");
        cleanup(&fleet);
    }

    /// A checkpoint written before the mover scan existed — when one atom
    /// past half the slack rebuilt the whole pair list — resumes bitwise.
    /// The fixture is `pin-a`'s step-6 file from the fleet run above, as
    /// that engine wrote it (its whole-file FNV is the one pinned then). It
    /// holds this trajectory's state under a match-cache epoch this engine
    /// does not build at that step; the snapshot format is unchanged, and
    /// two more cycles from it land on the uninterrupted run's checksum.
    #[test]
    fn a_global_trip_checkpoint_resumes_to_the_solo_checksum() {
        let bytes: &[u8] = include_bytes!("../testdata/pin-a-global-trip-ckpt-000000000006.ant");
        assert_eq!(anton_ckpt::fnv1a(bytes), 0xd1c1_732d_ec88_78dd);
        let old = anton_ckpt::Snapshot::decode(bytes).unwrap();
        let s = spec("pin-a", 5, 1);
        let mut solo = s.builder().unwrap().build();
        solo.run_cycles(3);
        let now = solo.snapshot();
        assert_eq!((now.step, &now.state), (old.step, &old.state));
        assert_ne!(now.match_ref, old.match_ref, "the epochs must differ");
        solo.run_cycles(2);
        let mut resumed = s.builder().unwrap().resume_from_snapshot(&old).unwrap();
        resumed.run_cycles(2);
        assert_eq!(resumed.state.checksum(), solo.state.checksum());
    }
}
