//! The deterministic job queue and its crash-safe persistence.
//!
//! **Determinism rule.** The schedule order is a pure function of the
//! *set* of submitted jobs: jobs sort by (priority descending, job id
//! ascending), and the job id is itself a content fingerprint of the spec
//! ([`JobSpec::job_id`]). Arrival order, wall-clock time, and daemon
//! restarts cannot influence it. Submission is idempotent: resubmitting an
//! identical spec is a no-op that returns the existing job.
//!
//! **Persistence.** The whole queue state encodes into one deterministic
//! byte string (jobs iterate in `BTreeMap` id order) and is carried as the
//! opaque state payload of an `anton-ckpt` [`Snapshot`] — so the queue
//! inherits the container's checksummed header, atomic tmp+fsync+rename
//! writes, last-K rotation, and newest-valid fallback recovery without a
//! second on-disk format. The snapshot `step` field carries the queue
//! *revision* (bumped on every mutation), `n_atoms` carries the job count,
//! and the fingerprint is a fixed schema tag.

use crate::error::FleetError;
use crate::spec::{JobId, JobSpec};
use crate::wire::{list_field, string_field};
use anton_ckpt::{CheckpointStore, CkptError, Fingerprint, Reader, Snapshot, Writer};
use anton_trace::Phase;
use std::collections::BTreeMap;

/// Persisted queue-state schema version.
pub const QUEUE_STATE_VERSION: u32 = 1;

/// Rotated queue snapshots to keep on disk.
pub const QUEUE_KEEP: usize = 4;

/// Fixed schema fingerprint stamped into every queue snapshot header.
pub fn queue_fingerprint() -> u64 {
    Fingerprint::new()
        .field("fleet_queue_state", QUEUE_STATE_VERSION as u64)
        .finish()
}

/// Lifecycle of a job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobPhase {
    Queued,
    Running,
    Done,
}

impl JobPhase {
    pub fn tag(self) -> u8 {
        match self {
            JobPhase::Queued => 0,
            JobPhase::Running => 1,
            JobPhase::Done => 2,
        }
    }

    pub fn from_tag(tag: u8) -> Result<JobPhase, FleetError> {
        match tag {
            0 => Ok(JobPhase::Queued),
            1 => Ok(JobPhase::Running),
            2 => Ok(JobPhase::Done),
            other => Err(FleetError::BadTag {
                what: "job phase",
                got: other as u64,
            }),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            JobPhase::Queued => "queued",
            JobPhase::Running => "running",
            JobPhase::Done => "done",
        }
    }
}

/// Integer trace totals for one engine phase of one job, accumulated
/// across every slice the job has run. Wall-clock fields from the trace
/// summary are deliberately dropped: only schedule-invariant counters
/// (spans, messages, bytes) are persisted and reported.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PhaseTotals {
    /// Index into [`Phase::ALL`].
    pub phase: u32,
    pub spans: u64,
    pub messages: u64,
    pub bytes: u64,
}

impl PhaseTotals {
    /// Phase name for display (falls back on an out-of-range index rather
    /// than failing: the vocabulary may grow).
    pub fn phase_name(&self) -> &'static str {
        Phase::ALL
            .get(self.phase as usize)
            .map(|p| p.name())
            .unwrap_or("unknown")
    }

    pub fn encode_into(&self, w: &mut Writer) {
        w.u32(self.phase);
        w.u64(self.spans);
        w.u64(self.messages);
        w.u64(self.bytes);
    }

    pub fn decode_from(r: &mut Reader<'_>) -> Result<PhaseTotals, FleetError> {
        Ok(PhaseTotals {
            phase: r.u32()?,
            spans: r.u64()?,
            messages: r.u64()?,
            bytes: r.u64()?,
        })
    }
}

/// The status record the daemon reports for one job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobStatusView {
    pub id: JobId,
    pub name: String,
    pub phase: JobPhase,
    pub priority: u32,
    pub cycles_total: u64,
    pub cycles_done: u64,
    /// Times the job was paused at a quantum boundary with work remaining.
    pub preemptions: u64,
    /// Slices that continued the job after a preemption, from the resident
    /// engine or the store.
    pub resumes: u64,
    /// Bytes of the job's most recent checkpoint file.
    pub ckpt_bytes: u64,
    /// FNV-1a over the final state bytes; 0 until the job is done.
    pub final_checksum: u64,
    /// Analysis-battery violations observed at completion.
    pub violations: u64,
    /// Analysis-battery samples taken at completion.
    pub battery_samples: u64,
}

impl JobStatusView {
    pub fn encode_into(&self, w: &mut Writer) {
        w.u64(self.id.0);
        w.str_field(&self.name);
        w.u8(self.phase.tag());
        w.u32(self.priority);
        w.u64(self.cycles_total);
        w.u64(self.cycles_done);
        w.u64(self.preemptions);
        w.u64(self.resumes);
        w.u64(self.ckpt_bytes);
        w.u64(self.final_checksum);
        w.u64(self.violations);
        w.u64(self.battery_samples);
    }

    pub fn decode_from(r: &mut Reader<'_>) -> Result<JobStatusView, FleetError> {
        Ok(JobStatusView {
            id: JobId(r.u64()?),
            name: string_field(r, "job name")?,
            phase: JobPhase::from_tag(r.u8()?)?,
            priority: r.u32()?,
            cycles_total: r.u64()?,
            cycles_done: r.u64()?,
            preemptions: r.u64()?,
            resumes: r.u64()?,
            ckpt_bytes: r.u64()?,
            final_checksum: r.u64()?,
            violations: r.u64()?,
            battery_samples: r.u64()?,
        })
    }
}

/// Everything the queue persists about one job.
#[derive(Clone, Debug, PartialEq)]
pub struct JobRecord {
    pub spec: JobSpec,
    pub phase: JobPhase,
    pub cycles_done: u64,
    pub preemptions: u64,
    /// Slices that continued the job after a preemption, from the resident
    /// engine or the store.
    pub resumes: u64,
    pub ckpt_bytes: u64,
    pub final_checksum: u64,
    pub violations: u64,
    pub battery_samples: u64,
    /// One accumulator per [`Phase::ALL`] entry, in phase-index order.
    pub phases: Vec<PhaseTotals>,
}

impl JobRecord {
    pub fn new(spec: JobSpec) -> JobRecord {
        JobRecord {
            spec,
            phase: JobPhase::Queued,
            cycles_done: 0,
            preemptions: 0,
            resumes: 0,
            ckpt_bytes: 0,
            final_checksum: 0,
            violations: 0,
            battery_samples: 0,
            phases: Phase::ALL
                .iter()
                .map(|p| PhaseTotals {
                    phase: p.index() as u32,
                    spans: 0,
                    messages: 0,
                    bytes: 0,
                })
                .collect(),
        }
    }

    pub fn view(&self) -> JobStatusView {
        JobStatusView {
            id: self.spec.job_id(),
            name: self.spec.name.clone(),
            phase: self.phase,
            priority: self.spec.priority,
            cycles_total: self.spec.cycles,
            cycles_done: self.cycles_done,
            preemptions: self.preemptions,
            resumes: self.resumes,
            ckpt_bytes: self.ckpt_bytes,
            final_checksum: self.final_checksum,
            violations: self.violations,
            battery_samples: self.battery_samples,
        }
    }

    pub fn encode_into(&self, w: &mut Writer) {
        self.spec.encode_into(w);
        // A job observed mid-slice persists as Queued: after a crash the
        // slice never committed, so on recovery the job is simply runnable
        // again from its newest checkpoint.
        let phase = match self.phase {
            JobPhase::Running => JobPhase::Queued,
            p => p,
        };
        w.u8(phase.tag());
        w.u64(self.cycles_done);
        w.u64(self.preemptions);
        w.u64(self.resumes);
        w.u64(self.ckpt_bytes);
        w.u64(self.final_checksum);
        w.u64(self.violations);
        w.u64(self.battery_samples);
        w.u32(self.phases.len() as u32);
        for p in &self.phases {
            p.encode_into(w);
        }
    }

    pub fn decode_from(r: &mut Reader<'_>) -> Result<JobRecord, FleetError> {
        let spec = JobSpec::decode_from(r)?;
        let phase = JobPhase::from_tag(r.u8()?)?;
        let cycles_done = r.u64()?;
        let preemptions = r.u64()?;
        let resumes = r.u64()?;
        let ckpt_bytes = r.u64()?;
        let final_checksum = r.u64()?;
        let violations = r.u64()?;
        let battery_samples = r.u64()?;
        let n = r.u32()?;
        let phases = list_field(
            r,
            "phase accumulator list",
            n.into(),
            1024,
            PhaseTotals::decode_from,
        )?;
        Ok(JobRecord {
            spec,
            phase,
            cycles_done,
            preemptions,
            resumes,
            ckpt_bytes,
            final_checksum,
            violations,
            battery_samples,
            phases,
        })
    }
}

/// The complete queue: every known job plus a monotonic revision counter.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct QueueState {
    /// Jobs keyed by content id — `BTreeMap` so iteration (and therefore
    /// the persisted encoding) is in deterministic id order.
    pub jobs: BTreeMap<JobId, JobRecord>,
    /// Bumped on every mutation; doubles as the snapshot step, so rotated
    /// queue snapshots sort by revision.
    pub revision: u64,
}

impl QueueState {
    /// Idempotent submit. Returns the id and whether the job was new.
    pub fn submit(&mut self, spec: JobSpec) -> Result<(JobId, bool), FleetError> {
        spec.validate()?;
        let id = spec.job_id();
        if self.jobs.contains_key(&id) {
            return Ok((id, false));
        }
        self.jobs.insert(id, JobRecord::new(spec));
        Ok((id, true))
    }

    /// Deterministic schedule order over *all* jobs: priority descending,
    /// then id ascending. A pure function of the submitted set.
    pub fn schedule_order(&self) -> Vec<JobId> {
        let mut ids: Vec<JobId> = self.jobs.keys().copied().collect();
        ids.sort_by_key(|id| (u32::MAX - self.jobs[id].spec.priority, *id));
        ids
    }

    /// Jobs still needing work, in schedule order.
    pub fn runnable(&self) -> Vec<JobId> {
        self.schedule_order()
            .into_iter()
            .filter(|id| self.jobs[id].phase == JobPhase::Queued)
            .collect()
    }

    /// A job's position in the schedule order.
    pub fn position(&self, id: JobId) -> Option<u64> {
        self.schedule_order()
            .iter()
            .position(|&j| j == id)
            .map(|p| p as u64)
    }

    pub fn view(&self, id: JobId) -> Result<JobStatusView, FleetError> {
        self.jobs
            .get(&id)
            .map(|r| r.view())
            .ok_or(FleetError::UnknownJob { id: id.0 })
    }

    /// Every job's status view, in schedule order.
    pub fn views(&self) -> Vec<JobStatusView> {
        self.schedule_order()
            .iter()
            .map(|id| self.jobs[id].view())
            .collect()
    }

    /// Deterministic byte encoding: version, revision, then records in
    /// ascending id order, each keyed by its id (cross-checked on decode).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u32(QUEUE_STATE_VERSION);
        w.u64(self.revision);
        w.u64(self.jobs.len() as u64);
        for (id, rec) in &self.jobs {
            w.u64(id.0);
            rec.encode_into(&mut w);
        }
        w.finish()
    }

    pub fn decode(bytes: &[u8]) -> Result<QueueState, FleetError> {
        let mut r = Reader::new(bytes);
        let version = r.u32()?;
        if version != QUEUE_STATE_VERSION {
            return Err(CkptError::BadVersion {
                got: version,
                expected: QUEUE_STATE_VERSION,
            }
            .into());
        }
        let revision = r.u64()?;
        let n = r.u64()?;
        let jobs = list_field(&mut r, "queue job count", n, 1_000_000, |r| {
            let stored_id = r.u64()?;
            let rec = JobRecord::decode_from(r)?;
            let computed = rec.spec.job_id();
            if computed.0 != stored_id {
                // The record's key must be the fingerprint of its own spec;
                // disagreement means the bytes are damaged (or forged).
                return Err(CkptError::ChecksumMismatch {
                    what: "job record id",
                    stored: stored_id,
                    computed: computed.0,
                }
                .into());
            }
            Ok((computed, rec))
        })?;
        r.expect_end("queue state")?;
        Ok(QueueState {
            jobs: jobs.into_iter().collect(),
            revision,
        })
    }

    /// Wrap the encoding in an `anton-ckpt` snapshot for persistence.
    pub fn to_snapshot(&self) -> Snapshot {
        Snapshot {
            step: self.revision,
            fingerprint: queue_fingerprint(),
            n_atoms: self.jobs.len() as u64,
            state: self.encode(),
            counters: Vec::new(),
            trace_dropped: [0, 0],
            match_ref: Vec::new(),
        }
    }

    /// Recover from a snapshot written by [`Self::to_snapshot`].
    pub fn from_snapshot(snap: &Snapshot) -> Result<QueueState, FleetError> {
        let expected = queue_fingerprint();
        if snap.fingerprint != expected {
            return Err(CkptError::ChecksumMismatch {
                what: "queue snapshot fingerprint",
                stored: snap.fingerprint,
                computed: expected,
            }
            .into());
        }
        let state = QueueState::decode(&snap.state)?;
        if state.revision != snap.step {
            return Err(CkptError::ChecksumMismatch {
                what: "queue snapshot revision",
                stored: snap.step,
                computed: state.revision,
            }
            .into());
        }
        Ok(state)
    }
}

/// The queue's durable home: a `CheckpointStore` holding rotated queue
/// snapshots named by revision.
pub struct QueueStore {
    store: CheckpointStore,
}

impl QueueStore {
    pub fn create(dir: impl Into<std::path::PathBuf>) -> Result<QueueStore, FleetError> {
        Ok(QueueStore {
            store: CheckpointStore::create(dir, QUEUE_KEEP)?,
        })
    }

    /// Persist the state atomically; returns the snapshot size in bytes.
    pub fn persist(&self, state: &QueueState) -> Result<u64, FleetError> {
        let receipt = self.store.write(&state.to_snapshot())?;
        Ok(receipt.bytes)
    }

    /// Newest queue snapshot that loads *and* decodes cleanly; a corrupted
    /// or wrong-schema newest file falls back to the next-newest. `None`
    /// when the directory holds no queue snapshot at all (fresh start).
    pub fn recover(&self) -> Result<Option<QueueState>, FleetError> {
        let entries = match self.store.list() {
            Ok(e) => e,
            Err(_) => return Ok(None),
        };
        for (_, path) in entries.iter().rev() {
            let Ok(snap) = anton_ckpt::load_file(path) else {
                continue;
            };
            if let Ok(state) = QueueState::from_snapshot(&snap) {
                return Ok(Some(state));
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub fn sample_view() -> JobStatusView {
        JobStatusView {
            id: JobId(0x0123_4567_89ab_cdef),
            name: "waterbox-a".into(),
            phase: JobPhase::Running,
            priority: 2,
            cycles_total: 8,
            cycles_done: 3,
            preemptions: 2,
            resumes: 2,
            ckpt_bytes: 4096,
            final_checksum: 0,
            violations: 0,
            battery_samples: 0,
        }
    }

    fn spec(name: &str, priority: u32) -> JobSpec {
        JobSpec {
            name: name.into(),
            n_waters: 30,
            box_edge: 15.0,
            placement_seed: 11,
            temperature_k: 300.0,
            velocity_seed: 5,
            cutoff: 7.0,
            mesh: 16,
            cycles: 4,
            priority,
            nodes: 0,
            threads: 1,
        }
    }

    fn populated() -> QueueState {
        let mut q = QueueState::default();
        q.submit(spec("a", 1)).unwrap();
        q.submit(spec("b", 3)).unwrap();
        q.submit(spec("c", 3)).unwrap();
        q.revision = 7;
        q
    }

    #[test]
    fn submission_is_idempotent() {
        let mut q = QueueState::default();
        let (id1, fresh1) = q.submit(spec("a", 1)).unwrap();
        let (id2, fresh2) = q.submit(spec("a", 1)).unwrap();
        assert_eq!(id1, id2);
        assert!(fresh1);
        assert!(!fresh2);
        assert_eq!(q.jobs.len(), 1);
        assert!(q.submit(spec("zzz", 0)).unwrap().1);
        assert_eq!(q.jobs.len(), 2);
    }

    #[test]
    fn schedule_order_is_arrival_invariant() {
        let mut fwd = QueueState::default();
        let mut rev = QueueState::default();
        let specs = [spec("a", 1), spec("b", 3), spec("c", 3), spec("d", 0)];
        for s in &specs {
            fwd.submit(s.clone()).unwrap();
        }
        for s in specs.iter().rev() {
            rev.submit(s.clone()).unwrap();
        }
        assert_eq!(fwd.schedule_order(), rev.schedule_order());
        // Priority 3 jobs first (id-ascending among ties), then 1, then 0.
        let order = fwd.schedule_order();
        let prio: Vec<u32> = order.iter().map(|id| fwd.jobs[id].spec.priority).collect();
        assert_eq!(prio, [3, 3, 1, 0]);
        let tied: Vec<JobId> = order[..2].to_vec();
        assert!(tied[0] < tied[1]);
    }

    #[test]
    fn runnable_excludes_done_jobs() {
        let mut q = populated();
        let first = q.schedule_order()[0];
        q.jobs.get_mut(&first).unwrap().phase = JobPhase::Done;
        assert!(!q.runnable().contains(&first));
        assert_eq!(q.runnable().len(), 2);
        // ... but the full schedule order still lists it.
        assert_eq!(q.schedule_order().len(), 3);
    }

    #[test]
    fn state_roundtrips_bytewise() {
        let q = populated();
        let bytes = q.encode();
        assert_eq!(bytes, q.encode(), "encoding must be deterministic");
        // Format pin: the encoded bytes themselves, not just the round trip.
        // A record carries one accumulator per trace phase, so the words
        // move when the phase vocabulary grows (last: `mover_scan`).
        assert_eq!(anton_ckpt::fnv1a(&bytes), 0x2c55_bd21_27ec_1905);
        let back = QueueState::decode(&bytes).unwrap();
        assert_eq!(back, q);
    }

    #[test]
    fn running_jobs_persist_as_queued() {
        let mut q = populated();
        let first = q.schedule_order()[0];
        q.jobs.get_mut(&first).unwrap().phase = JobPhase::Running;
        let back = QueueState::decode(&q.encode()).unwrap();
        assert_eq!(back.jobs[&first].phase, JobPhase::Queued);
    }

    #[test]
    fn snapshot_roundtrip_and_fingerprint_guard() {
        let q = populated();
        let snap = q.to_snapshot();
        assert_eq!(snap.step, q.revision);
        assert_eq!(snap.n_atoms, 3);
        assert_eq!(QueueState::from_snapshot(&snap).unwrap(), q);
        let mut wrong = snap.clone();
        wrong.fingerprint ^= 1;
        assert_eq!(
            QueueState::from_snapshot(&wrong).unwrap_err().kind(),
            "checksum_mismatch"
        );
    }

    #[test]
    fn tampered_record_id_is_detected() {
        let q = populated();
        let mut bytes = q.encode();
        // The first record id starts right after version (4) + revision (8)
        // + count (8).
        bytes[20] ^= 0xff;
        let err = QueueState::decode(&bytes).unwrap_err();
        assert!(err.is_corruption(), "unexpected {err}");
    }

    #[test]
    fn store_persists_and_recovers_newest_valid() {
        let dir = std::env::temp_dir().join(format!(
            "anton-fleet-queue-store-test-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = QueueStore::create(&dir).unwrap();
        assert!(store.recover().unwrap().is_none(), "fresh dir is empty");
        let mut q = populated();
        store.persist(&q).unwrap();
        q.revision += 1;
        q.jobs.values_mut().next().unwrap().cycles_done = 2;
        store.persist(&q).unwrap();
        assert_eq!(store.recover().unwrap().unwrap(), q);
        // Corrupt the newest snapshot: recovery falls back to the previous.
        let newest = dir.join("ckpt-000000000008.ant");
        let mut b = std::fs::read(&newest).unwrap();
        let last = b.len() - 1;
        b[last] ^= 1;
        std::fs::write(&newest, &b).unwrap();
        let recovered = store.recover().unwrap().unwrap();
        assert_eq!(recovered.revision, 7);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
