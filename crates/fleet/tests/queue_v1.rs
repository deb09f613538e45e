//! A queue snapshot in the version 1 format — whose job records carried
//! per-phase trace totals — still recovers, and its jobs finish.
//!
//! `data/queue-v1-ckpt-000000000008.ant` is the newest queue snapshot of a
//! one-worker, quantum-2 fleet as the version 1 code wrote it: `v1-done-a`
//! (3 cycles) and `v1-done-b` (2 cycles) drained to completion, then
//! `v1-partial` (4 cycles) submitted and run for one slice, then `v1-fresh`
//! (2 cycles) submitted. No job checkpoint store comes with it, so the
//! unfinished jobs start again from a fresh build.

use anton_ckpt::Snapshot;
use anton_fleet::queue::{queue_fingerprint, QUEUE_STATE_VERSION};
use anton_fleet::{Fleet, FleetConfig, JobPhase, JobSpec, QueueState};

const FIXTURE: &[u8] = include_bytes!("data/queue-v1-ckpt-000000000008.ant");

fn solo_checksum(spec: &JobSpec) -> u64 {
    let mut sim = spec.builder().unwrap().build();
    sim.run_cycles(spec.cycles as usize);
    sim.state.checksum()
}

#[test]
fn a_version_1_queue_snapshot_recovers_every_job() {
    assert_eq!(anton_ckpt::fnv1a(FIXTURE), 0x0f74_a06a_b8aa_12ba);
    let snap = Snapshot::decode(FIXTURE).unwrap();
    assert_eq!(snap.fingerprint, queue_fingerprint(1));
    let queue = QueueState::from_snapshot(&snap).unwrap();
    assert_eq!(queue.revision, 8);

    // (name, phase, cycles done, preemptions, resumes, ckpt bytes, final
    // checksum), in schedule order.
    let want = [
        ("v1-fresh", JobPhase::Queued, 0, 0, 0, 0, 0),
        (
            "v1-done-a",
            JobPhase::Done,
            3,
            1,
            1,
            3712,
            0xa89d_3d23_e950_535c,
        ),
        (
            "v1-done-b",
            JobPhase::Done,
            2,
            0,
            0,
            3712,
            0x29f1_cd18_2f68_a253,
        ),
        ("v1-partial", JobPhase::Queued, 2, 1, 0, 3712, 0),
    ];
    let views = queue.views();
    let got: Vec<_> = views
        .iter()
        .map(|v| {
            let row = (
                v.name.as_str(),
                v.phase,
                v.cycles_done,
                v.preemptions,
                v.resumes,
                v.ckpt_bytes,
                v.final_checksum,
            );
            (row, v.engine_builds)
        })
        .collect();
    assert_eq!(got, want.map(|row| (row, 0)), "{got:#x?}");
    for rec in queue.jobs.values() {
        if rec.phase == JobPhase::Done {
            assert_eq!(
                rec.final_checksum,
                solo_checksum(&rec.spec),
                "{}",
                rec.spec.name
            );
        }
    }
}

/// A fleet opened on the version 1 snapshot drains every job to its solo
/// checksum and persists the queue in the current format.
#[test]
fn a_fleet_recovered_from_version_1_drains_to_solo_checksums() {
    let dir = std::env::temp_dir().join(format!("anton-fleet-queue-v1-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let queue_dir = dir.join("queue");
    std::fs::create_dir_all(&queue_dir).unwrap();
    std::fs::write(queue_dir.join("ckpt-000000000008.ant"), FIXTURE).unwrap();
    let mut cfg = FleetConfig::new(&dir);
    cfg.quantum = 2;
    let fleet = Fleet::create(cfg).unwrap();
    assert_eq!(fleet.ping(), (4, 8));
    fleet.run_to_completion();
    let views = fleet.list();
    assert_eq!(views.len(), 4);
    let specs = QueueState::from_snapshot(&Snapshot::decode(FIXTURE).unwrap())
        .unwrap()
        .jobs;
    for v in &views {
        assert_eq!(v.phase, JobPhase::Done, "{}", v.name);
        assert_eq!(
            v.final_checksum,
            solo_checksum(&specs[&v.id].spec),
            "{}",
            v.name
        );
    }
    let mut files: Vec<_> = std::fs::read_dir(&queue_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    let newest = anton_ckpt::load_file(files.last().unwrap()).unwrap();
    assert_eq!(newest.fingerprint, queue_fingerprint(QUEUE_STATE_VERSION));
    assert_eq!(QueueState::from_snapshot(&newest).unwrap().views(), views);
    let _ = std::fs::remove_dir_all(&dir);
}
