//! Property tests for the fleet wire protocol and the persisted queue
//! state, mirroring `crates/ckpt/tests/props.rs`: random round-trips,
//! single-bit-flip corpora, and truncation sweeps. Every flip anywhere in
//! an encoded frame or queue snapshot must surface as a typed error —
//! the guarantee `tests/kill.rs` exercises against a live daemon and real
//! queue files.

use anton_core::ExchangeCounters;
use anton_fleet::queue::{JobPhase, QueueState};
use anton_fleet::wire::{decode_frame, encode_frame, FrameKind, Request, Response};
use anton_fleet::{FleetError, JobSpec};
use proptest::prelude::*;

/// A valid-by-construction spec from a handful of sampled knobs. Floats
/// are derived from integer strategies so every generated spec passes
/// validation (and the codec still sees varied bit patterns).
fn spec(name_salt: u64, n_waters: u32, seeds: u64, cycles: u64, priority: u32) -> JobSpec {
    let n_waters = 1 + (n_waters % 60);
    // Box grows with the water count so the density guard always passes.
    let box_edge = 14.0 + (n_waters as f64) * 0.1 + (name_salt % 7) as f64 * 0.25;
    JobSpec {
        name: format!("prop-{name_salt:x}"),
        n_waters,
        box_edge,
        placement_seed: seeds,
        temperature_k: 280.0 + (seeds % 60) as f64,
        velocity_seed: seeds.rotate_left(17),
        cutoff: 6.0 + (seeds % 3) as f64 * 0.5,
        mesh: 16,
        cycles: 1 + cycles % 50,
        priority: priority % 8,
        nodes: seeds.is_multiple_of(3) as u32 * 8,
        threads: 1 + (seeds % 4) as u32,
    }
}

/// A populated queue from sampled job knobs plus progress counters.
fn queue(
    salts: &[u64],
    cycles_done: u64,
    preemptions: u64,
    ckpt_bytes: u64,
    revision: u64,
) -> QueueState {
    let mut q = QueueState::default();
    for (i, &salt) in salts.iter().enumerate() {
        let s = spec(salt, (salt >> 8) as u32, salt, salt >> 3, i as u32);
        q.submit(s).unwrap();
    }
    // Decorate the records with nontrivial progress so the codec sees the
    // full shape, not just freshly-submitted zeros.
    let phases: Vec<JobPhase> = vec![JobPhase::Queued, JobPhase::Done];
    for (i, rec) in q.jobs.values_mut().enumerate() {
        rec.phase = phases[i % phases.len()];
        rec.cycles_done = cycles_done.min(rec.spec.cycles);
        rec.preemptions = preemptions;
        rec.resumes = preemptions;
        rec.ckpt_bytes = ckpt_bytes;
        rec.final_checksum = ckpt_bytes.wrapping_mul(0x9e3779b97f4a7c15);
        rec.violations = 0;
        rec.battery_samples = 1;
        rec.engine_builds = preemptions / 2 + 1;
    }
    q.revision = revision;
    q
}

/// A census whose words all differ and span the full `u64` range.
fn census(seed: u64, step: u64) -> ExchangeCounters {
    let words: Vec<u64> = (0..ExchangeCounters::WORDS as u64)
        .map(|k| seed.rotate_left(k as u32 * 7) ^ step.wrapping_mul(k + 1))
        .collect();
    ExchangeCounters::from_words(&words).unwrap()
}

proptest! {
    /// Request frames round-trip bit-exactly through encode/decode.
    #[test]
    fn request_frame_roundtrip(
        salt in 0u64..u64::MAX,
        n_waters in 0u32..u32::MAX,
        seeds in 0u64..u64::MAX,
        cycles in 0u64..u64::MAX,
        tag in 0u32..6u32,
    ) {
        let req = match tag {
            0 => Request::Ping,
            1 => Request::Submit(spec(salt, n_waters, seeds, cycles, tag)),
            2 => Request::Status(anton_fleet::JobId(salt)),
            3 => Request::List,
            4 => Request::Summary(anton_fleet::JobId(seeds)),
            _ => Request::Shutdown,
        };
        let frame = encode_frame(FrameKind::Request, &req.encode());
        // Frame encoding is deterministic.
        prop_assert_eq!(&frame, &encode_frame(FrameKind::Request, &req.encode()));
        let (kind, payload) = decode_frame(&frame).unwrap();
        prop_assert_eq!(kind, FrameKind::Request);
        prop_assert_eq!(Request::decode(payload).unwrap(), req);
    }

    /// Response frames round-trip bit-exactly, including job listings.
    #[test]
    fn response_frame_roundtrip(
        salts in proptest::collection::vec(0u64..u64::MAX, 1..6),
        cycles_done in 0u64..1000u64,
        preemptions in 0u64..100u64,
        ckpt_bytes in 0u64..u64::MAX,
        tag in 0u32..4u32,
    ) {
        let q = queue(&salts, cycles_done, preemptions, ckpt_bytes, 3);
        let views = q.views();
        let resp = match tag {
            0 => Response::Pong { jobs: salts.len() as u64, revision: cycles_done },
            1 => Response::Jobs(views),
            2 => Response::Summary {
                status: views[0].clone(),
                counters: census(ckpt_bytes, cycles_done),
            },
            _ => Response::Error {
                kind: "spec_invalid".into(),
                message: format!("case {cycles_done}"),
            },
        };
        let frame = encode_frame(FrameKind::Response, &resp.encode());
        let (kind, payload) = decode_frame(&frame).unwrap();
        prop_assert_eq!(kind, FrameKind::Response);
        prop_assert_eq!(Response::decode(payload).unwrap(), resp);
    }

    /// Single-bit-flip corpus over complete frames: every flip is caught
    /// by the magic check, a checksum, or the version gate.
    #[test]
    fn every_frame_bit_flip_is_detected(
        salt in 0u64..u64::MAX,
        n_waters in 0u32..u32::MAX,
        seeds in 0u64..u64::MAX,
        flip_pos in 0usize..usize::MAX,
        flip_bit in 0u32..8u32,
    ) {
        let req = Request::Submit(spec(salt, n_waters, seeds, seeds >> 7, 1));
        let frame = encode_frame(FrameKind::Request, &req.encode());
        let pos = flip_pos % frame.len();
        let mut flipped = frame.clone();
        flipped[pos] ^= 1u8 << flip_bit;
        let err = decode_frame(&flipped).expect_err("bit flip must be detected");
        prop_assert!(
            err.is_corruption() || err.kind() == "bad_version",
            "byte {} bit {}: unexpected error {}", pos, flip_bit, err
        );
    }

    /// Truncating a frame at any length is detected.
    #[test]
    fn every_frame_truncation_is_detected(
        salts in proptest::collection::vec(0u64..u64::MAX, 1..4),
        cut in 0usize..usize::MAX,
    ) {
        let q = queue(&salts, 5, 2, 4096, 9);
        let resp = Response::Jobs(q.views());
        let frame = encode_frame(FrameKind::Response, &resp.encode());
        let len = cut % frame.len();
        let err = decode_frame(&frame[..len]).expect_err("truncation must be detected");
        prop_assert!(
            matches!(err.kind(), "too_short" | "truncated"),
            "cut to {}: unexpected error {}", len, err
        );
    }

    /// Queue-state encoding round-trips exactly and deterministically for
    /// arbitrary job sets and progress counters.
    #[test]
    fn queue_state_roundtrip(
        salts in proptest::collection::vec(0u64..u64::MAX, 0..8),
        cycles_done in 0u64..1000u64,
        preemptions in 0u64..100u64,
        ckpt_bytes in 0u64..u64::MAX,
        revision in 0u64..u64::MAX,
    ) {
        let q = queue(&salts, cycles_done, preemptions, ckpt_bytes, revision);
        let bytes = q.encode();
        prop_assert_eq!(&bytes, &q.encode(), "encoding must be deterministic");
        let mut expect = q.clone();
        // Running never persists (it re-queues); queue() never sets it, so
        // the decode must be the exact identity here.
        for rec in expect.jobs.values_mut() {
            if rec.phase == JobPhase::Running {
                rec.phase = JobPhase::Queued;
            }
        }
        prop_assert_eq!(QueueState::decode(&bytes).unwrap(), expect);
    }

    /// Single-bit-flip corpus over the *persisted* queue snapshot (the
    /// full ckpt container image): every flip is detected on the
    /// load-and-decode path used by crash recovery.
    #[test]
    fn every_queue_snapshot_bit_flip_is_detected(
        salts in proptest::collection::vec(0u64..u64::MAX, 1..5),
        cycles_done in 0u64..1000u64,
        flip_pos in 0usize..usize::MAX,
        flip_bit in 0u32..8u32,
    ) {
        let q = queue(&salts, cycles_done, 3, 2048, 17);
        let image = q.to_snapshot().encode();
        let pos = flip_pos % image.len();
        let mut flipped = image.clone();
        flipped[pos] ^= 1u8 << flip_bit;
        let outcome = anton_ckpt::Snapshot::decode(&flipped)
            .map_err(FleetError::from)
            .and_then(|snap| QueueState::from_snapshot(&snap));
        let err = outcome.expect_err("bit flip must be detected");
        prop_assert!(
            err.is_corruption() || matches!(&err, FleetError::Ckpt(e) if !e.is_corruption()),
            "byte {} bit {}: unexpected error {}", pos, flip_bit, err
        );
    }
}

/// Exhaustive (not sampled) single-bit-flip sweep over one representative
/// queue snapshot image — the exact file format crash recovery reads.
#[test]
fn exhaustive_bit_flips_on_representative_queue_snapshot() {
    let q = queue(&[1, 2, 3], 4, 2, 4096, 21);
    let image = q.to_snapshot().encode();
    for i in 0..image.len() {
        for bit in 0..8 {
            let mut f = image.clone();
            f[i] ^= 1 << bit;
            let ok = anton_ckpt::Snapshot::decode(&f)
                .map_err(FleetError::from)
                .and_then(|snap| QueueState::from_snapshot(&snap))
                .is_ok();
            assert!(!ok, "undetected bit flip at byte {i} bit {bit}");
        }
    }
}

/// The decoded record set drives scheduling, so decode must also preserve
/// the schedule order exactly.
#[test]
fn decode_preserves_schedule_order() {
    let q = queue(&[9, 8, 7, 6, 5], 2, 1, 1024, 40);
    let back = QueueState::decode(&q.encode()).unwrap();
    assert_eq!(back.schedule_order(), q.schedule_order());
    assert_eq!(back.views(), q.views());
}
