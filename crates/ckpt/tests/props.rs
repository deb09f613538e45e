//! Property tests for the checkpoint format: serialize/deserialize
//! round-trips of random snapshots and their headers, and a single-bit-flip
//! corpus asserting every flip anywhere in an encoded checkpoint is
//! detected by the magic/version checks or one of the two checksums.

use anton_ckpt::{fnv1a, CkptError, FrameFormat, Snapshot, HEADER_LEN, MAGIC, VERSION};
use proptest::prelude::*;

fn snapshot(step: u64, n_atoms: u64, state: Vec<u8>, counters: Vec<u64>, dropped: u64) -> Snapshot {
    // Derived from the state bytes so the section varies per case without
    // consuming another strategy slot.
    let match_ref: Vec<u8> = state.iter().rev().copied().collect();
    Snapshot {
        step,
        // Derived, not sampled: the vendored proptest caps the argument
        // count before this gets its own strategy, and any u64 works.
        fingerprint: step.wrapping_mul(0x9e3779b97f4a7c15) ^ n_atoms,
        n_atoms,
        state,
        counters,
        trace_dropped: [dropped, dropped.wrapping_mul(3)],
        match_ref,
    }
}

proptest! {
    /// Snapshot encode/decode is the identity for arbitrary payload
    /// shapes, including empty state and empty counters, and the header
    /// carries step, atom count and fingerprint over their full ranges as
    /// the checkpoint frame's meta words, with tag 0 and the payload's
    /// length and checksum.
    #[test]
    fn snapshot_roundtrip(
        step in 0u64..u64::MAX,
        n_atoms in 0u64..u64::MAX,
        state in proptest::collection::vec(0u8..=255, 0..512),
        counters in proptest::collection::vec(0u64..u64::MAX, 0..20),
        dropped in 0u64..1000u64,
    ) {
        let s = snapshot(step, n_atoms, state, counters, dropped);
        let encoded = s.encode();
        let decoded = Snapshot::decode(&encoded);
        prop_assert_eq!(decoded.unwrap(), s.clone());
        // Determinism of the encoding itself.
        prop_assert_eq!(&encoded, &s.encode());
        let frame = FrameFormat::<3> { magic: MAGIC, version: VERSION };
        let (header, payload) = frame.open_header(&encoded).unwrap();
        prop_assert_eq!(header.meta, [s.step, s.n_atoms, s.fingerprint]);
        prop_assert_eq!(header.tag, 0);
        prop_assert_eq!(header.payload_len, payload.len() as u64);
        prop_assert_eq!(header.payload_fnv, fnv1a(payload));
        prop_assert_eq!(frame.encode_header(&header), &encoded[..HEADER_LEN]);
    }

    /// Single-bit-flip corpus: flipping any one bit anywhere in an
    /// encoded checkpoint makes it unloadable, with a typed error — the
    /// guarantee `store::tests` exercises against real files.
    #[test]
    fn every_single_bit_flip_is_detected(
        step in 0u64..1_000_000u64,
        state in proptest::collection::vec(0u8..=255, 1..256),
        counters in proptest::collection::vec(0u64..u64::MAX, 0..16),
        flip_pos in 0usize..usize::MAX,
        flip_bit in 0u32..8u32,
    ) {
        let s = snapshot(step, state.len() as u64, state, counters, 0);
        let encoded = s.encode();
        let pos = flip_pos % encoded.len();
        let mut flipped = encoded.clone();
        flipped[pos] ^= 1u8 << flip_bit;
        let err = Snapshot::decode(&flipped).expect_err("bit flip must be detected");
        // A flip in the version field is incompatibility, not corruption;
        // everything else must classify as corruption.
        prop_assert!(
            err.is_corruption() || matches!(err, CkptError::BadVersion { .. }),
            "byte {} bit {}: unexpected error {}", pos, flip_bit, err
        );
    }

    /// Truncating an encoded checkpoint at any length is detected.
    #[test]
    fn every_truncation_is_detected(
        state in proptest::collection::vec(0u8..=255, 1..256),
        cut in 0usize..usize::MAX,
    ) {
        let s = snapshot(16, state.len() as u64, state, vec![0; 13], 0);
        let encoded = s.encode();
        let len = cut % encoded.len();
        let err = Snapshot::decode(&encoded[..len]).expect_err("truncation must be detected");
        prop_assert!(
            matches!(err, CkptError::TooShort { .. } | CkptError::Truncated { .. }),
            "cut to {}: unexpected error {}", len, err
        );
    }
}

/// Exhaustive (not sampled) single-bit-flip sweep over one representative
/// checkpoint: every bit of the header and a dense payload.
#[test]
fn exhaustive_bit_flips_on_representative_snapshot() {
    let s = snapshot(128, 4, (0u8..144).collect(), (0..13u64).collect(), 2);
    let encoded = s.encode();
    let mut detected = 0usize;
    for i in 0..encoded.len() {
        for bit in 0..8 {
            let mut f = encoded.clone();
            f[i] ^= 1 << bit;
            match Snapshot::decode(&f) {
                Err(_) => detected += 1,
                Ok(_) => panic!("undetected bit flip at byte {i} bit {bit}"),
            }
        }
    }
    assert_eq!(detected, encoded.len() * 8);
    assert!(encoded.len() > HEADER_LEN);
}
