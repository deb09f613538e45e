//! Property tests for the engine-side checkpoint payload: random
//! [`FixedState`]s round-trip exactly through `to_bytes`/`from_bytes`, and
//! the typed-error contract holds for any corrupted length prefix.

use anton_core::{CkptError, FixedState};
use anton_fixpoint::{Fx32, FxVec3};
use proptest::prelude::*;

/// Build a state from raw fixed-point words (the format is raw words, so
/// any bit pattern is a valid state — positions wrap periodically).
fn state_from_raw(pos: &[i32], vel: &[i64]) -> FixedState {
    let n = pos.len() / 3;
    let positions = (0..n)
        .map(|i| FxVec3([Fx32(pos[3 * i]), Fx32(pos[3 * i + 1]), Fx32(pos[3 * i + 2])]))
        .collect();
    let velocities = (0..n)
        .map(|i| [vel[3 * i], vel[3 * i + 1], vel[3 * i + 2]])
        .collect();
    FixedState {
        positions,
        velocities,
    }
}

proptest! {
    /// Any raw state round-trips bit-exactly: serialization is lossless
    /// over the full i32/i64 raw domains, including extreme values.
    #[test]
    fn fixed_state_roundtrips_exactly(
        pos in proptest::collection::vec(i32::MIN..i32::MAX, 0..192),
        vel in proptest::collection::vec(i64::MIN..i64::MAX, 0..192),
    ) {
        let n3 = (pos.len() / 3).min(vel.len() / 3) * 3;
        let st = state_from_raw(&pos[..n3], &vel[..n3]);
        let bytes = st.to_bytes();
        prop_assert_eq!(bytes.len(), 8 + st.n_atoms() * 36);
        let restored = FixedState::from_bytes(&bytes).unwrap();
        prop_assert_eq!(restored, st);
    }

    /// Serialization is a pure function of the state.
    #[test]
    fn fixed_state_serialization_is_deterministic(
        pos in proptest::collection::vec(i32::MIN..i32::MAX, 3..48),
        vel in proptest::collection::vec(i64::MIN..i64::MAX, 3..48),
    ) {
        let n3 = (pos.len() / 3).min(vel.len() / 3) * 3;
        let st = state_from_raw(&pos[..n3], &vel[..n3]);
        prop_assert_eq!(st.to_bytes(), st.to_bytes());
    }

    /// Corrupting the declared atom count (any wrong value) is always a
    /// typed length mismatch — the body no longer accounts for the bytes.
    #[test]
    fn wrong_declared_count_is_always_detected(
        pos in proptest::collection::vec(i32::MIN..i32::MAX, 3..48),
        vel in proptest::collection::vec(i64::MIN..i64::MAX, 3..48),
        declared in 0u64..u64::MAX,
    ) {
        let n3 = (pos.len() / 3).min(vel.len() / 3) * 3;
        let st = state_from_raw(&pos[..n3], &vel[..n3]);
        prop_assume!(declared != st.n_atoms() as u64);
        let mut bytes = st.to_bytes();
        bytes[0..8].copy_from_slice(&declared.to_le_bytes());
        let err = FixedState::from_bytes(&bytes).expect_err("wrong count must be detected");
        let is_length_mismatch =
            matches!(err, CkptError::LengthMismatch { what: "state body", .. });
        prop_assert!(is_length_mismatch, "unexpected error {}", err);
    }

    /// Truncating the state body at any length is detected.
    #[test]
    fn truncated_state_body_is_detected(
        pos in proptest::collection::vec(i32::MIN..i32::MAX, 3..48),
        vel in proptest::collection::vec(i64::MIN..i64::MAX, 3..48),
        cut in 0usize..usize::MAX,
    ) {
        let n3 = (pos.len() / 3).min(vel.len() / 3) * 3;
        let st = state_from_raw(&pos[..n3], &vel[..n3]);
        let full = st.to_bytes();
        let len = cut % full.len();
        let err = FixedState::from_bytes(&full[..len]).expect_err("truncation must be detected");
        let is_typed = matches!(
            err,
            CkptError::TooShort { .. } | CkptError::LengthMismatch { .. }
        );
        prop_assert!(is_typed, "cut to {}: unexpected error {}", len, err);
    }
}
