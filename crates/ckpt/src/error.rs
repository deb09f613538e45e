//! Typed corruption and incompatibility errors, shared by everything the
//! codec decodes: `anton-core::FixedState::from_bytes` and the
//! `anton-fleet` frame and record decoders return the same enum as the
//! file loader, so a caller sees one error vocabulary whether the damage
//! is in a container, a socket frame or a state payload.

use std::fmt;

/// Why a checkpoint (or a state byte string) could not be loaded.
///
/// The variants split into *corruption* (the bytes are damaged:
/// [`TooShort`](CkptError::TooShort), [`BadMagic`](CkptError::BadMagic),
/// [`Truncated`](CkptError::Truncated),
/// [`ChecksumMismatch`](CkptError::ChecksumMismatch),
/// [`LengthMismatch`](CkptError::LengthMismatch),
/// [`AtomCountMismatch`](CkptError::AtomCountMismatch)) and
/// *incompatibility* (the bytes are fine but must not be restored here:
/// [`BadVersion`](CkptError::BadVersion),
/// [`FingerprintMismatch`](CkptError::FingerprintMismatch)).
#[derive(Debug)]
pub enum CkptError {
    /// Fewer bytes than the fixed-size prefix being decoded requires.
    TooShort { needed: u64, got: u64 },
    /// The 8-byte magic is not the expected one (`ANTCKPT1` for a
    /// checkpoint file, `ANTFLET1` for a fleet frame): not that format at
    /// all.
    BadMagic,
    /// A frame from a different (future or retired) format version.
    BadVersion { got: u32, expected: u32 },
    /// A declared length disagrees with the bytes actually present.
    LengthMismatch {
        what: &'static str,
        expected: u64,
        got: u64,
    },
    /// Atom counts disagree between the header, the state payload, or the
    /// system being restored into.
    AtomCountMismatch { expected: u64, got: u64 },
    /// A stored FNV-1a checksum does not match the recomputed one.
    ChecksumMismatch {
        what: &'static str,
        stored: u64,
        computed: u64,
    },
    /// The file ends before its declared payload does (torn write that
    /// bypassed the atomic rename, or external truncation).
    Truncated { expected: u64, got: u64 },
    /// The snapshot was written under a different simulation configuration
    /// (node grid, thread count, system, or run parameters); restoring it
    /// could not reproduce the uninterrupted trajectory bitwise.
    FingerprintMismatch { stored: u64, expected: u64 },
    /// No file in the store's directory loaded cleanly.
    NoValidCheckpoint { dir: String },
    /// Underlying filesystem error.
    Io(std::io::Error),
}

impl CkptError {
    /// Short stable tag naming the variant (drill reports, tests).
    pub fn kind(&self) -> &'static str {
        match self {
            CkptError::TooShort { .. } => "too_short",
            CkptError::BadMagic => "bad_magic",
            CkptError::BadVersion { .. } => "bad_version",
            CkptError::LengthMismatch { .. } => "length_mismatch",
            CkptError::AtomCountMismatch { .. } => "atom_count_mismatch",
            CkptError::ChecksumMismatch { .. } => "checksum_mismatch",
            CkptError::Truncated { .. } => "truncated",
            CkptError::FingerprintMismatch { .. } => "fingerprint_mismatch",
            CkptError::NoValidCheckpoint { .. } => "no_valid_checkpoint",
            CkptError::Io(_) => "io",
        }
    }

    /// True for variants that mean the *bytes* are damaged (as opposed to
    /// valid-but-incompatible, or a filesystem failure).
    pub fn is_corruption(&self) -> bool {
        matches!(
            self,
            CkptError::TooShort { .. }
                | CkptError::BadMagic
                | CkptError::LengthMismatch { .. }
                | CkptError::AtomCountMismatch { .. }
                | CkptError::ChecksumMismatch { .. }
                | CkptError::Truncated { .. }
        )
    }
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::TooShort { needed, got } => {
                write!(f, "input too short: need {needed} bytes, got {got}")
            }
            CkptError::BadMagic => write!(f, "bad magic: not the expected frame format"),
            CkptError::BadVersion { got, expected } => {
                write!(f, "unsupported format version {got} (expected {expected})")
            }
            CkptError::LengthMismatch {
                what,
                expected,
                got,
            } => write!(f, "{what}: declared length {expected}, found {got}"),
            CkptError::AtomCountMismatch { expected, got } => {
                write!(f, "atom count mismatch: expected {expected}, got {got}")
            }
            CkptError::ChecksumMismatch {
                what,
                stored,
                computed,
            } => write!(
                f,
                "{what} checksum mismatch: stored {stored:016x}, computed {computed:016x}"
            ),
            CkptError::Truncated { expected, got } => {
                write!(
                    f,
                    "truncated payload: declared {expected} bytes, found {got}"
                )
            }
            CkptError::FingerprintMismatch { stored, expected } => write!(
                f,
                "config fingerprint mismatch: checkpoint {stored:016x}, \
                 simulation {expected:016x} (different node grid, thread \
                 count, system, or run parameters)"
            ),
            CkptError::NoValidCheckpoint { dir } => {
                write!(f, "no valid checkpoint found in {dir}")
            }
            CkptError::Io(e) => write!(f, "checkpoint i/o: {e}"),
        }
    }
}

impl std::error::Error for CkptError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CkptError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CkptError {
    fn from(e: std::io::Error) -> CkptError {
        CkptError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_stable_and_corruption_is_classified() {
        let c = CkptError::ChecksumMismatch {
            what: "payload",
            stored: 1,
            computed: 2,
        };
        assert_eq!(c.kind(), "checksum_mismatch");
        assert!(c.is_corruption());
        let f = CkptError::FingerprintMismatch {
            stored: 1,
            expected: 2,
        };
        assert_eq!(f.kind(), "fingerprint_mismatch");
        assert!(!f.is_corruption());
    }

    #[test]
    fn display_is_informative() {
        let e = CkptError::Truncated {
            expected: 100,
            got: 60,
        };
        let s = e.to_string();
        assert!(s.contains("100") && s.contains("60"), "{s}");
    }
}
