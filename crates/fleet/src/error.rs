//! The typed `anton-fleet` error vocabulary.
//!
//! Extends `anton-ckpt`'s contract: every failure mode a client or the
//! daemon can hit is a named variant with a stable `kind()` tag, and the
//! *corruption* subset (damaged wire frames or persisted queue records) is
//! classified separately from incompatibility and plain I/O — the drill
//! and the property suites assert on the classification, not on message
//! strings. Everything the byte codec can report (short input, bad magic,
//! version, checksum or length) is a [`CkptError`] carried in
//! [`FleetError::Ckpt`], whose `kind()` and classification pass straight
//! through; the variants declared here are the fleet's own.

use anton_ckpt::CkptError;
use std::fmt;

/// Why a fleet operation could not complete.
#[derive(Debug)]
pub enum FleetError {
    /// A frame declares a payload larger than the protocol allows (refused
    /// before any allocation, so a corrupt length can never OOM the peer).
    FrameTooLarge { len: u64, max: u64 },
    /// An enum tag (message kind, job phase, ...) outside the vocabulary.
    BadTag { what: &'static str, got: u64 },
    /// A job id the daemon has never been given.
    UnknownJob { id: u64 },
    /// A submitted spec failed validation before entering the queue.
    SpecInvalid { reason: String },
    /// The peer answered a request with a wire-level error response.
    Remote { kind: String, message: String },
    /// The peer answered with a response kind the request cannot produce.
    UnexpectedResponse {
        wanted: &'static str,
        got: &'static str,
    },
    /// Codec or checkpoint-layer failure: a damaged or incompatible wire
    /// frame, queue record, job store or persisted queue state.
    Ckpt(CkptError),
    /// Underlying socket/filesystem error.
    Io(std::io::Error),
}

impl FleetError {
    /// Short stable tag naming the variant (drill reports, tests, wire
    /// error responses). Codec and checkpoint errors report their own tag.
    pub fn kind(&self) -> &'static str {
        match self {
            FleetError::FrameTooLarge { .. } => "frame_too_large",
            FleetError::BadTag { .. } => "bad_tag",
            FleetError::UnknownJob { .. } => "unknown_job",
            FleetError::SpecInvalid { .. } => "spec_invalid",
            FleetError::Remote { .. } => "remote",
            FleetError::UnexpectedResponse { .. } => "unexpected_response",
            FleetError::Ckpt(e) => e.kind(),
            FleetError::Io(_) => "io",
        }
    }

    /// True for variants that mean the *bytes* are damaged — a corrupted
    /// wire frame or persisted record — as opposed to valid-but-wrong
    /// requests, incompatibility, or I/O failures. Codec and checkpoint
    /// errors delegate to [`CkptError::is_corruption`].
    pub fn is_corruption(&self) -> bool {
        match self {
            FleetError::FrameTooLarge { .. } | FleetError::BadTag { .. } => true,
            FleetError::Ckpt(e) => e.is_corruption(),
            _ => false,
        }
    }
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::FrameTooLarge { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds the {max}-byte cap")
            }
            FleetError::BadTag { what, got } => write!(f, "{what}: unknown tag {got}"),
            FleetError::UnknownJob { id } => write!(f, "unknown job {id:016x}"),
            FleetError::SpecInvalid { reason } => write!(f, "invalid job spec: {reason}"),
            FleetError::Remote { kind, message } => {
                write!(f, "daemon error [{kind}]: {message}")
            }
            FleetError::UnexpectedResponse { wanted, got } => {
                write!(f, "expected a {wanted} response, got {got}")
            }
            FleetError::Ckpt(e) => e.fmt(f),
            FleetError::Io(e) => write!(f, "fleet i/o: {e}"),
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            // Transparent: `Display` already is the inner error's.
            FleetError::Ckpt(e) => e.source(),
            FleetError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for FleetError {
    fn from(e: std::io::Error) -> FleetError {
        FleetError::Io(e)
    }
}

impl From<CkptError> for FleetError {
    fn from(e: CkptError) -> FleetError {
        FleetError::Ckpt(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_stable_and_corruption_is_classified() {
        let c = FleetError::from(CkptError::ChecksumMismatch {
            what: "payload",
            stored: 1,
            computed: 2,
        });
        assert_eq!(c.kind(), "checksum_mismatch");
        assert!(c.is_corruption());
        assert!(FleetError::FrameTooLarge { len: 9, max: 8 }.is_corruption());
        let u = FleetError::UnknownJob { id: 7 };
        assert_eq!(u.kind(), "unknown_job");
        assert!(!u.is_corruption());
        assert!(!FleetError::SpecInvalid { reason: "x".into() }.is_corruption());
        // Codec and checkpoint errors keep their own tag and classification.
        assert!(FleetError::Ckpt(CkptError::BadMagic).is_corruption());
        assert_eq!(FleetError::Ckpt(CkptError::BadMagic).kind(), "bad_magic");
        assert!(!FleetError::Ckpt(CkptError::BadVersion {
            got: 2,
            expected: 1
        })
        .is_corruption());
    }

    #[test]
    fn display_is_informative() {
        let e = FleetError::from(CkptError::Truncated {
            expected: 100,
            got: 60,
        });
        let s = e.to_string();
        assert!(s.contains("100") && s.contains("60"), "{s}");
        let r = FleetError::Remote {
            kind: "unknown_job".into(),
            message: "job 00ff not found".into(),
        };
        assert!(r.to_string().contains("unknown_job"));
    }
}
