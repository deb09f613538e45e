//! The checkpoint file: the sealed frame of [`crate::codec`] with three
//! meta words around the snapshot payload. The header is 64 bytes, all
//! little-endian; coverage and verification order are the codec's:
//!
//! ```text
//! offset  size  field
//!      0     8  magic            b"ANTCKPT1"
//!      8     4  version          u32 (see [`VERSION`])
//!     12     4  flags            u32 (the frame tag; reserved, 0)
//!     16     8  step             u64 inner-step counter at capture
//!     24     8  n_atoms          u64
//!     32     8  fingerprint      u64 config fingerprint (see fingerprint.rs)
//!     40     8  payload_len      u64 bytes following the header
//!     48     8  payload_fnv      u64 FNV-1a of the payload bytes
//!     56     8  header_fnv       u64 FNV-1a of header bytes 0..56
//! ```
//!
//! Payload layout after the header (all little-endian, lengths explicit so
//! the decoder never infers):
//!
//! ```text
//! u64                 state_len
//! state_len bytes     engine state (FixedState::to_bytes — opaque here)
//! u64                 n_counter_words
//! n × u64             exchange counters (ExchangeCounters::to_words order)
//! u64                 trace dropped spans
//! u64                 trace dropped counters
//! ```
//!
//! The state bytes are deliberately opaque to this crate: `anton-core`
//! owns their interpretation (and validates the embedded atom count
//! against the header's `n_atoms` on restore), keeping the dependency
//! arrow pointing from the engine down to the format, never back.

use crate::codec::{FrameFormat, Reader, Writer};
use crate::error::CkptError;

/// File magic: "ANTon ChecKPoinT", format generation 1.
pub const MAGIC: [u8; 8] = *b"ANTCKPT1";
/// Current format version. Version 2 widened the exchange-counter block
/// from 13 to 16 words (match-stage batch census). Version 3 widened it
/// again to 18 words (rebuild/reuse census) and appended the match-cache
/// reference-epoch section to the payload.
pub const VERSION: u32 = 3;
/// Total encoded header size in bytes.
pub const HEADER_LEN: usize = FrameFormat::<3>::HEADER_LEN;

/// The checkpoint frame; its meta words are (step, n_atoms, fingerprint).
const FRAME: FrameFormat<3> = FrameFormat {
    magic: MAGIC,
    version: VERSION,
};

/// A complete, self-describing simulation snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    /// Inner-step counter at capture (always a cycle boundary when written
    /// by the engine's automatic cadence).
    pub step: u64,
    /// Config fingerprint of the run that wrote the snapshot.
    pub fingerprint: u64,
    /// Atom count (redundant with the state bytes; cross-checked).
    pub n_atoms: u64,
    /// Raw engine state bytes (`FixedState::to_bytes` format).
    pub state: Vec<u8>,
    /// Exchange-counter words (`ExchangeCounters::to_words` order).
    pub counters: Vec<u64>,
    /// Trace bookkeeping carried across a resume: `[dropped_spans,
    /// dropped_counters]`.
    pub trace_dropped: [u64; 2],
    /// Reference-epoch positions of the persistent match cache (raw
    /// `n_atoms × 3 × i32` little-endian fraction bits; empty when the
    /// cache was cold). Restore rebuilds the cache at this epoch so the
    /// rebuild schedule — a pure function of the trajectory and this
    /// reference — continues bitwise across a resume.
    pub match_ref: Vec<u8>,
}

impl Snapshot {
    /// Encode the payload section (everything after the header).
    fn encode_payload(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(
            8 + self.state.len() + 8 + self.counters.len() * 8 + 16 + 8 + self.match_ref.len(),
        );
        w.section(&self.state);
        w.u64(self.counters.len() as u64);
        for &c in &self.counters {
            w.u64(c);
        }
        w.u64(self.trace_dropped[0]);
        w.u64(self.trace_dropped[1]);
        w.section(&self.match_ref);
        w.finish()
    }

    /// Encode the complete file image: header followed by payload. The
    /// encoding is a pure function of the snapshot — byte-identical runs
    /// write byte-identical checkpoints.
    pub fn encode(&self) -> Vec<u8> {
        let meta = [self.step, self.n_atoms, self.fingerprint];
        FRAME.seal(0, meta, &self.encode_payload())
    }

    /// Decode and fully verify a file image produced by [`Self::encode`].
    ///
    /// Verification order: the codec's frame ladder (header length, magic,
    /// header checksum, version, then payload length against the bytes
    /// present — shorter → `Truncated`, longer → `LengthMismatch` — then
    /// the payload checksum), then the payload structure. No length field
    /// is trusted before the checksum guarding it has been verified.
    pub fn decode(bytes: &[u8]) -> Result<Snapshot, CkptError> {
        let (header, body) = FRAME.open_header(bytes)?;
        header.verify_payload(body)?;
        let [step, n_atoms, fingerprint] = header.meta;
        let mut r = Reader::new(body);
        let state = r.section()?.to_vec();
        // The count is not trusted to size anything: the reads stop with
        // a typed error at the first word that is not there.
        let n_words = r.u64()?;
        let counters = (0..n_words).map(|_| r.u64()).collect::<Result<_, _>>()?;
        let trace_dropped = [r.u64()?, r.u64()?];
        let match_ref = r.section()?.to_vec();
        r.expect_end("payload structure")?;
        Ok(Snapshot {
            step,
            fingerprint,
            n_atoms,
            state,
            counters,
            trace_dropped,
            match_ref,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fnv::fnv1a;

    fn sample() -> Snapshot {
        Snapshot {
            step: 64,
            fingerprint: 0x1122334455667788,
            n_atoms: 3,
            state: (0u8..116).collect(),
            counters: vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13],
            trace_dropped: [0, 7],
            match_ref: (0u8..36).collect(),
        }
    }

    #[test]
    fn roundtrip_is_exact() {
        let s = sample();
        assert_eq!(Snapshot::decode(&s.encode()).unwrap(), s);
        // Format pin: the encoded bytes themselves, not just the round trip.
        assert_eq!(fnv1a(&s.encode()), 0x42c2_c188_7fa9_52d1);
    }

    #[test]
    fn encode_is_deterministic() {
        assert_eq!(sample().encode(), sample().encode());
    }

    #[test]
    fn truncation_anywhere_is_detected() {
        let full = sample().encode();
        for len in 0..full.len() {
            let e = Snapshot::decode(&full[..len]).expect_err("truncation must fail");
            assert!(
                matches!(e, CkptError::TooShort { .. } | CkptError::Truncated { .. }),
                "len {len}: unexpected {e}"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_detected() {
        let mut b = sample().encode();
        b.push(0);
        assert_eq!(Snapshot::decode(&b).unwrap_err().kind(), "length_mismatch");
    }

    #[test]
    fn every_payload_bit_flip_is_detected() {
        let b = sample().encode();
        for i in HEADER_LEN..b.len() {
            for bit in 0..8 {
                let mut f = b.clone();
                f[i] ^= 1 << bit;
                let e = Snapshot::decode(&f).expect_err("flip must be detected");
                assert_eq!(e.kind(), "checksum_mismatch", "byte {i} bit {bit}");
            }
        }
    }
}
