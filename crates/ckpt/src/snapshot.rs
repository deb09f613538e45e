//! The snapshot payload: what a checkpoint actually carries.
//!
//! Payload layout after the [`Header`](crate::header::Header) (all
//! little-endian, lengths explicit so the decoder never infers):
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

use crate::error::CkptError;
use crate::fnv::fnv1a;
use crate::header::{Header, HEADER_LEN, VERSION};

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
    /// displacement monitor's rebuild schedule — a pure function of the
    /// trajectory and this reference — continues bitwise across a resume.
    pub match_ref: Vec<u8>,
}

/// Little-endian u64 reader that tracks its own cursor.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn u64(&mut self) -> Result<u64, CkptError> {
        let end = self.pos + 8;
        if end > self.bytes.len() {
            return Err(CkptError::TooShort {
                needed: end as u64,
                got: self.bytes.len() as u64,
            });
        }
        let v = u64::from_le_bytes(self.bytes[self.pos..end].try_into().unwrap());
        self.pos = end;
        Ok(v)
    }

    fn take(&mut self, len: u64, what: &'static str) -> Result<&'a [u8], CkptError> {
        let len_usize = usize::try_from(len).map_err(|_| CkptError::LengthMismatch {
            what,
            expected: len,
            got: self.bytes.len() as u64,
        })?;
        let end = self
            .pos
            .checked_add(len_usize)
            .ok_or(CkptError::LengthMismatch {
                what,
                expected: len,
                got: self.bytes.len() as u64,
            })?;
        if end > self.bytes.len() {
            return Err(CkptError::LengthMismatch {
                what,
                expected: len,
                got: (self.bytes.len() - self.pos) as u64,
            });
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }
}

impl Snapshot {
    /// Encode the payload section (everything after the header).
    fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            8 + self.state.len() + 8 + self.counters.len() * 8 + 16 + 8 + self.match_ref.len(),
        );
        out.extend_from_slice(&(self.state.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.state);
        out.extend_from_slice(&(self.counters.len() as u64).to_le_bytes());
        for w in &self.counters {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out.extend_from_slice(&self.trace_dropped[0].to_le_bytes());
        out.extend_from_slice(&self.trace_dropped[1].to_le_bytes());
        out.extend_from_slice(&(self.match_ref.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.match_ref);
        out
    }

    /// Encode the complete file image: header followed by payload. The
    /// encoding is a pure function of the snapshot — byte-identical runs
    /// write byte-identical checkpoints.
    pub fn encode(&self) -> Vec<u8> {
        let payload = self.encode_payload();
        let header = Header {
            version: VERSION,
            flags: 0,
            step: self.step,
            n_atoms: self.n_atoms,
            fingerprint: self.fingerprint,
            payload_len: payload.len() as u64,
            payload_fnv: fnv1a(&payload),
        };
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        out.extend_from_slice(&header.encode());
        out.extend_from_slice(&payload);
        out
    }

    /// Decode and fully verify a file image produced by [`Self::encode`].
    ///
    /// Verification order: header (magic, version, header checksum), then
    /// payload length against the bytes present (shorter → `Truncated`,
    /// longer → `LengthMismatch`), then the payload checksum, then the
    /// payload structure. No length field is trusted before the checksum
    /// guarding it has been verified.
    pub fn decode(bytes: &[u8]) -> Result<Snapshot, CkptError> {
        let header = Header::decode(bytes)?;
        let body = &bytes[HEADER_LEN..];
        if (body.len() as u64) < header.payload_len {
            return Err(CkptError::Truncated {
                expected: header.payload_len,
                got: body.len() as u64,
            });
        }
        if body.len() as u64 > header.payload_len {
            return Err(CkptError::LengthMismatch {
                what: "trailing bytes after payload",
                expected: header.payload_len,
                got: body.len() as u64,
            });
        }
        let computed = fnv1a(body);
        if computed != header.payload_fnv {
            return Err(CkptError::ChecksumMismatch {
                what: "payload",
                stored: header.payload_fnv,
                computed,
            });
        }
        let mut r = Reader {
            bytes: body,
            pos: 0,
        };
        let state_len = r.u64()?;
        let state = r.take(state_len, "state section")?.to_vec();
        let n_words = r.u64()?;
        let words = r.take(n_words.saturating_mul(8), "counter section")?;
        let counters: Vec<u64> = words
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        let dropped_spans = r.u64()?;
        let dropped_counters = r.u64()?;
        let match_ref_len = r.u64()?;
        let match_ref = r.take(match_ref_len, "match-cache epoch section")?.to_vec();
        if r.pos != body.len() {
            return Err(CkptError::LengthMismatch {
                what: "payload structure",
                expected: r.pos as u64,
                got: body.len() as u64,
            });
        }
        Ok(Snapshot {
            step: header.step,
            fingerprint: header.fingerprint,
            n_atoms: header.n_atoms,
            state,
            counters,
            trace_dropped: [dropped_spans, dropped_counters],
            match_ref,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
