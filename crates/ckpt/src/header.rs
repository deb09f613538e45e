//! The checkpoint file header: the sealed frame of [`crate::codec`]
//! instantiated with three meta words — 64 bytes, all little-endian:
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
//! Coverage and verification order are the codec's; nothing here checks a
//! byte itself.

use crate::codec::{FrameFormat, FrameHeader};
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

/// Decoded header fields (magic and `header_fnv` are handled by
/// [`Header::encode`] / [`Header::decode`], not stored).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Header {
    pub version: u32,
    pub flags: u32,
    pub step: u64,
    pub n_atoms: u64,
    pub fingerprint: u64,
    pub payload_len: u64,
    pub payload_fnv: u64,
}

impl Header {
    fn format(version: u32) -> FrameFormat<3> {
        FrameFormat {
            magic: MAGIC,
            version,
        }
    }

    fn frame(&self) -> FrameHeader<3> {
        FrameHeader {
            tag: self.flags,
            meta: [self.step, self.n_atoms, self.fingerprint],
            payload_len: self.payload_len,
            payload_fnv: self.payload_fnv,
        }
    }

    /// Encode to the canonical 64-byte layout, computing `header_fnv`.
    pub fn encode(&self) -> [u8; HEADER_LEN] {
        Self::format(self.version)
            .encode_header(&self.frame())
            .try_into()
            .expect("a K = 3 frame header is HEADER_LEN bytes")
    }

    /// A complete current-version file image: header, then `payload`.
    pub fn seal(step: u64, n_atoms: u64, fingerprint: u64, payload: &[u8]) -> Vec<u8> {
        Self::format(VERSION).seal(0, [step, n_atoms, fingerprint], payload)
    }

    /// Decode and verify a header from the start of `bytes` (length,
    /// magic, header checksum, version — in that order).
    pub fn decode(bytes: &[u8]) -> Result<Header, CkptError> {
        let (h, _) = Self::format(VERSION).open_header(bytes)?;
        let [step, n_atoms, fingerprint] = h.meta;
        Ok(Header {
            version: VERSION,
            flags: h.tag,
            step,
            n_atoms,
            fingerprint,
            payload_len: h.payload_len,
            payload_fnv: h.payload_fnv,
        })
    }

    /// Verify the bytes after the header against it: exact declared
    /// length, then the payload checksum.
    pub fn verify_payload(&self, body: &[u8]) -> Result<(), CkptError> {
        self.frame().verify_payload(body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Header {
        Header {
            version: VERSION,
            flags: 0,
            step: 12345,
            n_atoms: 1020,
            fingerprint: 0xdeadbeefcafef00d,
            payload_len: 36728,
            payload_fnv: 0x0123456789abcdef,
        }
    }

    #[test]
    fn roundtrip_is_exact() {
        let h = sample();
        assert_eq!(Header::decode(&h.encode()).unwrap(), h);
    }

    #[test]
    fn short_input_is_too_short() {
        let e = Header::decode(&[0u8; 10]).unwrap_err();
        assert_eq!(e.kind(), "too_short");
    }

    #[test]
    fn wrong_magic_and_version_are_typed() {
        let mut b = sample().encode();
        b[0] ^= 0xff;
        assert_eq!(Header::decode(&b).unwrap_err().kind(), "bad_magic");

        let mut h = sample();
        h.version = VERSION + 1;
        assert_eq!(
            Header::decode(&h.encode()).unwrap_err().kind(),
            "bad_version"
        );
    }

    #[test]
    fn every_header_bit_flip_is_detected() {
        let b = sample().encode();
        for i in 0..HEADER_LEN {
            for bit in 0..8 {
                let mut f = b;
                f[i] ^= 1 << bit;
                let e = Header::decode(&f).expect_err("flip must be detected");
                assert!(
                    e.is_corruption() || matches!(e, CkptError::BadVersion { .. }),
                    "byte {i} bit {bit}: unexpected {e}"
                );
            }
        }
    }
}
