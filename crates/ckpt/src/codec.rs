//! The workspace's one byte codec: a little-endian field cursor pair and
//! the sealed frame every checksummed container is an instance of.
//!
//! **Cursor.** [`Writer`] appends fixed-width little-endian fields;
//! [`Reader`] takes them back with every access bounds-checked into a
//! typed [`CkptError`]. Checkpoint payloads, engine state images, fleet
//! messages and persisted queue records are all written and read through
//! this pair, so "bitwise identical" means the same thing everywhere.
//!
//! **Sealed frame.** One layout, parameterised by the number `K` of
//! 64-bit meta words (all integers little-endian):
//!
//! ```text
//! offset     size  field
//!      0        8  magic
//!      8        4  version      u32
//!     12        4  tag          u32
//!     16      8·K  meta         K × u64
//! 16+8K        8  payload_len  u64 bytes following the header
//! 24+8K        8  payload_fnv  u64 FNV-1a of the payload bytes
//! 32+8K        8  header_fnv   u64 FNV-1a of every header byte before it
//! 40+8K       ..  payload
//! ```
//!
//! Every bit of a frame is covered: a flip in the magic fails that check,
//! a flip anywhere else in the header (including in `header_fnv` itself)
//! fails the header checksum, a flip in the payload fails the payload
//! checksum. One verification ladder, in this order: fixed header length
//! → magic → header FNV → version ([`FrameFormat::open_header`]) →
//! declared length against the bytes present → payload FNV
//! ([`FrameHeader::verify_payload`]). `header_fnv` is verified **before**
//! `payload_len` is trusted, so a corrupted length can never direct a
//! scan or an allocation; a caller with a policy on the verified fields
//! (a size cap, a tag vocabulary) applies it between the two halves.
//!
//! Instances: the checkpoint file header (`K = 3`, 64 bytes —
//! [`crate::header`]) and the `anton-fleet` socket frame (`K = 0`,
//! 40 bytes).

use crate::error::CkptError;
use crate::fnv::fnv1a;

/// Longest string field [`Reader::str_field`] accepts, in bytes.
pub const MAX_STR_FIELD: usize = 4096;

/// Append-only little-endian encoder.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub fn new() -> Writer {
        Writer::default()
    }

    pub fn with_capacity(cap: usize) -> Writer {
        Writer {
            buf: Vec::with_capacity(cap),
        }
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Raw bytes, no length prefix (the reader must know the length).
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// A `u64` length followed by that many opaque bytes.
    pub fn section(&mut self, b: &[u8]) {
        self.u64(b.len() as u64);
        self.bytes(b);
    }

    /// A `u32` length followed by the string's UTF-8 bytes.
    pub fn str_field(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.bytes(s.as_bytes());
    }

    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked little-endian decoder that tracks its own cursor.
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// The next `len` raw bytes.
    fn take(&mut self, len: usize) -> Result<&'a [u8], CkptError> {
        if len > self.remaining() {
            return Err(CkptError::TooShort {
                needed: (self.pos as u64).saturating_add(len as u64),
                got: self.bytes.len() as u64,
            });
        }
        let s = &self.bytes[self.pos..self.pos + len];
        self.pos += len;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], CkptError> {
        let s = self.take(N)?;
        Ok(s.try_into().expect("take returned exactly N bytes"))
    }

    pub fn u8(&mut self) -> Result<u8, CkptError> {
        Ok(self.array::<1>()?[0])
    }

    pub fn u32(&mut self) -> Result<u32, CkptError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    pub fn u64(&mut self) -> Result<u64, CkptError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    pub fn i32(&mut self) -> Result<i32, CkptError> {
        Ok(i32::from_le_bytes(self.array()?))
    }

    pub fn i64(&mut self) -> Result<i64, CkptError> {
        Ok(i64::from_le_bytes(self.array()?))
    }

    /// A [`Writer::section`]: the declared length is checked against the
    /// bytes present before anything is sliced.
    pub fn section(&mut self) -> Result<&'a [u8], CkptError> {
        let declared = self.u64()?;
        self.take(usize::try_from(declared).unwrap_or(usize::MAX))
    }

    /// The bytes of a [`Writer::str_field`], refused beyond
    /// [`MAX_STR_FIELD`]. UTF-8 validation is the caller's: what an
    /// ill-formed string *means* belongs to the caller's error vocabulary.
    pub fn str_field(&mut self, what: &'static str) -> Result<&'a [u8], CkptError> {
        let len = self.u32()? as usize;
        if len > MAX_STR_FIELD {
            return Err(CkptError::LengthMismatch {
                what,
                expected: len as u64,
                got: MAX_STR_FIELD as u64,
            });
        }
        self.take(len)
    }

    /// Require that every byte has been consumed (trailing garbage in a
    /// decoded message is corruption, not slack).
    pub fn expect_end(&self, what: &'static str) -> Result<(), CkptError> {
        if self.remaining() != 0 {
            return Err(CkptError::LengthMismatch {
                what,
                expected: self.pos as u64,
                got: self.bytes.len() as u64,
            });
        }
        Ok(())
    }
}

/// One sealed-frame format: its magic, its version, and `K` meta words.
#[derive(Clone, Copy, Debug)]
pub struct FrameFormat<const K: usize> {
    pub magic: [u8; 8],
    pub version: u32,
}

/// The verified fields of one frame header (magic, version and
/// `header_fnv` are checked by [`FrameFormat::open_header`], not stored).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameHeader<const K: usize> {
    pub tag: u32,
    pub meta: [u64; K],
    pub payload_len: u64,
    pub payload_fnv: u64,
}

impl<const K: usize> FrameFormat<K> {
    /// Encoded header size in bytes.
    pub const HEADER_LEN: usize = 40 + 8 * K;

    fn write_header(&self, w: &mut Writer, h: &FrameHeader<K>) {
        let start = w.buf.len();
        w.bytes(&self.magic);
        w.u32(self.version);
        w.u32(h.tag);
        for m in h.meta {
            w.u64(m);
        }
        w.u64(h.payload_len);
        w.u64(h.payload_fnv);
        let header_fnv = fnv1a(&w.buf[start..]);
        w.u64(header_fnv);
    }

    /// Encode a header alone, computing `header_fnv`.
    pub fn encode_header(&self, h: &FrameHeader<K>) -> Vec<u8> {
        let mut w = Writer::with_capacity(Self::HEADER_LEN);
        self.write_header(&mut w, h);
        w.finish()
    }

    /// Encode one complete frame around `payload`.
    pub fn seal(&self, tag: u32, meta: [u64; K], payload: &[u8]) -> Vec<u8> {
        let mut w = Writer::with_capacity(Self::HEADER_LEN + payload.len());
        let header = FrameHeader {
            tag,
            meta,
            payload_len: payload.len() as u64,
            payload_fnv: fnv1a(payload),
        };
        self.write_header(&mut w, &header);
        w.bytes(payload);
        w.finish()
    }

    /// First half of the ladder, over the fixed-size prefix of `bytes`:
    /// length, magic, header checksum, version. Returns the verified
    /// fields and whatever follows the header.
    pub fn open_header<'a>(
        &self,
        bytes: &'a [u8],
    ) -> Result<(FrameHeader<K>, &'a [u8]), CkptError> {
        if bytes.len() < Self::HEADER_LEN {
            return Err(CkptError::TooShort {
                needed: Self::HEADER_LEN as u64,
                got: bytes.len() as u64,
            });
        }
        let (head, rest) = bytes.split_at(Self::HEADER_LEN);
        let (hashed, stored) = head.split_at(Self::HEADER_LEN - 8);
        let mut r = Reader::new(hashed);
        if r.take(8)? != self.magic {
            return Err(CkptError::BadMagic);
        }
        let stored = Reader::new(stored).u64()?;
        let computed = fnv1a(hashed);
        if stored != computed {
            return Err(CkptError::ChecksumMismatch {
                what: "header",
                stored,
                computed,
            });
        }
        let version = r.u32()?;
        if version != self.version {
            return Err(CkptError::BadVersion {
                got: version,
                expected: self.version,
            });
        }
        let tag = r.u32()?;
        let mut meta = [0u64; K];
        for m in &mut meta {
            *m = r.u64()?;
        }
        let header = FrameHeader {
            tag,
            meta,
            payload_len: r.u64()?,
            payload_fnv: r.u64()?,
        };
        Ok((header, rest))
    }
}

impl<const K: usize> FrameHeader<K> {
    /// Second half of the ladder: `body` must be exactly the declared
    /// payload (shorter → `Truncated`, longer → `LengthMismatch`) and hash
    /// to the stored payload checksum.
    pub fn verify_payload(&self, body: &[u8]) -> Result<(), CkptError> {
        let got = body.len() as u64;
        if got < self.payload_len {
            return Err(CkptError::Truncated {
                expected: self.payload_len,
                got,
            });
        }
        if got > self.payload_len {
            return Err(CkptError::LengthMismatch {
                what: "trailing bytes after payload",
                expected: self.payload_len,
                got,
            });
        }
        let computed = fnv1a(body);
        if computed != self.payload_fnv {
            return Err(CkptError::ChecksumMismatch {
                what: "payload",
                stored: self.payload_fnv,
                computed,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cursor_roundtrips_every_field_width() {
        let mut w = Writer::new();
        w.u8(7);
        w.u32(0xdead_beef);
        w.u64(u64::MAX - 1);
        w.i32(-3);
        w.i64(i64::MIN);
        w.section(b"opaque");
        w.str_field("name");
        let bytes = w.finish();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.i32().unwrap(), -3);
        assert_eq!(r.i64().unwrap(), i64::MIN);
        assert_eq!(r.section().unwrap(), b"opaque");
        assert_eq!(r.str_field("string").unwrap(), b"name");
        r.expect_end("message").unwrap();
    }

    #[test]
    fn reads_past_the_end_and_hostile_lengths_are_typed() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert!(matches!(
            r.u64(),
            Err(CkptError::TooShort { needed: 8, got: 3 })
        ));
        assert_eq!(r.remaining(), 3, "a failed read consumes nothing");
        assert_eq!(r.expect_end("x").unwrap_err().kind(), "length_mismatch");

        // A section declaring more than is present, and more than fits.
        let mut w = Writer::new();
        w.u64(9);
        w.u8(0);
        assert_eq!(
            Reader::new(&w.finish()).section().unwrap_err().kind(),
            "too_short"
        );
        let mut w = Writer::new();
        w.u64(u64::MAX);
        assert_eq!(
            Reader::new(&w.finish()).section().unwrap_err().kind(),
            "too_short"
        );

        // The string cap is enforced on the declared length alone.
        let mut w = Writer::new();
        w.u32(MAX_STR_FIELD as u32 + 1);
        assert_eq!(
            Reader::new(&w.finish()).str_field("s").unwrap_err().kind(),
            "length_mismatch"
        );
    }

    #[test]
    fn frame_ladder_reports_the_first_failed_rung() {
        const F: FrameFormat<1> = FrameFormat {
            magic: *b"TESTFRM1",
            version: 2,
        };
        let frame = F.seal(5, [11], b"payload");
        assert_eq!(frame.len(), FrameFormat::<1>::HEADER_LEN + 7);
        let (h, body) = F.open_header(&frame).unwrap();
        assert_eq!((h.tag, h.meta, h.payload_len), (5, [11], 7));
        h.verify_payload(body).unwrap();
        assert_eq!(F.encode_header(&h), frame[..48]);

        assert_eq!(F.open_header(&frame[..47]).unwrap_err().kind(), "too_short");
        let other_magic = FrameFormat::<1> {
            magic: *b"OTHERFM1",
            ..F
        };
        assert_eq!(
            other_magic.open_header(&frame).unwrap_err().kind(),
            "bad_magic"
        );
        // A flipped version bit is caught by the header checksum; only a
        // well-sealed header of another version is an incompatibility.
        let mut flipped = frame.clone();
        flipped[8] ^= 1;
        assert_eq!(
            F.open_header(&flipped).unwrap_err().kind(),
            "checksum_mismatch"
        );
        let other_version = FrameFormat::<1> { version: 3, ..F };
        assert_eq!(
            other_version.open_header(&frame).unwrap_err().kind(),
            "bad_version"
        );
        assert_eq!(
            h.verify_payload(&body[..6]).unwrap_err().kind(),
            "truncated"
        );
        assert_eq!(
            h.verify_payload(b"payload!").unwrap_err().kind(),
            "length_mismatch"
        );
        assert_eq!(
            h.verify_payload(b"pAyload").unwrap_err().kind(),
            "checksum_mismatch"
        );
    }
}
