//! The fleet wire protocol: length-prefixed, versioned, FNV-checksummed
//! frames over a byte stream, and the request/response message vocabulary
//! inside them.
//!
//! Frame layout (all integers little-endian, mirroring the `anton-ckpt`
//! container discipline — every bit of a frame is covered by the magic
//! check or one of two FNV-1a checksums):
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"ANTFLET1"
//! 8       4     protocol version (1)
//! 12      4     frame kind (1 = request, 2 = response)
//! 16      8     payload_len
//! 24      8     payload FNV-1a
//! 32      8     header FNV-1a (over bytes 0..32)
//! 40      ...   payload
//! ```
//!
//! Verification order on decode: length of the fixed header, magic, header
//! checksum, version, kind, payload cap, payload length, payload checksum
//! — no length field is trusted before the checksum guarding it has been
//! verified, and the payload cap is enforced before any allocation so a
//! damaged length can never balloon a peer.

use crate::error::FleetError;
use crate::queue::{JobStatusView, PhaseTotals};
use crate::spec::{JobId, JobSpec};
use anton_ckpt::fnv1a;
use std::io::{Read, Write};

/// Frame magic: `ANTFLET1`.
pub const MAGIC: [u8; 8] = *b"ANTFLET1";
/// Wire protocol version.
pub const VERSION: u32 = 1;
/// Fixed frame header length in bytes.
pub const FRAME_HEADER_LEN: usize = 40;
/// Maximum payload a frame may declare (refused before allocation).
pub const MAX_FRAME_PAYLOAD: u64 = 1 << 22;

/// What a frame carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameKind {
    Request,
    Response,
}

impl FrameKind {
    fn tag(self) -> u32 {
        match self {
            FrameKind::Request => 1,
            FrameKind::Response => 2,
        }
    }

    fn from_tag(tag: u32) -> Result<FrameKind, FleetError> {
        match tag {
            1 => Ok(FrameKind::Request),
            2 => Ok(FrameKind::Response),
            other => Err(FleetError::BadTag {
                what: "frame kind",
                got: other as u64,
            }),
        }
    }
}

/// Append-only little-endian encoder shared by every fleet codec.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub fn new() -> Writer {
        Writer::default()
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

    /// Length-prefixed UTF-8 string field.
    pub fn str_field(&mut self, s: &str) {
        self.u32(s.len() as u32);
        // detlint::allow(D8, reason = "the field is &str, so these bytes are UTF-8 — identical on every architecture; no integer layout is involved")
        self.buf.extend_from_slice(s.as_bytes());
    }

    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Cursor-tracking little-endian decoder with typed errors.
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, pos: 0 }
    }

    fn take(&mut self, len: usize, what: &'static str) -> Result<&'a [u8], FleetError> {
        let end = self
            .pos
            .checked_add(len)
            .ok_or(FleetError::LengthMismatch {
                what,
                expected: len as u64,
                got: self.bytes.len() as u64,
            })?;
        if end > self.bytes.len() {
            return Err(FleetError::TooShort {
                needed: end as u64,
                got: self.bytes.len() as u64,
            });
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8, FleetError> {
        Ok(self.take(1, "u8 field")?[0])
    }

    pub fn u32(&mut self) -> Result<u32, FleetError> {
        Ok(u32::from_le_bytes(
            self.take(4, "u32 field")?.try_into().unwrap(),
        ))
    }

    pub fn u64(&mut self) -> Result<u64, FleetError> {
        Ok(u64::from_le_bytes(
            self.take(8, "u64 field")?.try_into().unwrap(),
        ))
    }

    /// Length-prefixed UTF-8 string field (capped at 4096 bytes).
    pub fn str_field(&mut self, what: &'static str) -> Result<String, FleetError> {
        let len = self.u32()? as usize;
        if len > 4096 {
            return Err(FleetError::LengthMismatch {
                what,
                expected: len as u64,
                got: 4096,
            });
        }
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| FleetError::BadTag {
            what: "utf-8 string field",
            got: 0,
        })
    }

    /// Require that every byte has been consumed (trailing garbage in a
    /// decoded message is corruption, not slack).
    pub fn expect_end(&self, what: &'static str) -> Result<(), FleetError> {
        if self.pos != self.bytes.len() {
            return Err(FleetError::LengthMismatch {
                what,
                expected: self.pos as u64,
                got: self.bytes.len() as u64,
            });
        }
        Ok(())
    }
}

/// Encode one complete frame around `payload`.
pub fn encode_frame(kind: FrameKind, payload: &[u8]) -> Vec<u8> {
    let mut head = Vec::with_capacity(FRAME_HEADER_LEN);
    head.extend_from_slice(&MAGIC);
    head.extend_from_slice(&VERSION.to_le_bytes());
    head.extend_from_slice(&kind.tag().to_le_bytes());
    head.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    head.extend_from_slice(&fnv1a(payload).to_le_bytes());
    let header_fnv = fnv1a(&head);
    head.extend_from_slice(&header_fnv.to_le_bytes());
    head.extend_from_slice(payload);
    head
}

/// Decode and fully verify a frame from an in-memory byte string. The
/// image must contain exactly one frame (the stream reader below handles
/// framing; this strict form is what the property corpus attacks).
pub fn decode_frame(bytes: &[u8]) -> Result<(FrameKind, &[u8]), FleetError> {
    if bytes.len() < FRAME_HEADER_LEN {
        return Err(FleetError::TooShort {
            needed: FRAME_HEADER_LEN as u64,
            got: bytes.len() as u64,
        });
    }
    let (kind, payload_len) = verify_header(bytes[..FRAME_HEADER_LEN].try_into().unwrap())?;
    let body = &bytes[FRAME_HEADER_LEN..];
    if (body.len() as u64) < payload_len {
        return Err(FleetError::Truncated {
            expected: payload_len,
            got: body.len() as u64,
        });
    }
    if body.len() as u64 > payload_len {
        return Err(FleetError::LengthMismatch {
            what: "trailing bytes after frame payload",
            expected: payload_len,
            got: body.len() as u64,
        });
    }
    verify_payload(bytes[..FRAME_HEADER_LEN].try_into().unwrap(), body)?;
    Ok((kind, body))
}

/// Verify the fixed header alone; returns (kind, payload_len).
fn verify_header(head: &[u8; FRAME_HEADER_LEN]) -> Result<(FrameKind, u64), FleetError> {
    if head[..8] != MAGIC {
        return Err(FleetError::BadMagic);
    }
    let stored_header_fnv = u64::from_le_bytes(head[32..40].try_into().unwrap());
    let computed = fnv1a(&head[..32]);
    if computed != stored_header_fnv {
        return Err(FleetError::ChecksumMismatch {
            what: "frame header",
            stored: stored_header_fnv,
            computed,
        });
    }
    let version = u32::from_le_bytes(head[8..12].try_into().unwrap());
    if version != VERSION {
        return Err(FleetError::BadVersion {
            got: version,
            expected: VERSION,
        });
    }
    let kind = FrameKind::from_tag(u32::from_le_bytes(head[12..16].try_into().unwrap()))?;
    let payload_len = u64::from_le_bytes(head[16..24].try_into().unwrap());
    if payload_len > MAX_FRAME_PAYLOAD {
        return Err(FleetError::FrameTooLarge {
            len: payload_len,
            max: MAX_FRAME_PAYLOAD,
        });
    }
    Ok((kind, payload_len))
}

fn verify_payload(head: &[u8; FRAME_HEADER_LEN], payload: &[u8]) -> Result<(), FleetError> {
    let stored = u64::from_le_bytes(head[24..32].try_into().unwrap());
    let computed = fnv1a(payload);
    if computed != stored {
        return Err(FleetError::ChecksumMismatch {
            what: "frame payload",
            stored,
            computed,
        });
    }
    Ok(())
}

/// Read exactly one verified frame from a stream.
// detlint::boundary(reason = "audited socket I/O edge: bytes enter the daemon only through this verified decode; nothing host-dependent flows past the checksum checks")
pub fn read_frame(r: &mut impl Read) -> Result<(FrameKind, Vec<u8>), FleetError> {
    let mut head = [0u8; FRAME_HEADER_LEN];
    r.read_exact(&mut head)?;
    let (kind, payload_len) = verify_header(&head)?;
    let mut payload = vec![0u8; payload_len as usize];
    r.read_exact(&mut payload)?;
    verify_payload(&head, &payload)?;
    Ok((kind, payload))
}

/// Write one frame to a stream and flush it.
// detlint::boundary(reason = "audited socket I/O edge: the encoded frame is a pure function of the message; the stream only carries it")
pub fn write_frame(w: &mut impl Write, kind: FrameKind, payload: &[u8]) -> Result<(), FleetError> {
    w.write_all(&encode_frame(kind, payload))?;
    w.flush()?;
    Ok(())
}

/// Client → daemon messages.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness + queue headline numbers.
    Ping,
    /// Enter a job into the queue (idempotent: the id is content-derived).
    Submit(JobSpec),
    /// One job's status record.
    Status(JobId),
    /// Every job's status record, in deterministic schedule order.
    List,
    /// One job's status plus its per-phase trace totals.
    Summary(JobId),
    /// Drain current slices and stop the daemon.
    Shutdown,
}

impl Request {
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            Request::Ping => w.u32(1),
            Request::Submit(spec) => {
                w.u32(2);
                spec.encode_into(&mut w);
            }
            Request::Status(id) => {
                w.u32(3);
                w.u64(id.0);
            }
            Request::List => w.u32(4),
            Request::Summary(id) => {
                w.u32(5);
                w.u64(id.0);
            }
            Request::Shutdown => w.u32(6),
        }
        w.finish()
    }

    pub fn decode(bytes: &[u8]) -> Result<Request, FleetError> {
        let mut r = Reader::new(bytes);
        let req = match r.u32()? {
            1 => Request::Ping,
            2 => Request::Submit(JobSpec::decode_from(&mut r)?),
            3 => Request::Status(JobId(r.u64()?)),
            4 => Request::List,
            5 => Request::Summary(JobId(r.u64()?)),
            6 => Request::Shutdown,
            other => {
                return Err(FleetError::BadTag {
                    what: "request tag",
                    got: other as u64,
                })
            }
        };
        r.expect_end("request message")?;
        Ok(req)
    }
}

/// Daemon → client messages.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Liveness: total jobs known and the persisted queue revision.
    Pong {
        jobs: u64,
        revision: u64,
    },
    /// Submission outcome: `fresh` is false when the identical job was
    /// already known (idempotent resubmit), `position` is the job's place
    /// in the deterministic schedule order at answer time.
    Submitted {
        id: JobId,
        fresh: bool,
        position: u64,
    },
    Status(JobStatusView),
    Jobs(Vec<JobStatusView>),
    Summary {
        status: JobStatusView,
        phases: Vec<PhaseTotals>,
    },
    /// Typed failure relayed over the wire.
    Error {
        kind: String,
        message: String,
    },
    ShuttingDown,
}

impl Response {
    /// Short name for `UnexpectedResponse` diagnostics.
    pub fn name(&self) -> &'static str {
        match self {
            Response::Pong { .. } => "pong",
            Response::Submitted { .. } => "submitted",
            Response::Status(_) => "status",
            Response::Jobs(_) => "jobs",
            Response::Summary { .. } => "summary",
            Response::Error { .. } => "error",
            Response::ShuttingDown => "shutting_down",
        }
    }

    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            Response::Pong { jobs, revision } => {
                w.u32(1);
                w.u64(*jobs);
                w.u64(*revision);
            }
            Response::Submitted {
                id,
                fresh,
                position,
            } => {
                w.u32(2);
                w.u64(id.0);
                w.u8(*fresh as u8);
                w.u64(*position);
            }
            Response::Status(view) => {
                w.u32(3);
                view.encode_into(&mut w);
            }
            Response::Jobs(views) => {
                w.u32(4);
                w.u64(views.len() as u64);
                for v in views {
                    v.encode_into(&mut w);
                }
            }
            Response::Summary { status, phases } => {
                w.u32(5);
                status.encode_into(&mut w);
                w.u64(phases.len() as u64);
                for p in phases {
                    p.encode_into(&mut w);
                }
            }
            Response::Error { kind, message } => {
                w.u32(6);
                w.str_field(kind);
                w.str_field(message);
            }
            Response::ShuttingDown => w.u32(7),
        }
        w.finish()
    }

    pub fn decode(bytes: &[u8]) -> Result<Response, FleetError> {
        let mut r = Reader::new(bytes);
        let resp = match r.u32()? {
            1 => Response::Pong {
                jobs: r.u64()?,
                revision: r.u64()?,
            },
            2 => Response::Submitted {
                id: JobId(r.u64()?),
                fresh: r.u8()? != 0,
                position: r.u64()?,
            },
            3 => Response::Status(JobStatusView::decode_from(&mut r)?),
            4 => {
                let n = r.u64()?;
                if n > 100_000 {
                    return Err(FleetError::LengthMismatch {
                        what: "job list",
                        expected: n,
                        got: 100_000,
                    });
                }
                let mut views = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    views.push(JobStatusView::decode_from(&mut r)?);
                }
                Response::Jobs(views)
            }
            5 => {
                let status = JobStatusView::decode_from(&mut r)?;
                let n = r.u64()?;
                if n > 1024 {
                    return Err(FleetError::LengthMismatch {
                        what: "phase totals",
                        expected: n,
                        got: 1024,
                    });
                }
                let mut phases = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    phases.push(PhaseTotals::decode_from(&mut r)?);
                }
                Response::Summary { status, phases }
            }
            6 => Response::Error {
                kind: r.str_field("error kind")?,
                message: r.str_field("error message")?,
            },
            7 => Response::ShuttingDown,
            other => {
                return Err(FleetError::BadTag {
                    what: "response tag",
                    got: other as u64,
                })
            }
        };
        r.expect_end("response message")?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> JobSpec {
        JobSpec {
            name: "frame-test".into(),
            n_waters: 12,
            box_edge: 15.5,
            placement_seed: 1,
            temperature_k: 290.0,
            velocity_seed: 2,
            cutoff: 7.0,
            mesh: 16,
            cycles: 2,
            priority: 3,
            nodes: 8,
            threads: 2,
        }
    }

    #[test]
    fn frame_roundtrip_is_exact() {
        let payload = Request::Submit(spec()).encode();
        let frame = encode_frame(FrameKind::Request, &payload);
        // Format pin: the encoded bytes themselves, not just the round trip.
        assert_eq!(fnv1a(&frame), 0x05d2_365e_68a2_1083);
        let (kind, body) = decode_frame(&frame).unwrap();
        assert_eq!(kind, FrameKind::Request);
        assert_eq!(body, &payload[..]);
        assert_eq!(Request::decode(body).unwrap(), Request::Submit(spec()));
    }

    #[test]
    fn stream_reader_matches_in_memory_decoder() {
        let payload = Response::Pong {
            jobs: 3,
            revision: 9,
        }
        .encode();
        let frame = encode_frame(FrameKind::Response, &payload);
        let mut cursor = &frame[..];
        let (kind, body) = read_frame(&mut cursor).unwrap();
        assert_eq!(kind, FrameKind::Response);
        assert_eq!(body, payload);
        assert!(cursor.is_empty());
    }

    #[test]
    fn every_bit_flip_in_a_frame_is_detected() {
        let payload = Request::Summary(JobId(0xdead_beef_0123_4567)).encode();
        let frame = encode_frame(FrameKind::Request, &payload);
        for i in 0..frame.len() {
            for bit in 0..8 {
                let mut f = frame.clone();
                f[i] ^= 1 << bit;
                let err = decode_frame(&f).expect_err("flip must be detected");
                assert!(
                    err.is_corruption() || matches!(err, FleetError::BadVersion { .. }),
                    "byte {i} bit {bit}: unexpected {err}"
                );
            }
        }
    }

    #[test]
    fn truncation_and_trailing_garbage_are_detected() {
        let frame = encode_frame(FrameKind::Request, &Request::List.encode());
        for len in 0..frame.len() {
            let err = decode_frame(&frame[..len]).expect_err("truncation must fail");
            assert!(
                matches!(
                    err,
                    FleetError::TooShort { .. } | FleetError::Truncated { .. }
                ),
                "len {len}: unexpected {err}"
            );
        }
        let mut long = frame.clone();
        long.push(0);
        assert_eq!(decode_frame(&long).unwrap_err().kind(), "length_mismatch");
    }

    #[test]
    fn oversized_declared_payload_is_refused_before_allocation() {
        let mut frame = encode_frame(FrameKind::Request, &[]);
        frame[16..24].copy_from_slice(&(MAX_FRAME_PAYLOAD + 1).to_le_bytes());
        // Re-seal the header checksum so the length check itself is hit.
        let fnv = fnv1a(&frame[..32]);
        frame[32..40].copy_from_slice(&fnv.to_le_bytes());
        assert_eq!(decode_frame(&frame).unwrap_err().kind(), "frame_too_large");
    }

    #[test]
    fn every_request_and_response_roundtrips() {
        let view = crate::queue::tests::sample_view();
        let reqs = [
            Request::Ping,
            Request::Submit(spec()),
            Request::Status(JobId(5)),
            Request::List,
            Request::Summary(JobId(6)),
            Request::Shutdown,
        ];
        for req in reqs {
            assert_eq!(Request::decode(&req.encode()).unwrap(), req);
        }
        let resps = [
            Response::Pong {
                jobs: 1,
                revision: 2,
            },
            Response::Submitted {
                id: JobId(3),
                fresh: true,
                position: 0,
            },
            Response::Status(view.clone()),
            Response::Jobs(vec![view.clone(), view.clone()]),
            Response::Summary {
                status: view,
                phases: vec![
                    PhaseTotals {
                        phase: 0,
                        spans: 1,
                        messages: 2,
                        bytes: 3,
                    },
                    PhaseTotals {
                        phase: 4,
                        spans: 5,
                        messages: 6,
                        bytes: 7,
                    },
                ],
            },
            Response::Error {
                kind: "unknown_job".into(),
                message: "job 00ff not found".into(),
            },
            Response::ShuttingDown,
        ];
        let mut pin = anton_ckpt::Fnv64::new();
        for resp in resps {
            pin.update(&resp.encode());
            assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        }
        // Format pin over every response encoding, in order.
        assert_eq!(pin.finish(), 0x55b1_b7d1_dda6_57f3);
    }

    #[test]
    fn unknown_tags_are_typed_errors() {
        let mut w = Writer::new();
        w.u32(99);
        assert_eq!(Request::decode(&w.finish()).unwrap_err().kind(), "bad_tag");
        let mut w = Writer::new();
        w.u32(99);
        assert_eq!(Response::decode(&w.finish()).unwrap_err().kind(), "bad_tag");
    }
}
