//! The fleet wire protocol: length-prefixed, versioned, FNV-checksummed
//! frames over a byte stream, and the request/response message vocabulary
//! inside them.
//!
//! A frame is the sealed frame of [`anton_ckpt::codec`] with no meta
//! words — 40 header bytes, all little-endian, every bit covered by the
//! magic check or one of two FNV-1a checksums:
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"ANTFLET1"
//! 8       4     protocol version (2)
//! 12      4     frame kind (the frame tag: 1 = request, 2 = response)
//! 16      8     payload_len
//! 24      8     payload FNV-1a
//! 32      8     header FNV-1a (over bytes 0..32)
//! 40      ...   payload
//! ```
//!
//! The codec owns the bytes and the verification ladder; this module adds
//! only fleet policy, applied to the *verified* header before the payload
//! is looked at: the kind vocabulary, and the payload cap — enforced
//! before any allocation so a damaged length can never balloon a peer.

use crate::error::FleetError;
use crate::queue::JobStatusView;
use crate::spec::{JobId, JobSpec};
use anton_ckpt::{CkptError, FrameFormat, FrameHeader, Reader, Writer};
use anton_core::ExchangeCounters;
use std::io::{Read, Write};

/// Frame magic: `ANTFLET1`.
pub const MAGIC: [u8; 8] = *b"ANTFLET1";
/// Wire protocol version. Version 2 carries a job's census (its
/// checkpointed exchange counters) in `Summary` where version 1 carried
/// per-phase trace totals, and `engine_builds` in every status record.
pub const VERSION: u32 = 2;
/// Fixed frame header length in bytes.
pub const FRAME_HEADER_LEN: usize = FrameFormat::<0>::HEADER_LEN;
/// Maximum payload a frame may declare (refused before allocation).
pub const MAX_FRAME_PAYLOAD: u64 = 1 << 22;

const FRAME: FrameFormat<0> = FrameFormat {
    magic: MAGIC,
    version: VERSION,
};

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

/// Decode a length-prefixed string field. The codec bounds it; that the
/// bytes are UTF-8 is this vocabulary's rule.
pub(crate) fn string_field(r: &mut Reader<'_>, what: &'static str) -> Result<String, FleetError> {
    String::from_utf8(r.str_field(what)?.to_vec()).map_err(|_| FleetError::BadTag {
        what: "utf-8 string field",
        got: 0,
    })
}

/// Decode a counted list whose count `n` was just read (in whatever width
/// the format stores it): refuse a count above `cap`, then decode `n`
/// items in order with `item`.
pub(crate) fn list_field<T>(
    r: &mut Reader<'_>,
    what: &'static str,
    n: u64,
    cap: u64,
    mut item: impl FnMut(&mut Reader<'_>) -> Result<T, FleetError>,
) -> Result<Vec<T>, FleetError> {
    if n > cap {
        return Err(CkptError::LengthMismatch {
            what,
            expected: n,
            got: cap,
        }
        .into());
    }
    (0..n).map(|_| item(r)).collect()
}

/// Encode one complete frame around `payload`.
pub fn encode_frame(kind: FrameKind, payload: &[u8]) -> Vec<u8> {
    FRAME.seal(kind.tag(), [], payload)
}

/// Fleet policy on a header the codec has verified: a known kind, and a
/// declared payload within the cap.
fn admit(header: &FrameHeader<0>) -> Result<FrameKind, FleetError> {
    let kind = FrameKind::from_tag(header.tag)?;
    if header.payload_len > MAX_FRAME_PAYLOAD {
        return Err(FleetError::FrameTooLarge {
            len: header.payload_len,
            max: MAX_FRAME_PAYLOAD,
        });
    }
    Ok(kind)
}

/// Decode and fully verify a frame from an in-memory byte string. The
/// image must contain exactly one frame (the stream reader below handles
/// framing; this strict form is what the property corpus attacks).
pub fn decode_frame(bytes: &[u8]) -> Result<(FrameKind, &[u8]), FleetError> {
    let (header, body) = FRAME.open_header(bytes)?;
    let kind = admit(&header)?;
    header.verify_payload(body)?;
    Ok((kind, body))
}

/// Read exactly one verified frame from a stream.
// Audited socket I/O edge: bytes enter the daemon only through this verified decode; nothing host-dependent flows past the checksum checks.
pub fn read_frame(r: &mut impl Read) -> Result<(FrameKind, Vec<u8>), FleetError> {
    let mut head = [0u8; FRAME_HEADER_LEN];
    r.read_exact(&mut head)?;
    let (header, _) = FRAME.open_header(&head)?;
    let kind = admit(&header)?;
    let mut payload = vec![0u8; header.payload_len as usize];
    r.read_exact(&mut payload)?;
    header.verify_payload(&payload)?;
    Ok((kind, payload))
}

/// Write one frame to a stream and flush it.
// Audited socket I/O edge: the encoded frame is a pure function of the message; the stream only carries it.
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
    /// One job's status plus its census.
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
    /// A job's status and its census, the exchange counters of its newest
    /// checkpoint, carried as the checkpoint carries them.
    Summary {
        status: JobStatusView,
        counters: ExchangeCounters,
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
            Response::Summary { status, counters } => {
                w.u32(5);
                status.encode_into(&mut w);
                w.u64(ExchangeCounters::WORDS as u64);
                for word in counters.to_words() {
                    w.u64(word);
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
                let views = list_field(&mut r, "job list", n, 100_000, JobStatusView::decode_from)?;
                Response::Jobs(views)
            }
            5 => {
                let status = JobStatusView::decode_from(&mut r)?;
                let n = r.u64()?;
                let words = list_field(&mut r, "census words", n, 1024, |r| Ok(r.u64()?))?;
                let counters =
                    ExchangeCounters::from_words(&words).ok_or(CkptError::LengthMismatch {
                        what: "census words",
                        expected: ExchangeCounters::WORDS as u64,
                        got: n,
                    })?;
                Response::Summary { status, counters }
            }
            6 => Response::Error {
                kind: string_field(&mut r, "error kind")?,
                message: string_field(&mut r, "error message")?,
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
    use anton_ckpt::fnv1a;

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
        assert_eq!(fnv1a(&frame), 0xc873_4992_52ac_1002);
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
                    err.is_corruption() || err.kind() == "bad_version",
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
                matches!(err.kind(), "too_short" | "truncated"),
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
                counters: census(),
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
        assert_eq!(pin.finish(), 0x1dab_3b30_2a0c_03c2);
    }

    /// A census whose every word differs, so a swapped or dropped word
    /// shows.
    fn census() -> ExchangeCounters {
        let words: Vec<u64> = (1..=ExchangeCounters::WORDS as u64).collect();
        ExchangeCounters::from_words(&words).unwrap()
    }

    #[test]
    fn a_summary_with_the_wrong_census_word_count_is_a_typed_error() {
        let view = crate::queue::tests::sample_view();
        for n in [ExchangeCounters::WORDS - 1, ExchangeCounters::WORDS + 1] {
            let mut w = Writer::new();
            w.u32(5);
            view.encode_into(&mut w);
            w.u64(n as u64);
            for word in 0..n as u64 {
                w.u64(word);
            }
            let err = Response::decode(&w.finish()).unwrap_err();
            assert_eq!(err.kind(), "length_mismatch", "{n} words: {err}");
        }
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
