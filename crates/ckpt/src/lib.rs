//! `anton-ckpt`: deterministic checkpoint/restart for the Anton engine.
//!
//! The paper's headline is *millisecond-scale* simulation — wall-clock
//! months of machine time — which is only operable with crash-safe
//! checkpointing. Anton's determinism guarantee makes the strongest
//! possible contract available: a resumed run must be **bitwise
//! identical** to an uninterrupted one, so a checkpoint is nothing more
//! (and nothing less) than the exact raw fixed-point state plus enough
//! configuration fingerprinting to refuse a resume that could not honor
//! the contract.
//!
//! The crate provides:
//!
//! * the workspace's one byte codec ([`codec`]): a little-endian
//!   `Writer`/`Reader` cursor pair and one sealed-frame layout with one
//!   verification ladder, in which **every bit is covered** by the magic
//!   check or one of two FNV-1a checksums (header and payload), so any
//!   single bit flip or truncation is detected at load time — the
//!   checkpoint file header ([`header`]) and the `anton-fleet` socket
//!   frame are its two instances;
//! * the snapshot payload ([`snapshot`]): step counter, config
//!   fingerprint, the engine's raw state bytes (opaque here — the engine
//!   owns their interpretation), exchange counters, and trace
//!   drop counts;
//! * an on-disk store ([`store`]) with atomic temp-file+rename writes,
//!   deterministic step-derived file names, last-K rotation, and
//!   newest-valid fallback recovery — owned by whoever runs the
//!   simulation (a bench loop, the fleet's slice), never by the engine;
//! * typed corruption/incompatibility errors ([`error`]) shared with
//!   `anton-core::FixedState::from_bytes`.
//!
//! This crate is deliberately dependency-free (std only) so it can sit at
//! the bottom of the workspace stack: `anton-core` depends on it, not the
//! other way around. See DESIGN.md §12 for the format specification.

pub mod codec;
pub mod error;
pub mod fingerprint;
pub mod fnv;
pub mod header;
pub mod snapshot;
pub mod store;

pub use codec::{FrameFormat, FrameHeader, Reader, Writer};
pub use error::CkptError;
pub use fingerprint::Fingerprint;
pub use fnv::{fnv1a, Fnv64};
pub use header::{Header, HEADER_LEN, MAGIC, VERSION};
pub use snapshot::Snapshot;
pub use store::{atomic_write_bytes, load_file, CheckpointStore, WriteReceipt};
