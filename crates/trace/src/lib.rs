//! `anton-trace`: deterministic per-rank tracing for the simulated machine.
//!
//! The paper's performance story (Table 1, §5) rests on attributing every
//! microsecond of an ~11 µs step budget to a phase, a node, and a network
//! hop. This crate is the observability layer of the reproduction: a
//! fixed-capacity structured event recorder the force pipeline and engine
//! write into, with two exporters (chrome://tracing JSON and a
//! deterministic per-phase summary table).
//!
//! Design constraints, in order:
//!
//! 1. **The tracer must provably not perturb the simulation.** Events carry
//!    *measured* wall-clock nanoseconds (monotonic, host-dependent) and
//!    *modeled* microseconds (from the exchange-plan hop math,
//!    deterministic) — but no value read from the clock ever flows back
//!    into simulation state. The golden-trajectory test tier runs every
//!    nodes×threads configuration with tracing on and off and asserts
//!    bitwise-identical trajectories.
//! 2. **Recording is deterministic in structure.** Worker threads never
//!    write a shared buffer: each rank records into its own fixed-capacity
//!    [`Lane`] (owned by that rank's scratch, mutated by exactly one worker
//!    per fan-out), and lanes are merged into the central [`TraceBuf`] *in
//!    fixed rank order* at flush — never by wall-clock interleaving. Event
//!    order in the buffer is therefore a pure function of the work
//!    structure; only the timestamp payloads vary run to run.
//! 3. **Allocation-free in the hot path.** Lanes and the central buffer
//!    reserve capacity up front; a full buffer *drops* events (counted)
//!    rather than reallocating.
//! 4. **Zero cost when disabled.** [`TraceSink::Off`] short-circuits before
//!    any clock read or formatting; the instrumented hot loops pay one
//!    predictable branch.
//!
//! The wall-clock read itself lives behind the audited
//! `#[expect(clippy::disallowed_types)]` in [`clock`] (rule D4) — the one
//! place on the simulation path allowed to observe host time, because its
//! output is observability-only by construction.

#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]

pub mod chrome;
pub mod clock;
pub mod event;
pub mod sink;
pub mod summary;

pub use chrome::chrome_trace_json;
pub use clock::TraceClock;
pub use event::{Counter, Phase, Span, RANK_MAIN};
pub use sink::{Lane, TraceBuf, TraceSink};
pub use summary::{phase_summary, summary_table, PhaseRow};
