//! # esp-stream
//!
//! The Fjord-style streaming substrate underneath ESP (Extensible receptor
//! Stream Processing). The ESP paper executes its cleaning stages "in a
//! Fjord-style manner" (Madden & Franklin, ICDE 2002): push-based operators
//! connected by queues, driven as sensor readings stream through the
//! pipeline. This crate is that execution fabric, independent of any query
//! language or cleaning semantics:
//!
//! * [`WindowBuffer`] — time-based sliding-window buffers with eviction,
//!   the mechanism behind the paper's *temporal granule* (`[Range By …]`).
//! * [`Operator`] / [`Source`] — the push-based operator protocol. An
//!   operator receives one [`Payload`] (rows or columnar chunks) per input
//!   port during an epoch and emits its output payload when the epoch is
//!   flushed (punctuation).
//! * [`Dataflow`] — a DAG of sources and operators with output taps.
//! * [`EpochRunner`] — the deterministic push-based scheduler: advances
//!   logical time epoch by epoch, pushing each node's output to its
//!   consumers in topological order. Parallelism lives one level up, in
//!   the sharded gateway (`esp-gateway`), which runs one `EpochRunner`
//!   per shard.
//! * [`ops`] — the connector operators (map, union, pass-through) and
//!   [`ops::SegBuf`], the input buffer that keeps an epoch columnar
//!   when every arrival was a chunk.
//! * [`StageState`] / [`Checkpointable`] — epoch-boundary capture and
//!   restore of operator state, the substrate of `esp-durability`'s
//!   epoch-aligned checkpoint protocol.
//! * [`stats`] — streaming mean/variance used by windowed aggregates and
//!   the Merge stage's outlier test, plus the [`QueueStats`] counters the
//!   gateway's bounded shard queues report through.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Library code must surface failures as typed errors, never panic mid-
// pipeline; tests are free to unwrap.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod epoch;
pub mod graph;
mod operator;
pub mod ops;
mod state;
pub mod stats;
mod window;

pub use epoch::EpochRunner;
pub use graph::{Dataflow, NodeId, TapId};
pub use operator::{Operator, Payload, ScriptedChunkSource, ScriptedSource, Source};
pub use state::{unexpected_state, Checkpointable, StageState};
pub use stats::QueueStats;
pub use window::{WindowBuffer, WindowView};
