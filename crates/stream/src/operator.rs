//! The push-based operator protocol.

use esp_types::{Batch, Chunk, Result, Ts};

use crate::state::{unexpected_state, StageState};

/// One epoch's data in transit between dataflow nodes: either plain rows
/// (the original representation, still used by UDF/arbitrary-code stages)
/// or schema-uniform columnar chunks (the hot path).
///
/// The two forms are interchangeable — [`Payload::to_rows`] is lossless —
/// so every consumer can handle either. Operators buffer arrivals in an
/// [`ops::SegBuf`](crate::ops::SegBuf), the one place that decides whether
/// an epoch stays columnar or is demoted to rows.
#[derive(Debug, Clone)]
pub enum Payload {
    /// Row-at-a-time batch.
    Rows(Batch),
    /// Columnar batches, in stream order.
    Chunks(Vec<Chunk>),
}

impl Payload {
    /// An empty row payload.
    pub fn empty() -> Payload {
        Payload::Rows(Batch::new())
    }

    /// Number of tuples carried.
    pub fn len(&self) -> usize {
        match self {
            Payload::Rows(b) => b.len(),
            Payload::Chunks(cs) => cs.iter().map(Chunk::len).sum(),
        }
    }

    /// True when no tuples are carried.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materialize as rows (a copy for `Rows`; lossless chunk-to-tuple
    /// conversion otherwise, preserving stream order).
    pub fn to_rows(&self) -> Batch {
        match self {
            Payload::Rows(b) => b.clone(),
            Payload::Chunks(cs) => cs.iter().flat_map(Chunk::to_tuples).collect(),
        }
    }
}

/// A stream source: the boundary between the physical world (or a
/// simulator) and the dataflow.
///
/// The scheduler polls every source once per epoch; a source returns the
/// batch of tuples it produced during that epoch (possibly empty — dropped
/// readings are exactly the empty polls).
pub trait Source: Send {
    /// Human-readable name for diagnostics.
    fn name(&self) -> &str {
        "source"
    }

    /// Produce this epoch's readings. Tuples should be stamped with
    /// timestamps `<= epoch`.
    fn poll(&mut self, epoch: Ts) -> Result<Batch>;

    /// Produce this epoch's readings in payload form. The default wraps
    /// [`Source::poll`] in rows; chunk-building sources (e.g. the gateway's
    /// ingest queues) override it to emit columnar chunks without ever
    /// materializing per-reading tuples.
    fn poll_payload(&mut self, epoch: Ts) -> Result<Payload> {
        Ok(Payload::Rows(self.poll(epoch)?))
    }
}

/// A push-based stream operator.
///
/// During an epoch the scheduler delivers each input port's [`Payload`]
/// via [`Operator::push`]; when every input for the epoch has been
/// delivered it calls [`Operator::flush`] (the punctuation), at which
/// point the operator emits its output for the epoch. Stateless operators
/// can transform inside `push` and drain in `flush`; windowed operators
/// buffer in `push` and compute over the window in `flush`.
pub trait Operator: Send {
    /// Human-readable name for diagnostics.
    fn name(&self) -> &str {
        "operator"
    }

    /// Number of input ports this operator expects. The dataflow builder
    /// validates the wiring against this.
    fn n_inputs(&self) -> usize {
        1
    }

    /// Deliver one epoch's input on port `port` (0-based).
    fn push(&mut self, port: usize, input: &Payload) -> Result<()>;

    /// Epoch boundary: all input for `epoch` has been delivered. Emit the
    /// operator's output for this epoch.
    fn flush(&mut self, epoch: Ts) -> Result<Payload>;

    /// Capture cross-epoch state for a durability checkpoint. Called only
    /// at epoch boundaries (after `flush`, before the next `push`). The
    /// default declares the operator stateless: nothing survives across
    /// epochs, so recovery rebuilds it from configuration alone. Windowed
    /// or aggregating operators must override both this and
    /// [`Operator::restore`].
    fn state(&self) -> Result<Option<StageState>> {
        Ok(None)
    }

    /// Restore state captured by [`Operator::state`] into this freshly
    /// built, identically configured operator. The default (stateless)
    /// implementation rejects any blob: receiving one means the snapshot
    /// was taken under a different pipeline configuration.
    fn restore(&mut self, _state: &StageState) -> Result<()> {
        Err(unexpected_state(self.name()))
    }

    /// Whether this operator can participate in a checkpoint at all.
    /// [`Operator::state`] answers "what is the state right now"; this
    /// answers the static question "does a serialized form exist".
    /// Operators whose cross-epoch state has no serialized form (e.g.
    /// stages wrapping compiled queries) return `false`, so a durable
    /// deployment is rejected before any tuple flows (`E0804`) instead of
    /// failing at its first checkpoint.
    fn checkpointable(&self) -> bool {
        true
    }

    /// Whether replaying this operator over identical input epochs
    /// reproduces identical output — the replay half of the durability
    /// contract, answered statically just like
    /// [`Operator::checkpointable`]. Operators that read the wall clock,
    /// iterate hash maps in observable order, or wrap opaque user code
    /// must override this; a durable gateway rejects any tainted stage
    /// at spawn time (`E0903`) instead of recovering to different bytes.
    fn determinism(&self) -> esp_types::Determinism {
        esp_types::Determinism::Deterministic
    }
}

/// Blanket helper: a source backed by a pre-recorded script of batches.
/// Used pervasively in tests and by trace replay.
pub struct ScriptedSource {
    name: String,
    batches: std::collections::VecDeque<(Ts, Batch)>,
}

impl ScriptedSource {
    /// Create a source that emits `batches[i].1` at the first epoch
    /// `>= batches[i].0`. Batches must be in timestamp order.
    pub fn new(name: impl Into<String>, batches: Vec<(Ts, Batch)>) -> ScriptedSource {
        debug_assert!(batches.windows(2).all(|w| w[0].0 <= w[1].0));
        ScriptedSource {
            name: name.into(),
            batches: batches.into(),
        }
    }
}

impl Source for ScriptedSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn poll(&mut self, epoch: Ts) -> Result<Batch> {
        let mut out = Batch::new();
        while self.batches.front().is_some_and(|(ts, _)| *ts <= epoch) {
            if let Some((_, batch)) = self.batches.pop_front() {
                out.extend(batch);
            }
        }
        Ok(out)
    }
}

/// A source backed by a pre-recorded script of columnar chunks — the
/// chunk-path twin of [`ScriptedSource`]. Polled through
/// [`Source::poll_payload`] it emits chunks; polled through the row API it
/// materializes them, so either runner sees the same tuples.
pub struct ScriptedChunkSource {
    name: String,
    batches: std::collections::VecDeque<(Ts, Chunk)>,
}

impl ScriptedChunkSource {
    /// Create a source that emits `batches[i].1` at the first epoch
    /// `>= batches[i].0`. Batches must be in timestamp order.
    pub fn new(name: impl Into<String>, batches: Vec<(Ts, Chunk)>) -> ScriptedChunkSource {
        debug_assert!(batches.windows(2).all(|w| w[0].0 <= w[1].0));
        ScriptedChunkSource {
            name: name.into(),
            batches: batches.into(),
        }
    }

    fn take(&mut self, epoch: Ts) -> Vec<Chunk> {
        let mut out = Vec::new();
        while self.batches.front().is_some_and(|(ts, _)| *ts <= epoch) {
            if let Some((_, chunk)) = self.batches.pop_front() {
                out.push(chunk);
            }
        }
        out
    }
}

impl Source for ScriptedChunkSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn poll(&mut self, epoch: Ts) -> Result<Batch> {
        Ok(self.take(epoch).iter().flat_map(Chunk::to_tuples).collect())
    }

    fn poll_payload(&mut self, epoch: Ts) -> Result<Payload> {
        Ok(Payload::Chunks(self.take(epoch)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esp_types::{DataType, Schema, Tuple, Value};

    fn tup(ts: Ts, v: i64) -> Tuple {
        let schema = Schema::builder().field("v", DataType::Int).build().unwrap();
        Tuple::new(schema, ts, vec![Value::Int(v)]).unwrap()
    }

    #[test]
    fn scripted_source_releases_by_epoch() {
        let mut s = ScriptedSource::new(
            "s",
            vec![
                (Ts::from_secs(1), vec![tup(Ts::from_secs(1), 1)]),
                (Ts::from_secs(2), vec![tup(Ts::from_secs(2), 2)]),
                (Ts::from_secs(2), vec![tup(Ts::from_secs(2), 3)]),
                (Ts::from_secs(5), vec![tup(Ts::from_secs(5), 4)]),
            ],
        );
        assert!(s.poll(Ts::ZERO).unwrap().is_empty());
        assert_eq!(s.poll(Ts::from_secs(1)).unwrap().len(), 1);
        // Two batches stamped at 2s arrive together.
        assert_eq!(s.poll(Ts::from_secs(3)).unwrap().len(), 2);
        assert_eq!(s.poll(Ts::from_secs(9)).unwrap().len(), 1);
        assert!(s.poll(Ts::from_secs(10)).unwrap().is_empty());
        assert_eq!(s.name(), "s");
    }
}
