//! The deterministic, single-threaded epoch scheduler.

use std::time::Instant;

use esp_types::{Batch, Result, TimeDelta, Ts};

use crate::graph::{Dataflow, NodeKind, TapId};
use crate::operator::Payload;

/// Input for an upstream node without output (see [`EpochRunner::step`]).
const EMPTY: Payload = Payload::Rows(Vec::new());

/// Span histograms attached by [`EpochRunner::attach_obs`]: one per node
/// (indexed like `df.nodes`) plus the whole-epoch total.
struct EpochObs {
    node_spans: Vec<esp_obs::Histogram>,
    step: esp_obs::Histogram,
}

/// Drives a [`Dataflow`] epoch by epoch.
///
/// At each epoch `t` the runner:
///
/// 1. polls every [`Source`](crate::Source) for its batch at `t`;
/// 2. pushes batches downstream in topological order (node ids are already
///    topological because the graph is append-only);
/// 3. flushes each operator exactly once (punctuation), pushing its output
///    onward;
/// 4. records the output of every tapped node.
///
/// The result is deterministic: the same dataflow over the same sources
/// yields byte-identical tap traces, which the experiment harness relies on.
pub struct EpochRunner {
    df: Dataflow,
    /// Per-tap collected output: (epoch, batch) per epoch, including empty
    /// batches so traces have one entry per epoch.
    collected: Vec<Vec<(Ts, Batch)>>,
    epochs_run: u64,
    obs: Option<EpochObs>,
}

impl EpochRunner {
    /// Wrap a dataflow for execution.
    pub fn new(df: Dataflow) -> EpochRunner {
        let n_taps = df.taps.len();
        EpochRunner {
            df,
            collected: vec![Vec::new(); n_taps],
            epochs_run: 0,
            obs: None,
        }
    }

    /// Attach span instrumentation: every subsequent [`EpochRunner::step`]
    /// records each node's flush time into
    /// `esp_stream_node_flush_nanos{node=…}` and the whole epoch into
    /// `esp_stream_epoch_step_nanos`, each carrying the extra `labels`
    /// (the gateway adds `shard`). Recording is skipped entirely — one
    /// relaxed load per step — while [`esp_obs::enabled`] is off.
    pub fn attach_obs(&mut self, registry: &esp_obs::Registry, labels: &[(&str, &str)]) {
        let node_spans = self
            .df
            .node_ids()
            .map(|id| {
                let mut with_node: Vec<(&str, &str)> = vec![("node", self.df.node_name(id))];
                with_node.extend_from_slice(labels);
                registry.histogram("esp_stream_node_flush_nanos", &with_node)
            })
            .collect();
        self.obs = Some(EpochObs {
            node_spans,
            step: registry.histogram("esp_stream_epoch_step_nanos", labels),
        });
    }

    /// Execute one epoch at logical time `epoch`.
    ///
    /// Data moves between nodes as [`Payload`]s, handed over unchanged:
    /// each operator gets one [`crate::Operator::push`] per input port and
    /// decides itself whether to keep chunks columnar. Tap traces stay
    /// row-form, so recorded output is byte-identical whichever
    /// representation flowed underneath.
    pub fn step(&mut self, epoch: Ts) -> Result<()> {
        let n = self.df.nodes.len();
        // Per-epoch (not per-tuple) spans keep the instrumented cost at
        // two `Instant` reads per node; `None` while disabled or detached.
        let obs = self.obs.as_ref().filter(|_| esp_obs::enabled());
        let step_start = obs.map(|_| Instant::now());
        // Output of each node this epoch, filled in topological order.
        let mut outputs: Vec<Option<Payload>> = vec![None; n];
        for i in 0..n {
            let node_start = obs.map(|_| Instant::now());
            let out = match &mut self.df.nodes[i].kind {
                NodeKind::Source(src) => src.poll_payload(epoch)?,
                NodeKind::Operator { op, inputs } => {
                    for (port, input) in inputs.iter().enumerate() {
                        // Inputs precede consumers (append-only graph), so
                        // the upstream output is always computed; an empty
                        // default keeps this hot path panic-free.
                        op.push(port, outputs[input.0].as_ref().unwrap_or(&EMPTY))?;
                    }
                    op.flush(epoch)?
                }
            };
            if let (Some(o), Some(t0)) = (obs, node_start) {
                if let Some(h) = o.node_spans.get(i) {
                    h.record(t0.elapsed().as_nanos() as u64);
                }
            }
            outputs[i] = Some(out);
        }
        for (tap_idx, node) in self.df.taps.iter().enumerate() {
            // Every node's output was filled in the loop above.
            let batch = outputs[node.0]
                .as_ref()
                .map(Payload::to_rows)
                .unwrap_or_default();
            self.collected[tap_idx].push((epoch, batch));
        }
        if let (Some(o), Some(t0)) = (obs, step_start) {
            o.step.record(t0.elapsed().as_nanos() as u64);
        }
        self.epochs_run += 1;
        Ok(())
    }

    /// Run `n_epochs` epochs starting at `start`, spaced `period` apart.
    pub fn run(&mut self, start: Ts, period: TimeDelta, n_epochs: u64) -> Result<()> {
        let mut t = start;
        for _ in 0..n_epochs {
            self.step(t)?;
            t += period;
        }
        Ok(())
    }

    /// Number of epochs executed so far.
    pub fn epochs_run(&self) -> u64 {
        self.epochs_run
    }

    /// Drain the collected trace of a tap: one `(epoch, batch)` entry per
    /// executed epoch, in order.
    pub fn take_tap(&mut self, tap: TapId) -> Vec<(Ts, Batch)> {
        std::mem::take(&mut self.collected[tap.0])
    }

    /// Borrow the collected trace of a tap without draining.
    pub fn tap(&self, tap: TapId) -> &[(Ts, Batch)] {
        &self.collected[tap.0]
    }

    /// Names of operators that can never be checkpointed
    /// ([`crate::Operator::checkpointable`] is `false`) — the static half
    /// of the durability contract. An empty list means a snapshot of this
    /// dataflow can always be taken at an epoch boundary.
    pub fn non_checkpointable(&self) -> Vec<String> {
        self.df
            .nodes
            .iter()
            .filter_map(|node| match &node.kind {
                NodeKind::Operator { op, .. } if !op.checkpointable() => {
                    Some(op.name().to_string())
                }
                _ => None,
            })
            .collect()
    }

    /// Names and causes of operators whose replay is not reproducible
    /// ([`crate::Operator::determinism`] reports taint) — the replay half
    /// of the durability contract, companion to
    /// [`EpochRunner::non_checkpointable`]. An empty list means recovery
    /// by WAL replay reproduces this dataflow's output byte for byte.
    pub fn nondeterministic(&self) -> Vec<(String, String)> {
        self.df
            .nodes
            .iter()
            .filter_map(|node| match &node.kind {
                NodeKind::Operator { op, .. } => match op.determinism() {
                    esp_types::Determinism::Deterministic => None,
                    esp_types::Determinism::Nondeterministic { reason } => {
                        Some((op.name().to_string(), reason))
                    }
                },
                _ => None,
            })
            .collect()
    }

    /// Capture the cross-epoch state of every operator in the dataflow —
    /// the runner half of the epoch-aligned checkpoint protocol.
    ///
    /// Must be called at an epoch boundary (between [`EpochRunner::step`]
    /// calls), when no batch is in flight. Node ids are topological and
    /// stable for a given pipeline configuration, so the (node index,
    /// blob) pairs recorded here re-apply cleanly to a freshly rebuilt
    /// runner of the same shape; the node count is recorded and checked
    /// so a snapshot from a different configuration is rejected outright.
    /// Sources are not captured — replaying the write-ahead log restores
    /// their pending input instead.
    pub fn snapshot_state(&self) -> Result<Vec<u8>> {
        use esp_types::snap;
        let mut entries: Vec<(u32, Vec<u8>)> = Vec::new();
        for (i, node) in self.df.nodes.iter().enumerate() {
            if let NodeKind::Operator { op, .. } = &node.kind {
                if let Some(state) = op.state()? {
                    entries.push((i as u32, state.0));
                }
            }
        }
        let mut out = Vec::new();
        snap::put_u32(&mut out, self.df.nodes.len() as u32);
        snap::put_u32(&mut out, entries.len() as u32);
        for (idx, blob) in entries {
            snap::put_u32(&mut out, idx);
            snap::put_u32(&mut out, blob.len() as u32);
            out.extend_from_slice(&blob);
        }
        Ok(out)
    }

    /// Restore operator state captured by [`EpochRunner::snapshot_state`]
    /// into this freshly built runner. Rejects a snapshot whose node
    /// count, node indices, or per-operator blobs do not match the
    /// current dataflow shape.
    pub fn restore_state(&mut self, bytes: &[u8]) -> Result<()> {
        use crate::state::StageState;
        use esp_types::{snap, EspError};
        let mut cur = snap::Cursor::new(bytes);
        let n_nodes = cur.u32()? as usize;
        if n_nodes != self.df.nodes.len() {
            return Err(EspError::Snapshot(format!(
                "snapshot covers a dataflow of {n_nodes} node(s) but this pipeline has {}",
                self.df.nodes.len()
            )));
        }
        let n_entries = cur.u32()? as usize;
        for _ in 0..n_entries {
            let idx = cur.u32()? as usize;
            let len = cur.u32()? as usize;
            let blob = cur.bytes(len)?.to_vec();
            if idx >= self.df.nodes.len() {
                return Err(EspError::Snapshot(format!(
                    "snapshot entry for node {idx} out of range"
                )));
            }
            match &mut self.df.nodes[idx].kind {
                NodeKind::Operator { op, .. } => op.restore(&StageState(blob))?,
                NodeKind::Source(_) => {
                    return Err(EspError::Snapshot(format!(
                        "snapshot holds operator state for node {idx}, which is a source here"
                    )))
                }
            }
        }
        cur.finish()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::{Arc, Mutex};

    use super::*;
    use crate::operator::{Operator, ScriptedChunkSource, ScriptedSource};
    use crate::ops::{MapOp, SegBuf, UnionOp};
    use esp_types::{Chunk, DataType, Schema, Tuple, Value};

    fn tup(ts: Ts, v: i64) -> Tuple {
        let schema = Schema::builder().field("v", DataType::Int).build().unwrap();
        Tuple::new(schema, ts, vec![Value::Int(v)]).unwrap()
    }

    /// A `MapOp` keeping the tuples whose value satisfies `keep`.
    fn filter(
        name: &str,
        keep: impl Fn(i64) -> bool + Send,
    ) -> MapOp<impl Fn(&Tuple) -> esp_types::Result<Option<Tuple>> + Send> {
        MapOp::new(name, move |t: &Tuple| {
            Ok(keep(t.value(0).as_i64().unwrap()).then(|| t.clone()))
        })
    }

    /// Forwards its input and logs every call the runner makes on it:
    /// `"rows N"` / `"chunks N"` per push, `"flush"` per flush.
    struct Recorder {
        log: Arc<Mutex<Vec<String>>>,
        buf: SegBuf,
    }

    impl Operator for Recorder {
        fn push(&mut self, _port: usize, input: &Payload) -> Result<()> {
            let kind = match input {
                Payload::Rows(_) => "rows",
                Payload::Chunks(_) => "chunks",
            };
            self.log
                .lock()
                .unwrap()
                .push(format!("{kind} {}", input.len()));
            self.buf.push(input);
            Ok(())
        }

        fn flush(&mut self, _epoch: Ts) -> Result<Payload> {
            self.log.lock().unwrap().push("flush".into());
            Ok(self.buf.take())
        }
    }

    fn recorder() -> (Box<Recorder>, Arc<Mutex<Vec<String>>>) {
        let log = Arc::new(Mutex::new(Vec::new()));
        let op = Recorder {
            log: Arc::clone(&log),
            buf: SegBuf::default(),
        };
        (Box::new(op), log)
    }

    fn values(batch: &Batch) -> Vec<i64> {
        batch.iter().map(|t| t.value(0).as_i64().unwrap()).collect()
    }

    #[test]
    fn linear_pipeline_runs_per_epoch() {
        let mut df = Dataflow::new();
        let src = df.add_source(Box::new(ScriptedSource::new(
            "s",
            (0..5u64)
                .map(|i| (Ts::from_secs(i), vec![tup(Ts::from_secs(i), i as i64)]))
                .collect(),
        )));
        let f = df
            .add_operator(Box::new(filter("odd", |v| v % 2 == 1)), &[src])
            .unwrap();
        let tap = df.add_tap(f).unwrap();
        let mut runner = EpochRunner::new(df);
        runner.run(Ts::ZERO, TimeDelta::from_secs(1), 5).unwrap();
        let trace = runner.take_tap(tap);
        assert_eq!(trace.len(), 5);
        let vals: Vec<i64> = trace.iter().flat_map(|(_, b)| values(b)).collect();
        assert_eq!(vals, vec![1, 3]);
        assert_eq!(runner.epochs_run(), 5);
    }

    #[test]
    fn attach_obs_records_per_node_and_per_epoch_spans() {
        let mut df = Dataflow::new();
        let src = df.add_source(Box::new(ScriptedSource::new(
            "s",
            vec![(Ts::ZERO, vec![tup(Ts::ZERO, 1)])],
        )));
        let f = df
            .add_operator(Box::new(filter("keep", |_| true)), &[src])
            .unwrap();
        df.add_tap(f).unwrap();
        let registry = esp_obs::Registry::new();
        let mut runner = EpochRunner::new(df);
        runner.attach_obs(&registry, &[("shard", "0")]);
        runner.run(Ts::ZERO, TimeDelta::from_secs(1), 3).unwrap();
        let step = registry
            .histogram_snapshot("esp_stream_epoch_step_nanos", &[("shard", "0")])
            .unwrap();
        assert_eq!(step.count(), 3, "one span per epoch");
        for node in ["s", "keep"] {
            let h = registry
                .histogram_snapshot(
                    "esp_stream_node_flush_nanos",
                    &[("node", node), ("shard", "0")],
                )
                .unwrap();
            assert_eq!(h.count(), 3, "node {node} timed each epoch");
        }
    }

    #[test]
    fn diamond_fanout_and_union() {
        // src -> {left filter, right filter} -> union; union sees both.
        let mut df = Dataflow::new();
        let src = df.add_source(Box::new(ScriptedSource::new(
            "s",
            vec![(Ts::ZERO, vec![tup(Ts::ZERO, 1), tup(Ts::ZERO, 2)])],
        )));
        let left = df
            .add_operator(Box::new(filter("=1", |v| v == 1)), &[src])
            .unwrap();
        let right = df
            .add_operator(Box::new(filter("=2", |v| v == 2)), &[src])
            .unwrap();
        let u = df
            .add_operator(Box::new(UnionOp::new(2)), &[left, right])
            .unwrap();
        let tap = df.add_tap(u).unwrap();
        let mut runner = EpochRunner::new(df);
        runner.step(Ts::ZERO).unwrap();
        let trace = runner.take_tap(tap);
        assert_eq!(trace[0].1.len(), 2);
    }

    #[test]
    fn taps_record_empty_epochs() {
        let mut df = Dataflow::new();
        let src = df.add_source(Box::new(ScriptedSource::new("s", vec![])));
        let tap = df.add_tap(src).unwrap();
        let mut runner = EpochRunner::new(df);
        runner.run(Ts::ZERO, TimeDelta::from_secs(1), 3).unwrap();
        let trace = runner.take_tap(tap);
        assert_eq!(trace.len(), 3);
        assert!(trace.iter().all(|(_, b)| b.is_empty()));
        // Epochs are stamped correctly.
        assert_eq!(trace[2].0, Ts::from_secs(2));
    }

    #[test]
    fn flush_called_once_per_epoch_even_with_multiple_upstream_batches() {
        let mut df = Dataflow::new();
        let a = df.add_source(Box::new(ScriptedSource::new(
            "a",
            vec![(Ts::ZERO, vec![tup(Ts::ZERO, 1)])],
        )));
        let b = df.add_source(Box::new(ScriptedSource::new(
            "b",
            vec![(Ts::ZERO, vec![tup(Ts::ZERO, 2)])],
        )));
        let u = df.add_operator(Box::new(UnionOp::new(2)), &[a, b]).unwrap();
        let (rec, log) = recorder();
        let counter = df.add_operator(rec, &[u]).unwrap();
        let tap = df.add_tap(counter).unwrap();
        let mut runner = EpochRunner::new(df);
        runner.step(Ts::ZERO).unwrap();
        assert_eq!(
            *log.lock().unwrap(),
            ["rows 2", "flush"],
            "exactly one flush, after the union delivered both inputs"
        );
        let trace = runner.take_tap(tap);
        assert_eq!(values(&trace[0].1), [1, 2]);
    }

    #[test]
    fn runner_hands_rows_and_chunks_through_unchanged() {
        let schema = Schema::builder().field("v", DataType::Int).build().unwrap();
        let chunk = |ts: Ts, vals: &[i64]| {
            let rows: Vec<Tuple> = vals
                .iter()
                .map(|&v| Tuple::new(schema.clone(), ts, vec![Value::Int(v)]).unwrap())
                .collect();
            Chunk::from_tuples(&schema, &rows).unwrap()
        };
        let t1 = Ts::from_secs(1);
        let mut df = Dataflow::new();
        let cols = df.add_source(Box::new(ScriptedChunkSource::new(
            "chunks",
            vec![(Ts::ZERO, chunk(Ts::ZERO, &[1, 2])), (t1, chunk(t1, &[5]))],
        )));
        let rows = df.add_source(Box::new(ScriptedSource::new(
            "rows",
            vec![(Ts::ZERO, vec![tup(Ts::ZERO, 3), tup(Ts::ZERO, 4)])],
        )));
        let u = df
            .add_operator(Box::new(UnionOp::new(2)), &[cols, rows])
            .unwrap();
        let (rec, log) = recorder();
        let r = df.add_operator(rec, &[u]).unwrap();
        let tap = df.add_tap(r).unwrap();
        let mut runner = EpochRunner::new(df);

        // Both sources emit: the mixed epoch is demoted to rows, in port
        // order (the chunk source is port 0).
        runner.step(Ts::ZERO).unwrap();
        assert_eq!(values(&runner.tap(tap)[0].1), [1, 2, 3, 4]);
        assert_eq!(*log.lock().unwrap(), ["rows 4", "flush"]);

        // Only the chunk source emits: the union forwards it columnar.
        log.lock().unwrap().clear();
        runner.step(t1).unwrap();
        assert_eq!(values(&runner.tap(tap)[1].1), [5]);
        assert_eq!(*log.lock().unwrap(), ["chunks 1", "flush"]);
    }
}
