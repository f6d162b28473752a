//! The bench-side stage decorator: times every call into a wrapped
//! [`Stage`] and counts the rows it saw, without changing what the stage
//! does. Every `Stage` method is forwarded, so a wrapped pipeline keeps the
//! inner stages' checkpoint/determinism answers (a durable gateway still
//! passes E0804/E0903) and their chunk-native path.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use esp_core::{Pipeline, Scope, Stage, StageCtx};
use esp_stream::{Payload, StageState};
use esp_types::{Batch, Chunk, Determinism, FieldEffects, Result, Ts, Tuple};

/// Counters of one stage instance. Relaxed atomics: these are statistics
/// read after the worker threads are joined.
#[derive(Debug, Default)]
pub struct Tally {
    calls: AtomicU64,
    nanos: AtomicU64,
    rows_in: AtomicU64,
    rows_out: AtomicU64,
    shim_calls: AtomicU64,
}

/// Totals of every stage instance that shares one slot label.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct StageTotals {
    /// Calls into `process` / `process_chunks`.
    pub calls: u64,
    /// Wall nanoseconds spent inside those calls.
    pub nanos: u64,
    /// Rows handed to the stage.
    pub rows_in: u64,
    /// Rows the stage emitted.
    pub rows_out: u64,
    /// `process_chunks` calls on stages that are not chunk-native, i.e.
    /// calls that go through the default row shim.
    pub shim_calls: u64,
}

/// Every tally handed out, keyed by slot label.
#[derive(Debug, Clone, Default)]
pub struct StageClock {
    tallies: Arc<Mutex<Vec<LabelledTally>>>,
}

type LabelledTally = (String, Arc<Tally>);

impl StageClock {
    /// An empty clock.
    pub fn new() -> StageClock {
        StageClock::default()
    }

    fn register(&self, label: &str) -> Arc<Tally> {
        let tally = Arc::new(Tally::default());
        self.tallies
            .lock()
            .expect("stage clock lock poisoned by a panicking stage factory")
            .push((label.to_string(), Arc::clone(&tally)));
        tally
    }

    /// Totals per slot label, summed over every instance (every receptor,
    /// group and shard).
    pub fn totals(&self) -> BTreeMap<String, StageTotals> {
        let mut out: BTreeMap<String, StageTotals> = BTreeMap::new();
        let tallies = self
            .tallies
            .lock()
            .expect("stage clock lock poisoned by a panicking stage factory");
        for (label, t) in tallies.iter() {
            let e = out.entry(label.clone()).or_default();
            e.calls += t.calls.load(Ordering::Relaxed);
            e.nanos += t.nanos.load(Ordering::Relaxed);
            e.rows_in += t.rows_in.load(Ordering::Relaxed);
            e.rows_out += t.rows_out.load(Ordering::Relaxed);
            e.shim_calls += t.shim_calls.load(Ordering::Relaxed);
        }
        out
    }
}

/// A stage wrapped so that its calls are timed and its rows counted.
pub struct TimedStage {
    inner: Box<dyn Stage>,
    tally: Arc<Tally>,
}

impl TimedStage {
    fn record(&self, t0: Instant, rows_in: usize, rows_out: usize) {
        let t = &self.tally;
        t.calls.fetch_add(1, Ordering::Relaxed);
        t.nanos
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        t.rows_in.fetch_add(rows_in as u64, Ordering::Relaxed);
        t.rows_out.fetch_add(rows_out as u64, Ordering::Relaxed);
    }
}

impl Stage for TimedStage {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn process(&mut self, epoch: Ts, input: Vec<Tuple>) -> Result<Batch> {
        let n = input.len();
        let t0 = Instant::now();
        let out = self.inner.process(epoch, input)?;
        self.record(t0, n, out.len());
        Ok(out)
    }

    fn accepts_chunks(&self) -> bool {
        self.inner.accepts_chunks()
    }

    fn process_chunks(&mut self, epoch: Ts, chunks: Vec<Chunk>) -> Result<Payload> {
        if !self.inner.accepts_chunks() {
            self.tally.shim_calls.fetch_add(1, Ordering::Relaxed);
        }
        let n: usize = chunks.iter().map(Chunk::len).sum();
        let t0 = Instant::now();
        let out = self.inner.process_chunks(epoch, chunks)?;
        self.record(t0, n, out.len());
        Ok(out)
    }

    fn state(&self) -> Result<Option<StageState>> {
        self.inner.state()
    }

    fn restore(&mut self, state: &StageState) -> Result<()> {
        self.inner.restore(state)
    }

    fn checkpointable(&self) -> bool {
        self.inner.checkpointable()
    }

    fn determinism(&self) -> Determinism {
        self.inner.determinism()
    }

    fn field_effects(&self) -> FieldEffects {
        self.inner.field_effects()
    }
}

/// The same pipeline (labels, scopes, factories) with every stage it
/// instantiates wrapped in a [`TimedStage`] reporting to `clock`.
pub fn timed_pipeline(pipeline: Pipeline, clock: &StageClock) -> Pipeline {
    let inner = Arc::new(pipeline);
    let mut builder = Pipeline::builder();
    for (i, slot) in inner.slots().iter().enumerate() {
        let label = slot.label.clone();
        let inner = Arc::clone(&inner);
        let clock = clock.clone();
        let factory = move |ctx: &StageCtx| -> Result<Box<dyn Stage>> {
            let stage = (inner.slots()[i].factory)(ctx)?;
            Ok(Box::new(TimedStage {
                inner: stage,
                tally: clock.register(&inner.slots()[i].label),
            }))
        };
        builder = match slot.scope {
            Scope::PerReceptor => builder.per_receptor(label, factory),
            Scope::PerGroup => builder.per_group(label, factory),
            Scope::Global => builder.global(label, factory),
        };
    }
    builder.build()
}
