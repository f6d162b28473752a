//! The TCP gateway: accept loop, per-connection readers, the epoch
//! coordinator, and graceful shutdown.
//!
//! Thread layout (all plain `std::net` + crossbeam channels — no async
//! runtime):
//!
//! ```text
//! accept thread ──spawns──> reader thread per connection
//!                              │ decode frames, drop corrupt,
//!                              │ route by granule hash
//!                              ▼
//!                    bounded shard queues  <── Flush(e) ── coordinator
//!                              │                            (watermark)
//!                              ▼
//!                    worker thread per shard (EspProcessor cascade)
//! ```

use std::collections::{BTreeMap, HashMap};
use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Sender, TrySendError};
use parking_lot::Mutex;

use esp_core::{Pipeline, Scope};
use esp_durability::{DurabilityConfig, SnapshotMeta, SnapshotStore, WalWriter};
use esp_receptors::framing::{FrameReader, FrameWriter, MAX_FRAME_LEN};
use esp_receptors::wire;
use esp_stream::QueueStats;
use esp_types::{Batch, Diagnostic, EspError, ReceptorId, ReceptorType, Result, TimeDelta, Ts};

use crate::durability::DurabilityHooks;
use crate::shard::{shard_of_granule, ShardRouter};
use crate::stats::{GatewaySnapshot, GatewayStats};
use crate::watermark::WatermarkClock;
use crate::worker::{spawn_worker, ShardMsg};

/// Handshake magic: `"ESPG"` big-endian.
pub(crate) const HELLO_MAGIC: u32 = 0x4553_5047;
/// Wire-protocol version carried in the hello.
pub(crate) const PROTOCOL_VERSION: u16 = 1;
/// Server's accept byte, sent after a valid hello.
pub(crate) const ACK_OK: u8 = 0x01;
/// How long a new connection may take to send its hello. A peer that
/// stays silent longer is dropped, so it cannot pin a reader thread
/// (and with it [`Gateway::finish`]) forever.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(3);

/// Frame payload requesting a Prometheus-text metrics scrape on an
/// ingest connection. Never a valid `wire::encode` frame (wrong magic),
/// so a data frame can never be mistaken for a scrape request.
pub(crate) const STATS_TEXT_REQUEST: &[u8] = b"ESPSTATS";
/// Frame payload requesting the same scrape as one JSON document.
pub(crate) const STATS_JSON_REQUEST: &[u8] = b"ESPSTATJ";
/// Response-frame marker: more chunks of this document follow.
pub(crate) const STATS_MORE: u8 = 0x00;
/// Response-frame marker: this chunk completes the document.
pub(crate) const STATS_FINAL: u8 = 0x01;
/// Max document bytes per response frame (1 marker byte + chunk must
/// stay under [`MAX_FRAME_LEN`]; headroom kept for round numbers).
const STATS_CHUNK: usize = MAX_FRAME_LEN - 4096;

/// One proximity group as the gateway needs it: type, granule, members.
/// (Mirrors `esp_receptors::GroupSpec` plus the receptor type that
/// `ProximityGroups::add_group` requires.)
#[derive(Debug, Clone)]
pub struct GatewayGroup {
    /// Device type shared by the group's members.
    pub receptor_type: ReceptorType,
    /// Spatial granule name — the shard-placement key.
    pub granule: String,
    /// Member devices.
    pub members: Vec<ReceptorId>,
}

/// Gateway tuning knobs.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Listen address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Number of worker pipelines to shard granules across.
    pub n_shards: usize,
    /// Capacity of each bounded shard queue (default
    /// [`GatewayConfig::DEFAULT_EDGE_CAPACITY`]); a full queue blocks the
    /// reader and lets TCP flow control push back on the sender. Must be
    /// non-zero (`E0503`).
    pub edge_capacity: usize,
    /// First epoch boundary.
    pub start: Ts,
    /// Epoch spacing.
    pub period: TimeDelta,
    /// Don't flush any epoch until this many connections have completed
    /// their handshake (cumulative, closed connections count). Lets a
    /// deployment with a known receptor fleet hold punctuation until
    /// everyone is on the air.
    pub min_connections: usize,
    /// Upper bound accepted for the bounded-lateness promise a client
    /// declares in its handshake; connections declaring more are refused.
    /// Also the value static validation compares against downstream
    /// window extents (`E0501`). `None` accepts any declared lateness.
    pub max_lateness: Option<TimeDelta>,
    /// The proximity groups (and through them, the routable receptors).
    pub groups: Vec<GatewayGroup>,
    /// Durability: a write-ahead reading log plus epoch-aligned
    /// checkpoints under the given directory. `None` (the default) runs
    /// the gateway as soft state, exactly as before.
    pub durability: Option<DurabilityConfig>,
}

impl GatewayConfig {
    /// Default capacity of each bounded shard queue.
    pub const DEFAULT_EDGE_CAPACITY: usize = 64;

    /// Config with defaults: ephemeral localhost port, 4 shards,
    /// [`GatewayConfig::DEFAULT_EDGE_CAPACITY`]-deep shard queues,
    /// 200 ms epochs, no connection-count gating.
    pub fn new(groups: Vec<GatewayGroup>) -> GatewayConfig {
        GatewayConfig {
            addr: "127.0.0.1:0".into(),
            n_shards: 4,
            edge_capacity: Self::DEFAULT_EDGE_CAPACITY,
            start: Ts::ZERO,
            period: TimeDelta::from_millis(200),
            min_connections: 1,
            max_lateness: None,
            groups,
            durability: None,
        }
    }

    /// Statically validate this configuration before any socket is bound.
    ///
    /// `smooth_window` is the narrowest smoothing-window extent of the
    /// downstream cascade, when the caller knows it (the pipeline factory
    /// is opaque to the gateway, so it cannot discover this itself).
    ///
    /// Checks performed (see `esp-lint` for the full catalog):
    ///
    /// * `E0501` — `max_lateness` at or above the downstream window: a
    ///   maximally late reading postpones every flush past the entire
    ///   window that was supposed to smooth it.
    /// * `E0302` — a proximity group with no members (unroutable).
    /// * `E0303` — two groups sharing one spatial-granule name.
    /// * `E0503` — degenerate resources: zero shards, zero queue
    ///   capacity, a zero epoch period, or no groups at all.
    /// * `E0801`/`E0802`/`E0803` — durability misconfiguration, when a
    ///   durability section is present (see `esp_durability::config`).
    ///
    /// [`Gateway::spawn`] runs this (with `smooth_window = None`) plus a
    /// pipeline-scope check (`E0502`) and refuses to start when any
    /// error-severity diagnostic fires.
    pub fn validate(&self, smooth_window: Option<TimeDelta>) -> Vec<Diagnostic> {
        let mut diags = Vec::new();
        if self.n_shards == 0 {
            diags.push(Diagnostic::error(
                "E0503",
                "gateway needs at least one shard",
            ));
        }
        if self.edge_capacity == 0 {
            diags.push(Diagnostic::error(
                "E0503",
                "shard queue capacity must be positive",
            ));
        }
        if self.period == TimeDelta::ZERO {
            diags.push(Diagnostic::error("E0503", "epoch period must be positive"));
        }
        if self.groups.is_empty() {
            diags.push(
                Diagnostic::error("E0503", "gateway has no proximity groups")
                    .with_note("without groups no receptor is routable to a shard"),
            );
        }
        let mut seen: HashMap<&str, usize> = HashMap::new();
        for (i, g) in self.groups.iter().enumerate() {
            if g.members.is_empty() {
                diags.push(
                    Diagnostic::error(
                        "E0302",
                        format!("proximity group '{}' has no members", g.granule),
                    )
                    .with_note("its shard would idle and Merge over it can never fire"),
                );
            }
            if let Some(prev) = seen.insert(g.granule.as_str(), i) {
                diags.push(Diagnostic::error(
                    "E0303",
                    format!(
                        "spatial granule '{}' is declared by two groups (#{prev} and #{i})",
                        g.granule
                    ),
                ));
            }
        }
        if let (Some(late), Some(window)) = (self.max_lateness, smooth_window) {
            if late >= window {
                diags.push(
                    Diagnostic::error(
                        "E0501",
                        format!(
                            "accepted connection lateness bound ({late}) is at least the \
                             downstream smoothing window ({window})"
                        ),
                    )
                    .with_note(
                        "the watermark holds every flush until the lateness bound passes, \
                         so each epoch would stall for longer than the window that is \
                         supposed to smooth it",
                    ),
                );
            }
        }
        if let Some(d) = &self.durability {
            diags.extend(d.validate(self.period, self.max_lateness));
        }
        esp_types::diag::sort_diagnostics(&mut diags);
        diags
    }
}

/// One pipeline's output, epoch by epoch: the flushed batch at each
/// epoch boundary, in flush order.
pub type EpochTrace = Vec<(Ts, Batch)>;

/// A running gateway. Drop order does not matter; call
/// [`Gateway::finish`] for an orderly drain.
pub struct Gateway {
    local_addr: SocketAddr,
    stop_accept: Arc<AtomicBool>,
    drain: Arc<AtomicBool>,
    killed: Arc<AtomicBool>,
    accept_handle: JoinHandle<()>,
    coordinator: JoinHandle<Result<()>>,
    reader_handles: Arc<Mutex<Vec<JoinHandle<()>>>>,
    workers: Vec<JoinHandle<Result<()>>>,
    traces: Vec<Arc<Mutex<EpochTrace>>>,
    crash_countdowns: Vec<Arc<AtomicI64>>,
    stats: GatewayStats,
    queue_stats: QueueStats,
}

/// Everything a drained gateway produced.
#[derive(Debug)]
pub struct GatewayOutput {
    /// Per-shard output traces, indexed by shard id. Shards hosting no
    /// granule have empty traces.
    pub shard_traces: Vec<EpochTrace>,
    /// Final counter snapshot.
    pub stats: GatewaySnapshot,
}

impl GatewayOutput {
    /// Union the shard traces into one per-epoch trace, canonically
    /// sorted within each epoch so it can be compared against a
    /// single-process [`EspProcessor`](esp_core::EspProcessor) run.
    pub fn merged_trace(&self) -> EpochTrace {
        let mut by_epoch: BTreeMap<u64, Batch> = BTreeMap::new();
        for trace in &self.shard_traces {
            for (ts, batch) in trace {
                by_epoch
                    .entry(ts.as_millis())
                    .or_default()
                    .extend(batch.iter().cloned());
            }
        }
        by_epoch
            .into_iter()
            .map(|(ms, mut batch)| {
                canonical_sort(&mut batch);
                (Ts::from_millis(ms), batch)
            })
            .collect()
    }

    /// Total tuples across every shard and epoch.
    pub fn total_tuples(&self) -> usize {
        self.shard_traces
            .iter()
            .flatten()
            .map(|(_, b)| b.len())
            .sum()
    }
}

/// Sort a batch into a canonical order (timestamp, then the debug
/// rendering of the values). Sharding changes only the interleaving of
/// tuples within an epoch; after this sort, a sharded epoch equals its
/// single-process counterpart.
pub fn canonical_sort(batch: &mut Batch) {
    batch.sort_by_key(|t| (t.ts(), format!("{:?}", t.values())));
}

impl Gateway {
    /// Bind, build one `EspProcessor` per non-empty shard, and start all
    /// threads. `pipeline_factory(shard)` builds each shard's cleaning
    /// cascade (pipelines are not clonable; stages carry state).
    pub fn spawn(
        config: GatewayConfig,
        mut pipeline_factory: impl FnMut(usize) -> Pipeline,
    ) -> Result<Gateway> {
        let errors: Vec<_> = config
            .validate(None)
            .into_iter()
            .filter(|d| d.is_error())
            .collect();
        if !errors.is_empty() {
            return Err(EspError::Invalid(errors));
        }

        let router = Arc::new(ShardRouter::new(&config.groups, config.n_shards));
        let live_shards = {
            let mut shards: Vec<usize> = config
                .groups
                .iter()
                .map(|g| shard_of_granule(&g.granule, config.n_shards))
                .collect();
            shards.sort_unstable();
            shards.dedup();
            shards.len()
        };
        let stats = GatewayStats::new(config.n_shards);
        let queue_stats = QueueStats::registered(&stats.registry());
        let clock = WatermarkClock::new();

        // Open durable state first: `WalWriter::open` recovers the log's
        // high-water marks, which seed the coordinator (resume at the
        // epoch after the last flushed one) and the stats max-timestamp
        // (so the drain sweep re-covers every logged reading).
        let mut coord_start = config.start;
        let mut coord_last_flushed: Option<Ts> = None;
        let durable = match &config.durability {
            Some(dc) => {
                let wal = WalWriter::open(&dc.wal_dir(), dc.segment_bytes)?;
                if let Some(last) = wal.last_flush_epoch() {
                    coord_last_flushed = Some(last);
                    coord_start = last + config.period;
                }
                if let Some(max) = wal.max_reading_ts() {
                    stats.seed_max_ts(max.as_millis());
                }
                let store = Arc::new(SnapshotStore::open(&dc.snapshot_dir())?);
                let every = (dc.checkpoint_interval.as_millis() / config.period.as_millis()).max(1);
                Some((dc.clone(), Arc::new(Mutex::new(wal)), store, every))
            }
            None => None,
        };
        let crash_countdowns: Vec<Arc<AtomicI64>> = (0..config.n_shards)
            .map(|_| Arc::new(AtomicI64::new(-1)))
            .collect();

        // Shard queues + workers.
        let mut txs: Vec<Sender<ShardMsg>> = Vec::with_capacity(config.n_shards);
        let mut workers = Vec::with_capacity(config.n_shards);
        let mut traces: Vec<Arc<Mutex<EpochTrace>>> = Vec::with_capacity(config.n_shards);
        for (shard, crash_countdown) in crash_countdowns.iter().enumerate() {
            let (tx, rx) = bounded(config.edge_capacity);
            txs.push(tx);
            let trace: Arc<Mutex<EpochTrace>> = Arc::new(Mutex::new(Vec::new()));
            traces.push(Arc::clone(&trace));
            let shard_groups: Vec<GatewayGroup> = config
                .groups
                .iter()
                .filter(|g| shard_of_granule(&g.granule, config.n_shards) == shard)
                .cloned()
                .collect();
            if shard_groups.is_empty() {
                // No granule hashed here: a sink that still acknowledges
                // punctuation (exact flush-latency accounting) and, when
                // durable, records empty checkpoints so WAL truncation is
                // not held hostage by an idle shard.
                let stats = stats.clone();
                let sink_durability = durable
                    .as_ref()
                    .map(|(dc, _, store, every)| (Arc::clone(store), *every, dc.max_snapshots));
                workers.push(
                    thread::Builder::new()
                        .name(format!("esp-gateway-shard-{shard}"))
                        .spawn(move || {
                            let mut epochs = 0u64;
                            loop {
                                match rx.recv() {
                                    Ok(ShardMsg::Flush { seq, epoch, sent }) => {
                                        if esp_obs::enabled() {
                                            stats.note_queue_wait(sent.elapsed().as_nanos() as u64);
                                        }
                                        stats.note_flush_done(epoch.as_millis());
                                        if let Some((store, every, keep)) = &sink_durability {
                                            epochs += 1;
                                            if epochs >= *every {
                                                let t0 = crate::stats::CpuTimer::start();
                                                store.write(
                                                    SnapshotMeta {
                                                        shard,
                                                        epoch,
                                                        wal_seq: seq,
                                                    },
                                                    &[],
                                                )?;
                                                store.retain(shard, *keep)?;
                                                stats.note_checkpoint();
                                                stats.note_checkpoint_time(t0.elapsed_nanos());
                                                epochs = 0;
                                            }
                                        }
                                    }
                                    Ok(ShardMsg::Reading { .. }) => {}
                                    Ok(ShardMsg::Shutdown) | Err(_) => break,
                                }
                            }
                            Ok(())
                        })
                        .map_err(|e| EspError::Config(format!("spawn shard sink thread: {e}")))?,
                );
                continue;
            }

            let pipeline = pipeline_factory(shard);
            if durable.is_some() {
                // Probe-build the shard's cascade to ask the static half
                // of the durability contract: every stage must have a
                // serialized state form, or the gateway would run fine
                // until the first checkpoint fires and then die at
                // runtime. Cheap (single-threaded build, no I/O) and only
                // paid when durability is on; the worker rebuilds from
                // the same factories on startup anyway.
                let (probe, _buffers) = crate::worker::build_shard(&shard_groups, &pipeline)?;
                let bad = probe.non_checkpointable_stages();
                if !bad.is_empty() {
                    return Err(EspError::Invalid(vec![Diagnostic::error(
                        "E0804",
                        format!(
                            "durable gateway pipeline contains stage(s) that cannot be \
                             checkpointed: {}",
                            bad.join(", ")
                        ),
                    )
                    .with_note(
                        "declarative (compiled-query) stages have no serialized window \
                         state; use the built-in stages or run without durability",
                    )]));
                }
                // The replay half of the same contract: recovery replays
                // the WAL, so a stage whose output is not a pure function
                // of its input would recover to different bytes. Rejected
                // here, at spawn, for the same reason E0804 is — failing
                // at the first recovery would be far worse.
                let tainted = probe.nondeterministic_stages();
                if !tainted.is_empty() {
                    let detail = tainted
                        .iter()
                        .map(|(name, reason)| format!("'{name}' ({reason})"))
                        .collect::<Vec<_>>()
                        .join(", ");
                    return Err(EspError::Invalid(vec![Diagnostic::error(
                        "E0903",
                        format!(
                            "durable gateway pipeline contains nondeterministic stage(s): \
                             {detail}"
                        ),
                    )
                    .with_note(
                        "WAL replay cannot reproduce wall-clock reads or other volatile \
                         effects; make the stage deterministic or run without durability",
                    )]));
                }
            }
            if live_shards > 1 {
                if let Some(slot) = pipeline.slots().iter().find(|s| s.scope == Scope::Global) {
                    return Err(EspError::Invalid(vec![Diagnostic::error(
                        "E0502",
                        format!(
                            "global-scope stage '{}' in a gateway sharded across \
                             {live_shards} live shards",
                            slot.label
                        ),
                    )
                    .with_note(
                        "each shard runs its own cascade, so a global stage would only \
                         see its shard's granules; use one shard or a per-group stage",
                    )]));
                }
            }
            let hooks = durable
                .as_ref()
                .map(|(dc, wal, store, every)| DurabilityHooks {
                    config: dc.clone(),
                    store: Arc::clone(store),
                    wal: Arc::clone(wal),
                    router: Arc::clone(&router),
                    n_shards: config.n_shards,
                    checkpoint_every: *every,
                    crash_countdown: Arc::clone(crash_countdown),
                });
            workers.push(spawn_worker(
                shard,
                rx,
                shard_groups,
                pipeline,
                Arc::clone(&trace),
                stats.clone(),
                hooks,
            )?);
        }

        // Listener + accept loop.
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| EspError::Config(format!("bind {}: {e}", config.addr)))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| EspError::Config(format!("local_addr: {e}")))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| EspError::Config(format!("set_nonblocking: {e}")))?;

        let stop_accept = Arc::new(AtomicBool::new(false));
        let reader_handles: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let max_lateness = config.max_lateness;
        let accept_handle = {
            let stop = Arc::clone(&stop_accept);
            let handles = Arc::clone(&reader_handles);
            let router = Arc::clone(&router);
            let txs = txs.clone();
            let stats = stats.clone();
            let queue_stats = queue_stats.clone();
            let clock = clock.clone();
            let wal = durable.as_ref().map(|(_, w, _, _)| Arc::clone(w));
            thread::Builder::new()
                .name("esp-gateway-accept".into())
                .spawn(move || {
                    while !stop.load(Ordering::Acquire) {
                        match listener.accept() {
                            Ok((stream, _peer)) => {
                                let router = Arc::clone(&router);
                                let txs = txs.clone();
                                let conn_stats = stats.clone();
                                let queue_stats = queue_stats.clone();
                                let clock = clock.clone();
                                let wal = wal.clone();
                                let spawned = thread::Builder::new()
                                    .name("esp-gateway-conn".into())
                                    .spawn(move || {
                                        serve_connection(
                                            stream,
                                            max_lateness,
                                            &router,
                                            &txs,
                                            &clock,
                                            wal.as_deref(),
                                            &conn_stats,
                                            &queue_stats,
                                        )
                                    });
                                match spawned {
                                    Ok(h) => handles.lock().push(h),
                                    Err(_) => stats.note_io_error(),
                                }
                            }
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                                thread::sleep(Duration::from_millis(1));
                            }
                            Err(_) => {
                                stats.note_io_error();
                                thread::sleep(Duration::from_millis(1));
                            }
                        }
                    }
                })
                .map_err(|e| EspError::Config(format!("spawn accept thread: {e}")))?
        };

        // Epoch coordinator.
        let drain = Arc::new(AtomicBool::new(false));
        let killed = Arc::new(AtomicBool::new(false));
        let coordinator = {
            let drain = Arc::clone(&drain);
            let killed = Arc::clone(&killed);
            let stats = stats.clone();
            let txs = txs.clone();
            let clock = clock.clone();
            let wal = durable.as_ref().map(|(_, w, _, _)| Arc::clone(w));
            let (start, period, min_conns) = (coord_start, config.period, config.min_connections);
            let last = coord_last_flushed;
            thread::Builder::new()
                .name("esp-gateway-coordinator".into())
                .spawn(move || {
                    coordinate(
                        &clock,
                        &stats,
                        &txs,
                        &drain,
                        &killed,
                        wal.as_deref(),
                        start,
                        last,
                        period,
                        min_conns,
                    )
                })
                .map_err(|e| EspError::Config(format!("spawn coordinator thread: {e}")))?
        };

        Ok(Gateway {
            local_addr,
            stop_accept,
            drain,
            killed,
            accept_handle,
            coordinator,
            reader_handles,
            workers,
            traces,
            crash_countdowns,
            stats,
            queue_stats,
        })
    }

    /// The bound address clients should connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Live counters (snapshot; safe to call while running).
    pub fn snapshot(&self) -> GatewaySnapshot {
        self.stats.snapshot(&self.queue_stats)
    }

    /// The observability registry every gateway counter, span, and
    /// histogram lives in (per-gateway; safe to scrape while running).
    pub fn registry(&self) -> esp_obs::Registry {
        self.stats.registry()
    }

    /// Prometheus text exposition of this gateway's registry merged with
    /// the process-global one — the same document the `STATS` wire frame
    /// serves.
    pub fn render_text(&self) -> String {
        self.stats.render_text()
    }

    /// [`Gateway::render_text`], but as one JSON document.
    pub fn render_json(&self) -> String {
        self.stats.render_json()
    }

    /// Graceful shutdown: stop accepting, wait for every open connection
    /// to finish (clients must close their sockets), flush the final
    /// epochs, join all workers, and return the collected output.
    pub fn finish(self) -> Result<GatewayOutput> {
        self.stop_accept.store(true, Ordering::Release);
        self.accept_handle
            .join()
            .map_err(|_| EspError::Config("gateway accept thread panicked".into()))?;
        let readers = std::mem::take(&mut *self.reader_handles.lock());
        for h in readers {
            h.join()
                .map_err(|_| EspError::Config("gateway reader thread panicked".into()))?;
        }
        // Every reading that will ever arrive is now in the shard queues;
        // tell the coordinator to flush through the end of the data. The
        // Release store pairs with the coordinator's Acquire load: if it
        // observes `drain`, the reader joins above (and every enqueue they
        // performed) happen-before its final flush sweep.
        self.drain.store(true, Ordering::Release);
        // A worker that died early also makes the coordinator fail (its
        // channel disconnects); join everything before reporting so the
        // root-cause worker error wins over the coordinator's symptom.
        let coord = self
            .coordinator
            .join()
            .map_err(|_| EspError::Config("gateway coordinator panicked".into()))?;
        let mut first_err = None;
        for w in self.workers {
            let joined = w
                .join()
                .map_err(|_| EspError::Config("gateway worker panicked".into()))?;
            if let Err(e) = joined {
                first_err.get_or_insert(e);
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        coord?;
        let shard_traces = self
            .traces
            .iter()
            .map(|t| std::mem::take(&mut *t.lock()))
            .collect();
        let stats = self.stats.snapshot(&self.queue_stats);
        Ok(GatewayOutput {
            shard_traces,
            stats,
        })
    }

    /// Simulate a whole-process crash as faithfully as an in-process
    /// gateway can: stop accepting, let open connections wind down, then
    /// stop the coordinator *without* the final drain sweep and discard
    /// every worker's in-memory output. Durable state (WAL + snapshots)
    /// is left exactly as the crash would leave it; a gateway re-spawned
    /// on the same durability directory recovers from it.
    pub fn kill(self) -> Result<()> {
        self.stop_accept.store(true, Ordering::Release);
        self.accept_handle
            .join()
            .map_err(|_| EspError::Config("gateway accept thread panicked".into()))?;
        let readers = std::mem::take(&mut *self.reader_handles.lock());
        for h in readers {
            h.join()
                .map_err(|_| EspError::Config("gateway reader thread panicked".into()))?;
        }
        self.killed.store(true, Ordering::Release);
        let coord = self
            .coordinator
            .join()
            .map_err(|_| EspError::Config("gateway coordinator panicked".into()))?;
        // Dropping the coordinator's senders disconnects the shard
        // queues; workers drain what was in flight and exit. As in
        // `finish`, a worker's own error outranks the coordinator's
        // disconnect symptom.
        let mut first_err = None;
        for w in self.workers {
            let joined = w
                .join()
                .map_err(|_| EspError::Config("gateway worker panicked".into()))?;
            if let Err(e) = joined {
                first_err.get_or_insert(e);
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        coord
    }

    /// Arm the fault injector: `shard`'s worker simulates a crash after
    /// processing `after_flushes` more flush messages (0 = on the next
    /// one), abandoning its processor and buffered readings and coming
    /// back through the snapshot + WAL-replay recovery path. Only honored
    /// when durability is configured; without it the countdown is never
    /// read.
    pub fn inject_crash(&self, shard: usize, after_flushes: u64) {
        if let Some(c) = self.crash_countdowns.get(shard) {
            c.store(after_flushes as i64, Ordering::Release);
        }
    }
}

/// The coordinator loop: poll the watermark, broadcast due epochs, and on
/// drain flush everything up to the last reading before shutting workers
/// down. On a restart `start`/`last_flushed` come from the recovered WAL,
/// so the epoch sequence continues where the previous process left off.
#[allow(clippy::too_many_arguments)]
fn coordinate(
    clock: &WatermarkClock,
    stats: &GatewayStats,
    txs: &[Sender<ShardMsg>],
    drain: &AtomicBool,
    killed: &AtomicBool,
    wal: Option<&Mutex<WalWriter>>,
    start: Ts,
    mut last_flushed: Option<Ts>,
    period: TimeDelta,
    min_connections: usize,
) -> Result<()> {
    let mut next = start;
    loop {
        if killed.load(Ordering::Acquire) {
            // Simulated hard crash: no final flush sweep, no Shutdown —
            // exactly what the workers would (not) see on a power cut.
            return Ok(());
        }
        let draining = drain.load(Ordering::Acquire);
        // Once draining, every reader has exited: all data is enqueued and
        // the watermark argument is moot — flush everything.
        let watermark = if draining {
            Some(u64::MAX)
        } else if clock.registered() >= min_connections {
            clock.global()
        } else {
            None
        };
        if let Some(wm) = watermark {
            let max_ts = stats.max_ts_ms();
            // Flush while the watermark certifies the epoch AND some data
            // is not yet covered by a flushed epoch (the second condition
            // stops an all-closed watermark of ∞ from spinning forever).
            while next.as_millis() < wm && last_flushed.is_none_or(|e| e.as_millis() < max_ts) {
                stats.note_flush_issued(next.as_millis());
                broadcast_flush(txs, wal, next, stats)?;
                last_flushed = Some(next);
                next += period;
            }
        }
        if draining {
            for tx in txs {
                let _ = tx.send(ShardMsg::Shutdown);
            }
            return Ok(());
        }
        thread::sleep(Duration::from_micros(500));
    }
}

/// Log the flush marker (when durable) and broadcast it to every shard,
/// holding the WAL lock across append + enqueue so per-shard queue order
/// equals WAL order — the invariant recovery's skip rule relies on.
fn broadcast_flush(
    txs: &[Sender<ShardMsg>],
    wal: Option<&Mutex<WalWriter>>,
    epoch: Ts,
    stats: &GatewayStats,
) -> Result<()> {
    let hung = || EspError::Config("gateway shard worker hung up".into());
    match wal {
        Some(w) => {
            let mut w = w.lock();
            let t0 = esp_obs::enabled().then(Instant::now);
            let seq = w.append_flush(epoch)?;
            if let Some(t0) = t0 {
                stats.note_wal_flush(t0.elapsed().as_nanos() as u64);
            }
            stats.note_wal_record();
            for tx in txs {
                tx.send(ShardMsg::Flush {
                    seq,
                    epoch,
                    sent: Instant::now(),
                })
                .map_err(|_| hung())?;
            }
        }
        None => {
            for tx in txs {
                tx.send(ShardMsg::Flush {
                    seq: 0,
                    epoch,
                    sent: Instant::now(),
                })
                .map_err(|_| hung())?;
            }
        }
    }
    Ok(())
}

/// One connection: handshake, then a frame-decode-route loop until EOF.
#[allow(clippy::too_many_arguments)]
fn serve_connection(
    mut stream: TcpStream,
    max_lateness: Option<TimeDelta>,
    router: &ShardRouter,
    txs: &[Sender<ShardMsg>],
    clock: &WatermarkClock,
    wal: Option<&Mutex<WalWriter>>,
    stats: &GatewayStats,
    queue_stats: &QueueStats,
) {
    let lateness_ms = match handshake(&mut stream, max_lateness) {
        Ok(l) => l,
        Err(_) => {
            stats.note_io_error();
            return;
        }
    };
    stats.note_connection();
    let conn = clock.register();
    if let Err(_e) = read_frames(
        stream,
        lateness_ms,
        router,
        txs,
        &conn,
        wal,
        stats,
        queue_stats,
    ) {
        stats.note_io_error();
    }
    // Whatever happened, release the watermark so one dead connection
    // cannot stall every pipeline forever.
    conn.close();
}

/// Validate the client hello and return its bounded-lateness promise (ms).
/// A promise above `max_lateness` (when set), or no complete hello within
/// [`HANDSHAKE_TIMEOUT`], refuses the connection: the socket closes
/// without an ack.
fn handshake(stream: &mut TcpStream, max_lateness: Option<TimeDelta>) -> std::io::Result<u64> {
    use std::io::{Error, ErrorKind};
    let mut hello = [0u8; 14];
    stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT))?;
    stream.read_exact(&mut hello)?;
    let magic = u32::from_be_bytes([hello[0], hello[1], hello[2], hello[3]]);
    let version = u16::from_be_bytes([hello[4], hello[5]]);
    if magic != HELLO_MAGIC {
        return Err(Error::new(ErrorKind::InvalidData, "bad hello magic"));
    }
    if version != PROTOCOL_VERSION {
        return Err(Error::new(
            ErrorKind::InvalidData,
            format!("unsupported version {version}"),
        ));
    }
    let lateness_ms = u64::from_be_bytes([
        hello[6], hello[7], hello[8], hello[9], hello[10], hello[11], hello[12], hello[13],
    ]);
    if let Some(max) = max_lateness {
        if lateness_ms > max.as_millis() {
            return Err(Error::new(
                ErrorKind::InvalidData,
                format!("declared lateness {lateness_ms} ms exceeds the gateway bound {max}"),
            ));
        }
    }
    stream.write_all(&[ACK_OK])?;
    // Data connections may idle between readings for as long as they like.
    stream.set_read_timeout(None)?;
    Ok(lateness_ms)
}

#[allow(clippy::too_many_arguments)]
fn read_frames(
    stream: TcpStream,
    lateness_ms: u64,
    router: &ShardRouter,
    txs: &[Sender<ShardMsg>],
    conn: &crate::watermark::ConnClock,
    wal: Option<&Mutex<WalWriter>>,
    stats: &GatewayStats,
    queue_stats: &QueueStats,
) -> Result<()> {
    // Write half for `STATS` scrape responses — the only server→client
    // traffic after the handshake ack, so an ingest-only client that
    // never scrapes sees the exact pre-existing protocol.
    let responder = stream
        .try_clone()
        .map_err(|e| EspError::Wire(format!("clone stream for stats responses: {e}")))?;
    let mut responder = FrameWriter::new(BufWriter::with_capacity(64 * 1024, responder));
    let mut reader = FrameReader::new(BufReader::with_capacity(64 * 1024, stream));
    // Scratch WAL record, encoded + checksummed before taking the lock.
    let mut prepared = esp_durability::PreparedRecord::new();
    while let Some(frame) = reader
        .read_frame()
        .map_err(|e| EspError::Wire(format!("frame read: {e}")))?
    {
        if frame.as_ref() == STATS_TEXT_REQUEST || frame.as_ref() == STATS_JSON_REQUEST {
            // Scrape request: counted on its own (never as a data frame,
            // so frame-conservation invariants are scrape-invariant) and
            // answered inline on this connection.
            stats.note_stats_request();
            let body = if frame.as_ref() == STATS_JSON_REQUEST {
                stats.render_json()
            } else {
                stats.render_text()
            };
            write_stats_response(&mut responder, body.as_bytes())
                .map_err(|e| EspError::Wire(format!("stats response: {e}")))?;
            continue;
        }
        stats.note_frame();
        let Ok(reading) = wire::decode(&frame) else {
            // Paper §4: Point functionality out of the box — checksum
            // failures are dropped at the edge, counted, never forwarded.
            stats.note_corrupt();
            continue;
        };
        let Some(dests) = router.shards_of(reading.receptor()) else {
            stats.note_unroutable();
            continue;
        };
        let ts_ms = reading.ts().as_millis();
        match wal {
            Some(w) => {
                // Hold the WAL lock across append + enqueue so per-shard
                // queue order equals WAL order. Blocking on a full queue
                // while holding the lock is deliberate — recovery never
                // takes this lock (see `crate::durability`), so it cannot
                // deadlock against a recovering worker.
                prepared.encode(&frame, reading.ts());
                let mut w = w.lock();
                let seq = w.append_prepared(&prepared)?;
                stats.note_wal_record();
                for &shard in dests {
                    send_counted(
                        &txs[shard],
                        ShardMsg::Reading {
                            seq,
                            reading: reading.clone(),
                        },
                        queue_stats,
                    )?;
                }
            }
            None => {
                for &shard in dests {
                    send_counted(
                        &txs[shard],
                        ShardMsg::Reading {
                            seq: 0,
                            reading: reading.clone(),
                        },
                        queue_stats,
                    )?;
                }
            }
        }
        stats.note_reading(ts_ms, dests);
        // Advance AFTER enqueuing: the flush this advance may trigger
        // must sit behind the reading in every shard queue.
        conn.advance(ts_ms.saturating_sub(lateness_ms));
    }
    Ok(())
}

/// Write one scrape document as a sequence of marker-prefixed frames:
/// `[STATS_MORE | STATS_FINAL][chunk]`. Chunked because an exposition
/// can exceed [`MAX_FRAME_LEN`]; the in-band marker byte (rather than an
/// empty terminator frame, which the framing layer forbids) tells the
/// client where the document ends.
fn write_stats_response<W: Write>(w: &mut FrameWriter<W>, body: &[u8]) -> std::io::Result<()> {
    let chunks: Vec<&[u8]> = if body.is_empty() {
        vec![&[][..]]
    } else {
        body.chunks(STATS_CHUNK).collect()
    };
    let last = chunks.len() - 1;
    let mut frame = Vec::new();
    for (i, c) in chunks.iter().enumerate() {
        frame.clear();
        frame.push(if i == last { STATS_FINAL } else { STATS_MORE });
        frame.extend_from_slice(c);
        w.write_raw(&frame)?;
    }
    w.flush()
}

/// Send on a bounded shard queue, recording whether it was full (the
/// blocking path is the backpressure that ultimately stalls the socket).
fn send_counted(tx: &Sender<ShardMsg>, msg: ShardMsg, stats: &QueueStats) -> Result<()> {
    match tx.try_send(msg) {
        Ok(()) => {
            stats.record_send();
            Ok(())
        }
        Err(TrySendError::Full(msg)) => {
            stats.record_blocked();
            tx.send(msg)
                .map_err(|_| EspError::Config("gateway shard worker hung up".into()))
        }
        Err(TrySendError::Disconnected(_)) => {
            Err(EspError::Config("gateway shard worker hung up".into()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn group(granule: &str, members: &[u32]) -> GatewayGroup {
        GatewayGroup {
            receptor_type: ReceptorType::Rfid,
            granule: granule.into(),
            members: members.iter().map(|&m| ReceptorId(m)).collect(),
        }
    }

    #[test]
    fn validate_accepts_default_config() {
        let config = GatewayConfig::new(vec![group("shelf0", &[0])]);
        assert!(config.validate(None).is_empty());
        assert!(config.validate(Some(TimeDelta::from_secs(5))).is_empty());
    }

    #[test]
    fn validate_flags_degenerate_resources() {
        let mut config = GatewayConfig::new(vec![]);
        config.n_shards = 0;
        config.edge_capacity = 0;
        config.period = TimeDelta::ZERO;
        let diags = config.validate(None);
        assert_eq!(
            diags.iter().filter(|d| d.code == "E0503").count(),
            4,
            "{diags:?}"
        );
    }

    #[test]
    fn validate_flags_group_defects() {
        let config = GatewayConfig::new(vec![group("a", &[]), group("a", &[1])]);
        let diags = config.validate(None);
        assert!(diags.iter().any(|d| d.code == "E0302"), "{diags:?}");
        assert!(diags.iter().any(|d| d.code == "E0303"), "{diags:?}");
    }

    #[test]
    fn validate_flags_lateness_at_or_above_window() {
        let mut config = GatewayConfig::new(vec![group("shelf0", &[0])]);
        config.max_lateness = Some(TimeDelta::from_secs(5));
        let diags = config.validate(Some(TimeDelta::from_secs(5)));
        assert!(
            diags.iter().any(|d| d.code == "E0501" && d.is_error()),
            "{diags:?}"
        );
        // Strictly below the window is fine.
        assert!(config.validate(Some(TimeDelta::from_secs(6))).is_empty());
        // Unknown window: nothing to compare against.
        assert!(config.validate(None).is_empty());
    }

    #[test]
    fn spawn_rejects_invalid_config_with_diagnostics() {
        let mut config = GatewayConfig::new(vec![group("g", &[0])]);
        config.n_shards = 0;
        match Gateway::spawn(config, |_| Pipeline::raw()) {
            Err(EspError::Invalid(diags)) => {
                assert!(diags.iter().any(|d| d.code == "E0503"), "{diags:?}")
            }
            Err(other) => panic!("expected Invalid, got {other}"),
            Ok(_) => panic!("expected Invalid, got a running gateway"),
        }
    }

    #[test]
    fn spawn_rejects_global_stage_across_live_shards() {
        // Two granules that hash to different shards.
        let mut names = (0..).map(|i| format!("g{i}"));
        let a = names.next().unwrap();
        let b = names
            .find(|n| shard_of_granule(n, 4) != shard_of_granule(&a, 4))
            .unwrap();
        let config = GatewayConfig::new(vec![group(&a, &[0]), group(&b, &[1])]);
        let result = Gateway::spawn(config, |_| {
            esp_core::Pipeline::builder()
                .global("arbitrate", |_| {
                    Ok(Box::new(esp_core::FnStage::per_epoch(
                        "arbitrate",
                        |_, input| Ok(input),
                    )))
                })
                .build()
        });
        match result {
            Err(EspError::Invalid(diags)) => {
                assert!(
                    diags.iter().any(|d| d.code == "E0502" && d.is_error()),
                    "{diags:?}"
                )
            }
            Err(other) => panic!("expected Invalid, got {other}"),
            Ok(_) => panic!("expected Invalid, got a running gateway"),
        }
    }

    #[test]
    fn spawn_rejects_durable_declarative_stage_with_e0804() {
        let dir = std::env::temp_dir().join(format!("esp-e0804-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut config = GatewayConfig::new(vec![group("g", &[0])]);
        config.durability = Some(DurabilityConfig::new(&dir));
        let result = Gateway::spawn(config, |_| {
            esp_core::Pipeline::builder()
                .per_receptor("q", |_| {
                    let q = esp_query::Engine::new()
                        .compile("SELECT tag_id FROM s [Range By '5 sec']")?;
                    Ok(Box::new(esp_core::DeclarativeStage::new("q", q)?))
                })
                .build()
        });
        let _ = std::fs::remove_dir_all(&dir);
        match result {
            Err(EspError::Invalid(diags)) => {
                assert!(
                    diags.iter().any(|d| d.code == "E0804" && d.is_error()),
                    "{diags:?}"
                )
            }
            Err(other) => panic!("expected Invalid, got {other}"),
            Ok(_) => panic!("expected Invalid, got a running gateway"),
        }
    }

    #[test]
    fn spawn_rejects_durable_nondeterministic_stage_with_e0903() {
        let dir = std::env::temp_dir().join(format!("esp-e0903-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut config = GatewayConfig::new(vec![group("g", &[0])]);
        config.durability = Some(DurabilityConfig::new(&dir));
        let result = Gateway::spawn(config, |_| {
            esp_core::Pipeline::builder()
                .per_receptor("stamp", |_| {
                    Ok(Box::new(
                        esp_core::FnStage::per_tuple("stamp", |t| Ok(Some(t.clone())))
                            .nondeterministic("stamps tuples with the wall clock"),
                    ))
                })
                .build()
        });
        let _ = std::fs::remove_dir_all(&dir);
        match result {
            Err(EspError::Invalid(diags)) => {
                let d = diags
                    .iter()
                    .find(|d| d.code == "E0903" && d.is_error())
                    .unwrap_or_else(|| panic!("{diags:?}"));
                assert!(d.message.contains("wall clock"), "{}", d.message);
            }
            Err(other) => panic!("expected Invalid, got {other}"),
            Ok(_) => panic!("expected Invalid, got a running gateway"),
        }
        // Without durability the same pipeline spawns fine: determinism is
        // only load-bearing for WAL replay.
        let config = GatewayConfig::new(vec![group("g", &[0])]);
        let gateway = Gateway::spawn(config, |_| {
            esp_core::Pipeline::builder()
                .per_receptor("stamp", |_| {
                    Ok(Box::new(
                        esp_core::FnStage::per_tuple("stamp", |t| Ok(Some(t.clone())))
                            .nondeterministic("stamps tuples with the wall clock"),
                    ))
                })
                .build()
        })
        .unwrap();
        gateway.finish().unwrap();
    }

    #[test]
    fn spawn_allows_global_stage_on_single_live_shard() {
        let config = GatewayConfig::new(vec![group("only", &[0])]);
        let gateway = Gateway::spawn(config, |_| {
            esp_core::Pipeline::builder()
                .global("arbitrate", |_| {
                    Ok(Box::new(esp_core::FnStage::per_epoch(
                        "arbitrate",
                        |_, input| Ok(input),
                    )))
                })
                .build()
        })
        .unwrap();
        gateway.finish().unwrap();
    }
}
