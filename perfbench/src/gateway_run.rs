//! Driving the gateway over TCP: one round is spawn → send every frame →
//! drain, watched from outside by an observer thread; plus the
//! single-threaded replay of the same frames that is both the correctness
//! reference and the per-reading cost of the edge layers.

use std::collections::{BTreeMap, HashMap};
use std::fs;
use std::io::Cursor;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use esp_core::{EspProcessor, Pipeline, ProximityGroups, ReceptorBinding};
use esp_durability::WalWriter;
use esp_gateway::{
    canonical_sort, shard_of_granule, DurabilityConfig, Gateway, GatewayClient, GatewayConfig,
    GatewaySnapshot, ReadingSchemas, ShardRouter,
};
use esp_receptors::framing::{FrameReader, FrameWriter};
use esp_receptors::wire;
use esp_stream::ScriptedChunkSource;
use esp_types::{Batch, Chunk, ReceptorId, Result, TimeDelta, Ts};

use crate::procfs::{self, ThreadSampler};
use crate::workload::GatewayInput;

/// How often the observer polls `Gateway::snapshot()` for flushed epochs.
const OBSERVE_EVERY: Duration = Duration::from_micros(1000);
/// How often the observer samples per-thread CPU and RSS, in polls.
const SAMPLE_EVERY_POLLS: u32 = 2;
/// Give up waiting for epochs this long after the last frame was sent.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);
/// Checkpoint cadence of the durable gateway, in epochs.
const CHECKPOINT_EPOCHS: u64 = 4;

/// Render a trace as comparable text: one line per tuple, `ts values`,
/// epochs with no output skipped. Schema `Arc`s differ between runs, so
/// values, not tuples, are compared.
pub fn render(trace: &[(Ts, Batch)]) -> String {
    let mut out = String::new();
    for (epoch, batch) in trace {
        if batch.is_empty() {
            continue;
        }
        out.push_str(&format!("epoch {}\n", epoch.as_millis()));
        for t in batch {
            out.push_str(&format!("{:?} {:?}\n", t.ts(), t.values()));
        }
    }
    out
}

/// A stable 64-bit FNV-1a digest of rendered output.
pub fn digest(rendered: &str) -> u64 {
    rendered.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The order in which the single sender thread writes frames: by due
/// time, then epoch, then connection, so every connection advances epoch
/// by epoch and the watermark keeps moving.
pub fn schedule(input: &GatewayInput) -> Vec<(usize, usize)> {
    let mut order: Vec<(Duration, u64, usize, usize)> = Vec::new();
    for (c, frames) in input.conns.iter().enumerate() {
        for (i, f) in frames.iter().enumerate() {
            order.push((f.due, input.epoch_of(f.ts), c, i));
        }
    }
    order.sort();
    order.into_iter().map(|(_, _, c, i)| (c, i)).collect()
}

/// Everything one round measured.
pub struct Round {
    /// Gateway spawn (pipeline build, WAL and snapshot open) plus connect.
    pub setup_s: f64,
    /// First send to output drained.
    pub wall_s: f64,
    /// CPU of the system under test: process CPU minus the load
    /// generator's and the observer's own threads.
    pub sut_cpu_ns: u64,
    /// Final gateway counters.
    pub stats: GatewaySnapshot,
    /// Digest of the canonically sorted merged output.
    pub digest: u64,
    /// Per-epoch latency samples, ms.
    pub latency_ms: Vec<f64>,
    /// How late the sender wrote each frame against its due time, ms.
    pub gen_lag_ms: Vec<f64>,
    /// Highest RSS the observer saw above the RSS before spawn, bytes.
    pub rss_growth: u64,
    /// Per-role thread CPU (traced rounds only).
    pub roles: BTreeMap<&'static str, u64>,
    /// The gateway's registry after the drain.
    pub registry: esp_obs::Registry,
    /// Mean size of one shard snapshot file, bytes (durable only).
    pub snapshot_bytes: f64,
}

/// Where a durable round keeps its WAL and snapshots.
fn fresh_dir(work: &Path, tag: &str) -> PathBuf {
    let dir = work.join(tag);
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn gateway_config(input: &GatewayInput, durable_dir: Option<&Path>) -> GatewayConfig {
    let mut config = GatewayConfig::new(input.groups.clone());
    config.n_shards = input.n_shards;
    config.period = input.period;
    config.min_connections = input.conns.len();
    config.durability = durable_dir.map(|d| {
        DurabilityConfig::new(d).checkpoint_every(TimeDelta::from_millis(
            input.period.as_millis() * CHECKPOINT_EPOCHS,
        ))
    });
    config
}

fn spawn_and_connect(
    input: &GatewayInput,
    pipeline: &(dyn Fn() -> Pipeline + Sync),
    durable_dir: Option<&Path>,
) -> Result<(Gateway, Vec<GatewayClient>)> {
    let gateway = Gateway::spawn(gateway_config(input, durable_dir), |_| pipeline())?;
    let clients = (0..input.conns.len())
        .map(|_| GatewayClient::connect(gateway.local_addr(), TimeDelta::ZERO))
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(|e| esp_types::EspError::Wire(format!("connect: {e}")))?;
    Ok((gateway, clients))
}

/// Set-up alone: spawn, connect, then close with no data and drain.
/// Returns the set-up seconds.
pub fn setup_only(
    input: &GatewayInput,
    pipeline: &(dyn Fn() -> Pipeline + Sync),
    work: &Path,
    tag: &str,
) -> Result<f64> {
    let dir = input.durable.then(|| fresh_dir(work, tag));
    let t0 = Instant::now();
    let (gateway, clients) = spawn_and_connect(input, pipeline, dir.as_deref())?;
    let setup = t0.elapsed().as_secs_f64();
    for c in clients {
        c.finish()
            .map_err(|e| esp_types::EspError::Wire(format!("close: {e}")))?;
    }
    gateway.finish()?;
    if let Some(d) = dir {
        let _ = fs::remove_dir_all(d);
    }
    Ok(setup)
}

/// What the sender thread reports back.
struct Sent {
    cpu_ns: u64,
    /// Instant the last frame of each epoch was written.
    epoch_last_write: Vec<Option<Instant>>,
    gen_lag_ms: Vec<f64>,
}

fn send_all(
    input: &GatewayInput,
    order: &[(usize, usize)],
    mut clients: Vec<GatewayClient>,
    t0: Instant,
    flushed: &AtomicU64,
) -> std::io::Result<Sent> {
    let cpu0 = procfs::thread_cpu_ns();
    let mut epoch_last_write = vec![None; input.n_epochs() as usize];
    let mut gen_lag_ms = Vec::new();
    for &(c, i) in order {
        let frame = &input.conns[c][i];
        if let Some(k) = input.in_flight {
            // Epoch e may be written once epochs 0..=e-k are emitted.
            let need = (input.epoch_of(frame.ts) + 1).saturating_sub(k);
            if flushed.load(Ordering::Acquire) < need {
                for client in &mut clients {
                    client.flush()?;
                }
                while flushed.load(Ordering::Acquire) < need {
                    thread::sleep(OBSERVE_EVERY);
                }
            }
        }
        if input.paced {
            let due = t0 + frame.due;
            let now = Instant::now();
            if due > now {
                // Put what is already written on the wire, then wait.
                for client in &mut clients {
                    client.flush()?;
                }
                thread::sleep(due - Instant::now().min(due));
            }
        }
        clients[c].send_raw(&frame.bytes)?;
        let written = Instant::now();
        if input.paced {
            let lag = written.saturating_duration_since(t0 + frame.due);
            gen_lag_ms.push(lag.as_secs_f64() * 1e3);
        }
        epoch_last_write[input.epoch_of(frame.ts) as usize] = Some(written);
    }
    for client in clients {
        client.finish()?;
    }
    Ok(Sent {
        cpu_ns: procfs::thread_cpu_ns() - cpu0,
        epoch_last_write,
        gen_lag_ms,
    })
}

/// What the observer thread saw.
struct Observed {
    cpu_ns: u64,
    /// Instant at which `epochs_flushed` first reached k + 1.
    flushed_at: Vec<Instant>,
    sampler: ThreadSampler,
    rss_peak: u64,
}

fn observe(
    gateway: &Gateway,
    n_epochs: u64,
    sent: &AtomicBool,
    flushed_out: &AtomicU64,
    trace: bool,
) -> Observed {
    let cpu0 = procfs::thread_cpu_ns();
    let mut flushed_at = Vec::with_capacity(n_epochs as usize);
    let mut sampler = ThreadSampler::new();
    let mut rss_peak = 0;
    let mut sent_at: Option<Instant> = None;
    let mut polls = 0u32;
    loop {
        let flushed = gateway.snapshot().epochs_flushed;
        let now = Instant::now();
        while (flushed_at.len() as u64) < flushed.min(n_epochs) {
            flushed_at.push(now);
        }
        flushed_out.store(flushed, Ordering::Release);
        if polls.is_multiple_of(SAMPLE_EVERY_POLLS) {
            rss_peak = rss_peak.max(procfs::status_bytes("VmRSS"));
            if trace {
                sampler.sample();
            }
        }
        polls = polls.wrapping_add(1);
        if flushed >= n_epochs {
            break;
        }
        if sent.load(Ordering::Acquire) {
            let since = *sent_at.get_or_insert(now);
            if now.duration_since(since) > DRAIN_TIMEOUT {
                break;
            }
        }
        thread::sleep(OBSERVE_EVERY);
    }
    if trace {
        sampler.sample();
    }
    Observed {
        cpu_ns: procfs::thread_cpu_ns() - cpu0,
        flushed_at,
        sampler,
        rss_peak,
    }
}

/// One round: spawn the gateway, send every frame over TCP, drain, and
/// take the measurements. `trace` adds per-thread CPU sampling; stage
/// timing comes in through `pipeline`.
pub fn run_round(
    input: &GatewayInput,
    order: &[(usize, usize)],
    pipeline: &(dyn Fn() -> Pipeline + Sync),
    work: &Path,
    tag: &str,
    trace: bool,
) -> Result<Round> {
    let dir = input.durable.then(|| fresh_dir(work, tag));
    let rss_base = procfs::status_bytes("VmRSS");
    let cpu0 = procfs::process_cpu_ns();
    let t_setup = Instant::now();
    let (gateway, clients) = spawn_and_connect(input, pipeline, dir.as_deref())?;
    let setup_s = t_setup.elapsed().as_secs_f64();
    let registry = gateway.registry();
    let n_epochs = input.n_epochs();
    let done = AtomicBool::new(false);
    let flushed = AtomicU64::new(0);
    let t0 = Instant::now();
    let (sent, observed) = thread::scope(|s| {
        let sender = thread::Builder::new()
            .name("perfbench-send".into())
            .spawn_scoped(s, || {
                let r = send_all(input, order, clients, t0, &flushed);
                done.store(true, Ordering::Release);
                r
            })
            .expect("spawn sender thread");
        let observer = thread::Builder::new()
            .name("perfbench-observe".into())
            .spawn_scoped(s, || observe(&gateway, n_epochs, &done, &flushed, trace))
            .expect("spawn observer thread");
        (
            sender.join().expect("sender thread panicked"),
            observer.join().expect("observer thread panicked"),
        )
    });
    let sent = sent.map_err(|e| esp_types::EspError::Wire(format!("send: {e}")))?;
    let output = gateway.finish()?;
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu1 = procfs::process_cpu_ns();
    let sut_cpu_ns = (cpu1 - cpu0).saturating_sub(sent.cpu_ns + observed.cpu_ns);

    // Latency of each epoch that carried frames: from its last frame's
    // due time (paced) or write time (saturating) to its emission.
    let mut due_last: Vec<Option<Duration>> = vec![None; n_epochs as usize];
    for f in input.frames() {
        let e = input.epoch_of(f.ts) as usize;
        due_last[e] = Some(due_last[e].map_or(f.due, |d| d.max(f.due)));
    }
    let mut latency_ms = Vec::new();
    for (e, at) in observed.flushed_at.iter().enumerate() {
        let from = if input.paced {
            due_last[e].map(|d| t0 + d)
        } else {
            sent.epoch_last_write[e]
        };
        if let Some(from) = from {
            latency_ms.push(at.saturating_duration_since(from).as_secs_f64() * 1e3);
        }
    }

    let snapshot_bytes = dir
        .as_deref()
        .map(|d| mean_file_size(&d.join("snapshots")))
        .unwrap_or(0.0);
    if let Some(d) = dir {
        let _ = fs::remove_dir_all(d);
    }
    let merged = output.merged_trace();
    Ok(Round {
        setup_s,
        wall_s,
        sut_cpu_ns,
        digest: digest(&render(&merged)),
        stats: output.stats,
        latency_ms,
        gen_lag_ms: sent.gen_lag_ms,
        rss_growth: observed.rss_peak.saturating_sub(rss_base),
        roles: observed.sampler.by_role(),
        registry,
        snapshot_bytes,
    })
}

fn mean_file_size(dir: &Path) -> f64 {
    let sizes = file_sizes(dir);
    if sizes.is_empty() {
        0.0
    } else {
        sizes.iter().sum::<u64>() as f64 / sizes.len() as f64
    }
}

/// Sizes of every file under `dir`, recursively.
fn file_sizes(dir: &Path) -> Vec<u64> {
    let mut out = Vec::new();
    for e in fs::read_dir(dir).into_iter().flatten().flatten() {
        match e.metadata() {
            Ok(m) if m.is_dir() => out.extend(file_sizes(&e.path())),
            Ok(m) => out.push(m.len()),
            Err(_) => {}
        }
    }
    out
}

/// Per-reading costs of the edge layers and the reference output, from a
/// single-threaded replay of the delivered frames.
pub struct Replay {
    /// Rendered reference output (canonically sorted per epoch).
    pub rendered: String,
    /// `FrameReader::read_frame` + `wire::decode`, per frame.
    pub decode_ns: f64,
    /// `ShardRouter::shards_of` + `ReadingSchemas::append_to_chunk`, per
    /// reading.
    pub route_ns: f64,
    /// `WalWriter::append_reading`, per reading (durable workloads).
    pub wal_append_ns: f64,
    /// WAL bytes per reading (durable workloads).
    pub wal_bytes_per_reading: f64,
    /// Wall time of each `EspProcessor::step`.
    pub step_ns: Vec<u64>,
    /// Readings that decoded.
    pub readings: u64,
    /// Wall time of the whole replay (decode, route, WAL, steps).
    pub total_ns: u64,
}

/// Replay the delivered frames single-threaded through the public edge
/// functions and `EspProcessor::step`. This is the single-process run the
/// gateway's output must equal, and the single-thread baseline.
pub fn replay(input: &GatewayInput, pipeline: &Pipeline, work: &Path) -> Result<Replay> {
    let mut wire_bytes = Vec::new();
    {
        let mut w = FrameWriter::new(&mut wire_bytes);
        for f in input.frames() {
            w.write_raw(&f.bytes)
                .map_err(|e| esp_types::EspError::Wire(format!("encode: {e}")))?;
        }
        w.flush()
            .map_err(|e| esp_types::EspError::Wire(format!("encode: {e}")))?;
    }
    let t_all = Instant::now();

    // Edge: frame and decode, dropping what fails the checksum.
    let t = Instant::now();
    let mut reader = FrameReader::new(Cursor::new(&wire_bytes));
    let mut readings = Vec::new();
    let mut frames = 0u64;
    while let Some(frame) = reader
        .read_frame()
        .map_err(|e| esp_types::EspError::Wire(format!("frame: {e}")))?
    {
        frames += 1;
        if let Ok(r) = wire::decode(&frame) {
            readings.push((r, frame));
        }
    }
    let decode_ns = t.elapsed().as_nanos() as f64 / frames.max(1) as f64;

    // Routing: the gateway's router and the worker's chunk append, one
    // chunk per receptor and epoch.
    let t = Instant::now();
    let router = ShardRouter::new(&input.groups, input.n_shards);
    let schemas = ReadingSchemas::new();
    let mut per_receptor: HashMap<ReceptorId, Vec<(Ts, Chunk)>> = HashMap::new();
    for (r, _) in &readings {
        let routed = router
            .shards_of(r.receptor())
            .is_some_and(|s| !s.is_empty());
        if !routed {
            return Err(esp_types::EspError::Config(format!(
                "{} is not routable",
                r.receptor()
            )));
        }
        let epoch = Ts::from_millis(input.epoch_of(r.ts()) * input.period.as_millis());
        let script = per_receptor.entry(r.receptor()).or_default();
        if script.last().is_none_or(|(e, _)| *e != epoch) {
            script.push((epoch, Chunk::new(schemas.schema_for(r))));
        }
        let (_, chunk) = script.last_mut().expect("a chunk was just pushed");
        schemas.append_to_chunk(r, chunk)?;
    }
    let route_ns = t.elapsed().as_nanos() as f64 / readings.len().max(1) as f64;

    // Durability: append every accepted frame to a WAL of its own.
    let (wal_append_ns, wal_bytes_per_reading) = if input.durable {
        let dir = fresh_dir(work, "replay-wal");
        let mut wal = WalWriter::open(&dir, DurabilityConfig::new(&dir).segment_bytes)?;
        let t = Instant::now();
        for (r, frame) in &readings {
            wal.append_reading(frame, r.ts())?;
        }
        let ns = t.elapsed().as_nanos() as f64 / readings.len().max(1) as f64;
        wal.sync()?;
        drop(wal);
        let bytes: u64 = file_sizes(&dir).iter().sum();
        let _ = fs::remove_dir_all(&dir);
        (ns, bytes as f64 / readings.len().max(1) as f64)
    } else {
        (0.0, 0.0)
    };

    // The cascade, one processor over every group, stepped epoch by epoch.
    let mut groups = ProximityGroups::new();
    for g in &input.groups {
        groups.add_group(
            g.receptor_type,
            g.granule.as_str(),
            g.members.iter().copied(),
        );
    }
    let bindings = input
        .groups
        .iter()
        .flat_map(|g| g.members.iter().copied())
        .map(|id| {
            let script = per_receptor.remove(&id).unwrap_or_default();
            ReceptorBinding::new(
                id,
                input.receptor_type,
                Box::new(ScriptedChunkSource::new(format!("replay#{}", id.0), script)),
            )
        })
        .collect();
    let mut processor = EspProcessor::build(groups, pipeline, bindings)?;
    let mut step_ns = Vec::with_capacity(input.n_epochs() as usize);
    for e in 0..input.n_epochs() {
        let t = Instant::now();
        processor.step(Ts::from_millis(e * input.period.as_millis()))?;
        step_ns.push(t.elapsed().as_nanos() as u64);
    }
    let total_ns = t_all.elapsed().as_nanos() as u64;
    let mut trace = processor.take_output();
    for (_, batch) in &mut trace {
        canonical_sort(batch);
    }
    Ok(Replay {
        rendered: render(&trace),
        decode_ns,
        route_ns,
        wal_append_ns,
        wal_bytes_per_reading,
        step_ns,
        readings: readings.len() as u64,
        total_ns,
    })
}

/// Which shard each granule hashes to.
pub fn placement(input: &GatewayInput) -> BTreeMap<usize, usize> {
    let mut per_shard = BTreeMap::new();
    for g in &input.groups {
        *per_shard
            .entry(shard_of_granule(&g.granule, input.n_shards))
            .or_insert(0) += 1;
    }
    per_shard
}
