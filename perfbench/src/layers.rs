//! Per-layer metrics of the traced run, and the attribution of measured
//! system-under-test CPU to layers.

use std::collections::BTreeMap;

use esp_obs::{HistogramSnapshot, Registry};

use crate::gateway_run::{Replay, Round};
use crate::stats::{median, quantile};
use crate::timed::StageTotals;
use crate::workload::GatewayInput;

/// Stage labels the three cascades use.
pub const STAGES: [&str; 5] = ["point", "smooth", "merge", "arbitrate", "virtualize"];

/// Per-layer metrics every traced run prints, name and unit; a layer a
/// workload does not exercise reads 0.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let fixed: [(&str, &str); 33] = [
        ("receptors.decode_ns", "ns"),
        ("receptors.corrupt_frac", "frac"),
        ("gateway.route_ns", "ns"),
        ("gateway.shard_skew", "ratio"),
        ("gateway.queue_wait_us_p50", "us"),
        ("gateway.queue_wait_us_p99", "us"),
        ("gateway.queue_blocked_frac", "frac"),
        ("gateway.flush_ms_p50", "ms"),
        ("gateway.flush_ms_p99", "ms"),
        ("gateway.reader_cpu_frac", "frac"),
        ("gateway.worker_cpu_frac", "frac"),
        ("gateway.coordinator_cpu_frac", "frac"),
        ("gateway.accept_cpu_frac", "frac"),
        ("durability.wal_flush_us_p50", "us"),
        ("durability.wal_flush_us_p99", "us"),
        ("durability.wal_append_ns", "ns"),
        ("durability.wal_bytes_per_reading", "bytes"),
        ("durability.checkpoint_ms", "ms"),
        ("durability.snapshot_bytes", "bytes"),
        ("core.row_shim_calls", "count"),
        ("stream.epoch_step_us_p50", "us"),
        ("stream.epoch_step_us_p99", "us"),
        ("stream.cascade_other_frac", "frac"),
        ("stream.window_chunk_push_frac", "frac"),
        ("query.tick_us_p50", "us"),
        ("query.chunk_tick_frac", "frac"),
        ("bench.attributed_cpu_frac", "frac"),
        ("bench.unattributed_cpu_frac", "frac"),
        ("bench.largest_remainder_frac", "frac"),
        ("bench.trace_overhead_frac", "frac"),
        ("bench.sut_cpu_s", "s"),
        ("bench.replay_rps", "1/s"),
        ("bench.traced_rounds", "count"),
    ];
    let mut out: Vec<(String, &'static str)> =
        fixed.iter().map(|(n, u)| (n.to_string(), *u)).collect();
    for stage in STAGES {
        out.push((format!("core.{stage}.ns_per_epoch"), "ns"));
        out.push((format!("core.{stage}.rows_in"), "count"));
        out.push((format!("core.{stage}.rows_out"), "count"));
    }
    out
}

/// Layer values by metric name.
pub type Layers = BTreeMap<String, f64>;

/// `num / den`, 0 when the denominator is not positive.
pub fn frac(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn hist(reg: &Registry, name: &str, labels: &[(&str, &str)]) -> HistogramSnapshot {
    reg.histogram_snapshot(name, labels)
        .unwrap_or_else(HistogramSnapshot::empty)
}

fn q(h: &HistogramSnapshot, p: f64) -> f64 {
    h.quantile(p).unwrap_or(0) as f64
}

/// Per-stage metrics from the decorators; returns the summed stage time.
pub fn stage_layers(
    layer: &mut Layers,
    stages: &BTreeMap<String, StageTotals>,
    epochs: f64,
    rounds: f64,
) -> f64 {
    let mut total = 0.0;
    let mut shim = 0u64;
    for (label, t) in stages {
        total += t.nanos as f64;
        shim += t.shim_calls;
        layer.insert(
            format!("core.{label}.ns_per_epoch"),
            frac(t.nanos as f64, epochs),
        );
        layer.insert(format!("core.{label}.rows_in"), t.rows_in as f64 / rounds);
        layer.insert(format!("core.{label}.rows_out"), t.rows_out as f64 / rounds);
    }
    layer.insert("core.row_shim_calls".into(), shim as f64 / rounds);
    total
}

/// Metrics from the process-global registry (query engine, windows).
pub fn global_layers(layer: &mut Layers) {
    let g = esp_obs::global();
    let counter = |name: &str| g.counter_value(name, &[]).unwrap_or(0) as f64;
    let tick = hist(g, "esp_query_tick_nanos", &[]);
    layer.insert("query.tick_us_p50".into(), q(&tick, 0.5) / 1e3);
    let chunk_ticks = counter("esp_query_chunk_ticks_total");
    let row_ticks = counter("esp_query_row_ticks_total");
    layer.insert(
        "query.chunk_tick_frac".into(),
        frac(chunk_ticks, chunk_ticks + row_ticks),
    );
    let chunk_pushes = counter("esp_stream_window_chunk_pushes_total");
    let row_pushes = counter("esp_stream_window_row_pushes_total");
    layer.insert(
        "stream.window_chunk_push_frac".into(),
        frac(chunk_pushes, chunk_pushes + row_pushes),
    );
}

/// Coverage of the measured CPU by the layers' spans, and the remainders
/// by where they sit; the largest is named in `notes`.
pub fn attribution(
    layer: &mut Layers,
    notes: &mut Vec<String>,
    attributed: f64,
    sut_cpu: f64,
    remainders: &[(&str, f64)],
) {
    let coverage = frac(attributed, sut_cpu);
    layer.insert("bench.attributed_cpu_frac".into(), coverage);
    layer.insert("bench.unattributed_cpu_frac".into(), 1.0 - coverage);
    let largest =
        remainders
            .iter()
            .copied()
            .fold(("none", f64::MIN), |a, b| if b.1 > a.1 { b } else { a });
    layer.insert(
        "bench.largest_remainder_frac".into(),
        frac(largest.1, sut_cpu),
    );
    layer.insert("bench.sut_cpu_s".into(), sut_cpu / 1e9);
    notes.push(format!(
        "attribution: layers cover {:.1}% of {:.3} s system-under-test CPU (target >= 90%)",
        coverage * 100.0,
        sut_cpu / 1e9
    ));
    for (name, ns) in remainders {
        notes.push(format!(
            "  unattributed remainder {name}: {:.1}%",
            frac(*ns, sut_cpu) * 100.0
        ));
    }
    notes.push(format!(
        "largest unattributed remainder: {} ({:.1}%)",
        largest.0,
        frac(largest.1, sut_cpu) * 100.0
    ));
}

/// Every per-layer metric, in the declared order, 0 where the workload
/// does not exercise the layer.
pub fn fill(layer: &Layers) -> Vec<(String, f64, &'static str)> {
    per_layer_metrics()
        .into_iter()
        .map(|(name, unit)| {
            let v = layer.get(&name).copied().unwrap_or(0.0);
            (name, v, unit)
        })
        .collect()
}

/// The gateway layers, from the traced rounds (decorators, registries,
/// thread CPU) and the timed replay (edge functions).
pub fn gateway_layers(
    input: &GatewayInput,
    traced: &[&Round],
    stages: &BTreeMap<String, StageTotals>,
    replay: &Replay,
    notes: &mut Vec<String>,
) -> Layers {
    let mut layer = Layers::new();
    let n_traced = traced.len().max(1) as f64;
    let sum = |f: &dyn Fn(&Round) -> u64| traced.iter().map(|r| f(r)).sum::<u64>() as f64;
    let readings = sum(&|r| r.stats.readings);
    let frames = sum(&|r| r.stats.frames);
    let sut_cpu = sum(&|r| r.sut_cpu_ns);
    let checkpoint_ns = sum(&|r| r.stats.checkpoint_nanos);

    // Registry reads, merged over the traced rounds' gateways.
    let merged = |name: &str, labels: &[(&str, &str)]| {
        let mut h = HistogramSnapshot::empty();
        for r in traced {
            h.merge(&hist(&r.registry, name, labels));
        }
        h
    };
    let mut step = HistogramSnapshot::empty();
    for shard in 0..input.n_shards {
        let label = shard.to_string();
        step.merge(&merged("esp_stream_epoch_step_nanos", &[("shard", &label)]));
    }
    let queue_wait = merged("esp_gateway_queue_wait_nanos", &[]);
    let flush = merged("esp_gateway_flush_latency_us", &[]);
    let wal_flush = merged("esp_gateway_wal_flush_nanos", &[]);

    layer.insert("receptors.decode_ns".into(), replay.decode_ns);
    layer.insert(
        "receptors.corrupt_frac".into(),
        frac(sum(&|r| r.stats.corrupt_frames), frames),
    );
    layer.insert("gateway.route_ns".into(), replay.route_ns);
    // Skew over the shards that host at least one granule: the slowest
    // shard sets every flush.
    let place = crate::gateway_run::placement(input);
    let live: Vec<f64> = traced
        .first()
        .map(|r| {
            r.stats
                .shard_readings
                .iter()
                .enumerate()
                .filter(|(s, _)| place.contains_key(s))
                .map(|(_, n)| *n as f64)
                .collect()
        })
        .unwrap_or_default();
    let mean = frac(live.iter().sum(), live.len() as f64);
    layer.insert(
        "gateway.shard_skew".into(),
        frac(live.iter().copied().fold(0.0, f64::max), mean),
    );
    layer.insert(
        "gateway.queue_wait_us_p50".into(),
        q(&queue_wait, 0.5) / 1e3,
    );
    layer.insert(
        "gateway.queue_wait_us_p99".into(),
        q(&queue_wait, 0.99) / 1e3,
    );
    layer.insert(
        "gateway.queue_blocked_frac".into(),
        frac(
            sum(&|r| r.stats.queue_blocked),
            sum(&|r| r.stats.queue_sends),
        ),
    );
    layer.insert("gateway.flush_ms_p50".into(), q(&flush, 0.5) / 1e3);
    layer.insert("gateway.flush_ms_p99".into(), q(&flush, 0.99) / 1e3);
    layer.insert(
        "durability.wal_flush_us_p50".into(),
        q(&wal_flush, 0.5) / 1e3,
    );
    layer.insert(
        "durability.wal_flush_us_p99".into(),
        q(&wal_flush, 0.99) / 1e3,
    );
    layer.insert("durability.wal_append_ns".into(), replay.wal_append_ns);
    layer.insert(
        "durability.wal_bytes_per_reading".into(),
        replay.wal_bytes_per_reading,
    );
    layer.insert(
        "durability.checkpoint_ms".into(),
        frac(checkpoint_ns / 1e6, sum(&|r| r.stats.checkpoints)),
    );
    layer.insert(
        "durability.snapshot_bytes".into(),
        median(&traced.iter().map(|r| r.snapshot_bytes).collect::<Vec<_>>()),
    );
    layer.insert("stream.epoch_step_us_p50".into(), q(&step, 0.5) / 1e3);
    layer.insert("stream.epoch_step_us_p99".into(), q(&step, 0.99) / 1e3);
    let epochs = input.n_epochs() as f64 * n_traced;
    let stage_ns = stage_layers(&mut layer, stages, epochs, n_traced);
    layer.insert(
        "stream.cascade_other_frac".into(),
        frac(step.sum() as f64 - stage_ns, step.sum() as f64),
    );
    global_layers(&mut layer);
    layer.insert(
        "bench.replay_rps".into(),
        frac(replay.readings as f64, replay.total_ns as f64 / 1e9),
    );
    layer.insert("bench.traced_rounds".into(), traced.len() as f64);

    // Attribution of the measured system-under-test CPU: edge costs per
    // reading from the replay, step and checkpoint spans in the workers.
    // WAL flush spans are mostly fsync waits, not CPU: they explain
    // latency, and the coordinator's CPU stays in its remainder.
    let mut roles: BTreeMap<&str, f64> = BTreeMap::new();
    for r in traced {
        for (role, ns) in &r.roles {
            *roles.entry(role).or_default() += *ns as f64;
        }
    }
    for (role, ns) in &roles {
        layer.insert(format!("gateway.{role}_cpu_frac"), frac(*ns, sut_cpu));
    }
    let role = |name: &str| roles.get(name).copied().unwrap_or(0.0);
    let edge = replay.decode_ns * frames + (replay.route_ns + replay.wal_append_ns) * readings;
    let worker_spans = step.sum() as f64 + checkpoint_ns;
    let remainders = [
        (
            "gateway.reader (socket read, queue send)",
            role("reader") - edge,
        ),
        (
            "gateway.worker (queue receive, chunk buffering, publish)",
            role("worker") - worker_spans,
        ),
        (
            "gateway.coordinator (watermark poll loop, WAL flush)",
            role("coordinator"),
        ),
        ("gateway.accept (1 ms accept poll loop)", role("accept")),
        (
            "unsampled (main thread, thread exit tails)",
            sut_cpu - roles.values().sum::<f64>(),
        ),
    ];
    attribution(&mut layer, notes, edge + worker_spans, sut_cpu, &remainders);
    layer
}

/// The home layers, from the traced rounds' decorators and timed steps.
pub fn home_layers(
    step_ns: &[f64],
    cpu_ns: f64,
    stages: &BTreeMap<String, StageTotals>,
    epochs: f64,
    rounds: f64,
    notes: &mut Vec<String>,
) -> Layers {
    let mut layer = Layers::new();
    let step_total: f64 = step_ns.iter().sum();
    layer.insert(
        "stream.epoch_step_us_p50".into(),
        quantile(step_ns, 0.5) / 1e3,
    );
    layer.insert(
        "stream.epoch_step_us_p99".into(),
        quantile(step_ns, 0.99) / 1e3,
    );
    let stage_ns = stage_layers(&mut layer, stages, epochs, rounds);
    layer.insert(
        "stream.cascade_other_frac".into(),
        frac(step_total - stage_ns, step_total),
    );
    global_layers(&mut layer);
    layer.insert("bench.traced_rounds".into(), rounds);
    attribution(
        &mut layer,
        notes,
        step_total,
        cpu_ns,
        &[(
            "bench step loop (outside EspProcessor::step)",
            cpu_ns - step_total,
        )],
    );
    layer
}
