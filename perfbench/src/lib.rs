//! # esp-perfbench
//!
//! The ESP benchmark: the paper's three deployments as workloads, measured
//! end to end with tracing off, and per layer in a separate traced run.
//! Layers are measured only from outside the program: calls into public
//! functions are timed here, the `esp-obs` registries are read after the
//! drain, and thread CPU comes from procfs. See `README.md` for what each
//! workload is for and what it bypasses.

pub mod gateway_run;
pub mod home_run;
pub mod layers;
pub mod procfs;
pub mod stats;
pub mod timed;
pub mod workload;

use std::path::Path;
use std::time::{Duration, Instant};

use esp_core::Pipeline;
use esp_types::{EspError, Result};

use gateway_run::{digest, placement, replay, run_round, schedule, setup_only, Round};
use home_run::{home_reference, home_round, home_setup_only};
use layers::{frac, gateway_layers, home_layers};
use stats::{calibrate, calibration_ref_ns, median, quantile, summary, tail};
use timed::{timed_pipeline, StageClock};
use workload::{GatewayInput, HomeInput};

/// Workload names, as the command line takes them.
pub const WORKLOADS: [&str; 3] = ["shelf-saturate", "redwood-paced", "home-inproc"];

/// End-to-end metrics every untraced run reports in its result: name and
/// unit. `latency_tail_ms` is printed beside them but not bounded: on
/// `redwood-paced` it is set by fsync stalls of a shared disk, and its
/// run-to-run spread reached 0.57 of its median.
pub const END_TO_END: [(&str, &str); 5] = [
    ("throughput_rps", "1/s"),
    ("cpu_us_per_reading", "us"),
    ("latency_p50_ms", "ms"),
    ("setup_s", "s"),
    ("rss_peak_mb", "MB"),
];

/// Epochs of one shelf round (200 ms each, 60 s of event time).
pub const SHELF_EPOCHS: u64 = 300;
/// Wall time one redwood epoch (5 min of event time) takes to send.
pub const REDWOOD_EPOCH_WALL: Duration = Duration::from_millis(8);
/// Redwood rounds per run: each round pays a durable set-up and drain.
pub const REDWOOD_ROUNDS: u64 = 12;
/// Epochs of one home round (1 s each, 5.5 hours of event time).
pub const HOME_EPOCHS: u64 = 20_000;
/// Set-ups timed on their own per run, beside the rounds' own set-ups.
pub const SETUP_SAMPLES: usize = 9;
/// Fewest rounds a run makes, whatever `--seconds` says.
pub const MIN_ROUNDS: usize = 3;

/// The outcome of one benchmark run.
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Intact readings offered to the system under test.
    pub attempted: u64,
    /// Intact readings not ingested, or offered in a round whose output
    /// check failed.
    pub failed: u64,
    /// Metrics to report: name, value, unit.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// Run stamp entries: key and JSON value.
    pub stamp: Vec<(String, String)>,
}

/// One measured round in the form the end-to-end metrics need, whatever
/// the workload.
struct Measured {
    traced: bool,
    setup_s: f64,
    wall_s: f64,
    cpu_ns: u64,
    readings: u64,
    latency_ms: Vec<f64>,
    rss_growth: u64,
}

/// Run `f` between two timings of the calibration kernel, which go to
/// `samples`.
fn calibrated<T>(samples: &mut Vec<f64>, cores: usize, f: impl FnOnce() -> Result<T>) -> Result<T> {
    samples.push(calibrate(cores) as f64);
    let out = f()?;
    samples.push(calibrate(cores) as f64);
    Ok(out)
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values (which no metric should produce)
/// become 0 so the line stays parseable.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn summary_json(values: &[f64]) -> String {
    match summary(values) {
        Some(s) => format!(
            "{{\"n\": {}, \"q1\": {}, \"median\": {}, \"q3\": {}}}",
            s.n,
            json_num(s.q1),
            json_num(s.median),
            json_num(s.q3)
        ),
        None => "null".into(),
    }
}

/// Run one workload for about `seconds` of measured rounds. `work` is a
/// scratch directory inside the checkout.
pub fn run(workload: &str, seed: u64, seconds: u64, trace: bool, work: &Path) -> Result<Outcome> {
    std::fs::create_dir_all(work)
        .map_err(|e| EspError::Config(format!("work dir {}: {e}", work.display())))?;
    match workload {
        "shelf-saturate" => {
            let input = workload::shelf_input(seed, SHELF_EPOCHS);
            run_gateway(&input, &workload::shelf_pipeline, seconds, trace, work)
        }
        "redwood-paced" => {
            // REDWOOD_ROUNDS paced rounds fill the run.
            let wall_ms = REDWOOD_EPOCH_WALL.as_millis() as u64;
            let epochs = (seconds * 1000 / (REDWOOD_ROUNDS * wall_ms)).max(20);
            let input = workload::redwood_input(seed, epochs, REDWOOD_EPOCH_WALL);
            run_gateway(&input, &workload::redwood_pipeline, seconds, trace, work)
        }
        "home-inproc" => {
            let input = workload::home_input(seed, HOME_EPOCHS);
            run_home(&input, seed, seconds, trace)
        }
        other => Err(EspError::Config(format!(
            "unknown workload '{other}' (expected one of {})",
            WORKLOADS.join(", ")
        ))),
    }
}

/// Whether round `i` is traced: in a traced run rounds alternate, so the
/// untraced rounds of the same run give the tracing overhead.
fn traced_round(trace: bool, i: usize) -> bool {
    trace && i % 2 == 1
}

/// Whether to start another round. Paced rounds have a fixed length, so
/// their count is fixed; the others repeat until the time is used.
fn another_round(start: Instant, seconds: u64, done: usize, paced: bool, trace: bool) -> bool {
    let extra = usize::from(trace);
    if paced {
        done < REDWOOD_ROUNDS as usize + extra
    } else {
        done < MIN_ROUNDS + extra || start.elapsed() < Duration::from_secs(seconds)
    }
}

fn run_gateway(
    input: &GatewayInput,
    pipeline: &(dyn Fn() -> Pipeline + Sync),
    seconds: u64,
    trace: bool,
    work: &Path,
) -> Result<Outcome> {
    let order = schedule(input);
    // The gateway keeps every core busy (worker, readers, load
    // generator); home steps on one.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let clock = StageClock::new();
    let timed = || timed_pipeline(pipeline(), &clock);
    let mut rounds: Vec<Round> = Vec::new();
    let mut traced_flags = Vec::new();
    let mut calibration = Vec::new();
    let start = Instant::now();
    while another_round(start, seconds, rounds.len(), input.paced, trace) {
        let traced = traced_round(trace, rounds.len());
        let tag = format!("round-{}", rounds.len());
        let measured = calibrated(&mut calibration, cores, || {
            if traced {
                run_round(input, &order, &timed, work, &tag, true)
            } else {
                run_round(input, &order, pipeline, work, &tag, false)
            }
        })?;
        rounds.push(measured);
        traced_flags.push(traced);
    }
    // Set-ups on their own come after the rounds, so the first round
    // starts from a process that has run nothing of the system yet: its
    // RSS growth is the memory metric.
    let setups = calibrated(&mut calibration, cores, || {
        (0..SETUP_SAMPLES)
            .map(|i| setup_only(input, pipeline, work, &format!("setup-{i}")))
            .collect::<Result<Vec<f64>>>()
    })?;

    // The reference: a single-threaded replay of the same frames.
    let replay_clock = StageClock::new();
    let reference = if trace {
        replay(input, &timed_pipeline(pipeline(), &replay_clock), work)?
    } else {
        replay(input, &pipeline(), work)?
    };
    let ref_digest = digest(&reference.rendered);

    let intact = input.intact();
    let corrupted = input.corrupted();
    let mut failed = 0u64;
    let mut notes = Vec::new();
    for (i, r) in rounds.iter().enumerate() {
        let s = &r.stats;
        // Accounting closes: produced = delivered + channel-lost +
        // checksum-dropped, and nothing was unroutable or lost to I/O.
        let accounting = input.produced == s.readings + input.channel_lost + s.corrupt_frames
            && s.corrupt_frames == corrupted
            && s.frames == intact + corrupted
            && s.unroutable == 0
            && s.io_errors == 0;
        let output_ok = r.digest == ref_digest;
        if !(accounting && output_ok) {
            failed += intact;
            notes.push(format!(
                "round {i}: check failed (accounting {accounting}, output {output_ok}): \
                 produced {} delivered {} channel-lost {} checksum-dropped {} unroutable {} \
                 io_errors {}",
                input.produced,
                s.readings,
                input.channel_lost,
                s.corrupt_frames,
                s.unroutable,
                s.io_errors
            ));
        }
    }
    let attempted = intact * rounds.len() as u64;
    let correct = failed == 0 && reference.readings == intact;

    let measured: Vec<Measured> = rounds
        .iter()
        .zip(&traced_flags)
        .map(|(r, &traced)| Measured {
            traced,
            setup_s: r.setup_s,
            wall_s: r.wall_s,
            cpu_ns: r.sut_cpu_ns,
            readings: r.stats.readings,
            latency_ms: r.latency_ms.clone(),
            rss_growth: r.rss_growth,
        })
        .collect();
    let mut stamp = vec![
        ("epochs_per_round".into(), input.n_epochs().to_string()),
        ("frames_per_round".into(), (intact + corrupted).to_string()),
    ];
    // Granule placement and per-shard readings: the shard-skew baseline.
    let place = placement(input);
    let per_shard = |v: Vec<u64>| {
        format!(
            "[{}]",
            v.iter().map(u64::to_string).collect::<Vec<_>>().join(", ")
        )
    };
    let granules: Vec<u64> = (0..input.n_shards)
        .map(|s| place.get(&s).copied().unwrap_or(0) as u64)
        .collect();
    let shard_readings = rounds[0].stats.shard_readings.clone();
    notes.push(format!(
        "granules per shard {granules:?}, readings per shard {shard_readings:?}"
    ));
    stamp.push(("granules_per_shard".into(), per_shard(granules)));
    stamp.push(("readings_per_shard".into(), per_shard(shard_readings)));
    if input.paced {
        let gen_lag: Vec<f64> = rounds
            .iter()
            .zip(&traced_flags)
            .filter(|(_, t)| !**t)
            .flat_map(|(r, _)| r.gen_lag_ms.clone())
            .collect();
        let p99 = quantile(&gen_lag, 0.99);
        notes.push(format!(
            "gen_lag_ms = {} ms (p99 of {} frames; median {} ms)",
            json_num(p99),
            gen_lag.len(),
            json_num(median(&gen_lag))
        ));
        stamp.push(("gen_lag_ms_p99".into(), json_num(p99)));
    }
    notes.push(format!(
        "single-thread replay: {} readings/s ({} readings in {:.3} s)",
        json_num(frac(
            reference.readings as f64,
            reference.total_ns as f64 / 1e9
        )),
        reference.readings,
        reference.total_ns as f64 / 1e9
    ));

    let metrics = if trace {
        let traced: Vec<&Round> = rounds
            .iter()
            .zip(&traced_flags)
            .filter(|(_, t)| **t)
            .map(|(r, _)| r)
            .collect();
        let mut layer = gateway_layers(input, &traced, &clock.totals(), &reference, &mut notes);
        layer.insert(
            "bench.trace_overhead_frac".into(),
            trace_overhead(&measured),
        );
        layers::fill(&layer)
    } else {
        end_to_end(
            &measured,
            &setups,
            (&calibration, cores),
            input.paced,
            &mut notes,
            &mut stamp,
        )
    };
    finish(
        correct,
        attempted,
        failed,
        metrics,
        notes,
        stamp,
        rounds.len(),
    )
}

fn run_home(input: &HomeInput, seed: u64, seconds: u64, trace: bool) -> Result<Outcome> {
    let clock = StageClock::new();
    let plain_wrap = |p: Pipeline| p;
    let timed_wrap = |p: Pipeline| timed_pipeline(p, &clock);
    let mut rounds = Vec::new();
    let mut traced_flags = Vec::new();
    let mut calibration = Vec::new();
    let start = Instant::now();
    while another_round(start, seconds, rounds.len(), false, trace) {
        let traced = traced_round(trace, rounds.len());
        let wrap: &dyn Fn(Pipeline) -> Pipeline = if traced { &timed_wrap } else { &plain_wrap };
        rounds.push(calibrated(&mut calibration, 1, || home_round(input, wrap))?);
        traced_flags.push(traced);
    }
    let setups = calibrated(&mut calibration, 1, || {
        (0..SETUP_SAMPLES)
            .map(|_| home_setup_only(input))
            .collect::<Result<Vec<f64>>>()
    })?;
    // The reference: the scenario's own sources, not the pre-polled
    // scripts, driving the same cascade.
    let reference = digest(&home_reference(seed, input.n_epochs)?);

    let mut notes = Vec::new();
    let mut failed = 0u64;
    for (i, r) in rounds.iter().enumerate() {
        if r.digest != reference {
            failed += input.readings;
            notes.push(format!(
                "round {i}: output differs from the scenario-driven run"
            ));
        }
    }
    let attempted = input.readings * rounds.len() as u64;
    let measured: Vec<Measured> = rounds
        .iter()
        .zip(&traced_flags)
        .map(|(r, &traced)| Measured {
            traced,
            setup_s: r.setup_s,
            wall_s: r.wall_s,
            cpu_ns: r.cpu_ns,
            readings: input.readings,
            // In process, an epoch's input is all there when its step
            // starts and its output when the step returns.
            latency_ms: r.step_ns.iter().map(|ns| *ns as f64 / 1e6).collect(),
            rss_growth: r.rss_growth,
        })
        .collect();
    let mut stamp = vec![
        ("epochs_per_round".into(), input.n_epochs.to_string()),
        ("readings_per_round".into(), input.readings.to_string()),
    ];
    let metrics = if trace {
        let traced: Vec<_> = rounds
            .iter()
            .zip(&traced_flags)
            .filter(|(_, t)| **t)
            .map(|(r, _)| r)
            .collect();
        let step_ns: Vec<f64> = traced
            .iter()
            .flat_map(|r| r.step_ns.iter().map(|ns| *ns as f64))
            .collect();
        let cpu: f64 = traced.iter().map(|r| r.cpu_ns as f64).sum();
        let n = traced.len().max(1) as f64;
        let mut layer = home_layers(
            &step_ns,
            cpu,
            &clock.totals(),
            input.n_epochs as f64 * n,
            n,
            &mut notes,
        );
        layer.insert(
            "bench.trace_overhead_frac".into(),
            trace_overhead(&measured),
        );
        layers::fill(&layer)
    } else {
        end_to_end(
            &measured,
            &setups,
            (&calibration, 1),
            false,
            &mut notes,
            &mut stamp,
        )
    };
    finish(
        failed == 0,
        attempted,
        failed,
        metrics,
        notes,
        stamp,
        rounds.len(),
    )
}

/// CPU per reading of a set of rounds, µs.
fn cpu_per_reading(rounds: &[&Measured]) -> f64 {
    let cpu: u64 = rounds.iter().map(|r| r.cpu_ns).sum();
    let n: u64 = rounds.iter().map(|r| r.readings).sum();
    frac(cpu as f64 / 1e3, n as f64)
}

/// Extra CPU per reading of the traced rounds over the untraced ones.
fn trace_overhead(rounds: &[Measured]) -> f64 {
    let plain: Vec<&Measured> = rounds.iter().filter(|r| !r.traced).collect();
    let traced: Vec<&Measured> = rounds.iter().filter(|r| r.traced).collect();
    let base = cpu_per_reading(&plain);
    frac(cpu_per_reading(&traced) - base, base)
}

/// The end-to-end metrics from the untraced rounds.
///
/// Times are taken to the reference machine speed with the calibration
/// samples timed around each round (see `stats::calibrate`), except on
/// the paced workload: its delivered rate is its offered rate, its
/// latency is timer waits and fsyncs, and its CPU is mostly kernel work
/// (sockets, wake-ups), none of which follows the calibration kernel;
/// scaling them was measured to widen their spread. Raw values go to the
/// notes and the stamp.
///
/// `calibration` holds two samples per round, in round order, then two
/// around the stand-alone set-ups, each taken on `cores` cores; `paced`
/// turns the scaling off.
fn end_to_end(
    rounds: &[Measured],
    setups: &[f64],
    (calibration, cores): (&[f64], usize),
    paced: bool,
    notes: &mut Vec<String>,
    stamp: &mut Vec<(String, String)>,
) -> Vec<(String, f64, &'static str)> {
    let reference_ns = calibration_ref_ns(cores);
    // Speed of the machine around the i-th pair of samples, relative to
    // the reference: times are multiplied by it, rates divided.
    let speed = |i: usize| {
        let pair = calibration.get(2 * i..2 * i + 2).unwrap_or(&[]);
        if paced {
            1.0
        } else {
            frac(2.0 * reference_ns, pair.iter().sum())
        }
    };
    let plain: Vec<(&Measured, f64)> = rounds
        .iter()
        .enumerate()
        .filter(|(_, r)| !r.traced)
        .map(|(i, r)| (r, speed(i)))
        .collect();
    let rps: Vec<f64> = plain
        .iter()
        .map(|(r, k)| r.readings as f64 / r.wall_s / k)
        .collect();
    let cpu: f64 = plain.iter().map(|(r, k)| r.cpu_ns as f64 * k).sum();
    let readings: u64 = plain.iter().map(|(r, _)| r.readings).sum();
    let latency: Vec<f64> = plain
        .iter()
        .flat_map(|(r, k)| r.latency_ms.iter().map(move |l| l * k))
        .collect();
    // The tail: each round's tail (p99, or the highest percentile with ten
    // samples beyond it), then the median over rounds, so a burst of
    // stalls (slow fsyncs on a shared disk) in one round moves it no more
    // than any other round does.
    let tails: Vec<(f64, f64, usize)> = plain
        .iter()
        .map(|(r, k)| {
            let (t, pct, n) = tail(&r.latency_ms);
            (t * k, pct, n)
        })
        .collect();
    let lat_tail = median(&tails.iter().map(|t| t.0).collect::<Vec<_>>());
    let (_, pct, samples) = tails.first().copied().unwrap_or((0.0, 0.0, 0));
    let setup_speed = speed(rounds.len());
    let all_setups: Vec<f64> = plain
        .iter()
        .map(|(r, k)| r.setup_s * k)
        .chain(setups.iter().map(|s| s * setup_speed))
        .collect();
    let values = [
        median(&rps),
        frac(cpu / 1e3, readings as f64),
        median(&latency),
        median(&all_setups),
        plain
            .first()
            .map_or(0.0, |(r, _)| r.rss_growth as f64 / (1024.0 * 1024.0)),
    ];

    let raw_rps: Vec<f64> = plain
        .iter()
        .map(|(r, _)| r.readings as f64 / r.wall_s)
        .collect();
    let raw_plain: Vec<&Measured> = plain.iter().map(|(r, _)| *r).collect();
    let raw_latency: Vec<f64> = raw_plain
        .iter()
        .flat_map(|r| r.latency_ms.clone())
        .collect();
    let raw_setups: Vec<f64> = raw_plain
        .iter()
        .map(|r| r.setup_s)
        .chain(setups.iter().copied())
        .collect();
    let raw = [
        median(&raw_rps),
        cpu_per_reading(&raw_plain),
        median(&raw_latency),
        median(&raw_setups),
    ];
    let speeds: Vec<f64> = plain.iter().map(|(_, k)| *k).collect();
    let raw_tail = median(
        &raw_plain
            .iter()
            .map(|r| tail(&r.latency_ms).0)
            .collect::<Vec<_>>(),
    );
    notes.push(format!(
        "latency_tail_ms = {} ms (not bounded; raw {} ms): the median over {} rounds of \
         each round's p{pct:.2} ({samples} samples per round)",
        json_num(lat_tail),
        json_num(raw_tail),
        plain.len()
    ));
    notes.push(format!(
        "machine speed per round (reference: calibration kernel on {cores} core(s) in {} ms): {}",
        json_num(reference_ns / 1e6),
        summary_json(&speeds)
    ));
    for ((name, unit), v) in END_TO_END.iter().zip(raw) {
        notes.push(format!("raw {name} = {} {unit}", json_num(v)));
    }
    stamp.extend([
        ("throughput_rps".into(), summary_json(&rps)),
        ("raw_throughput_rps".into(), summary_json(&raw_rps)),
        ("latency_ms".into(), summary_json(&latency)),
        ("latency_tail_ms".into(), json_num(lat_tail)),
        ("latency_tail_percentile".into(), json_num(pct)),
        ("latency_samples_per_round".into(), samples.to_string()),
        ("setup_s".into(), summary_json(&all_setups)),
        ("speed".into(), summary_json(&speeds)),
    ]);
    END_TO_END
        .iter()
        .zip(values)
        .map(|((name, unit), v)| (name.to_string(), v, *unit))
        .collect()
}

#[allow(clippy::too_many_arguments)]
fn finish(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    mut notes: Vec<String>,
    mut stamp: Vec<(String, String)>,
    rounds: usize,
) -> Result<Outcome> {
    notes.push(format!(
        "failed_frac = {} frac ({failed} of {attempted} intact readings)",
        json_num(frac(failed as f64, attempted as f64))
    ));
    stamp.insert(0, ("rounds".into(), rounds.to_string()));
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics,
        notes,
        stamp,
    })
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*v),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted.max(1),
        o.failed,
        metrics.join(", ")
    )
}

/// The run stamp as one JSON object: `fixed` first (commit, machine,
/// arguments), then the outcome's own entries.
pub fn stamp_line(fixed: &[(&str, String)], o: &Outcome) -> String {
    let parts: Vec<String> = fixed
        .iter()
        .map(|(k, v)| (k.to_string(), v.clone()))
        .chain(o.stamp.iter().cloned())
        .map(|(k, v)| format!("{}: {}", json_str(&k), v))
        .collect();
    format!("{{\"stamp\": {{{}}}}}", parts.join(", "))
}
