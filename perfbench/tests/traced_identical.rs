//! The stage decorators must not change what the cascades compute: on a
//! short input of each workload, traced output is byte-identical to
//! untraced output, and both equal the single-process reference.

use std::path::PathBuf;
use std::time::Duration;

use esp_perfbench::gateway_run::{digest, replay, run_round, schedule};
use esp_perfbench::home_run::{home_reference, home_round};
use esp_perfbench::layers::per_layer_metrics;
use esp_perfbench::timed::{timed_pipeline, StageClock};
use esp_perfbench::workload::{
    home_input, redwood_input, redwood_pipeline, shelf_input, shelf_pipeline, GatewayInput,
};
use esp_perfbench::END_TO_END;

fn work_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Replay and gateway rounds, untraced and traced, must all agree.
fn check_gateway(input: &GatewayInput, pipeline: &(dyn Fn() -> esp_core::Pipeline + Sync)) {
    let work = work_dir("traced-identical");
    let clock = StageClock::new();
    let timed = || timed_pipeline(pipeline(), &clock);

    let plain = replay(input, &pipeline(), &work).unwrap();
    let traced = replay(input, &timed(), &work).unwrap();
    assert!(!plain.rendered.is_empty(), "the cascade produced output");
    assert_eq!(plain.rendered, traced.rendered);

    let order = schedule(input);
    let a = run_round(input, &order, pipeline, &work, "plain", false).unwrap();
    let b = run_round(input, &order, &timed, &work, "traced", true).unwrap();
    assert_eq!(a.digest, digest(&plain.rendered));
    assert_eq!(b.digest, digest(&plain.rendered));
    assert_eq!(a.stats.readings, input.intact());
    assert_eq!(b.stats.readings, input.intact());

    let totals = clock.totals();
    let first = pipeline().slots()[0].label.clone();
    assert!(totals[&first].rows_in > 0, "the decorator saw the rows");
}

#[test]
fn shelf_traced_equals_untraced() {
    let input = shelf_input(7, 40);
    check_gateway(&input, &shelf_pipeline);
    // The compiled-query Smooth stays chunk-native behind the decorator.
    let clock = StageClock::new();
    let work = work_dir("shelf-shim");
    replay(&input, &timed_pipeline(shelf_pipeline(), &clock), &work).unwrap();
    assert_eq!(clock.totals()["smooth"].shim_calls, 0);
}

#[test]
fn redwood_traced_equals_untraced() {
    // Durable: the decorator forwards checkpointable/determinism/state, or
    // spawn would refuse the pipeline (E0804/E0903) or checkpoints fail.
    let input = redwood_input(7, 30, Duration::from_millis(2));
    assert!(input.durable);
    check_gateway(&input, &redwood_pipeline);
}

#[test]
fn home_traced_equals_untraced() {
    let input = home_input(7, 600);
    let clock = StageClock::new();
    let plain = home_round(&input, &|p| p).unwrap();
    let traced = home_round(&input, &|p| timed_pipeline(p, &clock)).unwrap();
    let reference = home_reference(7, 600).unwrap();
    assert_eq!(plain.digest, digest(&reference));
    assert_eq!(traced.digest, digest(&reference));
    assert!(clock.totals()["virtualize"].calls > 0);
}

#[test]
fn benchmark_json_lists_every_metric_the_runs_print() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text: String = std::fs::read_to_string(path)
        .unwrap()
        .chars()
        .filter(|c| !c.is_whitespace())
        .collect();
    let listed =
        |name: &str, unit: &str| text.contains(&format!("\"name\":\"{name}\",\"unit\":\"{unit}\""));
    for (name, unit) in END_TO_END {
        assert!(listed(name, unit), "end-to-end metric {name} ({unit})");
    }
    for (name, unit) in per_layer_metrics() {
        assert!(listed(&name, unit), "per-layer metric {name} ({unit})");
    }
}
