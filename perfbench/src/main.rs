//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--work <dir>] [--results <dir>]`
//!
//! Runs one workload and prints, as its last line, the result object
//! (`correct`, `attempted`, `failed`, `metrics`). Untraced runs report the
//! end-to-end metrics, traced runs the per-layer metrics. The line before
//! it is the run stamp (commit, core count, arguments, rounds, medians and
//! quartiles), also written to `--results`.

use std::path::PathBuf;
use std::process::ExitCode;

use esp_perfbench::{json_str, result_line, run, stamp_line, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    work: PathBuf,
    results: Option<PathBuf>,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut work = PathBuf::from(".bench_build/perfbench-work");
    let mut results = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds takes an integer")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--work" => work = PathBuf::from(value),
            "--results" => results = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (expected one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        work,
        results,
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = args
        .work
        .join(format!("{}-{}", args.workload, std::process::id()));
    let outcome = run(&args.workload, args.seed, args.seconds, args.trace, &work);
    let _ = std::fs::remove_dir_all(&work);
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let fixed = [
        (
            "commit",
            json_str(&std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".into())),
        ),
        ("nproc", nproc.to_string()),
        ("workload", json_str(&args.workload)),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
    ];
    for note in &outcome.notes {
        println!("{note}");
    }
    for (name, value, unit) in &outcome.metrics {
        println!("{name} = {value} {unit}");
    }
    let stamp = stamp_line(&fixed, &outcome);
    if let Some(dir) = &args.results {
        let file = dir.join(format!(
            "{}-seed{}-trace{}.json",
            args.workload,
            args.seed,
            u8::from(args.trace)
        ));
        let written = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&file, &stamp));
        if let Err(e) = written {
            eprintln!("perfbench: writing {}: {e}", file.display());
        }
    }
    println!("{stamp}");
    println!("{}", result_line(&outcome));
    ExitCode::SUCCESS
}
