//! The in-process home workload: the five-stage digital-home cascade
//! stepped single-threaded through `EspProcessor::step`.

use std::time::Instant;

use esp_bench::home::home_pipeline;
use esp_bench::util::build_processor;
use esp_core::Pipeline;
use esp_receptors::office::OfficeScenario;
use esp_stream::{ScriptedSource, Source};
use esp_types::{ReceptorId, ReceptorType, Result, Ts};

use crate::gateway_run::{digest, render};
use crate::procfs;
use crate::workload::{home_period, HomeInput};

/// The paper's vote threshold for the person detector (Query 6).
pub const VOTE_THRESHOLD: usize = 2;

/// Everything one round measured.
pub struct HomeRound {
    /// Pipeline and processor build.
    pub setup_s: f64,
    /// Stepping wall time.
    pub wall_s: f64,
    /// On-CPU time of the stepping thread.
    pub cpu_ns: u64,
    /// Wall time of each step.
    pub step_ns: Vec<u64>,
    /// Digest of the output trace.
    pub digest: u64,
    /// Highest RSS seen while stepping above the RSS before set-up, bytes.
    pub rss_growth: u64,
}

/// RSS is sampled once per this many steps.
const RSS_EVERY_STEPS: u64 = 4096;

/// Build a processor over the pre-polled scripts and step it through every
/// epoch. `wrap` decorates the pipeline (stage timing in traced rounds).
pub fn home_round(input: &HomeInput, wrap: &dyn Fn(Pipeline) -> Pipeline) -> Result<HomeRound> {
    let sources: Vec<(ReceptorId, ReceptorType, Box<dyn Source>)> = input
        .scripts
        .iter()
        .map(|(id, rtype, script)| {
            let src = ScriptedSource::new(format!("home#{}", id.0), script.clone());
            (*id, *rtype, Box::new(src) as Box<dyn Source>)
        })
        .collect();
    let rss_base = procfs::status_bytes("VmRSS");
    let t_setup = Instant::now();
    let pipeline = wrap(home_pipeline(VOTE_THRESHOLD));
    let mut processor = build_processor(&input.groups, &pipeline, sources)?;
    let setup_s = t_setup.elapsed().as_secs_f64();

    let period = home_period().as_millis();
    let mut step_ns = Vec::with_capacity(input.n_epochs as usize);
    let mut rss_peak = 0;
    let cpu0 = procfs::thread_cpu_ns();
    let t0 = Instant::now();
    for e in 0..input.n_epochs {
        if e % RSS_EVERY_STEPS == 0 {
            rss_peak = rss_peak.max(procfs::status_bytes("VmRSS"));
        }
        let t = Instant::now();
        processor.step(Ts::from_millis(e * period))?;
        step_ns.push(t.elapsed().as_nanos() as u64);
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_ns = procfs::thread_cpu_ns() - cpu0;
    let out = processor.take_output();
    Ok(HomeRound {
        setup_s,
        wall_s,
        cpu_ns,
        step_ns,
        digest: digest(&render(&out)),
        rss_growth: rss_peak
            .max(procfs::status_bytes("VmRSS"))
            .saturating_sub(rss_base),
    })
}

/// Set-up alone: build the pipeline and the processor, then drop them.
pub fn home_setup_only(input: &HomeInput) -> Result<f64> {
    let sources: Vec<(ReceptorId, ReceptorType, Box<dyn Source>)> = input
        .scripts
        .iter()
        .map(|(id, rtype, _)| {
            let src = ScriptedSource::new(format!("home#{}", id.0), Vec::new());
            (*id, *rtype, Box::new(src) as Box<dyn Source>)
        })
        .collect();
    let t = Instant::now();
    let processor = build_processor(&input.groups, &home_pipeline(VOTE_THRESHOLD), sources)?;
    let setup_s = t.elapsed().as_secs_f64();
    drop(processor);
    Ok(setup_s)
}

/// The reference: the office scenario's own sources driving the same
/// cascade through `EspProcessor::run`, rendered like a round's output.
pub fn home_reference(seed: u64, n_epochs: u64) -> Result<String> {
    let scenario = OfficeScenario::paper(seed);
    let processor = build_processor(
        &scenario.groups(),
        &home_pipeline(VOTE_THRESHOLD),
        scenario.sources(),
    )?;
    let out = processor.run(Ts::ZERO, home_period(), n_epochs)?;
    Ok(render(&out.trace))
}
