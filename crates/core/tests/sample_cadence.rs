//! `sample_interval: Some(0)` means "final sample only" on every run
//! path: the `Simulator` façade, a multi-slot scheduled run, and a
//! crawl resumed from the tick-0 snapshot of such an engine.

use langcrawl_core::classifier::OracleClassifier;
use langcrawl_core::engine::{CrawlEngine, EngineConfig, EngineScratch};
use langcrawl_core::event::MetricsSampler;
use langcrawl_core::sched::SchedConfig;
use langcrawl_core::sim::{SimConfig, Simulator};
use langcrawl_core::strategy::SimpleStrategy;
use langcrawl_webgraph::{GeneratorConfig, WebSpace};

fn space() -> WebSpace {
    GeneratorConfig::thai_like().scaled(4_000).build(9)
}

#[test]
fn simulator_keeps_only_the_final_sample() {
    let ws = space();
    let mut sim = Simulator::new(
        &ws,
        SimConfig {
            sample_interval: Some(0),
            ..SimConfig::default().with_max_pages(300)
        },
    );
    let r = sim.run(
        &mut SimpleStrategy::soft(),
        &OracleClassifier::target(ws.target_language()),
    );
    assert_eq!(r.crawled, 300);
    assert_eq!(r.samples.len(), 1);
    assert_eq!(r.samples[0].crawled, 300);
}

#[test]
fn scheduled_run_and_tick_zero_resume_keep_only_the_final_sample() {
    let ws = space();
    let engine = CrawlEngine::new(
        &ws,
        EngineConfig {
            sample_interval: Some(0),
            ..EngineConfig::default()
        },
    );
    let oracle = OracleClassifier::target(ws.target_language());
    let sched = SchedConfig::with_slots(2);
    let mut metrics = MetricsSampler::new();
    let (outcome, _) = engine.run_scheduled_full(
        &sched,
        &mut SimpleStrategy::soft(),
        &oracle,
        &mut [&mut metrics],
        &mut EngineScratch::new(),
    );
    let samples = metrics.into_samples();
    assert_eq!(samples.len(), 1);
    assert_eq!(samples[0].crawled, outcome.crawled);

    let snap = engine.snapshot(&sched, &SimpleStrategy::soft());
    let mut resumed_metrics = MetricsSampler::new();
    let (resumed, _) = engine
        .resume(
            &snap,
            &mut SimpleStrategy::soft(),
            &oracle,
            &mut [&mut resumed_metrics],
        )
        .expect("a tick-0 snapshot resumes");
    assert_eq!(resumed, outcome);
    assert_eq!(resumed_metrics.into_samples(), samples);
}
