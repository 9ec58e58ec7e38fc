//! Every call the benchmark makes into langcrawl lives in this file.
//!
//! The workloads drive the program through its public entry points:
//! `GeneratorConfig::build`, `Simulator`/`SimConfig`,
//! `ContentSimulator`, `CrawlEngine::run_with_scratch`,
//! `run_scheduled_full`, `run_scheduled_snapshots` and `resume`. A
//! change to those entry points is a change to this file only.
//!
//! The traced run measures layers from outside. Wrapper types implement
//! the program's seam traits (`Frontier`, `Strategy`, `Classifier`,
//! `EventSink`, `SnapshotSink`) around the real implementations and
//! time each call. Content mode's render → detect → extract → resolve
//! chain and the link-analysis solvers have no seam, so the traced run
//! replays their public functions over the pages the crawl visited, in
//! visit order.

use crate::check::Report;
use crate::trace::{Acc, Trace};
use langcrawl::charset::{detect_with, DetectorConfig};
use langcrawl::core::classifier::{Classifier, MetaClassifier};
use langcrawl::core::content::{ContentClassifier, ContentConfig, ContentSimulator};
use langcrawl::core::engine::{CrawlEngine, EngineConfig, EngineOutcome, EngineScratch};
use langcrawl::core::event::{CrawlEvent, EventSink, MetricsSampler, SchedStatsSink};
use langcrawl::core::frontier::Frontier;
use langcrawl::core::linkgraph::pagerank::RankState;
use langcrawl::core::linkgraph::LinkGraph;
use langcrawl::core::metrics::{CrawlReport, Sample};
use langcrawl::core::queue::{Entry, UrlQueue};
use langcrawl::core::retry::RetryPolicy;
use langcrawl::core::sched::SchedConfig;
use langcrawl::core::shard::ShardStats;
use langcrawl::core::sim::{SimConfig, Simulator};
use langcrawl::core::snapshot::{CrawlSnapshot, SnapshotLog, SnapshotSink};
use langcrawl::core::strategy::{
    BacklinkCount, BreadthFirst, HitsStrategy, LimitedDistanceStrategy, OnlineContextGraphStrategy,
    OnlinePageRank, PageView, SimpleStrategy, Strategy,
};
use langcrawl::html::{extract_meta_charset, extract_raw_refs};
use langcrawl::url::{normalize, resolve, Url};
use langcrawl::webgraph::index::UrlIndex;
use langcrawl::webgraph::{FaultConfig, GeneratorConfig, PageId, WebSpace};
use std::cell::Cell;
use std::collections::HashSet;
use std::time::Instant;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperGrid,
    ContentBytes,
    ShardedPolite,
    LinkOrdered,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperGrid,
        Workload::ContentBytes,
        Workload::ShardedPolite,
        Workload::LinkOrdered,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperGrid => "paper_grid",
            Workload::ContentBytes => "content_bytes",
            Workload::ShardedPolite => "sharded_polite",
            Workload::LinkOrdered => "link_ordered",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Space sizes: the measured size, or a tiny one for the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

impl Scale {
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Tiny => "tiny",
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Preset {
    Thai,
    Japanese,
}

/// The spaces a workload crawls, as `(preset, pages)`.
fn plan(w: Workload, scale: Scale) -> Vec<(Preset, u32)> {
    let full = scale == Scale::Full;
    let n = |full_n: u32, tiny_n: u32| if full { full_n } else { tiny_n };
    match w {
        // Working set far beyond the L2: the frontier, meta table and
        // CSR of a 1M-page space miss cache on every fetch.
        Workload::PaperGrid => vec![
            (Preset::Thai, n(1_000_000, 4_000)),
            (Preset::Japanese, n(1_000_000, 4_000)),
        ],
        Workload::ContentBytes => vec![
            (Preset::Thai, n(12_000, 1_500)),
            (Preset::Japanese, n(12_000, 1_500)),
        ],
        Workload::ShardedPolite => vec![(Preset::Thai, n(200_000, 6_000))],
        Workload::LinkOrdered => vec![(Preset::Thai, n(100_000, 5_000))],
    }
}

/// Worker threads web-space generation uses (`LANGCRAWL_THREADS`, else
/// the available parallelism).
pub fn generation_threads() -> usize {
    langcrawl::webgraph::parallel::effective_threads()
}

/// The generated web spaces of one workload.
#[derive(Debug)]
pub struct Spaces {
    list: Vec<(&'static str, WebSpace)>,
}

/// Size of one generated space, for the run record.
#[derive(Debug)]
pub struct SpaceInfo {
    pub label: &'static str,
    pub pages: usize,
    pub hosts: usize,
    pub edges: usize,
}

impl Spaces {
    pub fn info(&self) -> Vec<SpaceInfo> {
        self.list
            .iter()
            .map(|(label, ws)| SpaceInfo {
                label,
                pages: ws.num_pages(),
                hosts: ws.num_hosts(),
                edges: ws.num_edges(),
            })
            .collect()
    }

    pub fn total_pages(&self) -> u64 {
        self.list.iter().map(|(_, ws)| ws.num_pages() as u64).sum()
    }
}

/// Generate the workload's web spaces from `seed`.
pub fn generate(w: Workload, scale: Scale, seed: u64, mut trace: Option<&mut Trace>) -> Spaces {
    let mut list = Vec::new();
    for (preset, pages) in plan(w, scale) {
        let (label, config) = match preset {
            Preset::Thai => ("thai", GeneratorConfig::thai_like()),
            Preset::Japanese => ("japanese", GeneratorConfig::japanese_like()),
        };
        let config = config.scaled(pages);
        let ws = match trace.as_deref_mut() {
            Some(t) => t.span(format!("webgraph.generate {label}"), |_| config.build(seed)),
            None => config.build(seed),
        };
        list.push((label, ws));
    }
    Spaces { list }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Strat {
    Bf,
    Hard,
    Soft,
    LimitedNp(u8),
    LimitedP(u8),
    PageRank,
    Hits,
    ContextGraph(u8),
    Backlink,
}

impl Strat {
    fn make(self) -> Box<dyn Strategy> {
        match self {
            Strat::Bf => Box::new(BreadthFirst::new()),
            Strat::Hard => Box::new(SimpleStrategy::hard()),
            Strat::Soft => Box::new(SimpleStrategy::soft()),
            Strat::LimitedNp(n) => Box::new(LimitedDistanceStrategy::non_prioritized(n)),
            Strat::LimitedP(n) => Box::new(LimitedDistanceStrategy::prioritized(n)),
            Strat::PageRank => Box::new(OnlinePageRank::new()),
            Strat::Hits => Box::new(HitsStrategy::new()),
            Strat::ContextGraph(l) => Box::new(OnlineContextGraphStrategy::new(l)),
            Strat::Backlink => Box::new(BacklinkCount::new()),
        }
    }

    fn label(self) -> String {
        match self {
            Strat::Bf => "bf".into(),
            Strat::Hard => "hard".into(),
            Strat::Soft => "soft".into(),
            Strat::LimitedNp(n) => format!("limited-np{n}"),
            Strat::LimitedP(n) => format!("limited-p{n}"),
            Strat::PageRank => "pagerank".into(),
            Strat::Hits => "hits".into(),
            Strat::ContextGraph(l) => format!("context-graph{l}"),
            Strat::Backlink => "backlink".into(),
        }
    }
}

/// The crawl loop a cell runs, and so the layer its time belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellKind {
    /// `Simulator::run` with a paper strategy; traced through
    /// `CrawlEngine::run_with_scratch`.
    Engine,
    /// The same with a link-analysis strategy.
    Link,
    /// `ContentSimulator::run`, composite META → detector classifier.
    Content,
    /// `run_scheduled_full` over the sharded frontier.
    Sched,
    /// The reference scheduled cell again, capturing snapshots.
    Capture,
    /// `resume` from the capture's middle snapshot.
    Resume,
}

/// A cell as the caller sees it.
#[derive(Debug, Clone)]
pub struct CellInfo {
    pub label: String,
    pub kind: CellKind,
    /// Zero-fault breadth-first or soft-focused: coverage must be 1.
    pub full_coverage: bool,
}

#[derive(Debug)]
struct Spec {
    info: CellInfo,
    space: usize,
    strat: Strat,
    /// Scheduler settings of `Sched` cells.
    sched: SchedConfig,
    /// A `Sched` cell on the engine with faults and retries.
    faulted: bool,
}

/// Capture/resume run against this scheduled configuration (cell 0 of
/// `sharded_polite`).
const REF_SCHED: SchedConfig = SchedConfig {
    slots: 4,
    shards: 0,
    politeness_gap: 2,
    politeness_spread: 1,
};

/// Snapshots per capturing run.
const CAPTURES: u64 = 8;

/// Refresh interval and solver parameters of `OnlinePageRank::new()`,
/// mirrored by the PageRank replay.
const PAGERANK_INTERVAL: usize = 2_000;

fn pagerank_solver() -> RankState {
    RankState::with_params(0.85, 1e-2, 10, 16, false)
}

fn specs(w: Workload) -> Vec<Spec> {
    let cell = |space: usize, strat: Strat, kind: CellKind, label: String| Spec {
        info: CellInfo {
            label,
            kind,
            full_coverage: matches!(strat, Strat::Bf | Strat::Soft),
        },
        space,
        strat,
        sched: REF_SCHED,
        faulted: false,
    };
    let grid = |strats: &[Strat], kind: CellKind| -> Vec<Spec> {
        (0..2)
            .flat_map(|space| {
                let name = ["thai", "japanese"][space];
                strats
                    .iter()
                    .map(move |&s| cell(space, s, kind, format!("{name}/{}", s.label())))
            })
            .collect()
    };
    let sched = |strat: Strat, c: SchedConfig, faulted: bool| {
        let fault = if faulted { " fault0.1" } else { "" };
        let label = format!(
            "thai/{} k{} gap{}+{}{fault}",
            strat.label(),
            c.slots,
            c.politeness_gap,
            c.politeness_spread
        );
        let mut spec = cell(0, strat, CellKind::Sched, label);
        spec.sched = c;
        spec.faulted = faulted;
        spec.info.full_coverage &= !faulted;
        spec
    };
    let polite = |slots, politeness_gap, politeness_spread| SchedConfig {
        slots,
        shards: 0,
        politeness_gap,
        politeness_spread,
    };
    match w {
        Workload::PaperGrid => grid(
            &[
                Strat::Bf,
                Strat::Hard,
                Strat::Soft,
                Strat::LimitedNp(3),
                Strat::LimitedP(3),
            ],
            CellKind::Engine,
        ),
        Workload::ContentBytes => grid(&[Strat::Soft, Strat::Hard], CellKind::Content),
        Workload::ShardedPolite => {
            let reference = sched(Strat::Soft, REF_SCHED, false);
            let capture = format!("{} capture", reference.info.label);
            let resume = format!("{} resume", reference.info.label);
            vec![
                reference,
                sched(Strat::Bf, polite(16, 6, 2), false),
                sched(Strat::Soft, polite(8, 2, 1), true),
                cell(0, Strat::Soft, CellKind::Capture, capture),
                cell(0, Strat::Soft, CellKind::Resume, resume),
            ]
        }
        Workload::LinkOrdered => [
            Strat::PageRank,
            Strat::Hits,
            Strat::ContextGraph(3),
            Strat::Backlink,
        ]
        .into_iter()
        .map(|s| cell(0, s, CellKind::Link, format!("thai/{}", s.label())))
        .collect(),
    }
}

/// The cells of workload `w`, in run order.
pub fn cells(w: Workload) -> Vec<CellInfo> {
    specs(w).into_iter().map(|s| s.info).collect()
}

/// Everything one cell run produced.
#[derive(Debug, Clone, Default)]
pub struct CellOut {
    /// Wall time of the program call, in nanoseconds.
    pub ns: u64,
    /// Pages this call fetched (a resume fetches only the remainder).
    pub fetched: u64,
    pub report: Report,
    /// Per-shard `[pushes, pops, handoffs_in]` of a scheduled run.
    pub shards: Vec<[u64; 3]>,
    /// `SchedStatsSink` counts `[idle slot ticks, politeness waits]`;
    /// traced scheduled runs only.
    pub sched: Option<[u64; 2]>,
    /// Comparisons made here: capture leaves the crawl unchanged,
    /// resume continues the uninterrupted run, the replay saw the
    /// links the crawl saw.
    pub checks: Vec<(&'static str, bool)>,
}

/// A prepared workload: spaces, simulators and engines, ready to run
/// cells repeatedly.
#[derive(Debug)]
pub struct Rig<'a> {
    spaces: &'a Spaces,
    specs: Vec<Spec>,
    sims: Vec<Simulator<'a>>,
    engines: Vec<CrawlEngine<'a>>,
    faulted: Option<CrawlEngine<'a>>,
    contents: Vec<ContentSimulator<'a>>,
    /// The replay's own URL index per space (the simulator's is
    /// private); built in traced runs only.
    indexes: Vec<UrlIndex>,
    scratch: EngineScratch,
    /// Outcome and samples of the last reference scheduled run.
    reference: Option<(EngineOutcome, Vec<Sample>)>,
    log: SnapshotLog,
}

fn zero_fault(ws: &WebSpace) -> EngineConfig {
    EngineConfig {
        fault: ws.fault().clone(),
        ..EngineConfig::default()
    }
}

/// Build the simulators and engines of workload `w` over `spaces`. For
/// `content_bytes` this builds each space's URL index.
pub fn prepare<'a>(w: Workload, spaces: &'a Spaces, mut trace: Option<&mut Trace>) -> Rig<'a> {
    let mut rig = Rig {
        spaces,
        specs: specs(w),
        sims: Vec::new(),
        engines: Vec::new(),
        faulted: None,
        contents: Vec::new(),
        indexes: Vec::new(),
        scratch: EngineScratch::new(),
        reference: None,
        log: SnapshotLog::new(),
    };
    for (label, ws) in &spaces.list {
        rig.engines.push(CrawlEngine::new(ws, zero_fault(ws)));
        match w {
            Workload::PaperGrid | Workload::LinkOrdered => {
                rig.sims.push(Simulator::new(ws, SimConfig::default()));
            }
            Workload::ContentBytes => {
                let build = || {
                    ContentSimulator::new(
                        ws,
                        ContentConfig {
                            classifier: ContentClassifier::MetaThenDetector,
                            ..ContentConfig::default()
                        },
                    )
                };
                match trace.as_deref_mut() {
                    Some(t) => {
                        let sim = t.span(format!("webgraph.index_build {label}"), |_| build());
                        rig.contents.push(sim);
                        let index =
                            t.span(format!("replay.index {label}"), |_| UrlIndex::build(ws));
                        rig.indexes.push(index);
                    }
                    None => rig.contents.push(build()),
                }
            }
            Workload::ShardedPolite => {
                rig.faulted = Some(CrawlEngine::new(
                    ws,
                    EngineConfig {
                        fault: FaultConfig::with_rate(0.1),
                        retry: RetryPolicy::default(),
                        ..EngineConfig::default()
                    },
                ));
            }
        }
    }
    rig
}

fn report_of(r: &CrawlReport) -> Report {
    Report {
        samples: samples_of(&r.samples),
        crawled: r.crawled,
        relevant: r.relevant_crawled,
        total_relevant: r.total_relevant,
        max_queue: r.max_queue as u64,
        total_pushes: r.total_pushes,
        attempts: r.attempts,
        retries: r.retries,
        gave_up: r.gave_up,
        ticks: r.ticks,
    }
}

fn samples_of(s: &[Sample]) -> Vec<[u64; 3]> {
    s.iter()
        .map(|s| [s.crawled, s.relevant, s.queue_size as u64])
        .collect()
}

fn outcome_report(ws: &WebSpace, o: &EngineOutcome, samples: &[Sample]) -> Report {
    Report {
        samples: samples_of(samples),
        crawled: o.crawled,
        relevant: o.relevant_crawled,
        total_relevant: ws.total_relevant() as u64,
        max_queue: o.max_pending as u64,
        total_pushes: o.total_pushes,
        attempts: o.attempts,
        retries: o.retries,
        gave_up: o.gave_up,
        ticks: o.ticks,
    }
}

fn shard_counts(stats: &[ShardStats]) -> Vec<[u64; 3]> {
    stats
        .iter()
        .map(|s| [s.pushes, s.pops, s.handoffs_in])
        .collect()
}

fn elapsed_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// What `Simulator::run` or the engine returned for a metadata cell.
enum Ran {
    Sim(CrawlReport),
    Engine(EngineOutcome),
}

/// One program call and its wall time; traced, also the span its
/// per-call totals were rolled up onto and the recorded visits.
struct Call<R> {
    out: R,
    ns: u64,
    span: Option<usize>,
    visits: Visits,
}

/// Make the program call `f` for cell `spec`. Untraced, `f` gets the
/// bare strategy, classifier and sinks. Traced, it gets timing wrappers
/// around them, inside a span named after the cell, and the wrappers'
/// totals become that span's rollups.
fn call<R>(
    trace: Option<&mut Trace>,
    spec: &Spec,
    strategy: &mut dyn Strategy,
    classifier: &dyn Classifier,
    sinks: &mut [&mut dyn EventSink],
    f: impl FnOnce(&mut dyn Strategy, &dyn Classifier, &mut [&mut dyn EventSink]) -> R,
) -> Call<R> {
    let Some(tr) = trace else {
        let t = Instant::now();
        let out = f(strategy, classifier, sinks);
        return Call {
            out,
            ns: elapsed_ns(t),
            span: None,
            visits: Visits::default(),
        };
    };
    let (span, admit) = match spec.info.kind {
        CellKind::Engine => ("engine", "strategy.admit"),
        CellKind::Link => ("link", "linkgraph.admit"),
        CellKind::Content => ("content", "strategy.admit"),
        CellKind::Sched => ("sched", "strategy.admit"),
        CellKind::Capture => ("capture", "strategy.admit"),
        CellKind::Resume => ("snapshot.resume", "strategy.admit"),
    };
    let record = spec.strat == Strat::PageRank || spec.info.kind == CellKind::Content;
    let mut ts = TStrategy::new(strategy, record);
    let tc = TClassifier::new(classifier);
    let mut wrapped: Vec<TSink<'_>> = sinks.iter_mut().map(|s| TSink::new(&mut **s)).collect();
    let mut timed: Vec<&mut dyn EventSink> = wrapped
        .iter_mut()
        .map(|w| w as &mut dyn EventSink)
        .collect();
    let id = tr.open(format!("{span} {}", spec.info.label));
    let t = Instant::now();
    let out = f(&mut ts, &tc, &mut timed);
    let ns = elapsed_ns(t);
    tr.close(id);
    drop(timed);
    let mut sink = Acc::default();
    wrapped.iter().for_each(|w| sink.add(w.acc));
    tr.rollup(id, admit, ts.admit);
    tr.rollup(id, "classifier.relevance", tc.acc.get());
    tr.rollup(id, "event.sink", sink);
    Call {
        out,
        ns,
        span: Some(id),
        visits: ts.visits,
    }
}

impl<'a> Rig<'a> {
    /// Run cell `i`, untraced (`trace` = `None`) or through the timing
    /// wrappers.
    pub fn run(&mut self, i: usize, mut trace: Option<&mut Trace>) -> CellOut {
        let spec = &self.specs[i];
        let spaces: &'a Spaces = self.spaces;
        let ws = &spaces.list[spec.space].1;
        let classifier = MetaClassifier::target(ws.target_language());
        let mut strategy = spec.strat.make();
        let traced = trace.is_some();
        let mut metrics = MetricsSampler::new();
        let scratch = &mut self.scratch;
        match spec.info.kind {
            CellKind::Engine | CellKind::Link => {
                let sim = &mut self.sims[spec.space];
                let engine = &self.engines[spec.space];
                let mut qs = QueueStats::default();
                let st = &mut qs;
                let mut sinks: [&mut dyn EventSink; 1] = [&mut metrics];
                let c = call(
                    trace.as_deref_mut(),
                    spec,
                    strategy.as_mut(),
                    &classifier,
                    &mut sinks,
                    |s, cl, k| {
                        if traced {
                            let inner = UrlQueue::new(ws.num_pages(), s.levels());
                            let frontier = TFrontier { inner, st };
                            Ran::Engine(engine.run_with_scratch(frontier, s, cl, k, scratch))
                        } else {
                            Ran::Sim(sim.run(s, cl))
                        }
                    },
                );
                if let (Some(tr), Some(id)) = (trace, c.span) {
                    tr.rollup(id, "queue.push", qs.push);
                    tr.rollup(id, "queue.pop", qs.pop);
                    let accepted = Acc {
                        units: qs.accepted,
                        ..Acc::default()
                    };
                    tr.rollup(id, "queue.accepted", accepted);
                    if !c.visits.pages.is_empty() {
                        let rid = tr.open(format!("replay.pagerank {}", spec.info.label));
                        let (record, update) = replay_pagerank(&c.visits);
                        tr.close(rid);
                        tr.rollup(rid, "linkgraph.record", record);
                        tr.rollup(rid, "linkgraph.pagerank_update", update);
                    }
                }
                let report = match c.out {
                    Ran::Sim(r) => report_of(&r),
                    Ran::Engine(o) => outcome_report(ws, &o, metrics.samples()),
                };
                CellOut {
                    ns: c.ns,
                    fetched: report.crawled,
                    report,
                    ..CellOut::default()
                }
            }
            CellKind::Content => {
                let sim = &mut self.contents[spec.space];
                let c = call(
                    trace.as_deref_mut(),
                    spec,
                    strategy.as_mut(),
                    &classifier,
                    &mut [],
                    |s, _, _| sim.run(s),
                );
                let mut checks = Vec::new();
                if let Some(tr) = trace {
                    let rid = tr.open(format!("replay.content {}", spec.info.label));
                    let chain = replay_content(ws, &self.indexes[spec.space], &c.visits);
                    tr.close(rid);
                    for (name, acc) in chain.accs() {
                        tr.rollup(rid, name, acc);
                    }
                    checks.push(("replay_faithful", chain.faithful));
                }
                CellOut {
                    ns: c.ns,
                    fetched: c.out.crawled,
                    report: report_of(&c.out),
                    checks,
                    ..CellOut::default()
                }
            }
            CellKind::Sched => {
                let (sched, faulted) = (spec.sched, spec.faulted);
                let engine = if faulted {
                    self.faulted
                        .as_ref()
                        .expect("sharded_polite builds the faulted engine")
                } else {
                    &self.engines[spec.space]
                };
                let mut stats = SchedStatsSink::new();
                let mut sinks: Vec<&mut dyn EventSink> = vec![&mut metrics];
                if traced {
                    sinks.push(&mut stats);
                }
                let c = call(
                    trace,
                    spec,
                    strategy.as_mut(),
                    &classifier,
                    &mut sinks,
                    |s, cl, k| engine.run_scheduled_full(&sched, s, cl, k, scratch),
                );
                drop(sinks);
                let (o, shards) = c.out;
                if sched == REF_SCHED && !faulted {
                    self.reference = Some((o, metrics.samples().to_vec()));
                }
                CellOut {
                    ns: c.ns,
                    fetched: o.crawled,
                    report: outcome_report(ws, &o, metrics.samples()),
                    shards: shard_counts(&shards),
                    sched: traced.then_some([stats.idle_slot_ticks, stats.politeness_waits]),
                    ..CellOut::default()
                }
            }
            CellKind::Capture => {
                let engine = &self.engines[spec.space];
                let (ref_o, ref_samples) = self
                    .reference
                    .clone()
                    .expect("the reference scheduled cell runs before the capture");
                let every = (ref_o.ticks / CAPTURES).max(1);
                self.log = SnapshotLog::new();
                let log = &mut self.log;
                let mut snaps = Acc::default();
                let mut sinks: [&mut dyn EventSink; 1] = [&mut metrics];
                let c = call(
                    trace.as_deref_mut(),
                    spec,
                    strategy.as_mut(),
                    &classifier,
                    &mut sinks,
                    |s, cl, k| {
                        if traced {
                            let mut w = TSnapSink {
                                inner: log,
                                acc: Acc::default(),
                            };
                            let r =
                                engine.run_scheduled_snapshots(&REF_SCHED, s, cl, k, every, &mut w);
                            snaps = w.acc;
                            r
                        } else {
                            engine.run_scheduled_snapshots(&REF_SCHED, s, cl, k, every, log)
                        }
                    },
                );
                if let (Some(tr), Some(id)) = (trace, c.span) {
                    tr.rollup(id, "snapshot.sink", snaps);
                }
                let o = c.out.0;
                let same = o == ref_o && metrics.samples() == ref_samples.as_slice();
                CellOut {
                    ns: c.ns,
                    fetched: o.crawled,
                    report: outcome_report(ws, &o, metrics.samples()),
                    checks: vec![
                        ("capture_unperturbed", same),
                        ("capture_produced_snapshots", self.log.len() >= 2),
                    ],
                    ..CellOut::default()
                }
            }
            CellKind::Resume => {
                let engine = &self.engines[spec.space];
                let (ref_o, ref_samples) = self
                    .reference
                    .clone()
                    .expect("the reference scheduled cell runs before the resume");
                let snaps = self.log.snapshots();
                let bytes = &snaps[snaps.len() / 2].1;
                let outer = trace
                    .as_deref_mut()
                    .map(|tr| tr.open(format!("resume {}", spec.info.label)));
                let t = Instant::now();
                let mut decode = Acc::default();
                let snap = decode
                    .time(|| CrawlSnapshot::from_bytes(bytes))
                    .expect("captured snapshot decodes");
                let mut sinks: [&mut dyn EventSink; 1] = [&mut metrics];
                let c = call(
                    trace.as_deref_mut(),
                    spec,
                    strategy.as_mut(),
                    &classifier,
                    &mut sinks,
                    |s, cl, k| engine.resume(&snap, s, cl, k),
                );
                let ns = elapsed_ns(t);
                if let (Some(tr), Some(id)) = (trace, outer) {
                    tr.close(id);
                    tr.rollup(id, "snapshot.decode", decode);
                }
                let (o, _) = c.out.expect("snapshot resumes on its own space");
                let suffix: Vec<Sample> = ref_samples
                    .iter()
                    .filter(|s| s.crawled > snap.crawled())
                    .copied()
                    .collect();
                let continues = o == ref_o && metrics.samples() == suffix.as_slice();
                CellOut {
                    ns,
                    fetched: o.crawled.saturating_sub(snap.crawled()),
                    report: outcome_report(ws, &o, metrics.samples()),
                    checks: vec![("resume_continues", continues)],
                    ..CellOut::default()
                }
            }
        }
    }
}

/// Pages a strategy saw, in visit order, with the outlinks it was
/// handed.
#[derive(Debug, Default)]
struct Visits {
    pages: Vec<PageId>,
    ends: Vec<usize>,
    links: Vec<PageId>,
}

impl Visits {
    fn iter(&self) -> impl Iterator<Item = (PageId, &[PageId])> + '_ {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        self.pages
            .iter()
            .zip(starts.zip(self.ends.iter().copied()))
            .map(|(&p, (a, b))| (p, &self.links[a..b]))
    }
}

/// Frontier call timings.
#[derive(Debug, Default)]
struct QueueStats {
    /// `push`/`push_all`/`requeue` calls; units = entries offered.
    push: Acc,
    pop: Acc,
    accepted: u64,
}

/// Times every frontier call.
#[derive(Debug)]
struct TFrontier<'s, F> {
    inner: F,
    st: &'s mut QueueStats,
}

impl<F: Frontier> Frontier for TFrontier<'_, F> {
    fn push(&mut self, e: Entry) -> bool {
        let inner = &mut self.inner;
        let ok = self.st.push.time(|| inner.push(e));
        self.st.push.units += 1;
        self.st.accepted += u64::from(ok);
        ok
    }

    fn push_all(&mut self, entries: &[Entry]) -> u32 {
        let inner = &mut self.inner;
        let n = self.st.push.time(|| inner.push_all(entries));
        self.st.push.units += entries.len() as u64;
        self.st.accepted += u64::from(n);
        n
    }

    fn pop(&mut self) -> Option<Entry> {
        let inner = &mut self.inner;
        self.st.pop.time(|| inner.pop())
    }

    fn requeue(&mut self, e: Entry) -> bool {
        let inner = &mut self.inner;
        let ok = self.st.push.time(|| inner.requeue(e));
        self.st.push.units += 1;
        self.st.accepted += u64::from(ok);
        ok
    }

    fn pending(&self) -> usize {
        self.inner.pending()
    }

    fn max_pending(&self) -> usize {
        self.inner.max_pending()
    }

    fn total_pushes(&self) -> u64 {
        self.inner.total_pushes()
    }

    fn is_done(&self, p: PageId) -> bool {
        self.inner.is_done(p)
    }

    fn was_admitted(&self, p: PageId) -> bool {
        self.inner.was_admitted(p)
    }
}

/// Times `admit` (units = entries emitted) and, when asked, records
/// the visit order for a replay.
struct TStrategy<'s> {
    inner: &'s mut dyn Strategy,
    admit: Acc,
    visits: Visits,
    record: bool,
}

impl<'s> TStrategy<'s> {
    fn new(inner: &'s mut dyn Strategy, record: bool) -> Self {
        TStrategy {
            inner,
            admit: Acc::default(),
            visits: Visits::default(),
            record,
        }
    }
}

impl Strategy for TStrategy<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn levels(&self) -> usize {
        self.inner.levels()
    }

    fn admit(&mut self, view: &PageView<'_>, out: &mut Vec<Entry>) {
        let before = out.len();
        let inner = &mut *self.inner;
        self.admit.time(|| inner.admit(view, out));
        self.admit.units += (out.len() - before) as u64;
        if self.record {
            self.visits.pages.push(view.page);
            self.visits.links.extend_from_slice(view.outlinks);
            self.visits.ends.push(self.visits.links.len());
        }
    }
}

/// Times `relevance` (units = pages judged relevant).
struct TClassifier<'c> {
    inner: &'c dyn Classifier,
    acc: Cell<Acc>,
}

impl<'c> TClassifier<'c> {
    fn new(inner: &'c dyn Classifier) -> Self {
        TClassifier {
            inner,
            acc: Cell::new(Acc::default()),
        }
    }
}

impl Classifier for TClassifier<'_> {
    fn relevance(&self, ws: &WebSpace, page: PageId) -> f64 {
        let mut acc = self.acc.get();
        let r = acc.time(|| self.inner.relevance(ws, page));
        acc.units += u64::from(r > 0.5);
        self.acc.set(acc);
        r
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Times every event delivered to the wrapped sink.
struct TSink<'k> {
    inner: &'k mut dyn EventSink,
    acc: Acc,
}

impl<'k> TSink<'k> {
    fn new(inner: &'k mut dyn EventSink) -> Self {
        TSink {
            inner,
            acc: Acc::default(),
        }
    }
}

impl EventSink for TSink<'_> {
    fn on_event(&mut self, event: &CrawlEvent) {
        let inner = &mut *self.inner;
        self.acc.time(|| inner.on_event(event));
    }

    fn interests(&self) -> u16 {
        self.inner.interests()
    }
}

/// Times every snapshot handed to the wrapped sink (units = bytes).
struct TSnapSink<'k> {
    inner: &'k mut dyn SnapshotSink,
    acc: Acc,
}

impl SnapshotSink for TSnapSink<'_> {
    fn on_snapshot(&mut self, tick: u64, bytes: &[u8]) {
        let inner = &mut *self.inner;
        self.acc.time(|| inner.on_snapshot(tick, bytes));
        self.acc.units += bytes.len() as u64;
    }
}

/// Replay `OnlinePageRank`'s link analysis over a crawl's visits:
/// `LinkGraph::record_page` per page (units = edges recorded) and a
/// `RankState::update` every refresh interval (units = relaxations).
fn replay_pagerank(visits: &Visits) -> (Acc, Acc) {
    let mut g = LinkGraph::new();
    let mut rank = pagerank_solver();
    let (mut record, mut update) = (Acc::default(), Acc::default());
    for (k, (page, links)) in visits.iter().enumerate() {
        record.time(|| g.record_page(page, links));
        if (k + 1) % PAGERANK_INTERVAL == 0 {
            update.time(|| rank.update(&mut g));
        }
    }
    record.units = g.num_edges() as u64;
    update.units = rank.relaxations();
    (record, update)
}

/// Timings of one content-chain replay.
#[derive(Debug, Default)]
struct Chain {
    /// `synthesize_page`; units = bytes rendered.
    synth: Acc,
    /// Page URL materialization + `Url::parse`.
    parse: Acc,
    /// `extract_meta_charset`.
    meta: Acc,
    /// `detect_with` on pages META left undecided; units = bytes the
    /// detector examined.
    detect: Acc,
    /// `extract_raw_refs`; units = page bytes scanned.
    links: Acc,
    /// Raw references found.
    links_extracted: u64,
    /// `resolve` + `normalize` per reference.
    resolve: Acc,
    /// `UrlIndex::resolve`; units = misses.
    index: Acc,
    /// The replay resolved exactly the outlinks the crawl handed its
    /// strategy, page by page.
    faithful: bool,
}

impl Chain {
    fn accs(&self) -> [(&'static str, Acc); 8] {
        [
            ("webgraph.synth", self.synth),
            ("url.parse", self.parse),
            ("html.meta", self.meta),
            ("charset.detect", self.detect),
            ("html.links", self.links),
            (
                "html.links_extracted",
                Acc {
                    units: self.links_extracted,
                    ..Acc::default()
                },
            ),
            ("url.resolve", self.resolve),
            ("webgraph.index_resolve", self.index),
        ]
    }
}

/// Replay `ContentSimulator::run`'s per-page chain over a crawl's
/// visits, timing each public function it calls.
fn replay_content(ws: &WebSpace, index: &UrlIndex, visits: &Visits) -> Chain {
    let detector = DetectorConfig::default();
    let target = ws.target_language();
    let mut c = Chain {
        faithful: true,
        ..Chain::default()
    };
    let mut resolved: Vec<PageId> = Vec::new();
    let mut seen: HashSet<String> = HashSet::new();
    for (page, crawled_links) in visits.iter() {
        let bytes = c.synth.time(|| ws.synthesize_page(page));
        c.synth.units += bytes.len() as u64;
        let is_html = ws.meta(page).is_ok_html();
        if is_html && !bytes.is_empty() {
            let lang = c
                .meta
                .time(|| extract_meta_charset(&bytes))
                .and_then(|cs| cs.language());
            if lang.is_none() {
                let d = c.detect.time(|| detect_with(&bytes, &detector));
                c.detect.units += bytes.len().min(detector.max_bytes) as u64;
                std::hint::black_box(d.language() == Some(target));
            }
        }
        resolved.clear();
        if is_html {
            if let Ok(mut base) = c.parse.time(|| Url::parse(&ws.url(page))) {
                let refs = c.links.time(|| extract_raw_refs(&bytes));
                c.links.units += bytes.len() as u64;
                c.links_extracted += refs.len() as u64;
                seen.clear();
                for (tag, raw) in refs {
                    if tag == b"base" {
                        if let Ok(u) = c.resolve.time(|| resolve(&base, &raw)) {
                            base = u;
                        }
                        continue;
                    }
                    let Ok(canon) = c
                        .resolve
                        .time(|| resolve(&base, &raw).map(|u| normalize(&u)))
                    else {
                        continue;
                    };
                    if seen.insert(canon.clone()) {
                        match c.index.time(|| index.resolve(&canon)) {
                            Some(t) => resolved.push(t),
                            None => c.index.units += 1,
                        }
                    }
                }
            }
        }
        if resolved.as_slice() != crawled_links {
            c.faithful = false;
        }
    }
    c
}
