//! # langcrawl-core — the Web Crawling Simulator
//!
//! The primary contribution of *"Simulation Study of Language Specific
//! Web Crawling"* (Somboonviwat, Tamura, Kitsuregawa; DEWS/ICDE 2005):
//! a trace-driven simulator for evaluating language-specific crawl
//! strategies, together with the strategies themselves.
//!
//! The architecture mirrors the paper's Fig. 2, decomposed into layers:
//!
//! ```text
//!            next URL ┌─────────┐ new URLs
//!        ┌───────────►│ Visitor │────────────┐
//!        │            └────┬────┘            │
//!   ┌────┴────┐ visited    │ URL        ┌────▼─────┐
//!   │ Engine  │◄───────────┤            │ Frontier │
//!   └────┬────┘            ▼            └──────────┘
//!        │            ┌──────────┐ relevance ┌──────────┐
//!        └───────────►│Classifier│──────────►│ Observer │
//!                     └────┬─────┘  score    └──────────┘
//!                          │ events
//!                     ┌────▼─────┐
//!                     │EventSinks│  metrics · visits · timings
//!                     └──────────┘
//!            crawl logs + LinkDB  =  langcrawl_webgraph::WebSpace
//! ```
//!
//! * [`engine::CrawlEngine`] — the crawl loop itself: pop, "download",
//!   classify, admit. Every policy is injected; the loop owns only the
//!   order of operations. The **visitor** is the fetch-and-extract step
//!   inside it, one seam with two implementations: metadata mode asks
//!   the virtual web space for a page's charset and outlinks; content
//!   mode ([`content::ContentSimulator`]) renders the page and learns
//!   both from its bytes.
//! * [`frontier`] — *what to crawl next*: the [`frontier::Frontier`]
//!   trait with two implementations — [`queue::UrlQueue`] (FIFO rings
//!   bucketed by priority level, the paper's discipline, with the
//!   distinct-pending counter that Fig. 5/6(a)/7(a) plot) and
//!   [`frontier::BestFirstFrontier`] (a binary-heap frontier ordering by
//!   the full admission key).
//! * [`shard`] / [`sched`] — the scaling seam made concrete: a
//!   host-sharded frontier ([`shard::ShardedFrontier`]) and a
//!   deterministic virtual-time scheduler ([`sched::SchedConfig`]: `K`
//!   fetch slots, per-host politeness gaps, per-host concurrency 1)
//!   that is bit-identical to the legacy loop at `K = 1`.
//! * [`event`] — *who watches*: the engine narrates the crawl as typed
//!   [`event::CrawlEvent`]s to any number of composable
//!   [`event::EventSink`]s — metrics sampling, visit recording,
//!   per-phase timing.
//! * [`sim::Simulator`] — the paper-shaped façade: default frontier +
//!   default sinks, returning a [`metrics::CrawlReport`].
//! * [`classifier`] — relevance judgment (§3.2): by META charset label
//!   ([`classifier::MetaClassifier`], what the paper used for Thai), by
//!   running the byte-distribution detector over synthesized page bytes
//!   ([`classifier::DetectorClassifier`], what the paper used for
//!   Japanese), or by ground truth ([`classifier::OracleClassifier`],
//!   for ablations).
//! * [`strategy`] — the observers: breadth-first; the simple strategy in
//!   hard- and soft-focused modes (§3.3.1, Table 2); the limited-distance
//!   strategy in non-prioritized and prioritized modes (§3.3.2); plus the
//!   related-work extensions (HITS distiller, context-graph crawler).
//! * [`metrics`] — harvest rate, coverage (explicit recall), queue-size
//!   series (§3.4).
//! * [`timing`] — the paper's stated future work (§6): an event-driven
//!   model with transfer delays and per-server access intervals.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classifier;
pub mod content;
pub mod engine;
pub mod event;
pub mod frontier;
pub mod linkgraph;
pub mod metrics;
pub mod queue;
pub mod retry;
pub mod sched;
pub mod shard;
pub mod sim;
pub mod snapshot;
pub mod strategy;
pub mod timing;

pub use classifier::{Classifier, DetectorClassifier, MetaClassifier, OracleClassifier};
pub use content::{ContentClassifier, ContentConfig, ContentSimulator};
pub use engine::{CrawlEngine, EngineConfig, EngineOutcome};
pub use event::{
    interest, CrawlEvent, EventSink, MetricsSampler, PhaseTimingSink, SchedStatsSink, VisitRecorder,
};
pub use frontier::{BestFirstFrontier, Frontier};
pub use linkgraph::{LinkGraph, Slot};
pub use metrics::CrawlReport;
pub use retry::RetryPolicy;
pub use sched::SchedConfig;
pub use shard::{ShardStats, ShardedFrontier};
pub use sim::{SimConfig, Simulator};
pub use snapshot::{CrawlSnapshot, DirSink, SnapshotError, SnapshotLog, SnapshotSink};
pub use strategy::{BreadthFirst, LimitedDistanceStrategy, SimpleStrategy, Strategy};
