//! Content-mode simulation — the byte-level twin of [`crate::sim`].
//!
//! The metadata-mode simulator replays recorded page properties, exactly
//! like the paper's trace-driven system. Content mode goes one layer
//! deeper: **everything the crawler learns, it learns from page bytes.**
//! Each fetch renders the page as HTML in its true charset
//! ([`langcrawl_webgraph::WebSpace::synthesize_page_into`]), the
//! classifier runs the real §3.2 pipeline (META tag, then the
//! byte-distribution detector), links are extracted by the real HTML
//! scanner, resolved against the page URL, and routed through the URL
//! index — the whole crawler stack with no shortcuts.
//!
//! It runs on the engine loop metadata mode runs on (same frontier,
//! faults, retries and events); only the engine's fetch seam differs.
//! That fetch path is allocation-free once warm: every buffer lives in
//! a `ContentFetch` kept on the simulator across fetches and runs.
//!
//! It is orders of magnitude slower per page, so the figure harnesses
//! stay in metadata mode; content mode validates that the two agree
//! (`tests/integration_pipeline.rs`, Ablation B) and powers realistic
//! demos.

use crate::engine::{CrawlEngine, EngineConfig, EngineScratch, Fetch};
use crate::event::MetricsSampler;
use crate::metrics::CrawlReport;
use crate::sched::SchedConfig;
use crate::strategy::Strategy;
use langcrawl_charset::{detect_with, DetectorConfig, Language};
use langcrawl_html::{extract_meta_charset, LinkExtractor};
use langcrawl_webgraph::index::UrlIndex;
use langcrawl_webgraph::{PageId, WebSpace};

/// How the content-mode classifier judges a page's bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ContentClassifier {
    /// META charset label only (the paper's Thai path). Pages without a
    /// recognisable target-language label are irrelevant.
    MetaOnly,
    /// Byte-distribution detector only (the paper's Japanese path).
    DetectorOnly,
    /// META first, detector as fallback when META is absent or names a
    /// language-neutral charset — the composite a production crawler
    /// runs. The default.
    #[default]
    MetaThenDetector,
}

/// Content-mode simulation parameters.
#[derive(Debug, Clone, Default)]
pub struct ContentConfig {
    /// Classification mode.
    pub classifier: ContentClassifier,
    /// Detector tuning (scan cap, confidence floor).
    pub detector: DetectorConfig,
    /// Stop after this many fetches.
    pub max_pages: Option<u64>,
    /// Sample cadence (`None` = ~512 samples, `Some(0)` = final sample
    /// only).
    pub sample_interval: Option<u64>,
}

/// The byte-level simulator.
#[derive(Debug)]
pub struct ContentSimulator<'a> {
    ws: &'a WebSpace,
    fetch: ContentFetch,
    /// Engine scratch, reused across runs like [`crate::sim::Simulator`]'s.
    scratch: EngineScratch,
}

/// The content-mode fetch seam: renders a page, classifies its bytes
/// and resolves its links. Every buffer is reused across fetches and
/// runs.
#[derive(Debug)]
struct ContentFetch {
    index: UrlIndex,
    config: ContentConfig,
    /// The rendered page.
    body: Vec<u8>,
    /// The page's URL, the base its links resolve against.
    url: String,
    links: LinkExtractor,
    /// The page's outlinks, resolved and deduplicated by page id in
    /// first-appearance order. The index maps each page to exactly one
    /// canonical URL, so this is the order and set the canonical strings
    /// themselves would give.
    resolved: Vec<PageId>,
    /// `seen[t] == stamp` marks page `t` as already in `resolved`.
    seen: Vec<u32>,
    stamp: u32,
}

impl Fetch for ContentFetch {
    fn fetch<'s>(&'s mut self, ws: &'s WebSpace, p: PageId) -> (f64, &'s [PageId]) {
        // lint:allow(no-panic-transitive): the byte pipeline is total over generator output; pinned by the synth golden, charset conformance, url reference-equivalence and html scan-equivalence suites
        let relevance = self.read_page(ws, p);
        (relevance, &self.resolved)
    }
}

impl ContentFetch {
    /// Render page `p`, classify its bytes and resolve its links into
    /// `self.resolved`. Returns the relevance verdict.
    // lint:root(alloc-free) — once per fetch; every buffer lives in ContentFetch
    fn read_page(&mut self, ws: &WebSpace, p: PageId) -> f64 {
        ws.synthesize_page_into(p, &mut self.body);
        let relevance = self.classify(ws.target_language());

        // Link extraction + resolution, all at the byte level.
        self.resolved.clear();
        self.url.clear();
        ws.write_url(p, &mut self.url);
        if self.links.set_base(&self.url).is_err() {
            return relevance;
        }
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            // Stamp wrap: forget every mark so none can alias.
            self.seen.fill(0);
            self.stamp = 1;
        }
        let ContentFetch {
            index,
            body,
            links,
            resolved,
            seen,
            stamp,
            ..
        } = self;
        links.for_each_link(body, |url| {
            // Unresolvable links = dangling URLs; a real crawler would
            // fetch-and-404 them. The generator emits none, so nothing is
            // silently dropped.
            if let Some(t) = index.resolve(url) {
                if let Some(mark) = seen.get_mut(t as usize) {
                    if *mark != *stamp {
                        *mark = *stamp;
                        resolved.push(t);
                    }
                }
            }
        });
        relevance
    }

    /// Classify the rendered bytes per the configured §3.2 pipeline.
    fn classify(&self, target: Language) -> f64 {
        let bytes = self.body.as_slice();
        let meta_lang = || extract_meta_charset(bytes).and_then(|cs| cs.language());
        let detector_lang = || detect_with(bytes, &self.config.detector).language();
        let judged = match self.config.classifier {
            ContentClassifier::MetaOnly => meta_lang(),
            ContentClassifier::DetectorOnly => detector_lang(),
            ContentClassifier::MetaThenDetector => meta_lang().or_else(detector_lang),
        };
        if judged == Some(target) {
            1.0
        } else {
            0.0
        }
    }
}

impl<'a> ContentSimulator<'a> {
    /// Build a content-mode simulator (constructs the URL index — one
    /// pass over the space).
    pub fn new(ws: &'a WebSpace, config: ContentConfig) -> Self {
        ContentSimulator {
            ws,
            fetch: ContentFetch {
                index: UrlIndex::build(ws),
                config,
                body: Vec::new(),
                url: String::new(),
                links: LinkExtractor::default(),
                resolved: Vec::new(),
                seen: Vec::new(),
                stamp: 0,
            },
            scratch: EngineScratch::new(),
        }
    }

    /// The simulation parameters, for adjusting between runs (the
    /// per-fetch buffers stay warm across them).
    pub fn config_mut(&mut self) -> &mut ContentConfig {
        &mut self.fetch.config
    }

    /// Run one crawl, learning everything from bytes. The space's own
    /// fault model applies, exactly as in [`crate::sim::Simulator`].
    pub fn run(&mut self, strategy: &mut dyn Strategy) -> CrawlReport {
        let ws = self.ws;
        let config = &self.fetch.config;
        let engine = CrawlEngine::new(
            ws,
            EngineConfig {
                max_pages: config.max_pages,
                sample_interval: config.sample_interval,
                fault: ws.fault().clone(),
                ..EngineConfig::default()
            },
        );
        let classifier = match config.classifier {
            ContentClassifier::MetaOnly => "content/meta",
            ContentClassifier::DetectorOnly => "content/detector",
            ContentClassifier::MetaThenDetector => "content/composite",
        };
        self.fetch.seen.resize(ws.num_pages(), 0);
        let mut metrics = MetricsSampler::new();
        let (outcome, _) = engine.dispatch_sched(
            &SchedConfig::default(),
            strategy,
            &mut self.fetch,
            &mut [&mut metrics],
            &mut self.scratch,
            None,
        );
        CrawlReport::from_outcome(
            ws,
            strategy.name(),
            classifier.to_string(),
            metrics.into_samples(),
            Vec::new(),
            &outcome,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::MetaClassifier;
    use crate::sim::{SimConfig, Simulator};
    use crate::strategy::{BreadthFirst, SimpleStrategy};
    use langcrawl_webgraph::{FaultConfig, GeneratorConfig};

    fn space() -> WebSpace {
        GeneratorConfig::thai_like().scaled(2_500).build(8)
    }

    #[test]
    fn content_bfs_covers_the_whole_space() {
        let ws = space();
        let mut sim = ContentSimulator::new(&ws, ContentConfig::default());
        let r = sim.run(&mut BreadthFirst::new());
        assert_eq!(r.crawled, ws.num_pages() as u64);
        assert!((r.final_coverage() - 1.0).abs() < 1e-12);
    }

    /// Byte-level META-only crawling must match metadata-mode crawling
    /// with the MetaClassifier *exactly*: same crawl order inputs, same
    /// admissions, same curves — and, on a space generated with faults,
    /// the same attempts, retries and abandoned pages.
    #[test]
    fn content_meta_equals_metadata_mode() {
        let faulted = GeneratorConfig::thai_like()
            .scaled(2_500)
            .with_faults(FaultConfig {
                transient_rate: 0.5,
                ..FaultConfig::with_rate(0.2)
            })
            .build(8);
        for ws in [&space(), &faulted] {
            let mut csim = ContentSimulator::new(
                ws,
                ContentConfig {
                    classifier: ContentClassifier::MetaOnly,
                    ..ContentConfig::default()
                },
            );
            let content = csim.run(&mut SimpleStrategy::hard());

            let mut msim = Simulator::new(ws, SimConfig::default());
            let meta = msim.run(
                &mut SimpleStrategy::hard(),
                &MetaClassifier::target(ws.target_language()),
            );

            assert_eq!(content.classifier, "content/meta");
            assert_eq!(
                CrawlReport {
                    classifier: meta.classifier.clone(),
                    ..content
                },
                meta
            );
            if std::ptr::eq(ws, &faulted) {
                assert!(meta.retries > 0 && meta.gave_up > 0, "the faults must fire");
            }
        }
    }

    /// The composite classifier rescues mislabeled pages, so hard-focused
    /// content crawling covers at least as much as META-only.
    #[test]
    fn composite_rescues_mislabeled_pages() {
        let ws = space();
        let run = |mode| {
            let mut sim = ContentSimulator::new(
                &ws,
                ContentConfig {
                    classifier: mode,
                    ..ContentConfig::default()
                },
            );
            sim.run(&mut SimpleStrategy::hard()).final_coverage()
        };
        let meta_only = run(ContentClassifier::MetaOnly);
        let composite = run(ContentClassifier::MetaThenDetector);
        assert!(
            composite >= meta_only - 1e-9,
            "composite {composite} vs meta {meta_only}"
        );
    }

    #[test]
    fn budget_respected() {
        let ws = space();
        let mut sim = ContentSimulator::new(
            &ws,
            ContentConfig {
                max_pages: Some(100),
                ..ContentConfig::default()
            },
        );
        let r = sim.run(&mut BreadthFirst::new());
        assert_eq!(r.crawled, 100);
    }

    #[test]
    fn zero_sample_interval_keeps_only_the_final_sample() {
        let ws = space();
        let mut sim = ContentSimulator::new(
            &ws,
            ContentConfig {
                max_pages: Some(50),
                sample_interval: Some(0),
                ..ContentConfig::default()
            },
        );
        let r = sim.run(&mut BreadthFirst::new());
        assert_eq!(r.crawled, 50);
        assert_eq!(r.samples.len(), 1);
        assert_eq!(r.samples[0].crawled, 50);
    }

    #[test]
    fn classifier_names_distinguish_modes() {
        let ws = space();
        let mut sim = ContentSimulator::new(
            &ws,
            ContentConfig {
                classifier: ContentClassifier::DetectorOnly,
                max_pages: Some(10),
                ..ContentConfig::default()
            },
        );
        let r = sim.run(&mut BreadthFirst::new());
        assert_eq!(r.classifier, "content/detector");
    }
}
