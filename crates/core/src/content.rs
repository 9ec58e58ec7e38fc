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
//! The fetch path is allocation-free once warm: the body, the page URL,
//! the link extractor's buffers and the resolved-link list live in a
//! [`FetchScratch`] kept on the simulator across fetches and runs.
//!
//! It is orders of magnitude slower per page, so the figure harnesses
//! stay in metadata mode; content mode validates that the two agree
//! (`tests/integration_pipeline.rs`, Ablation B) and powers realistic
//! demos.

use crate::metrics::{CrawlReport, Sample};
use crate::queue::{Entry, UrlQueue};
use crate::strategy::{PageView, Strategy};
use langcrawl_charset::{detect_with, DetectorConfig, Language};
use langcrawl_html::{extract_meta_charset, LinkExtractor};
use langcrawl_webgraph::index::UrlIndex;
use langcrawl_webgraph::{PageId, WebSpace};

/// How the content-mode classifier judges a page's bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContentClassifier {
    /// META charset label only (the paper's Thai path). Pages without a
    /// recognisable target-language label are irrelevant.
    MetaOnly,
    /// Byte-distribution detector only (the paper's Japanese path).
    DetectorOnly,
    /// META first, detector as fallback when META is absent or names a
    /// language-neutral charset — the composite a production crawler
    /// runs.
    MetaThenDetector,
}

/// Content-mode simulation parameters.
#[derive(Debug, Clone)]
pub struct ContentConfig {
    /// Classification mode.
    pub classifier: ContentClassifier,
    /// Detector tuning (scan cap, confidence floor).
    pub detector: DetectorConfig,
    /// Stop after this many fetches.
    pub max_pages: Option<u64>,
    /// Sample cadence (`None` = ~512 samples).
    pub sample_interval: Option<u64>,
}

impl Default for ContentConfig {
    fn default() -> Self {
        ContentConfig {
            classifier: ContentClassifier::MetaThenDetector,
            detector: DetectorConfig::default(),
            max_pages: None,
            sample_interval: None,
        }
    }
}

/// The byte-level simulator.
#[derive(Debug)]
pub struct ContentSimulator<'a> {
    ws: &'a WebSpace,
    index: UrlIndex,
    config: ContentConfig,
    scratch: FetchScratch,
}

/// Per-fetch buffers, reused across fetches and runs.
#[derive(Debug, Default)]
struct FetchScratch {
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
    admissions: Vec<Entry>,
    /// `seen[t] == stamp` marks page `t` as already in `resolved`.
    seen: Vec<u32>,
    stamp: u32,
}

impl<'a> ContentSimulator<'a> {
    /// Build a content-mode simulator (constructs the URL index — one
    /// pass over the space).
    pub fn new(ws: &'a WebSpace, config: ContentConfig) -> Self {
        ContentSimulator {
            ws,
            index: UrlIndex::build(ws),
            config,
            scratch: FetchScratch::default(),
        }
    }

    /// The simulation parameters, for adjusting between runs (the
    /// per-fetch buffers stay warm across them).
    pub fn config_mut(&mut self) -> &mut ContentConfig {
        &mut self.config
    }

    /// Classify rendered page bytes per the configured §3.2 pipeline.
    fn classify(config: &ContentConfig, bytes: &[u8], target: Language) -> f64 {
        let meta_lang = || extract_meta_charset(bytes).and_then(|cs| cs.language());
        let detector_lang = || detect_with(bytes, &config.detector).language();
        let judged = match config.classifier {
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

    /// Fetch one page: render it into the scratch body, classify the
    /// bytes, and resolve its links into `scratch.resolved`. Returns the
    /// relevance verdict.
    // lint:root(alloc-free) — once per fetch; every buffer lives in FetchScratch
    fn fetch_page(&mut self, p: PageId, target: Language) -> f64 {
        let (ws, index) = (self.ws, &self.index);
        let s = &mut self.scratch;
        // Fetch: the virtual web serves bytes (empty for failures).
        ws.synthesize_page_into(p, &mut s.body);
        let is_html = ws.meta(p).is_ok_html();
        let relevance = if is_html && !s.body.is_empty() {
            Self::classify(&self.config, &s.body, target)
        } else {
            0.0
        };

        // Link extraction + resolution, all at the byte level.
        s.resolved.clear();
        if !is_html {
            return relevance;
        }
        s.url.clear();
        ws.write_url(p, &mut s.url);
        if s.links.set_base(&s.url).is_err() {
            return relevance;
        }
        s.stamp = s.stamp.wrapping_add(1);
        if s.stamp == 0 {
            // Stamp wrap: forget every mark so none can alias.
            s.seen.fill(0);
            s.stamp = 1;
        }
        let FetchScratch {
            body,
            links,
            resolved,
            seen,
            stamp,
            ..
        } = s;
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

    /// Run one crawl, learning everything from bytes.
    pub fn run(&mut self, strategy: &mut dyn Strategy) -> CrawlReport {
        let ws = self.ws;
        let target = ws.target_language();
        let n = ws.num_pages();
        let sample_interval = self
            .config
            .sample_interval
            .unwrap_or_else(|| (n as u64 / 512).max(1));
        let budget = self.config.max_pages.unwrap_or(u64::MAX);

        let mut queue = UrlQueue::new(n, strategy.levels());
        for &s in ws.seeds() {
            queue.push(Entry {
                page: s,
                priority: 0,
                distance: 0,
            });
        }

        let mut crawled = 0u64;
        let mut relevant_crawled = 0u64;
        let expected_samples = (n as u64).checked_div(sample_interval).unwrap_or(0);
        let mut samples = Vec::with_capacity(expected_samples as usize + 2);
        let s = &mut self.scratch;
        s.seen.resize(n, 0);

        while let Some(entry) = queue.pop() {
            let p = entry.page;
            crawled += 1;

            let relevance = self.fetch_page(p, target);
            if ws.is_relevant(p) {
                relevant_crawled += 1;
            }
            let consec = if relevance > 0.5 {
                0
            } else {
                entry.distance.saturating_add(1)
            };

            let s = &mut self.scratch;
            let view = PageView {
                page: p,
                relevance,
                consec_irrelevant: consec,
                outlinks: &s.resolved,
                crawled,
            };
            s.admissions.clear();
            strategy.admit(&view, &mut s.admissions);
            for &a in &s.admissions {
                queue.push(a);
            }

            if crawled.is_multiple_of(sample_interval) {
                samples.push(Sample {
                    crawled,
                    relevant: relevant_crawled,
                    queue_size: queue.pending(),
                });
            }
            if crawled >= budget {
                break;
            }
        }

        if samples.last().map(|s| s.crawled) != Some(crawled) {
            samples.push(Sample {
                crawled,
                relevant: relevant_crawled,
                queue_size: queue.pending(),
            });
        }

        CrawlReport {
            strategy: strategy.name(),
            classifier: match self.config.classifier {
                ContentClassifier::MetaOnly => "content/meta",
                ContentClassifier::DetectorOnly => "content/detector",
                ContentClassifier::MetaThenDetector => "content/composite",
            }
            .to_string(),
            samples,
            crawled,
            relevant_crawled,
            total_relevant: ws.total_relevant() as u64,
            max_queue: queue.max_pending(),
            total_pushes: queue.total_pushes(),
            visited: Vec::new(),
            // The content pipeline has no fault layer: one attempt per
            // page, nothing retried or abandoned.
            attempts: crawled,
            retries: 0,
            gave_up: 0,
            ticks: crawled,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::MetaClassifier;
    use crate::sim::{SimConfig, Simulator};
    use crate::strategy::{BreadthFirst, SimpleStrategy};
    use langcrawl_webgraph::GeneratorConfig;

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
    /// admissions, same curves.
    #[test]
    fn content_meta_equals_metadata_mode() {
        let ws = space();
        let mut csim = ContentSimulator::new(
            &ws,
            ContentConfig {
                classifier: ContentClassifier::MetaOnly,
                ..ContentConfig::default()
            },
        );
        let content = csim.run(&mut SimpleStrategy::hard());

        let mut msim = Simulator::new(&ws, SimConfig::default());
        let meta = msim.run(
            &mut SimpleStrategy::hard(),
            &MetaClassifier::target(ws.target_language()),
        );

        assert_eq!(content.crawled, meta.crawled);
        assert_eq!(content.relevant_crawled, meta.relevant_crawled);
        assert_eq!(content.max_queue, meta.max_queue);
        assert_eq!(content.samples, meta.samples);
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
