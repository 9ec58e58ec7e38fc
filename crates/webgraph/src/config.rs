//! Generator configuration and the Table 3 dataset presets.

use crate::fault::FaultConfig;
use langcrawl_charset::Language;

/// All knobs of the synthetic web-space generator.
///
/// The two presets reconstruct the structural properties the paper
/// reports for its datasets; [`GeneratorConfig::scaled`] changes only the
/// size, preserving every ratio, so experiments can be run at whatever
/// scale the machine affords.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratorConfig {
    /// Target language of the archiving crawl (what "relevant" means).
    pub target: Language,
    /// Total number of URLs in the space, including failed fetches and
    /// non-HTML resources (the paper's Thai log: ~14 M URLs for ~3.9 M
    /// OK HTML pages).
    pub total_urls: u32,
    /// Fraction of URLs that resolve to OK HTML pages. Thai log ≈ 0.28.
    pub ok_html_ratio: f64,
    /// Fraction of OK HTML pages in the target language (Table 3:
    /// Thai 0.35, Japanese 0.71).
    pub relevance_ratio: f64,
    /// Probability that a page on a target-language host is itself in the
    /// target language (host purity).
    pub host_purity: f64,
    /// Probability that a page on an other-language host is nevertheless
    /// in the target language (expatriate pages, mirrors).
    pub leak: f64,
    /// Mean pages per host; host sizes follow a bounded Pareto around it.
    pub mean_host_size: f64,
    /// Power-law exponent for host sizes (higher ⇒ more equal sizes).
    pub host_size_alpha: f64,
    /// Mean HTML outlinks per page.
    pub mean_out_degree: f64,
    /// Fraction of a page's links that stay on its own host.
    pub intra_host_ratio: f64,
    /// Fraction of a page's links that point at leaf resources (images,
    /// dead links) rather than HTML pages. Real pages carry many; these
    /// drive how fast a crawl discovers the non-HTML bulk of the URL
    /// space, and with it the queue-size curves of Fig. 5.
    pub leaf_link_share: f64,
    /// Probability an inter-host link targets the destination host's
    /// front page rather than a deep page.
    pub front_page_bias: f64,
    /// Language locality: probability that an inter-host link from a
    /// page of language L points to a host of the same language.
    pub locality: f64,
    /// Fraction of relevant page mass placed on *island* hosts, reachable
    /// only through irrelevant chains (drives the hard-focused coverage
    /// ceiling: ceiling ≈ 1 − island_mass).
    pub island_mass: f64,
    /// Maximum island chain depth D; islands are spread uniformly over
    /// depths 1..=D (drives coverage growth with N in Fig. 6c).
    pub max_island_depth: u8,
    /// Probability an HTML page carries a META charset declaration.
    pub meta_present: f64,
    /// Probability a present META declaration is *wrong* (observation 3
    /// in §3: "Thai web pages mislabeled as non-Thai").
    pub mislabel: f64,
    /// Probability an in-language page is served as UTF-8 rather than a
    /// legacy charset (small in the paper's 2004 web).
    pub utf8_share: f64,
    /// Mean body size in bytes (log-normal-ish spread around it).
    pub mean_page_bytes: u32,
    /// Number of seed pages: front pages of the largest relevant hosts
    /// (archiving crawls seed from major national portals).
    pub seed_count: u32,
    /// Fault-model knobs (per-host failure classes, transient-failure
    /// rates). All-zero by default, which leaves every crawl
    /// bit-identical to a fault-free run.
    pub fault: FaultConfig,
}

impl GeneratorConfig {
    /// The paper's Thai dataset: low language specificity (35% relevant),
    /// 28% of URLs OK HTML, moderate locality — "a representative of a
    /// web space with low degree of language specificity" (§5.1).
    pub fn thai_like() -> Self {
        GeneratorConfig {
            target: Language::Thai,
            total_urls: 200_000,
            ok_html_ratio: 0.28,
            relevance_ratio: 0.35,
            host_purity: 0.94,
            leak: 0.015,
            mean_host_size: 28.0,
            host_size_alpha: 1.6,
            mean_out_degree: 10.0,
            intra_host_ratio: 0.50,
            leaf_link_share: 0.35,
            front_page_bias: 0.45,
            locality: 0.82,
            island_mass: 0.30,
            max_island_depth: 5,
            meta_present: 0.85,
            mislabel: 0.04,
            utf8_share: 0.04,
            mean_page_bytes: 12_000,
            seed_count: 8,
            fault: FaultConfig::default(),
        }
    }

    /// The paper's Japanese dataset: high language specificity (71%
    /// relevant — the log was itself collected with a focused crawl), so
    /// even breadth-first achieves >70% harvest (Fig. 4).
    pub fn japanese_like() -> Self {
        GeneratorConfig {
            target: Language::Japanese,
            total_urls: 300_000,
            // The Japanese log is far denser in OK HTML than the Thai one:
            // Table 3 counts 95.2 M OK pages among ~110 M URLs.
            ok_html_ratio: 0.80,
            relevance_ratio: 0.71,
            host_purity: 0.97,
            leak: 0.02,
            mean_host_size: 35.0,
            host_size_alpha: 1.6,
            mean_out_degree: 10.0,
            intra_host_ratio: 0.50,
            leaf_link_share: 0.35,
            front_page_bias: 0.45,
            locality: 0.93,
            island_mass: 0.12,
            max_island_depth: 4,
            meta_present: 0.80,
            mislabel: 0.03,
            utf8_share: 0.05,
            mean_page_bytes: 14_000,
            seed_count: 8,
            fault: FaultConfig::default(),
        }
    }

    /// Extension preset (beyond the paper): a Korean-like web space.
    /// Ratios are hypothetical mid-points between the paper's two
    /// datasets, used by the `wider_languages` harness (§6's "wider
    /// range" future work).
    pub fn korean_like() -> Self {
        GeneratorConfig {
            target: Language::Korean,
            relevance_ratio: 0.50,
            locality: 0.88,
            island_mass: 0.20,
            ..GeneratorConfig::thai_like()
        }
    }

    /// Extension preset (beyond the paper): a Simplified-Chinese-like
    /// web space.
    pub fn chinese_like() -> Self {
        GeneratorConfig {
            target: Language::Chinese,
            relevance_ratio: 0.55,
            locality: 0.90,
            island_mass: 0.18,
            ..GeneratorConfig::thai_like()
        }
    }

    /// Same structure, different size: set the total URL count.
    pub fn scaled(mut self, total_urls: u32) -> Self {
        self.total_urls = total_urls;
        self
    }

    /// Override the locality knob (ablation A).
    pub fn with_locality(mut self, locality: f64) -> Self {
        self.locality = locality;
        self
    }

    /// Override the island mass (coverage-ceiling ablations).
    pub fn with_island_mass(mut self, mass: f64) -> Self {
        self.island_mass = mass;
        self
    }

    /// Attach a fault model (see [`FaultConfig`]). The generated
    /// structure is unchanged — fault draws use their own RNG streams —
    /// but crawls over the space answer transient and dead-host
    /// failures at the configured rates.
    pub fn with_faults(mut self, fault: FaultConfig) -> Self {
        self.fault = fault;
        self
    }

    /// Build the web space with the given RNG seed.
    ///
    /// ```
    /// use langcrawl_webgraph::GeneratorConfig;
    /// let ws = GeneratorConfig::thai_like().scaled(2_000).build(7);
    /// assert!(ws.check_invariants().is_ok());
    /// let ratio = ws.total_relevant() as f64 / ws.total_ok_html() as f64;
    /// assert!((ratio - 0.35).abs() < 0.1);
    /// ```
    pub fn build(&self, seed: u64) -> crate::WebSpace {
        crate::generate::generate(self, seed)
    }

    /// Build through the process-wide [`crate::SpaceCache`]: the first
    /// `(config, seed)` build constructs the space, every later one
    /// (same process) gets the same immutable `Arc` back. Use this from
    /// harnesses and experiment descriptors that may share spaces.
    pub fn build_shared(&self, seed: u64) -> std::sync::Arc<crate::WebSpace> {
        crate::cache::SpaceCache::global().get_or_build(self, seed)
    }

    /// FNV-1a digest of every knob — the cache key component that stands
    /// in for the config. Scale (`total_urls`) folds in, so the same
    /// preset at two scales hashes differently. Equal configs hash
    /// equal; the cache still double-checks full equality on a hit.
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut fold = |x: u64| {
            for b in x.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        fold(self.target as u64);
        fold(self.total_urls as u64);
        fold(self.ok_html_ratio.to_bits());
        fold(self.relevance_ratio.to_bits());
        fold(self.host_purity.to_bits());
        fold(self.leak.to_bits());
        fold(self.mean_host_size.to_bits());
        fold(self.host_size_alpha.to_bits());
        fold(self.mean_out_degree.to_bits());
        fold(self.intra_host_ratio.to_bits());
        fold(self.leaf_link_share.to_bits());
        fold(self.front_page_bias.to_bits());
        fold(self.locality.to_bits());
        fold(self.island_mass.to_bits());
        fold(self.max_island_depth as u64);
        fold(self.meta_present.to_bits());
        fold(self.mislabel.to_bits());
        fold(self.utf8_share.to_bits());
        fold(self.mean_page_bytes as u64);
        fold(self.seed_count as u64);
        fold(self.fault.fingerprint());
        h
    }

    /// Sanity-check ranges; called by the generator.
    pub(crate) fn validate(&self) {
        assert!(self.total_urls >= 100, "space too small to be meaningful");
        for (name, v) in [
            ("ok_html_ratio", self.ok_html_ratio),
            ("relevance_ratio", self.relevance_ratio),
            ("host_purity", self.host_purity),
            ("leak", self.leak),
            ("intra_host_ratio", self.intra_host_ratio),
            ("leaf_link_share", self.leaf_link_share),
            ("front_page_bias", self.front_page_bias),
            ("locality", self.locality),
            ("island_mass", self.island_mass),
            ("meta_present", self.meta_present),
            ("mislabel", self.mislabel),
            ("utf8_share", self.utf8_share),
        ] {
            assert!((0.0..=1.0).contains(&v), "{name} out of [0,1]: {v}");
        }
        assert!(self.mean_host_size >= 1.0);
        assert!(self.mean_out_degree >= 1.0);
        assert!(self.max_island_depth >= 1);
        assert!(
            self.host_purity > self.leak,
            "purity must exceed leak or 'host language' is meaningless"
        );
        self.fault.validate();
    }

    /// The fraction of hosts that must carry the target language so the
    /// page-level relevance ratio comes out right:
    /// `f·purity + (1−f)·leak = relevance_ratio`.
    pub(crate) fn target_host_fraction(&self) -> f64 {
        ((self.relevance_ratio - self.leak) / (self.host_purity - self.leak)).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        GeneratorConfig::thai_like().validate();
        GeneratorConfig::japanese_like().validate();
    }

    #[test]
    fn target_host_fraction_solves_mix() {
        let c = GeneratorConfig::thai_like();
        let f = c.target_host_fraction();
        let achieved = f * c.host_purity + (1.0 - f) * c.leak;
        assert!((achieved - c.relevance_ratio).abs() < 1e-9);
    }

    #[test]
    fn scaled_changes_only_size() {
        let a = GeneratorConfig::thai_like();
        let b = GeneratorConfig::thai_like().scaled(1_000_000);
        assert_eq!(b.total_urls, 1_000_000);
        assert_eq!(a.relevance_ratio, b.relevance_ratio);
        assert_eq!(a.locality, b.locality);
    }

    #[test]
    #[should_panic(expected = "out of [0,1]")]
    fn validate_rejects_bad_ratio() {
        let mut c = GeneratorConfig::thai_like();
        c.locality = 1.5;
        c.validate();
    }

    #[test]
    fn japanese_is_more_specific_than_thai() {
        // The property the paper's §5.1 discussion hinges on.
        let th = GeneratorConfig::thai_like();
        let jp = GeneratorConfig::japanese_like();
        assert!(jp.relevance_ratio > th.relevance_ratio);
        assert!(jp.locality > th.locality);
    }
}
