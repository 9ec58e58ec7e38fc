//! Crawl metrics — §3.4 of the paper.
//!
//! * **Harvest rate** (precision): fraction of crawled pages that are
//!   relevant.
//! * **Coverage** (explicit recall): fraction of relevant pages crawled.
//!   The trace bounds the relevant set, so recall is exact — the very
//!   reason the paper evaluates on a simulator.
//! * **URL queue size**: distinct pending URLs over time (Fig. 5 et al.).
//!
//! All three are recorded as a time series over "pages crawled", the
//! x-axis of every figure in the paper.

/// One point of the crawl time series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// Pages crawled so far (x-axis).
    pub crawled: u64,
    /// Relevant pages crawled so far (ground truth).
    pub relevant: u64,
    /// Distinct URLs pending in the queue.
    pub queue_size: usize,
}

impl Sample {
    /// Harvest rate at this point, in [0, 1].
    pub fn harvest_rate(&self) -> f64 {
        if self.crawled == 0 {
            0.0
        } else {
            self.relevant as f64 / self.crawled as f64
        }
    }
}

/// Result of one simulated crawl.
///
/// Derives `Eq`: every field is exact (integers and strings), so two
/// reports from deterministic runs can be compared bit-for-bit — the
/// engine-parity test depends on this.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrawlReport {
    /// Strategy name (e.g. `"soft-focused"`).
    pub strategy: String,
    /// Classifier name (e.g. `"meta"`).
    pub classifier: String,
    /// Sampled series, in crawl order; always ends with the final state.
    pub samples: Vec<Sample>,
    /// Total pages crawled.
    pub crawled: u64,
    /// Total relevant pages crawled.
    pub relevant_crawled: u64,
    /// Relevant pages in the whole space (coverage denominator).
    pub total_relevant: u64,
    /// High-water mark of the queue's distinct pending count.
    pub max_queue: usize,
    /// Total queue pushes accepted (duplicates included; diagnostic).
    pub total_pushes: u64,
    /// Crawled page ids in fetch order; empty unless the run was
    /// configured with [`crate::sim::SimConfig::with_visit_recording`].
    pub visited: Vec<u32>,
    /// Total fetch attempts performed; equals `crawled` when no fault
    /// fired (every page resolved on its first attempt).
    pub attempts: u64,
    /// Attempts beyond a page's first — the retry traffic caused by
    /// transient failures.
    pub retries: u64,
    /// Pages abandoned after exhausting their retry budget.
    pub gave_up: u64,
    /// Virtual ticks the crawl spanned (the schedule's makespan). With
    /// the legacy single-slot engine this tracks attempts plus backoff
    /// fast-forwards; under the virtual-time scheduler
    /// ([`crate::sched::SchedConfig`]) it shrinks with the slot count
    /// and stretches with politeness stalls.
    pub ticks: u64,
}

impl CrawlReport {
    /// Package one engine run: the outcome's counters, the sampled
    /// series, the recorded visits and the space's coverage denominator.
    pub(crate) fn from_outcome(
        ws: &langcrawl_webgraph::WebSpace,
        strategy: String,
        classifier: String,
        samples: Vec<Sample>,
        visited: Vec<u32>,
        outcome: &crate::engine::EngineOutcome,
    ) -> Self {
        CrawlReport {
            strategy,
            classifier,
            samples,
            crawled: outcome.crawled,
            relevant_crawled: outcome.relevant_crawled,
            total_relevant: ws.total_relevant() as u64,
            max_queue: outcome.max_pending,
            total_pushes: outcome.total_pushes,
            visited,
            attempts: outcome.attempts,
            retries: outcome.retries,
            gave_up: outcome.gave_up,
            ticks: outcome.ticks,
        }
    }

    /// Final harvest rate.
    pub fn final_harvest(&self) -> f64 {
        if self.crawled == 0 {
            0.0
        } else {
            self.relevant_crawled as f64 / self.crawled as f64
        }
    }

    /// Harvest net of failures, per fetch *attempt*: relevant pages
    /// delivered over total attempts performed. Equals
    /// [`CrawlReport::final_harvest`] on fault-free runs; under faults
    /// it additionally charges the bandwidth wasted on retries.
    pub fn harvest_net(&self) -> f64 {
        if self.attempts == 0 {
            0.0
        } else {
            self.relevant_crawled as f64 / self.attempts as f64
        }
    }

    /// Final coverage (explicit recall).
    pub fn final_coverage(&self) -> f64 {
        if self.total_relevant == 0 {
            0.0
        } else {
            self.relevant_crawled as f64 / self.total_relevant as f64
        }
    }

    /// Coverage at a sample.
    pub fn coverage_at(&self, s: &Sample) -> f64 {
        if self.total_relevant == 0 {
            0.0
        } else {
            s.relevant as f64 / self.total_relevant as f64
        }
    }

    /// Harvest rate after the first `crawled_limit` pages (nearest
    /// sample at or before the limit).
    pub fn harvest_at(&self, crawled_limit: u64) -> f64 {
        self.samples
            .iter()
            .take_while(|s| s.crawled <= crawled_limit)
            .last()
            .map_or(0.0, |s| s.harvest_rate())
    }

    /// The x-position (pages crawled) at which coverage first reaches
    /// `fraction`, if it ever does.
    pub fn crawled_to_reach_coverage(&self, fraction: f64) -> Option<u64> {
        self.samples
            .iter()
            .find(|s| self.coverage_at(s) >= fraction)
            .map(|s| s.crawled)
    }

    /// Write the series as CSV (`crawled,relevant,harvest,coverage,queue`).
    pub fn write_csv<W: std::io::Write>(&self, mut w: W) -> std::io::Result<()> {
        writeln!(w, "crawled,relevant,harvest,coverage,queue")?;
        for s in &self.samples {
            writeln!(
                w,
                "{},{},{:.6},{:.6},{}",
                s.crawled,
                s.relevant,
                s.harvest_rate(),
                self.coverage_at(s),
                s.queue_size
            )?;
        }
        Ok(())
    }

    /// Serialize the report as one JSON object.
    ///
    /// Hand-rolled (like [`CrawlReport::write_csv`]) so the build needs
    /// no external serialization crate.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + 64 * self.samples.len());
        out.push_str("{\"strategy\":");
        json_string(&mut out, &self.strategy);
        out.push_str(",\"classifier\":");
        json_string(&mut out, &self.classifier);
        out.push_str(",\"samples\":[");
        for (i, s) in self.samples.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"crawled\":{},\"relevant\":{},\"queue_size\":{}}}",
                s.crawled, s.relevant, s.queue_size
            ));
        }
        out.push_str(&format!(
            "],\"crawled\":{},\"relevant_crawled\":{},\"total_relevant\":{},\
             \"max_queue\":{},\"total_pushes\":{},\"attempts\":{},\
             \"retries\":{},\"gave_up\":{},\"ticks\":{},\"visited\":[",
            self.crawled,
            self.relevant_crawled,
            self.total_relevant,
            self.max_queue,
            self.total_pushes,
            self.attempts,
            self.retries,
            self.gave_up,
            self.ticks
        ));
        for (i, v) in self.visited.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&v.to_string());
        }
        out.push_str("]}");
        out
    }

    /// Write the JSON form of the report.
    pub fn write_json<W: std::io::Write>(&self, mut w: W) -> std::io::Result<()> {
        w.write_all(self.to_json().as_bytes())
    }

    /// Render a compact fixed-width summary row for bench tables.
    pub fn summary_row(&self) -> String {
        format!(
            "{:<32} crawled={:>9} harvest={:>6.1}% coverage={:>6.1}% max_queue={:>9}",
            self.strategy,
            self.crawled,
            100.0 * self.final_harvest(),
            100.0 * self.final_coverage(),
            self.max_queue
        )
    }
}

/// Append `s` as a JSON string literal (quotes, backslashes and control
/// characters escaped).
fn json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> CrawlReport {
        CrawlReport {
            strategy: "test".into(),
            classifier: "oracle".into(),
            samples: vec![
                Sample {
                    crawled: 10,
                    relevant: 6,
                    queue_size: 50,
                },
                Sample {
                    crawled: 100,
                    relevant: 40,
                    queue_size: 500,
                },
                Sample {
                    crawled: 1000,
                    relevant: 200,
                    queue_size: 100,
                },
            ],
            crawled: 1000,
            relevant_crawled: 200,
            total_relevant: 250,
            max_queue: 500,
            total_pushes: 5_000,
            visited: Vec::new(),
            attempts: 1000,
            retries: 0,
            gave_up: 0,
            ticks: 1000,
        }
    }

    #[test]
    fn rates() {
        let r = report();
        assert!((r.final_harvest() - 0.2).abs() < 1e-12);
        assert!((r.final_coverage() - 0.8).abs() < 1e-12);
        assert!((r.samples[0].harvest_rate() - 0.6).abs() < 1e-12);
        assert!((r.coverage_at(&r.samples[1]) - 0.16).abs() < 1e-12);
    }

    #[test]
    fn harvest_at_limit() {
        let r = report();
        assert!((r.harvest_at(100) - 0.4).abs() < 1e-12);
        assert!((r.harvest_at(99) - 0.6).abs() < 1e-12);
        assert_eq!(r.harvest_at(5), 0.0, "no sample at or before 5");
    }

    #[test]
    fn coverage_threshold_search() {
        let r = report();
        assert_eq!(r.crawled_to_reach_coverage(0.15), Some(100));
        assert_eq!(r.crawled_to_reach_coverage(0.79), Some(1000));
        assert_eq!(r.crawled_to_reach_coverage(0.9), None);
    }

    #[test]
    fn empty_report_is_zero_not_nan() {
        let r = CrawlReport {
            strategy: "x".into(),
            classifier: "y".into(),
            samples: vec![],
            crawled: 0,
            relevant_crawled: 0,
            total_relevant: 0,
            max_queue: 0,
            total_pushes: 0,
            visited: Vec::new(),
            attempts: 0,
            retries: 0,
            gave_up: 0,
            ticks: 0,
        };
        assert_eq!(r.final_harvest(), 0.0);
        assert_eq!(r.final_coverage(), 0.0);
        assert_eq!(r.harvest_net(), 0.0);
    }

    #[test]
    fn harvest_net_charges_retry_traffic() {
        let mut r = report();
        assert!(
            (r.harvest_net() - r.final_harvest()).abs() < 1e-12,
            "no retries: net harvest equals harvest"
        );
        r.attempts = 2000; // half the bandwidth went to failed attempts
        r.retries = 1000;
        assert!((r.harvest_net() - 0.1).abs() < 1e-12);
        assert!(
            (r.final_harvest() - 0.2).abs() < 1e-12,
            "per-page unchanged"
        );
    }

    #[test]
    fn json_output_shape() {
        let mut r = report();
        r.strategy = "soft \"quoted\"\nstrategy".into();
        r.visited = vec![3, 1, 4];
        let json = r.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains(r#""strategy":"soft \"quoted\"\nstrategy""#));
        assert!(json.contains(r#""samples":[{"crawled":10,"relevant":6,"queue_size":50}"#));
        assert!(json.contains(r#""attempts":1000,"retries":0,"gave_up":0"#));
        assert!(json.contains(r#""visited":[3,1,4]"#));
        let mut buf = Vec::new();
        r.write_json(&mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), json);
    }

    #[test]
    fn csv_output_shape() {
        let mut buf = Vec::new();
        report().write_csv(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.trim().lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("crawled,"));
        assert!(lines[1].starts_with("10,6,0.6"));
    }
}
