//! The output check: report digests, pinned digests for the default
//! seed, and invariants that hold at any seed.
//!
//! Simulated statistics are deterministic, so a speed-only change must
//! leave them bit-identical; they are compared exactly, never timed.

use std::collections::BTreeMap;

/// The seed whose digests are pinned in `pins.txt`.
pub const DEFAULT_SEED: u64 = 1;

/// The simulated statistics of one crawl cell, as the program reported
/// them (its `CrawlReport`, or the engine outcome plus sample series).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    /// `(crawled, relevant, queue size)` at each sample point.
    pub samples: Vec<[u64; 3]>,
    pub crawled: u64,
    pub relevant: u64,
    pub total_relevant: u64,
    pub max_queue: u64,
    pub total_pushes: u64,
    pub attempts: u64,
    pub retries: u64,
    pub gave_up: u64,
    pub ticks: u64,
}

impl Report {
    /// FNV-1a over every field, little-endian.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(self.samples.len() as u64);
        for s in &self.samples {
            s.iter().for_each(|&v| eat(v));
        }
        for v in [
            self.crawled,
            self.relevant,
            self.total_relevant,
            self.max_queue,
            self.total_pushes,
            self.attempts,
            self.retries,
            self.gave_up,
            self.ticks,
        ] {
            eat(v);
        }
        h
    }
}

/// Seed-independent invariants of one cell's report. `full_coverage`
/// marks zero-fault breadth-first and soft-focused cells, which must
/// reach every relevant page. `extra` carries comparisons the adapter
/// made (capture leaves the crawl unchanged, resume continues the
/// uninterrupted run, the replay saw the crawl's links).
pub fn invariants(r: &Report, full_coverage: bool, extra: &[(&'static str, bool)]) -> Vec<String> {
    let mut bad = Vec::new();
    if r.attempts != r.crawled + r.retries {
        bad.push(format!(
            "attempts {} != crawled {} + retries {}",
            r.attempts, r.crawled, r.retries
        ));
    }
    if full_coverage && r.relevant != r.total_relevant {
        bad.push(format!(
            "coverage {}/{} != 1 on a zero-fault full crawl",
            r.relevant, r.total_relevant
        ));
    }
    if r.samples.last().map(|s| s[0]) != Some(r.crawled) && r.crawled > 0 {
        bad.push("sample series does not end at the final state".to_string());
    }
    for &(name, ok) in extra {
        if !ok {
            bad.push(format!("{name} failed"));
        }
    }
    bad
}

/// Pinned digests: `workload scale seed` → cell label → digest.
#[derive(Debug, Default)]
pub struct Pins(BTreeMap<(String, String, u64), BTreeMap<String, u64>>);

impl Pins {
    /// Parse `pins.txt`: one `workload scale seed digest label...` line
    /// per cell; `#` starts a comment.
    pub fn parse(text: &str) -> Pins {
        let mut pins = Pins::default();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut f = line.splitn(5, ' ');
            let (Some(w), Some(sc), Some(seed), Some(d), Some(label)) =
                (f.next(), f.next(), f.next(), f.next(), f.next())
            else {
                continue;
            };
            let (Ok(seed), Ok(d)) = (seed.parse(), u64::from_str_radix(d, 16)) else {
                continue;
            };
            pins.0
                .entry((w.to_string(), sc.to_string(), seed))
                .or_default()
                .insert(label.to_string(), d);
        }
        pins
    }

    /// The pinned cells for this run, if any.
    pub fn lookup(&self, workload: &str, scale: &str, seed: u64) -> Option<&BTreeMap<String, u64>> {
        self.0.get(&(workload.to_string(), scale.to_string(), seed))
    }
}

/// The repository's pins.
pub fn pins() -> Pins {
    Pins::parse(include_str!("../pins.txt"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_sees_every_field() {
        let base = Report {
            samples: vec![[1, 1, 1]],
            crawled: 1,
            ..Report::default()
        };
        let d = base.digest();
        let mut r = base.clone();
        r.ticks = 9;
        assert_ne!(r.digest(), d);
        let mut r = base.clone();
        r.samples[0][2] = 2;
        assert_ne!(r.digest(), d);
    }

    #[test]
    fn invariants_flag_broken_accounting() {
        let r = Report {
            samples: vec![[2, 1, 0]],
            crawled: 2,
            relevant: 1,
            total_relevant: 2,
            attempts: 3,
            retries: 0,
            ..Report::default()
        };
        assert_eq!(invariants(&r, true, &[("x", false)]).len(), 3);
    }

    #[test]
    fn pins_parse() {
        let p = Pins::parse("# c\npaper_grid full 1 00ff thai/bf\n");
        assert_eq!(p.lookup("paper_grid", "full", 1).unwrap()["thai/bf"], 0xff);
        assert!(p.lookup("paper_grid", "full", 2).is_none());
    }
}
