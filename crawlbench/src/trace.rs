//! In-memory span recorder for the traced run.
//!
//! Coarse spans (a setup phase, one crawl cell, one replay) are kept
//! individually with their start, end and parent. Per-call spans around
//! the program's seams (one `pop`, one `admit`, one `relevance`) would
//! number tens of millions on a 1M-page crawl, so each wrapper sums them
//! into an [`Acc`] and the sum is attached to the enclosing coarse span
//! as a *rollup*: call count, busy nanoseconds and a work counter. A
//! span's self time is its duration minus the time its child spans and
//! rollups cover. Everything stays in memory until [`Trace::write`].

use std::fmt::Write as _;
use std::time::Instant;

/// Summed per-call timings of one layer operation.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Acc {
    /// Calls timed.
    pub calls: u64,
    /// Nanoseconds spent inside those calls.
    pub ns: u64,
    /// Work the calls did, in the operation's own unit (entries,
    /// bytes, relevant verdicts, ...).
    pub units: u64,
}

impl Acc {
    /// Time one call.
    #[inline]
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.ns += t.elapsed().as_nanos() as u64;
        self.calls += 1;
        r
    }

    /// Add another accumulator into this one.
    pub fn add(&mut self, o: Acc) {
        self.calls += o.calls;
        self.ns += o.ns;
        self.units += o.units;
    }
}

#[derive(Debug)]
struct Span {
    name: String,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    rollups: Vec<(&'static str, Acc)>,
}

/// The span store of one traced run.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Trace {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn open(&mut self, name: impl Into<String>) -> usize {
        let id = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            name: name.into(),
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
            rollups: Vec::new(),
        });
        self.open.push(id);
        id
    }

    /// Close span `id` (and any span left open inside it).
    pub fn close(&mut self, id: usize) {
        let end = self.now();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = end;
            if top == id {
                break;
            }
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: impl Into<String>, f: impl FnOnce(&mut Trace) -> R) -> R {
        let id = self.open(name);
        let r = f(self);
        self.close(id);
        r
    }

    /// Attach summed per-call child spans to span `id`.
    pub fn rollup(&mut self, id: usize, name: &'static str, acc: Acc) {
        if acc != Acc::default() {
            self.spans[id].rollups.push((name, acc));
        }
    }

    /// Duration of span `id` in nanoseconds.
    pub fn duration(&self, id: usize) -> u64 {
        let s = &self.spans[id];
        s.end_ns - s.start_ns
    }

    /// Span duration minus child coverage: the union of the child
    /// spans' intervals plus the rollups' busy time.
    pub fn self_ns(&self, id: usize) -> u64 {
        let mut kids: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut reach = 0u64;
        for (a, b) in kids {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        let rolled: u64 = self.spans[id].rollups.iter().map(|(_, a)| a.ns).sum();
        self.duration(id).saturating_sub(covered + rolled)
    }

    /// Sum of every rollup named `name`, across all spans.
    pub fn total(&self, name: &str) -> Acc {
        let mut t = Acc::default();
        for s in &self.spans {
            for &(n, a) in &s.rollups {
                if n == name {
                    t.add(a);
                }
            }
        }
        t
    }

    /// Ids of spans whose name starts with `prefix`.
    pub fn named(&self, prefix: &str) -> Vec<usize> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name.starts_with(prefix))
            .collect()
    }

    /// Summed duration of the spans whose name starts with `prefix`.
    pub fn total_span_ns(&self, prefix: &str) -> u64 {
        self.named(prefix).iter().map(|&i| self.duration(i)).sum()
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"rollups\":[",
                escape(&s.name),
                s.start_ns,
                s.end_ns,
                self.self_ns(id)
            );
            for (k, (n, a)) in s.rollups.iter().enumerate() {
                let sep = if k == 0 { "" } else { "," };
                let _ = write!(
                    out,
                    "{sep}{{\"name\":\"{n}\",\"calls\":{},\"ns\":{},\"units\":{}}}",
                    a.calls, a.ns, a.units
                );
            }
            out.push_str("]}\n");
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}
