//! End-to-end benchmark of the langcrawl crawl simulator.
//!
//! ```text
//! crawlbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!            [--scale full|tiny] [--out DIR] [--print-pins]
//! ```
//!
//! One process runs one workload. With `--trace 0` it sets the workload
//! up five times over about `--seconds`, running every crawl cell in
//! passes after each set-up, and prints the end-to-end metrics. With `--trace 1` it
//! runs each cell untraced and then through the timing wrappers,
//! prints the per-layer metrics and writes the spans to
//! `DIR/<workload>-<scale>-seed<seed>.spans.jsonl`. The last stdout
//! line is the JSON result; the line before it records the run. See
//! README.md for the workloads and metrics.

mod adapter;
mod check;
mod trace;

use adapter::{CellInfo, CellKind, CellOut, Rig, Scale, Workload};
use check::{Pins, DEFAULT_SEED};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::{Acc, Trace};

/// Set-ups per untraced run, each followed by at least one crawl pass;
/// `setup_s` is the median set-up time and cell times are medians over
/// passes.
const SETUP_REPS: usize = 5;
/// Seconds of set-up each of those segments aims for.
const SETUP_SEGMENT_S: f64 = 0.1;
/// Stop starting passes after this long, whatever `--seconds` says.
const HARD_CAP: Duration = Duration::from_secs(120);

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    scale: Scale,
    out: PathBuf,
    print_pins: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scale = Scale::Full;
    let mut out = PathBuf::from("target/crawlbench");
    let mut print_pins = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--print-pins" {
            print_pins = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or(bad("workload"))?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("seed"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad("seconds"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                });
            }
            "--scale" => {
                scale = match value.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    _ => return Err(bad("scale")),
                };
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale,
        out,
        print_pins,
    })
}

/// Runs cells, checks each output and counts failures.
struct Checker<'p> {
    cells: Vec<CellInfo>,
    pins: Option<&'p BTreeMap<String, u64>>,
    first: Vec<Option<u64>>,
    attempted: u64,
    failed: u64,
}

impl<'p> Checker<'p> {
    fn new(cells: Vec<CellInfo>, pins: Option<&'p BTreeMap<String, u64>>) -> Self {
        let first = vec![None; cells.len()];
        Checker {
            cells,
            pins,
            first,
            attempted: 0,
            failed: 0,
        }
    }

    /// Run cell `i` once; a panic or a failed check counts as a failure.
    fn run(&mut self, rig: &mut Rig<'_>, i: usize, trace: Option<&mut Trace>) -> Option<CellOut> {
        self.attempted += 1;
        let label = self.cells[i].label.clone();
        let out = match catch_unwind(AssertUnwindSafe(|| rig.run(i, trace))) {
            Ok(out) => out,
            Err(_) => {
                eprintln!("FAIL {label}: panicked");
                self.failed += 1;
                return None;
            }
        };
        let digest = out.report.digest();
        let mut bad = check::invariants(&out.report, self.cells[i].full_coverage, &out.checks);
        match self.first[i] {
            None => self.first[i] = Some(digest),
            Some(d) if d != digest => {
                bad.push(format!("digest {digest:016x} != first run {d:016x}"))
            }
            Some(_) => {}
        }
        if let Some(pins) = self.pins {
            match pins.get(&label) {
                Some(&p) if p != digest => {
                    bad.push(format!("digest {digest:016x} != pinned {p:016x}"))
                }
                Some(_) => {}
                None => bad.push("no pinned digest".to_string()),
            }
        }
        if bad.is_empty() {
            Some(out)
        } else {
            eprintln!("FAIL {label}: {}", bad.join("; "));
            self.failed += 1;
            None
        }
    }
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit of the checkout, read from `.git` when there is one.
fn git_sha() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let sha = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .ok()
            .or_else(|| {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(r))
                    .map(|l| l.split(' ').next().unwrap_or("").to_string())
            })
            .unwrap_or_default(),
        None => head.to_string(),
    };
    let sha = sha.trim();
    if sha.is_empty() {
        "unknown".to_string()
    } else {
        sha.to_string()
    }
}

/// One metric of the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// What a run measured, for the run record and the result line.
struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    record: Vec<(&'static str, String)>,
}

/// Set up `SETUP_REPS` times over `seconds`, running crawl passes in
/// between.
fn run_untraced(a: &Args, pins: Option<&BTreeMap<String, u64>>) -> Outcome {
    let cells = adapter::cells(a.workload);
    let mut chk = Checker::new(cells.clone(), pins);
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); cells.len()];
    let mut fetched = vec![0u64; cells.len()];
    let mut setup_s = Vec::new();
    let mut rss_mb = 0.0;
    let mut spaces_rec = String::new();
    let start = Instant::now();
    let mut passes = 0;
    // Set-ups are spread over the run, each followed by its share of
    // the crawl passes, so their median samples the machine at several
    // moments rather than in one burst. A set-up of a few milliseconds
    // is noisy, so cheap ones are repeated (and dropped) until a
    // segment spends about SETUP_SEGMENT_S setting up.
    for seg in 0..SETUP_REPS {
        let last = setup_s.last().copied().unwrap_or(SETUP_SEGMENT_S);
        let reps = (SETUP_SEGMENT_S / last).round().clamp(1.0, 5.0) as usize;
        for _ in 1..reps {
            let t = Instant::now();
            let spaces = adapter::generate(a.workload, a.scale, a.seed, None);
            drop(adapter::prepare(a.workload, &spaces, None));
            setup_s.push(t.elapsed().as_secs_f64());
        }
        let t = Instant::now();
        let spaces = adapter::generate(a.workload, a.scale, a.seed, None);
        let mut rig = adapter::prepare(a.workload, &spaces, None);
        setup_s.push(t.elapsed().as_secs_f64());
        let until = Duration::from_secs(a.seconds).mul_f64((seg + 1) as f64 / SETUP_REPS as f64);
        let mut seg_passes = 0;
        while seg_passes == 0 || (start.elapsed() < until && start.elapsed() < HARD_CAP) {
            for i in 0..cells.len() {
                if let Some(out) = chk.run(&mut rig, i, None) {
                    times[i].push(out.ns as f64 / 1e9);
                    fetched[i] = out.fetched;
                }
            }
            if passes == 0 {
                // One set-up and one crawl of every cell: what a
                // researcher's run holds. Later passes only repeat it.
                rss_mb = peak_rss_mb();
            }
            seg_passes += 1;
            passes += 1;
        }
        spaces_rec = spaces_record(&spaces);
    }
    if a.print_pins {
        print_pins(a, &cells, &chk);
    }

    let setup = median(&mut setup_s);
    let cell_s: Vec<f64> = times.iter_mut().map(|t| median(t)).collect();
    let crawl_s: f64 = cell_s.iter().sum();
    let pages: u64 = fetched.iter().sum();
    let metrics = vec![
        m("setup_s", setup, "s"),
        m("crawl_pages_per_s", ratio(pages as f64, crawl_s), "pages/s"),
        m("wall_s", setup + crawl_s, "s"),
        m("peak_rss_mb", rss_mb, "MB"),
    ];
    let cell_record: Vec<String> = cells
        .iter()
        .enumerate()
        .map(|(i, c)| {
            format!(
                "{{\"cell\":{},\"digest\":\"{:016x}\",\"pages\":{},\"median_s\":{},\"min_s\":{},\"max_s\":{},\"runs\":{}}}",
                json_str(&c.label),
                chk.first[i].unwrap_or(0),
                fetched[i],
                cell_s[i],
                times[i].first().unwrap_or(&0.0),
                times[i].last().unwrap_or(&0.0),
                times[i].len()
            )
        })
        .collect();
    Outcome {
        metrics,
        attempted: chk.attempted,
        failed: chk.failed,
        record: vec![
            ("spaces", spaces_rec),
            ("setup_reps", setup_s.len().to_string()),
            ("passes", passes.to_string()),
            ("cells", format!("[{}]", cell_record.join(","))),
        ],
    }
}

fn spaces_record(spaces: &adapter::Spaces) -> String {
    let v: Vec<String> = spaces
        .info()
        .iter()
        .map(|s| {
            format!(
                "{{\"space\":{},\"pages\":{},\"hosts\":{},\"edges\":{}}}",
                json_str(s.label),
                s.pages,
                s.hosts,
                s.edges
            )
        })
        .collect();
    format!("[{}]", v.join(","))
}

fn print_pins(a: &Args, cells: &[CellInfo], chk: &Checker<'_>) {
    for (c, d) in cells.iter().zip(&chk.first) {
        if let Some(d) = d {
            eprintln!(
                "{} {} {} {d:016x} {}",
                a.workload.name(),
                a.scale.name(),
                a.seed,
                c.label
            );
        }
    }
}

/// Set up once under the tracer, then run passes of (untraced cell,
/// traced cell) pairs for `seconds` and derive the per-layer metrics.
fn run_traced(a: &Args, pins: Option<&BTreeMap<String, u64>>) -> Outcome {
    let mut tr = Trace::default();
    let setup = tr.open("setup");
    let spaces = adapter::generate(a.workload, a.scale, a.seed, Some(&mut tr));
    let mut rig = adapter::prepare(a.workload, &spaces, Some(&mut tr));
    tr.close(setup);

    let cells = adapter::cells(a.workload);
    let n = cells.len();
    let mut chk = Checker::new(cells.clone(), pins);
    let mut run = TracedRun {
        first: vec![None; n],
        plain_ns: vec![0; n],
        traced_ns: vec![0; n],
        pages: vec![0; n],
        passes: 0,
        cells,
        tr,
    };
    let start = Instant::now();
    while run.passes == 0
        || (start.elapsed() < Duration::from_secs(a.seconds) && start.elapsed() < HARD_CAP)
    {
        for i in 0..n {
            let plain = chk.run(&mut rig, i, None);
            let pass = run.tr.open(format!("cell {}", run.cells[i].label));
            let traced = chk.run(&mut rig, i, Some(&mut run.tr));
            run.tr.close(pass);
            // The checker has compared both digests with the cell's
            // first one, so a traced report that differs is a failure.
            let (Some(plain), Some(traced)) = (plain, traced) else {
                continue;
            };
            run.plain_ns[i] += plain.ns;
            run.traced_ns[i] += traced.ns;
            run.pages[i] += traced.fetched;
            run.first[i].get_or_insert(traced);
        }
        run.passes += 1;
    }
    let path = a.out.join(format!(
        "{}-{}-seed{}.spans.jsonl",
        a.workload.name(),
        a.scale.name(),
        a.seed
    ));
    if let Err(e) = run.tr.write(&path) {
        eprintln!("cannot write {}: {e}", path.display());
    }
    let mut metrics = run.layer_metrics(spaces.total_pages());
    metrics.push(m(
        "failed_share",
        ratio(chk.failed as f64, chk.attempted as f64),
        "share",
    ));
    Outcome {
        metrics,
        attempted: chk.attempted,
        failed: chk.failed,
        record: vec![
            ("spaces", spaces_record(&spaces)),
            ("passes", run.passes.to_string()),
            ("spans", json_str(&path.display().to_string())),
        ],
    }
}

/// What a traced run collected. Per-cell sums run over all passes;
/// `first` holds each cell's first traced output, whose counts are
/// deterministic.
struct TracedRun {
    tr: Trace,
    cells: Vec<CellInfo>,
    first: Vec<Option<CellOut>>,
    plain_ns: Vec<u64>,
    traced_ns: Vec<u64>,
    pages: Vec<u64>,
    passes: u64,
}

impl TracedRun {
    /// Pages fetched by the traced cells of these kinds.
    fn pages_of(&self, kinds: &[CellKind]) -> u64 {
        self.cells
            .iter()
            .zip(&self.pages)
            .filter(|(c, _)| kinds.contains(&c.kind))
            .map(|(_, &p)| p)
            .sum()
    }

    /// Self time of the spans named with these prefixes, less `minus`,
    /// per page their cells fetched.
    fn self_per_page(&self, prefixes: &[&str], kinds: &[CellKind], minus: u64) -> f64 {
        let own: u64 = prefixes
            .iter()
            .flat_map(|p| self.tr.named(p))
            .map(|i| self.tr.self_ns(i))
            .sum();
        ratio(
            own.saturating_sub(minus) as f64,
            self.pages_of(kinds) as f64,
        )
    }

    /// Untraced time of the first cell of kind `k`.
    fn untraced_of(&self, k: CellKind) -> f64 {
        self.cells
            .iter()
            .position(|c| c.kind == k)
            .map_or(0.0, |i| self.plain_ns[i] as f64)
    }

    fn layer_metrics(&self, space_pages: u64) -> Vec<Metric> {
        let tr = &self.tr;
        let p = self.passes as f64;
        let t = |name: &str| tr.total(name);
        let per_call = |a: Acc| ratio(a.ns as f64, a.calls as f64);
        let rate = |a: Acc| ratio(a.units as f64 * 1e9, a.ns as f64);
        let sched_outs = || {
            self.cells
                .iter()
                .zip(&self.first)
                .filter(|(c, _)| c.kind == CellKind::Sched)
                .filter_map(|(_, o)| o.as_ref())
        };
        let sum_sched = |f: &dyn Fn(&CellOut) -> u64| sched_outs().map(f).sum::<u64>() as f64;
        let shard_sum = |k: usize| sum_sched(&|o| o.shards.iter().map(|s| s[k]).sum());

        let generate_s = tr.total_span_ns("webgraph.generate ") as f64 / 1e9;
        let chain_ns: u64 = [
            "webgraph.synth",
            "url.parse",
            "html.meta",
            "charset.detect",
            "html.links",
            "url.resolve",
            "webgraph.index_resolve",
        ]
        .iter()
        .map(|n| t(n).ns)
        .sum();
        let (synth, detect, links, resolve, index) = (
            t("webgraph.synth"),
            t("charset.detect"),
            t("html.links"),
            t("url.resolve"),
            t("webgraph.index_resolve"),
        );
        let (push, pop, admit, cls, sink) = (
            t("queue.push"),
            t("queue.pop"),
            t("strategy.admit"),
            t("classifier.relevance"),
            t("event.sink"),
        );
        let (record, update, snap, decode) = (
            t("linkgraph.record"),
            t("linkgraph.pagerank_update"),
            t("snapshot.sink"),
            t("snapshot.decode"),
        );
        let imbalance = sched_outs()
            .map(|o| {
                let pops = o.shards.iter().map(|s| s[1]);
                let (hi, lo) = (pops.clone().max().unwrap_or(0), pops.min().unwrap_or(0));
                ratio(hi as f64, lo as f64)
            })
            .fold(0.0, f64::max);
        let resumes = tr.named("snapshot.resume ");
        // The capture re-runs the first scheduled cell with snapshots on.
        let capture = ratio(
            self.untraced_of(CellKind::Capture),
            self.untraced_of(CellKind::Sched),
        );
        let max_pending = self
            .first
            .iter()
            .flatten()
            .map(|o| o.report.max_queue)
            .max();

        vec![
            m("webgraph.generate_s", generate_s, "s"),
            m(
                "webgraph.generate_pages_per_s",
                ratio(space_pages as f64, generate_s),
                "pages/s",
            ),
            m(
                "webgraph.index_build_s",
                tr.total_span_ns("webgraph.index_build ") as f64 / 1e9,
                "s",
            ),
            m("webgraph.synth_ns_per_page", per_call(synth), "ns"),
            m("webgraph.synth_bytes", synth.units as f64 / p, "B"),
            m("webgraph.index_resolve_ns", per_call(index), "ns"),
            m("webgraph.index_lookups", index.calls as f64 / p, "count"),
            m("webgraph.index_misses", index.units as f64 / p, "count"),
            m("charset.detect_bytes_per_s", rate(detect), "B/s"),
            m("charset.detect_calls", detect.calls as f64 / p, "count"),
            m("charset.bytes_scanned", detect.units as f64 / p, "B"),
            m("html.meta_ns_per_page", per_call(t("html.meta")), "ns"),
            m("html.links_bytes_per_s", rate(links), "B/s"),
            m(
                "html.links_extracted",
                t("html.links_extracted").units as f64 / p,
                "count",
            ),
            m("url.parse_ns_per_page", per_call(t("url.parse")), "ns"),
            m("url.resolve_ns_per_link", per_call(resolve), "ns"),
            m("url.links_resolved", resolve.calls as f64 / p, "count"),
            m(
                "engine.self_ns_per_page",
                self.self_per_page(
                    &["engine ", "link "],
                    &[CellKind::Engine, CellKind::Link],
                    0,
                ),
                "ns",
            ),
            m(
                "content.self_ns_per_page",
                self.self_per_page(&["content "], &[CellKind::Content], chain_ns),
                "ns",
            ),
            m(
                "queue.push_ns_per_entry",
                ratio(push.ns as f64, push.units as f64),
                "ns",
            ),
            m("queue.pop_ns", per_call(pop), "ns"),
            m("queue.entries_offered", push.units as f64 / p, "count"),
            m(
                "queue.entries_accepted",
                t("queue.accepted").units as f64 / p,
                "count",
            ),
            m(
                "queue.max_pending",
                max_pending.unwrap_or(0) as f64,
                "count",
            ),
            m("strategy.admit_ns_per_page", per_call(admit), "ns"),
            m("strategy.entries_emitted", admit.units as f64 / p, "count"),
            m("classifier.ns_per_page", per_call(cls), "ns"),
            m(
                "classifier.relevant_share",
                ratio(cls.units as f64, cls.calls as f64),
                "share",
            ),
            m("event.sink_ns_per_event", per_call(sink), "ns"),
            m("event.events", sink.calls as f64 / p, "count"),
            m(
                "linkgraph.admit_ns_per_page",
                per_call(t("linkgraph.admit")),
                "ns",
            ),
            m("linkgraph.record_ns_per_page", per_call(record), "ns"),
            m("linkgraph.edges_recorded", record.units as f64 / p, "count"),
            m("linkgraph.pagerank_update_ns", per_call(update), "ns"),
            m(
                "linkgraph.pagerank_relaxations",
                update.units as f64 / p,
                "count",
            ),
            m(
                "shard.self_ns_per_page",
                self.self_per_page(&["sched "], &[CellKind::Sched], 0),
                "ns",
            ),
            m("shard.pushes", shard_sum(0), "count"),
            m("shard.pops", shard_sum(1), "count"),
            m("shard.handoffs", shard_sum(2), "count"),
            m("shard.load_imbalance", imbalance, "ratio"),
            m(
                "sched.ticks_per_page",
                ratio(
                    sum_sched(&|o| o.report.ticks),
                    sum_sched(&|o| o.report.crawled),
                ),
                "ticks/page",
            ),
            m(
                "sched.slot_idle",
                sum_sched(&|o| o.sched.map_or(0, |s| s[0])),
                "ticks",
            ),
            m(
                "sched.politeness_waits",
                sum_sched(&|o| o.sched.map_or(0, |s| s[1])),
                "count",
            ),
            m("retry.attempts", sum_sched(&|o| o.report.attempts), "count"),
            m("retry.retries", sum_sched(&|o| o.report.retries), "count"),
            m("retry.gave_up", sum_sched(&|o| o.report.gave_up), "count"),
            m("snapshot.captures", snap.calls as f64 / p, "count"),
            m(
                "snapshot.bytes_per_capture",
                ratio(snap.units as f64, snap.calls as f64),
                "B",
            ),
            m(
                "snapshot.capture_overhead",
                if capture > 0.0 { capture - 1.0 } else { 0.0 },
                "ratio",
            ),
            m("snapshot.decode_us", per_call(decode) / 1e3, "us"),
            m(
                "snapshot.resume_s",
                ratio(
                    resumes.iter().map(|&i| tr.duration(i)).sum::<u64>() as f64 / 1e9,
                    resumes.len() as f64,
                ),
                "s",
            ),
            m(
                "trace.overhead",
                ratio(
                    self.traced_ns.iter().sum::<u64>() as f64,
                    self.plain_ns.iter().sum::<u64>() as f64,
                ),
                "ratio",
            ),
        ]
    }
}

fn main() {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("crawlbench: {e}");
            eprintln!(
                "usage: crawlbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--scale full|tiny] [--out DIR] [--print-pins]",
                Workload::ALL.map(Workload::name).join("|")
            );
            std::process::exit(2);
        }
    };
    // Generation runs single-threaded unless LANGCRAWL_THREADS says
    // otherwise: with two threads, the peak RSS of one seed varied by
    // several percent between runs, as allocator arenas fill in thread
    // timing order.
    if std::env::var_os("LANGCRAWL_THREADS").is_none() {
        std::env::set_var("LANGCRAWL_THREADS", "1");
    }
    let all_pins: Pins = check::pins();
    let pins = all_pins.lookup(a.workload.name(), a.scale.name(), a.seed);
    if a.seed == DEFAULT_SEED && pins.is_none() && !a.print_pins {
        eprintln!("note: no pinned digests for the default seed at this scale");
    }
    let threads = adapter::generation_threads();
    let o = if a.trace {
        run_traced(&a, pins)
    } else {
        run_untraced(&a, pins)
    };
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let mut record = vec![
        ("workload", json_str(a.workload.name())),
        ("scale", json_str(a.scale.name())),
        ("seed", a.seed.to_string()),
        ("seconds", a.seconds.to_string()),
        ("trace", u8::from(a.trace).to_string()),
        ("pinned", (pins.is_some()).to_string()),
        ("nproc", nproc.to_string()),
        ("langcrawl_threads", threads.to_string()),
        ("git_sha", json_str(&git_sha())),
        (
            "failed_share",
            ratio(o.failed as f64, o.attempted as f64).to_string(),
        ),
    ];
    record.extend(o.record);
    let fields: Vec<String> = record
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k)))
        .collect();
    println!("{{\"run\":{{{}}}}}", fields.join(","));
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|mt| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(mt.name),
                mt.value,
                json_str(mt.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        o.failed == 0,
        o.attempted,
        o.failed,
        metrics.join(",")
    );
}
