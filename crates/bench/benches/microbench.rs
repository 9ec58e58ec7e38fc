//! Self-contained microbenches for the hot paths of the stack: URL
//! queue operations, charset detection, parallel web-space generation,
//! end-to-end simulator throughput — and the cost of the event-sink
//! seam the layered engine introduced. Per-layer HTML, URL and
//! generation timings come from crawlbench's traced run instead.
//!
//! These are the numbers that justify the perf-relevant design choices
//! in DESIGN.md (bucketed queue, CSR graph, monomorphic engine loop,
//! per-host-stream parallel generation). No
//! external harness: each bench warms up, runs until a fixed time
//! budget, and reports min/median wall time. `LANGCRAWL_SCALE` sets the
//! space size for the simulator benches (default 50k here; the
//! DESIGN.md overhead figure uses 200k).
//!
//! With `--json`, additionally writes a machine-readable trajectory
//! point `BENCH_<git-short-sha>.json` (generation / queue / detector /
//! end-to-end throughput plus the gate verdicts) so CI can archive one
//! bench record per commit. The gates — sink overhead ≤ 5%, parallel
//! generation bit-parity, ≥2× generation speedup on 4+ cores,
//! retry-machinery overhead ≤ 10% at zero fault rate, single-slot
//! scheduler overhead ≤ 5% over the legacy loop, and a ≥5× end-to-end
//! speedup of the incremental link-analysis engine over the legacy
//! full-recompute PageRank ordering — fail the process with a nonzero
//! exit either way.

use langcrawl_bench::runner::env_scale;
use langcrawl_charset::encode::{
    encode_japanese, encode_thai, japanese_demo_tokens, thai_demo_tokens,
};
use langcrawl_charset::{detect, Charset};
use langcrawl_core::classifier::OracleClassifier;
use langcrawl_core::linkgraph::pagerank::RankState;
use langcrawl_core::queue::{Entry, UrlQueue};
use langcrawl_core::sched::SchedConfig;
use langcrawl_core::sim::{SimConfig, Simulator};
use langcrawl_core::strategy::{
    LimitedDistanceStrategy, OnlinePageRank, PageView, SimpleStrategy, Strategy,
};
use langcrawl_core::{CrawlEngine, EngineConfig, LinkGraph};
use langcrawl_webgraph::generate::generate_with_threads;
use langcrawl_webgraph::parallel::effective_threads;
use langcrawl_webgraph::{FaultConfig, GeneratorConfig, PageId};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Allocation counting, behind the `count-allocs` feature: a
/// dependency-free `#[global_allocator]` wrapper around the system
/// allocator that bumps one relaxed atomic per `alloc`/`realloc`. It
/// lives in this bench target (not the library, which forbids `unsafe`)
/// because only the microbench needs it, and only when asked: counting
/// perturbs the throughput sections, so the default build stays on the
/// plain system allocator and the steady-state gate reports "not
/// gated".
#[cfg(feature = "count-allocs")]
mod counting_alloc {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Heap allocations observed since process start (alloc + realloc;
    /// deallocations are not counted — the gate cares about allocation
    /// *events*, not live bytes).
    pub(crate) static ALLOCS: AtomicU64 = AtomicU64::new(0);

    pub(crate) struct CountingAlloc;

    // SAFETY: every method forwards verbatim to `System`, which upholds
    // the `GlobalAlloc` contract; the counter increments touch no
    // allocator state and cannot affect the returned memory.
    unsafe impl GlobalAlloc for CountingAlloc {
        // SAFETY: caller contract forwarded unchanged to `System`.
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            System.alloc(layout)
        }

        // SAFETY: `ptr` was returned by this allocator, i.e. by
        // `System`, with the same `layout` — `System`'s own contract.
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }

        // SAFETY: caller contract forwarded unchanged to `System`.
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            System.realloc(ptr, layout, new_size)
        }
    }

    #[global_allocator]
    static COUNTING: CountingAlloc = CountingAlloc;
}

/// Allocation events so far; `0` forever when counting is off.
fn alloc_count() -> u64 {
    #[cfg(feature = "count-allocs")]
    {
        counting_alloc::ALLOCS.load(std::sync::atomic::Ordering::Relaxed)
    }
    #[cfg(not(feature = "count-allocs"))]
    {
        0
    }
}

/// Whether the counting allocator is compiled in.
const COUNTING_ALLOCS: bool = cfg!(feature = "count-allocs");

/// Run `f` repeatedly for ~`budget`, after one warmup call. Returns the
/// per-iteration minimum and median.
fn measure<R>(budget: Duration, mut f: impl FnMut() -> R) -> (Duration, Duration) {
    black_box(f());
    let mut times = Vec::new();
    let start = Instant::now();
    while start.elapsed() < budget || times.len() < 3 {
        let t = Instant::now();
        black_box(f());
        times.push(t.elapsed());
        if times.len() >= 1_000 {
            break;
        }
    }
    times.sort();
    (times[0], times[times.len() / 2])
}

fn fmt(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 10_000 {
        format!("{ns} ns")
    } else if ns < 10_000_000 {
        format!("{:.1} µs", ns as f64 / 1_000.0)
    } else {
        format!("{:.2} ms", ns as f64 / 1_000_000.0)
    }
}

/// One bench line: name, timings, optional throughput from `units/iter`.
/// Returns units-per-second from the median (0.0 when `units` is None).
fn bench<R>(name: &str, units: Option<(f64, &str)>, f: impl FnMut() -> R) -> f64 {
    let (min, median) = measure(Duration::from_millis(200), f);
    let mut per_sec = 0.0;
    let rate = match units {
        Some((n, unit)) => {
            per_sec = n / median.as_secs_f64();
            format!("  ({:.1} M{unit}/s)", per_sec / 1.0e6)
        }
        None => String::new(),
    };
    println!(
        "  {name:<40} min {:>10}  median {:>10}{rate}",
        fmt(min),
        fmt(median)
    );
    per_sec
}

/// The machine-readable trajectory point `--json` emits, plus the gate
/// verdicts that decide the exit code.
#[derive(Default)]
struct BenchRecord {
    queue_ops_per_s: f64,
    batch_admit_ops_per_s: f64,
    detector_bytes_per_s: f64,
    dfa_bytes_per_s: f64,
    generation_pages_per_s_1t: f64,
    generation_pages_per_s: f64,
    generation_speedup: f64,
    /// Worker threads the parallel run actually used.
    generation_threads: usize,
    /// The machine's `available_parallelism`, reported alongside the
    /// thread count actually used so the speedup gate is interpretable
    /// across CI hosts (a 1.0× speedup on a 1-core runner is fine; the
    /// same number on a 16-core box is a bug).
    generation_available_parallelism: usize,
    thread_parity_ok: bool,
    speedup_gated: bool,
    speedup_ok: bool,
    simulator_pages_per_s: f64,
    sink_overhead: f64,
    sink_overhead_ok: bool,
    fault_overhead: f64,
    fault_overhead_ok: bool,
    sched_overhead: f64,
    sched_overhead_ok: bool,
    snapshot_overhead: f64,
    snapshot_overhead_ok: bool,
    /// Allocations per fetch over the final stretch of a warm crawl —
    /// must be exactly zero when the counting allocator is compiled in.
    steady_state_allocs_per_fetch: f64,
    /// The same for a warm content-mode crawl (render, classify, scan,
    /// canonicalize, index lookup).
    content_allocs_per_fetch: f64,
    content_steady_state_ok: bool,
    steady_state_gated: bool,
    steady_state_ok: bool,
    /// Worklist relaxations per second of the incremental rank solver
    /// driven over a full space ingest.
    link_rank_updates_per_s: f64,
    /// End-to-end pagerank-ordered crawl throughput, incremental engine.
    link_pagerank_pages_per_s: f64,
    /// Same crawl under the legacy hash-map full recompute.
    link_pagerank_legacy_pages_per_s: f64,
    /// `link_pagerank_pages_per_s / link_pagerank_legacy_pages_per_s`.
    link_speedup: f64,
    link_speedup_ok: bool,
}

impl BenchRecord {
    fn failures(&self) -> Vec<&'static str> {
        let mut out = Vec::new();
        if !self.thread_parity_ok {
            out.push("parallel generation is not bit-identical across thread counts");
        }
        if self.speedup_gated && !self.speedup_ok {
            out.push("parallel generation speedup below 2x on 4+ cores");
        }
        if !self.sink_overhead_ok {
            out.push("event-sink seam overhead above the 5% budget");
        }
        if !self.fault_overhead_ok {
            out.push("retry machinery overhead above the 10% budget at zero fault rate");
        }
        if !self.sched_overhead_ok {
            out.push("single-slot scheduler overhead above the 5% budget over the legacy loop");
        }
        if !self.snapshot_overhead_ok {
            out.push("snapshot capture overhead above the 5% budget at every-1000-ticks cadence");
        }
        if self.steady_state_gated && !self.steady_state_ok {
            out.push("steady-state crawl fetches allocate (must be zero after warm-up)");
        }
        if self.steady_state_gated && !self.content_steady_state_ok {
            out.push("steady-state content-mode fetches allocate (must be zero after warm-up)");
        }
        if !self.link_speedup_ok {
            out.push("incremental link-analysis speedup below 5x over the legacy recompute");
        }
        out
    }

    fn to_json(&self, git: &str, scale: u32) -> String {
        format!(
            concat!(
                "{{\n",
                "  \"git\": \"{git}\",\n",
                "  \"scale\": {scale},\n",
                "  \"queue_ops_per_s\": {queue:.0},\n",
                "  \"batch_admit_ops_per_s\": {batch:.0},\n",
                "  \"detector_bytes_per_s\": {det:.0},\n",
                "  \"dfa_bytes_per_s\": {dfa:.0},\n",
                "  \"generation\": {{\n",
                "    \"pages_per_s_1t\": {g1:.0},\n",
                "    \"pages_per_s\": {gn:.0},\n",
                "    \"speedup\": {sp:.3},\n",
                "    \"threads\": {th},\n",
                "    \"available_parallelism\": {ap}\n",
                "  }},\n",
                "  \"simulator_pages_per_s\": {sim:.0},\n",
                "  \"sink_overhead\": {ov:.4},\n",
                "  \"fault_overhead\": {fov:.4},\n",
                "  \"sched_overhead\": {sov:.4},\n",
                "  \"snapshot_overhead\": {snov:.4},\n",
                "  \"steady_state_allocs_per_fetch\": {ssa:.4},\n",
                "  \"content_allocs_per_fetch\": {csa:.4},\n",
                "  \"link_analysis\": {{\n",
                "    \"rank_updates_per_s\": {lru:.0},\n",
                "    \"pagerank_pages_per_s\": {lpp:.0},\n",
                "    \"legacy_pages_per_s\": {llp:.0},\n",
                "    \"speedup\": {lsp:.3}\n",
                "  }},\n",
                "  \"gates\": {{\n",
                "    \"thread_parity_ok\": {par},\n",
                "    \"speedup_gated\": {spg},\n",
                "    \"speedup_ok\": {spok},\n",
                "    \"sink_overhead_ok\": {ovok},\n",
                "    \"fault_overhead_ok\": {fovok},\n",
                "    \"sched_overhead_ok\": {sovok},\n",
                "    \"snapshot_overhead_ok\": {snovok},\n",
                "    \"steady_state_gated\": {ssg},\n",
                "    \"steady_state_ok\": {ssok},\n",
                "    \"content_steady_state_ok\": {cssok},\n",
                "    \"link_speedup_ok\": {lspok}\n",
                "  }}\n",
                "}}\n"
            ),
            git = git,
            scale = scale,
            queue = self.queue_ops_per_s,
            batch = self.batch_admit_ops_per_s,
            det = self.detector_bytes_per_s,
            dfa = self.dfa_bytes_per_s,
            g1 = self.generation_pages_per_s_1t,
            gn = self.generation_pages_per_s,
            sp = self.generation_speedup,
            th = self.generation_threads,
            ap = self.generation_available_parallelism,
            sim = self.simulator_pages_per_s,
            ov = self.sink_overhead,
            fov = self.fault_overhead,
            sov = self.sched_overhead,
            snov = self.snapshot_overhead,
            ssa = self.steady_state_allocs_per_fetch,
            csa = self.content_allocs_per_fetch,
            lru = self.link_rank_updates_per_s,
            lpp = self.link_pagerank_pages_per_s,
            llp = self.link_pagerank_legacy_pages_per_s,
            lsp = self.link_speedup,
            par = self.thread_parity_ok,
            spg = self.speedup_gated,
            spok = self.speedup_ok,
            ovok = self.sink_overhead_ok,
            fovok = self.fault_overhead_ok,
            sovok = self.sched_overhead_ok,
            snovok = self.snapshot_overhead_ok,
            ssg = self.steady_state_gated,
            ssok = self.steady_state_ok,
            cssok = self.content_steady_state_ok,
            lspok = self.link_speedup_ok,
        )
    }
}

fn bench_queue(rec: &mut BenchRecord) {
    println!("queue:");
    rec.queue_ops_per_s = bench("push_pop_100k_2levels", Some((100_000.0, "ops")), || {
        let mut q = UrlQueue::new(100_000, 2);
        for i in 0..100_000u32 {
            q.push(Entry {
                page: i,
                priority: (i % 2) as u8,
                distance: 0,
            });
        }
        let mut n = 0u32;
        while let Some(e) = q.pop() {
            n = n.wrapping_add(e.page);
        }
        n
    });
    bench(
        "push_pop_100k_reprioritized",
        Some((200_000.0, "ops")),
        || {
            let mut q = UrlQueue::new(100_000, 5);
            // Every page admitted twice: low priority then high.
            for i in 0..100_000u32 {
                q.push(Entry {
                    page: i,
                    priority: 4,
                    distance: 4,
                });
            }
            for i in 0..100_000u32 {
                q.push(Entry {
                    page: i,
                    priority: 0,
                    distance: 0,
                });
            }
            let mut n = 0u32;
            while let Some(e) = q.pop() {
                n = n.wrapping_add(e.page);
            }
            n
        },
    );
}

/// Batched admission through [`ShardedFrontier::push_all`] — the shape
/// of the engine's hot admission path after the zero-allocation
/// rewrite: outlinks arrive as one batch per fetch, and each accepted
/// entry joins its level's ring without consulting host state.
fn bench_batch_admit(rec: &mut BenchRecord) {
    use langcrawl_core::frontier::Frontier;
    use langcrawl_core::shard::ShardedFrontier;
    println!("sharded_frontier:");
    const PAGES: u32 = 100_000;
    const HOSTS: usize = 1_000;
    const BATCH: u32 = 25;
    let host_of_page: Vec<u32> = (0..PAGES).map(|p| p % HOSTS as u32).collect();
    rec.batch_admit_ops_per_s = bench(
        "batch_admit_100k_batch25_4shards",
        Some((2.0 * PAGES as f64, "ops")),
        || {
            let mut f = ShardedFrontier::new(host_of_page.clone(), HOSTS, 2, 4);
            let mut batch = [Entry {
                page: 0,
                priority: 0,
                distance: 0,
            }; BATCH as usize];
            for chunk in 0..PAGES / BATCH {
                for (i, slot) in batch.iter_mut().enumerate() {
                    let page = chunk * BATCH + i as u32;
                    *slot = Entry {
                        page,
                        priority: (page % 2) as u8,
                        distance: 0,
                    };
                }
                f.push_all(&batch);
            }
            let mut n = 0u32;
            while let Some(e) = f.pop() {
                n = n.wrapping_add(e.page);
            }
            n
        },
    );
}

fn bench_detect(rec: &mut BenchRecord) {
    println!("charset_detect:");
    let ja = japanese_demo_tokens();
    let ja: Vec<_> = ja.iter().cycle().take(2_000).copied().collect();
    let th = thai_demo_tokens();
    let th: Vec<_> = th.iter().cycle().take(2_000).copied().collect();
    let cases = [
        ("eucjp", encode_japanese(&ja, Charset::EucJp)),
        ("sjis", encode_japanese(&ja, Charset::ShiftJis)),
        ("iso2022jp", encode_japanese(&ja, Charset::Iso2022Jp)),
        ("utf8_ja", encode_japanese(&ja, Charset::Utf8)),
        ("tis620", encode_thai(&th, Charset::Tis620)),
        (
            "ascii",
            b"the quick brown fox jumps over the lazy dog. "
                .repeat(80)
                .to_vec(),
        ),
    ];
    let mut total = 0.0;
    for (name, bytes) in &cases {
        total += bench(name, Some((bytes.len() as f64, "B")), || {
            detect(black_box(bytes)).charset
        });
    }
    rec.detector_bytes_per_s = total / cases.len() as f64;

    // The fused-DFA throughput on its own: one long single-encoding
    // buffer, so the run is dominated by the flat `state * 256 + byte`
    // table walk rather than prober setup or candidate ranking. Kept
    // out of the `detector_bytes_per_s` mean so that metric stays
    // comparable with earlier trajectory points.
    println!("charset_dfa:");
    let long_ja: Vec<_> = japanese_demo_tokens()
        .iter()
        .cycle()
        .take(40_000)
        .copied()
        .collect();
    let long = encode_japanese(&long_ja, Charset::EucJp);
    rec.dfa_bytes_per_s = bench(
        "eucjp_fused_dfa_long",
        Some((long.len() as f64, "B")),
        || detect(black_box(&long)).charset,
    );
}

/// Parallel generation: 1 thread vs all available, on the 200k figure
/// preset. Checks bit-parity between the two spaces (the
/// thread-count-independence contract) and, on 4+ cores, gates a ≥2×
/// speedup.
fn bench_generate_parallel(rec: &mut BenchRecord) {
    let threads = effective_threads();
    let scale = 200_000u32;
    let cfg = GeneratorConfig::thai_like().scaled(scale);
    println!("webgraph_generate_parallel (n={scale}, threads={threads}):");

    let time_min = |t: usize| {
        let mut best = Duration::MAX;
        let mut hash = 0u64;
        for _ in 0..3 {
            let t0 = Instant::now();
            let ws = generate_with_threads(&cfg, 7, t);
            best = best.min(t0.elapsed());
            hash = ws.content_hash();
        }
        (best, hash)
    };
    let (t1, h1) = time_min(1);
    let (tn, hn) = time_min(threads);

    // Record the worker count the parallel run *actually used* (the
    // resolved `effective_threads()`, honoring `LANGCRAWL_THREADS`)
    // next to the machine's raw `available_parallelism`; earlier
    // records conflated the two, which made a 1.0× speedup on a capped
    // run indistinguishable from a real regression.
    rec.generation_threads = threads;
    rec.generation_available_parallelism =
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    rec.generation_pages_per_s_1t = scale as f64 / t1.as_secs_f64();
    rec.generation_pages_per_s = scale as f64 / tn.as_secs_f64();
    rec.generation_speedup = t1.as_secs_f64() / tn.as_secs_f64();
    rec.thread_parity_ok = h1 == hn;
    // Gate only when the run both asked for and can get 4+ workers: a
    // capped `LANGCRAWL_THREADS=8` on a 2-core runner cannot hit 2×.
    rec.speedup_gated = threads >= 4 && rec.generation_available_parallelism >= 4;
    rec.speedup_ok = rec.generation_speedup >= 2.0;

    println!(
        "  1 thread  {:>10}   ({:.2} M pages generated/s)",
        fmt(t1),
        rec.generation_pages_per_s_1t / 1.0e6
    );
    println!(
        "  {threads} threads {:>10}   ({:.2} M pages generated/s)",
        fmt(tn),
        rec.generation_pages_per_s / 1.0e6
    );
    println!(
        "  speedup {:.2}x  [{}]   thread parity [{}]",
        rec.generation_speedup,
        if !rec.speedup_gated {
            "not gated below 4 cores"
        } else if rec.speedup_ok {
            "OK"
        } else {
            "BELOW 2x"
        },
        if rec.thread_parity_ok {
            "OK"
        } else {
            "MISMATCH"
        },
    );
}

fn bench_simulate(rec: &mut BenchRecord, scale: u32) {
    println!("simulate (n={scale}):");
    let ws = GeneratorConfig::thai_like().scaled(scale).build(7);
    let oracle = OracleClassifier::target(ws.target_language());
    let pages = ws.num_pages() as f64;
    rec.simulator_pages_per_s = bench("soft_focused_full_crawl", Some((pages, "pages")), || {
        let mut sim = Simulator::new(&ws, SimConfig::default());
        sim.run(&mut SimpleStrategy::soft(), &oracle).crawled
    });
    bench(
        "prioritized_limited3_full_crawl",
        Some((pages, "pages")),
        || {
            let mut sim = Simulator::new(&ws, SimConfig::default());
            sim.run(&mut LimitedDistanceStrategy::prioritized(3), &oracle)
                .crawled
        },
    );
}

/// Number of priority buckets importance is quantized onto (mirrors the
/// strategy module's constant for the frozen legacy baseline below).
const LEGACY_BUCKETS: u8 = 8;

/// The historical PageRank-ordered strategy, frozen verbatim as the
/// bench baseline: per-strategy `HashMap` adjacency, full power
/// iteration over fresh hash maps at every interval. The incremental
/// engine's ≥5× end-to-end gate is measured against this.
struct LegacyOnlinePageRank {
    interval: u64,
    iterations: u32,
    damping: f64,
    adjacency: HashMap<PageId, Vec<PageId>>,
    rank: HashMap<PageId, f64>,
}

impl LegacyOnlinePageRank {
    fn new() -> Self {
        LegacyOnlinePageRank {
            interval: 2_000,
            iterations: 10,
            damping: 0.85,
            adjacency: HashMap::new(),
            rank: HashMap::new(),
        }
    }

    fn recompute(&mut self) {
        let n = self.adjacency.len();
        if n == 0 {
            return;
        }
        let mut ids: Vec<PageId> = self.adjacency.keys().copied().collect();
        ids.sort_unstable();
        let base = (1.0 - self.damping) / n as f64;
        let mut rank: HashMap<PageId, f64> = ids.iter().map(|&p| (p, 1.0 / n as f64)).collect();
        for _ in 0..self.iterations {
            let mut next: HashMap<PageId, f64> = ids.iter().map(|&p| (p, base)).collect();
            for &p in &ids {
                let outs = &self.adjacency[&p];
                if outs.is_empty() {
                    continue;
                }
                let share = self.damping * rank[&p] / outs.len() as f64;
                for t in outs {
                    if let Some(r) = next.get_mut(t) {
                        *r += share;
                    }
                }
            }
            rank = next;
        }
        self.rank = rank;
    }

    fn bucket(&self, mass: f64, n: usize) -> u8 {
        let rel = mass * n as f64;
        let level = rel
            .max(1e-9)
            .log2()
            .clamp(-1.0, LEGACY_BUCKETS as f64 - 2.0);
        ((LEGACY_BUCKETS as f64 - 2.0 - level).round() as i64).clamp(0, LEGACY_BUCKETS as i64 - 1)
            as u8
    }
}

impl Strategy for LegacyOnlinePageRank {
    fn name(&self) -> String {
        format!("legacy-pagerank-ordered(every {})", self.interval)
    }

    fn levels(&self) -> usize {
        LEGACY_BUCKETS as usize
    }

    fn admit(&mut self, view: &PageView<'_>, out: &mut Vec<Entry>) {
        self.adjacency.insert(view.page, view.outlinks.to_vec());
        if view.crawled.is_multiple_of(self.interval) {
            self.recompute();
        }
        let n = self.adjacency.len().max(1);
        let own_rank = self.rank.get(&view.page).copied().unwrap_or(1.0 / n as f64);
        let share = own_rank / view.outlinks.len().max(1) as f64;
        for &t in view.outlinks {
            out.push(Entry {
                page: t,
                priority: self.bucket(share, n),
                distance: 0,
            });
        }
    }
}

/// The link-analysis engine section: raw incremental-solver relaxation
/// rate over a full space ingest, plus the end-to-end acceptance gate —
/// a whole pagerank-ordered crawl under the incremental engine must run
/// ≥5× faster than under the legacy full-recompute baseline above.
/// Capped at 40k pages so the legacy side (quadratic in crawl length)
/// stays benchable.
fn bench_link_analysis(rec: &mut BenchRecord, scale: u32) {
    let n = scale.min(40_000);
    println!("link analysis (n={n}):");
    let ws = GeneratorConfig::thai_like().scaled(n).build(7);
    let oracle = OracleClassifier::target(ws.target_language());
    let pages = ws.num_pages() as f64;

    // Raw solver rate: ingest the whole space into the shared store,
    // refreshing every 2 000 pages (the strategy's default cadence).
    let run_solver = || {
        let mut g = LinkGraph::with_page_capacity(ws.num_pages());
        let mut st = RankState::new(0.85);
        let mut i = 0u64;
        for p in ws.page_ids() {
            g.record_page(p, ws.outlinks(p));
            i += 1;
            if i.is_multiple_of(2_000) {
                st.update(&mut g);
            }
        }
        st.update(&mut g);
        st.relaxations()
    };
    // The solver is deterministic, so one dry run pins the relaxation
    // count the timed runs will repeat.
    let relaxations = run_solver() as f64;
    rec.link_rank_updates_per_s = bench(
        "rank_solver_ingest_full_space",
        Some((relaxations, "updates")),
        run_solver,
    );

    // The end-to-end race: a full pagerank-ordered crawl on the
    // incremental engine vs the frozen legacy full recompute. Timed
    // interleaved and compared on per-config minima, like the overhead
    // gates — each minimum comes from an uncontended round, which is
    // what makes the ratio reproducible on a shared machine.
    let run_inc = || {
        let mut sim = Simulator::new(&ws, SimConfig::default());
        black_box(sim.run(&mut OnlinePageRank::new(), &oracle).crawled)
    };
    let run_legacy = || {
        let mut sim = Simulator::new(&ws, SimConfig::default());
        black_box(sim.run(&mut LegacyOnlinePageRank::new(), &oracle).crawled)
    };
    run_inc();
    run_legacy();
    let mut t_inc = Duration::MAX;
    let mut t_legacy = Duration::MAX;
    for _ in 0..5 {
        let t = Instant::now();
        run_inc();
        t_inc = t_inc.min(t.elapsed());
        let t = Instant::now();
        run_legacy();
        t_legacy = t_legacy.min(t.elapsed());
    }
    rec.link_pagerank_pages_per_s = pages / t_inc.as_secs_f64();
    rec.link_pagerank_legacy_pages_per_s = pages / t_legacy.as_secs_f64();
    println!(
        "  {:<40} min {:>10}  ({:.1} Mpages/s)",
        "pagerank_ordered_full_crawl",
        fmt(t_inc),
        rec.link_pagerank_pages_per_s / 1.0e6
    );
    println!(
        "  {:<40} min {:>10}  ({:.1} Mpages/s)",
        "legacy_pagerank_full_crawl",
        fmt(t_legacy),
        rec.link_pagerank_legacy_pages_per_s / 1.0e6
    );
    rec.link_speedup = t_legacy.as_secs_f64() / t_inc.as_secs_f64();
    rec.link_speedup_ok = rec.link_speedup >= 5.0;
    println!(
        "  incremental vs legacy end-to-end: {:.1}x  [{}]",
        rec.link_speedup,
        if rec.link_speedup_ok {
            "OK"
        } else {
            "BELOW 5x GATE"
        }
    );
}

/// The acceptance gate for the layered refactor: the event-sink seam
/// (Simulator = engine + metrics sink + report assembly) must cost no
/// more than 5% over the bare engine loop with no sinks attached. The
/// two configurations are timed *interleaved* so clock-frequency drift
/// and cache warmth hit both equally, and compared on per-config
/// minima — each minimum comes from an uncontended round, which is
/// what makes the ratio reproducible on a shared machine.
fn bench_sink_overhead(rec: &mut BenchRecord, scale: u32) {
    println!("engine sink overhead (n={scale}):");
    let ws = GeneratorConfig::thai_like().scaled(scale).build(7);
    let oracle = OracleClassifier::target(ws.target_language());
    let engine = CrawlEngine::new(&ws, EngineConfig::default());

    let run_bare = || {
        let mut strategy = SimpleStrategy::soft();
        black_box(engine.run(
            UrlQueue::new(ws.num_pages(), strategy.levels()),
            &mut strategy,
            &oracle,
            &mut [],
        ))
    };
    let run_sinked = || {
        let mut sim = Simulator::new(&ws, SimConfig::default());
        black_box(sim.run(&mut SimpleStrategy::soft(), &oracle).crawled)
    };

    run_bare();
    run_sinked();
    let mut bare = Duration::MAX;
    let mut sinked = Duration::MAX;
    for _ in 0..40 {
        let t = Instant::now();
        run_bare();
        bare = bare.min(t.elapsed());
        let t = Instant::now();
        run_sinked();
        sinked = sinked.min(t.elapsed());
    }
    let overhead = sinked.as_secs_f64() / bare.as_secs_f64() - 1.0;
    rec.sink_overhead = overhead;
    rec.sink_overhead_ok = overhead <= 0.05;
    println!(
        "  bare engine {:>10}   simulator+sinks {:>10}   overhead {:+.1}%  [{}]",
        fmt(bare),
        fmt(sinked),
        100.0 * overhead,
        if rec.sink_overhead_ok {
            "OK"
        } else {
            "OVER BUDGET"
        }
    );
}

/// The acceptance gate for the fault/retry layer: a *zero-fault-rate*
/// fault config (host classes drawn, but every failure rate 0.0 so
/// nothing can ever fire) must cost no more than 10% over the plain
/// `FaultConfig::default()` loop. The engine earns this by eliding the
/// realized model when it is provably inert (`FaultModel::is_inert`) —
/// the gate exists to catch any regression of that fast path, e.g. an
/// eagerly allocated attempt table or unconditional retry-heap traffic
/// sneaking back into the zero-fault loop. Timed interleaved and
/// compared on per-config minima, like the sink-overhead gate.
fn bench_fault_overhead(rec: &mut BenchRecord, scale: u32) {
    println!("engine fault-path overhead (n={scale}):");
    let ws = GeneratorConfig::thai_like().scaled(scale).build(7);
    let oracle = OracleClassifier::target(ws.target_language());
    let plain = CrawlEngine::new(&ws, EngineConfig::default());
    // A nonzero host-class fraction defeats `is_zero()` so every
    // fault-path branch runs, while the all-zero *rates* mean no fetch
    // ever fails — the retry machinery's pure overhead.
    let armed = CrawlEngine::new(
        &ws,
        EngineConfig {
            fault: FaultConfig {
                flaky_host_rate: 0.05,
                ..FaultConfig::default()
            },
            ..EngineConfig::default()
        },
    );

    let run = |engine: &CrawlEngine| {
        let mut strategy = SimpleStrategy::soft();
        black_box(
            engine
                .run(
                    UrlQueue::new(ws.num_pages(), strategy.levels()),
                    &mut strategy,
                    &oracle,
                    &mut [],
                )
                .crawled,
        )
    };

    let baseline = run(&plain);
    let faulted = run(&armed);
    assert_eq!(
        baseline, faulted,
        "a never-firing fault model must not change what gets crawled"
    );
    let mut t_plain = Duration::MAX;
    let mut t_armed = Duration::MAX;
    for _ in 0..120 {
        let t = Instant::now();
        run(&plain);
        t_plain = t_plain.min(t.elapsed());
        let t = Instant::now();
        run(&armed);
        t_armed = t_armed.min(t.elapsed());
    }
    let overhead = t_armed.as_secs_f64() / t_plain.as_secs_f64() - 1.0;
    rec.fault_overhead = overhead;
    rec.fault_overhead_ok = overhead <= 0.10;
    println!(
        "  zero-fault path {:>10}   retry machinery {:>10}   overhead {:+.1}%  [{}]",
        fmt(t_plain),
        fmt(t_armed),
        100.0 * overhead,
        if rec.fault_overhead_ok {
            "OK"
        } else {
            "OVER BUDGET"
        }
    );
}

/// The acceptance gate for the scheduler's default path: a default
/// (single-slot, politeness-free) scheduled run — bit-identical to the
/// legacy loop by the conformance suite — must cost no more than 5%
/// over that loop. With no `SlotIdle`-interested sink the
/// degenerate-point elision routes `run_scheduled` to the legacy loop
/// itself (the same move as the fault layer's inert-model fast path),
/// so this gate prices the *elided* default path — the dispatch in
/// front of the loop — and catches the elision regressing. It does not
/// price the virtual-time event loop at `K = 1`, which costs more than
/// the legacy loop and is why the elision exists (DESIGN.md §5). Timed
/// interleaved and compared on per-config minima, like the other
/// overhead gates.
fn bench_sched_overhead(rec: &mut BenchRecord, scale: u32) {
    println!("scheduler overhead at K=1 (n={scale}):");
    let ws = GeneratorConfig::thai_like().scaled(scale).build(7);
    let oracle = OracleClassifier::target(ws.target_language());
    let engine = CrawlEngine::new(&ws, EngineConfig::default());
    let sched = SchedConfig::default();

    let run_legacy = || {
        let mut strategy = SimpleStrategy::soft();
        black_box(
            engine
                .run(
                    UrlQueue::new(ws.num_pages(), strategy.levels()),
                    &mut strategy,
                    &oracle,
                    &mut [],
                )
                .crawled,
        )
    };
    let run_sched = || {
        black_box(
            engine
                .run_scheduled(&sched, &mut SimpleStrategy::soft(), &oracle, &mut [])
                .crawled,
        )
    };

    let legacy_crawled = run_legacy();
    let sched_crawled = run_sched();
    assert_eq!(
        legacy_crawled, sched_crawled,
        "a K=1 politeness-free schedule must crawl exactly the legacy set"
    );
    let mut t_legacy = Duration::MAX;
    let mut t_sched = Duration::MAX;
    for _ in 0..40 {
        let t = Instant::now();
        run_legacy();
        t_legacy = t_legacy.min(t.elapsed());
        let t = Instant::now();
        run_sched();
        t_sched = t_sched.min(t.elapsed());
    }
    let overhead = t_sched.as_secs_f64() / t_legacy.as_secs_f64() - 1.0;
    rec.sched_overhead = overhead;
    rec.sched_overhead_ok = overhead <= 0.05;
    println!(
        "  legacy loop {:>10}   K=1 scheduler {:>10}   overhead {:+.1}%  [{}]",
        fmt(t_legacy),
        fmt(t_sched),
        100.0 * overhead,
        if rec.sched_overhead_ok {
            "OK"
        } else {
            "OVER BUDGET"
        }
    );
}

/// The acceptance gate for checkpoint capture: a multi-slot scheduled
/// run that snapshots its complete state every 1000 virtual ticks must
/// cost no more than 5% over the identical run without capture. The
/// capture path earns this by doing nothing at all between capture
/// ticks (one `u64` compare at the loop top) and by encoding into a
/// scheduler-owned reused buffer when one fires; the gate catches any
/// per-tick bookkeeping sneaking into the hot loop.
///
/// Statistic: the every-1000 cadence fires ~5 captures on a
/// multi-millisecond run — a signal smaller than a shared runner's
/// run-to-run jitter, so directly differencing the two arms at that
/// cadence does not reproduce (per-arm minima land on different
/// machine states; paired medians need hundreds of rounds to
/// converge). Capture cost itself is cadence-independent — each
/// capture encodes the same state the tick boundary exposes — so the
/// gate measures it where the signal dwarfs the noise, at every=100
/// (~50 captures, interleaved per-arm minima), and prices the
/// every-1000 cadence by scaling the measured capture cost with the
/// ratio of *measured* snapshot bytes between the two cadences. Both
/// cadences run real captures; only the timing happens on the
/// amplified one.
fn bench_snapshot_overhead(rec: &mut BenchRecord, scale: u32) {
    use langcrawl_core::SnapshotSink;
    println!("snapshot capture overhead at K=4, every=1000 (n={scale}):");
    let ws = GeneratorConfig::thai_like().scaled(scale).build(7);
    let oracle = OracleClassifier::target(ws.target_language());
    let engine = CrawlEngine::new(&ws, EngineConfig::default());
    let sched = SchedConfig {
        slots: 4,
        ..SchedConfig::default()
    };

    /// Consumes snapshots at full speed without retaining them, so the
    /// measurement prices encode+frame, not sink-side accumulation.
    #[derive(Default)]
    struct CountSink {
        snaps: u64,
        bytes: u64,
    }
    impl SnapshotSink for CountSink {
        fn on_snapshot(&mut self, _tick: u64, bytes: &[u8]) {
            self.snaps += 1;
            self.bytes += bytes.len() as u64;
        }
    }

    let run_plain = || {
        black_box(
            engine
                .run_scheduled(&sched, &mut SimpleStrategy::soft(), &oracle, &mut [])
                .crawled,
        )
    };
    let run_capturing = |every: u64| {
        let mut sink = CountSink::default();
        let (outcome, _) = engine.run_scheduled_snapshots(
            &sched,
            &mut SimpleStrategy::soft(),
            &oracle,
            &mut [],
            every,
            &mut sink,
        );
        (black_box(outcome.crawled), sink)
    };

    let plain_crawled = run_plain();
    let (cap_crawled, gated) = run_capturing(1_000);
    assert_eq!(
        plain_crawled, cap_crawled,
        "snapshot capture must not change what gets crawled"
    );
    assert!(gated.snaps > 0, "cadence too coarse: nothing captured");
    let (_, amplified) = run_capturing(100);
    assert!(
        amplified.bytes > gated.bytes,
        "amplified cadence must capture more state than the gated one"
    );
    let measure = || {
        let mut t_plain = Duration::MAX;
        let mut t_amp = Duration::MAX;
        for _ in 0..40 {
            let t = Instant::now();
            run_plain();
            t_plain = t_plain.min(t.elapsed());
            let t = Instant::now();
            run_capturing(100);
            t_amp = t_amp.min(t.elapsed());
        }
        (t_plain, t_amp)
    };
    let (mut t_plain, mut t_amp) = measure();
    // Capture cost at the amplified cadence, priced down to the gated
    // cadence by the measured byte ratio (capture work scales with the
    // state each tick boundary exposes, and bytes are its measure).
    let price = |t_plain: Duration, t_amp: Duration| {
        let extra_amp = t_amp.saturating_sub(t_plain).as_nanos() as f64;
        let extra = extra_amp * gated.bytes as f64 / amplified.bytes as f64;
        (extra_amp, extra, extra / t_plain.as_nanos() as f64)
    };
    let (mut extra_amp, mut extra, mut overhead) = price(t_plain, t_amp);
    if overhead > 0.05 {
        // One remeasure: sustained machine-wide contention (another
        // tenant saturating memory bandwidth) inflates the capture arm
        // disproportionately and no within-process statistic can see
        // through it. A transient episode passes the second sample; a
        // genuine capture regression fails both.
        println!("  over budget on the first sample; remeasuring once");
        let (p2, a2) = measure();
        let (ea2, e2, o2) = price(p2, a2);
        if o2 < overhead {
            (t_plain, t_amp) = (p2, a2);
            (extra_amp, extra, overhead) = (ea2, e2, o2);
        }
    }
    rec.snapshot_overhead = overhead;
    rec.snapshot_overhead_ok = overhead <= 0.05;
    println!(
        "  no capture {:>10}   every-100 arm {:>10} ({} snapshots, {:.1} µs each)",
        fmt(t_plain),
        fmt(t_amp),
        amplified.snaps,
        extra_amp / 1.0e3 / amplified.snaps as f64,
    );
    println!(
        "  at every=1000: {} snapshots, {:.1} MB   extra {:.1} µs   overhead {:+.1}%  [{}]",
        gated.snaps,
        gated.bytes as f64 / 1.0e6,
        extra / 1.0e3,
        100.0 * overhead,
        if rec.snapshot_overhead_ok {
            "OK"
        } else {
            "OVER BUDGET"
        }
    );
}

/// The zero-allocation steady-state gate: after warm-up, a crawl fetch
/// must allocate *nothing*. Measured differentially — two deterministic
/// runs over one warm [`EngineScratch`], identical except that one
/// stops `TAIL` fetches short of the full crawl. Both runs pay the same
/// setup (fresh frontier, same buffer high-water marks, reached well
/// before the tail), so the allocation-count difference is exactly what
/// the final `TAIL` steady-state fetches allocate — which the gate
/// pins at zero. Without the `count-allocs` feature the counter always
/// reads 0 and the section reports "not gated".
fn bench_steady_state_allocs(rec: &mut BenchRecord, scale: u32) {
    use langcrawl_core::engine::EngineScratch;
    println!("steady-state allocations (n={scale}):");
    let ws = GeneratorConfig::thai_like().scaled(scale).build(7);
    let oracle = OracleClassifier::target(ws.target_language());
    const TAIL: u64 = 1_000;

    let mut scratch = EngineScratch::new();
    let run = |budget: Option<u64>, scratch: &mut EngineScratch| {
        let engine = CrawlEngine::new(
            &ws,
            EngineConfig {
                max_pages: budget,
                ..EngineConfig::default()
            },
        );
        let mut strategy = SimpleStrategy::soft();
        black_box(
            engine
                .run_with_scratch(
                    UrlQueue::new(ws.num_pages(), strategy.levels()),
                    &mut strategy,
                    &oracle,
                    &mut [],
                    scratch,
                )
                .crawled,
        )
    };

    // Warm-up run: grows every scratch buffer to its high-water size
    // and reports the full crawl length.
    let full = run(None, &mut scratch);
    assert!(full > 2 * TAIL, "space too small for the tail measurement");

    let a0 = alloc_count();
    let short = run(Some(full - TAIL), &mut scratch);
    let a1 = alloc_count();
    let again = run(Some(full), &mut scratch);
    let a2 = alloc_count();
    assert_eq!(short, full - TAIL);
    assert_eq!(again, full);

    // The truncated run is a strict prefix of the full run, so the full
    // run can only allocate at least as much; the excess is what the
    // tail fetches allocated.
    let tail_allocs = (a2 - a1).saturating_sub(a1 - a0);
    rec.steady_state_allocs_per_fetch = tail_allocs as f64 / TAIL as f64;
    rec.steady_state_gated = COUNTING_ALLOCS;
    rec.steady_state_ok = !COUNTING_ALLOCS || tail_allocs == 0;
    println!(
        "  tail {TAIL} fetches: {tail_allocs} allocations ({:.4}/fetch)  [{}]",
        rec.steady_state_allocs_per_fetch,
        if !COUNTING_ALLOCS {
            "not gated: counting allocator off"
        } else if rec.steady_state_ok {
            "OK"
        } else {
            "ALLOCATES"
        }
    );
}

/// The content-mode twin of [`bench_steady_state_allocs`]: a warm
/// [`ContentSimulator`] renders, classifies, scans, canonicalizes and
/// resolves every fetch into buffers it keeps across runs, so the final
/// `TAIL` fetches of a crawl must allocate nothing. Measured the same
/// differential way, with `ContentConfig::max_pages` stopping the short
/// run `TAIL` fetches early on the same simulator.
fn bench_content_steady_state_allocs(rec: &mut BenchRecord, scale: u32) {
    use langcrawl_core::content::{ContentConfig, ContentSimulator};
    // Content mode is ~100x slower per page than the engine; a smaller
    // space keeps the section short while leaving a long warm prefix.
    let n = scale.min(8_000);
    println!("content-mode steady-state allocations (n={n}):");
    let ws = GeneratorConfig::thai_like().scaled(n).build(7);
    const TAIL: u64 = 1_000;

    let mut sim = ContentSimulator::new(&ws, ContentConfig::default());
    let mut run = |budget: Option<u64>| {
        sim.config_mut().max_pages = budget;
        black_box(sim.run(&mut SimpleStrategy::soft()).crawled)
    };

    // Warm-up: grows every per-fetch buffer to its high-water size.
    let full = run(None);
    assert!(full > 2 * TAIL, "space too small for the tail measurement");

    let a0 = alloc_count();
    let short = run(Some(full - TAIL));
    let a1 = alloc_count();
    let again = run(Some(full));
    let a2 = alloc_count();
    assert_eq!(short, full - TAIL);
    assert_eq!(again, full);

    let tail_allocs = (a2 - a1).saturating_sub(a1 - a0);
    rec.content_allocs_per_fetch = tail_allocs as f64 / TAIL as f64;
    rec.content_steady_state_ok = !COUNTING_ALLOCS || tail_allocs == 0;
    println!(
        "  tail {TAIL} fetches: {tail_allocs} allocations ({:.4}/fetch)  [{}]",
        rec.content_allocs_per_fetch,
        if !COUNTING_ALLOCS {
            "not gated: counting allocator off"
        } else if rec.content_steady_state_ok {
            "OK"
        } else {
            "ALLOCATES"
        }
    );
}

fn git_short_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "nogit".into())
}

fn main() {
    let json = std::env::args().any(|a| a == "--json");
    let scale = env_scale(50_000);
    let mut rec = BenchRecord::default();
    // Per-phase allocation counts (meaningful only with the counting
    // allocator compiled in): one cumulative mark after each section,
    // reported as deltas at the end.
    let mut marks: Vec<(&'static str, u64)> = Vec::new();
    let mark = |name: &'static str, marks: &mut Vec<(&'static str, u64)>| {
        marks.push((name, alloc_count()));
    };
    mark("start", &mut marks);
    bench_queue(&mut rec);
    mark("queue", &mut marks);
    bench_batch_admit(&mut rec);
    mark("batch_admit", &mut marks);
    bench_detect(&mut rec);
    mark("detect", &mut marks);
    bench_generate_parallel(&mut rec);
    mark("generate", &mut marks);
    bench_simulate(&mut rec, scale);
    mark("simulate", &mut marks);
    bench_link_analysis(&mut rec, scale);
    mark("link_analysis", &mut marks);
    bench_sink_overhead(&mut rec, scale);
    bench_fault_overhead(&mut rec, scale);
    bench_sched_overhead(&mut rec, scale);
    bench_snapshot_overhead(&mut rec, scale);
    mark("overhead_gates", &mut marks);
    bench_steady_state_allocs(&mut rec, scale);
    bench_content_steady_state_allocs(&mut rec, scale);
    mark("steady_state", &mut marks);

    if COUNTING_ALLOCS {
        println!("\nallocations per phase (count-allocs):");
        for pair in marks.windows(2) {
            let (name, after) = pair[1];
            println!("  {name:<20} {:>12}", after - pair[0].1);
        }
    }

    if json {
        // Land the trajectory point at the workspace root regardless of
        // the cwd cargo gives bench binaries (the package dir).
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("bench crate lives two levels below the workspace root")
            .to_path_buf();
        let path = root.join(format!("BENCH_{}.json", git_short_sha()));
        let body = rec.to_json(&git_short_sha(), scale);
        match std::fs::write(&path, &body) {
            Ok(()) => println!("\nwrote {}", path.display()),
            Err(e) => eprintln!("\ncannot write {}: {e}", path.display()),
        }
    }
    let failures = rec.failures();
    for f in &failures {
        eprintln!("GATE FAILED: {f}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}
