//! Property tests for the simulator core: both [`Frontier`]
//! implementations against a reference model parameterized by their pop
//! discipline, and crawl-level invariants over random spaces, strategies
//! and budgets.

use langcrawl_core::classifier::{MetaClassifier, OracleClassifier};
use langcrawl_core::frontier::{BestFirstFrontier, Frontier};
use langcrawl_core::queue::{Entry, UrlQueue};
use langcrawl_core::shard::ShardedFrontier;
use langcrawl_core::sim::{SimConfig, Simulator};
use langcrawl_core::strategy::{
    BreadthFirst, CombinedStrategy, LimitedDistanceStrategy, SimpleStrategy,
};
use langcrawl_minicheck::{check, check_default, Gen};
use langcrawl_webgraph::GeneratorConfig;

// ------------------------------------------------------------- frontier

/// How a frontier orders its pending set: the sort key computed from a
/// page's best admission `(key, seq)` pair. Lowest wins; FIFO seq breaks
/// ties in both disciplines.
type PopOrder = fn(u16, u64) -> (u16, u64);

/// [`UrlQueue`]: priority *level* only — distance never affects order.
fn bucketed_order(key: u16, seq: u64) -> (u16, u64) {
    (key >> 8, seq)
}

/// [`BestFirstFrontier`]: the full `(priority, distance)` key.
fn best_first_order(key: u16, seq: u64) -> (u16, u64) {
    (key, seq)
}

/// Reference model of a frontier: a sorted scan over explicit state,
/// generic over the pop discipline. Admission semantics (accept first
/// discovery or a strictly better key; never after done) are shared by
/// both implementations and fixed here.
struct ModelFrontier {
    /// (page, best key, insertion sequence of the best admission)
    pending: Vec<(u32, u16, u64)>,
    done: std::collections::HashSet<u32>,
    seq: u64,
    order: PopOrder,
}

impl ModelFrontier {
    fn new(order: PopOrder) -> Self {
        ModelFrontier {
            pending: Vec::new(),
            done: std::collections::HashSet::new(),
            seq: 0,
            order,
        }
    }

    fn push(&mut self, e: Entry) -> bool {
        if self.done.contains(&e.page) {
            return false;
        }
        let key = ((e.priority as u16) << 8) | e.distance as u16;
        self.seq += 1;
        match self.pending.iter_mut().find(|(p, _, _)| *p == e.page) {
            Some(slot) => {
                if key < slot.1 {
                    slot.1 = key;
                    slot.2 = self.seq;
                    true
                } else {
                    false
                }
            }
            None => {
                self.pending.push((e.page, key, self.seq));
                true
            }
        }
    }

    fn pop(&mut self) -> Option<u32> {
        let order = self.order;
        let idx = self
            .pending
            .iter()
            .enumerate()
            .min_by_key(|(_, (_, key, seq))| order(*key, *seq))
            .map(|(i, _)| i)?;
        let (page, _, _) = self.pending.remove(idx);
        self.done.insert(page);
        Some(page)
    }
}

/// (op, page, priority, distance): op 0..3 = push, 3 = pop.
fn arb_ops(g: &mut Gen) -> Vec<(u8, u32, u8, u8)> {
    g.vec(1..400, |g| {
        (g.u8(0..=3), g.u32(0..64), g.u8(0..=3), g.u8(0..=3))
    })
}

/// Drive a real frontier and the model through the same op sequence,
/// asserting agreement on every push verdict and every pop.
fn assert_matches_model<F: Frontier>(mut real: F, order: PopOrder, ops: &[(u8, u32, u8, u8)]) {
    let mut model = ModelFrontier::new(order);
    for &(op, page, priority, distance) in ops {
        if op < 3 {
            let e = Entry {
                page,
                priority,
                distance,
            };
            assert_eq!(real.push(e), model.push(e), "push {e:?}");
        } else {
            assert_eq!(real.pop().map(|e| e.page), model.pop());
        }
        assert_eq!(real.pending(), model.pending.len());
    }
    // Drain both fully.
    loop {
        let a = real.pop().map(|e| e.page);
        let b = model.pop();
        assert_eq!(a, b);
        if a.is_none() {
            break;
        }
    }
}

/// The bucketed queue and the reference model agree on every pop, under
/// arbitrary interleavings of pushes (including duplicates and
/// re-prioritizations) and pops.
#[test]
fn url_queue_matches_reference_model() {
    check_default(|g| {
        let ops = arb_ops(g);
        assert_matches_model(UrlQueue::new(64, 4), bucketed_order, &ops);
    });
}

/// The best-first heap frontier obeys the same contract under its own
/// pop discipline — the trait seam carries both policies faithfully.
#[test]
fn best_first_matches_reference_model() {
    check_default(|g| {
        let ops = arb_ops(g);
        assert_matches_model(BestFirstFrontier::new(64), best_first_order, &ops);
    });
}

/// For BOTH implementations: `pending()` always equals the count of
/// distinct admitted-not-popped pages regardless of duplicates and
/// re-prioritizations, and `done` pages never re-enter.
#[test]
fn frontier_pending_counts_distinct_and_done_is_final() {
    fn run(real: &mut dyn Frontier, ops: &[(u8, u32, u8, u8)]) {
        let mut admitted = std::collections::HashSet::new();
        let mut popped_pages = std::collections::HashSet::new();
        for &(op, page, priority, distance) in ops {
            if op < 3 {
                let accepted = real.push(Entry {
                    page,
                    priority,
                    distance,
                });
                if real.was_admitted(page) {
                    admitted.insert(page);
                }
                assert!(
                    !(accepted && popped_pages.contains(&page)),
                    "done page {page} re-entered the frontier"
                );
            } else if let Some(e) = real.pop() {
                assert!(popped_pages.insert(e.page), "page {} popped twice", e.page);
                assert!(real.is_done(e.page));
            }
            assert_eq!(real.pending(), admitted.len() - popped_pages.len());
            assert!(real.pending() <= real.max_pending());
        }
    }
    check_default(|g| {
        let ops = arb_ops(g);
        run(&mut UrlQueue::new(64, 4), &ops);
        run(&mut BestFirstFrontier::new(64), &ops);
    });
}

/// Pop order respects `(ordering key, FIFO)`: for any push-only prefix,
/// draining either frontier yields keys that never decrease under its
/// own discipline.
#[test]
fn frontier_pop_order_is_monotone_in_key() {
    fn drain_keys(real: &mut dyn Frontier, order: PopOrder) {
        let mut prev: Option<(u16, u64)> = None;
        let mut seq = 0u64;
        while let Some(e) = real.pop() {
            let key = ((e.priority as u16) << 8) | e.distance as u16;
            let k = (order(key, 0).0, seq);
            if let Some(p) = prev {
                assert!(k.0 >= p.0, "pop key went backwards: {p:?} then {k:?}");
            }
            prev = Some(k);
            seq += 1;
        }
    }
    check_default(|g| {
        let pushes = g.vec(1..200, |g| Entry {
            page: g.u32(0..64),
            priority: g.u8(0..=3),
            distance: g.u8(0..=3),
        });
        let mut q = UrlQueue::new(64, 4);
        let mut b = BestFirstFrontier::new(64);
        for &e in &pushes {
            q.push(e);
            Frontier::push(&mut b, e);
        }
        drain_keys(&mut q, bucketed_order);
        drain_keys(&mut b, best_first_order);
    });
}

/// The sharded frontier is [`UrlQueue`] with different storage: under
/// random push/pop/**requeue** interleavings (requeue is the engine's
/// retry re-admission path, with its own semantics on done pages) the
/// two agree on every verdict, every popped entry, and all accounting —
/// with one shard and with several, since each ready host exposes
/// exactly its minimum entry and the global minimum is shard-invariant.
#[test]
fn sharded_frontier_matches_url_queue_including_requeue() {
    /// (op, page, priority, distance): op 0..3 = push, 3 = pop,
    /// 4 = requeue.
    fn arb_requeue_ops(g: &mut Gen) -> Vec<(u8, u32, u8, u8)> {
        g.vec(1..400, |g| {
            (g.u8(0..=4), g.u32(0..64), g.u8(0..=3), g.u8(0..=3))
        })
    }
    check_default(|g| {
        let ops = arb_requeue_ops(g);
        for shards in [1usize, 3] {
            let mut q = UrlQueue::new(64, 4);
            // 64 pages over 7 hosts, striped so shards interleave.
            let hosts: Vec<u32> = (0..64).map(|p| p % 7).collect();
            let mut s = ShardedFrontier::new(hosts, 7, 4, shards);
            for &(op, page, priority, distance) in &ops {
                let e = Entry {
                    page,
                    priority,
                    distance,
                };
                match op {
                    0..=2 => assert_eq!(
                        Frontier::push(&mut q, e),
                        s.push(e),
                        "push {e:?} ({shards} shards)"
                    ),
                    3 => assert_eq!(Frontier::pop(&mut q), s.pop(), "{shards} shards"),
                    _ => assert_eq!(
                        Frontier::requeue(&mut q, e),
                        s.requeue(e),
                        "requeue {e:?} ({shards} shards)"
                    ),
                }
                assert_eq!(Frontier::pending(&q), s.pending());
                assert_eq!(Frontier::max_pending(&q), s.max_pending());
                assert_eq!(Frontier::total_pushes(&q), s.total_pushes());
                assert_eq!(Frontier::is_done(&q, page), s.is_done(page));
                assert_eq!(Frontier::was_admitted(&q, page), s.was_admitted(page));
            }
            // Drain both fully: the tails must agree entry by entry.
            loop {
                let a = Frontier::pop(&mut q);
                let b = s.pop();
                assert_eq!(a, b, "{shards} shards");
                if a.is_none() {
                    break;
                }
            }
        }
    });
}

/// One step of a random scheduler-surface interleaving.
#[derive(Debug, Clone)]
enum SchedOp {
    PushAll(Vec<Entry>),
    PopReady,
    Pop,
    /// Release the `pick`-th busy host (mod the busy count) with a
    /// cool-down of `delay` ticks from now (`0` = ready at once).
    Release(u32, u64),
    /// Advance the clock by this many ticks and wake due hosts.
    Advance(u64),
    Requeue(Entry),
}

/// The naive scheduler model the sharded frontier must match: every
/// stored entry in one list (stale ones included), popped by scanning
/// for the minimum `(level, seq)` among ready hosts.
struct SchedModel {
    levels: u8,
    host_of: Vec<u32>,
    /// `(level, seq, entry)` for every stored entry.
    stored: Vec<(u8, u64, Entry)>,
    seq: u64,
    best: Vec<Option<u16>>,
    done: Vec<bool>,
    /// `None` = ready, `Some(None)` = busy, `Some(Some(t))` = cooling
    /// until tick `t`.
    state: Vec<Option<Option<u64>>>,
    pending: usize,
}

impl SchedModel {
    fn key(e: &Entry) -> u16 {
        ((e.priority as u16) << 8) | e.distance as u16
    }

    fn store(&mut self, e: Entry) {
        let level = e.priority.min(self.levels - 1);
        self.stored.push((level, self.seq, e));
        self.seq += 1;
    }

    fn push(&mut self, e: Entry) -> bool {
        let p = e.page as usize;
        if self.done[p] || self.best[p].is_some_and(|b| Self::key(&e) >= b) {
            return false;
        }
        if self.best[p].is_none() {
            self.pending += 1;
        }
        self.best[p] = Some(Self::key(&e));
        self.store(e);
        true
    }

    fn requeue(&mut self, e: Entry) -> bool {
        let p = e.page as usize;
        if !self.done[p] {
            return self.push(e);
        }
        self.done[p] = false;
        self.best[p] = Some(Self::key(&e));
        self.pending += 1;
        self.store(e);
        true
    }

    fn pop(&mut self, mark_busy: bool) -> Option<Entry> {
        loop {
            let (i, _) = self
                .stored
                .iter()
                .enumerate()
                .filter(|(_, (_, _, e))| {
                    self.state[self.host_of[e.page as usize] as usize].is_none()
                })
                .min_by_key(|(_, &(level, seq, _))| (level, seq))?;
            let (_, _, e) = self.stored.remove(i);
            let p = e.page as usize;
            if self.done[p] || self.best[p].is_some_and(|b| Self::key(&e) > b) {
                continue; // stale: dropped when it surfaces
            }
            self.done[p] = true;
            self.pending -= 1;
            if mark_busy {
                self.state[self.host_of[p] as usize] = Some(None);
            }
            return Some(e);
        }
    }

    fn release(&mut self, host: u32, ready_at: u64, now: u64) -> bool {
        if ready_at > now {
            self.state[host as usize] = Some(Some(ready_at));
            self.stored
                .iter()
                .any(|(_, _, e)| self.host_of[e.page as usize] == host)
        } else {
            self.state[host as usize] = None;
            false
        }
    }

    fn advance_to(&mut self, t: u64) {
        for s in &mut self.state {
            if matches!(*s, Some(Some(at)) if at <= t) {
                *s = None;
            }
        }
    }

    fn next_cooling(&self) -> Option<u64> {
        self.state.iter().filter_map(|s| s.flatten()).min()
    }

    fn busy_hosts(&self) -> Vec<u32> {
        (0..self.state.len() as u32)
            .filter(|&h| self.state[h as usize] == Some(None))
            .collect()
    }
}

/// The scheduler surface against [`SchedModel`]: random interleavings
/// of batch pushes, scheduler and plain pops, releases with random
/// cool-downs, clock advances and retry re-admissions, at one shard and
/// at three. Every pop, every `release` verdict (the politeness-wait
/// signal: the host still stores an entry, stale ones included) and all
/// accounting must agree, then both drain to the same tail.
#[test]
fn sharded_frontier_schedule_matches_model() {
    const PAGES: u32 = 48;
    const HOSTS: u32 = 5;
    fn arb_entry(g: &mut Gen) -> Entry {
        Entry {
            page: g.u32(0..PAGES),
            priority: g.u8(0..=4),
            distance: g.u8(0..=2),
        }
    }
    fn arb_op(g: &mut Gen) -> SchedOp {
        match g.weighted(&[4, 5, 1, 4, 2, 1]) {
            0 => SchedOp::PushAll(g.vec(1..6, arb_entry)),
            1 => SchedOp::PopReady,
            2 => SchedOp::Pop,
            3 => SchedOp::Release(g.u32(0..64), g.u64(0..4)),
            4 => SchedOp::Advance(g.u64(0..3)),
            _ => SchedOp::Requeue(arb_entry(g)),
        }
    }
    check_default(|g| {
        let ops = g.vec(1..300, arb_op);
        for shards in [1usize, 3] {
            // Hosts striped over pages, so rings interleave hosts.
            let host_of: Vec<u32> = (0..PAGES).map(|p| p % HOSTS).collect();
            let mut real = ShardedFrontier::new(host_of.clone(), HOSTS as usize, 4, shards);
            let mut model = SchedModel {
                levels: 4,
                host_of,
                stored: Vec::new(),
                seq: 0,
                best: vec![None; PAGES as usize],
                done: vec![false; PAGES as usize],
                state: vec![None; HOSTS as usize],
                pending: 0,
            };
            let mut now = 0u64;
            for op in &ops {
                match op {
                    SchedOp::PushAll(batch) => {
                        let want = batch.iter().filter(|&&e| model.push(e)).count() as u32;
                        assert_eq!(real.push_all(batch), want, "push_all ({shards} shards)");
                    }
                    SchedOp::PopReady => {
                        assert_eq!(
                            real.pop_ready(),
                            model.pop(true),
                            "pop_ready ({shards} shards)"
                        );
                    }
                    SchedOp::Pop => {
                        assert_eq!(real.pop(), model.pop(false), "pop ({shards} shards)");
                    }
                    SchedOp::Release(pick, delay) => {
                        let busy = model.busy_hosts();
                        if busy.is_empty() {
                            continue;
                        }
                        let host = busy[*pick as usize % busy.len()];
                        assert_eq!(
                            real.release(host, now + delay, now),
                            model.release(host, now + delay, now),
                            "release host {host} +{delay} ({shards} shards)"
                        );
                    }
                    SchedOp::Advance(dt) => {
                        now += dt;
                        real.advance_to(now);
                        model.advance_to(now);
                    }
                    SchedOp::Requeue(e) => {
                        assert_eq!(
                            real.requeue(*e),
                            model.requeue(*e),
                            "requeue ({shards} shards)"
                        );
                    }
                }
                assert_eq!(real.pending(), model.pending);
                assert_eq!(real.next_cooling(), model.next_cooling());
            }
            // Drain: free every host, then both tails must agree.
            for host in model.busy_hosts() {
                real.release(host, now, now);
                model.release(host, now, now);
            }
            if let Some(t) = model.next_cooling() {
                real.advance_to(t);
                model.advance_to(t);
            }
            loop {
                let want = model.pop(false);
                assert_eq!(real.pop(), want, "drain ({shards} shards)");
                if want.is_none() {
                    break;
                }
            }
        }
    });
}

// ------------------------------------------------------------- simulator

fn build_strategy(code: u8) -> Box<dyn langcrawl_core::strategy::Strategy> {
    match code {
        0 => Box::new(BreadthFirst::new()),
        1 => Box::new(SimpleStrategy::hard()),
        2 => Box::new(SimpleStrategy::soft()),
        3 => Box::new(LimitedDistanceStrategy::non_prioritized(2)),
        4 => Box::new(LimitedDistanceStrategy::prioritized(3)),
        5 => Box::new(CombinedStrategy::soft_limited(2)),
        _ => Box::new(CombinedStrategy::hard_limited(1)),
    }
}

/// Crawl-level invariants hold for every strategy, seed and budget:
/// monotone series, coverage ≤ 1, queue accounting consistent, no page
/// crawled twice (crawled ≤ space size).
#[test]
fn crawl_invariants() {
    check(12, |g| {
        let code = g.u8(0..=6);
        let seed = g.u64(0..1000);
        let budget = g.option(|g| g.u64(100..3000));
        let filter = g.bool(0.5);

        let ws = GeneratorConfig::thai_like().scaled(4_000).build(seed);
        let mut config = SimConfig {
            max_pages: budget,
            ..SimConfig::default()
        };
        if filter {
            config = config.with_url_filter();
        }
        let mut sim = Simulator::new(&ws, config.clone());
        let mut strategy = build_strategy(code);
        let classifier = MetaClassifier::target(ws.target_language());
        let r = sim.run(strategy.as_mut(), &classifier);

        assert!(r.crawled <= ws.num_pages() as u64);
        if let Some(b) = budget {
            assert!(r.crawled <= b);
        }
        assert!(r.relevant_crawled <= r.crawled);
        assert!(r.final_coverage() <= 1.0 + 1e-12);
        assert!(r.final_harvest() <= 1.0 + 1e-12);
        let mut prev = (0u64, 0u64);
        for s in &r.samples {
            assert!(s.crawled > prev.0);
            assert!(s.relevant >= prev.1);
            assert!(s.relevant <= s.crawled);
            assert!(s.queue_size <= ws.num_pages());
            prev = (s.crawled, s.relevant);
        }
        assert_eq!(r.samples.last().map(|s| s.crawled), Some(r.crawled));
    });
}

/// Oracle-classified soft-focused crawling always reaches exactly 100%
/// coverage, whatever the seed — the generator's reachability guarantee
/// seen through the whole simulator stack.
#[test]
fn soft_oracle_always_full_coverage() {
    check(12, |g| {
        let seed = g.u64(0..500);
        let ws = GeneratorConfig::thai_like().scaled(3_000).build(seed);
        let mut sim = Simulator::new(&ws, SimConfig::default());
        let r = sim.run(
            &mut SimpleStrategy::soft(),
            &OracleClassifier::target(ws.target_language()),
        );
        assert!(
            (r.final_coverage() - 1.0).abs() < 1e-12,
            "seed {seed}: {}",
            r.final_coverage()
        );
    });
}

/// The limited-distance crawl never exceeds its structural ceiling and
/// its coverage is monotone in N for any seed.
#[test]
fn limited_distance_bounded_by_structure() {
    check(12, |g| {
        let seed = g.u64(0..200);
        let ws = GeneratorConfig::thai_like().scaled(3_000).build(seed);
        let oracle = OracleClassifier::target(ws.target_language());
        let mut prev = 0.0f64;
        for n in [0u8, 1, 2, 4] {
            let mut sim = Simulator::new(&ws, SimConfig::default());
            let r = sim.run(&mut LimitedDistanceStrategy::non_prioritized(n), &oracle);
            let ceiling = langcrawl_webgraph::stats::relevant_coverage(
                &ws,
                &langcrawl_webgraph::stats::reachable_limited(&ws, n),
            );
            assert!(
                r.final_coverage() <= ceiling + 1e-9,
                "N={n}: crawl {} exceeds structural ceiling {}",
                r.final_coverage(),
                ceiling
            );
            assert!(r.final_coverage() + 1e-9 >= prev, "N={n} not monotone");
            prev = r.final_coverage();
        }
    });
}
