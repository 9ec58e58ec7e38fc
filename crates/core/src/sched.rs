//! The virtual-time scheduler: `K` fetch slots over a sharded frontier.
//!
//! This generalizes the legacy loop's `(ready_tick, seq)` retry heap
//! into a full event-driven simulation in virtual time. The state is a
//! set of `K` *fetch slots* draining a [`ShardedFrontier`]: a slot
//! starts the globally best entry whose host is ready, the fetch
//! occupies one virtual tick, and its completion resolves through the
//! same [`CrawlEngine::resolve`](crate::engine::CrawlEngine) step as
//! the legacy path. Between starts and completions the clock jumps
//! straight to the next event — a completion, a politeness cool-down
//! expiring, or a retry coming due — exactly like the retry heap's
//! dry-frontier fast-forward, now applied uniformly.
//!
//! **Determinism is the contract.** The schedule is a pure function of
//! (space seed, config): entries start in global `(level, seq)` order,
//! completions process in `(finish tick, start seq)` order, cool-downs
//! wake in `(ready tick, host)` order, and the politeness jitter is a
//! per-host hash of the space's generation seed. Nothing reads the wall
//! clock, thread ids, or map iteration order, so reports are
//! bit-identical across machines and `LANGCRAWL_THREADS` settings
//! (pinned by the scheduler conformance suite).
//!
//! **`K = 1` with zero politeness is the legacy engine.** One slot
//! starting at tick `t` completes at `t + 1` — the same "attempt tick =
//! pop tick + 1" accounting as the legacy loop — and a single-slot
//! schedule never reorders anything, so the conformance goldens for the
//! legacy engine pin this path bit-for-bit (with and without the
//! degenerate-point elision; see [`CrawlEngine::run_scheduled_full`]).
//! At that point the default run is handed to the legacy loop itself,
//! which is cheaper per page than this event loop; the
//! scheduler-overhead microbench gate keeps that elided default path
//! within 5% of calling the legacy loop directly.
//!
//! Politeness is a *start-to-start* gap, BUbiNG-style: a host that
//! started a fetch at `t` may not start another before `t + gap(h)`,
//! and per-host concurrency is 1 (a busy host exposes nothing). Gaps
//! are drawn per host from the space's host table: the configured base
//! plus a deterministic per-host jitter seeded from the space's
//! generation seed under the `STREAM_POLITENESS` domain.

use crate::classifier::Classifier;
use crate::engine::{
    CrawlEngine, EngineOutcome, EngineScratch, Fetch, MetaFetch, Resolution, RunState,
};
use crate::event::{interest, CrawlEvent, EventSink};
use crate::frontier::Frontier;
use crate::queue::{Entry, UrlQueue};
use crate::shard::{ShardStats, ShardedFrontier};
use crate::snapshot::{
    frame_begin, frame_end, CrawlSnapshot, Dec, DirSink, Enc, SnapHead, SnapshotError,
    SnapshotSink, KIND_RINGS, KIND_SHARDED,
};
use crate::strategy::Strategy;
use langcrawl_rng::Rng;
use langcrawl_webgraph::{FetchOutcome, PageId};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// RNG stream domain for per-host politeness jitter (domains 1–5 are
/// taken by the generator and fault layers; see the D3 lint registry).
const STREAM_POLITENESS: u64 = 6 << 40;

/// Scheduler parameters. The default (`1` slot, zero politeness) is
/// the conformance configuration: bit-identical to the legacy engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedConfig {
    /// Number of virtual fetch slots (`K`). `0` is treated as `1`.
    pub slots: u32,
    /// Number of frontier shards; `0` (the default) means one shard
    /// per slot. Shard count never changes the schedule — only the
    /// load-imbalance stats and handoff traffic it surfaces.
    pub shards: u32,
    /// Minimum ticks between successive fetch *starts* on one host.
    /// `0` disables politeness entirely.
    pub politeness_gap: u64,
    /// Upper bound of the deterministic per-host jitter added to
    /// `politeness_gap` (uniform in `0..=spread`, hashed from the
    /// space's generation seed and the host id).
    pub politeness_spread: u64,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig {
            slots: 1,
            shards: 0,
            politeness_gap: 0,
            politeness_spread: 0,
        }
    }
}

impl SchedConfig {
    /// `K` slots, everything else default.
    pub fn with_slots(slots: u32) -> Self {
        SchedConfig {
            slots,
            ..SchedConfig::default()
        }
    }

    /// Effective slot count (`0` collapses to `1`).
    pub fn effective_slots(&self) -> u32 {
        self.slots.max(1)
    }

    /// Effective shard count (`0` means one shard per slot).
    pub fn effective_shards(&self) -> usize {
        if self.shards == 0 {
            self.effective_slots() as usize
        } else {
            self.shards as usize
        }
    }
}

/// The scheduler's view of a frontier: the [`Frontier`] admission
/// contract plus the host-state surface (ready-pop, release, cool-down
/// wake-ups) and the shard diagnostics. [`ShardedFrontier`] is the real
/// implementation; [`UrlQueue`] implements it *inertly* — every host
/// always ready, nothing ever cooling — which is exactly the behavior
/// of the sharded frontier at the scheduler's degenerate point (one
/// slot, zero politeness), where per-host concurrency 1 cannot bite:
/// the single slot drains before the next pop, so no host is ever busy
/// at pop time. The degenerate elision in
/// [`CrawlEngine::run_scheduled_full`] exploits this to run over the
/// legacy rings at ring cost, the same move as the fault layer's
/// inert-model fast path.
trait SlotFrontier: Frontier {
    fn pop_ready(&mut self) -> Option<Entry>;
    fn release(&mut self, host: u32, ready_at: u64, now: u64) -> bool;
    fn advance_to(&mut self, t: u64);
    fn next_cooling(&self) -> Option<u64>;
    fn host_of(&self, p: PageId) -> u32;
    fn set_origin(&mut self, host: Option<u32>);
    fn handoffs(&self) -> u64;
    fn shard_stats(&self) -> Vec<ShardStats>;
    /// Snapshot kind tag ([`KIND_RINGS`] / [`KIND_SHARDED`]), recorded
    /// in the header so resume rebuilds the same frontier type.
    fn kind(&self) -> u8;
    /// Serialize the complete frontier state into a snapshot payload
    /// (canonical form — see the implementations).
    fn encode_state(&self, enc: &mut Enc);
}

impl SlotFrontier for ShardedFrontier {
    fn pop_ready(&mut self) -> Option<Entry> {
        ShardedFrontier::pop_ready(self)
    }
    fn release(&mut self, host: u32, ready_at: u64, now: u64) -> bool {
        ShardedFrontier::release(self, host, ready_at, now)
    }
    fn advance_to(&mut self, t: u64) {
        ShardedFrontier::advance_to(self, t);
    }
    fn next_cooling(&self) -> Option<u64> {
        ShardedFrontier::next_cooling(self)
    }
    fn host_of(&self, p: PageId) -> u32 {
        ShardedFrontier::host_of(self, p)
    }
    fn set_origin(&mut self, host: Option<u32>) {
        ShardedFrontier::set_origin(self, host);
    }
    fn handoffs(&self) -> u64 {
        ShardedFrontier::handoffs(self)
    }
    fn shard_stats(&self) -> Vec<ShardStats> {
        ShardedFrontier::shard_stats(self)
    }
    fn kind(&self) -> u8 {
        KIND_SHARDED
    }
    fn encode_state(&self, enc: &mut Enc) {
        ShardedFrontier::encode_state(self, enc);
    }
}

impl SlotFrontier for UrlQueue {
    #[inline]
    fn pop_ready(&mut self) -> Option<Entry> {
        UrlQueue::pop(self)
    }
    #[inline]
    fn release(&mut self, _host: u32, _ready_at: u64, _now: u64) -> bool {
        false
    }
    #[inline]
    fn advance_to(&mut self, _t: u64) {}
    #[inline]
    fn next_cooling(&self) -> Option<u64> {
        None
    }
    #[inline]
    fn host_of(&self, _p: PageId) -> u32 {
        0
    }
    #[inline]
    fn set_origin(&mut self, _host: Option<u32>) {}
    #[inline]
    fn handoffs(&self) -> u64 {
        0
    }
    fn shard_stats(&self) -> Vec<ShardStats> {
        Vec::new()
    }
    fn kind(&self) -> u8 {
        KIND_RINGS
    }
    fn encode_state(&self, enc: &mut Enc) {
        UrlQueue::encode_state(self, enc);
    }
}

/// A fetch occupying a slot: started at `finish - 1`, resolves at
/// `finish`. Completions process in `(finish, seq)` order — completion
/// time with start-order tie-breaking — so completion processing is a
/// pure function of the start schedule. Starts happen at the
/// monotonically advancing `now` with an increasing start seq, so the
/// in-flight queue is *born sorted* in that order and a plain FIFO
/// holds it — no heap needed. The attempt number and fetch outcome are
/// decided at start time (the fetch "happens" during its tick); only
/// the bookkeeping waits for the completion.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    finish: u64,
    entry: Entry,
    attempt: u32,
    outcome: FetchOutcome,
}

/// A snapshot request for one run: capture every `every` ticks into
/// `sink`.
pub(crate) struct SnapPlan<'a> {
    every: u64,
    sink: &'a mut dyn SnapshotSink,
}

/// Live capture state inside the event loop: the cadence, the next
/// capture tick, the identity-header template (tick/crawled are filled
/// per capture), the receiving sink, and one framed-bytes buffer
/// reused across captures so steady-cadence capture settles into zero
/// allocations per snapshot.
struct SnapCtl<'a> {
    every: u64,
    next_at: u64,
    head: SnapHead,
    sink: &'a mut dyn SnapshotSink,
    buf: Enc,
}

/// Everything [`CrawlEngine::sched_loop`] needs beyond the run
/// arguments: the frontier to drain, the decoded state to resume from
/// (`None` = fresh run seeded from the space), and the capture plan.
struct LoopCtl<'a, F> {
    frontier: F,
    init: Option<ResumeState>,
    snap: Option<SnapCtl<'a>>,
}

/// The scheduler-loop state a snapshot restores — everything mutable
/// at the loop-top tick boundary except the frontier itself. Slot
/// occupancy is *provably absent* there: step 4 of the loop drains
/// every in-flight fetch before the loop re-enters (all fetches
/// started at tick `t` finish together at `t + 1`), so `in_flight` is
/// empty and `busy == 0` at every capture point by construction.
struct ResumeState {
    now: u64,
    crawled: u64,
    attempts: u64,
    retries: u64,
    retry_seq: u64,
    /// Retry-heap contents, ascending `(ready, seq, entry)`.
    retry_list: Vec<(u64, u64, Entry)>,
    /// Per-host next-allowed-start ticks; empty when politeness is off
    /// (the loop then never reads the table).
    next_ok: Vec<u64>,
    relevant_crawled: u64,
    gave_up: u64,
    until_sample: u64,
    /// Materialized per-page attempt counts; `None` when the table had
    /// not materialized (emptiness doubles as the "no retry yet" flag,
    /// so the distinction is part of the state).
    attempt_counts: Option<Vec<u32>>,
}

/// Borrowed view of the loop state a capture serializes.
struct RunSnap<'a> {
    attempts: u64,
    retries: u64,
    retry_seq: u64,
    retry_heap: &'a BinaryHeap<Reverse<(u64, u64, Entry)>>,
    next_ok: &'a [u64],
    politeness: bool,
    relevant_crawled: u64,
    gave_up: u64,
    until_sample: u64,
    attempt_counts: &'a [u32],
}

/// Encode one snapshot payload into `enc`: header, run state, frontier
/// state. Canonical throughout (the retry heap is emitted sorted), so
/// encoding the state a snapshot decodes to reproduces its bytes —
/// the fixed-point property the codec proptests pin.
// lint:root(panic-free, alloc-free) — capture runs mid-crawl into a
// preallocated encoder, so it must neither unwind nor allocate.
fn encode_snapshot_into<F: SlotFrontier>(
    head: &SnapHead,
    run: &RunSnap<'_>,
    frontier: &F,
    enc: &mut Enc,
) {
    debug_assert_eq!(
        head.kind,
        frontier.kind(),
        "snapshot header kind must match the frontier being encoded"
    );
    head.encode(enc);
    enc.u64(run.attempts);
    enc.u64(run.retries);
    enc.u64(run.retry_seq);
    // lint:allow(no-alloc-transitive): canonical capture sorts the retry heap into a fresh Vec once per explicit snapshot, off the steady-state path
    let mut pending: Vec<(u64, u64, Entry)> = run.retry_heap.iter().map(|&Reverse(x)| x).collect();
    pending.sort_unstable();
    enc.u64(pending.len() as u64);
    for (ready, seq, e) in pending {
        enc.u64(ready);
        enc.u64(seq);
        enc.u32(e.page);
        enc.u8(e.priority);
        enc.u8(e.distance);
    }
    if run.politeness {
        enc.u64(run.next_ok.len() as u64);
        enc.u64s(run.next_ok);
    } else {
        enc.u64(0);
    }
    enc.u64(run.relevant_crawled);
    enc.u64(run.gave_up);
    enc.u64(run.until_sample);
    if run.attempt_counts.is_empty() {
        enc.u8(0);
    } else {
        enc.u8(1);
        enc.u64(run.attempt_counts.len() as u64);
        enc.u32s(run.attempt_counts);
    }
    frontier.encode_state(enc);
}

/// Encode one snapshot payload as a fresh vector (the cold-path
/// wrapper around [`encode_snapshot_into`]).
fn encode_snapshot<F: SlotFrontier>(head: &SnapHead, run: &RunSnap<'_>, frontier: &F) -> Vec<u8> {
    let mut enc = Enc::default();
    encode_snapshot_into(head, run, frontier, &mut enc);
    enc.buf
}

/// Decode the run-state section (the payload between the header and
/// the frontier state). `now`/`crawled` live in the header; the caller
/// copies them in afterwards.
fn decode_run_state(
    dec: &mut Dec<'_>,
    num_pages: usize,
    num_hosts: usize,
    politeness: bool,
) -> Result<ResumeState, SnapshotError> {
    let attempts = dec.u64()?;
    let retries = dec.u64()?;
    let retry_seq = dec.u64()?;
    let nretry = dec.len()?;
    let mut retry_list = Vec::with_capacity(nretry.min(1024));
    for _ in 0..nretry {
        let ready = dec.u64()?;
        let seq = dec.u64()?;
        let page = dec.u32()?;
        if page as usize >= num_pages {
            return Err(SnapshotError::Malformed("retry page out of range"));
        }
        let priority = dec.u8()?;
        let distance = dec.u8()?;
        retry_list.push((
            ready,
            seq,
            Entry {
                page,
                priority,
                distance,
            },
        ));
    }
    let nok = dec.len()?;
    if politeness {
        if nok != num_hosts {
            return Err(SnapshotError::Malformed("politeness table length mismatch"));
        }
    } else if nok != 0 {
        return Err(SnapshotError::Malformed(
            "politeness table present but politeness is off",
        ));
    }
    let mut next_ok = vec![0u64; nok];
    for t in &mut next_ok {
        *t = dec.u64()?;
    }
    let relevant_crawled = dec.u64()?;
    let gave_up = dec.u64()?;
    let until_sample = dec.u64()?;
    if until_sample == 0 {
        return Err(SnapshotError::Malformed("sample countdown out of range"));
    }
    let attempt_counts = match dec.u8()? {
        0 => None,
        1 => {
            if dec.len()? != num_pages {
                return Err(SnapshotError::Malformed("attempt table length mismatch"));
            }
            let mut counts = vec![0u32; num_pages];
            for c in &mut counts {
                *c = dec.u32()?;
            }
            Some(counts)
        }
        _ => return Err(SnapshotError::Malformed("attempt table flag out of range")),
    };
    if attempt_counts.is_none() && !retry_list.is_empty() {
        // The loop gates retry draining on a materialized attempt
        // table; a retry backlog without one could never drain.
        return Err(SnapshotError::Malformed("retries without attempt table"));
    }
    Ok(ResumeState {
        now: 0,
        crawled: 0,
        attempts,
        retries,
        retry_seq,
        retry_list,
        next_ok,
        relevant_crawled,
        gave_up,
        until_sample,
        attempt_counts,
    })
}

impl CrawlEngine<'_> {
    /// Per-host politeness gaps: base plus deterministic jitter. Empty
    /// when politeness is disabled — the scheduler then skips the host
    /// gap lookup entirely.
    fn politeness_gaps(&self, sched: &SchedConfig) -> Vec<u64> {
        let ws = self.web_space();
        if sched.politeness_gap == 0 && sched.politeness_spread == 0 {
            return Vec::new();
        }
        let seed = ws.generation_seed();
        (0..ws.num_hosts() as u64)
            .map(|h| {
                let jitter = if sched.politeness_spread == 0 {
                    0
                } else {
                    Rng::stream(seed, STREAM_POLITENESS | h)
                        .random_range(0..=sched.politeness_spread)
                };
                sched.politeness_gap.saturating_add(jitter)
            })
            .collect()
    }

    /// Run one crawl under the virtual-time scheduler. Same contract as
    /// [`CrawlEngine::run`] — same seeding, same per-page event
    /// sequence, same outcome — except that up to
    /// [`SchedConfig::slots`] fetches overlap in virtual time and
    /// per-host politeness gaps stall hosts between starts. The
    /// frontier is a [`ShardedFrontier`] built from the space's host
    /// table.
    pub fn run_scheduled<S, C>(
        &self,
        sched: &SchedConfig,
        strategy: &mut S,
        classifier: &C,
        sinks: &mut [&mut dyn EventSink],
    ) -> EngineOutcome
    where
        S: Strategy + ?Sized,
        C: Classifier + ?Sized,
    {
        let mut scratch = EngineScratch::new();
        self.run_scheduled_with_scratch(sched, strategy, classifier, sinks, &mut scratch)
    }

    /// [`CrawlEngine::run_scheduled`] with a caller-provided
    /// [`EngineScratch`] (see [`CrawlEngine::run_with_scratch`]).
    pub fn run_scheduled_with_scratch<S, C>(
        &self,
        sched: &SchedConfig,
        strategy: &mut S,
        classifier: &C,
        sinks: &mut [&mut dyn EventSink],
        scratch: &mut EngineScratch,
    ) -> EngineOutcome
    where
        S: Strategy + ?Sized,
        C: Classifier + ?Sized,
    {
        self.run_scheduled_full(sched, strategy, classifier, sinks, scratch)
            .0
    }

    /// [`CrawlEngine::run_scheduled_with_scratch`], additionally
    /// returning the frontier's per-shard load counters — the raw
    /// material for the parallelism sweep's imbalance and handoff
    /// figures (the frontier itself is consumed by the run).
    pub fn run_scheduled_full<S, C>(
        &self,
        sched: &SchedConfig,
        strategy: &mut S,
        classifier: &C,
        sinks: &mut [&mut dyn EventSink],
        scratch: &mut EngineScratch,
    ) -> (EngineOutcome, Vec<ShardStats>)
    where
        S: Strategy + ?Sized,
        C: Classifier + ?Sized,
    {
        let fetch = &mut MetaFetch(classifier);
        // Config-driven snapshot auto-wiring: a `snapshot_every` knob
        // plus a `LANGCRAWL_SNAPSHOT_DIR` environment directory turn
        // any scheduled run into a capturing one, writing framed
        // snapshot files the caller can later feed to
        // [`CrawlEngine::resume`]. Capture never changes the crawl
        // (pinned by the resume-parity suite), so this wiring is
        // invisible to everything downstream.
        if let Some(every) = self.config.snapshot_every {
            if let Ok(dir) = std::env::var("LANGCRAWL_SNAPSHOT_DIR") {
                if !dir.is_empty() {
                    let prefix = format!("crawl-{:016x}", self.web_space().identity_fingerprint());
                    let mut sink = DirSink::new(dir, prefix);
                    return self.dispatch_sched(
                        sched,
                        strategy,
                        fetch,
                        sinks,
                        scratch,
                        Some(SnapPlan {
                            every,
                            sink: &mut sink,
                        }),
                    );
                }
            }
        }
        self.dispatch_sched(sched, strategy, fetch, sinks, scratch, None)
    }

    /// Is this the scheduler's degenerate point — the configuration at
    /// which the host machinery cannot block, delay or reorder
    /// anything, so the legacy rings reproduce the schedule exactly?
    fn is_degenerate(sched: &SchedConfig) -> bool {
        sched.effective_slots() == 1
            && sched.shards == 0
            && sched.politeness_gap == 0
            && sched.politeness_spread == 0
    }

    /// Pick the frontier tier and enter the event loop (or the legacy
    /// loop at the degenerate point) — the entry every scheduled run,
    /// metadata or content mode, goes through.
    pub(crate) fn dispatch_sched<S, X>(
        &self,
        sched: &SchedConfig,
        strategy: &mut S,
        fetch: &mut X,
        sinks: &mut [&mut dyn EventSink],
        scratch: &mut EngineScratch,
        plan: Option<SnapPlan<'_>>,
    ) -> (EngineOutcome, Vec<ShardStats>)
    where
        S: Strategy + ?Sized,
        X: Fetch + ?Sized,
    {
        let ws = self.web_space();
        // Degenerate-point elision, tiered like the fault layer's
        // inert-model fast path. With one slot, zero politeness and no
        // explicit shard request, the host machinery cannot block,
        // delay or reorder anything — the single slot always drains
        // before the next pop, so no host is ever busy or cooling at
        // pop time, and one shard's order is [`UrlQueue`] order (the
        // shard-parity property test pins that equivalence; an explicit
        // `shards` setting opts back into the sharded frontier, which
        // the conformance suite uses to pin the sharded `K = 1`
        // schedule against the legacy goldens). Two degenerate tiers:
        //
        // 1. No sink asks for [`SlotIdle`](CrawlEvent::SlotIdle) — the
        //    only scheduler-only event that can fire here (it marks
        //    retry-backoff stalls; handoffs and politeness waits are
        //    structurally impossible). Then the schedule *is* the
        //    legacy loop, outcome, ticks, events and all (pinned by
        //    `single_slot_schedule_matches_legacy_engine`), so run it
        //    verbatim: the `K = 1` fast path every default `Simulator`
        //    and `ContentSimulator` run takes. The virtual-time loop
        //    costs measurably more per page here (DESIGN.md §5); the
        //    scheduler-overhead microbench gate prices this elided path,
        //    not that loop.
        //    Snapshot capture needs the virtual-time loop's state
        //    layout, so a capturing run skips this tier (the loop over
        //    the rings is bit-identical anyway).
        // 2. A sink wants `SlotIdle` (or snapshots are on): run the
        //    virtual-time loop, but over the legacy rings at ring cost
        //    instead of the sharded frontier's heaps.
        let degenerate = Self::is_degenerate(sched);
        let wants = sinks.iter().fold(0u16, |m, s| m | s.interests());
        if plan.is_none() && degenerate && wants & interest::SLOT_IDLE == 0 {
            let frontier = UrlQueue::new(ws.num_pages(), strategy.levels());
            let outcome = self.legacy_loop(frontier, strategy, fetch, sinks, scratch);
            return (outcome, Vec::new());
        }
        let levels = strategy.levels().max(1);
        let kind = if degenerate { KIND_RINGS } else { KIND_SHARDED };
        let snap = plan.map(|p| SnapCtl {
            every: p.every.max(1),
            // Fresh runs capture first at `every` (tick 0 is the
            // initial state [`CrawlEngine::snapshot`] hands out).
            next_at: p.every.max(1),
            head: self.snap_head(sched, levels as u32, kind),
            sink: p.sink,
            buf: Enc::default(),
        });
        if degenerate {
            let frontier = UrlQueue::new(ws.num_pages(), levels);
            self.sched_loop(
                sched,
                strategy,
                fetch,
                sinks,
                scratch,
                LoopCtl {
                    frontier,
                    init: None,
                    snap,
                },
            )
        } else {
            let frontier = ShardedFrontier::for_space(ws, levels, sched.effective_shards());
            self.sched_loop(
                sched,
                strategy,
                fetch,
                sinks,
                scratch,
                LoopCtl {
                    frontier,
                    init: None,
                    snap,
                },
            )
        }
    }

    /// The identity header for snapshots of this engine's runs.
    fn snap_head(&self, sched: &SchedConfig, levels: u32, kind: u8) -> SnapHead {
        let ws = self.web_space();
        SnapHead {
            space_fp: ws.identity_fingerprint(),
            gen_seed: ws.generation_seed(),
            config_fp: self.config.snapshot_fingerprint(),
            levels,
            sched: *sched,
            kind,
            tick: 0,
            crawled: 0,
        }
    }

    /// The tick-0 snapshot of a scheduled crawl that has not started:
    /// seeds parked in the frontier, all counters zero. Resuming it is
    /// exactly [`CrawlEngine::run_scheduled_full`] (the resume-parity
    /// suite pins that), which makes it the base case for snapshot
    /// chains and a convenient fixture for codec tests.
    pub fn snapshot<S>(&self, sched: &SchedConfig, strategy: &S) -> CrawlSnapshot
    where
        S: Strategy + ?Sized,
    {
        let ws = self.web_space();
        let levels = strategy.levels().max(1);
        let degenerate = Self::is_degenerate(sched);
        let kind = if degenerate { KIND_RINGS } else { KIND_SHARDED };
        let head = self.snap_head(sched, levels as u32, kind);
        let politeness = sched.politeness_gap != 0 || sched.politeness_spread != 0;
        let next_ok = if politeness {
            vec![0u64; ws.num_hosts()]
        } else {
            Vec::new()
        };
        let run = RunSnap {
            attempts: 0,
            retries: 0,
            retry_seq: 0,
            retry_heap: &BinaryHeap::new(),
            next_ok: &next_ok,
            politeness,
            relevant_crawled: 0,
            gave_up: 0,
            until_sample: self.config.sample_cadence(ws.num_pages()),
            attempt_counts: &[],
        };
        let seed = |frontier: &mut dyn SlotFrontier| {
            for &s in ws.seeds() {
                frontier.push(Entry {
                    page: s,
                    priority: 0,
                    distance: 0,
                });
            }
        };
        let payload = if degenerate {
            let mut frontier = UrlQueue::new(ws.num_pages(), levels);
            seed(&mut frontier);
            encode_snapshot(&head, &run, &frontier)
        } else {
            let mut frontier = ShardedFrontier::for_space(ws, levels, sched.effective_shards());
            seed(&mut frontier);
            encode_snapshot(&head, &run, &frontier)
        };
        let mut head_enc = Enc::default();
        head.encode(&mut head_enc);
        CrawlSnapshot::from_parts(payload, head, head_enc.buf.len())
    }

    /// [`CrawlEngine::run_scheduled_full`] with explicit snapshot
    /// capture: every `every` ticks (at least 1) the complete crawl
    /// state is encoded, framed and handed to `sink`. Capture is
    /// observation-only — the outcome, events and shard stats are
    /// bit-identical to a non-capturing run.
    pub fn run_scheduled_snapshots<S, C>(
        &self,
        sched: &SchedConfig,
        strategy: &mut S,
        classifier: &C,
        sinks: &mut [&mut dyn EventSink],
        every: u64,
        sink: &mut dyn SnapshotSink,
    ) -> (EngineOutcome, Vec<ShardStats>)
    where
        S: Strategy + ?Sized,
        C: Classifier + ?Sized,
    {
        let mut scratch = EngineScratch::new();
        self.dispatch_sched(
            sched,
            strategy,
            &mut MetaFetch(classifier),
            sinks,
            &mut scratch,
            Some(SnapPlan { every, sink }),
        )
    }

    /// Resume a crawl from a snapshot and run it to completion. The
    /// engine must be built over the *same* web space the snapshot was
    /// taken from (verified via the space fingerprint — the space is
    /// regenerated from config, never stored in the snapshot) with the
    /// same engine configuration and a strategy of the same shape; the
    /// schedule knobs travel inside the snapshot. Events fire only for
    /// the remainder of the crawl; counters in the final outcome are
    /// cumulative, so the outcome equals an uninterrupted run's.
    pub fn resume<S, C>(
        &self,
        snap: &CrawlSnapshot,
        strategy: &mut S,
        classifier: &C,
        sinks: &mut [&mut dyn EventSink],
    ) -> Result<(EngineOutcome, Vec<ShardStats>), SnapshotError>
    where
        S: Strategy + ?Sized,
        C: Classifier + ?Sized,
    {
        self.resume_full(snap, strategy, classifier, sinks, None)
    }

    /// [`CrawlEngine::resume`] with capture re-enabled: the resumed run
    /// captures immediately at the resume tick — reproducing the input
    /// snapshot byte-for-byte, the codec's round-trip fixed point —
    /// and every `every` ticks after.
    pub fn resume_snapshots<S, C>(
        &self,
        snap: &CrawlSnapshot,
        strategy: &mut S,
        classifier: &C,
        sinks: &mut [&mut dyn EventSink],
        every: u64,
        sink: &mut dyn SnapshotSink,
    ) -> Result<(EngineOutcome, Vec<ShardStats>), SnapshotError>
    where
        S: Strategy + ?Sized,
        C: Classifier + ?Sized,
    {
        self.resume_full(
            snap,
            strategy,
            classifier,
            sinks,
            Some(SnapPlan { every, sink }),
        )
    }

    fn resume_full<S, C>(
        &self,
        snap: &CrawlSnapshot,
        strategy: &mut S,
        classifier: &C,
        sinks: &mut [&mut dyn EventSink],
        plan: Option<SnapPlan<'_>>,
    ) -> Result<(EngineOutcome, Vec<ShardStats>), SnapshotError>
    where
        S: Strategy + ?Sized,
        C: Classifier + ?Sized,
    {
        let ws = self.web_space();
        snap.verify_space(ws)?;
        if snap.head.config_fp != self.config.snapshot_fingerprint() {
            return Err(SnapshotError::ConfigMismatch("engine configuration"));
        }
        let levels = strategy.levels().max(1);
        if snap.head.levels as usize != levels {
            return Err(SnapshotError::ConfigMismatch("strategy level count"));
        }
        // The schedule rides in the snapshot: the frontier kind it
        // implies must match the one the payload carries, else the
        // header was stitched from two different runs.
        let sched = snap.head.sched;
        let expected_kind = if Self::is_degenerate(&sched) {
            KIND_RINGS
        } else {
            KIND_SHARDED
        };
        if snap.head.kind != expected_kind {
            return Err(SnapshotError::Malformed(
                "frontier kind inconsistent with schedule",
            ));
        }
        let politeness = sched.politeness_gap != 0 || sched.politeness_spread != 0;
        let mut dec = snap.state_dec();
        let mut rs = decode_run_state(&mut dec, ws.num_pages(), ws.num_hosts(), politeness)?;
        rs.now = snap.head.tick;
        rs.crawled = snap.head.crawled;
        // Resumed capture starts AT the resume tick, so the first
        // emitted snapshot is byte-identical to the one resumed from.
        let snapctl = plan.map(|p| SnapCtl {
            every: p.every.max(1),
            next_at: snap.head.tick,
            head: snap.head,
            sink: p.sink,
            buf: Enc::default(),
        });
        let mut scratch = EngineScratch::new();
        if snap.head.kind == KIND_RINGS {
            let frontier = UrlQueue::decode_state(&mut dec, ws.num_pages(), levels)?;
            if !dec.is_empty() {
                return Err(SnapshotError::Malformed("trailing state bytes"));
            }
            Ok(self.sched_loop(
                &sched,
                strategy,
                &mut MetaFetch(classifier),
                sinks,
                &mut scratch,
                LoopCtl {
                    frontier,
                    init: Some(rs),
                    snap: snapctl,
                },
            ))
        } else {
            let host_of_page: Vec<u32> = ws.page_ids().map(|p| ws.host_id(p)).collect();
            let frontier = ShardedFrontier::decode_state(
                &mut dec,
                host_of_page,
                ws.num_hosts(),
                levels,
                sched.effective_shards(),
            )?;
            if !dec.is_empty() {
                return Err(SnapshotError::Malformed("trailing state bytes"));
            }
            Ok(self.sched_loop(
                &sched,
                strategy,
                &mut MetaFetch(classifier),
                sinks,
                &mut scratch,
                LoopCtl {
                    frontier,
                    init: Some(rs),
                    snap: snapctl,
                },
            ))
        }
    }

    /// The virtual-time event loop, monomorphized per frontier (the
    /// sharded frontier, or the legacy rings at the degenerate point).
    /// `ctl` carries the frontier, an optional resume state (restored
    /// verbatim in place of seeding) and an optional capture plan.
    // lint:root(panic-free) — the steady-state event loop; every
    // simulated fetch passes through here.
    fn sched_loop<F, S, X>(
        &self,
        sched: &SchedConfig,
        strategy: &mut S,
        fetch: &mut X,
        sinks: &mut [&mut dyn EventSink],
        scratch: &mut EngineScratch,
        ctl: LoopCtl<'_, F>,
    ) -> (EngineOutcome, Vec<ShardStats>)
    where
        F: SlotFrontier,
        S: Strategy + ?Sized,
        X: Fetch + ?Sized,
    {
        let LoopCtl {
            mut frontier,
            init,
            mut snap,
        } = ctl;
        scratch.begin_run();
        let ws = self.web_space();
        let gaps = self.politeness_gaps(sched);
        let slots = sched.effective_slots();
        let sample_interval = self.config.sample_cadence(ws.num_pages());
        let budget = self.config.max_pages.unwrap_or(u64::MAX);
        let wants = sinks.iter().fold(0u16, |m, s| m | s.interests());

        let retry = self.config.retry;
        let max_attempts = retry.effective_max_attempts();
        let fault = self.fault.as_ref();
        // Next allowed fetch *start* per host (start-to-start gap),
        // written at each start, read at the completion's release.
        let mut next_ok: Vec<u64> = vec![0; ws.num_hosts()];

        // Same lazy fault bookkeeping as the legacy loop; the attempt
        // table lives in the scratch (see `EngineScratch`).
        let mut retry_heap: BinaryHeap<Reverse<(u64, u64, Entry)>> = BinaryHeap::new();
        let mut retry_seq: u64 = 0;
        // Born sorted by (finish, start seq): see [`InFlight`].
        let mut in_flight: VecDeque<InFlight> = VecDeque::with_capacity(slots as usize);
        let mut busy: u32 = 0;
        let mut now: u64 = 0;
        let mut attempts: u64 = 0;
        let mut retries: u64 = 0;

        let mut st = RunState {
            sinks,
            wants,
            sample_interval,
            until_sample: sample_interval,
            crawled: 0,
            relevant_crawled: 0,
            gave_up: 0,
        };

        match init {
            // Resume: the frontier arrived decoded; restore the loop
            // state verbatim. Slots are empty at every capture point
            // (see [`ResumeState`]), so nothing in-flight to rebuild.
            Some(r) => {
                now = r.now;
                attempts = r.attempts;
                retries = r.retries;
                retry_seq = r.retry_seq;
                for x in r.retry_list {
                    retry_heap.push(Reverse(x));
                }
                if !gaps.is_empty() {
                    next_ok = r.next_ok;
                }
                st.crawled = r.crawled;
                st.relevant_crawled = r.relevant_crawled;
                st.gave_up = r.gave_up;
                st.until_sample = r.until_sample;
                if let Some(counts) = r.attempt_counts {
                    scratch.attempt_counts.extend_from_slice(&counts);
                }
            }
            // Fresh run: seed the frontier from the space.
            None => {
                for &s in ws.seeds() {
                    frontier.push(Entry {
                        page: s,
                        priority: 0,
                        distance: 0,
                    });
                }
            }
        }

        'outer: loop {
            // 0. Capture at the loop-top tick boundary — before any
            // state moves this iteration, so a resumed run's first
            // re-capture reproduces the snapshot it resumed from
            // byte-for-byte. Capture only observes; the crawl is
            // unchanged with or without it (resume-parity suite).
            if let Some(c) = snap.as_mut() {
                if now >= c.next_at {
                    let mut head = c.head;
                    head.tick = now;
                    head.crawled = st.crawled;
                    c.buf.buf.clear();
                    let payload_at = frame_begin(&mut c.buf);
                    encode_snapshot_into(
                        &head,
                        &RunSnap {
                            attempts,
                            retries,
                            retry_seq,
                            retry_heap: &retry_heap,
                            next_ok: &next_ok,
                            politeness: !gaps.is_empty(),
                            relevant_crawled: st.relevant_crawled,
                            gave_up: st.gave_up,
                            until_sample: st.until_sample,
                            attempt_counts: &scratch.attempt_counts,
                        },
                        &frontier,
                        &mut c.buf,
                    );
                    frame_end(&mut c.buf, payload_at);
                    c.sink.on_snapshot(now, &c.buf.buf);
                    c.next_at = now.saturating_add(c.every);
                }
            }
            // 1. Due retries re-enter the frontier before slots fill, so
            // the frontier orders them against fresh discoveries —
            // identical to the legacy loop's drain-before-pop.
            if !scratch.attempt_counts.is_empty() {
                while let Some(&Reverse((ready, _, _))) = retry_heap.peek() {
                    if ready > now {
                        break;
                    }
                    if let Some(Reverse((_, _, e))) = retry_heap.pop() {
                        frontier.requeue(e);
                    }
                }
            }

            // 2. Fill free slots in global priority order. Popping marks
            // the host busy, so one host never occupies two slots.
            while busy < slots {
                let Some(entry) = frontier.pop_ready() else {
                    break;
                };
                let p = entry.page;
                attempts += 1;
                let meta = ws.meta(p);
                let (attempt, outcome) = match &fault {
                    Some(model) => {
                        let a = if scratch.attempt_counts.is_empty() {
                            1
                        } else {
                            // lint:allow(no-panic-transitive): slot and host tables are fixed-size from init; indices originate from those tables
                            scratch.attempt_counts[p as usize] + 1
                        };
                        if a > 1 {
                            retries += 1;
                        }
                        (a, model.outcome_at(meta.status, meta.host, p, a))
                    }
                    None => (
                        1,
                        FetchOutcome {
                            status: meta.status,
                            transient: false,
                        },
                    ),
                };
                if !gaps.is_empty() {
                    let host = frontier.host_of(p);
                    next_ok[host as usize] = now.saturating_add(gaps[host as usize]);
                }
                in_flight.push_back(InFlight {
                    finish: now + 1,
                    entry,
                    attempt,
                    outcome,
                });
                busy += 1;
            }

            // 3. Advance the clock to the next event. With busy slots
            // that is always the earliest completion: fetches take one
            // tick, so every in-flight fetch finishes at `now + 1`, and
            // cool-downs/retries (strictly in the future) cannot beat
            // it. With all slots empty the next event is the earliest
            // cool-down expiry or retry readiness; neither pending means
            // the crawl is over.
            let t_next = if let Some(f) = in_flight.front() {
                f.finish
            } else {
                let next_retry = retry_heap.peek().map(|&Reverse((ready, _, _))| ready);
                match [frontier.next_cooling(), next_retry]
                    .into_iter()
                    .flatten()
                    .min()
                {
                    Some(t) => t,
                    None => break 'outer,
                }
            };
            // Idle slots while work is waiting (parked behind busy or
            // cooling hosts, or backing off in the retry heap) are the
            // politeness/parallelism stall signal the sweep measures.
            if wants & interest::SLOT_IDLE != 0 && busy < slots {
                let waiting = frontier.pending() > 0 || !retry_heap.is_empty();
                if waiting {
                    emit(
                        st.sinks,
                        CrawlEvent::SlotIdle {
                            tick: now,
                            idle: slots - busy,
                            span: t_next - now,
                        },
                    );
                }
            }
            now = t_next;
            frontier.advance_to(now);

            // 4. Process completions due now, in (finish, start seq)
            // order. Each releases its host first — politeness runs
            // start-to-start, so the host may cool even as its fetch
            // resolves — then retries or resolves exactly like the
            // legacy loop.
            while let Some(&f) = in_flight.front() {
                if f.finish > now {
                    break;
                }
                in_flight.pop_front();
                busy -= 1;
                let p = f.entry.page;
                let host = frontier.host_of(p);
                let ready_at = if gaps.is_empty() {
                    0
                } else {
                    next_ok[host as usize]
                };
                let parked = frontier.release(host, ready_at, now);
                if parked && wants & interest::POLITENESS != 0 {
                    emit(
                        st.sinks,
                        CrawlEvent::PolitenessWait {
                            host,
                            until: ready_at,
                        },
                    );
                }

                if f.outcome.transient && f.attempt < max_attempts {
                    if scratch.attempt_counts.is_empty() {
                        scratch.materialize_attempts(ws.num_pages());
                    }
                    scratch.attempt_counts[p as usize] = f.attempt;
                    if wants & interest::ATTEMPT != 0 {
                        emit(
                            st.sinks,
                            CrawlEvent::FetchAttempt {
                                page: p,
                                attempt: f.attempt,
                                status: f.outcome.status,
                                transient: true,
                                retry: true,
                                tick: now,
                            },
                        );
                    }
                    let ready = now.saturating_add(retry.delay(f.attempt));
                    retry_heap.push(Reverse((ready, retry_seq, f.entry)));
                    retry_seq += 1;
                    continue;
                }

                let handoffs_before = frontier.handoffs();
                frontier.set_origin(Some(host));
                self.resolve(
                    &mut st,
                    &mut frontier,
                    strategy,
                    fetch,
                    scratch,
                    Resolution {
                        entry: f.entry,
                        attempt: f.attempt,
                        outcome: f.outcome,
                        tick: now,
                    },
                );
                frontier.set_origin(None);
                let crossed = frontier.handoffs() - handoffs_before;
                if crossed > 0 && wants & interest::HANDOFF != 0 {
                    emit(
                        st.sinks,
                        CrawlEvent::ShardHandoff {
                            page: p,
                            crossed: crossed as u32,
                        },
                    );
                }
                if st.crawled >= budget {
                    break 'outer;
                }
            }
        }

        if wants & interest::FINISHED != 0 {
            emit(
                st.sinks,
                CrawlEvent::Finished {
                    crawled: st.crawled,
                    relevant: st.relevant_crawled,
                    pending: frontier.pending(),
                    max_pending: frontier.max_pending(),
                    total_pushes: frontier.total_pushes(),
                },
            );
        }

        let outcome = EngineOutcome {
            crawled: st.crawled,
            relevant_crawled: st.relevant_crawled,
            max_pending: frontier.max_pending(),
            total_pushes: frontier.total_pushes(),
            attempts,
            retries,
            gave_up: st.gave_up,
            ticks: now,
        };
        (outcome, frontier.shard_stats())
    }
}

#[inline]
fn emit(sinks: &mut [&mut dyn EventSink], event: CrawlEvent) {
    for sink in sinks.iter_mut() {
        sink.on_event(&event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::OracleClassifier;
    use crate::engine::EngineConfig;
    use crate::event::{SchedStatsSink, VisitRecorder};
    use crate::strategy::{BreadthFirst, SimpleStrategy};
    use langcrawl_webgraph::{GeneratorConfig, WebSpace};

    fn space() -> WebSpace {
        GeneratorConfig::thai_like().scaled(4_000).build(9)
    }

    #[test]
    fn single_slot_schedule_matches_legacy_engine() {
        let ws = space();
        let engine = CrawlEngine::new(&ws, EngineConfig::default());
        let legacy = {
            let mut visits = VisitRecorder::new();
            let o = engine.run(
                UrlQueue::new(ws.num_pages(), 1),
                &mut BreadthFirst::new(),
                &OracleClassifier::target(ws.target_language()),
                &mut [&mut visits],
            );
            (o, visits.into_visited())
        };
        // Default config (full legacy-loop elision), the same with a
        // `SlotIdle`-interested sink attached (the virtual-time loop
        // over the legacy rings), and explicit shard counts (the real
        // sharded frontier) must all reproduce the legacy run exactly.
        for (shards, stats) in [(0u32, false), (0, true), (1, false), (3, false)] {
            let scheduled = {
                let mut visits = VisitRecorder::new();
                let mut sched_stats = SchedStatsSink::new();
                let mut sinks: Vec<&mut dyn EventSink> = vec![&mut visits];
                if stats {
                    sinks.push(&mut sched_stats);
                }
                let o = engine.run_scheduled(
                    &SchedConfig {
                        shards,
                        ..SchedConfig::default()
                    },
                    &mut BreadthFirst::new(),
                    &OracleClassifier::target(ws.target_language()),
                    &mut sinks,
                );
                (o, visits.into_visited())
            };
            assert_eq!(legacy.0, scheduled.0, "{shards} shards, stats={stats}");
            assert_eq!(legacy.1, scheduled.1, "{shards} shards, stats={stats}");
        }
    }

    #[test]
    fn more_slots_shrink_the_makespan() {
        let ws = space();
        let engine = CrawlEngine::new(&ws, EngineConfig::default());
        let run = |k: u32| {
            engine.run_scheduled(
                &SchedConfig::with_slots(k),
                &mut SimpleStrategy::soft(),
                &OracleClassifier::target(ws.target_language()),
                &mut [],
            )
        };
        let k1 = run(1);
        let k8 = run(8);
        // Same work either way; only the schedule differs.
        assert_eq!(k1.crawled, k8.crawled);
        assert_eq!(k1.relevant_crawled, k8.relevant_crawled);
        assert!(
            k8.ticks < k1.ticks,
            "8 slots must beat 1: {} vs {}",
            k8.ticks,
            k1.ticks
        );
        // Perfect speedup is ceil(attempts / K); the schedule can only
        // be worse (per-host concurrency 1), never better.
        assert!(k8.ticks >= k8.attempts.div_ceil(8));
    }

    #[test]
    fn politeness_stretches_the_makespan() {
        let ws = space();
        let engine = CrawlEngine::new(&ws, EngineConfig::default());
        let run = |gap: u64| {
            let mut stats = SchedStatsSink::new();
            let o = engine.run_scheduled(
                &SchedConfig {
                    slots: 4,
                    politeness_gap: gap,
                    ..SchedConfig::default()
                },
                &mut SimpleStrategy::soft(),
                &OracleClassifier::target(ws.target_language()),
                &mut [&mut stats],
            );
            (o, stats)
        };
        let (free, _) = run(0);
        let (polite, stats) = run(6);
        assert_eq!(
            free.crawled, polite.crawled,
            "politeness reorders, never loses"
        );
        assert_eq!(free.relevant_crawled, polite.relevant_crawled);
        assert!(polite.ticks > free.ticks, "gaps must stall the schedule");
        assert!(
            stats.politeness_waits > 0,
            "hosts must park with work queued"
        );
        assert!(stats.idle_slot_ticks > 0, "stalls must idle slots");
    }

    #[test]
    fn politeness_jitter_is_deterministic() {
        let ws = space();
        let engine = CrawlEngine::new(&ws, EngineConfig::default());
        let sched = SchedConfig {
            slots: 4,
            politeness_gap: 2,
            politeness_spread: 3,
            ..SchedConfig::default()
        };
        let gaps = engine.politeness_gaps(&sched);
        assert_eq!(gaps, engine.politeness_gaps(&sched));
        assert!(gaps.iter().all(|&g| (2..=5).contains(&g)));
        assert!(
            gaps.iter().any(|&g| g != gaps[0]),
            "jitter must actually vary across hosts"
        );
        let run = || {
            let mut visits = VisitRecorder::new();
            let o = engine.run_scheduled(
                &sched,
                &mut SimpleStrategy::soft(),
                &OracleClassifier::target(ws.target_language()),
                &mut [&mut visits],
            );
            (o, visits.into_visited())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn budget_stops_scheduled_runs() {
        let ws = space();
        let engine = CrawlEngine::new(
            &ws,
            EngineConfig {
                max_pages: Some(100),
                ..EngineConfig::default()
            },
        );
        let outcome = engine.run_scheduled(
            &SchedConfig::with_slots(16),
            &mut BreadthFirst::new(),
            &OracleClassifier::target(ws.target_language()),
            &mut [],
        );
        assert_eq!(outcome.crawled, 100);
    }

    #[test]
    fn faulted_scheduled_runs_retry_and_terminate() {
        let ws = space();
        let engine = CrawlEngine::new(
            &ws,
            EngineConfig {
                fault: langcrawl_webgraph::FaultConfig::with_rate(0.2),
                ..EngineConfig::default()
            },
        );
        let outcome = engine.run_scheduled(
            &SchedConfig {
                slots: 4,
                politeness_gap: 1,
                ..SchedConfig::default()
            },
            &mut BreadthFirst::new(),
            &OracleClassifier::target(ws.target_language()),
            &mut [],
        );
        assert!(outcome.crawled > 0);
        assert!(outcome.retries > 0);
        assert!(outcome.gave_up > 0);
        assert_eq!(outcome.attempts, outcome.crawled + outcome.retries);
    }
}
