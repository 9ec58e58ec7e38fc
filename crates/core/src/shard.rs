//! The host-sharded frontier — BUbiNG's frontier layout in miniature.
//!
//! Production crawlers partition the frontier by host: politeness is a
//! per-host constraint, so the unit of scheduling is the host queue,
//! and hosts are hash-partitioned across shards (agents, in BUbiNG's
//! vocabulary) so discovery traffic can be routed to the shard that
//! owns the link's host. [`ShardedFrontier`] reproduces that layout
//! over the virtual web space while implementing the existing
//! [`Frontier`] trait, so strategies and the admission contract are
//! untouched:
//!
//! * **admission** is global and identical to [`UrlQueue`]: one
//!   per-page admission bar, `pending()` counts distinct waiting pages;
//! * **storage** is [`UrlQueue`]'s: every admitted entry is appended
//!   to its priority level's FIFO ring. Only a host that cannot fetch
//!   (`Busy` or `Cooling`) needs a queue of its own: when one of its
//!   entries reaches a ring head, the entry moves to the host's
//!   `(host, level)` parked list — index-linked FIFO lists over one
//!   slab of nodes, recycled through a free list, so steady-state
//!   churn allocates nothing;
//! * **pop order** is the exact global `(priority level, FIFO seq)`
//!   discipline of [`UrlQueue`] over ready hosts, *regardless of shard
//!   count*. Two candidates compete: the first ring head (lowest level)
//!   whose host is ready, and the top of one token heap holding each
//!   ready host's parked minimum. A parked entry left its ring's head
//!   before every entry still in that ring, so it wins level ties, and
//!   parked entries order among themselves by park ordinal, which
//!   follows ring order within a level. Stale entries are checked only
//!   after that choice and dropped destructively, exactly when the FIFO
//!   rings would have skipped them. The shard-parity and schedule
//!   property tests drive this equivalence through random interleavings.
//!
//! The scheduler-facing surface ([`ShardedFrontier::pop_ready`],
//! [`ShardedFrontier::release`], [`ShardedFrontier::advance_to`]) adds
//! per-host state — `Ready`/`Busy`/`Cooling` — on top: a busy or
//! cooling host's entries are passed over (and parked as they surface),
//! which is how per-host concurrency 1 and politeness gaps are enforced
//! without any scan; cool-downs wait in one `(ready_at, host)` heap.
//! With every host permanently ready (the plain [`Frontier`] path),
//! nothing is ever parked and the frontier is [`UrlQueue`]'s rings.
//! Shards are accounting only ([`ShardStats`], handoffs): pop order is
//! global.
//!
//! Tie-breaks are total and deterministic everywhere: `(level, seq)`
//! orders entries, `(level, park ordinal)` orders parked minima,
//! `(ready_at, host)` orders cool-downs, and shard assignment is a pure
//! hash of the host id.
//!
//! [`UrlQueue`]: crate::queue::UrlQueue

use crate::frontier::Frontier;
use crate::queue::{Entry, BAR_DONE, BAR_NEVER};
use crate::snapshot::{Dec, Enc, SnapshotError};
use langcrawl_rng::mix;
use langcrawl_webgraph::{PageId, WebSpace};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Salt for the host → shard hash. Any fixed constant works; hashing
/// (rather than `host % shards`) decorrelates shard load from the
/// generator's host-id layout, which allocates contiguous id ranges to
/// similar hosts.
const SHARD_SALT: u64 = 0x5ca1_ab1e_0000_0001;

/// Slab sentinel: "no node" for list links and the free-list head.
const NIL: u32 = u32::MAX;

/// Sentinel page marking a detached (free-list) node, so a linear slab
/// scan can tell live parked entries from recycled ones without chasing
/// list links. No real page reaches this id — admission bounds pages by
/// the space size, far below `u32::MAX`.
const FREE_PAGE: PageId = PageId::MAX;

/// Token keys pack `level << LEVEL_SHIFT | park ordinal`, so one `u64`
/// comparison is the `(level, ordinal)` order.
const LEVEL_SHIFT: u32 = 56;

/// `exposed` sentinel: the host holds no live token.
const NO_TOKEN: u64 = u64::MAX;

/// One parked entry in the slab: the payload plus the `next` link of
/// its `(host, level)` FIFO list. `ord` is the global park ordinal —
/// unique, and increasing in ring order within a level, so the list
/// head at the host's lowest non-empty level is its parked minimum.
#[derive(Debug, Clone, Copy)]
struct Node {
    ord: u64,
    page: PageId,
    priority: u8,
    distance: u8,
    /// Next node in this `(host, level)` list, or [`NIL`]. Doubles as
    /// the free-list link when the node is recycled.
    next: u32,
}

/// Per-host scheduling state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HostState {
    /// May fetch: its ring entries are candidates, and its parked
    /// minimum (if any) stands in the token heap.
    Ready = 0,
    /// A fetch is in flight: per-host concurrency 1 parks everything.
    Busy = 1,
    /// Politeness cool-down: parked until its `ready_at` tick.
    Cooling = 2,
}

/// Per-shard load counters, for the imbalance stats the parallelism
/// sweep reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Accepted pushes routed to this shard.
    pub pushes: u64,
    /// Entries popped from this shard.
    pub pops: u64,
    /// Accepted pushes that arrived from a fetch resolving on another
    /// shard — the cross-shard discovery handoff traffic.
    pub handoffs_in: u64,
}

/// The host-sharded, politeness-aware frontier. See the module docs for
/// the layout; see [`Frontier`] for the admission contract it shares
/// with [`UrlQueue`](crate::queue::UrlQueue) and
/// [`crate::frontier::BestFirstFrontier`].
///
/// ```
/// use langcrawl_core::frontier::Frontier;
/// use langcrawl_core::queue::Entry;
/// use langcrawl_core::shard::ShardedFrontier;
///
/// // Four pages on two hosts, two shards.
/// let mut f = ShardedFrontier::new(vec![0, 0, 1, 1], 2, 2, 2);
/// f.push(Entry { page: 2, priority: 1, distance: 0 });
/// f.push(Entry { page: 1, priority: 0, distance: 0 });
/// assert_eq!(f.pop().unwrap().page, 1); // global level order, not per-shard
/// assert_eq!(f.pop().unwrap().page, 2);
/// ```
#[derive(Debug)]
pub struct ShardedFrontier {
    /// One FIFO ring per priority level: every admitted entry with its
    /// host, in admission order, until it pops or parks. Priorities at
    /// or above the level count clamp into the last ring, exactly like
    /// [`UrlQueue`].
    rings: Vec<VecDeque<(Entry, u32)>>,
    /// The parked-entry slab: entries that surfaced while their host
    /// was busy or cooling, linked into `(host, level)` FIFO lists.
    /// Detached nodes move to the free list and are reused before the
    /// slab grows.
    nodes: Vec<Node>,
    /// Head of the free list ([`NIL`] when empty).
    free: u32,
    /// Parked list heads, indexed `host * levels + level`; [`NIL`]
    /// marks an empty list.
    heads: Vec<u32>,
    /// Parked list tails, same indexing; meaningful only when the
    /// matching head is not [`NIL`].
    tails: Vec<u32>,
    /// Next park ordinal.
    parks: u64,
    /// `(key, host)` tokens: each ready host with parked entries has
    /// one whose key matches `exposed`; others are stale and dropped
    /// when they surface.
    tokens: BinaryHeap<Reverse<(u64, u32)>>,
    /// Key of each host's live token, or [`NO_TOKEN`].
    exposed: Vec<u64>,
    /// Entries each host stores, in rings or parked, stale included —
    /// what [`ShardedFrontier::release`] reports as work still queued.
    stored: Vec<u32>,
    host_state: Vec<HostState>,
    /// `(ready_at, host)` for hosts in politeness cool-down.
    cooling: BinaryHeap<Reverse<(u64, u32)>>,
    /// Host owning each page. Read once per accepted push; from then on
    /// the ring entry carries it, and a parked entry's host is its
    /// list's.
    host_of_page: Vec<u32>,
    /// Per-page admission bar, [`UrlQueue`]'s encoding: an entry with
    /// key `k` is live iff `k < bar`. The only per-page table a
    /// rejected push or a pop touches.
    bar: Vec<u32>,
    /// `bar == BAR_DONE` as one bit per page, kept alongside so a
    /// capture copies words instead of scanning bars.
    done: Vec<u64>,
    /// Owning shard of each host (pure hash of the host id).
    shard_of_host: Vec<u32>,
    stats: Vec<ShardStats>,
    pending: usize,
    max_pending: usize,
    pushes: u64,
    /// Host currently resolving a fetch, for handoff attribution.
    origin: Option<u32>,
    /// Total accepted pushes that crossed shards (sum of
    /// [`ShardStats::handoffs_in`]).
    handoffs: u64,
}

impl ShardedFrontier {
    /// A frontier over `num_pages = host_of_page.len()` pages living on
    /// `num_hosts` hosts, with `levels` priority levels, partitioned
    /// into `shards` shards.
    pub fn new(host_of_page: Vec<u32>, num_hosts: usize, levels: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let num_pages = host_of_page.len();
        let levels = levels.max(1);
        ShardedFrontier {
            rings: (0..levels).map(|_| VecDeque::new()).collect(),
            nodes: Vec::new(),
            free: NIL,
            heads: vec![NIL; num_hosts * levels],
            tails: vec![NIL; num_hosts * levels],
            parks: 0,
            tokens: BinaryHeap::new(),
            exposed: vec![NO_TOKEN; num_hosts],
            stored: vec![0; num_hosts],
            host_state: vec![HostState::Ready; num_hosts],
            cooling: BinaryHeap::new(),
            host_of_page,
            bar: vec![BAR_NEVER; num_pages],
            done: vec![0; num_pages.div_ceil(64)],
            shard_of_host: (0..num_hosts)
                .map(|h| (mix(SHARD_SALT, h as u64) % shards as u64) as u32)
                .collect(),
            stats: vec![ShardStats::default(); shards],
            pending: 0,
            max_pending: 0,
            pushes: 0,
            origin: None,
            handoffs: 0,
        }
    }

    /// A frontier over a virtual web space's host table.
    pub fn for_space(ws: &WebSpace, levels: usize, shards: usize) -> Self {
        let host_of_page = ws.page_ids().map(|p| ws.host_id(p)).collect();
        ShardedFrontier::new(host_of_page, ws.num_hosts(), levels, shards)
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.stats.len()
    }

    /// Shard owning a host.
    pub fn shard_of(&self, host: u32) -> usize {
        self.shard_of_host[host as usize] as usize
    }

    /// Per-shard load counters, in shard order.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.stats.clone()
    }

    /// Total accepted pushes that crossed shards so far. The scheduler
    /// reads the delta across one resolution to emit
    /// [`crate::event::CrawlEvent::ShardHandoff`].
    #[inline]
    pub fn handoffs(&self) -> u64 {
        self.handoffs
    }

    /// Declare the host whose fetch is currently being resolved:
    /// subsequent accepted pushes landing on another shard count as
    /// handoffs. `None` (the initial state) attributes nothing — seed
    /// pushes are not discovery traffic.
    #[inline]
    pub fn set_origin(&mut self, host: Option<u32>) {
        self.origin = host;
    }

    /// Admit `e` if its key beats the page's bar (`readmit`, the
    /// requeue path, treats a fetched page as never admitted), then
    /// append it to its level's ring with shard stats and handoff
    /// attribution.
    // Covered transitively by the root marker on [`Frontier::push_all`]:
    // rings only grow to their high-water size.
    fn admit(&mut self, e: Entry, readmit: bool) -> bool {
        // lint:allow(no-panic-transitive): host, level and slab indices are minted by this structure and stay in range by construction
        let bar = match self.bar[e.page as usize] {
            BAR_DONE if readmit => {
                self.done[e.page as usize / 64] &= !(1 << (e.page % 64));
                BAR_NEVER
            }
            bar => bar,
        };
        let raised = e.key() as u32 + 1;
        if raised >= bar {
            return false; // fetched, duplicate, or not strictly better
        }
        if bar == BAR_NEVER {
            self.pending += 1;
            self.max_pending = self.max_pending.max(self.pending);
        }
        self.bar[e.page as usize] = raised;
        let host = self.host_of_page[e.page as usize] as usize;
        let si = self.shard_of_host[host] as usize;
        self.stats[si].pushes += 1;
        if let Some(from) = self.origin {
            if self.shard_of_host[from as usize] as usize != si {
                self.stats[si].handoffs_in += 1;
                self.handoffs += 1;
            }
        }
        self.stored[host] += 1;
        let level = (e.priority as usize).min(self.rings.len() - 1);
        self.rings[level].push_back((e, host as u32));
        self.pushes += 1;
        true
    }

    /// Move a ring head whose host cannot fetch to the tail of the
    /// host's `level` list, stamped with the next park ordinal.
    fn park(&mut self, host: u32, level: usize, e: Entry) {
        let node = Node {
            ord: self.parks,
            page: e.page,
            priority: e.priority,
            distance: e.distance,
            next: NIL,
        };
        self.parks += 1;
        // Recycle a detached node before growing the slab.
        let idx = if self.free != NIL {
            let idx = self.free;
            // lint:allow(no-panic-transitive): host, level and slab indices are minted by this structure and stay in range by construction
            self.free = self.nodes[idx as usize].next;
            self.nodes[idx as usize] = node;
            idx
        } else {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        };
        let slot = host as usize * self.rings.len() + level;
        if self.heads[slot] == NIL {
            self.heads[slot] = idx;
        } else {
            self.nodes[self.tails[slot] as usize].next = idx;
        }
        self.tails[slot] = idx;
    }

    /// The host's parked minimum as a token key: the head of its
    /// lowest non-empty level list, or `None` when it parks nothing.
    fn host_min(&self, host: u32) -> Option<u64> {
        let base = host as usize * self.rings.len();
        // lint:allow(no-panic-transitive): host, level and slab indices are minted by this structure and stay in range by construction
        let heads = &self.heads[base..base + self.rings.len()];
        let level = heads.iter().position(|&h| h != NIL)?;
        let node = self.nodes[heads[level] as usize];
        Some((level as u64) << LEVEL_SHIFT | node.ord)
    }

    /// Detach the head of the host's `level` list, recycle its node and
    /// return its entry. Callers pass the level of a live token.
    fn detach_min(&mut self, host: u32, level: usize) -> Entry {
        let slot = host as usize * self.rings.len() + level;
        // lint:allow(no-panic-transitive): host, level and slab indices are minted by this structure and stay in range by construction
        let idx = self.heads[slot] as usize;
        let node = self.nodes[idx];
        self.heads[slot] = node.next;
        self.nodes[idx].page = FREE_PAGE;
        self.nodes[idx].next = self.free;
        self.free = idx as u32;
        Entry {
            page: node.page,
            priority: node.priority,
            distance: node.distance,
        }
    }

    /// Keep the token invariant for one host: a ready host with parked
    /// entries holds exactly one live token, its parked minimum.
    /// Idempotent; no-op for busy and cooling hosts.
    fn expose(&mut self, host: u32) {
        let h = host as usize;
        // lint:allow(no-panic-transitive): host, level and slab indices are minted by this structure and stay in range by construction
        if self.host_state[h] != HostState::Ready {
            return;
        }
        match self.host_min(host) {
            Some(key) if self.exposed[h] != key => {
                self.exposed[h] = key;
                self.tokens.push(Reverse((key, host)));
            }
            Some(_) => {}
            None => self.exposed[h] = NO_TOKEN,
        }
    }

    /// Pop the global minimum over ready hosts. `mark_busy` is the
    /// scheduler path: the popped entry's host transitions to `Busy`
    /// (per-host concurrency 1) instead of staying ready.
    // lint:root(panic-free, alloc-free) — one call per fetch; parking
    // recycles slab nodes, and rings and heaps only grow to their
    // high-water size.
    fn pop_inner(&mut self, mark_busy: bool) -> Option<Entry> {
        let levels = self.rings.len();
        loop {
            // Parked candidate: the top live token, stale ones dropped.
            let mut parked = None;
            while let Some(&Reverse((key, host))) = self.tokens.peek() {
                // lint:allow(no-panic-transitive): host, level and slab indices are minted by this structure and stay in range by construction
                if self.exposed[host as usize] == key {
                    parked = Some((key, host));
                    break;
                }
                self.tokens.pop();
            }
            // Ring candidate: only levels below the parked one can win,
            // since a parked entry precedes its whole level's ring.
            // Heads of busy or cooling hosts park on the way.
            let limit = parked.map_or(levels, |(key, _)| (key >> LEVEL_SHIFT) as usize);
            let mut ring = None;
            'levels: for level in 0..limit {
                while let Some(&(e, host)) = self.rings[level].front() {
                    if self.host_state[host as usize] == HostState::Ready {
                        ring = Some((level, host));
                        break 'levels;
                    }
                    self.rings[level].pop_front();
                    self.park(host, level, e);
                }
            }
            let (e, host, from_parked) = match ring {
                Some((level, host)) => (self.rings[level].pop_front()?.0, host, false),
                None => {
                    let (key, host) = parked?;
                    self.tokens.pop();
                    self.exposed[host as usize] = NO_TOKEN;
                    let level = (key >> LEVEL_SHIFT) as usize;
                    (self.detach_min(host, level), host, true)
                }
            };
            let h = host as usize;
            self.stored[h] -= 1;
            let idx = e.page as usize;
            if e.key() as u32 >= self.bar[idx] {
                // Stale: fetched already, or superseded by a better
                // admission — dropped when it surfaces, as the rings do.
                if from_parked {
                    self.expose(host);
                }
                continue;
            }
            self.bar[idx] = BAR_DONE;
            self.done[idx / 64] |= 1 << (idx % 64);
            self.pending -= 1;
            self.stats[self.shard_of_host[h] as usize].pops += 1;
            if mark_busy {
                self.host_state[h] = HostState::Busy;
                self.exposed[h] = NO_TOKEN;
            } else if from_parked {
                self.expose(host);
            }
            return Some(e);
        }
    }

    /// Scheduler pop: the global minimum over *ready* hosts, marking
    /// the winning host `Busy`. Busy and cooling hosts are passed over,
    /// so per-host concurrency 1 and politeness gaps hold by
    /// construction. `None` when every waiting entry belongs to a busy
    /// or cooling host (or the frontier is dry).
    #[inline]
    pub fn pop_ready(&mut self) -> Option<Entry> {
        self.pop_inner(true)
    }

    /// Finish a fetch on `host`. `ready_at` is the host's next allowed
    /// fetch start (politeness); at or before `now` the host returns to
    /// `Ready` immediately, otherwise it waits in the cool-down heap.
    /// Returns `true` when the host was parked *with work still
    /// queued* — the politeness-wait signal.
    #[inline]
    pub fn release(&mut self, host: u32, ready_at: u64, now: u64) -> bool {
        if ready_at > now {
            // lint:allow(no-panic-transitive): host, level and slab indices are minted by this structure and stay in range by construction
            self.host_state[host as usize] = HostState::Cooling;
            self.cooling.push(Reverse((ready_at, host)));
            self.stored[host as usize] > 0
        } else {
            self.host_state[host as usize] = HostState::Ready;
            self.expose(host);
            false
        }
    }

    /// Wake every host whose cool-down expires at or before `t`. Wake
    /// order cannot matter: token keys are totally ordered.
    #[inline]
    pub fn advance_to(&mut self, t: u64) {
        while let Some(&Reverse((ready_at, host))) = self.cooling.peek() {
            if ready_at > t {
                break;
            }
            self.cooling.pop();
            // lint:allow(no-panic-transitive): host, level and slab indices are minted by this structure and stay in range by construction
            self.host_state[host as usize] = HostState::Ready;
            self.expose(host);
        }
    }

    /// Earliest tick at which a cooling host wakes, if any — the
    /// scheduler's next candidate time when slots idle.
    #[inline]
    pub fn next_cooling(&self) -> Option<u64> {
        self.cooling.peek().map(|&Reverse((at, _))| at)
    }

    /// Serialize the complete frontier state into a snapshot payload.
    ///
    /// Canonical form, so encode∘decode∘encode is a fixed point: the
    /// rings level by level, front to back, as `(page, priority,
    /// distance)` records; then the parked entries as ONE flat list in
    /// slab order, each record adding its park ordinal (host comes from
    /// the page and level from the priority clamp, so neither is
    /// stored). Decode rebuilds the slab record by record, so re-encoding
    /// reproduces the bytes; list links are layout, resorted from
    /// `(level, ordinal)`. Then one state byte per host, cool-downs as
    /// one sorted `(ready_at, host)` list, and the admission bars as
    /// one done bit per page: every other bar is derived from the
    /// stored entries on decode ([`Self::derive_bar`]). Tokens are
    /// derivable too (a ready host with parked entries exposes its
    /// minimum), so none is stored. `origin` is not state: it is only
    /// ever `Some` *inside* a resolve, and snapshots are taken at tick
    /// boundaries.
    ///
    /// Capture rides the scheduler's steady state, so records are
    /// staged in a stack block and appended whole, the parked scan runs
    /// linearly over the slab ([`FREE_PAGE`] marks holes), and the done
    /// bits are kept as words so capture copies them — the ≤5%
    /// capture-overhead gate prices every per-element step taken here.
    pub(crate) fn encode_state(&self, enc: &mut Enc) {
        enc.u64(self.bar.len() as u64);
        enc.u64(self.host_state.len() as u64);
        enc.u64(self.rings.len() as u64);
        enc.u64(self.stats.len() as u64);
        for ring in &self.rings {
            enc.u64(ring.len() as u64);
            put_records(
                enc,
                ring.iter()
                    .map(|(e, _)| record(e.page, e.priority, e.distance)),
            );
        }
        let count_at = enc.mark();
        enc.u64(0);
        let live = self.nodes.iter().filter(|n| n.page != FREE_PAGE);
        let n = put_records(
            enc,
            live.map(|n| {
                let [a, b, c, d, e, f] = record(n.page, n.priority, n.distance);
                let [o0, o1, o2, o3, o4, o5, o6, o7] = n.ord.to_le_bytes();
                [a, b, c, d, e, f, o0, o1, o2, o3, o4, o5, o6, o7]
            }),
        );
        enc.patch_u64(count_at, n);
        put_records(enc, self.host_state.iter().map(|&s| [s as u8]));
        // lint:allow(no-alloc-transitive): capture-time encode: the cool-down list is sorted into canonical order once per capture
        let mut cooling: Vec<(u64, u32)> = self.cooling.iter().map(|&Reverse(x)| x).collect();
        cooling.sort_unstable();
        enc.u64(cooling.len() as u64);
        for (at, host) in cooling {
            enc.u64(at);
            enc.u32(host);
        }
        for s in &self.stats {
            enc.u64(s.pushes);
            enc.u64(s.pops);
            enc.u64(s.handoffs_in);
        }
        enc.u64s(&self.done);
        enc.u64(self.pending as u64);
        enc.u64(self.max_pending as u64);
        enc.u64(self.pushes);
        enc.u64(self.parks);
        enc.u64(self.handoffs);
    }

    /// Rebuild a frontier from a snapshot payload. The shape arguments
    /// come from the regenerated space and the snapshot header; the
    /// payload must agree with them. Tokens are rebuilt for every ready
    /// host with parked entries; structural violations surface as
    /// [`SnapshotError::Malformed`].
    pub(crate) fn decode_state(
        dec: &mut Dec<'_>,
        host_of_page: Vec<u32>,
        num_hosts: usize,
        levels: usize,
        shards: usize,
    ) -> Result<ShardedFrontier, SnapshotError> {
        let mut f = ShardedFrontier::new(host_of_page, num_hosts, levels, shards);
        let levels = f.rings.len();
        if dec.len()? != f.bar.len() {
            return Err(SnapshotError::Malformed("frontier page count mismatch"));
        }
        if dec.len()? != num_hosts {
            return Err(SnapshotError::Malformed("frontier host count mismatch"));
        }
        if dec.len()? != levels {
            return Err(SnapshotError::Malformed("frontier level count mismatch"));
        }
        if dec.len()? != f.stats.len() {
            return Err(SnapshotError::Malformed("frontier shard count mismatch"));
        }
        // `(page, priority, distance)` plus the entry's host and level.
        let entry = |dec: &mut Dec<'_>, f: &ShardedFrontier| {
            let page = dec.u32()?;
            let Some(&host) = f.host_of_page.get(page as usize) else {
                return Err(SnapshotError::Malformed("frontier page out of range"));
            };
            let (priority, distance) = (dec.u8()?, dec.u8()?);
            let level = (priority as usize).min(levels - 1);
            Ok((
                Entry {
                    page,
                    priority,
                    distance,
                },
                host as usize,
                level,
            ))
        };
        for level in 0..levels {
            for _ in 0..dec.len()? {
                let (e, host, at) = entry(dec, &f)?;
                if at != level {
                    return Err(SnapshotError::Malformed("ring entry on the wrong level"));
                }
                f.stored[host] += 1;
                f.derive_bar(e);
                f.rings[level].push_back((e, host as u32));
            }
        }
        // `(slot, ordinal, slab index)` for every record: sorting this
        // relinks each `(host, level)` list in ordinal order — the
        // order the captured lists held. The slab itself fills in record
        // order, which is what makes re-encoding a fixed point.
        let mut links: Vec<(usize, u64, u32)> = Vec::new();
        for i in 0..dec.len()? {
            let (e, host, level) = entry(dec, &f)?;
            let ord = dec.u64()?;
            f.stored[host] += 1;
            f.derive_bar(e);
            links.push((host * levels + level, ord, i as u32));
            f.nodes.push(Node {
                ord,
                page: e.page,
                priority: e.priority,
                distance: e.distance,
                next: NIL,
            });
        }
        links.sort_unstable();
        for &(slot, _, idx) in &links {
            if f.heads[slot] == NIL {
                f.heads[slot] = idx;
            } else {
                f.nodes[f.tails[slot] as usize].next = idx;
            }
            f.tails[slot] = idx;
        }
        for state in &mut f.host_state {
            *state = match dec.u8()? {
                0 => HostState::Ready,
                1 => HostState::Busy,
                2 => HostState::Cooling,
                _ => return Err(SnapshotError::Malformed("host state out of range")),
            };
        }
        for host in 0..num_hosts as u32 {
            f.expose(host);
        }
        for _ in 0..dec.len()? {
            let at = dec.u64()?;
            let host = dec.u32()?;
            if host as usize >= num_hosts {
                return Err(SnapshotError::Malformed("cooling host out of range"));
            }
            f.cooling.push(Reverse((at, host)));
        }
        for s in &mut f.stats {
            s.pushes = dec.u64()?;
            s.pops = dec.u64()?;
            s.handoffs_in = dec.u64()?;
        }
        for (i, w) in f.done.iter_mut().enumerate() {
            *w = dec.u64()?;
            let pages = f.bar.len().saturating_sub(i * 64);
            if pages < 64 && *w >> pages != 0 {
                return Err(SnapshotError::Malformed("done padding bits set"));
            }
        }
        for (p, b) in f.bar.iter_mut().enumerate() {
            if f.done[p / 64] >> (p % 64) & 1 == 1 {
                *b = BAR_DONE;
            }
        }
        f.pending = dec.len()?;
        f.max_pending = dec.len()?;
        f.pushes = dec.u64()?;
        f.parks = dec.u64()?;
        f.handoffs = dec.u64()?;
        Ok(f)
    }

    /// Decode-time bar reconstruction from one stored entry. A pending
    /// page's bar is one past its best stored key: the entry that set
    /// it stays stored until it pops live, which marks the page done,
    /// and every other stored entry of the page was admitted earlier
    /// with a worse key (a retry re-admits the very entry that popped).
    /// Pages never admitted store nothing; done marks are applied after.
    fn derive_bar(&mut self, e: Entry) {
        let b = &mut self.bar[e.page as usize];
        *b = (*b).min(e.key() as u32 + 1);
    }
}

/// A `(page, priority, distance)` snapshot record.
fn record(page: PageId, priority: u8, distance: u8) -> [u8; 6] {
    let [a, b, c, d] = page.to_le_bytes();
    [a, b, c, d, priority, distance]
}

/// Append fixed-width snapshot records, staged through a stack block
/// so the payload grows a block at a time instead of paying a capacity
/// check per record. Returns the record count.
fn put_records<const W: usize>(enc: &mut Enc, mut records: impl Iterator<Item = [u8; W]>) -> u64 {
    let mut block = [[0u8; W]; 32];
    let mut total = 0;
    loop {
        let mut n = 0;
        for (slot, r) in block.iter_mut().zip(records.by_ref()) {
            *slot = r;
            n += 1;
        }
        total += n as u64;
        if let Some(staged) = block.get(..n) {
            // lint:allow(no-alloc-transitive): capture-time encode: the snapshot buffer is reused and reaches its high-water size once
            enc.buf.extend_from_slice(staged.as_flattened());
        }
        if n < block.len() {
            return total;
        }
    }
}

impl Frontier for ShardedFrontier {
    #[inline]
    fn push(&mut self, e: Entry) -> bool {
        self.admit(e, false)
    }

    /// Batched admission: per-entry [`Frontier::push`], in order. No
    /// host state is consulted — a new entry only joins its ring.
    // lint:root(panic-free, alloc-free) — one call per resolved
    // fetch with outlinks.
    #[inline]
    fn push_all(&mut self, entries: &[Entry]) -> u32 {
        let mut enqueued = 0u32;
        for &e in entries {
            enqueued += u32::from(self.admit(e, false));
        }
        enqueued
    }

    #[inline]
    fn pop(&mut self) -> Option<Entry> {
        self.pop_inner(false)
    }

    #[inline]
    fn requeue(&mut self, e: Entry) -> bool {
        self.admit(e, true)
    }

    fn pending(&self) -> usize {
        self.pending
    }

    fn max_pending(&self) -> usize {
        self.max_pending
    }

    fn total_pushes(&self) -> u64 {
        self.pushes
    }

    fn is_done(&self, p: PageId) -> bool {
        self.bar[p as usize] == BAR_DONE
    }

    fn was_admitted(&self, p: PageId) -> bool {
        self.bar[p as usize] != BAR_NEVER
    }
}

/// The plain-`Frontier` face of [`UrlQueue`] and [`ShardedFrontier`]
/// share semantics; re-exported tests pin it, so nothing here.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::UrlQueue;

    fn e(page: PageId, priority: u8, distance: u8) -> Entry {
        Entry {
            page,
            priority,
            distance,
        }
    }

    /// 8 pages spread over 3 hosts (pages 0..3 on host 0, 3..6 on
    /// host 1, 6..8 on host 2).
    fn frontier(shards: usize) -> ShardedFrontier {
        ShardedFrontier::new(vec![0, 0, 0, 1, 1, 1, 2, 2], 3, 4, shards)
    }

    #[test]
    fn global_pop_order_matches_urlqueue_for_any_shard_count() {
        let pushes = [
            e(3, 1, 0),
            e(0, 0, 0),
            e(6, 0, 0),
            e(1, 2, 1),
            e(4, 0, 2),
            e(1, 0, 0), // re-prioritized
            e(7, 3, 0),
        ];
        let mut reference = UrlQueue::new(8, 4);
        for &p in &pushes {
            reference.push(p);
        }
        let want: Vec<Entry> = std::iter::from_fn(|| reference.pop()).collect();
        for shards in [1, 2, 3, 8] {
            let mut f = frontier(shards);
            for &p in &pushes {
                Frontier::push(&mut f, p);
            }
            let got: Vec<Entry> = std::iter::from_fn(|| f.pop()).collect();
            assert_eq!(got, want, "{shards} shards");
        }
    }

    #[test]
    fn busy_host_is_skipped_and_resumes() {
        let mut f = frontier(2);
        f.push(e(0, 0, 0));
        f.push(e(1, 0, 0));
        f.push(e(3, 1, 0));
        // Pop page 0 → host 0 busy; its page 1 is parked, so the next
        // ready entry is host 1's page 3 despite its worse level.
        let first = f.pop_ready().unwrap();
        assert_eq!(first.page, 0);
        assert_eq!(f.pop_ready().unwrap().page, 3);
        assert!(f.pop_ready().is_none(), "both hosts busy");
        // Releasing host 0 with no politeness re-exposes page 1.
        assert!(!f.release(0, 0, 0));
        assert_eq!(f.pop_ready().unwrap().page, 1);
    }

    #[test]
    fn cooling_host_waits_for_advance() {
        let mut f = frontier(1);
        f.push(e(0, 0, 0));
        f.push(e(1, 0, 0));
        assert_eq!(f.pop_ready().unwrap().page, 0);
        // Host 0 owes a gap until tick 5 and still has page 1 queued.
        assert!(f.release(0, 5, 1), "parked with work → politeness wait");
        assert!(f.pop_ready().is_none());
        assert_eq!(f.next_cooling(), Some(5));
        f.advance_to(4);
        assert!(f.pop_ready().is_none(), "gap not yet elapsed");
        f.advance_to(5);
        assert_eq!(f.pop_ready().unwrap().page, 1);
        assert_eq!(f.next_cooling(), None);
    }

    #[test]
    fn handoffs_attribute_cross_shard_pushes() {
        // The shard hash is opaque: find a shard count under which two
        // fixture hosts land on different shards, and a page on each.
        let (shards, home, away) = (2..=16usize)
            .find_map(|n| {
                let probe = frontier(n);
                (0..3u32)
                    .flat_map(|a| (0..3u32).map(move |b| (a, b)))
                    .find(|&(a, b)| probe.shard_of(a) != probe.shard_of(b))
                    .map(|(a, b)| (n, a, b))
            })
            .expect("some shard count must separate the fixture hosts");
        let page_on = |h: u32| [0u32, 3, 6][h as usize];
        let mut f = frontier(shards);
        f.set_origin(Some(home));
        f.push(e(page_on(away), 0, 0)); // crosses shards
        f.push(e(page_on(home), 1, 0)); // stays home
        assert_eq!(f.handoffs(), 1);
        let stats = f.shard_stats();
        assert_eq!(stats.iter().map(|s| s.handoffs_in).sum::<u64>(), 1);
        assert_eq!(stats.iter().map(|s| s.pushes).sum::<u64>(), 2);
        f.set_origin(None);
        f.push(e(7, 0, 0)); // no origin: seeds never count
        assert_eq!(f.handoffs(), 1);
    }

    #[test]
    fn requeue_matches_urlqueue_semantics() {
        let mut f = frontier(2);
        f.push(e(2, 0, 0));
        f.pop().unwrap();
        assert!(!f.push(e(2, 0, 0)), "push refuses done pages");
        assert!(f.requeue(e(2, 1, 0)));
        assert!(!f.is_done(2));
        assert_eq!(f.pending(), 1);
        let again = f.pop().unwrap();
        assert_eq!((again.page, again.priority), (2, 1));
        assert!(f.pop().is_none());
    }

    #[test]
    fn accounting_matches_urlqueue_semantics() {
        let mut f = frontier(3);
        for p in 0..5 {
            f.push(e(p, 0, 0));
        }
        assert_eq!(f.pending(), 5);
        assert_eq!(f.max_pending(), 5);
        f.pop();
        f.pop();
        assert_eq!(f.pending(), 3);
        assert_eq!(f.max_pending(), 5);
        assert_eq!(f.total_pushes(), 5);
        let stats = f.shard_stats();
        assert_eq!(stats.iter().map(|s| s.pushes).sum::<u64>(), 5);
        assert_eq!(stats.iter().map(|s| s.pops).sum::<u64>(), 2);
    }

    #[test]
    fn out_of_range_priority_clamped_to_last_level() {
        // 4 levels: priority 9 lands in level 3, behind everything
        // better but ahead of nothing — exactly UrlQueue's clamp.
        let mut reference = UrlQueue::new(8, 4);
        let mut f = frontier(2);
        for q in [&mut reference as &mut dyn Frontier, &mut f] {
            q.push(e(0, 9, 0)); // clamps into level 3
            q.push(e(3, 2, 0));
            q.push(e(6, 0, 0));
        }
        let want: Vec<Entry> = std::iter::from_fn(|| reference.pop()).collect();
        let got: Vec<Entry> = std::iter::from_fn(|| f.pop()).collect();
        assert_eq!(got, want);
        let pages: Vec<PageId> = got.iter().map(|x| x.page).collect();
        assert_eq!(pages, vec![6, 3, 0], "clamped entry pops last");
    }

    #[test]
    fn readmission_at_higher_priority_on_a_busy_host() {
        let mut f = frontier(2);
        f.push(e(0, 0, 0));
        f.push(e(1, 2, 0));
        f.push(e(3, 1, 0));
        // Fetch page 0 → host 0 goes busy with page 1 still parked.
        assert_eq!(f.pop_ready().unwrap().page, 0);
        // While the host is busy, page 1 is re-discovered at a better
        // priority. The promotion must survive the parked state.
        assert!(f.push(e(1, 0, 0)));
        assert_eq!(f.pending(), 2, "promotion is not a new distinct URL");
        assert_eq!(f.pop_ready().unwrap().page, 3, "busy host still skipped");
        assert!(!f.release(0, 0, 0));
        let p1 = f.pop_ready().unwrap();
        assert_eq!((p1.page, p1.priority), (1, 0), "promoted entry pops");
        assert!(f.pop_ready().is_none());
    }

    #[test]
    fn releasing_an_emptied_host_reports_no_work() {
        let mut f = frontier(1);
        f.push(e(0, 0, 0));
        f.push(e(3, 0, 0));
        assert_eq!(f.pop_ready().unwrap().page, 0);
        // Host 0 has nothing left: it still parks (politeness gaps are
        // start-to-start, work or not) but release reports no queued
        // work, and nothing surfaces for the emptied host.
        assert!(!f.release(0, 10, 1), "empty host is not parked-with-work");
        assert_eq!(f.next_cooling(), Some(10), "the gap itself still applies");
        assert_eq!(f.pop_ready().unwrap().page, 3);
        f.advance_to(10);
        assert!(f.pop_ready().is_none(), "woken empty host exposes nothing");
        assert_eq!(f.pending(), 0);
    }

    #[test]
    fn same_shard_pushes_never_count_as_handoffs() {
        let mut f = frontier(1); // one shard: every host lands on it
        f.set_origin(Some(1));
        f.push(e(0, 0, 0)); // host 0, same shard as origin host 1
        f.push(e(4, 0, 0)); // origin's own host
        assert_eq!(f.handoffs(), 0, "intra-shard discovery is not a handoff");
        let stats = f.shard_stats();
        assert_eq!(stats.iter().map(|s| s.handoffs_in).sum::<u64>(), 0);
        assert_eq!(stats.iter().map(|s| s.pushes).sum::<u64>(), 2);
    }

    #[test]
    fn push_all_matches_per_entry_pushes() {
        let batch = [
            e(3, 1, 0),
            e(0, 0, 0),
            e(6, 0, 0),
            e(1, 2, 1),
            e(1, 0, 0), // re-prioritized within the batch
            e(3, 1, 0), // duplicate within the batch
            e(7, 9, 0), // clamped level
        ];
        for shards in [1, 2, 3] {
            let mut one_by_one = frontier(shards);
            let mut accepted = 0u32;
            for &p in &batch {
                if Frontier::push(&mut one_by_one, p) {
                    accepted += 1;
                }
            }
            let mut batched = frontier(shards);
            assert_eq!(batched.push_all(&batch), accepted, "{shards} shards");
            assert_eq!(batched.pending(), one_by_one.pending());
            assert_eq!(batched.total_pushes(), one_by_one.total_pushes());
            let want: Vec<Entry> = std::iter::from_fn(|| one_by_one.pop()).collect();
            let got: Vec<Entry> = std::iter::from_fn(|| batched.pop()).collect();
            assert_eq!(got, want, "{shards} shards");
        }
    }

    #[test]
    fn reprioritization_supersedes_the_representative() {
        let mut f = frontier(1);
        assert!(f.push(e(1, 2, 0)));
        assert!(f.push(e(0, 3, 0)));
        // Page 1 re-discovered at a better priority: the better entry
        // pops first and the old one is skipped as stale.
        assert!(f.push(e(1, 0, 0)));
        assert_eq!(f.pending(), 2);
        assert_eq!(f.pop().unwrap(), e(1, 0, 0));
        assert_eq!(f.pop().unwrap(), e(0, 3, 0));
        assert!(f.pop().is_none(), "stale duplicate skipped");
    }
}
