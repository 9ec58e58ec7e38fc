//! The frontier seam — who decides *what to crawl next*.
//!
//! The paper's architecture (Fig. 2) has a single "URL queue" box, and
//! industrial crawlers (e.g. BUbiNG) generalize exactly this box: the
//! frontier is the one component whose policy and data structure change
//! as a crawler scales (priority rings → heaps → sharded disk queues).
//! [`Frontier`] captures the contract the crawl engine needs, nothing
//! more, so implementations can be swapped without touching the engine:
//!
//! * [`crate::queue::UrlQueue`] — the default: priority-bucketed FIFO
//!   rings, the discipline every figure of the paper assumes;
//! * [`BestFirstFrontier`] — a binary-heap frontier that orders by the
//!   full admission key `(priority, distance)` with FIFO tie-breaking,
//!   proving the seam carries a genuinely different pop policy;
//! * [`crate::shard::ShardedFrontier`] — the scaling step: host-sharded
//!   storage with per-host politeness state for the virtual-time
//!   scheduler ([`crate::sched`]), reproducing [`UrlQueue`]'s exact pop
//!   order when every host is ready.
//!
//! All of them share the same admission semantics: a page is admitted once,
//! re-admitted only with a *strictly better* key (re-prioritization),
//! never re-admitted after it was popped, and `pending()` counts
//! distinct waiting pages — the paper's "URL queue size".

use crate::queue::{Entry, UrlQueue};
use langcrawl_webgraph::PageId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The crawl engine's view of a URL frontier.
///
/// Implementations own duplicate suppression and re-prioritization; the
/// engine only pushes discoveries and pops the next page to fetch.
pub trait Frontier {
    /// Try to admit an entry. Returns `true` if it was enqueued (first
    /// discovery, or a strictly better `(priority, distance)` key than
    /// any prior admission of the same page).
    fn push(&mut self, e: Entry) -> bool;

    /// Admit a batch of entries in order, returning how many were
    /// enqueued. Semantically identical to calling [`Frontier::push`]
    /// once per entry; implementations may override it to amortize
    /// per-push bookkeeping across the batch (the bucketed queue folds
    /// its counter updates into one flush at the end), but must accept
    /// exactly the same entries in exactly the same order.
    fn push_all(&mut self, entries: &[Entry]) -> u32 {
        let mut enqueued = 0u32;
        for &e in entries {
            if self.push(e) {
                enqueued += 1;
            }
        }
        enqueued
    }

    /// Pop the next URL to crawl, or `None` when the frontier is dry.
    fn pop(&mut self) -> Option<Entry>;

    /// Re-admit a page that was already popped — the engine's retry
    /// path for transient fetch failures. Unlike [`Frontier::push`]
    /// (which never re-admits a fetched page), this clears the page's
    /// fetched mark and enqueues the entry as if newly discovered at
    /// its key; for never-popped pages it behaves like `push`. Returns
    /// whether the entry was enqueued.
    fn requeue(&mut self, e: Entry) -> bool;

    /// Distinct URLs admitted and not yet fetched — the paper's "URL
    /// queue size".
    fn pending(&self) -> usize;

    /// Largest value [`Frontier::pending`] ever reached.
    fn max_pending(&self) -> usize;

    /// Total push operations accepted (diagnostic; counts accepted
    /// re-prioritizations).
    fn total_pushes(&self) -> u64;

    /// Has this page been fetched?
    fn is_done(&self, p: PageId) -> bool;

    /// Was this page ever admitted (queued or fetched)?
    fn was_admitted(&self, p: PageId) -> bool;
}

impl Frontier for UrlQueue {
    #[inline]
    fn push(&mut self, e: Entry) -> bool {
        UrlQueue::push(self, e)
    }

    #[inline]
    fn push_all(&mut self, entries: &[Entry]) -> u32 {
        UrlQueue::push_all(self, entries)
    }

    #[inline]
    fn pop(&mut self) -> Option<Entry> {
        UrlQueue::pop(self)
    }

    #[inline]
    fn requeue(&mut self, e: Entry) -> bool {
        UrlQueue::requeue(self, e)
    }

    #[inline]
    fn pending(&self) -> usize {
        UrlQueue::pending(self)
    }

    fn max_pending(&self) -> usize {
        UrlQueue::max_pending(self)
    }

    fn total_pushes(&self) -> u64 {
        UrlQueue::total_pushes(self)
    }

    fn is_done(&self, p: PageId) -> bool {
        UrlQueue::is_done(self, p)
    }

    fn was_admitted(&self, p: PageId) -> bool {
        UrlQueue::was_admitted(self, p)
    }
}

/// A best-first frontier: pops the globally lowest admission key
/// `(priority, distance)`, breaking ties in insertion (FIFO) order.
///
/// Where [`UrlQueue`] only buckets by priority *level* and ignores
/// distance for ordering, this frontier uses the full key — so among
/// equal-priority pages, those discovered over shorter irrelevant runs
/// are fetched first. Determinism is total: the tie-break sequence number
/// makes the pop order a pure function of the push history.
///
/// ```
/// use langcrawl_core::frontier::{BestFirstFrontier, Frontier};
/// use langcrawl_core::queue::Entry;
///
/// let mut f = BestFirstFrontier::new(10);
/// f.push(Entry { page: 1, priority: 0, distance: 3 });
/// f.push(Entry { page: 2, priority: 0, distance: 1 });
/// assert_eq!(f.pop().unwrap().page, 2); // shorter distance wins
/// assert_eq!(f.pop().unwrap().page, 1);
/// ```
#[derive(Debug)]
pub struct BestFirstFrontier {
    /// Min-heap of `(admission key, insertion seq, page)`.
    heap: BinaryHeap<Reverse<(u16, u64, PageId)>>,
    /// Best admission key per page; `u16::MAX` = never admitted.
    best: Vec<u16>,
    /// Pages fetched already (their heap entries are stale).
    done: Vec<bool>,
    pending: usize,
    max_pending: usize,
    pushes: u64,
    seq: u64,
}

impl BestFirstFrontier {
    /// A frontier over a space of `num_pages` URLs.
    pub fn new(num_pages: usize) -> Self {
        BestFirstFrontier {
            heap: BinaryHeap::new(),
            best: vec![u16::MAX; num_pages],
            done: vec![false; num_pages],
            pending: 0,
            max_pending: 0,
            pushes: 0,
            seq: 0,
        }
    }

    fn key(e: &Entry) -> u16 {
        ((e.priority as u16) << 8) | e.distance as u16
    }
}

impl Frontier for BestFirstFrontier {
    fn push(&mut self, e: Entry) -> bool {
        let idx = e.page as usize;
        // lint:allow(no-panic-transitive): bar and ring tables are sized to page_count at init and Entry.page is bounded by construction
        if self.done[idx] {
            return false;
        }
        let key = Self::key(&e);
        if key >= self.best[idx] {
            return false; // duplicate or not better
        }
        if self.best[idx] == u16::MAX {
            self.pending += 1;
            self.max_pending = self.max_pending.max(self.pending);
        }
        self.best[idx] = key;
        self.heap.push(Reverse((key, self.seq, e.page)));
        self.seq += 1;
        self.pushes += 1;
        true
    }

    fn pop(&mut self) -> Option<Entry> {
        while let Some(Reverse((key, _, page))) = self.heap.pop() {
            let idx = page as usize;
            // lint:allow(no-panic-transitive): bar and ring tables are sized to page_count at init and Entry.page is bounded by construction
            if self.done[idx] || key > self.best[idx] {
                continue; // fetched already, or superseded by a better entry
            }
            self.done[idx] = true;
            self.pending -= 1;
            return Some(Entry {
                page,
                priority: (key >> 8) as u8,
                distance: (key & 0xFF) as u8,
            });
        }
        None
    }

    fn requeue(&mut self, e: Entry) -> bool {
        let idx = e.page as usize;
        // lint:allow(no-panic-transitive): bar and ring tables are sized to page_count at init and Entry.page is bounded by construction
        if !self.done[idx] {
            return self.push(e);
        }
        self.done[idx] = false;
        let key = Self::key(&e);
        self.best[idx] = key;
        self.pending += 1;
        self.max_pending = self.max_pending.max(self.pending);
        self.heap.push(Reverse((key, self.seq, e.page)));
        self.seq += 1;
        self.pushes += 1;
        true
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
        self.done[p as usize]
    }

    fn was_admitted(&self, p: PageId) -> bool {
        self.best[p as usize] != u16::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(page: PageId, priority: u8, distance: u8) -> Entry {
        Entry {
            page,
            priority,
            distance,
        }
    }

    #[test]
    fn pops_by_full_key_then_fifo() {
        let mut f = BestFirstFrontier::new(10);
        f.push(e(1, 1, 0));
        f.push(e(2, 0, 2));
        f.push(e(3, 0, 1));
        f.push(e(4, 0, 1));
        let order: Vec<PageId> = std::iter::from_fn(|| f.pop()).map(|x| x.page).collect();
        // (0,1) pages in insertion order, then (0,2), then (1,0).
        assert_eq!(order, vec![3, 4, 2, 1]);
    }

    #[test]
    fn reprioritization_supersedes_stale_entries() {
        let mut f = BestFirstFrontier::new(10);
        assert!(f.push(e(7, 2, 0)));
        assert!(f.push(e(7, 0, 0)));
        assert_eq!(f.pending(), 1, "still one distinct URL");
        let first = f.pop().unwrap();
        assert_eq!((first.page, first.priority), (7, 0));
        assert!(f.pop().is_none(), "stale duplicate skipped");
    }

    #[test]
    fn done_pages_never_reenter() {
        let mut f = BestFirstFrontier::new(10);
        f.push(e(2, 0, 0));
        f.pop().unwrap();
        assert!(!f.push(e(2, 0, 0)));
        assert!(f.is_done(2));
        assert!(f.was_admitted(2));
    }

    #[test]
    fn requeue_matches_urlqueue_semantics() {
        let mut q: Box<dyn Frontier> = Box::new(UrlQueue::new(10, 2));
        let mut f: Box<dyn Frontier> = Box::new(BestFirstFrontier::new(10));
        for front in [&mut q, &mut f] {
            front.push(e(2, 0, 0));
            front.pop().unwrap();
            assert!(!front.push(e(2, 0, 0)), "push refuses done pages");
            assert!(front.requeue(e(2, 1, 0)));
            assert!(!front.is_done(2));
            assert_eq!(front.pending(), 1);
            let again = front.pop().unwrap();
            assert_eq!((again.page, again.priority), (2, 1));
            assert!(front.pop().is_none());
        }
    }

    #[test]
    fn accounting_matches_urlqueue_semantics() {
        let mut f = BestFirstFrontier::new(10);
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
    }

    #[test]
    fn trait_object_usable() {
        // The engine holds frontiers behind the trait; make sure both
        // impls coexist there.
        let mut impls: Vec<Box<dyn Frontier>> = vec![
            Box::new(UrlQueue::new(4, 2)),
            Box::new(BestFirstFrontier::new(4)),
        ];
        for f in &mut impls {
            assert!(f.push(e(0, 1, 0)));
            assert!(f.push(e(1, 0, 0)));
            assert_eq!(f.pop().unwrap().page, 1);
            assert_eq!(f.pending(), 1);
        }
    }
}
