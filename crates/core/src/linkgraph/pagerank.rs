//! Incremental PageRank over a [`LinkGraph`]: deterministic
//! Gauss–Southwell delta propagation with a closed-form fix for the
//! rank mass the crawled subgraph cannot absorb.
//!
//! # The system being solved
//!
//! The crawler only knows the subgraph it has fetched, so the paper's
//! PageRank ordering runs on `N` *crawled* pages whose outlinks may
//! point at pages not yet crawled ("lost" edges) or nowhere useful at
//! all (dangling pages). The historical implementation dropped both
//! kinds of mass — `Σrank` decayed with frontier size (the satellite
//! bug this module fixes). Redistributing lost/dangling mass uniformly
//! is the standard remedy, but done literally it adds a rank-one term
//! to the iteration matrix that couples every page to every other and
//! makes *local* incremental updates impossible.
//!
//! The solver therefore maintains the auxiliary vector `z` of the
//! purely local system
//!
//! ```text
//! z = (1/N)·1 + d·Aᵀz          (A = crawled→crawled transitions only)
//! ```
//!
//! which has exactly the sparsity of the old (buggy) recurrence, and
//! recovers the mass-corrected ranks by a scalar rescale:
//!
//! ```text
//! rank = λ · z          λ = 1 / Σz
//! ```
//!
//! Summing the z-equation gives `Σz·(1 − d) = 1 − σ` where
//! `σ = d · Σ_p z[p] · lost_frac(p)` and `lost_frac(p)` is the fraction
//! of `p`'s outlinks leaving the crawled set (1 for dangling pages) —
//! so at the fixpoint `λ = (1 − d)/(1 − σ)`, the textbook uniform
//! redistribution of lost/dangling mass. Normalizing by `Σz` directly
//! keeps `Σrank = 1` *exactly* even when the worklist drain truncates
//! at the residual threshold: redistribution is priced globally by one
//! scalar instead of a dense matrix term, and the relaxation stays
//! O(perturbed region).
//!
//! # Incrementality
//!
//! Between refreshes the [`LinkGraph`] epoch log records every slot
//! whose equation changed (new page, new in-edge, changed lost-edge
//! count). A refresh seeds the worklist with exactly that delta,
//! preconditions existing entries by `α = N_old/N_new` (after which the
//! old fixpoint satisfies the new equations everywhere the structure
//! did not change), and drains the worklist Gauss–Seidel style in
//! ascending slot order, sweep by sweep, until every residual is below
//! `tol_rel / N`. A node is re-queued only when its pulled value moved
//! by more than the threshold, so convergent regions quiesce and the
//! work per interval tracks the delta, not the graph. If the per-refresh
//! sweep valve trips, the still-pending frontier is *dropped*, not
//! deferred: the drain leaves it stamped with the last sweep's successor,
//! but the stamp is then parked one past that, so the next refresh's
//! carry check never matches it (a known defect: a probe at thai_like
//! 100k saw 9 of the first 20 refreshes leave work pending and none of
//! it carried; fixing it changes the crawl order of PageRank-ordered
//! crawls). Every
//! `resync_every`-th refresh seeds the *entire* crawled set instead,
//! bounding floating-point drift. The reference mode
//! ([`RankState::full_reference`]) seeds everything at every refresh —
//! the parity suite pins that both modes produce identical crawl
//! reports on pinned cells.
//!
//! Determinism: every sweep drains in ascending page-id order (a
//! stamp-scan over the crawled slots listed in canonical page order —
//! no per-sweep sort), and in-link pulls sum along the store's
//! page-sorted reverse chains — so every f64 accumulation happens in an
//! order independent of crawl interleaving, and results are
//! bit-identical across runs and `LANGCRAWL_THREADS` (page resolution,
//! where strategies run, is single-threaded by design; nothing here
//! observes thread count).

use super::{LinkGraph, Slot};

/// Incremental PageRank state (see the module docs for the algorithm).
#[derive(Debug, Clone)]
pub struct RankState {
    damping: f64,
    /// Residual threshold relative to the uniform rank `1/N`.
    tol_rel: f64,
    /// Safety valve on Gauss–Seidel sweeps per refresh.
    max_sweeps: u32,
    /// Full-reseed cadence (in refreshes) bounding FP drift.
    resync_every: u32,
    /// Reference mode: reseed the whole crawled set every refresh.
    full: bool,
    /// Unnormalized solution of the local system; `0.0` marks a slot
    /// never seen by a refresh (real entries are ≥ `1/N` > 0).
    z: Vec<f64>,
    /// `1/out_degree` per crawled slot (0 until first refresh sees it).
    inv_out: Vec<f64>,
    /// `Σz` over crawled slots as of the last refresh.
    zsum: f64,
    /// Rescale factor `λ = (1−d)/(1−σ)` as of the last refresh.
    lambda: f64,
    /// Crawled count at the last refresh (preconditioning base).
    seen_n: u32,
    /// Refreshes since the last full reseed.
    since_resync: u32,
    /// Crawled slots in ascending page-id order, rebuilt per refresh —
    /// the canonical sweep order.
    order: Vec<Slot>,
    /// Per-slot sweep stamp: the slot relaxes in the sweep whose number
    /// matches. Stale stamps from earlier refreshes never match again
    /// (`stamp` only moves forward), so nothing is ever cleared. A
    /// refresh carries slots stamped exactly [`RankState::stamp`], but a
    /// sweep-capped drain leaves its pending frontier stamped one below
    /// that value, so the carry never fires and that work is dropped.
    mark: Vec<u32>,
    /// Monotone sweep counter across refreshes.
    stamp: u32,
    /// Worklist entries processed over the state's lifetime (the
    /// `link_analysis` bench reports this as rank updates/s).
    relaxations: u64,
}

impl RankState {
    /// Incremental solver with the crawler's default parameters:
    /// damping 0.85, residual threshold `1e-9/N`, at most 256 sweeps
    /// per refresh, full reseed every 16th refresh.
    pub fn new(damping: f64) -> Self {
        Self::with_params(damping, 1e-9, 256, 16, false)
    }

    /// Full-recompute reference: identical solver, but every refresh
    /// seeds the entire crawled set (no delta shortcut, no drift).
    pub fn full_reference(damping: f64) -> Self {
        Self::with_params(damping, 1e-9, 256, 1, true)
    }

    /// Fully parameterized constructor (see field docs).
    pub fn with_params(
        damping: f64,
        tol_rel: f64,
        max_sweeps: u32,
        resync_every: u32,
        full: bool,
    ) -> Self {
        Self {
            damping,
            tol_rel,
            max_sweeps,
            resync_every: resync_every.max(1),
            full,
            z: Vec::new(),
            inv_out: Vec::new(),
            zsum: 0.0,
            lambda: 1.0,
            seen_n: 0,
            since_resync: 0,
            order: Vec::new(),
            mark: Vec::new(),
            stamp: 0,
            relaxations: 0,
        }
    }

    /// Refresh the ranks against the graph's current epoch, then close
    /// the epoch. All growth happens here; the solve itself
    /// ([`RankState::refresh`]) is transitively panic- and alloc-free.
    pub fn update(&mut self, g: &mut LinkGraph) {
        self.ensure_slots(g.num_slots());
        self.refresh(g);
        g.advance_epoch();
    }

    /// Grow per-slot tables and sweep-order capacity to cover `n` slots.
    fn ensure_slots(&mut self, n: usize) {
        if self.z.len() < n {
            self.z.resize(n, 0.0);
            self.inv_out.resize(n, 0.0);
            self.mark.resize(n, 0);
            // `order` holds at most one entry per slot.
            self.order.reserve(n.saturating_sub(self.order.capacity()));
        }
    }

    /// One refresh: precondition, seed (delta or full), drain. The
    /// steady-state link-analysis update path — scratch is pre-grown by
    /// [`RankState::ensure_slots`], and `order` holds at most one entry
    /// per slot.
    // lint:root(panic-free, alloc-free) — the per-interval rank update
    // the PageRank-ordered crawl runs on.
    fn refresh(&mut self, g: &LinkGraph) {
        let slots = self.z.len().min(g.num_slots());
        let n_new = g.num_crawled();
        if n_new == 0 {
            return;
        }
        let full_seed = self.full || self.seen_n == 0 || self.since_resync + 1 >= self.resync_every;
        let nf = n_new as f64;
        let uniform = 1.0 / nf;
        let alpha = if self.seen_n > 0 {
            f64::from(self.seen_n) / nf
        } else {
            0.0
        };
        // Meant to carry the pending frontier of a previous drain that
        // hit the sweep valve. That frontier sits at `stamp - 1` (see
        // the end of this function), so this matches nothing and the
        // truncated work is dropped — a known defect kept because
        // fixing it moves PageRank-ordered crawls.
        let carry = self.stamp;
        // Fresh stamp window: everything written in earlier refreshes
        // is strictly below `cur`, so stale marks never match.
        let mut cur = self.stamp.wrapping_add(1);
        let mut pending = 0usize;
        // Pass 1 (one flat scan in ascending *page id* order — the
        // canonical order, so the Σz sum is independent of crawl
        // interleaving): precondition survivors by α, seed new nodes at
        // 1/N, rebuild Σz from scratch so it carries no drift across
        // refreshes, and rebuild the canonical sweep order. The same
        // scan stamps every slot on a full reseed.
        let mut zsum = 0.0;
        self.order.clear();
        for page in 0..g.page_bound() {
            let Some(slot) = g.slot_of(page as u32) else {
                continue;
            };
            let s = slot as usize;
            if s >= slots || !g.is_crawled(slot) {
                continue;
            }
            let od = g.out_degree(slot);
            // lint:allow(no-panic-transitive): every table is ensure_slots-grown to num_slots and slots from slot_of() are < num_slots by construction
            if self.inv_out[s] == 0.0 && od > 0 {
                self.inv_out[s] = 1.0 / f64::from(od);
            }
            let zi = self.z[s];
            let v = if zi == 0.0 { uniform } else { zi * alpha };
            self.z[s] = v;
            zsum += v;
            self.order.push(slot);
            if full_seed || self.mark[s] == carry {
                self.mark[s] = cur;
                pending += 1;
            }
        }
        // Pass 2: on an incremental refresh, stamp the epoch delta
        // (every slot whose equation changed) instead.
        if !full_seed {
            for &s in g.delta() {
                let su = s as usize;
                if su < slots && g.is_crawled(s) && self.mark[su] != cur {
                    self.mark[su] = cur;
                    pending += 1;
                }
            }
        }
        // Pass 3: Gauss–Seidel sweeps. Each sweep scans the canonical
        // order and relaxes the slots stamped for it; a write bigger
        // than θ stamps the out-neighborhood for re-evaluation — into
        // the *next* sweep if the neighbour's turn this sweep has
        // already passed (or it just changed itself), otherwise its
        // upcoming relaxation this sweep will see the new value. Σz
        // absorbs each accepted delta so the final rescale is exact at
        // the point the drain stops.
        let theta = self.tol_rel * uniform;
        let mut sweeps = 0;
        let mut relaxed = 0u64;
        while pending > 0 && sweeps < self.max_sweeps {
            sweeps += 1;
            pending = 0;
            let nxt = cur.wrapping_add(1);
            for &qs in &self.order {
                let q = qs as usize;
                if self.mark[q] != cur {
                    continue;
                }
                let page_q = g.page_at(qs);
                // Pull in-link contributions along the page-sorted
                // reverse chain — canonical order, no sort. Uncrawled
                // sources hold z = 0 and contribute 0.
                let mut acc = 0.0;
                for p in g.in_slots(qs) {
                    let pu = p as usize;
                    acc += self.z[pu] * self.inv_out[pu];
                }
                let v = uniform + self.damping * acc;
                let d = v - self.z[q];
                relaxed += 1;
                if d.abs() > theta {
                    self.z[q] = v;
                    zsum += d;
                    for &t in g.out_slots(qs) {
                        let tu = t as usize;
                        if tu >= slots || !g.is_crawled(t) {
                            continue;
                        }
                        let m = self.mark[tu];
                        let due = if m == nxt {
                            false
                        } else if m == cur {
                            g.page_at(t) <= page_q
                        } else {
                            true
                        };
                        if due {
                            self.mark[tu] = nxt;
                            pending += 1;
                        }
                    }
                }
            }
            cur = nxt;
        }
        self.relaxations += relaxed;
        // Park the stamp one past the next-sweep value `cur`. Slots a
        // valve-tripped drain left stamped `cur` therefore never match
        // the next refresh's `carry` (= this stamp): their work is lost.
        self.stamp = cur.wrapping_add(1);
        self.zsum = zsum;
        self.lambda = if zsum > 0.0 { 1.0 / zsum } else { 1.0 };
        self.seen_n = n_new as u32;
        self.since_resync = if full_seed { 0 } else { self.since_resync + 1 };
    }

    /// Mass-corrected rank of `slot`: `λ·z`. Returns 0 for slots no
    /// refresh has seen yet (callers fall back to the uniform rank, as
    /// the historical implementation did for pages crawled after the
    /// last recompute).
    #[inline]
    pub fn rank_of(&self, slot: Slot) -> f64 {
        self.z.get(slot as usize).map_or(0.0, |&z| self.lambda * z)
    }

    /// `Σrank` over crawled slots as of the last refresh — exactly 1 at
    /// the fixpoint (the regression target for the mass-leak fix).
    #[inline]
    pub fn rank_sum(&self) -> f64 {
        self.lambda * self.zsum
    }

    /// Worklist entries processed over the state's lifetime.
    #[inline]
    pub fn relaxations(&self) -> u64 {
        self.relaxations
    }

    /// Crawled count at the last refresh.
    #[inline]
    pub fn seen_crawled(&self) -> usize {
        self.seen_n as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Dense power-iteration oracle with uniform redistribution of
    /// lost/dangling mass — the textbook formulation the z-vector
    /// solver must agree with.
    fn oracle(g: &LinkGraph, damping: f64, iters: usize) -> Vec<f64> {
        let n = g.num_slots();
        let crawled: Vec<Slot> = (0..n as u32).filter(|&s| g.is_crawled(s)).collect();
        let nc = crawled.len();
        let mut rank = vec![0.0f64; n];
        for &s in &crawled {
            rank[s as usize] = 1.0 / nc as f64;
        }
        for _ in 0..iters {
            let mut next = vec![0.0f64; n];
            let mut redistributed = 0.0;
            for &s in &crawled {
                let outs = g.out_slots(s);
                if outs.is_empty() {
                    redistributed += rank[s as usize];
                    continue;
                }
                let share = rank[s as usize] / outs.len() as f64;
                for &t in outs {
                    if g.is_crawled(t) {
                        next[t as usize] += share;
                    } else {
                        redistributed += share;
                    }
                }
            }
            let teleport = (1.0 - damping) / nc as f64 + damping * redistributed / nc as f64;
            for &s in &crawled {
                rank[s as usize] = teleport + damping * next[s as usize];
            }
        }
        rank
    }

    fn max_err(state: &RankState, g: &LinkGraph, oracle: &[f64]) -> f64 {
        (0..g.num_slots() as u32)
            .filter(|&s| g.is_crawled(s))
            .map(|s| (state.rank_of(s) - oracle[s as usize]).abs())
            .fold(0.0, f64::max)
    }

    fn ring_with_hub() -> LinkGraph {
        let mut g = LinkGraph::new();
        // 0..9 in a ring, everyone also links to the hub page 10, hub
        // links out to an uncrawled page and a dangling page 11.
        for p in 0..10u32 {
            g.record_page(p, &[(p + 1) % 10, 10]);
        }
        g.record_page(10, &[99]);
        g.record_page(11, &[]);
        g
    }

    #[test]
    fn matches_dense_oracle_with_redistribution() {
        let mut g = ring_with_hub();
        let mut state = RankState::new(0.85);
        state.update(&mut g);
        let want = oracle(&g, 0.85, 200);
        assert!(
            max_err(&state, &g, &want) < 1e-9,
            "solver diverges from dense redistribution oracle: {}",
            max_err(&state, &g, &want)
        );
    }

    #[test]
    fn rank_sum_is_one_with_lost_and_dangling_mass() {
        let mut g = ring_with_hub();
        let mut state = RankState::new(0.85);
        state.update(&mut g);
        assert!(
            (state.rank_sum() - 1.0).abs() < 1e-12,
            "Σrank = {} ≠ 1",
            state.rank_sum()
        );
    }

    #[test]
    fn incremental_tracks_full_reference() {
        let mut gi = LinkGraph::new();
        let mut gf = LinkGraph::new();
        let mut inc = RankState::new(0.85);
        let mut full = RankState::full_reference(0.85);
        // Grow a deterministic pseudo-random graph in batches, with an
        // update between batches, and compare against both the
        // reference solver and the dense oracle at the end.
        let mut x = 7u64;
        let mut step = || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) as u32
        };
        for batch in 0..8 {
            for i in 0..25u32 {
                let p = batch * 25 + i;
                let outs = [step() % 240, step() % 240, step() % 240];
                gi.record_page(p, &outs);
                gf.record_page(p, &outs);
            }
            inc.update(&mut gi);
            full.update(&mut gf);
        }
        let worst = (0..gi.num_slots() as u32)
            .filter(|&s| gi.is_crawled(s))
            .map(|s| (inc.rank_of(s) - full.rank_of(s)).abs())
            .fold(0.0, f64::max);
        assert!(worst < 1e-10, "incremental vs reference L∞ = {worst}");
        let want = oracle(&gi, 0.85, 400);
        assert!(
            max_err(&inc, &gi, &want) < 1e-8,
            "incremental vs oracle L∞ = {}",
            max_err(&inc, &gi, &want)
        );
        assert!((inc.rank_sum() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn refresh_is_deterministic_and_history_converges() {
        let edges: [(u32, [u32; 2]); 6] = [
            (0, [1, 2]),
            (1, [2, 3]),
            (2, [0, 5]),
            (3, [4, 0]),
            (4, [1, 9]),
            (5, [3, 2]),
        ];
        let run = |updates_at: &[usize]| {
            let mut g = LinkGraph::new();
            let mut st = RankState::with_params(0.85, 1e-9, 256, 1, false);
            for (i, (p, outs)) in edges.iter().enumerate() {
                g.record_page(*p, outs);
                if updates_at.contains(&i) {
                    st.update(&mut g);
                }
            }
            st.update(&mut g); // resync_every=1 ⇒ this is a full reseed
            (0..g.num_slots() as u32)
                .map(|s| st.rank_of(s))
                .collect::<Vec<f64>>()
        };
        // Identical histories are bit-identical (full determinism).
        let a = run(&[1, 3]);
        let a2 = run(&[1, 3]);
        for (x, y) in a.iter().zip(&a2) {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "same history must be bitwise stable"
            );
        }
        // Different update interleavings over the same final graph land
        // inside the residual tolerance band of the shared fixpoint.
        let b = run(&[0, 2, 4]);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-8, "histories diverge: {x} vs {y}");
        }
    }

    #[test]
    fn empty_graph_is_inert() {
        let mut g = LinkGraph::new();
        let mut st = RankState::new(0.85);
        st.update(&mut g);
        assert_eq!(st.rank_sum(), 0.0);
        assert_eq!(st.rank_of(0), 0.0);
    }
}
