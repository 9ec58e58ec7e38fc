//! Incremental HITS distillation over a [`LinkGraph`].
//!
//! The distiller (§2.1 of the paper) runs a modified Kleinberg HITS on
//! the crawled subgraph every few thousand fetches: authorities are
//! restricted to relevant pages, and the out-neighbourhoods of the top
//! hubs get boosted. The historical implementation rebuilt dense score
//! vectors from fresh `HashMap`s on every firing — O(E · iterations)
//! with hashing on every edge, repeated for the whole crawl.
//!
//! Two observations make the firing incremental without changing its
//! answer:
//!
//! 1. **Normalization never mattered.** Every step of the truncated
//!    iteration (auth gather, relevance gating, hub gather) is linear,
//!    so the per-round L2 normalization only rescales the final vector
//!    by a positive scalar — and top-K selection is scale-invariant.
//!    Dropping it makes round `r` scores a *local* function of the
//!    `2r`-hop neighbourhood: nothing global couples distant pages.
//! 2. **Truncated iterates are stable between firings.** With scores
//!    started from all-ones each firing, a page's round-`r` score only
//!    changes if its neighbourhood (structure or scores) changed. The
//!    state stores every round's auth/hub vector and, per firing,
//!    re-evaluates only the epoch delta plus the frontier reached by
//!    changed values — bitwise equality with the stored value stops the
//!    propagation.
//!
//! Determinism / insertion-order invariance: auth gathers sum
//! in-neighbour contributions in ascending *page id* order — the
//! store keeps reverse lists sorted by source page id, so walking the
//! chunk chain *is* the canonical order and no scratch sort is needed;
//! hub gathers walk the recorded outlink list, which is per-page
//! canonical. Every sum is therefore evaluated in an order independent
//! of crawl interleaving, and the incremental and full-recompute modes
//! produce *bit-identical* scores — the parity suite pins reports, not
//! tolerance bands, for HITS.

use super::{LinkGraph, Slot};

/// Incremental HITS state (see the module docs for the algorithm).
#[derive(Debug)]
pub struct HitsState {
    /// Truncated power-iteration rounds per firing.
    rounds: usize,
    /// Reference mode: re-evaluate every crawled slot each firing.
    full: bool,
    /// Per slot: relevance at crawl time (authorities must be
    /// relevant). Set by [`HitsState::note_page`].
    relevant: Vec<bool>,
    /// Per slot: was crawled as of the previous firing (detects the
    /// all-ones hub seed flipping 0 → 1).
    seen: Vec<bool>,
    /// `auth[r][s]`: round-`r+1` authority score of slot `s`.
    auth: Vec<Vec<f64>>,
    /// `hub[r][s]`: round-`r+1` hub score of slot `s`.
    hub: Vec<Vec<f64>>,
    /// Candidate slots for the current half-round (deduped by `cmark`).
    cand: Vec<Slot>,
    /// Per-slot membership mark for `cand`.
    cmark: Vec<bool>,
    /// Slots whose auth score changed in the current round.
    ch_auth: Vec<Slot>,
    /// Slots whose hub score changed in the previous round.
    ch_hub: Vec<Slot>,
    /// Top-K scratch: `(score, page, slot)`.
    board: Vec<(f64, u32, Slot)>,
}

impl HitsState {
    /// Incremental distiller evaluating `rounds` truncated iterations.
    pub fn new(rounds: usize) -> Self {
        Self::with_mode(rounds, false)
    }

    /// Full-recompute reference: identical math, every crawled slot
    /// re-evaluated at every firing.
    pub fn full_reference(rounds: usize) -> Self {
        Self::with_mode(rounds, true)
    }

    fn with_mode(rounds: usize, full: bool) -> Self {
        let rounds = rounds.max(1);
        HitsState {
            rounds,
            full,
            relevant: Vec::new(),
            seen: Vec::new(),
            auth: vec![Vec::new(); rounds],
            hub: vec![Vec::new(); rounds],
            cand: Vec::new(),
            cmark: Vec::new(),
            ch_auth: Vec::new(),
            ch_hub: Vec::new(),
            board: Vec::new(),
        }
    }

    /// Record the relevance of a freshly crawled page (slot as returned
    /// by [`LinkGraph::record_page`]). Grows per-slot tables — the only
    /// allocating step of the ingest side.
    pub fn note_page(&mut self, g: &LinkGraph, slot: Slot, relevant: bool) {
        self.ensure_slots(g.num_slots());
        self.relevant[slot as usize] = relevant;
    }

    /// Grow per-slot tables and scratch capacity to cover `n` slots.
    fn ensure_slots(&mut self, n: usize) {
        if self.relevant.len() < n {
            self.relevant.resize(n, false);
            self.seen.resize(n, false);
            for v in &mut self.auth {
                v.resize(n, 0.0);
            }
            for v in &mut self.hub {
                v.resize(n, 0.0);
            }
            self.cmark.resize(n, false);
            self.cand.reserve(n.saturating_sub(self.cand.capacity()));
            self.ch_auth
                .reserve(n.saturating_sub(self.ch_auth.capacity()));
            self.ch_hub
                .reserve(n.saturating_sub(self.ch_hub.capacity()));
            self.board.reserve(n.saturating_sub(self.board.capacity()));
        }
    }

    /// One distiller firing: refresh the truncated HITS iterates
    /// against the current epoch, close the epoch, and return the top
    /// `top_k` hub slots (score desc, page id asc) in `out_hubs`.
    pub fn distill(&mut self, g: &mut LinkGraph, top_k: usize, out_hubs: &mut Vec<Slot>) {
        self.ensure_slots(g.num_slots());
        self.fire(g, top_k, out_hubs);
        g.advance_epoch();
    }

    /// The steady-state firing: delta-restricted re-evaluation of every
    /// round, then top-K selection. Scratch is pre-grown by
    /// [`HitsState::ensure_slots`]; each slot enters each list at most
    /// once per half-round.
    // lint:root(panic-free, alloc-free) — the per-firing distiller
    // update the HITS-extended crawl runs on.
    fn fire(&mut self, g: &LinkGraph, top_k: usize, out_hubs: &mut Vec<Slot>) {
        let slots = self.relevant.len().min(g.num_slots());
        // Hub round 0 is the all-ones seed over crawled slots: it
        // "changes" exactly for slots crawled since the last firing.
        self.ch_hub.clear();
        if self.full {
            for s in 0..slots {
                if g.is_crawled(s as Slot) {
                    self.ch_hub.push(s as Slot);
                }
            }
        } else {
            for &s in g.delta() {
                // lint:allow(no-panic-transitive): per-slot tables are ensure_slots-grown to num_slots and every slot here is < num_slots by construction
                if g.is_crawled(s) && !self.seen[s as usize] {
                    self.ch_hub.push(s);
                }
            }
        }
        for &s in &self.ch_hub {
            self.seen[s as usize] = true;
        }
        for r in 0..self.rounds {
            // --- auth half-round: candidates are the structural delta
            // plus the out-neighbourhoods of changed hubs.
            self.cand.clear();
            self.seed_candidates(g, slots);
            for &h in &self.ch_hub {
                for &t in g.out_slots(h) {
                    let tu = t as usize;
                    if !self.cmark[tu] {
                        self.cmark[tu] = true;
                        self.cand.push(t);
                    }
                }
            }
            self.ch_auth.clear();
            for &j in &self.cand {
                let ju = j as usize;
                self.cmark[ju] = false;
                let new = if g.is_crawled(j) && self.relevant[ju] {
                    // Σ hub over in-links along the page-sorted reverse
                    // chain — canonical order, no sort.
                    let mut acc = 0.0;
                    for p in g.in_slots(j) {
                        acc += if r == 0 {
                            1.0
                        } else {
                            self.hub[r - 1][p as usize]
                        };
                    }
                    acc
                } else {
                    0.0
                };
                if new.to_bits() != self.auth[r][ju].to_bits() {
                    self.auth[r][ju] = new;
                    self.ch_auth.push(j);
                }
            }
            // --- hub half-round: candidates are the structural delta
            // plus the in-neighbourhoods of changed authorities. The
            // outlink list is per-page canonical, so the gather order
            // needs no sorting.
            self.cand.clear();
            self.seed_candidates(g, slots);
            for &a in &self.ch_auth {
                for p in g.in_slots(a) {
                    let pu = p as usize;
                    if !self.cmark[pu] {
                        self.cmark[pu] = true;
                        self.cand.push(p);
                    }
                }
            }
            self.ch_hub.clear();
            for &h in &self.cand {
                let hu = h as usize;
                self.cmark[hu] = false;
                let mut acc = 0.0;
                for &t in g.out_slots(h) {
                    acc += self.auth[r][t as usize];
                }
                if acc.to_bits() != self.hub[r][hu].to_bits() {
                    self.hub[r][hu] = acc;
                    self.ch_hub.push(h);
                }
            }
        }
        // --- top-K hubs over all crawled slots, score desc / page asc.
        self.board.clear();
        let last = self.rounds - 1;
        for s in 0..slots {
            if g.is_crawled(s as Slot) {
                self.board
                    .push((self.hub[last][s], g.page_at(s as Slot), s as Slot));
            }
        }
        // The order is total (pages are unique), so selecting the top
        // K in O(n) and sorting only them yields the full sort's prefix.
        let cmp = |a: &(f64, u32, Slot), b: &(f64, u32, Slot)| {
            b.0.partial_cmp(&a.0)
                .unwrap_or(core::cmp::Ordering::Equal)
                .then(a.1.cmp(&b.1))
        };
        out_hubs.clear();
        let take = top_k.min(self.board.len());
        if take == 0 {
            return;
        }
        self.board.select_nth_unstable_by(take - 1, cmp);
        self.board[..take].sort_unstable_by(cmp);
        for b in &self.board[..take] {
            out_hubs.push(b.2);
        }
    }

    /// Seed the candidate list with the structural delta (or everything
    /// crawled, in full mode), deduped through `cmark`.
    // lint:root is not needed here: only reachable from `fire`.
    fn seed_candidates(&mut self, g: &LinkGraph, slots: usize) {
        if self.full {
            for s in 0..slots {
                // lint:allow(no-panic-transitive): cmark is ensure_slots-grown to num_slots; s < slots ≤ num_slots and delta slots are < num_slots by construction
                if g.is_crawled(s as Slot) && !self.cmark[s] {
                    self.cmark[s] = true;
                    self.cand.push(s as Slot);
                }
            }
        } else {
            for &s in g.delta() {
                let su = s as usize;
                if !self.cmark[su] {
                    self.cmark[su] = true;
                    self.cand.push(s);
                }
            }
        }
    }

    /// Round-`rounds` hub score of `slot` as of the last firing.
    #[inline]
    pub fn hub_score(&self, slot: Slot) -> f64 {
        self.hub[self.rounds - 1]
            .get(slot as usize)
            .copied()
            .unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive incremental and reference states over the same crawl
    /// sequence, firing at the same points, and demand bit-identical
    /// hub lists and scores.
    #[test]
    fn incremental_matches_reference_bitwise() {
        let mut gi = LinkGraph::new();
        let mut gf = LinkGraph::new();
        let mut inc = HitsState::new(5);
        let mut full = HitsState::full_reference(5);
        let mut x = 3u64;
        let mut step = || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) as u32
        };
        let mut hi = Vec::new();
        let mut hf = Vec::new();
        for batch in 0..6 {
            for i in 0..20u32 {
                let p = batch * 20 + i;
                let outs = [step() % 150, step() % 150, step() % 150];
                let rel = p % 3 != 0;
                let si = gi.record_page(p, &outs);
                inc.note_page(&gi, si, rel);
                let sf = gf.record_page(p, &outs);
                full.note_page(&gf, sf, rel);
            }
            inc.distill(&mut gi, 10, &mut hi);
            full.distill(&mut gf, 10, &mut hf);
            let pi: Vec<u32> = hi.iter().map(|&s| gi.page_at(s)).collect();
            let pf: Vec<u32> = hf.iter().map(|&s| gf.page_at(s)).collect();
            assert_eq!(pi, pf, "top hubs diverge at batch {batch}");
            for s in 0..gi.num_slots() as u32 {
                let a = inc.hub_score(s);
                let b = full.hub_score(gf.slot_of(gi.page_at(s)).unwrap());
                assert_eq!(a.to_bits(), b.to_bits(), "hub score diverges");
            }
        }
    }

    #[test]
    fn identifies_the_hub() {
        let mut g = LinkGraph::new();
        let mut st = HitsState::new(5);
        // Page 0 links three relevant authorities which point onward.
        let s = g.record_page(0, &[1, 2, 3]);
        st.note_page(&g, s, false);
        for p in [1u32, 2, 3] {
            let s = g.record_page(p, &[5]);
            st.note_page(&g, s, true);
        }
        let s = g.record_page(5, &[]);
        st.note_page(&g, s, true);
        let mut hubs = Vec::new();
        st.distill(&mut g, 1, &mut hubs);
        assert_eq!(g.page_at(hubs[0]), 0, "page 0 must be the strongest hub");
    }

    #[test]
    fn scores_are_insertion_order_invariant() {
        let n = 30u32;
        let pages: Vec<(u32, Vec<u32>)> = (0..n)
            .map(|p| (p, vec![(p * 11 + 3) % n, (p * 17 + 7) % n, (p + 1) % n]))
            .collect();
        let run = |order: Vec<&(u32, Vec<u32>)>| {
            let mut g = LinkGraph::new();
            let mut st = HitsState::new(5);
            for (p, outs) in order {
                let s = g.record_page(*p, outs);
                st.note_page(&g, s, p % 2 == 1);
            }
            let mut hubs = Vec::new();
            st.distill(&mut g, 10, &mut hubs);
            let pages: Vec<u32> = hubs.iter().map(|&s| g.page_at(s)).collect();
            let scores: Vec<u64> = (0..n)
                .map(|p| st.hub_score(g.slot_of(p).unwrap()).to_bits())
                .collect();
            (pages, scores)
        };
        let fwd = run(pages.iter().collect());
        let rev = run(pages.iter().rev().collect());
        assert_eq!(fwd.0, rev.0, "top-hub list must not depend on crawl order");
        assert_eq!(
            fwd.1, rev.1,
            "scores must be bitwise insertion-order invariant"
        );
    }

    #[test]
    fn empty_graph_distills_to_nothing() {
        let mut g = LinkGraph::new();
        let mut st = HitsState::new(5);
        let mut hubs = vec![99];
        st.distill(&mut g, 10, &mut hubs);
        assert!(hubs.is_empty());
    }
}
