//! Thread-count selection and safe slice partitioning for the parallel
//! web-space generator.
//!
//! The generator fans host-keyed work out over `std::thread::scope`
//! workers. Everything here is deliberately boring: contiguous chunks,
//! `split_at_mut` partitioning (the workspace forbids `unsafe`), and one
//! environment knob. Determinism never depends on anything in this
//! module — per-host PRNG streams make the output identical for every
//! chunking — so chunk boundaries are free to chase load balance only.

use std::num::NonZeroUsize;
use std::ops::Range;

/// Worker-thread count for parallel sections: `LANGCRAWL_THREADS` when
/// set, else [`std::thread::available_parallelism`] (1 when even that
/// is unavailable). Read afresh on each call so tests and harnesses can
/// vary it per run.
///
/// Panics, naming the variable and its value, when it is set to
/// anything but a positive integer.
pub fn effective_threads() -> usize {
    let Some(raw) = std::env::var_os("LANGCRAWL_THREADS") else {
        return std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    };
    let value = raw.to_string_lossy();
    match value.trim().parse::<usize>() {
        Ok(t) if t >= 1 => t,
        _ => panic!("LANGCRAWL_THREADS={value:?} is not a positive thread count"),
    }
}

/// Partition items `0..weights.len()` into at most `parts` contiguous,
/// non-empty ranges of roughly equal total weight. Returns fewer ranges
/// when there are fewer items than parts; an empty input yields no
/// ranges.
pub(crate) fn chunk_by_weight(weights: &[u64], parts: usize) -> Vec<Range<usize>> {
    let n = weights.len();
    let parts = parts.clamp(1, n.max(1));
    if n == 0 {
        return Vec::new();
    }
    let total: u64 = weights.iter().sum();
    let mut chunks = Vec::with_capacity(parts);
    let mut start = 0usize;
    let mut consumed = 0u64;
    for part in 0..parts {
        if start >= n {
            break;
        }
        // Everything up to the part's ideal cumulative share, but always
        // at least one item and never so many that later parts starve.
        let ideal = total * (part as u64 + 1) / parts as u64;
        let mut end = start + 1;
        consumed += weights[start];
        let remaining_parts = parts - part - 1;
        while end < n && consumed < ideal && n - end > remaining_parts {
            consumed += weights[end];
            end += 1;
        }
        if part == parts - 1 {
            end = n; // last part absorbs the tail
        }
        chunks.push(start..end);
        start = end;
    }
    debug_assert_eq!(chunks.first().map(|c| c.start), Some(0));
    debug_assert_eq!(chunks.last().map(|c| c.end), Some(n));
    chunks
}

/// Split a mutable slice into disjoint sub-slices at the given ascending
/// interior cut points — the safe backbone of every parallel fill: each
/// worker owns exactly one sub-slice.
pub(crate) fn split_at_boundaries<'a, T>(
    mut slice: &'a mut [T],
    bounds: &[usize],
) -> Vec<&'a mut [T]> {
    let mut out = Vec::with_capacity(bounds.len() + 1);
    let mut offset = 0usize;
    for &b in bounds {
        debug_assert!(b >= offset, "boundaries must ascend");
        let (head, tail) = slice.split_at_mut(b - offset);
        out.push(head);
        slice = tail;
        offset = b;
    }
    out.push(slice);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_exactly_once() {
        let weights: Vec<u64> = (0..97).map(|i| (i % 13) + 1).collect();
        for parts in [1, 2, 3, 8, 97, 200] {
            let chunks = chunk_by_weight(&weights, parts);
            assert!(chunks.len() <= parts.min(weights.len()));
            assert_eq!(chunks[0].start, 0);
            assert_eq!(chunks.last().unwrap().end, weights.len());
            for w in chunks.windows(2) {
                assert_eq!(w[0].end, w[1].start, "contiguous");
            }
            assert!(chunks.iter().all(|c| !c.is_empty()));
        }
    }

    #[test]
    fn chunks_balance_roughly() {
        let weights = vec![1u64; 1000];
        let chunks = chunk_by_weight(&weights, 4);
        assert_eq!(chunks.len(), 4);
        for c in &chunks {
            let w = c.len() as u64;
            assert!((200..=300).contains(&w), "chunk weight {w}");
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        assert!(chunk_by_weight(&[], 4).is_empty());
        assert_eq!(chunk_by_weight(&[5], 4), vec![0..1]);
        let two = chunk_by_weight(&[5, 5], 4);
        assert_eq!(two.last().unwrap().end, 2);
    }

    #[test]
    fn split_matches_boundaries() {
        let mut v: Vec<u32> = (0..10).collect();
        let parts = split_at_boundaries(&mut v, &[3, 3, 7]);
        let lens: Vec<usize> = parts.iter().map(|p| p.len()).collect();
        assert_eq!(lens, vec![3, 0, 4, 3]);
        assert_eq!(parts[2], &[3, 4, 5, 6]);
    }

    #[test]
    fn effective_threads_is_positive() {
        assert!(effective_threads() >= 1);
    }
}
