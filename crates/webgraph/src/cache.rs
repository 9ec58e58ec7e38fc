//! A process-wide cache of generated web spaces.
//!
//! Generation dominates the wall time of every figure harness, and
//! `repro` runs all of them in one process — most against the
//! *same* `(config, seed)` spaces. A [`WebSpace`] is immutable after
//! construction, so sharing is free: the cache hands out `Arc` clones
//! and builds each distinct space exactly once per process.
//!
//! The key is `(config fingerprint, seed)` — the fingerprint already
//! folds in the scale (`total_urls`), matching the ISSUE's
//! "(config fingerprint, seed, scale)" framing. Fingerprints are 64-bit
//! FNV digests, so a collision is theoretically possible; the cache
//! therefore stores the full config next to each entry and falls back
//! to an uncached build on a fingerprint hit whose config differs.

use crate::config::GeneratorConfig;
use crate::graph::WebSpace;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Cache value: the full config (collision check) plus the shared space.
type CacheEntry = (GeneratorConfig, Arc<WebSpace>);

/// A keyed store of immutable, shareable web spaces.
///
/// Most callers want [`SpaceCache::global`] (via
/// [`GeneratorConfig::build_shared`]); separate instances exist so tests
/// can exercise the cache without cross-test interference.
#[derive(Debug, Default)]
pub struct SpaceCache {
    entries: Mutex<HashMap<(u64, u64), CacheEntry>>,
}

impl SpaceCache {
    /// A fresh, empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-wide cache instance.
    pub fn global() -> &'static SpaceCache {
        static GLOBAL: OnceLock<SpaceCache> = OnceLock::new();
        GLOBAL.get_or_init(SpaceCache::new)
    }

    /// Return the space for `(config, seed)`, building it on first use.
    ///
    /// The build runs *outside* the cache lock, so a slow generation
    /// doesn't serialize unrelated lookups; if two threads race to build
    /// the same space, the first insert wins and the loser's duplicate
    /// is dropped (both are bit-identical by construction).
    pub fn get_or_build(&self, config: &GeneratorConfig, seed: u64) -> Arc<WebSpace> {
        let key = (config.fingerprint(), seed);
        if let Some((cached_config, ws)) = self.entries.lock().unwrap().get(&key) {
            if cached_config == config {
                return Arc::clone(ws);
            }
            // Fingerprint collision between distinct configs: don't
            // poison the entry, just build uncached.
            return Arc::new(config.build(seed));
        }
        let ws = Arc::new(config.build(seed));
        let mut entries = self.entries.lock().unwrap();
        let (_, cached) = entries
            .entry(key)
            .or_insert_with(|| (config.clone(), Arc::clone(&ws)));
        Arc::clone(cached)
    }

    /// Number of cached spaces (diagnostics and tests).
    pub fn len(&self) -> usize {
        // lint:allow(no-panic-transitive): lock poisoning is an unrecoverable tooling failure; reached only through the name-collision edge on `len`
        self.entries.lock().unwrap().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_key_shares_one_space() {
        let cache = SpaceCache::new();
        let config = GeneratorConfig::thai_like().scaled(2_000);
        let a = cache.get_or_build(&config, 7);
        let b = cache.get_or_build(&config, 7);
        assert!(Arc::ptr_eq(&a, &b), "second build must be a cache hit");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn different_seed_or_scale_miss() {
        let cache = SpaceCache::new();
        let config = GeneratorConfig::thai_like().scaled(2_000);
        let a = cache.get_or_build(&config, 1);
        let b = cache.get_or_build(&config, 2);
        assert!(!Arc::ptr_eq(&a, &b));
        let c = cache.get_or_build(&config.clone().scaled(3_000), 1);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn cached_space_matches_direct_build() {
        let cache = SpaceCache::new();
        let config = GeneratorConfig::thai_like().scaled(2_000);
        let cached = cache.get_or_build(&config, 7);
        assert_eq!(cached.content_hash(), config.build(7).content_hash());
    }

    #[test]
    fn concurrent_builders_converge() {
        let cache = SpaceCache::new();
        let config = GeneratorConfig::thai_like().scaled(2_000);
        let hashes: Vec<u64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| scope.spawn(|| cache.get_or_build(&config, 9).content_hash()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(hashes.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn fingerprints_separate_presets() {
        assert_ne!(
            GeneratorConfig::thai_like().fingerprint(),
            GeneratorConfig::japanese_like().fingerprint()
        );
        assert_ne!(
            GeneratorConfig::thai_like().scaled(1_000).fingerprint(),
            GeneratorConfig::thai_like().scaled(2_000).fingerprint()
        );
    }
}
