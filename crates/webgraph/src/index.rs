//! URL index — the virtual web's name resolution.
//!
//! Metadata-mode simulation works on [`PageId`]s, but a *content-mode*
//! crawler only ever sees URL strings it extracted from HTML. The
//! [`UrlIndex`] plays the role of DNS + HTTP routing: it maps a
//! canonical URL string back to the page the virtual web space serves
//! there. Unresolvable URLs are the simulation's "host not found".

use crate::graph::WebSpace;
use crate::page::PageId;
use langcrawl_url::Canonicalizer;

/// Canonical-URL → page map for one web space.
///
/// Flat: the canonical URLs live back to back in one byte arena
/// (`offsets[p]..offsets[p + 1]` is page `p`'s), and an open-addressing
/// table of `page + 1` slots (0 = empty, linear probing, load ≤ 1/2) is
/// keyed by an in-tree 64-bit hash of the URL bytes. A lookup is one hash
/// over the key, a probe or two, and one byte comparison against the
/// arena — no per-page `String`, no SipHash.
#[derive(Debug)]
pub struct UrlIndex {
    arena: Vec<u8>,
    offsets: Vec<u32>,
    slots: Vec<u32>,
    /// `slots.len() - 1` (the table size is a power of two).
    mask: usize,
}

impl UrlIndex {
    /// Build the index (one pass over the space; URLs are derived, not
    /// stored, so this is the only place they are all materialised).
    /// Each page URL is written and canonicalized through two reused
    /// buffers.
    pub fn build(ws: &WebSpace) -> UrlIndex {
        let n = ws.num_pages();
        let table = (2 * n).next_power_of_two().max(2);
        let mut index = UrlIndex {
            arena: Vec::with_capacity(n * 40),
            offsets: Vec::with_capacity(n + 1),
            slots: vec![0; table],
            mask: table - 1,
        };
        index.offsets.push(0);
        let mut url = String::new();
        let mut canon = Canonicalizer::new();
        for p in ws.page_ids() {
            url.clear();
            ws.write_url(p, &mut url);
            let key = canon.canonicalize_url(&url).expect("generated URLs parse");
            debug_assert!(index.resolve(key).is_none(), "URL collision at page {p}");
            let mut i = index.home(key.as_bytes());
            while index.slots[i] != 0 {
                i = (i + 1) & index.mask;
            }
            index.slots[i] = p + 1;
            index.arena.extend_from_slice(key.as_bytes());
            let end = u32::try_from(index.arena.len()).expect("URL arena under 4 GiB");
            index.offsets.push(end);
        }
        index
    }

    /// Resolve a canonical URL string (as produced by
    /// [`langcrawl_html::extract_links`]) to its page.
    // lint:root(panic-free, alloc-free) — one lookup per extracted link in content mode
    pub fn resolve(&self, canonical_url: &str) -> Option<PageId> {
        let key = canonical_url.as_bytes();
        let mut i = self.home(key);
        loop {
            let slot = *self.slots.get(i)?;
            if slot == 0 {
                return None;
            }
            let p = slot - 1;
            if self.url_bytes(p) == Some(key) {
                return Some(p);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Resolve a raw URL string, canonicalizing first.
    pub fn resolve_raw(&self, url: &str) -> Option<PageId> {
        let mut canon = Canonicalizer::new();
        let key = canon.canonicalize_url(url).ok()?;
        self.resolve(key)
    }

    /// Number of indexed URLs.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Page `p`'s canonical URL bytes in the arena.
    fn url_bytes(&self, p: PageId) -> Option<&[u8]> {
        let start = *self.offsets.get(p as usize)? as usize;
        let end = *self.offsets.get(p as usize + 1)? as usize;
        self.arena.get(start..end)
    }

    /// The key's home slot.
    fn home(&self, key: &[u8]) -> usize {
        hash64(key) as usize & self.mask
    }
}

/// A 64-bit hash for URL keys: eight bytes at a time through a
/// multiply-rotate round, then a splitmix-style finalizer so the low bits
/// the table masks by depend on every input byte.
fn hash64(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let (words, tail) = bytes.as_chunks::<8>();
    let mut h = (bytes.len() as u64).wrapping_mul(K);
    for w in words {
        h = (h ^ u64::from_le_bytes(*w)).wrapping_mul(K).rotate_left(29);
    }
    // The tail as a zero-padded little-endian word.
    let last = tail
        .iter()
        .rev()
        .fold(0u64, |acc, &b| (acc << 8) | b as u64);
    h = (h ^ last).wrapping_mul(K);
    h ^= h >> 32;
    h = h.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    h ^ (h >> 32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GeneratorConfig;

    #[test]
    fn every_page_resolves() {
        let ws = GeneratorConfig::thai_like().scaled(2_000).build(3);
        let idx = UrlIndex::build(&ws);
        assert_eq!(idx.len(), ws.num_pages());
        for p in ws.page_ids().step_by(13) {
            assert_eq!(idx.resolve_raw(&ws.url(p)), Some(p));
        }
    }

    #[test]
    fn unknown_and_malformed_urls_do_not_resolve() {
        let ws = GeneratorConfig::thai_like().scaled(1_000).build(3);
        let idx = UrlIndex::build(&ws);
        assert_eq!(idx.resolve_raw("http://no-such-host.example/"), None);
        assert_eq!(idx.resolve_raw("not a url"), None);
    }

    #[test]
    fn resolution_is_canonicalization_insensitive() {
        let ws = GeneratorConfig::thai_like().scaled(1_000).build(3);
        let idx = UrlIndex::build(&ws);
        let p = ws.seeds()[0];
        let url = ws.url(p); // "http://host/"
        let shouty = url.to_uppercase();
        assert_eq!(idx.resolve_raw(&shouty), Some(p), "{shouty}");
        // Explicit default port spelling: http://host:80/
        let with_port = format!("{}:80/", url.trim_end_matches('/'));
        assert_eq!(idx.resolve_raw(&with_port), Some(p), "{with_port}");
    }
}
