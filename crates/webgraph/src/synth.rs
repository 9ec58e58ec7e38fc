//! Content synthesis: render any page of a web space as HTML bytes.
//!
//! Metadata mode (the default for large runs) replays recorded charsets
//! exactly as the paper's trace-driven simulator did. Content mode goes
//! further: the page body is materialised as real HTML in the page's
//! **true** charset, with the **labeled** charset in its META tag (the
//! two disagree on mislabeled pages) and real `<a href>` links to the
//! page's outlink URLs. The classifier then runs the actual byte
//! detector / META parser — the full §3.2 pipeline.
//!
//! Synthesis is deterministic per `(generation_seed, page_id)`, so
//! content mode needs no stored bodies.

use crate::graph::WebSpace;
use crate::page::{PageId, PageKind};
use crate::text;
use langcrawl_charset::dbcs::DbcsEncoder;
use langcrawl_charset::encode::{encode_ascii_into, JapaneseEncoder, ThaiEncoder};
use langcrawl_charset::{Charset, Language};

use langcrawl_rng::{mix, Rng};

impl WebSpace {
    /// Render a page as HTML bytes in its true charset. Non-HTML pages
    /// yield a short placeholder body (binary resources are opaque to the
    /// crawler anyway); failed pages yield an empty body.
    pub fn synthesize_page(&self, p: PageId) -> Vec<u8> {
        let meta = self.meta(p);
        let capacity = match meta.kind {
            PageKind::Html => meta.size as usize / 4,
            PageKind::Other | PageKind::Failed => 0,
        };
        let mut out = Vec::with_capacity(capacity);
        self.synthesize_page_into(p, &mut out);
        out
    }

    /// [`WebSpace::synthesize_page`] into a caller-owned buffer, which is
    /// cleared first. Tokens are encoded into the buffer as they are
    /// generated and anchor URLs are written in place, so once the buffer
    /// has grown to the largest page, rendering allocates nothing.
    // lint:root(alloc-free) — renders every fetched page in content mode
    pub fn synthesize_page_into(&self, p: PageId, out: &mut Vec<u8>) {
        out.clear();
        match self.meta(p).kind {
            PageKind::Failed => {}
            PageKind::Other => put_bytes(out, b"GIF89a\x01\x00\x01\x00\x80\x00\x00"),
            PageKind::Html => self.synthesize_html(p, out),
        }
    }

    fn synthesize_html(&self, p: PageId, out: &mut Vec<u8>) {
        let meta = self.meta(p);
        // Per-page deterministic stream: splitmix the ids together.
        let mut rng = Rng::seed_from_u64(mix(self.generation_seed(), p as u64));
        let body = |units: usize, rng: &mut Rng, out: &mut Vec<u8>| {
            body_text(meta.lang, meta.true_charset, units, rng, out);
        };

        put_bytes(out, b"<html><head>");
        if let Some(label) = meta.labeled_charset {
            put_bytes(
                out,
                br#"<meta http-equiv="content-type" content="text/html; charset="#,
            );
            put_bytes(out, Charset::label(label).as_bytes());
            put_bytes(out, br#"">"#);
        }
        put_bytes(out, b"<title>");
        body(8, &mut rng, out);
        put_bytes(out, b"</title></head><body>");

        // Interleave text paragraphs with the page's real outlinks.
        let links = self.outlinks(p);
        let n_par = 1 + links.len().min(8);
        let mut li = 0usize;
        for _ in 0..n_par {
            put_bytes(out, b"<p>");
            body(40, &mut rng, out);
            put_bytes(out, b"</p>\n");
            // A run of anchors after each paragraph.
            let take = (links.len() - li).min(1 + (links.len() / n_par));
            for &t in &links[li..li + take] {
                put_bytes(out, b"<a href=\"");
                self.put_url(t, out);
                put_bytes(out, b"\">");
                body(3, &mut rng, out);
                put_bytes(out, b"</a> ");
            }
            li += take;
        }
        for &t in &links[li..] {
            put_bytes(out, b"<a href=\"");
            self.put_url(t, out);
            put_bytes(out, b"\">x</a> ");
        }
        put_bytes(out, b"</body></html>");
    }
}

/// Append `bytes` to a page being rendered. Every byte of a page goes
/// through here (tokens are pushed byte by byte by the encoders).
#[inline]
fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    // lint:allow(no-alloc-transitive): the page buffer is reused across fetches; extend only reallocates until it reaches the largest page
    out.extend_from_slice(bytes);
}

/// Append body text in the page's language and charset: tokens are
/// generated and encoded one at a time. `units` is roughly "words":
/// tokens are scaled so languages look comparable.
///
/// # Panics
/// Panics if `charset` cannot carry `lang` (the generator never pairs
/// them so).
fn body_text(
    lang: Option<Language>,
    charset: Charset,
    units: usize,
    rng: &mut Rng,
    out: &mut Vec<u8>,
) {
    match lang {
        Some(Language::Japanese) => {
            let mut enc = JapaneseEncoder::new(charset).expect("Japanese-capable charset");
            text::japanese_into(units * 4, rng, |t| enc.encode_token(t, out));
            enc.finish(out);
        }
        Some(Language::Thai) => {
            let enc = ThaiEncoder::new(charset).expect("Thai-capable charset");
            text::thai_into(units * 4, rng, |t| enc.encode_token(t, out));
        }
        Some(Language::Korean) => {
            let enc = DbcsEncoder::korean(charset).expect("Korean-capable charset");
            text::korean_into(units * 3, rng, |t| enc.encode_token(t, out));
        }
        Some(Language::Chinese) => {
            let enc = DbcsEncoder::chinese(charset).expect("Chinese-capable charset");
            text::chinese_into(units * 4, rng, |t| enc.encode_token(t, out));
        }
        Some(Language::Other) if charset == Charset::Utf8 => {
            // "Other" UTF-8 pages get accented Latin so they are not
            // bare ASCII.
            text::english_into(units, rng, |w| put_bytes(out, w.as_bytes()));
            put_bytes(out, " caf\u{e9} d\u{e9}j\u{e0}".as_bytes());
        }
        Some(Language::Other) if charset == Charset::Latin1 => {
            text::english_into(units, rng, |w| put_bytes(out, w.as_bytes()));
            put_bytes(out, b" caf\xe9");
        }
        _ => text::english_into(units, rng, |w| encode_ascii_into(w, out)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GeneratorConfig;
    use langcrawl_html::{extract_links, extract_meta_charset};
    use langcrawl_url::Url;

    fn space() -> WebSpace {
        GeneratorConfig::thai_like().scaled(3_000).build(11)
    }

    #[test]
    fn synthesis_is_deterministic() {
        let ws = space();
        let p = ws.seeds()[0];
        assert_eq!(ws.synthesize_page(p), ws.synthesize_page(p));
    }

    #[test]
    fn meta_label_is_recoverable() {
        let ws = space();
        let mut checked = 0;
        for p in ws.page_ids().take(500) {
            let m = ws.meta(p);
            if !m.is_ok_html() {
                continue;
            }
            let bytes = ws.synthesize_page(p);
            let extracted = extract_meta_charset(&bytes);
            assert_eq!(extracted, m.labeled_charset, "page {p}");
            checked += 1;
        }
        assert!(checked > 50);
    }

    #[test]
    fn links_are_recoverable() {
        let ws = space();
        for p in ws.page_ids().take(200) {
            let m = ws.meta(p);
            if !m.is_ok_html() {
                continue;
            }
            let bytes = ws.synthesize_page(p);
            let base = Url::parse(&ws.url(p)).unwrap();
            let extracted = extract_links(&bytes, &base);
            let expected: std::collections::HashSet<String> = ws
                .outlinks(p)
                .iter()
                .map(|&t| langcrawl_url::normalize(&Url::parse(&ws.url(t)).unwrap()))
                .collect();
            let got: std::collections::HashSet<String> = extracted.into_iter().collect();
            assert_eq!(got, expected, "page {p}");
        }
    }

    #[test]
    fn detector_recovers_true_charset_language() {
        let ws = space();
        let target = ws.target_language();
        let mut hits = 0u32;
        let mut total = 0u32;
        for p in ws.page_ids() {
            let m = ws.meta(p);
            if !m.is_ok_html() || m.lang != Some(target) {
                continue;
            }
            total += 1;
            if total > 150 {
                break;
            }
            let bytes = ws.synthesize_page(p);
            let d = langcrawl_charset::detect(&bytes);
            if d.language() == Some(target) {
                hits += 1;
            }
        }
        let rate = hits as f64 / total.min(150) as f64;
        assert!(rate > 0.9, "detector hit rate {rate}");
    }

    #[test]
    fn failed_pages_have_empty_bodies() {
        let ws = space();
        let failed = ws
            .page_ids()
            .find(|&p| ws.meta(p).kind == PageKind::Failed)
            .expect("some failed page");
        assert!(ws.synthesize_page(failed).is_empty());
    }

    #[test]
    fn body_size_tracks_out_degree_not_panics() {
        let ws = space();
        for p in ws.page_ids().take(100) {
            let _ = ws.synthesize_page(p);
        }
    }
}
