//! Link extraction — producing frontier candidates from a fetched page.
//!
//! The crawler follows what a 2004-era archiving crawler followed:
//! `<a href>`, `<area href>`, `<frame src>`, `<iframe src>`, and
//! `<link href>` for alternate/contents-style relations. Image/script
//! sources are *not* crawl candidates (they are never HTML). `<base
//! href>` changes the resolution base for everything after it.

use crate::entities::decode_entities_into;
use crate::tokenizer::Tokenizer;
use langcrawl_url::{Canonicalizer, ParseError, Url};

/// Extract, resolve and normalize the outlinks of a page.
///
/// Returns canonical URL strings, de-duplicated, in first-appearance
/// order. Self-links (resolving to the page itself) are kept — the
/// frontier's visited-set is the right place to drop them.
///
/// ```
/// use langcrawl_html::extract_links;
/// use langcrawl_url::Url;
///
/// let base = Url::parse("http://www.ex.ac.th/dir/page.html").unwrap();
/// let html = br#"<a href="a.html"><a href="/b"><a href="http://other.jp/c">"#;
/// let links = extract_links(html, &base);
/// assert_eq!(links, vec![
///     "http://www.ex.ac.th/dir/a.html",
///     "http://www.ex.ac.th/b",
///     "http://other.jp/c",
/// ]);
/// ```
pub fn extract_links(page: &[u8], page_url: &Url) -> Vec<String> {
    let mut extractor = LinkExtractor::new();
    extractor.set_base_url(page_url);
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    extractor.for_each_link(page, |canon| {
        if !seen.contains(canon) {
            seen.insert(canon.to_string());
            out.push(canon.to_string());
        }
    });
    out
}

/// Extract raw (unresolved) link references with their tag of origin
/// (lowercased). Exposed for tests and for tooling that wants
/// pre-resolution hrefs.
pub fn extract_raw_refs(page: &[u8]) -> Vec<(Vec<u8>, String)> {
    let mut text = RefText::default();
    let mut out = Vec::new();
    for_each_ref(page, |tag, span| {
        let raw = text.text_of(span);
        if !raw.is_empty() {
            out.push((tag.to_ascii_lowercase(), raw.to_string()));
        }
    });
    out
}

/// Visit the link references of a page as borrowed byte spans, in
/// document order: `f(tag_name, value)` for the `href` of `<a>`,
/// `<area>`, `<link>` and `<base>` and the `src` of `<frame>` and
/// `<iframe>`. The tag name is as written; the value is the raw attribute
/// bytes, entities and surrounding whitespace included.
// lint:root(alloc-free) — the per-fetch link scan in content mode
pub fn for_each_ref<'a>(page: &'a [u8], mut f: impl FnMut(&'a [u8], &'a [u8])) {
    for tag in Tokenizer::new(page) {
        if tag.closing {
            continue;
        }
        let Some(attr_name) = link_attr(tag.name) else {
            continue;
        };
        if let Some(attr) = tag.attr(attr_name) {
            f(tag.name, attr.value);
        }
    }
}

/// The attribute that carries a link on tag `name`, if it is a link tag.
fn link_attr(name: &[u8]) -> Option<&'static str> {
    let is = |tag: &[u8]| name.eq_ignore_ascii_case(tag);
    match name.len() {
        1 if is(b"a") => Some("href"),
        4 if is(b"area") || is(b"link") || is(b"base") => Some("href"),
        5 if is(b"frame") => Some("src"),
        6 if is(b"iframe") => Some("src"),
        _ => None,
    }
}

/// Turns a raw attribute span into the reference text the URL layer
/// sees: UTF-8-lossy, whitespace-trimmed, entities decoded. Spans that
/// are valid UTF-8 without `&` — nearly all of them — are borrowed; the
/// rest are rebuilt in buffers reused from span to span.
#[derive(Debug, Default)]
struct RefText {
    lossy: String,
    decoded: String,
}

impl RefText {
    fn text_of<'s>(&'s mut self, span: &'s [u8]) -> &'s str {
        let text: &str = match std::str::from_utf8(span) {
            Ok(s) => s,
            Err(_) => {
                self.lossy.clear();
                for chunk in span.utf8_chunks() {
                    self.lossy.push_str(chunk.valid());
                    if !chunk.invalid().is_empty() {
                        self.lossy.push(char::REPLACEMENT_CHARACTER);
                    }
                }
                &self.lossy
            }
        };
        let text = text.trim();
        if !text.contains('&') {
            return text;
        }
        decode_entities_into(text, &mut self.decoded);
        &self.decoded
    }
}

/// Reusable link extractor: scans a page's link spans, follows `<base
/// href>`, and hands each outlink's canonical URL to a callback. Every
/// buffer it needs is kept between pages, so once warm a page costs no
/// allocation. [`extract_links`] is this plus first-appearance dedup.
///
/// ```
/// use langcrawl_html::LinkExtractor;
///
/// let mut ex = LinkExtractor::new();
/// ex.set_base("http://h.th/a/b.html").unwrap();
/// let mut links = Vec::new();
/// ex.for_each_link(br#"<a href="c.html"><base href="/x/"><a href="y">"#, |u| {
///     links.push(u.to_string())
/// });
/// assert_eq!(links, ["http://h.th/a/c.html", "http://h.th/x/y"]);
/// ```
#[derive(Debug)]
pub struct LinkExtractor {
    canon: Canonicalizer,
    base: Url,
    text: RefText,
}

impl Default for LinkExtractor {
    fn default() -> Self {
        LinkExtractor::new()
    }
}

impl LinkExtractor {
    /// An extractor with empty buffers. Until [`LinkExtractor::set_base`]
    /// is called, links resolve against the placeholder `http://invalid/`.
    pub fn new() -> Self {
        LinkExtractor {
            canon: Canonicalizer::new(),
            base: Url::parse("http://invalid/").expect("placeholder URL parses"),
            text: RefText::default(),
        }
    }

    /// Parse `page_url` as the base for the next page, reusing buffers.
    /// On error the previous base is kept.
    pub fn set_base(&mut self, page_url: &str) -> Result<(), ParseError> {
        self.canon.parse_into(page_url, &mut self.base)
    }

    /// Use an already-parsed URL as the base for the next page.
    pub fn set_base_url(&mut self, page_url: &Url) {
        self.base.clone_from(page_url);
    }

    /// Scan `page` and call `f` with the canonical URL of every link that
    /// resolves to a web URL, in document order, duplicates included.
    /// `<base href>` rebases the links after it (and persists until the
    /// next `set_base`).
    // lint:root(alloc-free) — once per fetched HTML page in content mode
    pub fn for_each_link(&mut self, page: &[u8], mut f: impl FnMut(&str)) {
        let LinkExtractor { canon, base, text } = self;
        for_each_ref(page, |tag, span| {
            let raw = text.text_of(span);
            if raw.is_empty() {
                return;
            }
            if tag.eq_ignore_ascii_case(b"base") {
                let _ = canon.rebase(base, raw);
            } else if let Ok(url) = canon.canonicalize(base, raw) {
                f(url);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Url {
        Url::parse("http://host.co.th/a/b.html").unwrap()
    }

    #[test]
    fn relative_and_absolute() {
        let links = extract_links(
            br#"<a href="c.html"><a href="../up"><a href="https://x.jp/">"#,
            &base(),
        );
        assert_eq!(
            links,
            vec![
                "http://host.co.th/a/c.html",
                "http://host.co.th/up",
                "https://x.jp/"
            ]
        );
    }

    #[test]
    fn base_tag_changes_resolution() {
        let links = extract_links(
            br#"<base href="http://cdn.example.jp/root/"><a href="x.html">"#,
            &base(),
        );
        assert_eq!(links, vec!["http://cdn.example.jp/root/x.html"]);
    }

    #[test]
    fn frames_and_iframes() {
        let links = extract_links(
            br#"<frameset><frame src="menu.html"><frame src="main.html"></frameset><iframe src="ad.html">"#,
            &base(),
        );
        assert_eq!(links.len(), 3);
        assert!(links[0].ends_with("menu.html"));
    }

    #[test]
    fn images_and_scripts_not_followed() {
        let links = extract_links(
            br#"<img src="pic.gif"><script src="s.js"></script><a href="page.html">"#,
            &base(),
        );
        assert_eq!(links, vec!["http://host.co.th/a/page.html"]);
    }

    #[test]
    fn non_web_schemes_dropped() {
        let links = extract_links(
            br#"<a href="mailto:a@b.c"><a href="javascript:void(0)"><a href="ftp://f/x"><a href="ok.html">"#,
            &base(),
        );
        assert_eq!(links, vec!["http://host.co.th/a/ok.html"]);
    }

    #[test]
    fn deduplicated_in_order() {
        let links = extract_links(
            br#"<a href="x"><a href="y"><a href="x"><a href="./x">"#,
            &base(),
        );
        assert_eq!(
            links,
            vec!["http://host.co.th/a/x", "http://host.co.th/a/y"]
        );
    }

    #[test]
    fn entity_decoded_hrefs() {
        let links = extract_links(br#"<a href="/cgi?a=1&amp;b=2">"#, &base());
        assert_eq!(links, vec!["http://host.co.th/cgi?a=1&b=2"]);
    }

    #[test]
    fn fragment_links_resolve_to_self() {
        let links = extract_links(br##"<a href="#section2">"##, &base());
        assert_eq!(links, vec!["http://host.co.th/a/b.html"]);
    }

    #[test]
    fn empty_href_ignored() {
        let links = extract_links(br#"<a href=""><a href="  ">"#, &base());
        assert!(links.is_empty());
    }

    #[test]
    fn raw_refs_include_tag_names() {
        let refs = extract_raw_refs(br#"<a href="x"><frame src="y">"#);
        assert_eq!(refs[0].0, b"a".to_vec());
        assert_eq!(refs[0].1, "x");
        assert_eq!(refs[1].0, b"frame".to_vec());
    }

    #[test]
    fn links_in_legacy_encoded_page() {
        // EUC-JP text around an ASCII link.
        let mut page = Vec::new();
        page.extend_from_slice(b"<p>");
        page.extend_from_slice(&[0xA4, 0xB3, 0xA4, 0xF3]);
        page.extend_from_slice(br#"</p><a href="/jp/index.html">"#);
        page.extend_from_slice(&[0xA4, 0xCB]);
        page.extend_from_slice(b"</a>");
        let links = extract_links(&page, &base());
        assert_eq!(links, vec!["http://host.co.th/jp/"]);
    }
}
