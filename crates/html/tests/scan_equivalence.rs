//! Equivalence properties: the borrowing tokenizer, the span scanner and
//! the link extractor against a frozen copy of the owned-`Vec`
//! implementation they replaced (`reference/mod.rs`, resolving through
//! the frozen URL reference of `langcrawl-url`).
//!
//! The corpus is this crate's property-test corpus — arbitrary bytes,
//! planted links — plus markup built from the constructs the scanner has
//! to get right: mixed-case names, every quoting style, entities,
//! comments, doctypes, `<script>`/`<style>` interiors, `<base href>`
//! chains, frames, unclosed tags and invalid UTF-8.

#[path = "../../url/tests/reference/mod.rs"]
mod url_reference;

#[path = "reference/mod.rs"]
mod reference;

use langcrawl_html::{extract_links, extract_raw_refs, for_each_ref, LinkExtractor, Tokenizer};
use langcrawl_minicheck::{check, check_default, Gen};
use langcrawl_url::Url;
use std::collections::HashSet;

/// Old tags flattened to comparable tuples (the old tokenizer lowercased
/// names; the new one borrows them as written).
type FlatTag = (Vec<u8>, bool, Vec<(Vec<u8>, Vec<u8>)>);

fn new_tags(page: &[u8]) -> Vec<FlatTag> {
    Tokenizer::new(page)
        .map(|t| {
            let attrs = t
                .attrs()
                .map(|a| (a.name.to_ascii_lowercase(), a.value.to_vec()))
                .collect();
            (t.name.to_ascii_lowercase(), t.closing, attrs)
        })
        .collect()
}

fn old_tags(page: &[u8]) -> Vec<FlatTag> {
    reference::Tokenizer::new(page)
        .map(|t| {
            let attrs = t.attrs.into_iter().map(|a| (a.name, a.value)).collect();
            (t.name, t.closing, attrs)
        })
        .collect()
}

/// The link list a reused extractor produces, deduplicated the way
/// `extract_links` documents.
fn extractor_links(ex: &mut LinkExtractor, page: &[u8], base: &Url) -> Vec<String> {
    ex.set_base_url(base);
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    ex.for_each_link(page, |u| {
        if seen.insert(u.to_string()) {
            out.push(u.to_string());
        }
    });
    out
}

fn assert_equivalent(ex: &mut LinkExtractor, page: &[u8], base: &Url) {
    let shown = String::from_utf8_lossy(page);
    assert_eq!(new_tags(page), old_tags(page), "tags of {shown:?}");
    assert_eq!(
        extract_raw_refs(page),
        reference::extract_raw_refs(page),
        "raw refs of {shown:?}"
    );
    let want = reference::extract_links(page, base);
    assert_eq!(extract_links(page, base), want, "links of {shown:?}");
    assert_eq!(
        extractor_links(ex, page, base),
        want,
        "extractor on {shown:?}"
    );
    let mut spans = 0;
    for_each_ref(page, |_, _| spans += 1);
    assert!(spans >= want.len());
}

/// Markup fragments that exercise the tokenizer and link paths.
const PIECES: &[&str] = &[
    "<a href=\"x.html\">",
    "<A HREF='../up/'>",
    "<a href=bare>",
    "<a\thref = \"sp aced\" >",
    "<a href=\"/cgi?a=1&amp;b=2\">",
    "<a href=\"&#x2F;abs\">",
    "<a href=\"#frag\">",
    "<a href=\"?q\">",
    "<a href=\"//other.jp/p/./index.html\">",
    "<a href=\"HTTP://Z.th:80/%7euser\">",
    "<a href=\"mailto:x@y\">",
    "<a href=\"  \">",
    "<a href=\"\">",
    "<a name=top>",
    "<a title=\"a>b\" href=\"q.html\">",
    "<a href=\"x\" href=\"y\">",
    "<area href=map.html>",
    "<link rel=next href=\"n.html\">",
    "<base href=\"http://cdn.example.jp/root/\">",
    "<BASE HREF=\"sub/\">",
    "<base href=\"mailto:no\">",
    "<frame src=menu.html>",
    "<IFRAME SRC=\"ad.html\"></iframe>",
    "<img src=\"pic.gif\">",
    "<script>document.write('<a href=\"no\">')</script>",
    "<STYLE>a<b{}</style>",
    "<script src=s.js>",
    "<!-- <a href=hidden> -->",
    "<!-- unterminated",
    "<!DOCTYPE html>",
    "<!x>",
    "</a>",
    "</p junk=1>",
    "< a href=no>",
    "<a href=\"unclosed",
    "<a href=x/>",
    "<p>",
    "text ",
    "3 < 4 ",
    "\u{e44}\u{e17}\u{e22} ",
    "&amp; ",
    "<meta charset=\"euc-jp\">",
    "<a href=\"\u{e44}.html\">",
    "<a href=\"&#1;x\">",
    "<a href=\"&#32;\">",
    "<a href=\"\u{3000}wide.html\u{a0}\">",
    "<a href='\u{85}'>",
];

fn arb_markup(g: &mut Gen) -> Vec<u8> {
    let mut page = Vec::new();
    for _ in 0..g.usize(0..24) {
        match g.usize(0..10) {
            // Invalid UTF-8 and legacy multibyte text.
            0 => page.extend_from_slice(&[0xA4, 0xB3, 0xFF, b'"', 0xC3]),
            // Random bytes from the syntax alphabet.
            1 => {
                let s = g.string_of("<>/=\"' ahrefsc!-&;#x", 0..12);
                page.extend_from_slice(s.as_bytes());
            }
            _ => page.extend_from_slice(g.pick(PIECES).as_bytes()),
        }
    }
    page
}

fn bases() -> Vec<Url> {
    [
        "http://h.th/p/",
        "http://host.ac.th/dir/page.html",
        "https://WWW.Ex.JP:443/a/b/index.html?x=1",
        "http://h:8080/a/../b",
    ]
    .iter()
    .map(|u| Url::parse(u).unwrap())
    .collect()
}

/// Arbitrary bytes: the scanner agrees with the old one wherever the old
/// one was total.
#[test]
fn equivalent_on_arbitrary_bytes() {
    let bases = bases();
    let mut ex = LinkExtractor::new();
    check_default(|g| {
        let bytes = g.bytes(0..2048);
        let base = g.pick(&bases).clone();
        assert_equivalent(&mut ex, &bytes, &base);
    });
}

/// Structured markup: every tokenizer, entity, base and resolution path.
#[test]
fn equivalent_on_markup() {
    let bases = bases();
    let mut ex = LinkExtractor::new();
    check(2_000, |g| {
        let page = arb_markup(g);
        let base = g.pick(&bases).clone();
        assert_equivalent(&mut ex, &page, &base);
    });
}

/// The planted-link corpus of `proptests.rs`.
#[test]
fn equivalent_on_planted_links() {
    let mut ex = LinkExtractor::new();
    check_default(|g| {
        let paths = g.vec(1..20, |g| {
            g.string_of("abcdefghijklmnopqrstuvwxyz0123456789", 1..9)
        });
        let mut html = String::from("<html><body>");
        for p in &paths {
            html.push_str(&format!(r#"<p>text</p><a href="/{p}">x</a>"#));
        }
        html.push_str("</body></html>");
        let base = Url::parse("http://host.ac.th/dir/page.html").unwrap();
        assert_equivalent(&mut ex, html.as_bytes(), &base);
    });
}

/// The SWAR `<` search agrees with a plain scan at every alignment and
/// length, including matches in the last partial word.
#[test]
fn tag_search_at_every_offset() {
    for len in 0..40 {
        for at in 0..=len {
            let mut page = vec![b'x'; len];
            page.splice(at..at, b"<a href=y>".iter().copied());
            assert_eq!(
                extract_links(&page, &Url::parse("http://h/").unwrap()),
                ["http://h/y"]
            );
            assert_equivalent(
                &mut LinkExtractor::new(),
                &page,
                &Url::parse("http://h/").unwrap(),
            );
        }
    }
}
