//! Equivalence on real synthesized pages: the span scanner and link
//! extractor give exactly the link lists of the owned-`Vec` extractor
//! they replaced (frozen in `langcrawl-html`'s `tests/reference`,
//! resolving through `langcrawl-url`'s frozen reference), and the flat
//! URL index maps those links back to the page's outlinks. Every href
//! the synthesizer writes is already in canonical form, which is what
//! the canonicalizer's as-is path is tuned to.

#[path = "../../url/tests/reference/mod.rs"]
mod url_reference;

#[path = "../../html/tests/reference/mod.rs"]
mod reference;

use langcrawl_html::{extract_links, extract_raw_refs, LinkExtractor};
use langcrawl_url::Url;
use langcrawl_webgraph::index::UrlIndex;
use langcrawl_webgraph::{GeneratorConfig, PageId};

#[test]
fn synthesized_pages_extract_the_same_links() {
    let mut extractor = LinkExtractor::new();
    let mut url = String::new();
    for ws in [
        GeneratorConfig::thai_like().scaled(1_500).build(5),
        GeneratorConfig::japanese_like().scaled(1_500).build(6),
        GeneratorConfig::korean_like().scaled(1_500).build(7),
    ] {
        let index = UrlIndex::build(&ws);
        let mut pages = 0;
        for p in ws.page_ids() {
            if !ws.meta(p).is_ok_html() {
                continue;
            }
            pages += 1;
            let body = ws.synthesize_page(p);
            let base = Url::parse(&ws.url(p)).unwrap();
            let want = reference::extract_links(&body, &base);
            assert_eq!(extract_links(&body, &base), want, "page {p}");
            let raw = extract_raw_refs(&body);
            assert_eq!(raw, reference::extract_raw_refs(&body), "page {p}");
            for (_, href) in &raw {
                let canonical = url_reference::normalize(&url_reference::parse(href).unwrap());
                assert_eq!(&canonical, href, "page {p}");
            }

            // The content-mode path: reused extractor, base set from the
            // URL text, duplicates dropped by page id.
            url.clear();
            ws.write_url(p, &mut url);
            extractor.set_base(&url).unwrap();
            let mut got: Vec<PageId> = Vec::new();
            extractor.for_each_link(&body, |u| {
                let t = index.resolve(u).expect("every generated link resolves");
                if !got.contains(&t) {
                    got.push(t);
                }
            });
            let by_string: Vec<PageId> = want
                .iter()
                .map(|u| index.resolve(u).expect("resolves"))
                .collect();
            assert_eq!(got, by_string, "page {p}");
            let mut outlinks = ws.outlinks(p).to_vec();
            outlinks.sort_unstable();
            outlinks.dedup();
            let mut sorted = got.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, outlinks, "page {p}");
        }
        assert!(pages > 100);
    }
}
