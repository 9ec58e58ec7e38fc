//! Per-page and per-host metadata records — the schema of the crawl log.

use langcrawl_charset::{Charset, Language};

/// Page identifier: an index into the web space's page table. `u32`
/// bounds the space at ~4 G pages, far beyond what fits in memory anyway,
/// and halves edge-array memory versus `usize` (CSR edges dominate the
/// footprint).
pub type PageId = u32;

/// HTTP status of a fetch, collapsed to the classes the simulation
/// distinguishes. The paper's Table 3 counts "pages with OK status (200)"
/// separately from the rest of the URL population.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HttpStatus {
    /// 200 OK.
    Ok,
    /// 404 / 410 — the link rot that fills real crawl logs.
    NotFound,
    /// 5xx.
    ServerError,
    /// Connection-level failure (timeout, refused).
    Unreachable,
}

impl HttpStatus {
    /// Numeric code for log output.
    pub fn code(self) -> u16 {
        match self {
            HttpStatus::Ok => 200,
            HttpStatus::NotFound => 404,
            HttpStatus::ServerError => 500,
            HttpStatus::Unreachable => 0,
        }
    }

    /// Parse a numeric code back into a status class. Total over `u16`:
    /// every 5xx — including codes [`HttpStatus::code`] never emits —
    /// maps to [`HttpStatus::ServerError`]; anything unrecognized
    /// (out-of-range codes included) collapses to
    /// [`HttpStatus::Unreachable`], never a panic. The exhaustive
    /// round-trip test below pins this classification.
    pub fn from_code(code: u16) -> HttpStatus {
        match code {
            200 => HttpStatus::Ok,
            404 | 410 => HttpStatus::NotFound,
            500..=599 => HttpStatus::ServerError,
            _ => HttpStatus::Unreachable,
        }
    }
}

/// What kind of resource a URL turned out to be.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PageKind {
    /// An OK HTML page — the only kind with outlinks and a language.
    Html,
    /// A non-HTML resource (image, PDF, archive…): fetched, counted, but
    /// never relevant and never expanded.
    Other,
    /// A URL whose fetch failed (see its [`HttpStatus`]).
    Failed,
}

/// Everything the virtual web space knows about one URL.
///
/// Field order and types are chosen for density: the page table is the
/// second-largest allocation after the edge array.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PageMeta {
    /// Host this page lives on (index into the host table).
    pub host: u32,
    /// Resource kind.
    pub kind: PageKind,
    /// Fetch status.
    pub status: HttpStatus,
    /// Ground-truth charset of the body (meaningful for HTML pages).
    pub true_charset: Charset,
    /// Charset declared in the page's META tag; `None` when the page has
    /// no declaration. May disagree with `true_charset` (mislabeling).
    pub labeled_charset: Option<Charset>,
    /// Body size in bytes (drives transfer delay in the timing model).
    pub size: u32,
    /// Ground-truth language of the body. Needed independently of
    /// `true_charset` because UTF-8 carries any language and charset
    /// alone cannot say which.
    pub lang: Option<Language>,
    /// Island-chain depth: `0` for mainland pages; for pages on an island
    /// approach chain or island host, the number of consecutive
    /// irrelevant pages separating the island from the mainland.
    pub island_depth: u8,
}

impl PageMeta {
    /// Ground-truth language of the page body (`None` for non-HTML).
    pub fn true_language(&self) -> Option<Language> {
        if self.kind != PageKind::Html {
            return None;
        }
        self.lang
    }

    /// Is this an OK HTML page (the denominator of Table 3)?
    pub fn is_ok_html(&self) -> bool {
        self.kind == PageKind::Html && self.status == HttpStatus::Ok
    }
}

/// Per-host record.
#[derive(Debug, Clone, PartialEq)]
pub struct HostMeta {
    /// Host name (`www.foo.ac.th`).
    pub name: String,
    /// The language of the site's content.
    pub language: Language,
    /// First page id on this host (pages of a host are contiguous).
    pub first_page: PageId,
    /// Number of pages on this host.
    pub page_count: u32,
    /// True when the host is a relevant *island*: reachable from the
    /// mainland only through irrelevant pages.
    pub island: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_codes_round_trip() {
        for s in [
            HttpStatus::Ok,
            HttpStatus::NotFound,
            HttpStatus::ServerError,
            HttpStatus::Unreachable,
        ] {
            assert_eq!(HttpStatus::from_code(s.code()), s);
        }
    }

    /// Exhaustive classification over the entire `u16` input space —
    /// all four classes plus every out-of-range code. This pins the
    /// behavior [`HttpStatus::from_code`] documents: unknown 5xx codes
    /// (502, 503, 504, 599, …) are `ServerError`, and no input panics
    /// or silently changes class.
    #[test]
    fn from_code_is_total_and_pins_every_class() {
        for code in 0..=u16::MAX {
            let expected = match code {
                200 => HttpStatus::Ok,
                404 | 410 => HttpStatus::NotFound,
                500..=599 => HttpStatus::ServerError,
                _ => HttpStatus::Unreachable,
            };
            assert_eq!(HttpStatus::from_code(code), expected, "code {code}");
        }
        // The cases retry logic depends on, spelled out: transient-ish
        // 5xx codes the canonical `code()` never emits still classify
        // as server errors...
        for fivexx in [502u16, 503, 504, 521, 599] {
            assert_eq!(HttpStatus::from_code(fivexx), HttpStatus::ServerError);
        }
        // ...while other unknown codes (including other 2xx/3xx/4xx and
        // codes outside HTTP's range) collapse to Unreachable.
        for other in [
            0u16,
            1,
            100,
            201,
            204,
            301,
            302,
            400,
            403,
            418,
            499,
            600,
            999,
            u16::MAX,
        ] {
            assert_eq!(HttpStatus::from_code(other), HttpStatus::Unreachable);
        }
        // Round-trip: from_code(code()) is the identity on all four
        // classes (code() → from_code composition is pinned above).
        for s in [
            HttpStatus::Ok,
            HttpStatus::NotFound,
            HttpStatus::ServerError,
            HttpStatus::Unreachable,
        ] {
            assert_eq!(HttpStatus::from_code(s.code()), s);
        }
    }

    #[test]
    fn ok_html_predicate() {
        let mut m = PageMeta {
            host: 0,
            kind: PageKind::Html,
            status: HttpStatus::Ok,
            true_charset: Charset::Tis620,
            labeled_charset: Some(Charset::Tis620),
            size: 1000,
            lang: Some(Language::Thai),
            island_depth: 0,
        };
        assert!(m.is_ok_html());
        m.status = HttpStatus::NotFound;
        assert!(!m.is_ok_html());
        m.status = HttpStatus::Ok;
        m.kind = PageKind::Other;
        assert!(!m.is_ok_html());
    }

    #[test]
    fn true_language_follows_charset() {
        let m = PageMeta {
            host: 0,
            kind: PageKind::Html,
            status: HttpStatus::Ok,
            true_charset: Charset::EucJp,
            labeled_charset: None,
            size: 1,
            lang: Some(Language::Japanese),
            island_depth: 0,
        };
        assert_eq!(m.true_language(), Some(Language::Japanese));
        let f = PageMeta {
            kind: PageKind::Failed,
            ..m
        };
        assert_eq!(f.true_language(), None);
    }

    #[test]
    fn page_meta_is_compact() {
        // Guard against accidental bloat of the page table.
        assert!(size_of::<PageMeta>() <= 24);
    }
}
