//! The link canonicalizer: `normalize(resolve(base, reference))` written
//! straight into a reused buffer.
//!
//! A crawler resolves every extracted link against its page URL and
//! canonicalizes the result before looking it up. Done through the
//! owned-[`Url`] API, that costs a handful of `String`s per link. The
//! [`Canonicalizer`] runs the same grammar over borrowed text: resolution
//! yields components that borrow the base and the reference, and the
//! canonical writer renders them into one buffer the canonicalizer owns.
//! Once its buffers have grown to the longest URL seen, canonicalizing a
//! link allocates nothing. [`crate::resolve`], [`crate::normalize`] and
//! [`Url::parse`] are wrappers over the same functions, so there is one
//! implementation of each rule.

use crate::error::ParseError;
use crate::normalize::{is_canonical, write_canonical};
use crate::parse::{parse_parts, Scheme, Url};
use crate::resolve::resolve_parts;

/// Reusable scratch for canonicalizing links and tracking `<base href>`.
///
/// ```
/// use langcrawl_url::{normalize, resolve, Canonicalizer, Url};
///
/// let mut canon = Canonicalizer::new();
/// let mut base = Url::parse("http://www.ex.ac.th/dir/page.html").unwrap();
/// assert_eq!(
///     canon.canonicalize(&base, "../a/%7Eb/index.html").unwrap(),
///     normalize(&resolve(&base, "../a/%7Eb/index.html").unwrap()),
/// );
/// // `<base href>` semantics: the base itself is resolved, not normalized.
/// canon.rebase(&mut base, "//cdn.ex.jp/root/").unwrap();
/// assert_eq!(canon.canonicalize(&base, "x.html").unwrap(), "http://cdn.ex.jp/root/x.html");
/// ```
#[derive(Debug, Default)]
pub struct Canonicalizer {
    /// RFC 3986 merge scratch; doubles as dot-removal scratch when writing.
    merged: String,
    /// Dot-segment-free path of the last relative resolution.
    path: String,
    /// The last canonical URL.
    out: String,
    /// Target of [`Canonicalizer::rebase`], swapped with the base.
    next_base: Option<Url>,
    /// A parked query buffer (see `Parts::store`).
    spare_query: Option<String>,
}

impl Canonicalizer {
    /// An empty canonicalizer; buffers grow on first use.
    pub fn new() -> Self {
        Canonicalizer::default()
    }

    /// `normalize(&resolve(base, reference)?)`, written into a buffer this
    /// canonicalizer owns and returned borrowed from it — or, when the
    /// reference is already an absolute URL in canonical form, returned
    /// as is. Every anchor of a synthesized page is such a URL.
    // lint:root(alloc-free) — one call per extracted link in content mode
    pub fn canonicalize<'s>(
        &'s mut self,
        base: &Url,
        reference: &'s str,
    ) -> Result<&'s str, ParseError> {
        if is_canonical(reference) {
            return Ok(reference);
        }
        let parts = resolve_parts(base, reference, &mut self.merged, &mut self.path)?;
        write_canonical(&parts, &mut self.merged, &mut self.out);
        Ok(&self.out)
    }

    /// `normalize(&Url::parse(input)?)`, without the intermediate [`Url`]
    /// (and without copying at all when `input` is already canonical).
    pub fn canonicalize_url<'s>(&'s mut self, input: &'s str) -> Result<&'s str, ParseError> {
        if is_canonical(input) {
            return Ok(input);
        }
        let parts = parse_parts(input)?;
        write_canonical(&parts, &mut self.merged, &mut self.out);
        Ok(&self.out)
    }

    /// `*base = resolve(base, reference)?` reusing `base`'s buffers — what
    /// a `<base href>` tag does to the links after it. On error `base` is
    /// left unchanged.
    pub fn rebase(&mut self, base: &mut Url, reference: &str) -> Result<(), ParseError> {
        let parts = resolve_parts(base, reference, &mut self.merged, &mut self.path)?;
        let next = self.next_base.get_or_insert_with(empty_url);
        parts.store(next, &mut self.spare_query);
        std::mem::swap(base, next);
        Ok(())
    }

    /// `*url = Url::parse(input)?` reusing `url`'s buffers. On error `url`
    /// is left unchanged.
    pub fn parse_into(&mut self, input: &str, url: &mut Url) -> Result<(), ParseError> {
        parse_parts(input)?.store(url, &mut self.spare_query);
        Ok(())
    }
}

/// A placeholder URL whose buffers are about to be overwritten.
pub(crate) fn empty_url() -> Url {
    Url {
        scheme: Scheme::Http,
        host: String::new(),
        port: None,
        path: String::new(),
        query: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{normalize, resolve};

    #[test]
    fn matches_the_owned_composition() {
        let base = Url::parse("http://a/b/c/d;p?q").unwrap();
        let mut canon = Canonicalizer::new();
        for r in [
            "g",
            "../../g",
            "?y",
            "#f",
            "",
            "//other.jp:80/x/./index.htm",
            "HTTPS://Z.th/%7e?",
            "mailto:x@y",
            "a\u{1}b",
        ] {
            let want = resolve(&base, r).map(|u| normalize(&u));
            assert_eq!(
                canon.canonicalize(&base, r).map(str::to_string),
                want,
                "{r:?}"
            );
        }
    }

    #[test]
    fn rebase_and_parse_into_match_owned_results() {
        let mut canon = Canonicalizer::new();
        let mut base = empty_url();
        canon
            .parse_into("http://H.th/a/../b/c?x=1", &mut base)
            .unwrap();
        assert_eq!(base, Url::parse("http://H.th/a/../b/c?x=1").unwrap());
        for r in ["d/e", "?", "https://x.jp", "/p#f", "../q?z"] {
            let want = resolve(&base, r).unwrap();
            canon.rebase(&mut base, r).unwrap();
            assert_eq!(base, want, "{r:?}");
        }
        let before = base.clone();
        assert!(canon.rebase(&mut base, "ftp://nope/").is_err());
        assert!(canon.parse_into("not a url", &mut base).is_err());
        assert_eq!(base, before);
    }
}
