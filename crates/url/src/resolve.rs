//! Relative-reference resolution (RFC 3986 §5).
//!
//! Link extraction produces mostly relative references (`../a`, `b.html`,
//! `/c`, `?q`, `//host/p`), so resolution quality directly controls which
//! URLs ever enter the crawler's queue. The algorithm below is the RFC 3986
//! §5.3 "transform references" pseudo-code, restricted to the `http(s)`
//! URLs that [`crate::Url`] represents.

use crate::error::ParseError;
use crate::parse::{has_control, parse_authority, parse_clean, split_query_fragment, Parts, Url};

/// Resolve a reference against a base URL.
///
/// Handles absolute URLs, protocol-relative (`//host/p`), absolute-path
/// (`/p`), relative-path (`p`, `../p`, `./p`), query-only (`?q`) and
/// fragment-only (`#f`) references.
///
/// ```
/// use langcrawl_url::{Url, resolve};
/// let base = Url::parse("http://h.jp/a/b/c.html?old=1").unwrap();
/// assert_eq!(resolve(&base, "d.html").unwrap().to_string(), "http://h.jp/a/b/d.html");
/// assert_eq!(resolve(&base, "../x").unwrap().to_string(), "http://h.jp/a/x");
/// assert_eq!(resolve(&base, "/root").unwrap().to_string(), "http://h.jp/root");
/// assert_eq!(resolve(&base, "?q=2").unwrap().to_string(), "http://h.jp/a/b/c.html?q=2");
/// assert_eq!(resolve(&base, "#sec").unwrap().to_string(), base.to_string());
/// ```
pub fn resolve(base: &Url, reference: &str) -> Result<Url, ParseError> {
    let (mut merged, mut path) = (String::new(), String::new());
    resolve_parts(base, reference, &mut merged, &mut path).map(Parts::to_url)
}

/// Convenience wrapper: parse the base then [`resolve`].
pub fn resolve_str(base: &str, reference: &str) -> Result<Url, ParseError> {
    resolve(&Url::parse(base)?, reference)
}

/// [`resolve`] without copying: the result borrows `base`, `reference`
/// and `path`, which receives the dot-segment-free merged path when the
/// reference is relative. `merged` is scratch for the RFC 3986 merge.
pub(crate) fn resolve_parts<'a>(
    base: &'a Url,
    reference: &'a str,
    merged: &mut String,
    path: &'a mut String,
) -> Result<Parts<'a>, ParseError> {
    let r: &str = reference.trim_matches(|c: char| c.is_ascii_whitespace());
    if has_control(r) {
        return Err(ParseError::ControlChar);
    }
    let on_base = |path: &'a str, query: Option<&'a str>| Parts {
        scheme: base.scheme,
        host: &base.host,
        lower_host: false,
        port: base.port,
        path,
        query,
    };
    if r.is_empty() || r.starts_with('#') {
        // Same document. Fragment is dropped by our model anyway; the path
        // still gets dot-segment removal so resolution output is uniform.
        remove_dots(&base.path, path);
        return Ok(on_base(path, base.query.as_deref()));
    }
    // Absolute URL?  (scheme ":" ...)
    if let Some(colon) = r.find(':') {
        let maybe_scheme = &r.as_bytes()[..colon];
        if maybe_scheme.first().is_some_and(u8::is_ascii_alphabetic)
            && maybe_scheme
                .iter()
                .all(|&c| c.is_ascii_alphanumeric() || matches!(c, b'+' | b'-' | b'.'))
        {
            // It names a scheme: either a web URL or something to reject.
            return parse_clean(r);
        }
    }
    // Protocol-relative reference: inherit the base scheme.
    if let Some(rest) = r.strip_prefix("//") {
        return parse_authority(base.scheme, rest);
    }
    // From here the reference is a path / query expression.
    let (refpath, query) = split_query_fragment(r);
    let src: &str = if refpath.is_empty() {
        // Query-only reference keeps the base path.
        &base.path
    } else if refpath.starts_with('/') {
        refpath
    } else {
        // RFC 3986 §5.3 "merge": replace the last segment of the base
        // path with the reference path.
        merged.clear();
        match base.path.rfind('/') {
            Some(i) => merged.push_str(&base.path[..=i]),
            None => merged.push('/'),
        }
        merged.push_str(refpath);
        merged
    };
    remove_dots(src, path);
    Ok(on_base(path, query))
}

/// RFC 3986 §5.2.4 remove_dot_segments, operating on a path that begins
/// with `/` (or is relative, in which case a leading `/` is assumed by the
/// caller). `.` and `..` segments are interpreted; `..` never escapes the
/// root.
///
/// ```
/// use langcrawl_url::remove_dot_segments;
/// assert_eq!(remove_dot_segments("/a/b/../c/./d"), "/a/c/d");
/// assert_eq!(remove_dot_segments("/../../x"), "/x");
/// assert_eq!(remove_dot_segments("/a/b/.."), "/a/");
/// ```
pub fn remove_dot_segments(path: &str) -> String {
    let mut out = String::with_capacity(path.len());
    remove_dots(path, &mut out);
    out
}

/// Whether [`remove_dot_segments`] would return `path` unchanged: it is
/// rooted and no `/` is followed by another `/` (an empty segment) or a
/// `.` (a possible dot segment). Conservative: `/.hidden` takes the slow
/// path and comes out the same.
pub(crate) fn is_dot_free(path: &str) -> bool {
    let b = path.as_bytes();
    let dotted = b.iter().zip(b.iter().skip(1)).fold(false, |acc, (&x, &y)| {
        acc | ((x == b'/') & ((y == b'/') | (y == b'.')))
    });
    b.first() == Some(&b'/') && !dotted
}

/// [`remove_dot_segments`] into a reused buffer. The output is built as
/// a stack of `/segment` runs: `..` truncates back to the previous `/`.
pub(crate) fn remove_dots(path: &str, out: &mut String) {
    out.clear();
    if is_dot_free(path) {
        out.push_str(path);
        return;
    }
    let trailing_slash = path.ends_with('/') || path.ends_with("/.") || path.ends_with("/..");
    for seg in path.split('/') {
        match seg {
            "" | "." => {}
            ".." => {
                if let Some(i) = out.rfind('/') {
                    out.truncate(i);
                }
            }
            s => {
                out.push('/');
                out.push_str(s);
            }
        }
    }
    if out.is_empty() || trailing_slash {
        out.push('/');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Url {
        Url::parse("http://a/b/c/d;p?q").unwrap()
    }

    /// RFC 3986 §5.4.1 normal examples (those expressible in our model).
    #[test]
    fn rfc3986_normal_examples() {
        let cases = [
            ("g", "http://a/b/c/g"),
            ("./g", "http://a/b/c/g"),
            ("g/", "http://a/b/c/g/"),
            ("/g", "http://a/g"),
            ("//g", "http://g/"),
            ("?y", "http://a/b/c/d;p?y"),
            ("g?y", "http://a/b/c/g?y"),
            (";x", "http://a/b/c/;x"),
            ("g;x", "http://a/b/c/g;x"),
            ("", "http://a/b/c/d;p?q"),
            (".", "http://a/b/c/"),
            ("./", "http://a/b/c/"),
            ("..", "http://a/b/"),
            ("../", "http://a/b/"),
            ("../g", "http://a/b/g"),
            ("../..", "http://a/"),
            ("../../", "http://a/"),
            ("../../g", "http://a/g"),
        ];
        for (r, expect) in cases {
            assert_eq!(
                resolve(&base(), r).unwrap().to_string(),
                expect,
                "ref {r:?}"
            );
        }
    }

    /// RFC 3986 §5.4.2 abnormal examples.
    #[test]
    fn rfc3986_abnormal_examples() {
        let cases = [
            ("../../../g", "http://a/g"),
            ("../../../../g", "http://a/g"),
            ("/./g", "http://a/g"),
            ("/../g", "http://a/g"),
            ("g.", "http://a/b/c/g."),
            (".g", "http://a/b/c/.g"),
            ("g..", "http://a/b/c/g.."),
            ("..g", "http://a/b/c/..g"),
            ("./../g", "http://a/b/g"),
            ("./g/.", "http://a/b/c/g/"),
            ("g/./h", "http://a/b/c/g/h"),
            ("g/../h", "http://a/b/c/h"),
        ];
        for (r, expect) in cases {
            assert_eq!(
                resolve(&base(), r).unwrap().to_string(),
                expect,
                "ref {r:?}"
            );
        }
    }

    #[test]
    fn absolute_reference_wins() {
        let u = resolve(&base(), "https://other.jp/x").unwrap();
        assert_eq!(u.to_string(), "https://other.jp/x");
    }

    #[test]
    fn non_web_absolute_reference_rejected() {
        assert!(resolve(&base(), "mailto:x@y.z").is_err());
        assert!(resolve(&base(), "javascript:alert(1)").is_err());
    }

    #[test]
    fn fragment_only_keeps_base() {
        assert_eq!(resolve(&base(), "#top").unwrap(), base());
    }

    #[test]
    fn protocol_relative_inherits_scheme() {
        let b = Url::parse("https://a.jp/p").unwrap();
        let u = resolve(&b, "//b.th/q").unwrap();
        assert_eq!(u.to_string(), "https://b.th/q");
    }

    #[test]
    fn colon_in_first_segment_is_not_a_scheme() {
        // "a:b" with a digit-leading prefix or slash before colon is a path.
        let u = resolve(&base(), "seg/x:y").unwrap();
        assert_eq!(u.to_string(), "http://a/b/c/seg/x:y");
    }

    #[test]
    fn dotdot_never_escapes_root() {
        assert_eq!(remove_dot_segments("/../../.."), "/");
    }

    #[test]
    fn resolving_absolute_against_base_is_identity() {
        let abs = "http://z.example.th/p/q?x=1";
        assert_eq!(resolve(&base(), abs).unwrap(), Url::parse(abs).unwrap());
    }

    #[test]
    fn resolve_str_wrapper() {
        assert_eq!(
            resolve_str("http://h/a/", "b").unwrap().to_string(),
            "http://h/a/b"
        );
        assert!(resolve_str("not a url", "b").is_err());
    }
}
