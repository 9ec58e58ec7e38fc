//! URL canonicalization for deduplication.
//!
//! A crawler's visited-set only works if every spelling of the same
//! resource maps to one key. The canonical form applied here combines RFC
//! 3986 §6.2.2 syntax-based normalization with the scheme-based rules every
//! production crawler uses:
//!
//! 1. lowercase scheme and host (done at parse time);
//! 2. remove the port when it equals the scheme default;
//! 3. remove dot-segments from the path;
//! 4. decode percent-escapes of unreserved characters (`%7E` → `~`), and
//!    uppercase the hex digits of escapes that must remain;
//! 5. drop a trailing `index.html` / `index.htm` path segment (directory
//!    and index URL serve the same bytes on the vast majority of servers —
//!    the heuristic the paper-era crawlers applied to their logs);
//! 6. drop an empty query (`http://h/p?` → `http://h/p`).

use crate::parse::{has_control, is_lowercase_host, parse_parts, Parts, Url};
use crate::resolve::{is_dot_free, remove_dots};

/// Names treated as directory-index files and stripped from path ends.
const INDEX_NAMES: [&str; 2] = ["index.html", "index.htm"];

/// Return the canonical string form of a URL. Two URLs identify the same
/// resource under our model iff their `normalize` outputs are equal.
///
/// ```
/// use langcrawl_url::{Url, normalize};
/// let u = Url::parse("HTTP://Ex.TH:80/a/../b/index.html?").unwrap();
/// assert_eq!(normalize(&u), "http://ex.th/b/");
/// ```
pub fn normalize(url: &Url) -> String {
    let mut out = String::with_capacity(url.host.len() + url.path.len() + 16);
    write_canonical(&Parts::of(url), &mut String::new(), &mut out);
    out
}

/// Parse then normalize in one step. Returns `None` on parse failure.
pub fn normalize_str(input: &str) -> Option<String> {
    let parts = parse_parts(input).ok()?;
    let mut out = String::with_capacity(input.len());
    write_canonical(&parts, &mut String::new(), &mut out);
    Some(out)
}

/// Write the canonical form of `parts` into `out` (cleared first).
/// `tmp` is scratch for dot-segment removal when the path needs it.
pub(crate) fn write_canonical(parts: &Parts<'_>, tmp: &mut String, out: &mut String) {
    out.clear();
    out.push_str(parts.scheme.as_str());
    out.push_str("://");
    parts.push_host(out);
    if let Some(port) = parts.port.filter(|_| !parts.has_default_port()) {
        out.push(':');
        push_decimal(out, port);
    }
    let path = if is_dot_free(parts.path) {
        parts.path
    } else {
        remove_dots(parts.path, tmp);
        tmp.as_str()
    };
    let path_start = out.len();
    decode_unreserved(path, out);
    if let Some(len) = index_suffix_len(&out[path_start..]) {
        out.truncate(out.len() - len);
    }
    if let Some(q) = parts.query.filter(|q| !q.is_empty()) {
        out.push('?');
        decode_unreserved(q, out);
    }
}

/// Length of a trailing directory-index segment name (`…/index.html`)
/// that canonicalization strips, if `path` ends in one.
fn index_suffix_len(path: &str) -> Option<usize> {
    INDEX_NAMES
        .iter()
        .find(|idx| path.strip_suffix(*idx).is_some_and(|p| p.ends_with('/')))
        .map(|idx| idx.len())
}

/// Whether `text` is an absolute URL that canonicalizing (as a reference
/// against any base) returns unchanged, so it can be used as is. The
/// checks are the rules the parser and [`write_canonical`] apply: a
/// lowercase `http`/`https` scheme; a host the parser accepts, already
/// lowercase (this also rules out userinfo and a port); a path with no
/// controls, no escapes for [`decode_unreserved`] to rewrite, no query or
/// fragment, no trailing space for the parser to trim, no dot segments,
/// and no directory-index name. Conservative: anything else takes the
/// full path. Every anchor the page synthesizer writes
/// (`http://host/path`) passes.
pub(crate) fn is_canonical(text: &str) -> bool {
    let Some(rest) = text
        .strip_prefix("http://")
        .or_else(|| text.strip_prefix("https://"))
    else {
        return false;
    };
    let Some(slash) = rest.find('/') else {
        return false;
    };
    let (host, path) = rest.split_at(slash);
    is_lowercase_host(host)
        && !has_control(path)
        && !path.contains(['%', '?', '#'])
        && !path.ends_with(' ')
        && is_dot_free(path)
        && index_suffix_len(path).is_none()
}

fn push_decimal(out: &mut String, n: u16) {
    let mut digits = [0u8; 5];
    let mut i = digits.len();
    let mut n = n;
    loop {
        i -= 1;
        digits[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    for &d in &digits[i..] {
        out.push(char::from(d));
    }
}

/// Append `s` with `%XX` escapes of unreserved characters decoded, the
/// hex of all other escapes uppercased, and malformed escapes (a `%` not
/// followed by two hex digits, including a trailing `%` or `%7`) left
/// untouched — they are data.
fn decode_unreserved(s: &str, out: &mut String) {
    let bytes = s.as_bytes();
    if !bytes.iter().fold(false, |acc, &b| acc | (b == b'%')) {
        out.push_str(s);
        return;
    }
    let mut i = 0;
    while let Some(off) = bytes[i..].iter().position(|&b| b == b'%') {
        // Everything up to the '%' is copied verbatim (UTF-8 passes
        // through untouched; '%' is ASCII, so the cut is a char boundary).
        out.push_str(&s[i..i + off]);
        i += off;
        let escape = match (bytes.get(i + 1), bytes.get(i + 2)) {
            (Some(&h), Some(&l)) => hexval(h).zip(hexval(l)),
            _ => None,
        };
        match escape {
            Some((h, l)) => {
                let v = (h << 4) | l;
                if is_unreserved(v) {
                    out.push(char::from(v));
                } else {
                    out.push('%');
                    out.push(to_hex_upper(h));
                    out.push(to_hex_upper(l));
                }
                i += 3;
            }
            None => {
                out.push('%');
                i += 1;
            }
        }
    }
    out.push_str(&s[i..]);
}

fn hexval(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

fn to_hex_upper(v: u8) -> char {
    char::from(b"0123456789ABCDEF"[(v & 0xF) as usize])
}

fn is_unreserved(b: u8) -> bool {
    b.is_ascii_alphanumeric() || matches!(b, b'-' | b'.' | b'_' | b'~')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::Url;

    fn norm(s: &str) -> String {
        normalize(&Url::parse(s).unwrap())
    }

    #[test]
    fn default_port_removed() {
        assert_eq!(norm("http://h:80/p"), "http://h/p");
        assert_eq!(norm("https://h:443/p"), "https://h/p");
        assert_eq!(norm("http://h:8080/p"), "http://h:8080/p");
    }

    #[test]
    fn dot_segments_removed() {
        assert_eq!(norm("http://h/a/./b/../c"), "http://h/a/c");
    }

    #[test]
    fn unreserved_escapes_decoded() {
        assert_eq!(norm("http://h/%7Euser/%41"), "http://h/~user/A");
    }

    #[test]
    fn reserved_escapes_kept_uppercased() {
        assert_eq!(norm("http://h/a%2fb"), "http://h/a%2Fb");
        assert_eq!(norm("http://h/p?x=%3d"), "http://h/p?x=%3D");
    }

    #[test]
    fn malformed_escape_untouched() {
        assert_eq!(norm("http://h/a%zzb%4"), "http://h/a%zzb%4");
    }

    #[test]
    fn trailing_partial_escapes_untouched() {
        assert_eq!(norm("http://h/a%"), "http://h/a%");
        assert_eq!(norm("http://h/a%7"), "http://h/a%7");
        assert_eq!(norm("http://h/a%7E"), "http://h/a~");
        assert_eq!(norm("http://h/p?q=%"), "http://h/p?q=%");
        assert_eq!(norm("http://h/p?q=%7"), "http://h/p?q=%7");
        let mut out = String::new();
        for (input, want) in [("%", "%"), ("%7", "%7"), ("x%7e", "x~"), ("%%41", "%A")] {
            out.clear();
            decode_unreserved(input, &mut out);
            assert_eq!(out, want, "{input}");
        }
    }

    #[test]
    fn index_html_stripped() {
        assert_eq!(norm("http://h/dir/index.html"), "http://h/dir/");
        assert_eq!(norm("http://h/index.htm"), "http://h/");
        // Not stripped when it is not a whole segment.
        assert_eq!(norm("http://h/xindex.html"), "http://h/xindex.html");
    }

    #[test]
    fn empty_query_dropped() {
        assert_eq!(norm("http://h/p?"), "http://h/p");
        assert_eq!(norm("http://h/p?a=1"), "http://h/p?a=1");
    }

    #[test]
    fn equivalent_spellings_collapse() {
        let variants = [
            "HTTP://Example.TH:80/a/./b/%7Euser/index.html",
            "http://example.th/a/b/~user/",
            "http://EXAMPLE.th/a/x/../b/%7euser/index.html?",
        ];
        let first = norm(variants[0]);
        for v in &variants[1..] {
            assert_eq!(norm(v), first, "{v}");
        }
    }

    #[test]
    fn normalize_idempotent() {
        for s in [
            "http://h:80/a/../b/index.html?",
            "https://x.jp/%7E%2F?q=%3D",
            "http://h/",
        ] {
            let once = norm(s);
            assert_eq!(normalize(&Url::parse(&once).unwrap()), once, "{s}");
        }
    }

    #[test]
    fn normalize_str_wrapper() {
        assert_eq!(normalize_str("http://H/p").as_deref(), Some("http://h/p"));
        assert_eq!(normalize_str("bogus"), None);
    }
}
