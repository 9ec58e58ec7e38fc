//! Absolute URL parsing.
//!
//! The grammar implemented here is the web-crawler subset of RFC 3986:
//!
//! ```text
//! url       = scheme "://" host [":" port] [path] ["?" query] ["#" fragment]
//! scheme    = "http" | "https"        (case-insensitive)
//! host      = reg-name                (letters, digits, '-', '.', '_')
//! path      = *( "/" segment )
//! ```
//!
//! Fragments are parsed but never stored: two URLs differing only in
//! fragment identify the same resource, so a crawler must treat them as
//! equal or it re-downloads pages and double-counts coverage.

use crate::error::ParseError;
use std::fmt;

/// URL scheme. Only the two schemes a web crawler fetches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Scheme {
    /// `http://`
    Http,
    /// `https://`
    Https,
}

impl Scheme {
    /// The default port for this scheme (80 / 443).
    pub fn default_port(self) -> u16 {
        match self {
            Scheme::Http => 80,
            Scheme::Https => 443,
        }
    }

    /// The scheme as it appears in a URL, lowercase, without `://`.
    pub fn as_str(self) -> &'static str {
        match self {
            Scheme::Http => "http",
            Scheme::Https => "https",
        }
    }
}

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A parsed absolute URL.
///
/// Components are stored as owned strings in their *as-parsed* form except
/// for the scheme and host, which are lowercased eagerly (their case never
/// carries meaning). Use [`crate::normalize`] to obtain the canonical form
/// used for deduplication.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Url {
    /// URL scheme.
    pub scheme: Scheme,
    /// Lowercased host (registered name).
    pub host: String,
    /// Explicit port if one was written, even if it equals the default.
    pub port: Option<u16>,
    /// Path beginning with `/`; `/` if the URL had no path.
    pub path: String,
    /// Query string without the leading `?`, if present.
    pub query: Option<String>,
}

impl Url {
    /// Parse an absolute URL.
    ///
    /// Leading/trailing ASCII whitespace is trimmed (hrefs in real HTML are
    /// frequently padded). Fragments are dropped. Errors are described by
    /// [`ParseError`].
    ///
    /// ```
    /// use langcrawl_url::Url;
    /// let u = Url::parse("https://WWW.Example.JP:8080/p?q=1#frag").unwrap();
    /// assert_eq!(u.host, "www.example.jp");
    /// assert_eq!(u.port, Some(8080));
    /// assert_eq!(u.path, "/p");
    /// assert_eq!(u.query.as_deref(), Some("q=1"));
    /// ```
    pub fn parse(input: &str) -> Result<Self, ParseError> {
        parse_parts(input).map(|p| p.to_url())
    }

    /// The port that will actually be connected to: the explicit port if
    /// present, otherwise the scheme default.
    pub fn effective_port(&self) -> u16 {
        self.port.unwrap_or_else(|| self.scheme.default_port())
    }

    /// True if the explicit port is redundant (equals the scheme default).
    pub fn has_default_port(&self) -> bool {
        self.port.is_none() || self.port == Some(self.scheme.default_port())
    }

    /// Host and effective port as a `host:port` pair — the unit of
    /// politeness in a real crawler (one connection queue per server).
    pub fn server_key(&self) -> (String, u16) {
        (self.host.clone(), self.effective_port())
    }
}

impl fmt::Display for Url {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}://{}", self.scheme, self.host)?;
        if let Some(p) = self.port {
            write!(f, ":{p}")?;
        }
        f.write_str(&self.path)?;
        if let Some(q) = &self.query {
            write!(f, "?{q}")?;
        }
        Ok(())
    }
}

/// A URL's components borrowed from the text (or the base [`Url`]) they
/// came from — what parsing and resolution produce before anything is
/// copied. [`Parts::to_url`] owns them; the canonical writer in
/// [`crate::normalize`] renders them without an intermediate [`Url`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Parts<'a> {
    pub(crate) scheme: Scheme,
    /// Host as written.
    pub(crate) host: &'a str,
    /// Whether `host` was parsed from text (validated ASCII, still to be
    /// lowercased) rather than taken verbatim from a base [`Url`].
    pub(crate) lower_host: bool,
    pub(crate) port: Option<u16>,
    pub(crate) path: &'a str,
    pub(crate) query: Option<&'a str>,
}

impl<'a> Parts<'a> {
    /// The components of an existing URL, verbatim.
    pub(crate) fn of(url: &'a Url) -> Self {
        Parts {
            scheme: url.scheme,
            host: &url.host,
            lower_host: false,
            port: url.port,
            path: &url.path,
            query: url.query.as_deref(),
        }
    }

    /// True if the explicit port is redundant (see [`Url::has_default_port`]).
    pub(crate) fn has_default_port(&self) -> bool {
        self.port.is_none() || self.port == Some(self.scheme.default_port())
    }

    /// Append the host, lowercased if it came from text.
    pub(crate) fn push_host(&self, out: &mut String) {
        let start = out.len();
        out.push_str(self.host);
        if self.lower_host {
            out[start..].make_ascii_lowercase();
        }
    }

    pub(crate) fn to_url(self) -> Url {
        let mut host = String::with_capacity(self.host.len());
        self.push_host(&mut host);
        Url {
            scheme: self.scheme,
            host,
            port: self.port,
            path: self.path.to_string(),
            query: self.query.map(str::to_string),
        }
    }

    /// Overwrite `url` with these components, reusing its buffers.
    /// `spare` parks the query buffer while `url` has no query, so a
    /// query appearing again later does not allocate either.
    pub(crate) fn store(&self, url: &mut Url, spare: &mut Option<String>) {
        url.scheme = self.scheme;
        url.host.clear();
        self.push_host(&mut url.host);
        url.port = self.port;
        url.path.clear();
        url.path.push_str(self.path);
        match self.query {
            Some(q) => {
                let mut buf = url
                    .query
                    .take()
                    .or_else(|| spare.take())
                    .unwrap_or_default();
                buf.clear();
                buf.push_str(q);
                url.query = Some(buf);
            }
            None => {
                if let Some(buf) = url.query.take() {
                    *spare = Some(buf);
                }
            }
        }
    }
}

/// [`Url::parse`] over borrowed text: the grammar, without copying.
pub(crate) fn parse_parts(input: &str) -> Result<Parts<'_>, ParseError> {
    let s: &str = input.trim_matches(|c: char| c.is_ascii_whitespace());
    if s.is_empty() {
        return Err(ParseError::Empty);
    }
    if has_control(s) {
        return Err(ParseError::ControlChar);
    }
    parse_clean(s)
}

/// Whether `s` contains an ASCII control character. A branch-free fold
/// rather than a short-circuiting search, so it compiles to a vector
/// loop: the common answer is "no", which a search has to read to the end
/// anyway.
pub(crate) fn has_control(s: &str) -> bool {
    s.as_bytes()
        .iter()
        .fold(false, |acc, &b| acc | (b < 0x20) | (b == 0x7F))
}

/// [`parse_parts`] on text already trimmed and free of control
/// characters.
pub(crate) fn parse_clean(s: &str) -> Result<Parts<'_>, ParseError> {
    let (scheme, rest) = split_scheme(s)?;
    let rest = rest.strip_prefix("//").ok_or(ParseError::NotAbsolute)?;
    parse_authority(scheme, rest)
}

/// Everything after `scheme://`: authority, path, query; the fragment is
/// dropped.
pub(crate) fn parse_authority(scheme: Scheme, rest: &str) -> Result<Parts<'_>, ParseError> {
    // One pass over the authority: it ends at the first '/', '?' or '#';
    // userinfo ends at its last '@'; a port follows the last ':' after
    // that.
    let mut end = rest.len();
    let (mut at, mut colon) = (None, None);
    for (i, b) in rest.bytes().enumerate() {
        match b {
            b'/' | b'?' | b'#' => {
                end = i;
                break;
            }
            b'@' => at = Some(i),
            b':' => colon = Some(i),
            _ => {}
        }
    }
    let (authority, tail) = rest.split_at(end);
    // Strip userinfo if present; crawlers never send credentials embedded
    // in links, but such links do occur in the wild.
    let host_start = at.map_or(0, |i| i + 1);
    let (host, port) = match colon.filter(|&c| c >= host_start) {
        Some(c) => {
            let p: &str = &authority[c + 1..];
            let port = if p.is_empty() {
                // "http://host:/path" — tolerated, treated as no port.
                None
            } else {
                Some(p.parse::<u16>().map_err(|_| ParseError::InvalidPort)?)
            };
            (&authority[host_start..c], port)
        }
        None => (&authority[host_start..], None),
    };
    check_host(host)?;
    let (path, query) = split_path_query(tail);
    Ok(Parts {
        scheme,
        host,
        lower_host: true,
        port,
        path,
        query,
    })
}

fn split_scheme(s: &str) -> Result<(Scheme, &str), ParseError> {
    let colon = s.find(':').ok_or(ParseError::UnsupportedScheme)?;
    let (scheme_str, rest) = s.split_at(colon);
    let scheme = if scheme_str.eq_ignore_ascii_case("http") {
        Scheme::Http
    } else if scheme_str.eq_ignore_ascii_case("https") {
        Scheme::Https
    } else {
        return Err(ParseError::UnsupportedScheme);
    };
    Ok((scheme, &rest[1..]))
}

/// A registered name: non-empty, ASCII alphanumerics, `-`, `.`, `_`.
fn check_host(host: &str) -> Result<(), ParseError> {
    if host.is_empty() {
        return Err(ParseError::EmptyHost);
    }
    // Fast path: a branch-free table check over the bytes. Only a host
    // that fails it is walked by char to name the offending character.
    if host
        .bytes()
        .fold(true, |acc, b| acc & HOST_BYTE[b as usize])
    {
        return Ok(());
    }
    match host
        .chars()
        .find(|&c| !(c.is_ascii_alphanumeric() || matches!(c, '-' | '.' | '_')))
    {
        Some(c) => Err(ParseError::InvalidHostChar(c)),
        None => Ok(()),
    }
}

/// Whether `host` passes [`check_host`] and is already lowercase — what
/// parsing leaves of it unchanged.
pub(crate) fn is_lowercase_host(host: &str) -> bool {
    !host.is_empty()
        && host.bytes().fold(true, |acc, b| {
            acc & HOST_BYTE[b as usize] & !b.is_ascii_uppercase()
        })
}

/// Bytes allowed in a host name: ASCII alphanumerics, `-`, `.`, `_`.
static HOST_BYTE: [bool; 256] = {
    let mut table = [false; 256];
    let mut i = 0;
    while i < 256 {
        let b = i as u8;
        table[i] = b.is_ascii_alphanumeric() || matches!(b, b'-' | b'.' | b'_');
        i += 1;
    }
    table
};

fn split_path_query(tail: &str) -> (&str, Option<&str>) {
    let (path, query) = split_query_fragment(tail);
    (if path.is_empty() { "/" } else { path }, query)
}

/// Split `text` into what precedes the first `?` and the query after it,
/// dropping any `#fragment` (a `?` after the `#` is fragment text).
pub(crate) fn split_query_fragment(text: &str) -> (&str, Option<&str>) {
    match text.find(['?', '#']) {
        Some(i) if text.as_bytes()[i] == b'?' => {
            let rest = &text[i + 1..];
            let query = rest.find('#').map_or(rest, |j| &rest[..j]);
            (&text[..i], Some(query))
        }
        Some(i) => (&text[..i], None),
        None => (text, None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal() {
        let u = Url::parse("http://a.th").unwrap();
        assert_eq!(u.scheme, Scheme::Http);
        assert_eq!(u.host, "a.th");
        assert_eq!(u.port, None);
        assert_eq!(u.path, "/");
        assert_eq!(u.query, None);
    }

    #[test]
    fn parses_full() {
        let u = Url::parse("https://user@Host.Example.JP:444/a/b?x=1&y=2#top").unwrap();
        assert_eq!(u.scheme, Scheme::Https);
        assert_eq!(u.host, "host.example.jp");
        assert_eq!(u.port, Some(444));
        assert_eq!(u.path, "/a/b");
        assert_eq!(u.query.as_deref(), Some("x=1&y=2"));
    }

    #[test]
    fn fragment_is_dropped() {
        let a = Url::parse("http://h/p#one").unwrap();
        let b = Url::parse("http://h/p#two").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn scheme_case_insensitive() {
        assert_eq!(Url::parse("HtTpS://h/").unwrap().scheme, Scheme::Https);
    }

    #[test]
    fn rejects_non_web_schemes() {
        for bad in [
            "mailto:x@y",
            "ftp://h/",
            "javascript:void(0)",
            "file:///etc",
        ] {
            assert_eq!(
                Url::parse(bad).unwrap_err(),
                ParseError::UnsupportedScheme,
                "{bad}"
            );
        }
    }

    #[test]
    fn rejects_relative() {
        assert_eq!(
            Url::parse("http:relative").unwrap_err(),
            ParseError::NotAbsolute
        );
    }

    #[test]
    fn rejects_empty_and_controls() {
        assert_eq!(Url::parse("   ").unwrap_err(), ParseError::Empty);
        assert_eq!(
            Url::parse("http://h/\npath").unwrap_err(),
            ParseError::ControlChar
        );
    }

    #[test]
    fn rejects_bad_port_and_host() {
        assert_eq!(
            Url::parse("http://h:70000/").unwrap_err(),
            ParseError::InvalidPort
        );
        assert_eq!(
            Url::parse("http://h:abc/").unwrap_err(),
            ParseError::InvalidPort
        );
        assert_eq!(Url::parse("http:///p").unwrap_err(), ParseError::EmptyHost);
        assert!(matches!(
            Url::parse("http://ho st/").unwrap_err(),
            ParseError::InvalidHostChar(' ')
        ));
    }

    #[test]
    fn empty_trailing_port_tolerated() {
        let u = Url::parse("http://h:/p").unwrap();
        assert_eq!(u.port, None);
        assert_eq!(u.path, "/p");
    }

    #[test]
    fn query_without_path() {
        let u = Url::parse("http://h?q=1").unwrap();
        assert_eq!(u.path, "/");
        assert_eq!(u.query.as_deref(), Some("q=1"));
    }

    #[test]
    fn display_round_trip() {
        for s in [
            "http://a.th/",
            "https://b.jp:8443/x/y?z=1",
            "http://c.com/path",
        ] {
            let u = Url::parse(s).unwrap();
            assert_eq!(Url::parse(&u.to_string()).unwrap(), u, "{s}");
        }
    }

    #[test]
    fn effective_port_and_server_key() {
        let u = Url::parse("https://h.jp/x").unwrap();
        assert_eq!(u.effective_port(), 443);
        assert!(u.has_default_port());
        let v = Url::parse("https://h.jp:443/x").unwrap();
        assert!(v.has_default_port());
        assert_eq!(v.server_key(), ("h.jp".to_string(), 443));
    }

    #[test]
    fn whitespace_trimmed() {
        let u = Url::parse("  http://h/p \t").unwrap();
        assert_eq!(u.to_string(), "http://h/p");
    }
}
