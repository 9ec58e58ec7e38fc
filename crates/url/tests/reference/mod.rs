//! The owned-`String` URL implementation (parse, RFC 3986 resolution,
//! canonicalization) exactly as it stood before the borrowing
//! canonicalizer replaced it, kept verbatim as a test oracle for the
//! equivalence properties in this crate and in `langcrawl-html` and
//! `langcrawl-webgraph`. Do not edit it to follow the library.
#![allow(dead_code)]

use langcrawl_url::{ParseError, Scheme, Url};

pub(crate) fn parse(input: &str) -> Result<Url, ParseError> {
    let s = input.trim_matches(|c: char| c.is_ascii_whitespace());
    if s.is_empty() {
        return Err(ParseError::Empty);
    }
    if s.bytes().any(|b| b.is_ascii_control()) {
        return Err(ParseError::ControlChar);
    }
    let (scheme, rest) = split_scheme(s)?;
    let rest = rest.strip_prefix("//").ok_or(ParseError::NotAbsolute)?;
    let auth_end = rest.find(['/', '?', '#']).unwrap_or(rest.len());
    let (authority, tail) = rest.split_at(auth_end);
    let (host, port) = split_host_port(authority)?;
    let (path, query) = split_path_query(tail);
    Ok(Url {
        scheme,
        host,
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

fn split_host_port(authority: &str) -> Result<(String, Option<u16>), ParseError> {
    let hostport = match authority.rfind('@') {
        Some(i) => &authority[i + 1..],
        None => authority,
    };
    let (host_str, port) = match hostport.rfind(':') {
        Some(i) => {
            let (h, p) = hostport.split_at(i);
            let p = &p[1..];
            if p.is_empty() {
                (h, None)
            } else {
                (
                    h,
                    Some(p.parse::<u16>().map_err(|_| ParseError::InvalidPort)?),
                )
            }
        }
        None => (hostport, None),
    };
    if host_str.is_empty() {
        return Err(ParseError::EmptyHost);
    }
    let mut host = String::with_capacity(host_str.len());
    for c in host_str.chars() {
        if c.is_ascii_alphanumeric() || matches!(c, '-' | '.' | '_') {
            host.push(c.to_ascii_lowercase());
        } else {
            return Err(ParseError::InvalidHostChar(c));
        }
    }
    Ok((host, port))
}

fn split_path_query(tail: &str) -> (String, Option<String>) {
    let tail = match tail.find('#') {
        Some(i) => &tail[..i],
        None => tail,
    };
    let (path, query) = match tail.find('?') {
        Some(i) => (&tail[..i], Some(tail[i + 1..].to_string())),
        None => (tail, None),
    };
    let path = if path.is_empty() {
        "/".to_string()
    } else {
        path.to_string()
    };
    (path, query)
}

pub(crate) fn resolve(base: &Url, reference: &str) -> Result<Url, ParseError> {
    let r = reference.trim_matches(|c: char| c.is_ascii_whitespace());
    if r.bytes().any(|b| b.is_ascii_control()) {
        return Err(ParseError::ControlChar);
    }
    if r.is_empty() || r.starts_with('#') {
        let mut u = base.clone();
        u.path = remove_dot_segments(&u.path);
        return Ok(u);
    }
    if let Some(colon) = r.find(':') {
        let (maybe_scheme, _) = r.split_at(colon);
        if !maybe_scheme.is_empty()
            && maybe_scheme
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '+' | '-' | '.'))
            && maybe_scheme
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic())
        {
            return parse(r);
        }
    }
    if let Some(rest) = r.strip_prefix("//") {
        return parse(&format!("{}://{}", base.scheme, rest));
    }
    let (refpath, query) = split_ref(r);
    let merged = if refpath.is_empty() {
        base.path.clone()
    } else if refpath.starts_with('/') {
        refpath.to_string()
    } else {
        merge_paths(&base.path, refpath)
    };
    Ok(Url {
        scheme: base.scheme,
        host: base.host.clone(),
        port: base.port,
        path: remove_dot_segments(&merged),
        query,
    })
}

fn split_ref(r: &str) -> (&str, Option<String>) {
    let r = match r.find('#') {
        Some(i) => &r[..i],
        None => r,
    };
    match r.find('?') {
        Some(i) => (&r[..i], Some(r[i + 1..].to_string())),
        None => (r, None),
    }
}

fn merge_paths(base_path: &str, refpath: &str) -> String {
    match base_path.rfind('/') {
        Some(i) => format!("{}{}", &base_path[..=i], refpath),
        None => format!("/{refpath}"),
    }
}

pub(crate) fn remove_dot_segments(path: &str) -> String {
    let mut out: Vec<&str> = Vec::new();
    let trailing_slash = path.ends_with('/') || path.ends_with("/.") || path.ends_with("/..");
    for seg in path.split('/') {
        match seg {
            "" | "." => {}
            ".." => {
                out.pop();
            }
            s => out.push(s),
        }
    }
    let mut result = String::with_capacity(path.len());
    for seg in &out {
        result.push('/');
        result.push_str(seg);
    }
    if result.is_empty() || trailing_slash {
        result.push('/');
    }
    result
}

const INDEX_NAMES: [&str; 2] = ["index.html", "index.htm"];

pub(crate) fn normalize(url: &Url) -> String {
    let mut out = String::new();
    out.push_str(url.scheme.as_str());
    out.push_str("://");
    out.push_str(&url.host);
    if !url.has_default_port() {
        out.push(':');
        out.push_str(&url.port.expect("non-default implies explicit").to_string());
    }
    let mut path = remove_dot_segments(&url.path);
    path = decode_unreserved(&path);
    for idx in INDEX_NAMES {
        if let Some(stripped) = path.strip_suffix(idx) {
            if stripped.ends_with('/') {
                path = stripped.to_string();
                break;
            }
        }
    }
    out.push_str(&path);
    if let Some(q) = &url.query {
        if !q.is_empty() {
            out.push('?');
            out.push_str(&decode_unreserved(q));
        }
    }
    out
}

fn decode_unreserved(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = String::with_capacity(s.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            if let (Some(h), Some(l)) = (
                bytes.get(i + 1).copied().and_then(hexval),
                bytes.get(i + 2).copied().and_then(hexval),
            ) {
                let v = (h << 4) | l;
                if v.is_ascii_alphanumeric() || matches!(v, b'-' | b'.' | b'_' | b'~') {
                    out.push(v as char);
                } else {
                    out.push('%');
                    out.push(char::from_digit(h as u32, 16).unwrap().to_ascii_uppercase());
                    out.push(char::from_digit(l as u32, 16).unwrap().to_ascii_uppercase());
                }
                i += 3;
                continue;
            }
        }
        let ch_len = match bytes[i] {
            0x00..=0x7F => 1,
            0xC0..=0xDF => 2,
            0xE0..=0xEF => 3,
            0xF0..=0xF7 => 4,
            _ => 1,
        };
        let end = (i + ch_len).min(bytes.len());
        out.push_str(&s[i..end]);
        i = end;
    }
    out
}

fn hexval(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}
