//! The HTML layer's link extraction (owned-`Vec` tokenizer, entity
//! decoding, `extract_raw_refs`, `extract_links`) exactly as it stood
//! before the borrowing span scanner replaced it, kept verbatim as a test
//! oracle. It resolves through the frozen URL reference, so the whole
//! old composition is under test, not just the scanner. Do not edit it to
//! follow the library.
#![allow(dead_code)]

use crate::url_reference::{normalize, resolve};
use langcrawl_url::Url;

#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Attr {
    pub(crate) name: Vec<u8>,
    pub(crate) value: Vec<u8>,
}

impl Attr {
    pub(crate) fn value_str(&self) -> String {
        String::from_utf8_lossy(&self.value).into_owned()
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Tag {
    pub(crate) name: Vec<u8>,
    pub(crate) closing: bool,
    pub(crate) attrs: Vec<Attr>,
}

impl Tag {
    pub(crate) fn attr(&self, name: &str) -> Option<&Attr> {
        self.attrs
            .iter()
            .find(|a| a.name.eq_ignore_ascii_case(name.as_bytes()))
    }

    pub(crate) fn is(&self, name: &str) -> bool {
        self.name.eq_ignore_ascii_case(name.as_bytes())
    }
}

#[derive(Debug)]
pub(crate) struct Tokenizer<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> Tokenizer<'a> {
    pub(crate) fn new(input: &'a [u8]) -> Self {
        Tokenizer { input, pos: 0 }
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn starts_with_ci(&self, s: &[u8]) -> bool {
        self.input[self.pos..]
            .get(..s.len())
            .is_some_and(|head| head.eq_ignore_ascii_case(s))
    }

    fn skip_comment(&mut self) {
        self.pos += 4; // "<!--"
        while self.pos < self.input.len() {
            if self.input[self.pos..].starts_with(b"-->") {
                self.pos += 3;
                return;
            }
            self.pos += 1;
        }
    }

    fn skip_bang(&mut self) {
        while let Some(b) = self.peek() {
            self.pos += 1;
            if b == b'>' {
                return;
            }
        }
    }

    fn skip_rawtext(&mut self, name: &[u8]) {
        while self.pos < self.input.len() {
            if self.input[self.pos] == b'<'
                && self.input.get(self.pos + 1) == Some(&b'/')
                && self.input[self.pos + 2..]
                    .get(..name.len())
                    .is_some_and(|head| head.eq_ignore_ascii_case(name))
            {
                return; // leave the </script> for the main loop
            }
            self.pos += 1;
        }
    }

    fn read_tag(&mut self) -> Option<Tag> {
        self.pos += 1;
        let closing = self.peek() == Some(b'/');
        if closing {
            self.pos += 1;
        }
        let name_start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_alphanumeric() || b == b'-' || b == b':' {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == name_start {
            return None;
        }
        let name: Vec<u8> = self.input[name_start..self.pos]
            .iter()
            .map(|b| b.to_ascii_lowercase())
            .collect();
        let mut attrs = Vec::new();
        loop {
            while matches!(self.peek(), Some(b) if b.is_ascii_whitespace() || b == b'/') {
                self.pos += 1;
            }
            match self.peek() {
                None => break,
                Some(b'>') => {
                    self.pos += 1;
                    break;
                }
                Some(b'<') => break, // unclosed tag; let the next tag begin
                _ => {
                    if let Some(attr) = self.read_attr() {
                        if !closing {
                            attrs.push(attr);
                        }
                    }
                }
            }
        }
        Some(Tag {
            name,
            closing,
            attrs,
        })
    }

    fn read_attr(&mut self) -> Option<Attr> {
        let name_start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_whitespace() || matches!(b, b'=' | b'>' | b'/' | b'<') {
                break;
            }
            self.pos += 1;
        }
        if self.pos == name_start {
            self.pos += 1;
            return None;
        }
        let name: Vec<u8> = self.input[name_start..self.pos]
            .iter()
            .map(|b| b.to_ascii_lowercase())
            .collect();
        while matches!(self.peek(), Some(b) if b.is_ascii_whitespace()) {
            self.pos += 1;
        }
        if self.peek() != Some(b'=') {
            return Some(Attr {
                name,
                value: Vec::new(),
            });
        }
        self.pos += 1; // '='
        while matches!(self.peek(), Some(b) if b.is_ascii_whitespace()) {
            self.pos += 1;
        }
        let value = match self.peek() {
            Some(q @ (b'"' | b'\'')) => {
                self.pos += 1;
                let start = self.pos;
                while let Some(b) = self.peek() {
                    if b == q {
                        break;
                    }
                    self.pos += 1;
                }
                let v = self.input[start..self.pos].to_vec();
                if self.peek() == Some(q) {
                    self.pos += 1;
                }
                v
            }
            _ => {
                let start = self.pos;
                while let Some(b) = self.peek() {
                    if b.is_ascii_whitespace() || b == b'>' {
                        break;
                    }
                    self.pos += 1;
                }
                self.input[start..self.pos].to_vec()
            }
        };
        Some(Attr { name, value })
    }
}

impl<'a> Iterator for Tokenizer<'a> {
    type Item = Tag;

    fn next(&mut self) -> Option<Tag> {
        while self.pos < self.input.len() {
            match memchr(b'<', &self.input[self.pos..]) {
                None => {
                    self.pos = self.input.len();
                    return None;
                }
                Some(off) => self.pos += off,
            }
            if self.starts_with_ci(b"<!--") {
                self.skip_comment();
                continue;
            }
            if self.peek() == Some(b'<') && self.input.get(self.pos + 1) == Some(&b'!') {
                self.skip_bang();
                continue;
            }
            let before = self.pos;
            if let Some(tag) = self.read_tag() {
                if !tag.closing && (tag.is("script") || tag.is("style")) {
                    self.skip_rawtext(&tag.name.clone());
                }
                return Some(tag);
            }
            self.pos = before + 1;
        }
        None
    }
}

#[inline]
fn memchr(needle: u8, haystack: &[u8]) -> Option<usize> {
    haystack.iter().position(|&b| b == needle)
}

pub(crate) fn decode_entities(s: &str) -> String {
    if !s.contains('&') {
        return s.to_string();
    }
    let mut out = String::with_capacity(s.len());
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] != b'&' {
            let ch_end = next_char_boundary(s, i);
            out.push_str(&s[i..ch_end]);
            i = ch_end;
            continue;
        }
        let window_end = (i + 12).min(bytes.len());
        let semi = bytes[i + 1..window_end].iter().position(|&b| b == b';');
        let Some(off) = semi else {
            out.push('&');
            i += 1;
            continue;
        };
        let name = &s[i + 1..i + 1 + off];
        let decoded: Option<char> = match name {
            "amp" => Some('&'),
            "lt" => Some('<'),
            "gt" => Some('>'),
            "quot" => Some('"'),
            "apos" => Some('\''),
            _ if name.starts_with("#x") || name.starts_with("#X") => {
                u32::from_str_radix(&name[2..], 16)
                    .ok()
                    .and_then(char::from_u32)
            }
            _ if name.starts_with('#') => name[1..].parse::<u32>().ok().and_then(char::from_u32),
            _ => None,
        };
        match decoded {
            Some(c) => {
                out.push(c);
                i += 1 + off + 1; // '&' + name + ';'
            }
            None => {
                out.push('&');
                i += 1;
            }
        }
    }
    out
}

fn next_char_boundary(s: &str, i: usize) -> usize {
    let mut j = i + 1;
    while j < s.len() && !s.is_char_boundary(j) {
        j += 1;
    }
    j
}

pub(crate) fn extract_links(page: &[u8], page_url: &Url) -> Vec<String> {
    let mut base = page_url.clone();
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    for (tag_name, raw) in extract_raw_refs(page) {
        if tag_name == b"base".as_slice() {
            if let Ok(u) = resolve(&base, &raw) {
                base = u;
            }
            continue;
        }
        if let Ok(u) = resolve(&base, &raw) {
            let canon = normalize(&u);
            if seen.insert(canon.clone()) {
                out.push(canon);
            }
        }
    }
    out
}

pub(crate) fn extract_raw_refs(page: &[u8]) -> Vec<(Vec<u8>, String)> {
    let mut out = Vec::new();
    for tag in Tokenizer::new(page) {
        if tag.closing {
            continue;
        }
        let attr_name: &str = if tag.is("a") || tag.is("area") || tag.is("link") || tag.is("base") {
            "href"
        } else if tag.is("frame") || tag.is("iframe") {
            "src"
        } else {
            continue;
        };
        if let Some(attr) = tag.attr(attr_name) {
            let raw = decode_entities(attr.value_str().trim());
            if raw.is_empty() {
                continue;
            }
            out.push((tag.name.clone(), raw));
        }
    }
    out
}
