//! A forgiving, byte-level HTML tag tokenizer.
//!
//! Yields start/end tags with their attributes, skipping comments,
//! doctypes, and the raw-text interiors of `<script>` and `<style>`.
//! Text content is not tokenized — the crawler only consumes tags — and
//! is skipped to the next `<` eight bytes at a time.
//!
//! Tags borrow the input: a [`Tag`] is the tag's name span plus the span
//! of its attribute region, and [`Tag::attrs`] re-reads that region on
//! demand, so tokenizing a page allocates nothing.
//!
//! Real 2004-era HTML is deeply malformed; every branch here errs toward
//! "keep scanning" rather than "reject the page".

use std::borrow::Cow;

/// One attribute: name and raw value bytes, borrowed from the page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Attr<'a> {
    /// Attribute name as written (compare with `eq_ignore_ascii_case`).
    pub name: &'a [u8],
    /// Attribute value with quotes stripped; empty for bare attributes.
    pub value: &'a [u8],
}

impl<'a> Attr<'a> {
    /// Value as UTF-8-lossy text (attribute values the crawler consumes —
    /// URLs and charset labels — are ASCII in practice, and then this
    /// borrows).
    pub fn value_str(&self) -> Cow<'a, str> {
        String::from_utf8_lossy(self.value)
    }
}

/// One parsed tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tag<'a> {
    /// Tag name as written (`a`, `META`, …); see [`Tag::is`].
    pub name: &'a [u8],
    /// True for `</...>` end tags (attributes are not parsed for these).
    pub closing: bool,
    /// The attribute region: everything between the name and the `>`.
    /// Empty for end tags.
    region: &'a [u8],
}

impl<'a> Tag<'a> {
    /// Attributes in document order.
    pub fn attrs(&self) -> Attrs<'a> {
        Attrs {
            input: self.region,
            pos: 0,
        }
    }

    /// Look up an attribute by (case-insensitive) name; the first one
    /// wins.
    pub fn attr(&self, name: &str) -> Option<Attr<'a>> {
        self.attrs()
            .find(|a| a.name.eq_ignore_ascii_case(name.as_bytes()))
    }

    /// Is this tag named `name` (case-insensitive)?
    pub fn is(&self, name: &str) -> bool {
        self.name.eq_ignore_ascii_case(name.as_bytes())
    }
}

/// Iterator over the attributes of a tag region. It stops at the
/// region's end, or at a `>` or `<` outside a quoted value — which is how
/// the tokenizer finds where a tag ends.
#[derive(Debug, Clone)]
pub struct Attrs<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> Attrs<'a> {
    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn skip_while(&mut self, pred: impl Fn(u8) -> bool) {
        while self.peek().is_some_and(&pred) {
            self.pos += 1;
        }
    }

    fn read_attr(&mut self) -> Option<Attr<'a>> {
        let name_start = self.pos;
        self.skip_while(|b| !(b.is_ascii_whitespace() || matches!(b, b'=' | b'>' | b'/' | b'<')));
        if self.pos == name_start {
            // Defensive: consume one byte so the caller's loop advances.
            self.pos += 1;
            return None;
        }
        let name = &self.input[name_start..self.pos];
        // Optional "= value".
        self.skip_while(|b| b.is_ascii_whitespace());
        if self.peek() != Some(b'=') {
            return Some(Attr { name, value: &[] });
        }
        self.pos += 1; // '='
        self.skip_while(|b| b.is_ascii_whitespace());
        let value = match self.peek() {
            Some(q @ (b'"' | b'\'')) => {
                // Quoted: runs to the closing quote, or to the end of input.
                let start = self.pos + 1;
                let rest = &self.input[start..];
                match find_byte(q, rest) {
                    Some(len) => {
                        self.pos = start + len + 1;
                        &rest[..len]
                    }
                    None => {
                        self.pos = self.input.len();
                        rest
                    }
                }
            }
            _ => {
                let start = self.pos;
                self.skip_while(|b| !(b.is_ascii_whitespace() || b == b'>'));
                &self.input[start..self.pos]
            }
        };
        Some(Attr { name, value })
    }
}

impl<'a> Iterator for Attrs<'a> {
    type Item = Attr<'a>;

    fn next(&mut self) -> Option<Attr<'a>> {
        loop {
            // Skip whitespace and stray '/' (self-closing slash).
            self.skip_while(|b| b.is_ascii_whitespace() || b == b'/');
            match self.peek() {
                // End of region, end of tag, or an unclosed tag with the
                // next one beginning.
                None | Some(b'>' | b'<') => return None,
                _ => {
                    if let Some(attr) = self.read_attr() {
                        return Some(attr);
                    }
                }
            }
        }
    }
}

/// Streaming tag iterator over a byte buffer.
#[derive(Debug)]
pub struct Tokenizer<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> Tokenizer<'a> {
    /// Tokenize `input`.
    pub fn new(input: &'a [u8]) -> Self {
        Tokenizer { input, pos: 0 }
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    /// Advance past `<!-- ... -->` (or to EOF).
    fn skip_comment(&mut self) {
        self.pos += 4; // "<!--"
        while let Some(off) = find_byte(b'-', &self.input[self.pos..]) {
            self.pos += off;
            if self.input[self.pos..].starts_with(b"-->") {
                self.pos += 3;
                return;
            }
            self.pos += 1;
        }
        self.pos = self.input.len();
    }

    /// Advance past `<! ... >` (doctype, CDATA-ish constructs).
    fn skip_bang(&mut self) {
        self.pos = match find_byte(b'>', &self.input[self.pos..]) {
            Some(off) => self.pos + off + 1,
            None => self.input.len(),
        };
    }

    /// Advance past raw text until the matching `</name` appears.
    fn skip_rawtext(&mut self, name: &[u8]) {
        while let Some(off) = find_byte(b'<', &self.input[self.pos..]) {
            self.pos += off;
            if self.input.get(self.pos + 1) == Some(&b'/')
                && self.input[self.pos + 2..]
                    .get(..name.len())
                    .is_some_and(|head| head.eq_ignore_ascii_case(name))
            {
                return; // leave the </script> for the main loop
            }
            self.pos += 1;
        }
        self.pos = self.input.len();
    }

    fn read_tag(&mut self) -> Option<Tag<'a>> {
        // self.pos is at '<'.
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
            // "<" followed by junk: treat as text, resume scanning.
            return None;
        }
        let name = &self.input[name_start..self.pos];
        // Run the attribute scanner to find where the tag ends.
        let mut attrs = Attrs {
            input: self.input,
            pos: self.pos,
        };
        while attrs.next().is_some() {}
        let region = &self.input[self.pos..attrs.pos];
        self.pos = attrs.pos;
        if self.peek() == Some(b'>') {
            self.pos += 1;
        }
        Some(Tag {
            name,
            closing,
            region: if closing { &[] } else { region },
        })
    }
}

impl<'a> Iterator for Tokenizer<'a> {
    type Item = Tag<'a>;

    fn next(&mut self) -> Option<Tag<'a>> {
        while self.pos < self.input.len() {
            // Scan to the next '<'.
            match find_byte(b'<', &self.input[self.pos..]) {
                None => {
                    self.pos = self.input.len();
                    return None;
                }
                Some(off) => self.pos += off,
            }
            if self.input.get(self.pos + 1) == Some(&b'!') {
                if self.input[self.pos + 2..].starts_with(b"--") {
                    self.skip_comment();
                } else {
                    self.skip_bang();
                }
                continue;
            }
            let before = self.pos;
            if let Some(tag) = self.read_tag() {
                if !tag.closing && (tag.is("script") || tag.is("style")) {
                    self.skip_rawtext(tag.name);
                }
                return Some(tag);
            }
            // read_tag declined; make progress past this '<'.
            self.pos = before + 1;
        }
        None
    }
}

/// Position of the first `needle` in `haystack`, eight bytes at a time:
/// XOR each word with the needle splatted to every lane, then the
/// classic "has zero byte" test. Bits of the test can only be spurious
/// *above* a true match, so the lowest set bit is always the first one.
#[inline]
pub(crate) fn find_byte(needle: u8, haystack: &[u8]) -> Option<usize> {
    const LO: u64 = 0x0101_0101_0101_0101;
    const HI: u64 = 0x8080_8080_8080_8080;
    let splat = LO * needle as u64;
    let (words, tail) = haystack.as_chunks::<8>();
    for (i, w) in words.iter().enumerate() {
        let x = u64::from_le_bytes(*w) ^ splat;
        let hit = x.wrapping_sub(LO) & !x & HI;
        if hit != 0 {
            return Some(i * 8 + (hit.trailing_zeros() / 8) as usize);
        }
    }
    tail.iter()
        .position(|&b| b == needle)
        .map(|off| words.len() * 8 + off)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tags(html: &str) -> Vec<Tag<'_>> {
        Tokenizer::new(html.as_bytes()).collect()
    }

    #[test]
    fn basic_tags() {
        let t = tags("<html><body class=main>text</body></html>");
        assert_eq!(t.len(), 4);
        assert!(t[0].is("html"));
        assert!(t[1].is("body"));
        assert_eq!(t[1].attr("class").unwrap().value, b"main");
        assert!(t[2].closing && t[2].is("body"));
    }

    #[test]
    fn attr_quoting_styles() {
        let t = tags(r#"<a href="x.html" title='quoted' data-bare=raw selected>"#);
        let a = &t[0];
        assert_eq!(a.attr("href").unwrap().value, b"x.html");
        assert_eq!(a.attr("title").unwrap().value, b"quoted");
        assert_eq!(a.attr("data-bare").unwrap().value, b"raw");
        assert_eq!(a.attr("selected").unwrap().value, b"");
    }

    #[test]
    fn case_insensitive_names() {
        let t = tags(r#"<A HREF="X"><META Http-Equiv="content-type">"#);
        assert!(t[0].is("a"));
        assert_eq!(t[0].attr("href").unwrap().value, b"X");
        assert!(t[1].is("meta"));
        assert!(t[1].attr("http-equiv").is_some());
    }

    #[test]
    fn comments_skipped() {
        let t = tags("<!-- <a href=no> --><a href=yes>");
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].attr("href").unwrap().value, b"yes");
    }

    #[test]
    fn unterminated_comment_swallows_rest() {
        let t = tags("<!-- open forever <a href=no>");
        assert!(t.is_empty());
    }

    #[test]
    fn doctype_skipped() {
        let t = tags("<!DOCTYPE html><p>");
        assert_eq!(t.len(), 1);
        assert!(t[0].is("p"));
    }

    #[test]
    fn script_interior_ignored() {
        let t =
            tags(r#"<script>if (a < b) { document.write('<a href="no">'); }</script><a href=yes>"#);
        let links: Vec<_> = t.iter().filter(|t| t.is("a") && !t.closing).collect();
        assert_eq!(links.len(), 1);
        assert_eq!(links[0].attr("href").unwrap().value, b"yes");
    }

    #[test]
    fn style_interior_ignored() {
        let t = tags("<style>a<b{}</style><p>");
        assert!(t.iter().any(|t| t.is("p")));
        assert!(!t.iter().any(|t| t.is("b")));
    }

    #[test]
    fn self_closing_and_xhtml() {
        let t = tags(r#"<br/><img src="i.gif" /><meta charset="utf-8"/>"#);
        assert_eq!(t.len(), 3);
        assert_eq!(t[1].attr("src").unwrap().value, b"i.gif");
        assert_eq!(t[2].attr("charset").unwrap().value, b"utf-8");
    }

    #[test]
    fn stray_lt_is_text() {
        let t = tags("3 < 4 but <em>5</em>");
        assert_eq!(t.len(), 2);
        assert!(t[0].is("em"));
    }

    #[test]
    fn unclosed_tag_at_eof() {
        let t = tags("<a href=partial");
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].attr("href").unwrap().value, b"partial");
    }

    #[test]
    fn unclosed_quote_runs_to_eof() {
        let t = tags(r#"<a href="never closed"#);
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].attr("href").unwrap().value, b"never closed");
    }

    #[test]
    fn multibyte_bytes_in_text_are_fine() {
        // EUC-JP bytes between tags must not confuse the scanner.
        let mut html = b"<title>".to_vec();
        html.extend_from_slice(&[0xA4, 0xB3, 0xA4, 0xF3]);
        html.extend_from_slice(b"</title><a href=x>");
        let t: Vec<Tag> = Tokenizer::new(&html).collect();
        assert!(t.iter().any(|t| t.is("a")));
    }

    #[test]
    fn empty_input() {
        assert!(tags("").is_empty());
        assert!(tags("no tags at all").is_empty());
    }
}
