//! Minimal HTML entity decoding for attribute values.
//!
//! URLs inside `href` attributes are frequently written with `&amp;`
//! separating query parameters; failing to decode them makes the crawler
//! fetch wrong URLs and fragment its visited-set. Only the entities that
//! realistically occur inside URLs are handled; everything else passes
//! through untouched.

/// Decode the entities that occur in URL-carrying attributes:
/// `&amp;` `&lt;` `&gt;` `&quot;` `&apos;` `&#NN;` `&#xHH;`.
///
/// ```
/// use langcrawl_html::entities::decode_entities;
/// assert_eq!(decode_entities("a?x=1&amp;y=2"), "a?x=1&y=2");
/// assert_eq!(decode_entities("&#47;path"), "/path");
/// assert_eq!(decode_entities("&#x2F;path"), "/path");
/// assert_eq!(decode_entities("no entities"), "no entities");
/// ```
pub fn decode_entities(s: &str) -> String {
    if !s.contains('&') {
        return s.to_string();
    }
    let mut out = String::with_capacity(s.len());
    decode_entities_into(s, &mut out);
    out
}

/// [`decode_entities`] into a reused buffer (cleared first).
pub fn decode_entities_into(s: &str, out: &mut String) {
    out.clear();
    let bytes = s.as_bytes();
    let mut i = 0;
    while let Some(off) = bytes[i..].iter().position(|&b| b == b'&') {
        // Copy up to the '&' (ASCII, so a char boundary) verbatim.
        out.push_str(&s[i..i + off]);
        i += off;
        // Find the terminating ';' within a reasonable window.
        let window_end = (i + 12).min(bytes.len());
        let semi = bytes[i + 1..window_end].iter().position(|&b| b == b';');
        let decoded = semi.and_then(|off| decode_entity(&s[i + 1..i + 1 + off]).map(|c| (c, off)));
        match decoded {
            Some((c, off)) => {
                out.push(c);
                i += 1 + off + 1; // '&' + name + ';'
            }
            None => {
                out.push('&');
                i += 1;
            }
        }
    }
    out.push_str(&s[i..]);
}

/// The character an entity name (between `&` and `;`) stands for.
fn decode_entity(name: &str) -> Option<char> {
    match name {
        "amp" => Some('&'),
        "lt" => Some('<'),
        "gt" => Some('>'),
        "quot" => Some('"'),
        "apos" => Some('\''),
        _ => {
            let number: &str = name.strip_prefix('#')?;
            let code = match number.strip_prefix(['x', 'X']) {
                Some(hex) => u32::from_str_radix(hex, 16),
                None => number.parse::<u32>(),
            };
            code.ok().and_then(char::from_u32)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_entities() {
        assert_eq!(decode_entities("&lt;&gt;&quot;&apos;&amp;"), "<>\"'&");
    }

    #[test]
    fn numeric_entities() {
        assert_eq!(decode_entities("&#65;&#x41;&#x61;"), "AAa");
    }

    #[test]
    fn unknown_entity_left_alone() {
        assert_eq!(decode_entities("&nbsp;x"), "&nbsp;x");
        assert_eq!(decode_entities("&bogus;"), "&bogus;");
    }

    #[test]
    fn bare_ampersand() {
        assert_eq!(decode_entities("a&b"), "a&b");
        assert_eq!(decode_entities("a&"), "a&");
    }

    #[test]
    fn unterminated_entity() {
        assert_eq!(decode_entities("&amp"), "&amp");
    }

    #[test]
    fn query_separator_case() {
        assert_eq!(
            decode_entities("/cgi?a=1&amp;b=2&amp;c=3"),
            "/cgi?a=1&b=2&c=3"
        );
    }

    #[test]
    fn multibyte_passthrough() {
        assert_eq!(decode_entities("ไทย&amp;日本"), "ไทย&日本");
    }

    #[test]
    fn invalid_numeric_left_alone() {
        assert_eq!(decode_entities("&#xZZ;"), "&#xZZ;");
        assert_eq!(decode_entities("&#55296;"), "&#55296;"); // surrogate
    }
}
