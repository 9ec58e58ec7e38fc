//! Golden hash of content synthesis: every byte `synthesize_page` renders
//! over three fixed web spaces, folded into one FNV-1a digest.
//!
//! Content-mode crawls, the detector ablations and every content-mode
//! figure read these bytes, so a change to the token generators, the
//! charset encoders, the page template or the URL writer must not move a
//! single byte unless the model is meant to change. The spaces are
//! chosen so that every `(language, charset)` arm of the body-text
//! renderer appears, and the test checks that coverage before comparing
//! the digest.

use langcrawl_charset::{Charset, Language};
use langcrawl_webgraph::{GeneratorConfig, PageKind, WebSpace};
use std::collections::BTreeSet;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Digest of every page's rendered bytes, length-prefixed so page
/// boundaries are part of the hash.
fn space_digest(ws: &WebSpace) -> u64 {
    let mut h = FNV_OFFSET;
    for p in ws.page_ids() {
        let bytes = ws.synthesize_page(p);
        h = fnv(h, &(bytes.len() as u64).to_le_bytes());
        h = fnv(h, &bytes);
    }
    h
}

fn spaces() -> Vec<(&'static str, WebSpace)> {
    vec![
        (
            "thai_like",
            GeneratorConfig::thai_like().scaled(2_500).build(41),
        ),
        (
            "japanese_like",
            GeneratorConfig::japanese_like().scaled(2_500).build(42),
        ),
        (
            "korean_like",
            GeneratorConfig::korean_like().scaled(2_500).build(43),
        ),
    ]
}

/// The fixed spaces render every `(language, true charset)` pair the
/// generator produces, including the Other-language UTF-8 and Latin-1
/// arms and the ASCII fallback, plus failed and non-HTML pages.
#[test]
fn golden_spaces_cover_every_body_text_arm() {
    let mut seen: BTreeSet<(String, String)> = BTreeSet::new();
    let (mut failed, mut other) = (0u32, 0u32);
    for (_, ws) in spaces() {
        for p in ws.page_ids() {
            let m = ws.meta(p);
            match m.kind {
                PageKind::Failed => failed += 1,
                PageKind::Other => other += 1,
                PageKind::Html => {
                    seen.insert((format!("{:?}", m.lang), format!("{:?}", m.true_charset)));
                }
            }
        }
    }
    let want: &[(Language, Charset)] = &[
        (Language::Japanese, Charset::EucJp),
        (Language::Japanese, Charset::ShiftJis),
        (Language::Japanese, Charset::Iso2022Jp),
        (Language::Japanese, Charset::Utf8),
        (Language::Thai, Charset::Tis620),
        (Language::Thai, Charset::Windows874),
        (Language::Thai, Charset::Iso885911),
        (Language::Thai, Charset::Utf8),
        (Language::Korean, Charset::EucKr),
        (Language::Korean, Charset::Utf8),
        (Language::Chinese, Charset::Gb2312),
        (Language::Other, Charset::Ascii),
        (Language::Other, Charset::Latin1),
        (Language::Other, Charset::Utf8),
    ];
    for (lang, cs) in want {
        let key = (format!("{:?}", Some(*lang)), format!("{cs:?}"));
        assert!(
            seen.contains(&key),
            "no page renders arm {key:?}; saw {seen:?}"
        );
    }
    assert!(failed > 0 && other > 0, "failed {failed}, non-HTML {other}");
}

/// Every rendered byte of the three spaces, pinned. The digests were
/// recorded from the token-vector renderer (generate tokens, then encode
/// the whole vector, `format!` each URL) that the buffer-writing
/// renderer replaced; they must never be re-pinned to absorb a change
/// that was meant to be speed-only.
#[test]
fn synthesized_bytes_match_golden() {
    let got: Vec<(&str, u64)> = spaces()
        .iter()
        .map(|(name, ws)| (*name, space_digest(ws)))
        .collect();
    let want: [(&str, u64); 3] = [
        ("thai_like", 13_907_187_076_598_843_046),
        ("japanese_like", 396_421_964_783_152_425),
        ("korean_like", 17_096_188_335_595_406_590),
    ];
    assert_eq!(got, want);
}
