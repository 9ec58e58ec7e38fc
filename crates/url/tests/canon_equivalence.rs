//! Equivalence properties: the borrowing canonicalizer and the public
//! wrappers over it (`Url::parse`, `resolve`, `normalize`,
//! `remove_dot_segments`) against a frozen copy of the owned-`String`
//! implementation they replaced.
//!
//! The reference (`reference/mod.rs`) is that implementation verbatim,
//! minus its comments. It is the test oracle, so it must not be edited to
//! follow the library: if the library changes what a URL canonicalizes
//! to, these properties are meant to fail.

use langcrawl_minicheck::{check, check_default, Gen};
use langcrawl_url::{normalize, remove_dot_segments, resolve, Canonicalizer, Scheme, Url};

#[path = "reference/mod.rs"]
mod reference;

/// Characters that exercise every branch of the grammar: separators,
/// escapes, dot segments, userinfo/port delimiters, whitespace, controls
/// and non-ASCII.
const TRICKY: &[&str] = &[
    "/",
    "/",
    "/",
    ".",
    "..",
    "./",
    "../",
    "?",
    "#",
    ":",
    "@",
    "%",
    "%7E",
    "%7e",
    "%2F",
    "%2e",
    "%4",
    "%zz",
    "index.html",
    "index.htm",
    "a",
    "B",
    "x9",
    "-",
    "_",
    "~",
    "+",
    " ",
    "\t",
    "\n",
    "\u{1}",
    "\u{7f}",
    "é",
    "ไทย",
    "&",
    "=",
    ";",
    "[",
    "80",
    "443",
    "//",
];

fn arb_host(g: &mut Gen) -> String {
    let labels = g.vec(1..4, |g| g.string_of("abcXYZ019-_", 1..6));
    labels.join(".")
}

/// A reference drawn from one of the shapes a page's hrefs take, with
/// random tricky material mixed in.
fn arb_ref(g: &mut Gen) -> String {
    let noise = |g: &mut Gen| -> String {
        let n = g.usize(0..6);
        (0..n).map(|_| *g.pick(TRICKY)).collect()
    };
    let scheme = *g.pick(&[
        "http",
        "https",
        "HTTP",
        "Https",
        "mailto",
        "javascript",
        "ftp",
        "a+b",
    ]);
    let mut r = match g.usize(0..12) {
        0 => format!("{}{}", noise(g), noise(g)),
        1 => format!("../{}/./{}", noise(g), noise(g)),
        2 => format!("/{}/index.html", noise(g)),
        3 => format!("?{}", noise(g)),
        4 => format!("#{}", noise(g)),
        5 => format!("//{}{}/{}", arb_host(g), noise(g), noise(g)),
        6 => format!("{scheme}://{}/{}", arb_host(g), noise(g)),
        7 => format!("{scheme}:{}", noise(g)),
        8 => format!(
            "{scheme}://u@{}:{}/{}",
            arb_host(g),
            *g.pick(&["", "80", "443", "8080", "+81", "99999", "x"]),
            noise(g)
        ),
        // Already canonical, or one character away from it.
        9 | 10 => format!(
            "{}://{}/{}{}",
            *g.pick(&["http", "https"]),
            g.string_of("abcz019-_.", 1..8),
            g.string_of("abc/._-~", 0..10),
            *g.pick(&[
                "",
                "x.html",
                "index.html",
                "index.htm",
                "/",
                "%41",
                "?",
                "#",
                "A",
                "é",
                "//"
            ])
        ),
        _ => String::new(),
    };
    if g.bool(0.1) {
        let pad: &&str = g.pick(&[" ", "\t", "\u{b}", "\u{1}"]);
        r.insert_str(0, pad);
    }
    if g.bool(0.1) {
        let pad: &&str = g.pick(&[" ", "\r\n", "\u{0}", "%", "%7"]);
        r.push_str(pad);
    }
    r
}

fn arb_base(g: &mut Gen) -> Url {
    loop {
        let s = format!(
            "{}://{}{}/{}",
            *g.pick(&["http", "https"]),
            arb_host(g),
            *g.pick(&["", ":80", ":443", ":8080"]),
            arb_ref(g).trim_start_matches('/')
        );
        if let Ok(u) = reference::parse(&s) {
            return u;
        }
    }
}

fn ref_canonical(base: &Url, r: &str) -> Result<String, String> {
    reference::resolve(base, r)
        .map(|u| reference::normalize(&u))
        .map_err(|e| format!("{e:?}"))
}

/// The canonicalizer writes exactly `normalize(resolve(base, r))`, and
/// fails exactly when resolution fails, with the same error.
#[test]
fn canonicalize_equals_normalize_of_resolve() {
    let mut canon = Canonicalizer::new();
    check(2_000, |g| {
        let base = arb_base(g);
        let r = arb_ref(g);
        let got = canon
            .canonicalize(&base, &r)
            .map(str::to_string)
            .map_err(|e| format!("{e:?}"));
        assert_eq!(got, ref_canonical(&base, &r), "base {base:?} ref {r:?}");
    });
}

/// `<base href>` chains: rebasing in place matches re-assigning the
/// owned resolution, and links after each step canonicalize alike.
#[test]
fn base_href_chains_match() {
    let mut canon = Canonicalizer::new();
    check_default(|g| {
        let mut base = arb_base(g);
        let mut ref_base = base.clone();
        for _ in 0..g.usize(1..6) {
            let b = arb_ref(g);
            if let Ok(u) = reference::resolve(&ref_base, &b) {
                ref_base = u;
            }
            let _ = canon.rebase(&mut base, &b);
            assert_eq!(base, ref_base, "after <base href={b:?}>");
            let r = arb_ref(g);
            let got = canon
                .canonicalize(&base, &r)
                .map(str::to_string)
                .map_err(|e| format!("{e:?}"));
            assert_eq!(got, ref_canonical(&ref_base, &r), "base {base:?} ref {r:?}");
        }
    });
}

/// The public owned API is unchanged: parse, resolve, normalize and
/// remove_dot_segments return what they returned before.
#[test]
fn public_wrappers_match_reference() {
    let mut canon = Canonicalizer::new();
    check(2_000, |g| {
        let r = arb_ref(g);
        assert_eq!(Url::parse(&r), reference::parse(&r), "parse {r:?}");
        let base = arb_base(g);
        assert_eq!(
            resolve(&base, &r),
            reference::resolve(&base, &r),
            "resolve {r:?}"
        );
        assert_eq!(normalize(&base), reference::normalize(&base));
        assert_eq!(
            canon.canonicalize_url(&r).map(str::to_string).ok(),
            reference::parse(&r).ok().map(|u| reference::normalize(&u)),
            "canonicalize_url {r:?}"
        );
        let path: String = (0..g.usize(0..8)).map(|_| *g.pick(TRICKY)).collect();
        assert_eq!(
            remove_dot_segments(&path),
            reference::remove_dot_segments(&path),
            "{path:?}"
        );
    });
}

/// Hand-built `Url`s (public fields) keep their verbatim host through
/// resolution and normalization, as before.
#[test]
fn verbatim_fields_survive() {
    let base = Url {
        scheme: Scheme::Http,
        host: "MiXeD.th".into(),
        port: Some(80),
        path: "a/../b/index.html".into(),
        query: Some(String::new()),
    };
    let mut canon = Canonicalizer::new();
    for r in ["", "#x", "c", "?q", "//Up.jp/x"] {
        assert_eq!(
            canon.canonicalize(&base, r).map(str::to_string).ok(),
            ref_canonical(&base, r).ok(),
            "{r:?}"
        );
        assert_eq!(resolve(&base, r), reference::resolve(&base, r), "{r:?}");
    }
    assert_eq!(normalize(&base), reference::normalize(&base));
}
