//! # langcrawl-html — the crawler's HTML layer
//!
//! A byte-oriented HTML scanner providing exactly the two operations the
//! paper's crawler performs on every fetched page:
//!
//! 1. **META charset extraction** ([`extract_meta_charset`]) — the
//!    classifier's first method (§3.2 of the paper): read
//!    `<meta http-equiv="content-type" content="text/html; charset=…">`
//!    (and the later `<meta charset=…>` shorthand).
//! 2. **Link extraction** ([`extract_links`]) — find `href`/`src`
//!    references, honour `<base href>`, resolve them against the page URL
//!    and normalize, producing the candidate URLs for the crawl frontier.
//!
//! The scanner works on **bytes**, not decoded text, because a crawler
//! must find the META tag *before* it knows the encoding. That is safe
//! for the encodings we model: HTML syntax characters (`<`, `>`, `"`,
//! `=`) are below 0x40 and therefore never occur inside EUC-JP, TIS-620
//! or UTF-8 multibyte sequences, and Shift_JIS trail bytes only collide
//! with `@A-Z[\]^_` / lowercase ranges, not with the delimiters the
//! scanner keys on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod entities;
pub mod links;
pub mod meta;
pub mod tokenizer;

pub use links::{extract_links, extract_raw_refs, for_each_ref, LinkExtractor};
pub use meta::extract_meta_charset;
pub use tokenizer::{Attr, Attrs, Tag, Tokenizer};
