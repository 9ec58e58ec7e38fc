//! `langcrawl-lint` — the workspace's in-tree determinism & safety
//! linter.
//!
//! The reproduction's headline guarantee is *bit-identical* crawl
//! simulation at any thread count. The golden-hash and conformance
//! suites enforce that dynamically — after a hazard has already landed.
//! This crate closes the gap statically: a dependency-free scan of the
//! workspace's own sources that rejects the hazard *classes* at CI
//! time, before a golden ever gets the chance to fire:
//!
//! | id                    | pass | rejects                                             |
//! |-----------------------|------|-----------------------------------------------------|
//! | `wall-clock`          | D1   | `Instant::now` / `SystemTime::now` outside bench    |
//! | `unordered-iter`      | D2   | `HashMap`/`HashSet` iteration whose order can leak  |
//! | `rng-stream`          | D3   | duplicated / non-literal `Rng::stream` domains      |
//! | `event-bits`          | D4   | colliding or shadowed `interest::*` bits            |
//! | `safety-comment`      | S1   | `unsafe` without a `// SAFETY:` comment             |
//! | `no-panic`            | P1   | `unwrap`/`expect`/panicking macros in hot paths     |
//! | `no-panic-transitive` | P1T  | panic sites reachable from a `lint:root(panic-free)`|
//! | `no-alloc-transitive` | P2T  | alloc sites reachable from a `lint:root(alloc-free)`|
//! | `bad-root`            | —    | a `lint:root` marker that resolves to no fn         |
//!
//! P1T/P2T are *call-graph-aware*: [`index`] records every fn with its
//! panic/alloc facts and outgoing calls, [`graph`] resolves the calls
//! (best-effort receiver typing; over-approximating to all candidates
//! for dyn/generic dispatch) and walks the closure from each declared
//! `// lint:root(...)` fn, reporting every reachable site with its full
//! call chain. `--graph` emits the closure as deterministic DOT + JSON.
//!
//! ## Suppressions
//!
//! A finding is silenced by a comment on the same line or the line
//! above, with a mandatory reason:
//!
//! ```text
//! // lint:allow(wall-clock): observational profiling; never feeds sim state
//! ```
//!
//! For the transitive passes a suppression also works on a *call site*:
//! an allow covering the line of a call severs that edge in the
//! matching closure, exempting the whole callee subtree from this
//! caller's root (see [`graph::EdgeAllow`]).
//!
//! A suppression with an unknown lint id or an empty reason is itself a
//! finding (`bad-allow`), so the suppression surface stays auditable.
//! Only plain `//` / `/* */` comments can suppress — doc comments are
//! prose and may quote the grammar freely.
//!
//! ## Scope rules
//!
//! * `target/`, `.git/` and any `fixtures/` directory are never scanned,
//!   nor is any subdirectory whose `Cargo.toml` declares its own
//!   `[workspace]` — a separate workspace (the `crawlbench` harness)
//!   follows its own rules;
//! * test code (`tests/`/`benches/` directories, `#[cfg(test)]` /
//!   `#[test]` items) is exempt from D1, D2, D3-call-sites and P1 —
//!   tests may clock and panic freely; S1 and the registries apply
//!   everywhere;
//! * `crates/bench`, `crates/lint` and `examples/` may read the wall
//!   clock (D1) — benchmarks measure real time by design;
//! * P1 applies to the crawl/generation hot paths listed in
//!   [`passes::p1_applies`]; allocation-freedom is proved only
//!   transitively (P2T), from `lint:root(alloc-free)` entry points.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod findings;
pub mod graph;
pub mod index;
pub mod lexer;
pub mod passes;

use findings::{Finding, Report};
use passes::{SourceFile, StreamConst, BAD_ALLOW, SUPPRESSIBLE};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One parsed `lint:allow(<id>): <reason>` suppression.
#[derive(Debug)]
struct Allow {
    path: String,
    /// Lines the allow covers: the comment's own lines plus the next.
    start_line: u32,
    end_line: u32,
    id: String,
    reason: String,
    used: bool,
}

/// Scan every `.rs` file under `root` and report all unsuppressed
/// findings. The walk order (and therefore the report) is fully
/// deterministic.
pub fn scan_path(root: &Path) -> io::Result<Report> {
    Ok(scan_sources(&load_sources(root)?))
}

/// Read and lex every `.rs` file under `root`, in sorted path order.
/// Exposed so the CLI can reuse one load for the report *and* the
/// `--graph` / `--roots` outputs.
pub fn load_sources(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    collect_rs_files(root, &mut files)?;
    files.sort();

    let mut sources = Vec::with_capacity(files.len());
    for path in &files {
        let Ok(src) = fs::read_to_string(path) else {
            continue; // non-UTF-8: nothing for a Rust lexer to do
        };
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        sources.push(SourceFile::new(rel, &src));
    }
    Ok(sources)
}

/// Run all passes over pre-lexed sources (exposed so tests can scan
/// fixture sets without touching the filesystem layout).
pub fn scan_sources(sources: &[SourceFile]) -> Report {
    // Pass order: registries first (D3 needs every file's constants).
    let mut registry: Vec<StreamConst> = Vec::new();
    for file in sources {
        passes::collect_stream_consts(file, &mut registry);
    }

    let mut raw: Vec<Finding> = Vec::new();
    passes::check_stream_registry(&registry, &mut raw);
    for file in sources {
        passes::wall_clock(file, &mut raw);
        passes::unordered_iter(file, &mut raw);
        passes::check_stream_call_sites(file, &registry, &mut raw);
        passes::event_bits(file, &mut raw);
        passes::safety_comment(file, &mut raw);
        passes::no_panic(file, &mut raw);
    }

    // Suppression collection + validation (before the transitive
    // passes: an allow covering a call site severs that edge in the
    // closure walk, so the graph needs the allow set).
    let mut allows = parse_allows(sources, &mut raw);

    // Transitive passes: index every fn, resolve the call graph, and
    // walk the closure from each declared root fn.
    let idx = index::Index::build(sources);
    raw.extend(idx.findings.iter().cloned());
    let edge_allows: Vec<graph::EdgeAllow> = allows
        .iter()
        .map(|a| graph::EdgeAllow {
            path: a.path.clone(),
            start_line: a.start_line,
            end_line: a.end_line,
            id: a.id.clone(),
        })
        .collect();
    let g = graph::Graph::build(&idx, &edge_allows);
    g.transitive_findings(&mut raw);
    for &i in g.used_allow_indices() {
        allows[i].used = true;
    }

    let mut report = Report {
        files_scanned: sources.len(),
        ..Report::default()
    };
    for f in raw {
        let suppressed = allows.iter_mut().find(|a| {
            passes::allow_covers(&a.id, f.lint)
                && a.path == f.path
                && a.start_line <= f.line
                && f.line <= a.end_line
        });
        match suppressed {
            Some(a) => {
                a.used = true;
                debug_assert!(!a.reason.is_empty());
            }
            None => report.findings.push(f),
        }
    }
    report.allows_used = allows.iter().filter(|a| a.used).count();
    report.sort();
    report
}

/// Parse every `lint:allow` comment; malformed ones become `bad-allow`
/// findings in `raw`.
fn parse_allows(sources: &[SourceFile], raw: &mut Vec<Finding>) -> Vec<Allow> {
    let mut allows: Vec<Allow> = Vec::new();
    for file in sources {
        for c in &file.lexed.comments {
            // Doc comments describe the grammar; only plain comments
            // can suppress.
            if c.is_doc() {
                continue;
            }
            let Some(pos) = c.text.find("lint:allow(") else {
                continue;
            };
            let rest = &c.text[pos + "lint:allow(".len()..];
            let Some(close) = rest.find(')') else {
                raw.push(bad_allow(file, c.start_line, "missing closing parenthesis"));
                continue;
            };
            let id = rest[..close].trim().to_string();
            let after = rest[close + 1..].trim_start();
            let reason = after.strip_prefix(':').map_or("", str::trim);
            if !SUPPRESSIBLE.contains(&id.as_str()) {
                raw.push(bad_allow(
                    file,
                    c.start_line,
                    &format!("unknown lint id `{id}`"),
                ));
                continue;
            }
            if reason.is_empty() {
                raw.push(bad_allow(
                    file,
                    c.start_line,
                    &format!("suppression of `{id}` carries no reason"),
                ));
                continue;
            }
            allows.push(Allow {
                path: file.rel.clone(),
                start_line: c.start_line,
                end_line: c.end_line + 1,
                id,
                reason: reason.to_string(),
                used: false,
            });
        }
    }
    allows
}

/// Parse the workspace's suppressions into the form the graph's
/// edge-severing BFS consumes — exposed so the CLI's `--graph` output
/// reflects exactly the closure the scan gates on. Malformed allows are
/// dropped here; the scan itself reports them.
pub fn edge_allows(sources: &[SourceFile]) -> Vec<graph::EdgeAllow> {
    let mut sink = Vec::new();
    parse_allows(sources, &mut sink)
        .into_iter()
        .map(|a| graph::EdgeAllow {
            path: a.path,
            start_line: a.start_line,
            end_line: a.end_line,
            id: a.id,
        })
        .collect()
}

fn bad_allow(file: &SourceFile, line: u32, why: &str) -> Finding {
    Finding {
        lint: BAD_ALLOW,
        path: file.rel.clone(),
        line,
        col: 1,
        message: format!("malformed lint:allow — {why} (grammar: `lint:allow(<id>): <reason>`)"),
    }
}

/// Does `dir` hold the root of its own cargo workspace (a `Cargo.toml`
/// with a `[workspace]` table)? Such a tree is built, tested and linted
/// on its own terms, so the walk leaves it out.
fn is_separate_workspace(dir: &Path) -> bool {
    fs::read_to_string(dir.join("Cargo.toml"))
        .is_ok_and(|toml| toml.lines().any(|l| l.trim() == "[workspace]"))
}

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", ".git", "fixtures", "results"];

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref())
                || name.starts_with('.')
                || is_separate_workspace(&path)
            {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan_snippets(files: &[(&str, &str)]) -> Report {
        let sources: Vec<SourceFile> = files
            .iter()
            .map(|(rel, src)| SourceFile::new((*rel).to_string(), src))
            .collect();
        scan_sources(&sources)
    }

    #[test]
    fn allow_with_reason_suppresses_and_is_counted() {
        let src = "fn f() {\n\
                   // lint:allow(wall-clock): profiling only, never feeds sim state\n\
                   let t = Instant::now();\n\
                   }\n";
        let r = scan_snippets(&[("crates/core/src/x.rs", src)]);
        assert!(r.is_clean(), "{}", r.to_text());
        assert_eq!(r.allows_used, 1);
    }

    #[test]
    fn allow_without_reason_is_a_finding() {
        let src = "// lint:allow(wall-clock)\nfn f() { let t = Instant::now(); }\n";
        let r = scan_snippets(&[("crates/core/src/x.rs", src)]);
        let lints: Vec<&str> = r.findings.iter().map(|f| f.lint).collect();
        assert!(lints.contains(&"bad-allow"), "{lints:?}");
        assert!(lints.contains(&"wall-clock"), "{lints:?}");
    }

    #[test]
    fn allow_with_unknown_id_is_a_finding() {
        let src = "// lint:allow(no-such-lint): because\nfn f() {}\n";
        let r = scan_snippets(&[("crates/core/src/x.rs", src)]);
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].lint, "bad-allow");
    }

    #[test]
    fn doc_comments_quoting_the_grammar_are_not_allows() {
        let src = "/// Use `lint:allow(<id>): <reason>` to suppress.\n\
                   //! lint:allow(wall-clock)\n\
                   fn f() {}\n";
        let r = scan_snippets(&[("crates/core/src/x.rs", src)]);
        assert!(r.is_clean(), "{}", r.to_text());
    }

    #[test]
    fn trailing_same_line_allow_works() {
        let src = "fn f() { let t = Instant::now(); } // lint:allow(wall-clock): demo timer only\n";
        let r = scan_snippets(&[("crates/core/src/x.rs", src)]);
        assert!(r.is_clean(), "{}", r.to_text());
    }

    #[test]
    fn bench_and_test_code_may_read_the_clock() {
        let bench = "fn f() { let t = Instant::now(); }\n";
        let test_mod = "#[cfg(test)]\nmod tests {\n fn f() { let t = Instant::now(); }\n}\n";
        let test_file = "fn f() { let t = Instant::now(); }\n";
        let r = scan_snippets(&[
            ("crates/bench/src/x.rs", bench),
            ("crates/core/src/y.rs", test_mod),
            ("crates/core/tests/z.rs", test_file),
        ]);
        assert!(r.is_clean(), "{}", r.to_text());
    }

    #[test]
    fn allow_on_call_site_severs_transitive_edge_end_to_end() {
        let src = "// lint:root(panic-free)\n\
                   fn entry(x: Option<u64>) -> u64 {\n\
                   // lint:allow(no-panic-transitive): boot-time only, input is static\n\
                   helper(x)\n\
                   }\n\
                   fn helper(x: Option<u64>) -> u64 { x.unwrap() }\n";
        let r = scan_snippets(&[("crates/core/src/x.rs", src)]);
        assert!(r.is_clean(), "{}", r.to_text());
        assert_eq!(r.allows_used, 1);
    }

    #[test]
    fn stream_collision_across_files_detected() {
        let a = "const STREAM_A: u64 = 1 << 40;\n";
        let b = "const STREAM_B: u64 = 1 << 40;\n";
        let r = scan_snippets(&[("crates/a/src/lib.rs", a), ("crates/b/src/lib.rs", b)]);
        assert_eq!(r.findings.len(), 1, "{}", r.to_text());
        assert_eq!(r.findings[0].lint, "rng-stream");
        assert!(r.findings[0].message.contains("STREAM_A"));
    }

    #[test]
    fn report_is_deterministically_sorted() {
        let src = "fn f() { let a = Instant::now(); let b = SystemTime::now(); }\n";
        let r = scan_snippets(&[("crates/core/src/b.rs", src), ("crates/core/src/a.rs", src)]);
        let paths: Vec<&str> = r.findings.iter().map(|f| f.path.as_str()).collect();
        let mut sorted = paths.clone();
        sorted.sort();
        assert_eq!(paths, sorted);
        assert_eq!(r.findings.len(), 4);
    }
}
