//! Golden-findings tests: each fixture tree under `tests/fixtures/`
//! mirrors the workspace layout (so path-scoped passes fire exactly as
//! they do on the real repo) and must produce exactly the findings
//! pinned here — no more, no less.

use std::path::PathBuf;

/// Scan one fixture case and return `(lint, path, line)` triples in
/// report order.
fn scan(case: &str) -> Vec<(String, String, u32)> {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(case);
    let report = langcrawl_lint::scan_path(&root).expect("fixture tree must be readable");
    report
        .findings
        .iter()
        .map(|f| (f.lint.to_string(), f.path.clone(), f.line))
        .collect()
}

fn lints_and_lines(case: &str) -> Vec<(String, u32)> {
    scan(case).into_iter().map(|(l, _, n)| (l, n)).collect()
}

#[test]
fn d1_wall_clock_fires_and_respects_exemptions() {
    // Two findings in core; bench, test regions and the suppressed
    // site stay silent.
    assert_eq!(
        lints_and_lines("wall_clock"),
        vec![("wall-clock".to_string(), 5), ("wall-clock".to_string(), 9),]
    );
    let paths: Vec<String> = scan("wall_clock").into_iter().map(|(_, p, _)| p).collect();
    assert!(paths.iter().all(|p| p == "crates/core/src/timing.rs"));
}

#[test]
fn d2_unordered_iter_fires_only_on_the_leaky_loop() {
    // The `for` loop leaks order; the sorted, reduced and allowed sites
    // do not.
    assert_eq!(
        lints_and_lines("unordered_iter"),
        vec![("unordered-iter".to_string(), 6)]
    );
}

#[test]
fn d3_rng_stream_fires_on_collision_nonliteral_and_unregistered_domain() {
    assert_eq!(
        lints_and_lines("rng_stream"),
        vec![
            ("rng-stream".to_string(), 4),  // STREAM_DUP collides
            ("rng-stream".to_string(), 5),  // STREAM_RUNTIME non-literal
            ("rng-stream".to_string(), 10), // unregistered call-site domain
        ]
    );
}

#[test]
fn d4_event_bits_fires_on_shadow_multi_bit_and_bad_all() {
    assert_eq!(
        lints_and_lines("event_bits"),
        vec![
            ("event-bits".to_string(), 5), // SHADOW duplicates ADMIT
            ("event-bits".to_string(), 6), // WIDE is two bits
            ("event-bits".to_string(), 7), // ALL != union
            ("event-bits".to_string(), 8), // u16 WIDEBIT shadows FETCH
        ]
    );
}

#[test]
fn s1_safety_comment_fires_without_justification() {
    assert_eq!(
        lints_and_lines("safety_comment"),
        vec![("safety-comment".to_string(), 3)]
    );
}

#[test]
fn p1_no_panic_fires_on_unwrap_expect_and_panicking_macros() {
    assert_eq!(
        lints_and_lines("no_panic"),
        vec![
            ("no-panic".to_string(), 3),  // unwrap
            ("no-panic".to_string(), 7),  // expect
            ("no-panic".to_string(), 11), // panic!
            ("no-panic".to_string(), 15), // unreachable!
        ]
    );
}

#[test]
fn p1t_transitive_panics_fire_with_ambiguity_and_respect_leaf_allows() {
    // One-hop reachable unwrap; an indexing site reached only through
    // generic-dispatch over-approximation; a leaf-suppressed chain
    // (content.rs) staying quiet; a marker on a struct flagged as a
    // false root.
    assert_eq!(
        scan("transitive_panic"),
        vec![
            (
                "no-panic-transitive".to_string(),
                "crates/core/src/classifier.rs".to_string(),
                9,
            ),
            (
                "no-panic-transitive".to_string(),
                "crates/core/src/strategy.rs".to_string(),
                18,
            ),
            (
                "bad-root".to_string(),
                "crates/core/src/timing.rs".to_string(),
                3,
            ),
        ]
    );
    // The finding carries the full call chain, root first.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/transitive_panic");
    let report = langcrawl_lint::scan_path(&root).expect("fixture tree must be readable");
    let unwrap_finding = report
        .findings
        .iter()
        .find(|f| f.path.ends_with("classifier.rs"))
        .expect("classifier finding");
    assert!(
        unwrap_finding.message.contains("`classify` → `one_hop`"),
        "{}",
        unwrap_finding.message
    );
}

#[test]
fn p2t_transitive_allocs_fire_and_call_site_allows_sever() {
    // `Vec::new` one hop away and a std allocating call two hops away
    // both fire; the cold branch behind an edge-severing allow on its
    // call site stays quiet.
    assert_eq!(
        lints_and_lines("transitive_alloc"),
        vec![
            ("no-alloc-transitive".to_string(), 13),
            ("no-alloc-transitive".to_string(), 17),
        ]
    );
}

#[test]
fn separate_workspaces_are_not_scanned() {
    // `harness/` declares its own `[workspace]` and is skipped whole;
    // `member/` is an ordinary package and its wall-clock read fires.
    assert_eq!(
        scan("nested_workspace"),
        vec![("wall-clock".to_string(), "member/src/lib.rs".to_string(), 3)]
    );
}

#[test]
fn clean_tree_reports_nothing() {
    let report = langcrawl_lint::scan_path(
        &PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/clean"),
    )
    .expect("fixture tree must be readable");
    assert!(report.is_clean(), "{}", report.to_text());
    assert_eq!(report.files_scanned, 1);
}
