//! Property and corruption tests for the crawl snapshot codec.
//!
//! Round-trip: over random spaces, schedules, fault rates, budgets and
//! strategies, every snapshot a capture run emits (a) survives
//! `to_bytes` → `from_bytes` unchanged and (b) resumes into the exact
//! uninterrupted end state. Corruption: truncation at any length, any
//! single flipped byte, wrong version tags, foreign magic and appended
//! garbage all come back as typed [`SnapshotError`]s — never a panic —
//! and resuming against the wrong space, engine config or strategy
//! shape is refused before any state is touched.

use langcrawl_core::classifier::{Classifier, OracleClassifier};
use langcrawl_core::engine::{CrawlEngine, EngineConfig, EngineOutcome};
use langcrawl_core::event::{EventSink, VisitRecorder};
use langcrawl_core::retry::RetryPolicy;
use langcrawl_core::sched::SchedConfig;
use langcrawl_core::sim::{SimConfig, Simulator};
use langcrawl_core::strategy::{BreadthFirst, LimitedDistanceStrategy, SimpleStrategy, Strategy};
use langcrawl_core::{CrawlSnapshot, SnapshotError, SnapshotLog};
use langcrawl_minicheck::{check, Gen};
use langcrawl_webgraph::{FaultConfig, GeneratorConfig, PageId, WebSpace};

fn arb_space(g: &mut Gen) -> WebSpace {
    let scale = g.u32(600..2_200);
    let seed = g.u64(1..1_000);
    GeneratorConfig::thai_like().scaled(scale).build(seed)
}

fn arb_sched(g: &mut Gen) -> SchedConfig {
    SchedConfig {
        slots: g.u32(1..8),
        shards: g.u32(0..4),
        politeness_gap: g.u64(0..3),
        politeness_spread: g.u64(0..3),
    }
}

fn arb_config(g: &mut Gen, ws: &WebSpace) -> EngineConfig {
    EngineConfig {
        max_pages: g.option(|g| g.u64(100..700)),
        fault: if g.bool(0.5) {
            FaultConfig::with_rate(g.f64(0.05..0.3))
        } else {
            ws.fault().clone()
        },
        ..EngineConfig::default()
    }
}

/// Outcome plus visit order — the observable footprint compared across
/// interrupted and uninterrupted runs.
fn run_to_end(
    engine: &CrawlEngine<'_>,
    sched: &SchedConfig,
    strategy: &mut dyn Strategy,
    classifier: &dyn Classifier,
) -> (EngineOutcome, Vec<PageId>) {
    let mut visits = VisitRecorder::new();
    let outcome = {
        let mut sinks: [&mut dyn EventSink; 1] = [&mut visits];
        engine.run_scheduled(sched, strategy, classifier, &mut sinks)
    };
    (outcome, visits.into_visited())
}

/// Round-trip + resume-equality over arbitrary configurations: the
/// engine-level analogue of `resume_parity`'s pinned matrix.
#[test]
fn arbitrary_snapshots_roundtrip_and_resume_to_the_same_end_state() {
    check(24, |g| {
        let ws = arb_space(g);
        let sched = arb_sched(g);
        let config = arb_config(g, &ws);
        let engine = CrawlEngine::new(&ws, config);
        let classifier = OracleClassifier::target(ws.target_language());
        let kind = g.u8(0..=2);
        let strategy_of = |k: u8| -> Box<dyn Strategy> {
            match k {
                0 => Box::new(BreadthFirst::new()),
                1 => Box::new(SimpleStrategy::soft()),
                _ => Box::new(LimitedDistanceStrategy::prioritized(3)),
            }
        };
        let (full_outcome, full_visits) =
            run_to_end(&engine, &sched, strategy_of(kind).as_mut(), &classifier);
        let every = g.u64(1..(full_outcome.ticks / 2).max(2));
        let mut log = SnapshotLog::new();
        let (cap_outcome, _) = {
            let mut visits = VisitRecorder::new();
            let mut sinks: [&mut dyn EventSink; 1] = [&mut visits];
            engine.run_scheduled_snapshots(
                &sched,
                strategy_of(kind).as_mut(),
                &classifier,
                &mut sinks,
                every,
                &mut log,
            )
        };
        assert_eq!(cap_outcome, full_outcome, "capture perturbed the crawl");
        assert!(!log.is_empty(), "no snapshot captured at every={every}");
        let (_, bytes) = &log.snapshots()[g.usize(0..log.len())];
        let snap = CrawlSnapshot::from_bytes(bytes).expect("captured snapshot must parse");
        assert_eq!(
            CrawlSnapshot::from_bytes(&snap.to_bytes()).expect("re-encoded bytes must parse"),
            snap,
            "to_bytes/from_bytes round trip changed the snapshot"
        );
        let (resumed_outcome, resumed_visits) = {
            let mut strategy = strategy_of(kind);
            let mut visits = VisitRecorder::new();
            let mut sinks: [&mut dyn EventSink; 1] = [&mut visits];
            let (o, _) = engine
                .resume(&snap, strategy.as_mut(), &classifier, &mut sinks)
                .expect("snapshot from a capture run must resume");
            (o, visits.into_visited())
        };
        assert_eq!(resumed_outcome, full_outcome, "resumed outcome diverged");
        assert_eq!(
            resumed_visits,
            full_visits[snap.crawled() as usize..],
            "resumed visits are not the uninterrupted suffix"
        );
    });
}

/// One pinned mid-crawl snapshot for the corruption tests.
fn fixture() -> (WebSpace, EngineConfig, Vec<u8>) {
    let ws = GeneratorConfig::thai_like().scaled(2_000).build(7);
    let config = EngineConfig {
        fault: FaultConfig::with_rate(0.2),
        ..EngineConfig::default()
    };
    let engine = CrawlEngine::new(&ws, config.clone());
    let sched = SchedConfig {
        slots: 4,
        ..SchedConfig::default()
    };
    let mut log = SnapshotLog::new();
    let mut strategy = SimpleStrategy::soft();
    let classifier = OracleClassifier::target(ws.target_language());
    let mut sinks: [&mut dyn EventSink; 0] = [];
    engine.run_scheduled_snapshots(
        &sched,
        &mut strategy,
        &classifier,
        &mut sinks,
        150,
        &mut log,
    );
    let (_, bytes) = &log.snapshots()[log.len() / 2];
    (ws, config, bytes.clone())
}

/// Truncating the file at *any* length yields a typed error, never a
/// panic and never a silently shortened crawl.
#[test]
fn every_truncation_is_rejected() {
    let (_, _, bytes) = fixture();
    // Every length near the header plus a sweep through the payload.
    let mut cuts: Vec<usize> = (0..32.min(bytes.len())).collect();
    cuts.extend((0..bytes.len()).step_by(97));
    cuts.push(bytes.len() - 1);
    for cut in cuts {
        let err = CrawlSnapshot::from_bytes(&bytes[..cut])
            .expect_err("truncated snapshot must not parse");
        assert!(
            matches!(
                err,
                SnapshotError::Truncated
                    | SnapshotError::BadMagic
                    | SnapshotError::UnsupportedVersion(_)
            ),
            "cut at {cut}: unexpected error {err:?}"
        );
    }
}

/// Any single flipped byte — header, length, payload or checksum — is
/// caught. The checksum covers the payload; the frame fields are each
/// validated structurally.
#[test]
fn every_single_byte_flip_is_rejected() {
    let (_, _, bytes) = fixture();
    check(64, |g| {
        let i = g.usize(0..bytes.len());
        let mut bad = bytes.clone();
        bad[i] ^= 1 << g.u8(0..=7);
        CrawlSnapshot::from_bytes(&bad).expect_err("a corrupted snapshot must not parse");
    });
}

#[test]
fn flipped_checksum_byte_is_a_checksum_mismatch() {
    let (_, _, mut bytes) = fixture();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x40;
    assert_eq!(
        CrawlSnapshot::from_bytes(&bytes).unwrap_err(),
        SnapshotError::ChecksumMismatch
    );
}

#[test]
fn wrong_version_tag_is_unsupported() {
    let (_, _, mut bytes) = fixture();
    // The version u32 sits right after the 8-byte magic.
    bytes[8] = 99;
    assert_eq!(
        CrawlSnapshot::from_bytes(&bytes).unwrap_err(),
        SnapshotError::UnsupportedVersion(99)
    );
}

#[test]
fn foreign_magic_is_rejected() {
    let (_, _, mut bytes) = fixture();
    bytes[0] = b'X';
    assert_eq!(
        CrawlSnapshot::from_bytes(&bytes).unwrap_err(),
        SnapshotError::BadMagic
    );
}

#[test]
fn appended_garbage_is_rejected() {
    let (_, _, mut bytes) = fixture();
    bytes.push(0);
    assert_eq!(
        CrawlSnapshot::from_bytes(&bytes).unwrap_err(),
        SnapshotError::Malformed("trailing bytes after checksum")
    );
}

/// Resuming against a *different* space — regenerated from another seed
/// — is refused by the fingerprint check before any decoding of state.
#[test]
fn mismatched_space_fingerprint_is_rejected() {
    let (_, config, bytes) = fixture();
    let snap = CrawlSnapshot::from_bytes(&bytes).expect("fixture must parse");
    let other = GeneratorConfig::thai_like().scaled(2_000).build(8);
    let engine = CrawlEngine::new(&other, config);
    let mut strategy = SimpleStrategy::soft();
    let classifier = OracleClassifier::target(other.target_language());
    let mut sinks: [&mut dyn EventSink; 0] = [];
    let err = engine
        .resume(&snap, &mut strategy, &classifier, &mut sinks)
        .expect_err("resume on the wrong space must be refused");
    assert!(
        matches!(err, SnapshotError::SpaceMismatch { .. }),
        "unexpected error {err:?}"
    );
    // verify_space reports the same refusal without an engine.
    assert!(snap.verify_space(&other).is_err());
}

/// Resuming under a different engine configuration (here: another
/// retry policy) is refused — a checkpoint cannot silently continue
/// under different crawl semantics.
#[test]
fn mismatched_engine_config_is_rejected() {
    let (ws, config, bytes) = fixture();
    let snap = CrawlSnapshot::from_bytes(&bytes).expect("fixture must parse");
    let engine = CrawlEngine::new(
        &ws,
        EngineConfig {
            retry: RetryPolicy {
                max_attempts: 7,
                ..config.retry
            },
            ..config
        },
    );
    let mut strategy = SimpleStrategy::soft();
    let classifier = OracleClassifier::target(ws.target_language());
    let mut sinks: [&mut dyn EventSink; 0] = [];
    assert_eq!(
        engine
            .resume(&snap, &mut strategy, &classifier, &mut sinks)
            .unwrap_err(),
        SnapshotError::ConfigMismatch("engine configuration")
    );
}

/// Resuming with a strategy of a different shape (level count) is
/// refused — the frontier's ring structure would not line up.
#[test]
fn mismatched_strategy_shape_is_rejected() {
    let (ws, config, bytes) = fixture();
    let snap = CrawlSnapshot::from_bytes(&bytes).expect("fixture must parse");
    let engine = CrawlEngine::new(&ws, config);
    // The fixture crawled with soft (2 levels); breadth-first has 1.
    let mut strategy = BreadthFirst::new();
    let classifier = OracleClassifier::target(ws.target_language());
    let mut sinks: [&mut dyn EventSink; 0] = [];
    assert_eq!(
        engine
            .resume(&snap, &mut strategy, &classifier, &mut sinks)
            .unwrap_err(),
        SnapshotError::ConfigMismatch("strategy level count")
    );
}

/// Arbitrary byte soup never panics the decoder.
#[test]
fn random_bytes_never_panic_the_decoder() {
    check(128, |g| {
        let noise = g.bytes(0..200);
        let _ = CrawlSnapshot::from_bytes(&noise);
    });
}

/// The config-driven wiring end to end: a `Simulator` with
/// `with_snapshot_every` and `LANGCRAWL_SNAPSHOT_DIR` set writes framed
/// `crawl-*.snap` files that parse and resume into the reported end
/// state. (The only test in this binary that touches the variable.)
#[test]
fn simulator_env_wiring_writes_resumable_files() {
    let dir = std::env::temp_dir().join(format!("langcrawl-snap-wiring-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let prior = std::env::var("LANGCRAWL_SNAPSHOT_DIR").ok();
    std::env::set_var("LANGCRAWL_SNAPSHOT_DIR", &dir);
    let ws = GeneratorConfig::thai_like().scaled(2_000).build(7);
    let mut sim = Simulator::new(
        &ws,
        SimConfig::default()
            .with_workers(4)
            .with_snapshot_every(300),
    );
    let report = sim.run(
        &mut SimpleStrategy::soft(),
        &OracleClassifier::target(ws.target_language()),
    );
    match prior {
        Some(v) => std::env::set_var("LANGCRAWL_SNAPSHOT_DIR", v),
        None => std::env::remove_var("LANGCRAWL_SNAPSHOT_DIR"),
    }
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("snapshot dir must exist")
        .map(|e| e.expect("dir entry").path())
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no snapshot files written to {dir:?}");
    for p in &files {
        let name = p.file_name().and_then(|n| n.to_str()).unwrap_or_default();
        assert!(
            name.starts_with("crawl-") && name.ends_with(".snap"),
            "only finished snapshots may remain, found {name:?}"
        );
    }
    let bytes = std::fs::read(&files[files.len() / 2]).expect("snapshot file must read");
    let snap = CrawlSnapshot::from_bytes(&bytes).expect("written snapshot must parse");
    snap.verify_space(&ws).expect("fingerprint must match");
    let engine = CrawlEngine::new(
        &ws,
        EngineConfig {
            snapshot_every: Some(300),
            fault: ws.fault().clone(),
            ..EngineConfig::default()
        },
    );
    let mut strategy = SimpleStrategy::soft();
    let classifier = OracleClassifier::target(ws.target_language());
    let mut sinks: [&mut dyn EventSink; 0] = [];
    let (outcome, _) = engine
        .resume(&snap, &mut strategy, &classifier, &mut sinks)
        .expect("written snapshot must resume");
    assert_eq!(outcome.crawled, report.crawled);
    assert_eq!(outcome.relevant_crawled, report.relevant_crawled);
    let _ = std::fs::remove_dir_all(&dir);
}
