//! Scheduler conformance: the virtual-time scheduler at `K = 1` with
//! zero politeness must be **bit-identical** to the legacy engine, and
//! multi-slot schedules must themselves be pinned and thread-invariant.
//!
//! Three layers of pinning:
//!
//! 1. A single-slot scheduled run is hashed against the *same* golden
//!    constants the `fault_conformance` suite pins for the legacy
//!    engine (captured before the fault subsystem existed). Any
//!    divergence between the two run paths — ordering, sampling,
//!    counters, visit order — shows up as a hash mismatch here.
//! 2. Multi-slot runs (`K ∈ {2, 8}`) get their own golden hashes: the
//!    schedule is a pure function of (space seed, config), so these pin
//!    the scheduler's tie-break discipline across time. Politeness
//!    schedules (`K = 4` gap 2±1, `K = 16` gap 6±2, and `K = 8` gap 2±1
//!    over a 10% fault rate) are pinned the same way, their hashes
//!    extended with the makespan, the retry counters, every
//!    `SchedStatsSink` counter and the per-shard load counters.
//! 3. The same hashes are asserted under different `LANGCRAWL_THREADS`
//!    settings (which parallelize space *generation*): the constants
//!    are absolute, so running this binary under any thread count — as
//!    CI does — proves thread-invariance end to end, and the in-process
//!    sweep below re-generates the space under several settings for
//!    good measure.

use langcrawl_core::classifier::{Classifier, MetaClassifier, OracleClassifier};
use langcrawl_core::engine::{CrawlEngine, EngineConfig, EngineOutcome, EngineScratch};
use langcrawl_core::event::{EventSink, MetricsSampler, SchedStatsSink, VisitRecorder};
use langcrawl_core::metrics::{CrawlReport, Sample};
use langcrawl_core::sched::SchedConfig;
use langcrawl_core::shard::ShardStats;
use langcrawl_core::sim::{SimConfig, Simulator};
use langcrawl_core::strategy::{BreadthFirst, LimitedDistanceStrategy, SimpleStrategy, Strategy};
use langcrawl_webgraph::{FaultConfig, GeneratorConfig};

/// FNV-1a over the pre-fault-model report fields — byte-for-byte the
/// same folding as `fault_conformance::report_hash`, so hashes are
/// comparable across the two suites. (`ticks` and the fault counters
/// are deliberately excluded: the legacy goldens predate them.)
fn report_hash(r: &CrawlReport) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut fold_bytes = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(PRIME);
        }
    };
    fold_bytes(r.strategy.as_bytes());
    fold_bytes(r.classifier.as_bytes());
    let mut fold = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(PRIME);
        }
    };
    fold(r.samples.len() as u64);
    for s in &r.samples {
        fold(s.crawled);
        fold(s.relevant);
        fold(s.queue_size as u64);
    }
    fold(r.crawled);
    fold(r.relevant_crawled);
    fold(r.total_relevant);
    fold(r.max_queue as u64);
    fold(r.total_pushes);
    fold(r.visited.len() as u64);
    for &v in &r.visited {
        fold(v as u64);
    }
    h
}

/// The pinned space: same preset/scale/seed as `fault_conformance` and
/// `engine_parity`.
fn space() -> langcrawl_webgraph::WebSpace {
    GeneratorConfig::thai_like().scaled(12_000).build(41)
}

/// The three pinned strategy/classifier pairs, run under the scheduler
/// with `k` slots and zero politeness.
fn scheduled_runs(ws: &langcrawl_webgraph::WebSpace, k: u32) -> Vec<(&'static str, CrawlReport)> {
    scheduled_runs_sharded(ws, k, 0)
}

/// Same, with an explicit shard count. `shards > 0` forces the sharded
/// frontier even at `K = 1`, where the default (`0`) elides it.
fn scheduled_runs_sharded(
    ws: &langcrawl_webgraph::WebSpace,
    k: u32,
    shards: u32,
) -> Vec<(&'static str, CrawlReport)> {
    let mut config = SimConfig::default().with_visit_recording().with_workers(k);
    if shards > 0 {
        config = config.with_shards(shards);
    }
    let mut sim = Simulator::new(ws, config);
    vec![
        (
            "breadth_first/oracle",
            sim.run(
                &mut BreadthFirst::new(),
                &OracleClassifier::target(ws.target_language()),
            ),
        ),
        (
            "soft_focused/meta",
            sim.run(
                &mut SimpleStrategy::soft(),
                &MetaClassifier::target(ws.target_language()),
            ),
        ),
        (
            "limited_distance_3/oracle",
            sim.run(
                &mut LimitedDistanceStrategy::prioritized(3),
                &OracleClassifier::target(ws.target_language()),
            ),
        ),
    ]
}

// The legacy-engine goldens, copied verbatim from `fault_conformance`
// (captured from the pre-fault-model engine): a `K = 1`, politeness-0
// scheduled run must reproduce them exactly.
const GOLDEN_BF: u64 = 0x5af6_b0d1_35f4_3b35;
const GOLDEN_SOFT: u64 = 0x8cbf_d1f5_bf63_739f;
const GOLDEN_LIMITED: u64 = 0x6080_ba7a_e671_6b67;

// Multi-slot goldens, captured from the scheduler at introduction.
// Regenerate only for a deliberate, documented schedule change; on
// mismatch the test prints the observed values.
const GOLDEN_K2: [u64; 3] = [
    0x9e92_bf6c_6a79_dc0e, // breadth_first/oracle
    0x1b21_af96_4b40_f9db, // soft_focused/meta
    0xae79_a33a_f27e_64a6, // limited_distance_3/oracle
];
const GOLDEN_K8: [u64; 3] = [
    0x18ba_6448_afa8_6b58, // breadth_first/oracle
    0xe3fc_e642_5692_c557, // soft_focused/meta
    0xe1c6_e933_dab2_3754, // limited_distance_3/oracle
];

#[test]
fn single_slot_scheduled_runs_match_legacy_goldens() {
    let ws = space();
    let mut bad = Vec::new();
    for ((name, report), golden) in
        scheduled_runs(&ws, 1)
            .iter()
            .zip([GOLDEN_BF, GOLDEN_SOFT, GOLDEN_LIMITED])
    {
        let got = report_hash(report);
        if got != golden {
            bad.push(format!(
                "{name}: K=1 scheduled hash {got:#018x} != legacy golden {golden:#018x}"
            ));
        }
    }
    assert!(bad.is_empty(), "{}", bad.join("\n"));
}

/// The same pinning with the frontier elision defeated: an explicit
/// shard count forces a `K = 1` schedule *through the sharded
/// frontier*, at one shard and several. Any shard-count-dependent
/// ordering, accounting, or handoff effect on the crawl shows up here.
#[test]
fn single_slot_sharded_schedules_match_legacy_goldens() {
    let ws = space();
    let mut bad = Vec::new();
    for shards in [1u32, 4] {
        for ((name, report), golden) in scheduled_runs_sharded(&ws, 1, shards).iter().zip([
            GOLDEN_BF,
            GOLDEN_SOFT,
            GOLDEN_LIMITED,
        ]) {
            let got = report_hash(report);
            if got != golden {
                bad.push(format!(
                    "{name}: K=1 {shards}-shard hash {got:#018x} != legacy golden {golden:#018x}"
                ));
            }
        }
    }
    assert!(bad.is_empty(), "{}", bad.join("\n"));
}

#[test]
fn multi_slot_schedules_match_their_goldens() {
    let ws = space();
    let mut bad = Vec::new();
    for (k, goldens) in [(2u32, GOLDEN_K2), (8, GOLDEN_K8)] {
        for ((name, report), golden) in scheduled_runs(&ws, k).iter().zip(goldens) {
            let got = report_hash(report);
            if got != golden {
                bad.push(format!(
                    "{name}: K={k} hash {got:#018x} != golden {golden:#018x}"
                ));
            }
        }
    }
    assert!(bad.is_empty(), "{}", bad.join("\n"));
}

/// Multi-slot schedules do the same *work* as the legacy engine — same
/// pages, same harvest — they only overlap fetches in time, shrinking
/// the makespan. (The visit *order* differs, which is why K>1 has its
/// own goldens above. Push *totals* are only order-independent under
/// breadth-first, where all admission keys are equal; prioritizing
/// strategies accept a re-prioritization only when it is strictly
/// better *at that moment*, so their totals move with the schedule.)
#[test]
fn multi_slot_schedules_preserve_totals_and_shrink_makespan() {
    let ws = space();
    let k1 = scheduled_runs(&ws, 1);
    for k in [2u32, 8] {
        for ((name, base), (_, run)) in k1.iter().zip(scheduled_runs(&ws, k)) {
            assert_eq!(run.crawled, base.crawled, "{name} K={k}");
            assert_eq!(run.relevant_crawled, base.relevant_crawled, "{name} K={k}");
            if *name == "breadth_first/oracle" {
                assert_eq!(run.total_pushes, base.total_pushes, "{name} K={k}");
            }
            assert!(
                run.ticks < base.ticks,
                "{name} K={k}: makespan {} must beat K=1's {}",
                run.ticks,
                base.ticks
            );
        }
    }
}

/// Re-generate the space and re-run the schedule under several
/// `LANGCRAWL_THREADS` settings in-process: every hash must stay put.
/// (Generation reads the variable afresh per build; determinism of the
/// per-host PRNG streams makes the space identical for any chunking, and
/// the scheduler never looks at thread count at all.)
#[test]
fn schedules_are_invariant_across_thread_settings() {
    let mut baseline: Option<Vec<u64>> = None;
    for threads in ["1", "4"] {
        std::env::set_var("LANGCRAWL_THREADS", threads);
        let ws = space();
        let mut hashes = Vec::new();
        for k in [1u32, 2, 8] {
            for (_, report) in scheduled_runs(&ws, k) {
                hashes.push(report_hash(&report));
            }
        }
        match &baseline {
            None => baseline = Some(hashes),
            Some(b) => assert_eq!(
                b, &hashes,
                "schedule hashes changed under LANGCRAWL_THREADS={threads}"
            ),
        }
    }
    std::env::remove_var("LANGCRAWL_THREADS");
}

/// FNV-1a over a politeness-schedule run: the same report fields as
/// [`report_hash`] (built from the engine outcome and the sampler and
/// visit sinks, since `CrawlReport` hides its constructor), then the
/// makespan, the retry counters, every [`SchedStatsSink`] counter and
/// the per-shard load counters — the whole observable schedule.
fn schedule_hash(
    name: &str,
    outcome: &EngineOutcome,
    samples: &[Sample],
    visited: &[u32],
    total_relevant: u64,
    stats: &SchedStatsSink,
    shards: &[ShardStats],
) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in name.as_bytes() {
        h = (h ^ b as u64).wrapping_mul(PRIME);
    }
    let mut fold = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(PRIME);
        }
    };
    fold(samples.len() as u64);
    for s in samples {
        fold(s.crawled);
        fold(s.relevant);
        fold(s.queue_size as u64);
    }
    fold(outcome.crawled);
    fold(outcome.relevant_crawled);
    fold(total_relevant);
    fold(outcome.max_pending as u64);
    fold(outcome.total_pushes);
    fold(visited.len() as u64);
    for &v in visited {
        fold(v as u64);
    }
    fold(outcome.ticks);
    fold(outcome.attempts);
    fold(outcome.retries);
    fold(outcome.gave_up);
    fold(stats.idle_slot_ticks);
    fold(stats.idle_events);
    fold(stats.politeness_waits);
    fold(stats.handoff_events);
    fold(stats.crossed_links);
    fold(shards.len() as u64);
    for s in shards {
        fold(s.pushes);
        fold(s.pops);
        fold(s.handoffs_in);
    }
    h
}

/// One pinned strategy/classifier pair, by name.
type PinnedRun = (&'static str, Box<dyn Strategy>, Box<dyn Classifier>);

/// The three pinned strategy/classifier pairs under an arbitrary
/// schedule (politeness, faults), hashed with [`schedule_hash`].
fn politeness_runs(
    ws: &langcrawl_webgraph::WebSpace,
    sched: SchedConfig,
    fault: FaultConfig,
) -> Vec<(&'static str, u64)> {
    let faulty = fault.transient_rate > 0.0;
    let engine = CrawlEngine::new(
        ws,
        EngineConfig {
            fault,
            ..EngineConfig::default()
        },
    );
    let lang = ws.target_language();
    let mut out = Vec::new();
    let runs: [PinnedRun; 3] = [
        (
            "breadth_first/oracle",
            Box::new(BreadthFirst::new()),
            Box::new(OracleClassifier::target(lang)),
        ),
        (
            "soft_focused/meta",
            Box::new(SimpleStrategy::soft()),
            Box::new(MetaClassifier::target(lang)),
        ),
        (
            "limited_distance_3/oracle",
            Box::new(LimitedDistanceStrategy::prioritized(3)),
            Box::new(OracleClassifier::target(lang)),
        ),
    ];
    for (name, mut strategy, classifier) in runs {
        let mut metrics = MetricsSampler::new();
        let mut visits = VisitRecorder::new();
        let mut stats = SchedStatsSink::new();
        let mut scratch = EngineScratch::new();
        let (outcome, shards) = {
            let mut sinks: [&mut dyn EventSink; 3] = [&mut metrics, &mut visits, &mut stats];
            engine.run_scheduled_full(
                &sched,
                strategy.as_mut(),
                classifier.as_ref(),
                &mut sinks,
                &mut scratch,
            )
        };
        // The cells must exercise what they pin.
        assert!(stats.politeness_waits > 0, "{name}: no politeness wait");
        assert!(!faulty || outcome.retries > 0, "{name}: no retry");
        let h = schedule_hash(
            name,
            &outcome,
            &metrics.into_samples(),
            &visits.into_visited(),
            ws.total_relevant() as u64,
            &stats,
            &shards,
        );
        out.push((name, h));
    }
    out
}

fn polite(slots: u32, gap: u64, spread: u64) -> SchedConfig {
    SchedConfig {
        slots,
        shards: 0,
        politeness_gap: gap,
        politeness_spread: spread,
    }
}

// Politeness-schedule goldens, captured before the sharded frontier's
// ring-backed rewrite: cool-down order, politeness waits, idle slot
// ticks and shard accounting are pinned here, not only by the
// zero-politeness goldens above. Regenerate only for a deliberate,
// documented schedule change; on mismatch the test prints the observed
// values.
const GOLDEN_K4_GAP2: [u64; 3] = [
    0x15d6_4b1d_a270_2294, // breadth_first/oracle
    0xe17f_62b8_c721_b312, // soft_focused/meta
    0xabca_652a_60c8_cd20, // limited_distance_3/oracle
];
const GOLDEN_K16_GAP6: [u64; 3] = [
    0x373f_f177_95d6_cb2c, // breadth_first/oracle
    0xe81e_3842_46d2_76b6, // soft_focused/meta
    0xc70f_3d57_3f5d_7552, // limited_distance_3/oracle
];
const GOLDEN_K8_GAP2_FAULTS: [u64; 3] = [
    0xe068_4fde_b1cc_70bd, // breadth_first/oracle
    0x4c77_ed61_30c5_c7d0, // soft_focused/meta
    0x4653_e558_f1e6_b25f, // limited_distance_3/oracle
];

#[test]
fn politeness_schedules_match_their_goldens() {
    let ws = space();
    let cells = [
        (
            "K=4 gap 2±1",
            polite(4, 2, 1),
            FaultConfig::default(),
            GOLDEN_K4_GAP2,
        ),
        (
            "K=16 gap 6±2",
            polite(16, 6, 2),
            FaultConfig::default(),
            GOLDEN_K16_GAP6,
        ),
        (
            "K=8 gap 2±1 faults 0.1",
            polite(8, 2, 1),
            FaultConfig::with_rate(0.1),
            GOLDEN_K8_GAP2_FAULTS,
        ),
    ];
    let mut bad = Vec::new();
    for (cell, sched, fault, goldens) in cells {
        for ((name, got), golden) in politeness_runs(&ws, sched, fault).into_iter().zip(goldens) {
            if got != golden {
                bad.push(format!(
                    "{name} {cell}: hash {got:#018x} != golden {golden:#018x}"
                ));
            }
        }
    }
    assert!(bad.is_empty(), "{}", bad.join("\n"));
}
