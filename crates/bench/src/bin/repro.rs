//! The reproduction entry point: run the table/figure/ablation harnesses and
//! report one pass/fail dashboard — the "does this repository still
//! reproduce the paper?" button.
//!
//! With no arguments every harness in [`harnesses::ALL`] runs, with
//! `LANGCRAWL_SCALE` pinned to 40000 when unset. Named harnesses run
//! alone, each at its own default scale. Everything runs in-process:
//! all harnesses share one [`langcrawl_webgraph::SpaceCache`], so each
//! `(preset, scale, seed)` web space is generated once per invocation.
//!
//! Exits 0 when every harness is clean, 1 on any shape-check MISMATCH
//! or crash, and 2 on an unknown harness name or an invalid
//! `LANGCRAWL_SCALE`, `LANGCRAWL_SEED`, `LANGCRAWL_THREADS` or
//! `LANGCRAWL_SNAPSHOT_EVERY`.
//!
//! ```sh
//! cargo run --release -p langcrawl-bench --bin repro
//! cargo run --release -p langcrawl-bench --bin repro -- fig3 table1
//! LANGCRAWL_SCALE=120000 cargo run --release -p langcrawl-bench --bin repro
//! ```

use langcrawl_bench::{figures, harnesses, runner};
use std::panic::catch_unwind;
use std::process::exit;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let selected: Vec<(&str, fn())> = if args.is_empty() {
        // Harnesses read LANGCRAWL_SCALE themselves; pin the default so
        // a bare `repro` matches the historical 40k dashboard scale.
        if std::env::var_os("LANGCRAWL_SCALE").is_none() {
            std::env::set_var("LANGCRAWL_SCALE", "40000");
        }
        harnesses::ALL.to_vec()
    } else {
        args.iter().map(|arg| lookup(arg)).collect()
    };
    if let Err(msg) = check_env() {
        eprintln!("repro: {msg}");
        exit(2);
    }

    let scale = std::env::var("LANGCRAWL_SCALE").unwrap_or_else(|_| "per-harness default".into());
    println!("== langcrawl reproduction check (LANGCRAWL_SCALE={scale}) ==\n");
    let mut rows = Vec::new();
    let mut failures = 0usize;
    let started = Instant::now();
    for (name, run) in selected {
        println!("--- {name} ---");
        figures::reset_counts();
        let t0 = Instant::now();
        let outcome = catch_unwind(run);
        let secs = t0.elapsed().as_secs_f64();
        let (checks, mismatches) = figures::take_counts();
        let status = match outcome {
            Ok(()) if mismatches == 0 => "pass",
            Ok(()) => "FAIL",
            Err(_) => "CRASH",
        };
        if status != "pass" {
            failures += 1;
        }
        println!();
        rows.push((name, status, checks - mismatches, mismatches, secs));
    }
    println!("== dashboard ==");
    for (name, status, oks, mismatches, secs) in &rows {
        println!(
            "  {name:<22} {status:<8} {oks:>2} checks ok, {mismatches} mismatched   ({secs:.1}s)"
        );
    }
    println!(
        "\n{} of {} harnesses clean in {:.0}s (web spaces cached: {})",
        rows.len() - failures,
        rows.len(),
        started.elapsed().as_secs_f64(),
        langcrawl_webgraph::SpaceCache::global().len(),
    );
    if failures > 0 {
        exit(1);
    }
    println!("the reproduction holds.");
}

/// The registered harness called `name`; exits 2 listing the valid
/// names when there is none.
fn lookup(name: &str) -> (&'static str, fn()) {
    harnesses::ALL
        .iter()
        .copied()
        .find(|&(known, _)| known == name)
        .unwrap_or_else(|| {
            let valid: Vec<&str> = harnesses::ALL.iter().map(|&(known, _)| known).collect();
            eprintln!(
                "repro: unknown harness `{name}`\nusage: repro [harness…]\nvalid harnesses: {}",
                valid.join(" ")
            );
            exit(2)
        })
}

/// Read every environment knob once up front, so a bad value stops the
/// run with its message instead of crashing every harness. The readers
/// panic on a bad value; the default panic hook is muted meanwhile so
/// the message prints once.
fn check_env() -> Result<(), String> {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let checked = catch_unwind(|| {
        runner::env_scale(1);
        runner::env_seed();
        runner::env_snapshot_every();
        langcrawl_webgraph::parallel::effective_threads();
    });
    std::panic::set_hook(hook);
    checked.map_err(|payload| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "invalid langcrawl environment knob".into())
    })
}
