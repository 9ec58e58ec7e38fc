//! The `repro` binary end to end: harness selection, the dashboard and
//! its exit codes. Each case runs in its own process, so the env knobs
//! set here never reach another test.

use std::process::{Command, Output};

/// Run `repro` with `args` under `env`, all other langcrawl knobs unset.
/// `table1` is the cheapest harness: it builds no web space and writes
/// no files.
fn repro(args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.args(args)
        .env_remove("LANGCRAWL_SCALE")
        .env_remove("LANGCRAWL_SEED")
        .env_remove("LANGCRAWL_THREADS")
        .env_remove("LANGCRAWL_SNAPSHOT_EVERY");
    for (key, value) in env {
        cmd.env(key, value);
    }
    cmd.output().expect("repro binary must run")
}

#[test]
fn named_harness_runs_alone_through_the_dashboard() {
    let out = repro(&["table1"], &[]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    let rows: Vec<&str> = stdout
        .lines()
        .skip_while(|line| *line != "== dashboard ==")
        .skip(1)
        .take_while(|line| !line.is_empty())
        .collect();
    assert_eq!(rows.len(), 1, "{stdout}");
    let cells: Vec<&str> = rows[0].split_whitespace().collect();
    assert_eq!(cells[..2], ["table1", "pass"], "{stdout}");
    assert!(stdout.contains("1 of 1 harnesses clean"), "{stdout}");
}

#[test]
fn unknown_harness_exits_2_naming_the_valid_ones() {
    let out = repro(&["nosuch"], &[]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("nosuch"), "{stderr}");
    for name in ["table1", "fig3", "wider_languages"] {
        assert!(stderr.contains(name), "must list `{name}`: {stderr}");
    }
    assert!(out.stdout.is_empty(), "no harness may run");
}

#[test]
fn bad_knob_exits_2_naming_the_variable() {
    for (knob, value) in [
        ("LANGCRAWL_SCALE", "abc"),
        ("LANGCRAWL_SCALE", "0"),
        ("LANGCRAWL_SEED", "-1"),
        ("LANGCRAWL_THREADS", "lots"),
        ("LANGCRAWL_THREADS", "0"),
        ("LANGCRAWL_SNAPSHOT_EVERY", "soon"),
        ("LANGCRAWL_SNAPSHOT_EVERY", "0"),
    ] {
        let out = repro(&["table1"], &[(knob, value)]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{knob}={value}: {stderr}");
        assert!(stderr.contains(&format!("{knob}=\"{value}\"")), "{stderr}");
        assert!(out.stdout.is_empty(), "no harness may run");
    }
}
