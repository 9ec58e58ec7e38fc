//! Runs every workload once at tiny scale, untraced and traced, and
//! checks that every metric `BENCHMARK.json` names is emitted and that
//! the output check passes (pinned digests included: seed 1 is the
//! default seed).

use std::process::Command;

/// `name` fields of one section of `BENCHMARK.json`.
fn names(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json next to the benchmark directory");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

fn run(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_crawlbench"))
        .args(["--workload", workload, "--seed", "1", "--seconds", "1"])
        .args(["--trace", trace, "--scale", "tiny"])
        .args(["--out", env!("CARGO_TARGET_TMPDIR")])
        .output()
        .expect("benchmark binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{workload} trace={trace}: {stderr}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().unwrap_or("").to_string();
    assert!(
        last.starts_with("{\"correct\":true,") && last.contains("\"failed\":0,"),
        "{workload} trace={trace} failed its output check: {last}\n{stderr}"
    );
    last
}

#[test]
fn every_workload_emits_every_metric_and_passes_its_check() {
    let workloads = names("workloads");
    assert_eq!(workloads.len(), 4);
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let wanted = names(section);
        assert!(!wanted.is_empty());
        for w in &workloads {
            let last = run(w, trace);
            for name in &wanted {
                assert!(
                    last.contains(&format!("\"{name}\":{{\"value\":")),
                    "{w} trace={trace} does not emit {name}: {last}"
                );
            }
            let emitted = last.matches("\"value\":").count();
            assert_eq!(
                emitted,
                wanted.len(),
                "{w} trace={trace} emits extra metrics"
            );
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_crawlbench"))
        .args([
            "--workload",
            "no_such",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
