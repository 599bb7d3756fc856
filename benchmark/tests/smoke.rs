//! Drives `benchmark/run.sh --smoke` over every workload of `BENCHMARK.json`,
//! timed and traced, and holds what it prints against that file.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("benchmark/ has a parent").to_owned()
}

/// The `"name"` of every object in the array under `key` of `BENCHMARK.json`.
fn names_under(spec: &str, key: &str) -> Vec<String> {
    let at = spec.find(&format!("\"{key}\"")).unwrap_or_else(|| panic!("no key {key}"));
    let open = at + spec[at..].find('[').expect("an array");
    let close = open + spec[open..].find(']').expect("the array ends");
    spec[open..close]
        .split("\"name\"")
        .skip(1)
        .map(|rest| rest.split('"').nth(1).expect("a quoted name").to_owned())
        .collect()
}

/// The value of metric `name` in a result line, if the line carries it.
fn value_of(line: &str, name: &str) -> Option<f64> {
    let at = line.find(&format!("\"{name}\": {{\"value\": "))?;
    let number = line[at..].split("\"value\": ").nth(1)?.split(',').next()?;
    number.parse().ok()
}

/// One smoke run of `workload`; returns the result line.
fn smoke(workload: &str, trace: &str) -> String {
    let out = Command::new("bash")
        .arg(repo_root().join("benchmark/run.sh"))
        .args([
            "--workload",
            workload,
            "--seed",
            "11",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--smoke",
        ])
        .output()
        .expect("bash starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{workload} --trace {trace} failed:\n{stderr}");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    stdout.lines().last().unwrap_or_else(|| panic!("{workload}: nothing printed")).to_owned()
}

#[test]
fn smoke_run_emits_every_metric_of_benchmark_json() {
    let spec = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let workloads = names_under(&spec, "workloads");
    assert_eq!(workloads.len(), 4);
    for key in ["workloads", "end_to_end", "per_layer"] {
        for name in names_under(&spec, key) {
            let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
            assert!(!name.is_empty() && name.chars().all(ok), "{key}: bad name {name:?}");
        }
    }

    // The first call builds `pfam` and the driver; it is not timed.
    smoke(&workloads[0], "0");
    let started = Instant::now();
    for workload in &workloads {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let line = smoke(workload, trace);
            assert!(line.contains("\"correct\": true"), "{workload} --trace {trace}: {line}");
            let expected = names_under(&spec, key);
            assert_eq!(line.matches("{\"value\": ").count(), expected.len(), "{workload}: {line}");
            for name in &expected {
                assert!(value_of(&line, name).is_some(), "{workload}: {name} missing in {line}");
            }
            if trace == "1" {
                let cover = value_of(&line, "core.span_cover").expect("checked above");
                assert!(cover >= 0.95, "{workload}: core.span_cover = {cover}");
            }
        }
    }
    let took = started.elapsed().as_secs_f64();
    assert!(took < 60.0, "the smoke pass took {took:.1} s");
}
