//! Shared entry-point harness for the experiment binaries.
//!
//! Every `BENCH_*.json` binary used to re-implement the same boilerplate:
//! `--test` smoke detection, positional scale/thread parsing, best-of-N
//! timing, the power-of-two thread ladder, the core-count caveat string,
//! and the smoke-vs-write emission split. This module is that boilerplate,
//! written once, with the PR-6 honesty guard ([`crate::honesty`]) folded
//! into the thread-sweep path instead of duplicated per binary: a sweep on
//! a 1-core host *refuses* to record scaling claims.
//!
//! Two emission modes:
//! * [`emit`] — overwrite `BENCH_<name>.json` (single-snapshot benches);
//! * [`emit_append`] — append one JSON-object line to
//!   `BENCH_<name>.json`, so re-runs across PRs build a visible
//!   trajectory instead of erasing history.

use std::time::Instant;

use crate::honesty::{claim, detected_cores};

/// Parsed common CLI surface: `[scale] [max_threads] [--test]`.
#[derive(Debug, Clone)]
pub struct BenchArgs {
    /// `--test`: tiny single-rep pass, JSON to stdout only.
    pub smoke: bool,
    positional: Vec<f64>,
}

impl BenchArgs {
    /// Parse `std::env::args()`: `--test` plus positional numbers.
    pub fn parse() -> BenchArgs {
        let args: Vec<String> = std::env::args().skip(1).collect();
        BenchArgs {
            smoke: args.iter().any(|a| a == "--test"),
            positional: args.iter().filter_map(|a| a.parse().ok()).collect(),
        }
    }

    /// A harness with explicit values (tests).
    pub fn new(smoke: bool, positional: Vec<f64>) -> BenchArgs {
        BenchArgs { smoke, positional }
    }

    /// Workload scale: `smoke_scale` under `--test`, else the first
    /// positional argument (default `default`).
    pub fn scale(&self, smoke_scale: f64, default: f64) -> f64 {
        if self.smoke {
            smoke_scale
        } else {
            self.positional.first().copied().unwrap_or(default)
        }
    }

    /// The `i`-th positional argument, if present.
    pub fn positional(&self, i: usize) -> Option<f64> {
        self.positional.get(i).copied()
    }

    /// Repetitions for best-of-N timing: 1 under `--test`, else 3.
    pub fn reps(&self) -> usize {
        if self.smoke {
            1
        } else {
            3
        }
    }
}

impl Default for BenchArgs {
    fn default() -> Self {
        BenchArgs::parse()
    }
}

/// Best-of-`reps` wall-clock timing of `f`, returning the minimum seconds
/// and the last result.
pub fn time_min<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let r = f();
        best = best.min(t0.elapsed().as_secs_f64());
        last = Some(r);
    }
    (best, last.expect("reps >= 1"))
}

/// A thread-sweep with the honesty guard built in: the ladder of thread
/// counts to measure plus the detected core count that gates every
/// scaling claim derived from it.
#[derive(Debug, Clone)]
pub struct ThreadSweep {
    /// Power-of-two thread counts, `1, 2, 4, … ≤ max_threads` (truncated
    /// to two entries in smoke mode).
    pub counts: Vec<usize>,
    /// Cores available to this process.
    pub cores: usize,
}

/// Build the standard power-of-two thread ladder up to `max_threads`.
pub fn thread_sweep(max_threads: usize, smoke: bool) -> ThreadSweep {
    let max_threads = max_threads.max(1);
    let mut counts = vec![1usize];
    while *counts.last().expect("non-empty") * 2 <= max_threads {
        counts.push(counts.last().expect("non-empty") * 2);
    }
    if smoke {
        counts.truncate(2);
    }
    ThreadSweep { counts, cores: detected_cores() }
}

impl ThreadSweep {
    /// The caveat string every sweep JSON records about its host.
    pub fn caveat(&self) -> String {
        let max = *self.counts.last().expect("non-empty");
        if self.cores == 1 {
            String::from(
                "1-core host: parallel timings measure overhead only; scaling claims refused",
            )
        } else if self.cores < max {
            format!(
                "only {} core(s) available; speedups above {} thread(s) \
                 reflect overhead, not scaling",
                self.cores, self.cores
            )
        } else {
            String::from("thread counts within available cores")
        }
    }

    /// The honesty-gated `"scaling"` JSON field: the per-thread rows pass
    /// through on a multi-core host; a 1-core host records the
    /// [`UNMEASURED`] sentinel instead — a sweep measured without
    /// parallelism is not a scaling measurement.
    pub fn scaling_field(&self, rows: &[String]) -> String {
        claim(self.cores, "scaling", &format!("[\n{}\n  ]", rows.join(",\n")))
    }
}

/// Emit a finished bench JSON: stdout only under smoke, else overwrite
/// `BENCH_<name>.json` and echo to stdout.
pub fn emit(name: &str, json: &str, smoke: bool) {
    println!("{json}");
    if smoke {
        eprintln!("{name}_bench: smoke mode OK");
    } else {
        let path = format!("BENCH_{name}.json");
        std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {path}: {e}"));
        eprintln!("{name}_bench: wrote {path}");
    }
}

/// The commit a record measures: the short hash of `HEAD` in the current
/// directory (`git rev-parse --short HEAD`), `-dirty` after it when the
/// tree has uncommitted changes, or `"unknown"` outside a checkout.
pub fn commit_stamp() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--exclude=*"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|hash| hash.trim().to_string())
        .filter(|hash| !hash.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// [`emit`] in append mode: one JSON-object **line** is appended to
/// `BENCH_<name>.json`, so repeated runs (and successive PRs) accumulate
/// a trajectory instead of overwriting the previous record. Smoke runs
/// still only print.
pub fn emit_append(name: &str, json_line: &str, smoke: bool) {
    debug_assert!(!json_line.contains('\n'), "append records must be single lines");
    println!("{json_line}");
    if smoke {
        eprintln!("{name}_bench: smoke mode OK");
    } else {
        let path = format!("BENCH_{name}.json");
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .unwrap_or_else(|e| panic!("open {path}: {e}"));
        writeln!(f, "{json_line}").unwrap_or_else(|e| panic!("append {path}: {e}"));
        eprintln!("{name}_bench: appended to {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::honesty::UNMEASURED;

    #[test]
    fn scale_prefers_smoke_then_positional_then_default() {
        let a = BenchArgs::new(true, vec![0.7]);
        assert_eq!(a.scale(0.02, 1.0), 0.02);
        let b = BenchArgs::new(false, vec![0.7]);
        assert_eq!(b.scale(0.02, 1.0), 0.7);
        let c = BenchArgs::new(false, vec![]);
        assert_eq!(c.scale(0.02, 1.0), 1.0);
        assert_eq!(a.reps(), 1);
        assert_eq!(b.reps(), 3);
    }

    #[test]
    fn ladder_is_powers_of_two() {
        assert_eq!(thread_sweep(8, false).counts, vec![1, 2, 4, 8]);
        assert_eq!(thread_sweep(6, false).counts, vec![1, 2, 4]);
        assert_eq!(thread_sweep(1, false).counts, vec![1]);
        assert_eq!(thread_sweep(8, true).counts, vec![1, 2]);
    }

    #[test]
    fn one_core_sweep_refuses_scaling() {
        let sweep = ThreadSweep { counts: vec![1, 2, 4], cores: 1 };
        let field = sweep.scaling_field(&[String::from("    { \"threads\": 1 }")]);
        assert!(field.contains(UNMEASURED), "1-core sweep must refuse: {field}");
        assert!(!field.contains("threads"), "no row may survive on 1 core");
        assert!(sweep.caveat().contains("refused"));
    }

    #[test]
    fn multi_core_sweep_records_rows() {
        let sweep = ThreadSweep { counts: vec![1, 2], cores: 8 };
        let field = sweep.scaling_field(&[String::from("    { \"threads\": 2 }")]);
        assert!(field.contains("\"threads\": 2"));
        assert_eq!(sweep.caveat(), "thread counts within available cores");
    }

    #[test]
    fn time_min_returns_result() {
        let (s, v) = time_min(2, || 41 + 1);
        assert_eq!(v, 42);
        assert!(s >= 0.0);
    }
}
