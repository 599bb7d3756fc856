#![warn(missing_docs)]
//! # pfam-bench — experiment harness
//!
//! Shared workload definitions for the binaries under `src/bin/`: `paper`
//! (every table and figure of the paper, from one ladder of `pfam` runs),
//! `ablations`, and one self-timing `*_bench` binary per committed
//! `BENCH_*.json`. See DESIGN.md §4 for the experiment index and
//! EXPERIMENTS.md for recorded paper-vs-measured results.

pub mod alloc;
pub mod harness;
pub mod honesty;
pub mod workloads;

pub use harness::{
    commit_stamp, emit, emit_append, thread_sweep, time_min, BenchArgs, ThreadSweep,
};
pub use honesty::{claim, claim_f64, cores_field, detected_cores};
pub use workloads::{dataset_160k_like, dataset_22k_like, ladder, PaperDataset, Rung};
