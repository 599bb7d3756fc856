#![warn(missing_docs)]
//! # pfam-bench — experiment harness
//!
//! Shared workload definitions for the benchmark suite: one experiment
//! binary (`src/bin/`) and one Criterion bench (`benches/`) per table and
//! figure of the paper. See DESIGN.md §4 for the experiment index and
//! EXPERIMENTS.md for recorded paper-vs-measured results.

pub mod alloc;
pub mod harness;
pub mod honesty;
pub mod workloads;

pub use harness::{emit, emit_append, thread_sweep, time_min, BenchArgs, ThreadSweep};
pub use honesty::{claim, claim_f64, cores_field, detected_cores};
pub use workloads::{dataset_160k_like, dataset_22k_like, scaled_members, PaperDataset};
