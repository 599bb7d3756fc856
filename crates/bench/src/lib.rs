#![warn(missing_docs)]
//! # pfam-bench — experiment harness
//!
//! Shared workload definitions for the binaries under `src/bin/`: `paper`
//! (every table and figure of the paper, from one ladder of `pfam` runs),
//! `ablations` (one `pfam` run per changed field) and `fnv64` (the digest
//! `scripts/outputs.sh` pins outputs with); and the counting allocator
//! the heap tests under `tests/` install. Every number they report comes
//! from `pfam`'s own pipeline. See DESIGN.md §4 for the experiment index
//! and EXPERIMENTS.md for recorded paper-vs-measured results.

pub mod alloc;
pub mod workloads;

pub use workloads::{dataset_160k_like, dataset_22k_like, ladder, PaperDataset, Rung};
