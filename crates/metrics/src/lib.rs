#![warn(missing_docs)]
//! # pfam-metrics — clustering evaluation
//!
//! The paper's quality apparatus (Section V):
//!
//! * [`confusion`] — pairwise TP/FP/FN/TN between a Test and a Benchmark
//!   clustering, computed in O(n + #label-pairs) via a contingency table.
//! * [`measures`] — Precision Rate, Sensitivity, Overlap Quality and
//!   Correlation Coefficient (equations 1–4).
//! * [`histogram`] — fixed-width bucket histograms (Figure 5's
//!   dense-subgraph size distribution).

pub mod confusion;
pub mod fmeasure;
pub mod histogram;
pub mod measures;

pub use confusion::{labels_from_clusters, pair_confusion, PairConfusion};
pub use fmeasure::{set_measures, SetMeasures};
pub use histogram::Histogram;
pub use measures::QualityMeasures;
