#![warn(missing_docs)]
//! # pfam-suffix — string-index substrate
//!
//! The exact-match filtering machinery of the pipeline. The paper builds a
//! generalized suffix tree (GST) over all input ORFs and uses it to emit
//! *promising pairs* — pairs of sequences sharing a maximal exact match of
//! length ≥ ψ — in decreasing order of match length. This crate provides:
//!
//! * [`sais`] — linear-time SA-IS suffix array construction over integer
//!   alphabets (from scratch).
//! * [`lcp`] — Kasai's linear-time LCP array.
//! * [`gsa`] — the generalized suffix array over a [`pfam_seq::SequenceSet`]
//!   with distinct per-sequence sentinels, so no common prefix ever spans a
//!   sequence boundary, in seven bytes per text position — or, cut at a
//!   mining cut-off, the text and only the suffixes a miner can reach.
//! * [`tree`] — the generalized suffix tree, built in linear time from the
//!   suffix + LCP arrays (the production GST), with pattern search.
//! * [`maximal`] — maximal-match pairs: what one tree node emits, and the
//!   deepest-first order in which a miner visits the nodes.
//! * [`distributed`] — prefix-partitioned construction that splits the
//!   suffix space across `p` ranks (the PaCE distributed-GST scheme),
//!   with per-rank size accounting for the performance model.
//! * [`parallel`] — shared-memory parallel construction of the whole hot
//!   path (suffix array and LCP by residue-packed bucket sort), the one
//!   pair miner [`mine_pairs`], which yields the paper's promising pairs in
//!   decreasing match length with the same output at any thread count, and
//!   [`with_match_tree`], the one index-and-mine entry.
//! * [`partitioned`] — the miner under a memory budget: one resident
//!   text, its suffixes sorted, treed and mined by [`mine_pairs`] one
//!   window of buckets at a time, the stream the monolithic index gives.

pub mod distributed;
pub mod gsa;
pub mod lcp;
pub mod maximal;
pub mod parallel;
pub mod partitioned;
pub mod sais;
pub mod tree;

pub use gsa::{estimated_index_bytes, estimated_text_bytes, CompactLcp, GeneralizedSuffixArray};
pub use maximal::{KeepMask, MatchPair, MaximalMatchConfig};
pub use parallel::{
    bucket_sort_index, mine_pairs, parallel_pairs, resolve_threads, with_match_tree, MineNodes,
};
pub use partitioned::{ChunkPlan, PartitionedMiner, WindowStats};
pub use sais::suffix_array;
pub use tree::SuffixTree;
