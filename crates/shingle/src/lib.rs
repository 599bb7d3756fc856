#![warn(missing_docs)]
//! # pfam-shingle — dense bipartite subgraph detection
//!
//! Implementation of the two-pass Shingle algorithm of Gibson, Kumar &
//! Tomkins ("Discovering large dense subgraphs in massive graphs",
//! VLDB 2005), which the paper applies to each connected component's
//! bipartite reduction:
//!
//! * [`minwise`] — min-wise independent permutations and (s, c)-shingle
//!   sets (Broder et al.), plus the reusable [`minwise::RankTable`] /
//!   [`minwise::ShingleScratch`] arena pieces.
//! * [`kernel`] — the block rank loop: one permutation's ranks for a whole
//!   block of elements per call, equal to [`HashFamily::rank`].
//! * [`algorithm`] — the two passes plus the union-find reporting step,
//!   parallelised over vertices with rayon; [`ShingleArena`] for serial
//!   allocation-free reruns.
//! * [`dense`] — the paper's reporting rules on top: the `Bd` mode with
//!   the `|A∩B| / |A∪B| ≥ τ` post-filter, the `Bm` mode reporting `B`,
//!   minimum-size filtering, and disjoint-ification.

pub mod algorithm;
pub mod dense;
pub mod kernel;
pub mod minwise;

pub use algorithm::{
    shingle_clusters, shingle_clusters_budgeted, shingle_clusters_with, BipartiteCluster,
    ShingleArena, ShingleParams, ShingleStats,
};
pub use dense::{
    detect_dense_subgraphs, detect_dense_subgraphs_with, jaccard, DenseSubgraphConfig,
    ReductionMode,
};
pub use kernel::{fill_ranks, fill_ranks_into};
pub use minwise::{
    shingle_set, shingle_set_from_table, shingle_set_with, HashFamily, RankTable, Shingle,
    ShingleScratch,
};
