#![warn(missing_docs)]
//! # pfam-shingle — dense bipartite subgraph detection
//!
//! Implementation of the two-pass Shingle algorithm of Gibson, Kumar &
//! Tomkins ("Discovering large dense subgraphs in massive graphs",
//! VLDB 2005), which the paper applies to each connected component's
//! bipartite reduction:
//!
//! * [`minwise`] — min-wise independent permutations and (s, c)-shingle
//!   sets (Broder et al.): the per-set kernel, which ranks a sparse set's
//!   elements and scans a dense set's permutation order, and its scalar
//!   oracle.
//! * [`algorithm`] — the two passes as sorts of flat `(id, vertex)` record
//!   streams, pass II once per distinct vertex list, plus the union-find
//!   reporting step; one serial run per graph (the pipeline's parallelism
//!   is across components).
//! * [`dense`] — the paper's reporting rule on top: the `Bd` mode with
//!   the `|A∩B| / |A∪B| ≥ τ` post-filter, minimum-size filtering, and
//!   disjoint-ification.

pub mod algorithm;
pub mod dense;
pub mod minwise;

pub use algorithm::{
    shingle_clusters, shingle_heap_bound, BipartiteCluster, ShingleParams, ShingleStats,
};
pub use dense::{detect_dense_subgraphs, jaccard, DenseSubgraphConfig, ReductionMode};
pub use minwise::{shingle_set, HashFamily, PermutationOrder, Shingle, ShingleKernel};
