#![warn(missing_docs)]
//! # pfam-graph — graph substrate
//!
//! Data structures shared by the clustering and dense-subgraph phases:
//!
//! * [`union_find`] — Tarjan's disjoint-set forest. The CCD master's
//!   transitive-closure clustering and the Shingle reporting step both run
//!   on it.
//! * [`csr`] — immutable CSR adjacency with connected-component extraction
//!   and induced subgraphs.
//! * [`bipartite`] — the paper's `Bd` reduction: the duplicated vertex
//!   set of a similarity graph.
//! * [`density`] — observed subgraph density, the paper's quality measure
//!   (density = mean degree ⁄ (m − 1)).

pub mod bipartite;
pub mod csr;
pub mod density;
pub mod kcore;
pub mod union_find;

pub use bipartite::BipartiteGraph;
pub use csr::CsrGraph;
pub use density::{subgraph_density, SubgraphDensity};
pub use kcore::{densest_subgraph_peeling, greedy_dense_decomposition};
pub use union_find::UnionFind;
