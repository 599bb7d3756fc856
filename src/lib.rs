#![warn(missing_docs)]
//! # pfam — parallel protein family identification
//!
//! A from-scratch Rust implementation of the parallel protein-family
//! identification system of Wu & Kalyanaraman (SC 2008): given a large
//! collection of metagenomic ORF (peptide) sequences, find protein
//! families by reducing the problem to dense-subgraph detection in
//! bipartite graphs — without ever materialising the Θ(n²) all-pairs
//! similarity matrix.
//!
//! This crate is the facade: it re-exports every sub-crate of the
//! workspace under one namespace and hosts the runnable examples
//! (`examples/`) and cross-crate integration tests (`tests/`).
//!
//! ## The pipeline
//!
//! ```text
//!  input ORFs
//!     │  redundancy removal        (suffix-tree maximal matches +
//!     ▼                             containment alignments)
//!  non-redundant set
//!     │  connected components      (PaCE master–worker clustering,
//!     ▼                             transitive-closure filtering)
//!  components ──▶ bipartite graphs (Bd global similarity)
//!     │  dense subgraph detection  (two-pass min-wise Shingle algorithm)
//!     ▼
//!  protein families
//! ```
//!
//! ## Crate map
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`seq`] | `pfam-seq` | alphabet, sequence sets, FASTA, BLOSUM62, ORFs |
//! | [`datagen`] | `pfam-datagen` | synthetic metagenome generator + ground truth |
//! | [`suffix`] | `pfam-suffix` | SA-IS, LCP, generalized suffix array/tree, maximal matches |
//! | [`align`] | `pfam-align` | NW / SW / semi-global / banded alignment, Def. 1 & 2 tests |
//! | [`graph`] | `pfam-graph` | union-find, CSR graphs, the `Bd` bipartite reduction, density |
//! | [`shingle`] | `pfam-shingle` | min-wise hashing, two-pass Shingle algorithm |
//! | [`cluster`] | `pfam-cluster` | RR + CCD engine, bipartite generation, GOS baseline |
//! | [`sim`] | `pfam-sim` | trace-driven master–worker machine simulator |
//! | [`metrics`] | `pfam-metrics` | PR/SE/OQ/CC, ARI/NMI/VI, histograms |
//! | [`mpi`] | `pfam-mpi` | thread-backed SPMD message-passing runtime |
//! | [`core`] | `pfam-core` | the four-phase pipeline (`run_pipeline`, one entry behind `pfam cluster` and `pfam run`), checkpoints, reports, quality |
//!
//! ## Quickstart
//!
//! ```
//! use pfam::core::PipelineConfig;
//! use pfam::datagen::{DatasetConfig, SyntheticDataset};
//!
//! let data = SyntheticDataset::generate(&DatasetConfig::tiny(7));
//! let result = PipelineConfig::for_tests().run(&data.set);
//! assert!(!result.dense_subgraphs.is_empty());
//! ```

pub use pfam_align as align;
pub use pfam_cluster as cluster;
pub use pfam_core as core;
pub use pfam_datagen as datagen;
pub use pfam_graph as graph;
pub use pfam_metrics as metrics;
pub use pfam_mpi as mpi;
pub use pfam_seq as seq;
pub use pfam_shingle as shingle;
pub use pfam_sim as sim;
pub use pfam_suffix as suffix;
