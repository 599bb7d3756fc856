#![warn(missing_docs)]
//! # pfam-datagen — synthetic metagenomic ORF generator
//!
//! The repository's substitute for the CAMERA/GOS environmental sequence
//! database (see DESIGN.md §2). Generates peptide data sets with known
//! ground truth:
//!
//! * [`mutation`] — background residue sampling and a BLOSUM-biased
//!   point-mutation model (substitutions prefer conservative residues so
//!   percent-similarity degrades realistically).
//! * [`dataset`] — family synthesis with Zipf-skewed sizes, shotgun-style
//!   fragmenting, injected ≥95 %-contained redundant reads, noise ORFs,
//!   optional cross-family shared domains, and the benchmark clustering
//!   used for the paper's quality metrics.
//!
//! Everything is deterministic in the config's seed.

pub mod dataset;
pub mod mutation;

pub use dataset::{skewed_sizes, DatasetConfig, Provenance, SyntheticDataset};
pub use mutation::{random_peptide, random_residue, MutationModel};
