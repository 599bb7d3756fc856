#![warn(missing_docs)]
//! # pfam-seq — sequence substrate
//!
//! The lowest layer of the `pfam` workspace: amino-acid alphabet handling,
//! compact arena-backed sequence storage, FASTA parsing/writing and substitution
//! scoring matrices (BLOSUM/PAM), the memory budget every large allocation
//! reserves against, and the process's own CPU and peak-RSS counters
//! ([`process_usage`]).
//!
//! Everything above (suffix indexes, alignment, clustering, the pipeline)
//! consumes the [`SequenceSet`] type defined here, which stores all residues
//! of a data set contiguously so that downstream index structures (suffix
//! arrays, suffix trees) can be built over a single text with sentinels.
//!
//! This crate corresponds to the "input ORFs" box of Figure 2 in
//! Wu & Kalyanaraman (SC 2008).

pub mod alphabet;
pub mod budget;
pub mod complexity;
pub mod composition;
pub mod error;
pub mod fasta;
pub mod scoring;
pub mod sequence;
pub mod stats;
pub mod store;
pub mod usage;

pub use alphabet::{AminoAcid, ALPHABET_SIZE};
pub use budget::{BudgetError, MemoryBudget, Reservation};
pub use composition::Composition;
pub use error::SeqError;
pub use scoring::{ScoringScheme, SubstMatrix};
pub use sequence::{SeqId, Sequence, SequenceSet, SequenceSetBuilder};
pub use stats::LengthStats;
pub use store::{materialize_subset, SeqStore, SubsetStore};
pub use usage::process_usage;
