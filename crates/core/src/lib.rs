#![warn(missing_docs)]
//! # pfam-core — parallel protein family identification
//!
//! The paper's primary contribution: the four-phase pipeline of Figure 2.
//!
//! ```text
//! input ORFs ──RR──▶ non-redundant ──CCD──▶ connected components
//!        ──BGG──▶ per-component bipartite graphs ──DSD──▶ dense subgraphs
//! ```
//!
//! * [`checkpoint`] — versioned, checksummed, fingerprinted phase
//!   snapshots: the crash/restart story of a run with a checkpoint
//!   directory.
//! * [`config`] — pipeline parameters (ψ cutoffs, shingle (s, c), τ,
//!   size thresholds).
//! * [`pipeline`] — the one composition of the four phases
//!   ([`run_pipeline`]; [`PipelineHooks`] say what it keeps on disk),
//!   parallel inside each phase, with full work-trace capture for
//!   `pfam-sim`.
//! * [`executor`] — the fused BGG→DSD back half: components flow from CCD
//!   straight through graph construction into dense-subgraph detection,
//!   heaviest first, one component per worker, no barrier between the
//!   phases.
//! * [`report`] — Table-I-style summaries.
//! * [`quality`] — precision / sensitivity / overlap quality / correlation
//!   against a benchmark clustering.
//!
//! # Quickstart
//!
//! ```
//! use pfam_core::PipelineConfig;
//! use pfam_datagen::{DatasetConfig, SyntheticDataset};
//!
//! let data = SyntheticDataset::generate(&DatasetConfig::tiny(1));
//! let result = PipelineConfig::for_tests().run(&data.set);
//! println!("{} dense subgraphs from {} sequences",
//!          result.dense_subgraphs.len(), result.n_input);
//! ```

pub mod checkpoint;
pub mod config;
pub mod executor;
pub mod pipeline;
pub mod quality;
pub mod report;
pub mod validate;

pub use checkpoint::{CkptError, Phase};
pub use config::{PipelineConfig, Reduction};
pub use executor::{stream_components, ComponentOutput};
pub use pipeline::{run_pipeline, DenseSubgraph, PipelineError, PipelineHooks, PipelineResult};
pub use quality::{evaluate, QualityReport};
pub use report::{
    AheadReport, CheckpointReport, FillReport, PhaseReport, TableOneRow, WindowReport,
    WorkerSeconds,
};
pub use validate::{validate, ConfigError};
