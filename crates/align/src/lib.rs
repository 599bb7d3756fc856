#![warn(missing_docs)]
//! # pfam-align — pairwise peptide alignment substrate
//!
//! Dynamic-programming alignment kernels used by the redundancy-removal and
//! connected-component phases of the pipeline:
//!
//! * [`local`] — Smith–Waterman local alignment (affine gaps, Gotoh
//!   recurrences, full traceback): the alignment the paper's Definition 1
//!   (containment) and Definition 2 (overlap) tests are stated over, and
//!   the oracle every other fill here is checked against.
//! * [`criteria`] — the paper's acceptance tests: `is_contained`
//!   (Def. 1: ≥95 % similarity over the overlap, ≥95 % of the shorter
//!   sequence covered) and `overlaps` (Def. 2: ≥30 % similarity covering
//!   ≥80 % of the longer sequence).
//! * [`engine`] — the alignment engine the clustering hot path goes
//!   through: length screen → one fill → score reject → direction
//!   traceback, verdict-identical to [`criteria`] by construction.
//! * [`onepass`] — that fill: one row-major Smith–Waterman pass producing
//!   score, argmax and a direction byte per cell. Its scalar twin runs a
//!   single pair and every pair the batch kernel cannot take.
//! * [`interpair`] — the one vector fill: the same pass for up to
//!   thirty-two pairs at once, one pair per `i16` lane — one kernel body,
//!   instantiated on AVX-512BW (32 lanes) and AVX2 (16) — for every pair
//!   of a candidate list inside its `i16` guard and its side limit.
//!
//! Scores use the [`pfam_seq::ScoringScheme`] type (BLOSUM62 by default).

pub mod alignment;
pub mod criteria;
pub mod engine;
pub mod interpair;
pub mod local;
pub mod onepass;
pub mod render;
mod scratch;

pub use alignment::{AlignOp, AlignStats, Alignment};
pub use criteria::{is_contained, overlaps, ContainmentParams, OverlapParams};
pub use engine::{AlignEngine, AlignEngineKind, Anchor, EngineVerdict, PairQuery, PairVerdict};
pub use local::{local_affine, local_affine_with};
pub use onepass::{FillProbe, OnePassFill};
pub use render::render_alignment;
pub use scratch::AlignScratch;

#[cfg(test)]
#[path = "../tests/shapes/mod.rs"]
mod shapes;
