#![warn(missing_docs)]
//! # pfam-cluster — the PaCE-style clustering engine
//!
//! The parallel heart of the pipeline (Sections IV-A to IV-C of the
//! paper):
//!
//! * [`core`] — the one `ClusterCore` state machine behind every RR/CCD
//!   driver: union-find + pair filter + accept/reject bookkeeping + trace
//!   records, mutated nowhere else.
//! * [`source`] — where a phase's pairs come from: one mined vector, lent
//!   to the phase as a slice in the order the loop consumes it.
//! * [`policy`] — the two master loops over that slice: in process
//!   ([`drive_batched`], the one `pfam` runs) and the paper's push
//!   protocol ([`drive_spmd`]), which talks to its workers through the
//!   [`transport`] seam. Every public `run_*` entry point is a thin
//!   composition of a core, a slice and one loop.
//! * [`rr`] — redundancy removal: drop sequences ≥95 %-contained in
//!   another, candidates from the maximal-match generator, containment
//!   verified by alignment in parallel batches.
//! * [`ccd`] — connected-component detection: the master–worker clustering
//!   loop with the transitive-closure filter that skips alignments between
//!   already-co-clustered pairs (the paper's 99 %+ work reduction).
//! * [`front`] — those two phases over one suffix index, built once per
//!   run and mined at each phase's cut-off.
//! * [`ledger`] — the overlap answers RR's fills leave behind, so no
//!   later phase aligns those pairs again.
//! * [`bgg`] — per-component bipartite-input generation: the full
//!   similarity graph of each component — CCD's edges plus the verdicts of
//!   the pairs its closure filter deferred, or, for callers without that
//!   bookkeeping, a maximal-match pass over the component alone.
//! * [`baseline`] — the GOS-style all-versus-all baseline plus its
//!   core-set (shared-k-neighbors) grouping heuristic, the comparison
//!   point for the work-reduction experiments.
//! * [`trace`] — work-trace recording consumed by `pfam-sim`'s
//!   discrete-event machine model.
//!
//! Parallelism is shared-memory (rayon) with the master steps kept
//! sequential and deterministic; the distributed-memory behaviour of the
//! original is reproduced by replaying the recorded traces in `pfam-sim`.

pub mod baseline;
pub mod bgg;
pub mod ccd;
pub mod config;
pub mod core;
pub mod front;
pub mod ledger;
pub(crate) mod mask;
pub mod policy;
pub mod rr;
pub mod source;
pub mod spmd;
pub mod trace;
pub mod transport;

pub use crate::core::{ClusterCore, CorePhase, Verdict, Verifier, VerifyOn};
pub use baseline::{core_set_clusters, run_all_pairs_baseline, BaselineResult};
pub use bgg::{component_graph, ComponentGraph, KnownPairs};
pub use ccd::{run_ccd, run_ccd_with_ledger, CcdResult};
pub use config::ClusterConfig;
pub use front::{with_front_half, FrontHalf};
pub use ledger::PairLedger;
pub use pfam_align::{AlignEngine, AlignEngineKind};
pub use policy::{drive_batched, drive_spmd, serve_push_worker};
pub use rr::{run_redundancy_removal, RrResult};
pub use source::{index_plan, with_pair_source, with_shared_index, IndexPlan, SharedIndex};
pub use spmd::run_phase_spmd;
pub use trace::{BatchRecord, PhaseTrace};
pub use transport::{
    LocalPort, LocalTransport, MasterMsg, MpiTransport, MpiWorkerPort, Transport, TransportError,
    WorkerMsg, WorkerPort,
};
