#![warn(missing_docs)]
//! # pfam-sim — discrete-event master–worker machine simulator
//!
//! The repository's substitute for the paper's 512-node BlueGene/L (see
//! DESIGN.md §2). The clustering engine records the *actual* work it
//! performs — index volume, per-round pair counts, the master's filter
//! decisions, per-alignment DP-cell costs — and this crate replays that
//! trace through a cost model of a distributed-memory master–worker
//! machine at any processor count:
//!
//! * [`machine`] — the cost constants (BlueGene/L and commodity-cluster
//!   profiles).
//! * [`scheduler`] — greedy list scheduling (Graham), the dynamic work
//!   distribution the master performs.
//! * [`replay`] — per-round simulation and processor-count sweeps,
//!   reproducing the paper's scaling shapes (Table II, Figures 6 and 7a):
//!   near-linear for the alignment-dominated RR phase, saturating for the
//!   filter-dominated CCD phase.

pub mod machine;
pub mod replay;
pub mod scheduler;

pub use machine::MachineModel;
pub use replay::{simulate_phase, simulate_phases, speedup_sweep, SimBreakdown, SimReport};
pub use scheduler::list_schedule_makespan;
