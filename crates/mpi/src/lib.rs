#![warn(missing_docs)]
//! # pfam-mpi — a thread-backed SPMD message-passing runtime
//!
//! The paper's implementation is C + MPI on a BlueGene/L. This crate
//! provides the same programming model — a fixed set of ranks running the
//! same program, communicating only through tagged point-to-point messages
//! and collectives — on threads of one machine, so the distributed
//! algorithms (`pfam_cluster::spmd`) can be written exactly as they would
//! be against MPI and tested deterministically.
//!
//! ```
//! use pfam_mpi::run_spmd;
//!
//! // Every rank contributes its rank number and learns the sum. A
//! // fault-free world never errors, so faults fold into `None` here.
//! let results = run_spmd(4, |comm| {
//!     let total = comm.all_reduce_sum(comm.rank() as u64).ok();
//!     let _ = comm.barrier();
//!     total
//! });
//! assert_eq!(results, vec![Some(0 + 1 + 2 + 3); 4]);
//! ```
//!
//! Semantics follow MPI where it matters:
//! * messages between a fixed (sender, receiver, tag) triple arrive in
//!   send order (non-overtaking) — unless a fault injector reorders them;
//! * point-to-point receives poll (`try_recv`), as the master–worker
//!   loops do; collectives wait inside, bounded by the liveness board;
//! * collectives must be called by every rank (they are built from
//!   reserved-tag point-to-point messages).
//!
//! Unlike classic MPI, every operation is **fallible**: faults surface as
//! [`CommError`] values (peer death, timeout, this rank's own injected
//! kill) instead of aborting the job — the failure-containment model of
//! ULFM-style fault-tolerant MPI. A shared liveness board
//! ([`Communicator::peer_alive`]) plays the role of the failure detector,
//! and [`run_spmd_faulty`] runs a world under a deterministic
//! [`FaultInjector`] (schedules are generated in `pfam_sim::faults`). A
//! dead rank stays dead: bringing capacity back is the job launcher's
//! business, and a caller's recovery is to re-issue the work to a
//! survivor.

pub mod comm;
pub mod error;
pub mod fault;

pub use comm::{run_spmd, run_spmd_faulty, Communicator, RankFailure, RankOutcome, ANY_SOURCE};
pub use error::CommError;
pub use fault::{FaultInjector, MessageFate, NoFaults};
