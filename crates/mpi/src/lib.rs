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
//! use pfam_mpi::{run_spmd, CommError, Communicator, ANY_SOURCE};
//!
//! /// Wait for a `u64` on tag 0, polling as the master–worker loops do.
//! fn recv(comm: &mut Communicator, from: usize) -> Result<u64, CommError> {
//!     loop {
//!         if let Some((_, v)) = comm.try_recv(from, 0)? {
//!             return Ok(v);
//!         }
//!         std::thread::yield_now();
//!     }
//! }
//!
//! /// Every rank sends its rank number to rank 0, which sends the sum back;
//! /// a barrier closes the step.
//! fn rank_sum(comm: &mut Communicator) -> Result<u64, CommError> {
//!     let total = if comm.rank() == 0 {
//!         let mut total = 0;
//!         for _ in 1..comm.size() {
//!             total += recv(comm, ANY_SOURCE)?;
//!         }
//!         for r in 1..comm.size() {
//!             comm.send(r, 0, total)?;
//!         }
//!         total
//!     } else {
//!         comm.send(0, 0, comm.rank() as u64)?;
//!         recv(comm, 0)?
//!     };
//!     comm.barrier()?;
//!     Ok(total)
//! }
//!
//! // A healthy world never errors, so errors fold into `None` here.
//! let results = run_spmd(4, |comm| rank_sum(comm).ok());
//! assert_eq!(results, vec![Some(0 + 1 + 2 + 3); 4]);
//! ```
//!
//! Semantics follow MPI where it matters:
//! * messages between a fixed (sender, receiver, tag) triple arrive in
//!   send order (non-overtaking);
//! * point-to-point receives poll (`try_recv`), as the master–worker
//!   loops do; collectives wait inside, bounded by the liveness board;
//! * collectives must be called by every rank (they are built from
//!   reserved-tag point-to-point messages).
//!
//! Unlike classic MPI, every operation is **fallible**: a send to a rank
//! that has exited, a collective whose peer has exited and a torn-down
//! world surface as [`CommError`] values instead of aborting the job. A
//! shared liveness board records which
//! ranks are still running, so one rank that returns early or panics
//! cannot hang the others' collectives; [`run_spmd`] then re-raises the
//! panic. Nothing here recovers a lost rank: a job that fails is
//! restarted from its last checkpoint.

pub mod comm;
pub mod error;

pub use comm::{run_spmd, Communicator, ANY_SOURCE};
pub use error::CommError;
