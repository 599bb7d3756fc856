//! Fault-injection hooks for the SPMD runtime.
//!
//! A [`FaultInjector`] is consulted by every [`crate::Communicator`]
//! operation and by every message in flight. Implementations decide —
//! deterministically, from the operation's coordinates — whether to kill
//! the rank, slow it down, or drop/delay the message. The seed-driven
//! schedule generator lives in `pfam-sim` (`pfam_sim::faults`); this
//! module only defines the interface the communicator drives, so the
//! runtime has no opinion about *what* faults occur, only *how* they
//! manifest:
//!
//! * a killed rank sees [`crate::CommError::RankKilled`] from every
//!   subsequent operation and is marked dead on the shared liveness
//!   board ([`crate::Communicator::peer_alive`]);
//! * a dropped message is silently lost — the send still reports success,
//!   exactly like a buffered MPI send onto a failing link;
//! * a delayed message is held back and delivered only after `hold`
//!   further messages to the same destination, violating the usual
//!   non-overtaking guarantee the way a congested adaptive-routing
//!   network does;
//! * a slowed operation sleeps before executing, modelling a straggler
//!   node.

use std::time::Duration;

/// What happens to one message in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MessageFate {
    /// Deliver normally.
    Deliver,
    /// Silently lose the message (the sender still sees success).
    Drop,
    /// Hold the message back until `hold` further messages have been sent
    /// to the same destination, then deliver (reordering injection).
    Delay {
        /// Number of later messages that overtake this one.
        hold: u32,
    },
}

/// Decides the fate of operations and messages. All methods default to
/// "no fault", so implementations override only what they inject.
///
/// Coordinates are deterministic counters: `event` numbers the
/// communicator operations a rank performs (from 0), `seq` numbers the
/// messages sent on a directed `(from, to)` edge (from 0). Schedules keyed
/// on them reproduce exactly under identical thread interleavings and
/// remain valid — just differently timed — under any other interleaving.
pub trait FaultInjector: Send + Sync {
    /// Kill `rank` at its `event`-th communicator operation? A killed rank
    /// is marked dead and every operation it attempts afterwards fails
    /// with [`crate::CommError::RankKilled`].
    fn kill_now(&self, rank: usize, event: u64) -> bool {
        let _ = (rank, event);
        false
    }

    /// Extra latency injected before `rank`'s `event`-th operation.
    fn slowdown(&self, rank: usize, event: u64) -> Option<Duration> {
        let _ = (rank, event);
        None
    }

    /// Fate of the `seq`-th message sent from `from` to `to`.
    fn message_fate(&self, from: usize, to: usize, tag: u32, seq: u64) -> MessageFate {
        let _ = (from, to, tag, seq);
        MessageFate::Deliver
    }
}

/// The trivial injector: no faults at all. `run_spmd` uses this.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFaults;

impl FaultInjector for NoFaults {}
