//! Communication failures as values.
//!
//! The paper's RR+CCD phases run for hours on hardware where rank death
//! and message loss are the expected failure mode of any long job, so the
//! communicator never panics on an inter-rank fault: every operation
//! returns a [`CommError`] the caller can react to (re-lease work, drop a
//! peer, resume from a checkpoint).

/// Why a communicator operation could not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// The destination rank has exited (normally, by panic, or killed by
    /// the fault injector); the message was not delivered.
    PeerExited {
        /// The dead destination rank.
        rank: usize,
    },
    /// A bounded wait inside a collective elapsed with no matching message.
    Timeout,
    /// This rank itself has been killed by the fault injector: the
    /// surrounding SPMD closure should unwind its work and return, as a
    /// real process would on SIGKILL.
    RankKilled,
    /// The world has been torn down: no live sender remains for this
    /// rank's inbox and the queue is drained.
    Disconnected,
    /// A matched message held a different payload type than the receiver
    /// asked for — a protocol bug in the caller, reported instead of
    /// panicking so one confused rank cannot take down the job.
    TypeMismatch {
        /// Tag of the mismatched message.
        tag: u32,
        /// Source rank of the mismatched message.
        from: usize,
        /// The type the receiver expected.
        expected: &'static str,
    },
    /// An internal collective invariant was violated (e.g. a gather slot
    /// left unfilled); indicates a communicator bug, surfaced as an error.
    Protocol(&'static str),
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::PeerExited { rank } => write!(f, "rank {rank} has exited"),
            CommError::Timeout => write!(f, "receive timed out"),
            CommError::RankKilled => write!(f, "this rank was killed by the fault injector"),
            CommError::Disconnected => write!(f, "world torn down (no senders remain)"),
            CommError::TypeMismatch { tag, from, expected } => write!(
                f,
                "message type mismatch on tag {tag} from rank {from}: expected {expected}"
            ),
            CommError::Protocol(what) => write!(f, "protocol violation: {what}"),
        }
    }
}

impl std::error::Error for CommError {}
