//! Communication failures as values.
//!
//! The communicator never panics on an inter-rank fault: every operation
//! returns a [`CommError`], so a rank that has exited ends its peers'
//! waits with an error instead of a hang, and the job fails and is
//! restarted from its last checkpoint.

/// Why a communicator operation could not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// The destination rank has exited (normally or by panic); the
    /// message was not delivered.
    PeerExited {
        /// The dead destination rank.
        rank: usize,
    },
    /// A bounded wait inside a collective elapsed with no matching message.
    Timeout,
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
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::PeerExited { rank } => write!(f, "rank {rank} has exited"),
            CommError::Timeout => write!(f, "receive timed out"),
            CommError::Disconnected => write!(f, "world torn down (no senders remain)"),
            CommError::TypeMismatch { tag, from, expected } => write!(
                f,
                "message type mismatch on tag {tag} from rank {from}: expected {expected}"
            ),
        }
    }
}

impl std::error::Error for CommError {}
