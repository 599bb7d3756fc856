//! How candidate batches and verdicts travel between the master of the
//! push protocol ([`crate::policy::drive_spmd`]) and its workers.
//!
//! A [`Transport`] is the master's view of its worker pool: addressed
//! sends and a merged receive stream tagged with the worker index. A
//! [`WorkerPort`] is one worker's view of the master. The messages
//! ([`MasterMsg`], [`WorkerMsg`]) are the protocol's whole vocabulary.
//!
//! Two transports exist:
//!
//! * [`MpiTransport`] / [`MpiWorkerPort`] — adapters over the fallible
//!   `pfam-mpi` communicator;
//! * [`LocalTransport`] / [`LocalPort`] — in-process channels: one
//!   addressed queue per worker, so the push loop runs fully in-process
//!   (the driver-equivalence matrix tests).
//!
//! Neither recovers a lost worker: the push protocol assumes a healthy
//! world, and a run that fails is restarted from its last checkpoint.

use crossbeam::channel::{self, Receiver, Sender, TryRecvError};

use pfam_mpi::{CommError, Communicator, ANY_SOURCE};

use crate::core::Verdict;

/// Tag carrying [`WorkerMsg`] values (worker → master).
const TAG_TO_MASTER: u32 = 21;
/// Tag carrying [`MasterMsg`] values (master → worker).
const TAG_TO_WORKER: u32 = 22;

/// Why a transport operation could not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The counterpart has exited; the message was not delivered.
    PeerGone,
    /// The transport itself failed (world torn down, protocol bug).
    Fatal(String),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::PeerGone => write!(f, "peer has exited"),
            TransportError::Fatal(why) => write!(f, "transport failed: {why}"),
        }
    }
}

impl std::error::Error for TransportError {}

/// Master → worker protocol messages.
#[derive(Debug, Clone)]
pub enum MasterMsg {
    /// A candidate batch to verify: `(a, b)` sequence-id pairs.
    Task {
        /// Candidate pairs; in RR runs each is oriented
        /// `(candidate-to-remove, container)`.
        candidates: Vec<(u32, u32)>,
    },
    /// The master has seen this worker's exhausted flag; after answering
    /// any tasks still queued ahead of this message, the worker may leave.
    SourceDone,
}

/// Worker → master protocol messages.
#[derive(Debug, Clone)]
pub enum WorkerMsg {
    /// A batch of promising pairs mined from this worker's slice of the
    /// suffix space; `exhausted` marks the final batch.
    Pairs {
        /// `(a, b)` sequence-id pairs, decreasing match length.
        pairs: Vec<(u32, u32)>,
        /// Whether this worker's slice is now fully mined.
        exhausted: bool,
    },
    /// Verdicts for one task batch.
    Verdicts {
        /// One verdict per candidate, in task order.
        verdicts: Vec<Verdict>,
    },
}

/// The master's endpoint: `n_workers` peers indexed `0..n_workers`.
pub trait Transport {
    /// Number of workers in the pool.
    fn n_workers(&self) -> usize;

    /// Send `msg` to worker `w` (non-blocking; delivery is not
    /// acknowledged).
    fn send(&mut self, w: usize, msg: MasterMsg) -> Result<(), TransportError>;

    /// Receive the next worker message, from any worker, if one is ready.
    fn try_recv(&mut self) -> Result<Option<(usize, WorkerMsg)>, TransportError>;

    /// Block until every rank reaches the barrier.
    fn barrier(&mut self) -> Result<(), TransportError>;
}

/// One worker's endpoint toward the master.
pub trait WorkerPort {
    /// Send `msg` to the master.
    fn send(&mut self, msg: WorkerMsg) -> Result<(), TransportError>;

    /// Receive the next master message, if one is ready.
    fn try_recv(&mut self) -> Result<Option<MasterMsg>, TransportError>;

    /// Block until every rank reaches the barrier.
    fn barrier(&mut self) -> Result<(), TransportError>;
}

fn comm_error(e: CommError) -> TransportError {
    match e {
        CommError::PeerExited { .. } => TransportError::PeerGone,
        e => TransportError::Fatal(format!("{e}")),
    }
}

/// Master-side adapter over a `pfam-mpi` communicator: rank 0 is the
/// master, worker `w` is rank `w + 1`.
pub struct MpiTransport<'c> {
    comm: &'c mut Communicator,
}

impl<'c> MpiTransport<'c> {
    /// Wrap the master rank's communicator (must be rank 0).
    pub fn master(comm: &'c mut Communicator) -> Self {
        assert_eq!(comm.rank(), 0, "the master transport belongs on rank 0");
        MpiTransport { comm }
    }
}

impl Transport for MpiTransport<'_> {
    fn n_workers(&self) -> usize {
        self.comm.size() - 1
    }

    fn send(&mut self, w: usize, msg: MasterMsg) -> Result<(), TransportError> {
        self.comm.send(w + 1, TAG_TO_WORKER, msg).map_err(comm_error)
    }

    fn try_recv(&mut self) -> Result<Option<(usize, WorkerMsg)>, TransportError> {
        match self.comm.try_recv::<WorkerMsg>(ANY_SOURCE, TAG_TO_MASTER) {
            Ok(Some((from, msg))) => Ok(Some((from - 1, msg))),
            Ok(None) => Ok(None),
            Err(e) => Err(comm_error(e)),
        }
    }

    fn barrier(&mut self) -> Result<(), TransportError> {
        self.comm.barrier().map_err(comm_error)
    }
}

/// Worker-side adapter over a `pfam-mpi` communicator (any rank ≥ 1).
pub struct MpiWorkerPort<'c> {
    comm: &'c mut Communicator,
}

impl<'c> MpiWorkerPort<'c> {
    /// Wrap a worker rank's communicator.
    pub fn new(comm: &'c mut Communicator) -> Self {
        assert!(comm.rank() > 0, "rank 0 is the master");
        MpiWorkerPort { comm }
    }
}

impl WorkerPort for MpiWorkerPort<'_> {
    fn send(&mut self, msg: WorkerMsg) -> Result<(), TransportError> {
        self.comm.send(0, TAG_TO_MASTER, msg).map_err(comm_error)
    }

    fn try_recv(&mut self) -> Result<Option<MasterMsg>, TransportError> {
        match self.comm.try_recv::<MasterMsg>(0, TAG_TO_WORKER) {
            Ok(Some((_, msg))) => Ok(Some(msg)),
            Ok(None) => Ok(None),
            Err(e) => Err(comm_error(e)),
        }
    }

    fn barrier(&mut self) -> Result<(), TransportError> {
        self.comm.barrier().map_err(comm_error)
    }
}

/// In-process transport over crossbeam channels: one unbounded addressed
/// queue per worker ([`Transport::send`]) and one merged result queue.
pub struct LocalTransport {
    results_rx: Receiver<(usize, WorkerMsg)>,
    addressed: Vec<Sender<MasterMsg>>,
}

/// One in-process worker's endpoint (hand each to its worker thread).
pub struct LocalPort {
    index: usize,
    results_tx: Sender<(usize, WorkerMsg)>,
    inbox: Receiver<MasterMsg>,
}

impl LocalTransport {
    /// Build a pool of `n_workers` in-process endpoints.
    pub fn new(n_workers: usize) -> (LocalTransport, Vec<LocalPort>) {
        let (results_tx, results_rx) = channel::unbounded();
        let mut addressed = Vec::with_capacity(n_workers);
        let mut ports = Vec::with_capacity(n_workers);
        for index in 0..n_workers {
            let (tx, rx) = channel::unbounded();
            addressed.push(tx);
            ports.push(LocalPort { index, results_tx: results_tx.clone(), inbox: rx });
        }
        (LocalTransport { results_rx, addressed }, ports)
    }
}

impl Transport for LocalTransport {
    fn n_workers(&self) -> usize {
        self.addressed.len()
    }

    fn send(&mut self, w: usize, msg: MasterMsg) -> Result<(), TransportError> {
        self.addressed[w].send(msg).map_err(|_| TransportError::PeerGone)
    }

    fn try_recv(&mut self) -> Result<Option<(usize, WorkerMsg)>, TransportError> {
        match self.results_rx.try_recv() {
            Ok(m) => Ok(Some(m)),
            Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => Ok(None),
        }
    }

    fn barrier(&mut self) -> Result<(), TransportError> {
        // Worker threads are joined by the scope that spawned them; the
        // in-process transport needs no rendezvous of its own.
        Ok(())
    }
}

impl WorkerPort for LocalPort {
    fn send(&mut self, msg: WorkerMsg) -> Result<(), TransportError> {
        self.results_tx.send((self.index, msg)).map_err(|_| TransportError::PeerGone)
    }

    fn try_recv(&mut self) -> Result<Option<MasterMsg>, TransportError> {
        match self.inbox.try_recv() {
            Ok(m) => Ok(Some(m)),
            Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => Ok(None),
        }
    }

    fn barrier(&mut self) -> Result<(), TransportError> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_addressed_round_trip() {
        let (mut master, mut ports) = LocalTransport::new(2);
        master.send(1, MasterMsg::SourceDone).unwrap();
        assert!(matches!(ports[1].try_recv().unwrap(), Some(MasterMsg::SourceDone)));
        assert!(ports[0].try_recv().unwrap().is_none(), "addressed: only worker 1 sees it");
        ports[0].send(WorkerMsg::Pairs { pairs: vec![(3, 4)], exhausted: true }).unwrap();
        match master.try_recv().unwrap() {
            Some((0, WorkerMsg::Pairs { pairs, exhausted: true })) => assert_eq!(pairs, [(3, 4)]),
            other => panic!("expected worker 0's pairs, got {other:?}"),
        }
    }
}
