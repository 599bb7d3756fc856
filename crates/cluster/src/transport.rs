//! How candidate batches and verdicts travel between the master loop
//! around [`crate::core::ClusterCore`] and its workers.
//!
//! A [`Transport`] is the master's view of its worker pool: addressed
//! sends, a merged receive stream tagged with the worker index, and a
//! liveness board. A [`WorkerPort`] is one worker's view of the master.
//! The messages ([`MasterMsg`], [`WorkerMsg`]) are the complete protocol
//! vocabulary shared by every distributed driver — push (SPMD) and pull
//! (leased fault-tolerant) speak the same types, so
//! [`crate::policy::drive_spmd`] and [`crate::policy::drive_leased`] run
//! over either transport.
//!
//! Two transports exist:
//!
//! * [`MpiTransport`] / [`MpiWorkerPort`] — adapters over the fallible
//!   `pfam-mpi` communicator (message loss, rank death, the liveness
//!   board, fault injection all live below this seam);
//! * [`LocalTransport`] / [`LocalPort`] — in-process channels: one
//!   addressed queue per worker, so the push and pull loops run fully
//!   in-process (the driver-equivalence matrix tests).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

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
    /// The counterpart has exited; the message was not delivered. For a
    /// policy this is a *tolerable* fault (re-lease the work, drop the
    /// peer) — the fault-tolerant scheduler handles it in-job.
    PeerGone,
    /// The transport itself failed (own rank killed, world torn down,
    /// protocol bug). Not recoverable in-job.
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
    /// A leased candidate batch to verify: `(a, b)` sequence-id pairs.
    /// Push-mode drivers use a single dummy lease id.
    Task {
        /// Lease id echoed back with the verdicts (stale-verdict filter).
        lease: u64,
        /// Candidate pairs; in RR runs each is oriented
        /// `(candidate-to-remove, container)`.
        candidates: Vec<(u32, u32)>,
    },
    /// Push protocol: the master has seen this worker's exhausted flag;
    /// after answering any tasks still queued ahead of this message, the
    /// worker may leave.
    SourceDone,
    /// Pull protocol: no more work — acknowledge with [`WorkerMsg::Bye`]
    /// and exit.
    Shutdown,
}

/// Worker → master protocol messages.
#[derive(Debug, Clone)]
pub enum WorkerMsg {
    /// Push protocol: a batch of promising pairs mined from this worker's
    /// slice of the suffix space; `exhausted` marks the final batch.
    Pairs {
        /// `(a, b)` sequence-id pairs, decreasing match length.
        pairs: Vec<(u32, u32)>,
        /// Whether this worker's slice is now fully mined.
        exhausted: bool,
    },
    /// Verdicts for one leased task batch.
    Verdicts {
        /// The lease id the task carried.
        lease: u64,
        /// One verdict per candidate, in task order.
        verdicts: Vec<Verdict>,
    },
    /// Pull protocol: "I am idle, lease me a batch."
    Request,
    /// Pull protocol: shutdown acknowledged, worker exiting.
    Bye,
}

/// The master's endpoint: `n_workers` peers indexed `0..n_workers`.
pub trait Transport {
    /// Number of workers in the pool (dead ones included).
    fn n_workers(&self) -> usize;

    /// Whether worker `w` is still running (the liveness board).
    fn worker_alive(&self, w: usize) -> bool;

    /// Send `msg` to worker `w` (non-blocking; delivery is not
    /// acknowledged — fault-tolerant policies must re-lease on timeout).
    fn send(&mut self, w: usize, msg: MasterMsg) -> Result<(), TransportError>;

    /// Receive the next worker message, from any worker, if one is ready.
    fn try_recv(&mut self) -> Result<Option<(usize, WorkerMsg)>, TransportError>;

    /// Block until every rank reaches the barrier (healthy worlds only).
    fn barrier(&mut self) -> Result<(), TransportError>;
}

/// One worker's endpoint toward the master.
pub trait WorkerPort {
    /// Send `msg` to the master.
    fn send(&mut self, msg: WorkerMsg) -> Result<(), TransportError>;

    /// Receive the next master message, if one is ready.
    fn try_recv(&mut self) -> Result<Option<MasterMsg>, TransportError>;

    /// Whether the master is still running.
    fn master_alive(&self) -> bool;

    /// Block until every rank reaches the barrier (healthy worlds only).
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

    fn worker_alive(&self, w: usize) -> bool {
        self.comm.peer_alive(w + 1)
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

    fn master_alive(&self) -> bool {
        self.comm.peer_alive(0)
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
    alive: Vec<Arc<AtomicBool>>,
}

/// One in-process worker's endpoint (hand each to its worker thread).
pub struct LocalPort {
    index: usize,
    results_tx: Sender<(usize, WorkerMsg)>,
    inbox: Receiver<MasterMsg>,
    alive: Arc<AtomicBool>,
}

impl LocalTransport {
    /// Build a pool of `n_workers` in-process endpoints.
    pub fn new(n_workers: usize) -> (LocalTransport, Vec<LocalPort>) {
        let (results_tx, results_rx) = channel::unbounded();
        let mut addressed = Vec::with_capacity(n_workers);
        let mut alive = Vec::with_capacity(n_workers);
        let mut ports = Vec::with_capacity(n_workers);
        for index in 0..n_workers {
            let (tx, rx) = channel::unbounded();
            let flag = Arc::new(AtomicBool::new(true));
            addressed.push(tx);
            alive.push(flag.clone());
            ports.push(LocalPort { index, results_tx: results_tx.clone(), inbox: rx, alive: flag });
        }
        (LocalTransport { results_rx, addressed, alive }, ports)
    }
}

impl Transport for LocalTransport {
    fn n_workers(&self) -> usize {
        self.addressed.len()
    }

    fn worker_alive(&self, w: usize) -> bool {
        self.alive[w].load(Ordering::SeqCst)
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

impl Drop for LocalPort {
    fn drop(&mut self) {
        // The liveness board: a returned (or panicked) worker thread drops
        // its port, and the master observes the death.
        self.alive.store(false, Ordering::SeqCst);
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

    fn master_alive(&self) -> bool {
        true
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
        master.send(1, MasterMsg::Shutdown).unwrap();
        assert!(matches!(ports[1].try_recv().unwrap(), Some(MasterMsg::Shutdown)));
        assert!(ports[0].try_recv().unwrap().is_none(), "addressed: only worker 1 sees it");
        ports[0].send(WorkerMsg::Request).unwrap();
        match master.try_recv().unwrap() {
            Some((0, WorkerMsg::Request)) => {}
            other => panic!("expected worker 0's request, got {other:?}"),
        }
    }

    #[test]
    fn local_liveness_flips_on_drop() {
        let (master, mut ports) = LocalTransport::new(2);
        assert!(master.worker_alive(0) && master.worker_alive(1));
        drop(ports.remove(0));
        assert!(!master.worker_alive(0));
        assert!(master.worker_alive(1));
    }
}
