//! The communicator: tagged point-to-point messaging plus collectives.
//!
//! Every operation is *fallible*: a dead peer or a torn-down world
//! surfaces as a [`CommError`] value rather than a panic. A shared
//! liveness board tracks which ranks are still running, so a collective
//! whose peer has exited fails instead of waiting for it forever.

use std::any::Any;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};

use crate::error::CommError;

/// Wildcard source for [`Communicator::try_recv`].
pub const ANY_SOURCE: usize = usize::MAX;

/// Tags at or above this value are reserved for collectives.
const RESERVED_TAG_BASE: u32 = u32::MAX - 16;
const TAG_BARRIER_IN: u32 = RESERVED_TAG_BASE;
const TAG_BARRIER_OUT: u32 = RESERVED_TAG_BASE + 1;

struct Envelope {
    from: usize,
    tag: u32,
    payload: Box<dyn Any + Send>,
}

/// One rank's endpoint of the SPMD world.
pub struct Communicator {
    rank: usize,
    size: usize,
    senders: Vec<Sender<Envelope>>,
    inbox: Receiver<Envelope>,
    /// Messages received but not yet matched by a `recv` call.
    pending: VecDeque<Envelope>,
    /// Shared liveness board: `alive[r]` is cleared when rank `r` exits
    /// (normally or by panic).
    alive: Arc<[AtomicBool]>,
}

impl Communicator {
    /// This rank's id, `0 .. size`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the world.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Send `value` to `to` with `tag`. Asynchronous (buffered); never
    /// blocks. User tags must stay below the reserved range.
    pub fn send<T: Any + Send>(&mut self, to: usize, tag: u32, value: T) -> Result<(), CommError> {
        assert!(tag < RESERVED_TAG_BASE, "tag {tag} is reserved for collectives");
        self.send_raw(to, tag, value)
    }

    fn send_raw<T: Any + Send>(&mut self, to: usize, tag: u32, value: T) -> Result<(), CommError> {
        assert!(to < self.size, "rank {to} out of range (size {})", self.size);
        if !self.alive[to].load(Ordering::SeqCst) {
            return Err(CommError::PeerExited { rank: to });
        }
        let envelope = Envelope { from: self.rank, tag, payload: Box::new(value) };
        self.senders[to].send(envelope).map_err(|_| CommError::PeerExited { rank: to })
    }

    fn open<T: Any + Send>(e: Envelope) -> Result<(usize, T), CommError> {
        let from = e.from;
        let tag = e.tag;
        match e.payload.downcast::<T>() {
            Ok(value) => Ok((from, *value)),
            Err(_) => {
                Err(CommError::TypeMismatch { tag, from, expected: std::any::type_name::<T>() })
            }
        }
    }

    /// Pull the already-buffered message matching `(from, tag)`, if any.
    fn take_pending(&mut self, from: usize, tag: u32) -> Option<Envelope> {
        let at = self
            .pending
            .iter()
            .position(|e| e.tag == tag && (from == ANY_SOURCE || e.from == from))?;
        self.pending.remove(at)
    }

    /// Core matching loop shared by every receive flavour. `deadline:
    /// None` blocks indefinitely; `Some(t)` fails with `Timeout` at `t`.
    fn recv_match<T: Any + Send>(
        &mut self,
        from: usize,
        tag: u32,
        deadline: Option<Instant>,
    ) -> Result<(usize, T), CommError> {
        if let Some(e) = self.take_pending(from, tag) {
            return Self::open(e);
        }
        loop {
            let e = match deadline {
                None => self.inbox.recv().map_err(|_| CommError::Disconnected)?,
                Some(t) => {
                    let now = Instant::now();
                    if now >= t {
                        return Err(CommError::Timeout);
                    }
                    match self.inbox.recv_timeout(t - now) {
                        Ok(e) => e,
                        Err(RecvTimeoutError::Timeout) => return Err(CommError::Timeout),
                        Err(RecvTimeoutError::Disconnected) => return Err(CommError::Disconnected),
                    }
                }
            };
            if e.tag == tag && (from == ANY_SOURCE || e.from == from) {
                return Self::open(e);
            }
            self.pending.push_back(e);
        }
    }

    /// Collective-internal receive from a *specific* peer that watches the
    /// liveness board while waiting: if `from` dies before its message
    /// arrives, this fails with [`CommError::PeerExited`] instead of
    /// blocking forever — the reason a dead rank degrades a collective
    /// phase rather than deadlocking it. A message the peer sent before
    /// dying is still drained and delivered.
    fn recv_peer<T: Any + Send>(&mut self, from: usize, tag: u32) -> Result<(usize, T), CommError> {
        const LIVENESS_POLL: Duration = Duration::from_millis(10);
        loop {
            match self.recv_match::<T>(from, tag, Some(Instant::now() + LIVENESS_POLL)) {
                Err(CommError::Timeout) => {
                    if !self.alive[from].load(Ordering::SeqCst) {
                        // The peer is dead; drain anything it sent on its
                        // way out before declaring the slot lost.
                        let grace = Instant::now() + Duration::from_millis(1);
                        return match self.recv_match::<T>(from, tag, Some(grace)) {
                            Err(CommError::Timeout) => Err(CommError::PeerExited { rank: from }),
                            other => other,
                        };
                    }
                }
                other => return other,
            }
        }
    }

    /// Non-blocking receive. `Ok(Some(..))` if a matching message is
    /// available now, `Ok(None)` if not.
    pub fn try_recv<T: Any + Send>(
        &mut self,
        from: usize,
        tag: u32,
    ) -> Result<Option<(usize, T)>, CommError> {
        if let Some(e) = self.take_pending(from, tag) {
            return Self::open(e).map(Some);
        }
        loop {
            match self.inbox.try_recv() {
                Ok(e) => {
                    if e.tag == tag && (from == ANY_SOURCE || e.from == from) {
                        return Self::open(e).map(Some);
                    }
                    self.pending.push_back(e);
                }
                Err(TryRecvError::Empty) => return Ok(None),
                Err(TryRecvError::Disconnected) => return Ok(None),
            }
        }
    }

    /// Synchronise all ranks (central counter at rank 0, which hears from
    /// each rank in rank order). Fails with [`CommError::PeerExited`]
    /// instead of waiting for a rank that has exited.
    pub fn barrier(&mut self) -> Result<(), CommError> {
        if self.rank == 0 {
            for r in 1..self.size {
                self.recv_peer::<()>(r, TAG_BARRIER_IN)?;
            }
            for r in 1..self.size {
                self.send_raw(r, TAG_BARRIER_OUT, ())?;
            }
        } else {
            self.send_raw(0, TAG_BARRIER_IN, ())?;
            self.recv_peer::<()>(0, TAG_BARRIER_OUT)?;
        }
        Ok(())
    }
}

/// Wire a world of `p` ranks: one inbox per rank, handed to that rank's
/// communicator, and a sender to every inbox in each of them.
fn build_world(p: usize) -> Vec<Communicator> {
    let (senders, inboxes): (Vec<Sender<Envelope>>, Vec<Receiver<Envelope>>) =
        (0..p).map(|_| unbounded()).unzip();
    let alive: Arc<[AtomicBool]> = (0..p).map(|_| AtomicBool::new(true)).collect();
    inboxes
        .into_iter()
        .enumerate()
        .map(|(rank, inbox)| Communicator {
            rank,
            size: p,
            senders: senders.clone(),
            inbox,
            pending: VecDeque::new(),
            alive: alive.clone(),
        })
        .collect()
}

/// Run rank `comm.rank()`'s copy of `f`, containing a panic, and mark the
/// rank dead on the liveness board whatever happened.
fn run_rank<R>(
    mut comm: Communicator,
    f: &(impl Fn(&mut Communicator) -> R + Sync),
) -> std::thread::Result<R> {
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut comm)));
    comm.alive[comm.rank].store(false, Ordering::SeqCst);
    result
}

/// Run `f` on `p` ranks (one thread each) and collect each rank's return
/// value, ordered by rank. A rank that panics is marked dead on the
/// liveness board, so its peers' collectives fail instead of hanging, and
/// the panic propagates to the caller with its original payload.
pub fn run_spmd<R, F>(p: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&mut Communicator) -> R + Sync,
{
    assert!(p >= 1, "need at least one rank");
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> =
            build_world(p).into_iter().map(|comm| scope.spawn(move || run_rank(comm, f))).collect();
        handles
            .into_iter()
            .map(|h| {
                let joined = match h.join() {
                    Ok(r) => r,
                    Err(payload) => Err(payload),
                };
                match joined {
                    Ok(r) => r,
                    // Re-raise with the original payload so callers (and
                    // `should_panic` tests) see the rank's own message.
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every comm call in the tests below goes through the fallible
    /// surface; the tests run healthy worlds, so `ok()`/`Ok` patterns
    /// assert success explicitly rather than papering over errors.
    fn must<T>(r: Result<T, CommError>) -> T {
        match r {
            Ok(v) => v,
            Err(e) => panic!("unexpected comm error: {e}"),
        }
    }

    /// A blocking receive the way the master–worker loops get one: poll
    /// `try_recv` until a matching message is there.
    fn poll<T: Any + Send>(
        comm: &mut Communicator,
        from: usize,
        tag: u32,
    ) -> Result<(usize, T), CommError> {
        loop {
            if let Some(got) = comm.try_recv(from, tag)? {
                return Ok(got);
            }
            std::thread::yield_now();
        }
    }

    #[test]
    fn ring_pass_accumulates() {
        let results = run_spmd(5, |comm| {
            let (rank, size) = (comm.rank(), comm.size());
            if rank == 0 {
                must(comm.send(1, 7, 1u64));
                let (_, total) = must(poll::<u64>(comm, size - 1, 7));
                total
            } else {
                let (_, v) = must(poll::<u64>(comm, rank - 1, 7));
                must(comm.send((rank + 1) % size, 7, v + 1));
                v
            }
        });
        assert_eq!(results[0], 5, "one increment per hop");
    }

    #[test]
    fn messages_non_overtaking_per_sender_tag() {
        let results = run_spmd(2, |comm| {
            if comm.rank() == 0 {
                for i in 0..100u32 {
                    must(comm.send(1, 3, i));
                }
                Vec::new()
            } else {
                (0..100).map(|_| must(poll::<u32>(comm, 0, 3)).1).collect::<Vec<u32>>()
            }
        });
        assert_eq!(results[1], (0..100).collect::<Vec<u32>>());
    }

    #[test]
    fn tags_keep_message_streams_apart() {
        let results = run_spmd(2, |comm| {
            if comm.rank() == 0 {
                must(comm.send(1, 1, "tag-one"));
                must(comm.send(1, 2, "tag-two"));
                (String::new(), String::new())
            } else {
                // Receive in the opposite order of sending.
                let (_, b) = must(poll::<&str>(comm, 0, 2));
                let (_, a) = must(poll::<&str>(comm, 0, 1));
                (a.to_owned(), b.to_owned())
            }
        });
        assert_eq!(results[1], ("tag-one".to_owned(), "tag-two".to_owned()));
    }

    #[test]
    fn any_source_receives_from_everyone() {
        let results = run_spmd(6, |comm| {
            if comm.rank() == 0 {
                let mut got: Vec<usize> =
                    (1..comm.size()).map(|_| must(poll::<u64>(comm, ANY_SOURCE, 9)).0).collect();
                got.sort_unstable();
                got
            } else {
                must(comm.send(0, 9, comm.rank() as u64));
                Vec::new()
            }
        });
        assert_eq!(results[0], vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn a_sum_sent_through_rank_0_reaches_every_rank() {
        let results = run_spmd(8, |comm| {
            let mine = comm.rank() as u64 + 1;
            let total = if comm.rank() == 0 {
                let total = mine
                    + (1..comm.size())
                        .map(|_| must(poll::<u64>(comm, ANY_SOURCE, 4)).1)
                        .sum::<u64>();
                (1..comm.size()).for_each(|r| must(comm.send(r, 4, total)));
                total
            } else {
                must(comm.send(0, 4, mine));
                must(poll::<u64>(comm, 0, 4)).1
            };
            must(comm.barrier());
            total
        });
        assert_eq!(results, vec![36; 8]);
    }

    #[test]
    fn barrier_orders_phases() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let phase1 = AtomicUsize::new(0);
        let results = run_spmd(6, |comm| {
            phase1.fetch_add(1, Ordering::SeqCst);
            must(comm.barrier());
            // After the barrier every rank must observe all 6 increments.
            phase1.load(Ordering::SeqCst)
        });
        assert!(results.iter().all(|&seen| seen == 6), "{results:?}");
    }

    #[test]
    fn single_rank_world() {
        let results = run_spmd(1, |comm| {
            must(comm.barrier());
            comm.rank()
        });
        assert_eq!(results, vec![0]);
    }

    #[test]
    #[should_panic(expected = "reserved for collectives")]
    fn reserved_tags_rejected() {
        // Only rank 0 acts; rank 1 returns immediately so the panic can
        // propagate through the join (a blocking recv here would deadlock
        // the scope).
        run_spmd(2, |comm| {
            if comm.rank() == 0 {
                let _ = comm.send(1, u32::MAX - 1, 0u8);
            }
        });
    }

    #[test]
    fn mixed_types_same_channel() {
        let results = run_spmd(2, |comm| {
            if comm.rank() == 0 {
                must(comm.send(1, 1, 42u64));
                must(comm.send(1, 2, "hello".to_owned()));
                must(comm.send(1, 3, vec![1.0f64, 2.0]));
                0.0
            } else {
                let (_, n) = must(poll::<u64>(comm, 0, 1));
                let (_, s) = must(poll::<String>(comm, 0, 2));
                let (_, v) = must(poll::<Vec<f64>>(comm, 0, 3));
                n as f64 + s.len() as f64 + v.iter().sum::<f64>()
            }
        });
        assert_eq!(results[1], 42.0 + 5.0 + 3.0);
    }

    #[test]
    fn type_mismatch_is_an_error_not_a_panic() {
        let results = run_spmd(2, |comm| {
            if comm.rank() == 0 {
                must(comm.send(1, 1, 42u64));
                true
            } else {
                matches!(
                    poll::<String>(comm, 0, 1),
                    Err(CommError::TypeMismatch { tag: 1, from: 0, .. })
                )
            }
        });
        assert!(results[1]);
    }

    #[test]
    fn collective_with_dead_peer_errors_instead_of_hanging() {
        // Rank 1 exits before it reaches the barrier: the root must observe
        // PeerExited, not block forever.
        let results = run_spmd(3, |comm| {
            if comm.rank() == 1 {
                return None; // exits without participating
            }
            Some(comm.barrier())
        });
        match &results[0] {
            Some(Err(CommError::PeerExited { rank: 1 })) => {}
            other => panic!("expected PeerExited {{ rank: 1 }}, got {other:?}"),
        }
    }

    #[test]
    fn exited_rank_is_marked_dead() {
        let results = run_spmd(2, |comm| {
            if comm.rank() == 0 {
                // Rank 1 exits immediately; once the board shows it, a
                // send to it fails instead of queueing.
                while comm.send(1, 5, ()).is_ok() {
                    std::thread::yield_now();
                }
                comm.send(1, 5, ()) == Err(CommError::PeerExited { rank: 1 })
            } else {
                false
            }
        });
        assert!(results[0]);
    }
}
