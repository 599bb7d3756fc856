//! The communicator: tagged point-to-point messaging plus collectives.
//!
//! Every operation is *fallible*: faults (a dead peer, a timeout, this
//! rank's own injected death) surface as [`CommError`] values rather than
//! panics, so long-running jobs can contain failures instead of
//! collapsing. A shared liveness board tracks which ranks are still
//! running — the moral equivalent of ULFM's failure notification — and an
//! optional [`FaultInjector`] lets tests drive deterministic kill/drop/
//! delay/slowdown schedules through the same code paths real faults would
//! take.

use std::any::Any;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};

use crate::error::CommError;
use crate::fault::{FaultInjector, MessageFate};

/// Wildcard source for [`Communicator::try_recv`].
pub const ANY_SOURCE: usize = usize::MAX;

/// Tags at or above this value are reserved for collectives.
const RESERVED_TAG_BASE: u32 = u32::MAX - 16;
const TAG_BARRIER_IN: u32 = RESERVED_TAG_BASE;
const TAG_BARRIER_OUT: u32 = RESERVED_TAG_BASE + 1;
const TAG_BCAST: u32 = RESERVED_TAG_BASE + 2;
const TAG_REDUCE: u32 = RESERVED_TAG_BASE + 3;

struct Envelope {
    from: usize,
    tag: u32,
    payload: Box<dyn Any + Send>,
}

/// A message held back by an injected delay: delivered once `remaining`
/// further sends to the same destination have gone out.
struct Holdback {
    remaining: u32,
    to: usize,
    envelope: Envelope,
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
    /// (normally, by panic, or killed by the injector).
    alive: Arc<[AtomicBool]>,
    injector: Arc<dyn FaultInjector>,
    /// Operations this rank has performed (the injector's event clock).
    events: u64,
    /// Messages sent per destination (the injector's per-edge sequence).
    edge_seq: Vec<u64>,
    /// Messages held back by injected delays.
    holdback: Vec<Holdback>,
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

    /// Whether rank `r` is still running. `false` once it has returned
    /// from its SPMD closure, panicked, or been killed by the injector.
    pub fn peer_alive(&self, r: usize) -> bool {
        r < self.size && self.alive[r].load(Ordering::SeqCst)
    }

    /// Consult the fault injector before an operation: sleep through any
    /// injected slowdown, then fail if this rank is (or just became) dead.
    fn preflight(&mut self) -> Result<(), CommError> {
        if !self.alive[self.rank].load(Ordering::SeqCst) {
            return Err(CommError::RankKilled);
        }
        let event = self.events;
        self.events += 1;
        if let Some(pause) = self.injector.slowdown(self.rank, event) {
            std::thread::sleep(pause);
        }
        if self.injector.kill_now(self.rank, event) {
            self.alive[self.rank].store(false, Ordering::SeqCst);
            return Err(CommError::RankKilled);
        }
        Ok(())
    }

    /// Send `value` to `to` with `tag`. Asynchronous (buffered); never
    /// blocks. User tags must stay below the reserved range.
    pub fn send<T: Any + Send>(&mut self, to: usize, tag: u32, value: T) -> Result<(), CommError> {
        assert!(tag < RESERVED_TAG_BASE, "tag {tag} is reserved for collectives");
        self.preflight()?;
        self.send_raw(to, tag, value)
    }

    fn send_raw<T: Any + Send>(&mut self, to: usize, tag: u32, value: T) -> Result<(), CommError> {
        assert!(to < self.size, "rank {to} out of range (size {})", self.size);
        let seq = self.edge_seq[to];
        self.edge_seq[to] += 1;
        let envelope = Envelope { from: self.rank, tag, payload: Box::new(value) };
        match self.injector.message_fate(self.rank, to, tag, seq) {
            MessageFate::Drop => {
                // Silent loss: the sender sees success, like a buffered
                // MPI send onto a failing link. Held-back messages still
                // age past this slot.
                self.age_holdbacks(to);
                return Ok(());
            }
            MessageFate::Delay { hold } => {
                self.holdback.push(Holdback { remaining: hold, to, envelope });
                return Ok(());
            }
            MessageFate::Deliver => {}
        }
        let result = if self.alive[to].load(Ordering::SeqCst) {
            self.senders[to].send(envelope).map_err(|_| CommError::PeerExited { rank: to })
        } else {
            Err(CommError::PeerExited { rank: to })
        };
        self.age_holdbacks(to);
        result
    }

    /// Age every held-back message destined for `to`; deliver the ones
    /// whose delay has elapsed (best effort — a dead receiver loses them).
    fn age_holdbacks(&mut self, to: usize) {
        let mut due = Vec::new();
        let mut i = 0;
        while i < self.holdback.len() {
            if self.holdback[i].to == to {
                if self.holdback[i].remaining == 0 {
                    due.push(self.holdback.swap_remove(i));
                    continue;
                }
                self.holdback[i].remaining -= 1;
            }
            i += 1;
        }
        for held in due {
            let _ = self.senders[to].send(held.envelope);
        }
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
        self.preflight()?;
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

    /// Synchronise all ranks (central counter at rank 0).
    pub fn barrier(&mut self) -> Result<(), CommError> {
        self.preflight()?;
        if self.rank == 0 {
            for _ in 1..self.size {
                let _ = self.recv_match::<()>(ANY_SOURCE, TAG_BARRIER_IN, None)?;
            }
            for r in 1..self.size {
                self.send_raw(r, TAG_BARRIER_OUT, ())?;
            }
        } else {
            self.send_raw(0, TAG_BARRIER_IN, ())?;
            let _ = self.recv_match::<()>(0, TAG_BARRIER_OUT, None)?;
        }
        Ok(())
    }

    /// Sum-reduce to every rank (summed at rank 0, in rank order, then
    /// sent back out).
    pub fn all_reduce_sum(&mut self, value: u64) -> Result<u64, CommError> {
        self.preflight()?;
        if self.rank != 0 {
            self.send_raw(0, TAG_REDUCE, value)?;
            return self.recv_peer::<u64>(0, TAG_BCAST).map(|(_, total)| total);
        }
        let mut total = value;
        for r in 1..self.size {
            total += self.recv_peer::<u64>(r, TAG_REDUCE)?.1;
        }
        for r in 1..self.size {
            self.send_raw(r, TAG_BCAST, total)?;
        }
        Ok(total)
    }
}

/// Outcome of one rank in a fault-injected SPMD run.
pub type RankOutcome<R> = Result<R, RankFailure>;

/// How a rank failed to produce a result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RankFailure {
    /// The rank's closure panicked; the payload's message if it was a
    /// string.
    Panicked(String),
}

/// Wire a world of `p` ranks: one inbox per rank, handed to that rank's
/// communicator, and a sender to every inbox in each of them.
fn build_world(p: usize, injector: Arc<dyn FaultInjector>) -> Vec<Communicator> {
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
            injector: injector.clone(),
            events: 0,
            edge_seq: vec![0; p],
            holdback: Vec::new(),
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

/// Run `f` on `p` ranks (one thread each) under `injector`, tolerating
/// rank failures: a rank that panics yields `Err(RankFailure)` in its slot
/// instead of taking the world down, and is marked dead on the liveness
/// board (so surviving ranks observe its death via
/// [`Communicator::peer_alive`] and failed sends).
pub fn run_spmd_faulty<R, F>(
    p: usize,
    injector: Arc<dyn FaultInjector>,
    f: F,
) -> Vec<RankOutcome<R>>
where
    R: Send,
    F: Fn(&mut Communicator) -> R + Sync,
{
    assert!(p >= 1, "need at least one rank");
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = build_world(p, injector)
            .into_iter()
            .map(|comm| scope.spawn(move || run_rank(comm, f)))
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(Ok(r)) => Ok(r),
                Ok(Err(payload)) | Err(payload) => {
                    Err(RankFailure::Panicked(panic_message(payload.as_ref())))
                }
            })
            .collect()
    })
}

fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_owned()
    }
}

/// Run `f` on `p` ranks (one thread each) and collect each rank's return
/// value, ordered by rank. No faults are injected; a rank panic propagates
/// to the caller with its original payload (use [`run_spmd_faulty`] for
/// failure containment).
pub fn run_spmd<R, F>(p: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&mut Communicator) -> R + Sync,
{
    assert!(p >= 1, "need at least one rank");
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = build_world(p, Arc::new(crate::fault::NoFaults))
            .into_iter()
            .map(|comm| scope.spawn(move || run_rank(comm, f)))
            .collect();
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
    use crate::fault::{FaultInjector, MessageFate};

    /// Every comm call in the tests below goes through the fallible
    /// surface; the tests run fault-free worlds, so `ok()`/`Ok` patterns
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
    fn all_reduce_sums_on_every_rank() {
        let results = run_spmd(8, |comm| must(comm.all_reduce_sum(comm.rank() as u64 + 1)));
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
            assert_eq!(must(comm.all_reduce_sum(7)), 7);
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

    /// Kill rank 1 at its very first operation.
    struct KillFirstOp;
    impl FaultInjector for KillFirstOp {
        fn kill_now(&self, rank: usize, event: u64) -> bool {
            rank == 1 && event == 0
        }
    }

    #[test]
    fn killed_rank_sees_rank_killed_and_peers_observe_death() {
        let results = run_spmd_faulty(2, Arc::new(KillFirstOp), |comm| {
            if comm.rank() == 1 {
                // First op dies; every later op dies too.
                assert_eq!(comm.send(0, 1, 0u8), Err(CommError::RankKilled));
                assert_eq!(poll::<u8>(comm, 0, 1).err(), Some(CommError::RankKilled));
                "killed"
            } else {
                // Wait for the liveness board to reflect the death, then
                // observe that sends to the corpse fail.
                while comm.peer_alive(1) {
                    std::thread::yield_now();
                }
                assert_eq!(comm.send(1, 1, 0u8), Err(CommError::PeerExited { rank: 1 }));
                "survivor"
            }
        });
        assert_eq!(results[0], Ok("survivor"));
        assert_eq!(results[1], Ok("killed"));
    }

    /// Drop the first message from 0 to 1 on tag 7.
    struct DropFirst;
    impl FaultInjector for DropFirst {
        fn message_fate(&self, from: usize, to: usize, tag: u32, seq: u64) -> MessageFate {
            if from == 0 && to == 1 && tag == 7 && seq == 0 {
                MessageFate::Drop
            } else {
                MessageFate::Deliver
            }
        }
    }

    #[test]
    fn dropped_message_is_lost_but_send_succeeds() {
        let results = run_spmd_faulty(2, Arc::new(DropFirst), |comm| {
            if comm.rank() == 0 {
                must(comm.send(1, 7, 1u32)); // dropped
                must(comm.send(1, 7, 2u32)); // delivered
                0
            } else {
                // Only the second message arrives.
                must(poll::<u32>(comm, 0, 7)).1
            }
        });
        assert_eq!(results[1], Ok(2));
    }

    /// Delay the first message from 0→1 until one more has been sent.
    struct DelayFirst;
    impl FaultInjector for DelayFirst {
        fn message_fate(&self, from: usize, to: usize, _tag: u32, seq: u64) -> MessageFate {
            if from == 0 && to == 1 && seq == 0 {
                MessageFate::Delay { hold: 0 } // deliver after the next send
            } else {
                MessageFate::Deliver
            }
        }
    }

    #[test]
    fn delayed_message_is_reordered_not_lost() {
        let results = run_spmd_faulty(2, Arc::new(DelayFirst), |comm| {
            if comm.rank() == 0 {
                must(comm.send(1, 7, 1u32));
                must(comm.send(1, 7, 2u32));
                Vec::new()
            } else {
                vec![must(poll::<u32>(comm, 0, 7)).1, must(poll::<u32>(comm, 0, 7)).1]
            }
        });
        assert_eq!(results[1], Ok(vec![2, 1]), "first message overtaken by the second");
    }

    #[test]
    fn panicked_rank_is_contained_in_faulty_mode() {
        let results =
            run_spmd_faulty(3, Arc::new(crate::fault::NoFaults), |comm| match comm.rank() {
                1 => panic!("rank 1 exploded"),
                r => r,
            });
        assert_eq!(results[0], Ok(0));
        assert_eq!(results[1], Err(RankFailure::Panicked("rank 1 exploded".to_owned())));
        assert_eq!(results[2], Ok(2));
    }

    #[test]
    fn collective_with_dead_peer_errors_instead_of_hanging() {
        // Rank 1 exits before sending its summand: the root must observe
        // PeerExited, not block forever.
        let results = run_spmd_faulty(3, Arc::new(crate::fault::NoFaults), |comm| {
            if comm.rank() == 1 {
                return None; // dies without participating
            }
            Some(comm.all_reduce_sum(comm.rank() as u64))
        });
        match &results[0] {
            Ok(Some(Err(CommError::PeerExited { rank: 1 }))) => {}
            other => panic!("expected PeerExited {{ rank: 1 }}, got {other:?}"),
        }
    }

    #[test]
    fn exited_rank_is_marked_dead() {
        let results = run_spmd(2, |comm| {
            if comm.rank() == 0 {
                // Rank 1 exits immediately; wait for the board to show it.
                while comm.peer_alive(1) {
                    std::thread::yield_now();
                }
                true
            } else {
                false
            }
        });
        assert!(results[0]);
    }
}
