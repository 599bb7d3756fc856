//! The three master loops around [`ClusterCore`]. Each cuts a phase's
//! pairs — a slice, on the master or, for the push protocol, one per
//! worker — into batches in order, routes each batch through the core's
//! filter, gets the survivors verified (locally or across a
//! [`Transport`]), and folds the verdicts back into the core:
//!
//! * [`drive_batched`] — the in-process loop, the only one `pfam` runs.
//!   It fills a window of [`VERIFY_SLICE`] pairs at a time and admits a
//!   batch at a time: the window's candidates as the state stands are
//!   filled in one list across the rayon pool (shape-sorted groups of
//!   sixteen, handed out one at a time, so the pool schedules itself),
//!   then each batch is admitted against the live state, reads its
//!   survivors' verdicts off the window and is absorbed; optional
//!   checkpoint cursor emission at batch boundaries. A fill no batch
//!   admits is returned: RR drops it, CCD hands it to the back half.
//! * [`drive_spmd`] — the paper's Section IV-B protocol: workers own
//!   rank-partitioned slices of the suffix space and push pair batches to
//!   the master, which filters and returns the survivors to the same
//!   worker for alignment.
//! * [`drive_leased`] — the fault-tolerant scheduler: the master owns the
//!   pairs, workers pull one admitted batch per lease; leases held by dead
//!   or silent workers are re-enqueued, stale verdicts are discarded by
//!   lease id.
//!
//! The worker halves of the distributed loops ([`serve_push_worker`],
//! [`serve_pull_worker`]) run on worker ranks or threads against any
//! [`WorkerPort`].

use std::collections::HashMap;
use std::time::{Duration, Instant};

use pfam_seq::{SeqId, SeqStore};
use pfam_suffix::MatchPair;

use crate::core::{CcdCursor, ClusterCore, Verdict, Verifier, VerifyOn, VERIFY_SLICE};
use crate::transport::{MasterMsg, Transport, TransportError, WorkerMsg, WorkerPort};

/// How long a lease may stay outstanding before the master assumes its
/// task or verdict message was lost and re-enqueues the batch. Re-leasing
/// a batch that is merely slow is harmless: verification is pure and
/// stale verdicts are discarded by lease id.
pub const LEASE_TIMEOUT: Duration = Duration::from_millis(250);
/// How long a pull worker waits for a task before re-sending its request
/// (covers dropped request or task messages).
pub const REQUEST_TIMEOUT: Duration = Duration::from_millis(25);
/// How long the master waits for a shutdown acknowledgement before
/// re-sending the shutdown message.
pub const BYE_TIMEOUT: Duration = Duration::from_millis(25);

/// Why a distributed loop could not drive its phase to completion.
#[derive(Debug)]
pub enum DriveError {
    /// Every worker died while leased or queued work remained.
    NoWorkersLeft,
    /// The transport failed fatally (own rank killed, world torn down).
    Transport(String),
}

impl std::fmt::Display for DriveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DriveError::NoWorkersLeft => {
                write!(f, "all workers died with work still outstanding")
            }
            DriveError::Transport(msg) => write!(f, "transport failed: {msg}"),
        }
    }
}

impl std::error::Error for DriveError {}

fn fatal(e: TransportError) -> DriveError {
    DriveError::Transport(format!("{e}"))
}

/// The in-process loop: `pairs` in batches of `batch_size`, in order, each
/// admitted against the live state and absorbed, with a cursor sent to
/// `on_checkpoint` after every `checkpoint_every` batches (0 disables; CCD
/// only). The fills run a window of [`VERIFY_SLICE`] pairs ahead: every
/// candidate the window's batches have *now* ([`ClusterCore::ahead`]) is
/// filled in one [`Verifier::verify`] across the rayon pool, and each batch
/// then reads its survivors' verdicts off the window. Verdicts are pure and
/// the filters only tighten, so every trace record, cursor and result is
/// the one-batch-at-a-time loop's. Returns the verdicts it filled that no
/// batch then admitted — in RR a read of the pair was removed first, in
/// CCD the pair was deferred. Panics when `batch_size` is 0.
pub fn drive_batched(
    core: &mut ClusterCore<'_>,
    pairs: &[MatchPair],
    verifier: &Verifier,
    batch_size: usize,
    checkpoint_every: usize,
    on_checkpoint: &mut dyn FnMut(&CcdCursor),
) -> Vec<Verdict> {
    assert!(batch_size > 0, "drive_batched needs a batch size of at least 1");
    let window_len = (VERIFY_SLICE / batch_size).max(1) * batch_size;
    let mut unadmitted = Vec::new();
    let mut batches = 0usize;
    for window in pairs.chunks(window_len) {
        // Each batch's candidates as the state stands, end to end.
        let (mut ahead, mut ends) = (Vec::new(), Vec::new());
        for batch in window.chunks(batch_size) {
            ahead.extend(core.ahead(batch));
            ends.push(ahead.len());
        }
        let filled = verifier.verify(core.set(), &ahead, VerifyOn::Pool);
        let mut at = 0;
        for (batch, end) in window.chunks(batch_size).zip(ends) {
            // The filters only tighten: the survivors are an ordered
            // subsequence of the batch's candidates ahead.
            let mut verdicts = Vec::new();
            for survivor in core.admit_batch(batch) {
                while at < end && ahead[at] != survivor {
                    unadmitted.push(filled[at]);
                    at += 1;
                }
                assert!(
                    at < end,
                    "drive_batched admitted {survivor:?}, which was not filled ahead"
                );
                verdicts.push(filled[at]);
                at += 1;
            }
            unadmitted.extend_from_slice(&filled[at..end]);
            at = end;
            core.absorb(verdicts);
            batches += 1;
            if checkpoint_every > 0 && batches.is_multiple_of(checkpoint_every) {
                on_checkpoint(&core.cursor());
            }
        }
    }
    unadmitted.retain(|v| !v.ledger_hit);
    unadmitted
}

/// Cut the next batch of at most `batch_size` pairs off the front of
/// `rest`, and whether it is the last: shorter than `batch_size`, so empty
/// when the pairs ran out on a full batch. The distributed loops send
/// end-of-stream with it.
fn next_batch<'p>(rest: &mut &'p [MatchPair], batch_size: usize) -> (&'p [MatchPair], bool) {
    let (batch, tail) = rest.split_at(rest.len().min(batch_size));
    *rest = tail;
    (batch, batch.len() < batch_size)
}

/// Reconstruct filterable pairs from their wire form (match lengths are
/// not needed by the filter).
fn wire_pairs(pairs: &[(u32, u32)]) -> Vec<MatchPair> {
    pairs.iter().map(|&(a, b)| MatchPair::new(SeqId(a), SeqId(b), 0)).collect()
}

/// The master half of the paper's push protocol: workers mine their own
/// slice of the suffix space and push pair batches; the master filters
/// each batch against the live clustering and returns the survivors to
/// the *same* worker for verification. Assumes a healthy world — any
/// transport fault is an error, not a tolerated event.
pub fn drive_spmd<T: Transport + ?Sized>(
    core: &mut ClusterCore<'_>,
    t: &mut T,
) -> Result<(), DriveError> {
    let n_workers = t.n_workers();
    let mut workers_done = 0usize;
    // Per-worker: how many candidate batches are still in flight.
    let mut outstanding = vec![0usize; n_workers];

    while workers_done < n_workers || outstanding.iter().sum::<usize>() > 0 {
        match t.try_recv().map_err(fatal)? {
            Some((w, WorkerMsg::Verdicts { verdicts, .. })) => {
                outstanding[w] -= 1;
                core.absorb(verdicts);
            }
            Some((w, WorkerMsg::Pairs { pairs, exhausted })) => {
                // Every pushed batch is recorded, even when all of its
                // pairs are filtered (or it is the empty final batch).
                let candidates = core.admit_batch(&wire_pairs(&pairs));
                if !candidates.is_empty() {
                    outstanding[w] += 1;
                    t.send(w, MasterMsg::Task { lease: 0, candidates }).map_err(fatal)?;
                }
                if exhausted {
                    workers_done += 1;
                    t.send(w, MasterMsg::SourceDone).map_err(fatal)?;
                }
            }
            Some(_) => {}
            None => std::thread::yield_now(),
        }
    }
    // Release workers: they exit after the SourceDone message once no
    // more candidate batches can arrive (outstanding drained above).
    t.barrier().map_err(fatal)?;
    Ok(())
}

/// The worker half of the push protocol: cut the next batch off this
/// rank's `pairs`, push it, serve candidate tasks while waiting, leave
/// after the master's [`MasterMsg::SourceDone`]. Panics on transport
/// faults — the push protocol assumes a healthy world (fault tolerance
/// lives in [`drive_leased`]) — and when `batch_size` is 0.
pub fn serve_push_worker<P: WorkerPort + ?Sized>(
    port: &mut P,
    mut pairs: &[MatchPair],
    verifier: &Verifier,
    set: &dyn SeqStore,
    batch_size: usize,
) {
    assert!(batch_size > 0, "serve_push_worker needs a batch size of at least 1");
    fn healthy<X>(r: Result<X, TransportError>) -> X {
        match r {
            Ok(v) => v,
            Err(e) => panic!("spmd world must stay healthy: {e}"),
        }
    }
    let answer = |port: &mut P, candidates: Vec<(u32, u32)>| {
        let verdicts = verifier.verify(set, &candidates, VerifyOn::Caller);
        healthy(port.send(WorkerMsg::Verdicts { lease: 0, verdicts }));
    };

    let mut exhausted = false;
    while !exhausted {
        // The next batch of this worker's slice.
        let (batch, last) = next_batch(&mut pairs, batch_size);
        exhausted = last;
        let wire = batch.iter().map(|p| (p.a.0, p.b.0)).collect();
        healthy(port.send(WorkerMsg::Pairs { pairs: wire, exhausted }));
        // Serve candidate tasks while waiting; the SourceDone ack only
        // comes after the master has seen our exhausted flag.
        loop {
            match healthy(port.try_recv()) {
                Some(MasterMsg::Task { candidates, .. }) => {
                    answer(port, candidates);
                    continue;
                }
                Some(MasterMsg::SourceDone) => {
                    // Final drain: answer any candidates still queued.
                    while let Some(MasterMsg::Task { candidates, .. }) = healthy(port.try_recv()) {
                        answer(port, candidates);
                    }
                    healthy(port.barrier());
                    return;
                }
                Some(_) | None => {}
            }
            if !exhausted {
                // Produce the next pair batch eagerly.
                break;
            }
            std::thread::yield_now();
        }
    }
    unreachable!("worker exits via the SourceDone path");
}

/// One outstanding lease: which worker holds it, since when, and the
/// batch to re-enqueue if it lapses.
struct Lease {
    worker: usize,
    issued: Instant,
    candidates: Vec<(u32, u32)>,
}

/// Cut batches off `rest` until one leaves survivors (or the pairs run
/// out, which sets `exhausted`). Each cut batch but the empty last one is
/// admitted — and therefore recorded in the trace — exactly once, whether
/// or not any candidate survives.
fn next_fresh_batch(
    core: &mut ClusterCore<'_>,
    rest: &mut &[MatchPair],
    batch_size: usize,
    exhausted: &mut bool,
) -> Option<Vec<(u32, u32)>> {
    while !*exhausted {
        let batch;
        (batch, *exhausted) = next_batch(rest, batch_size);
        if batch.is_empty() {
            break;
        }
        let candidates = core.admit_batch(batch);
        if !candidates.is_empty() {
            return Some(candidates);
        }
    }
    None
}

/// Tell every surviving worker to exit and wait for acknowledgements,
/// re-sending on timeout so dropped shutdown messages cannot strand a
/// worker (fault schedules are finite, so retries eventually land).
fn shutdown_workers<T: Transport + ?Sized>(t: &mut T) -> Result<(), DriveError> {
    let mut pending: Vec<usize> = (0..t.n_workers()).filter(|&w| t.worker_alive(w)).collect();
    while !pending.is_empty() {
        for &w in &pending {
            match t.send(w, MasterMsg::Shutdown) {
                Ok(()) | Err(TransportError::PeerGone) => {}
                Err(e) => return Err(fatal(e)),
            }
        }
        let deadline = Instant::now() + BYE_TIMEOUT;
        while Instant::now() < deadline && !pending.is_empty() {
            match t.try_recv() {
                Ok(Some((w, WorkerMsg::Bye))) => pending.retain(|&x| x != w),
                // Re-requests from workers that never saw the shutdown
                // get another shutdown on the next outer round; stale
                // verdicts are abandoned with the world.
                Ok(Some(_)) => {}
                Ok(None) => std::thread::yield_now(),
                Err(TransportError::PeerGone) => {}
                Err(e) => return Err(fatal(e)),
            }
            pending.retain(|&w| t.worker_alive(w));
        }
        pending.retain(|&w| t.worker_alive(w));
    }
    Ok(())
}

/// The fault-tolerant pull scheduler: the master owns `pairs` and all work
/// state, cut into batches of `batch_size`; a lease is one admitted
/// batch's survivors. Workers are stateless verification servers that
/// pull leases. A lease is recovered — re-enqueued for any surviving
/// worker — when its worker is observed dead on the liveness board or when
/// it has been outstanding for [`LEASE_TIMEOUT`] (covers dropped
/// task/verdict messages and a worker that is alive but slower than that).
/// Stale verdicts are discarded by lease id, so no batch is ever applied
/// twice. Panics when `batch_size` is 0.
pub fn drive_leased<T: Transport + ?Sized>(
    core: &mut ClusterCore<'_>,
    t: &mut T,
    mut pairs: &[MatchPair],
    batch_size: usize,
) -> Result<(), DriveError> {
    assert!(batch_size > 0, "drive_leased needs a batch size of at least 1");
    let mut exhausted = false;
    let mut next_lease: u64 = 0;
    let mut outstanding: HashMap<u64, Lease> = HashMap::new();
    // Recovered batches waiting to be re-leased, ahead of fresh pairs.
    let mut requeued: Vec<Vec<(u32, u32)>> = Vec::new();

    loop {
        // Recover leases held by dead workers, then stale leases
        // (their task or verdict message may have been dropped).
        let now = Instant::now();
        let lapsed: Vec<u64> = outstanding
            .iter()
            .filter(|(_, l)| {
                !t.worker_alive(l.worker) || now.duration_since(l.issued) > LEASE_TIMEOUT
            })
            .map(|(&id, _)| id)
            .collect();
        if !lapsed.is_empty() {
            core.note_recovery(lapsed.len());
        }
        for id in lapsed {
            if let Some(lease) = outstanding.remove(&id) {
                requeued.push(lease.candidates);
            }
        }

        let work_remains = !exhausted || !requeued.is_empty() || !outstanding.is_empty();
        if !work_remains {
            break;
        }
        if (0..t.n_workers()).all(|w| !t.worker_alive(w)) {
            return Err(DriveError::NoWorkersLeft);
        }

        match t.try_recv() {
            Ok(Some((_, WorkerMsg::Verdicts { lease, verdicts }))) => {
                // Stale verdicts (lease already recovered and re-issued)
                // are discarded: each batch is applied exactly once.
                if outstanding.remove(&lease).is_some() {
                    core.absorb(verdicts);
                }
                continue;
            }
            Ok(Some((from, WorkerMsg::Request))) => {
                if !t.worker_alive(from) {
                    continue;
                }
                // Lease a recovered batch first, else cut a fresh one.
                let candidates = match requeued.pop() {
                    Some(batch) => Some(batch),
                    None => next_fresh_batch(core, &mut pairs, batch_size, &mut exhausted),
                };
                if let Some(candidates) = candidates {
                    let lease = next_lease;
                    next_lease += 1;
                    match t.send(from, MasterMsg::Task { lease, candidates: candidates.clone() }) {
                        Ok(()) => {
                            outstanding.insert(
                                lease,
                                Lease { worker: from, issued: Instant::now(), candidates },
                            );
                        }
                        // The worker died between requesting and being
                        // served: keep the batch for a survivor.
                        Err(TransportError::PeerGone) => requeued.push(candidates),
                        Err(e) => return Err(fatal(e)),
                    }
                }
                // No work available right now (all in flight): stay
                // silent — the worker re-requests after its timeout.
                continue;
            }
            Ok(Some(_)) => continue,
            Ok(None) => {}
            Err(e) => return Err(fatal(e)),
        }

        std::thread::yield_now();
    }

    shutdown_workers(t)
}

/// The worker half of the pull protocol: a stateless verification server
/// — request, verify the leased batch, answer, repeat, re-requesting
/// every [`REQUEST_TIMEOUT`] while unanswered. Any transport error (most
/// importantly the worker's own injected kill) ends the loop and the
/// master recovers whatever this worker held.
pub fn serve_pull_worker<P: WorkerPort + ?Sized>(
    port: &mut P,
    verifier: &Verifier,
    set: &dyn SeqStore,
) {
    loop {
        if port.send(WorkerMsg::Request).is_err() {
            return; // own kill, or the master is gone
        }
        let deadline = Instant::now() + REQUEST_TIMEOUT;
        loop {
            match port.try_recv() {
                Ok(Some(MasterMsg::Shutdown)) => {
                    let _ = port.send(WorkerMsg::Bye);
                    return;
                }
                Ok(Some(MasterMsg::Task { lease, candidates })) => {
                    let verdicts = verifier.verify(set, &candidates, VerifyOn::Caller);
                    if port.send(WorkerMsg::Verdicts { lease, verdicts }).is_err() {
                        return;
                    }
                    break; // back to requesting
                }
                Ok(Some(_)) | Ok(None) => {}
                Err(_) => return,
            }
            if !port.master_alive() {
                return;
            }
            if Instant::now() >= deadline {
                break; // re-send the request (it may have been dropped)
            }
            std::thread::yield_now();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use crate::core::CorePhase;
    use crate::transport::LocalTransport;
    use pfam_seq::SequenceSet;

    fn verifier() -> Verifier {
        Verifier::new(&ClusterConfig::default(), CorePhase::Ccd)
    }

    #[test]
    #[should_panic(expected = "drive_batched needs a batch size of at least 1")]
    fn the_batched_loop_refuses_batch_size_zero() {
        let set = SequenceSet::default();
        drive_batched(&mut ClusterCore::new_ccd(&set), &[], &verifier(), 0, 0, &mut |_| {});
    }

    #[test]
    #[should_panic(expected = "drive_leased needs a batch size of at least 1")]
    fn the_leased_loop_refuses_batch_size_zero() {
        let set = SequenceSet::default();
        let (mut transport, _ports) = LocalTransport::new(1);
        let _ = drive_leased(&mut ClusterCore::new_ccd(&set), &mut transport, &[], 0);
    }

    #[test]
    #[should_panic(expected = "serve_push_worker needs a batch size of at least 1")]
    fn a_push_worker_refuses_batch_size_zero() {
        let set = SequenceSet::default();
        let (_transport, mut ports) = LocalTransport::new(1);
        serve_push_worker(&mut ports[0], &[], &verifier(), &set, 0);
    }
}
