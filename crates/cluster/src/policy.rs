//! The two master loops around [`ClusterCore`]. Each cuts a phase's
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
//!   survivors' verdicts off the window and is absorbed. A fill no batch
//!   admits is returned: RR drops it, CCD hands it to the back half.
//! * [`drive_spmd`] — the paper's Section IV-B protocol: workers own
//!   rank-partitioned slices of the suffix space and push pair batches to
//!   the master, which filters and returns the survivors to the same
//!   worker for alignment. Its worker half, [`serve_push_worker`], runs on
//!   worker ranks or threads against any [`WorkerPort`].
//!
//! Neither loop recovers a failed worker in-job: a run that fails is
//! restarted from the phases it finished (DESIGN.md §7).

use pfam_seq::{SeqId, SeqStore};
use pfam_suffix::MatchPair;

use crate::core::{ClusterCore, Verdict, Verifier, VerifyOn, VERIFY_SLICE};
use crate::transport::{MasterMsg, Transport, TransportError, WorkerMsg, WorkerPort};

/// The in-process loop: `pairs` in batches of `batch_size`, in order, each
/// admitted against the live state and absorbed. The fills run a window of
/// [`VERIFY_SLICE`] pairs ahead: every candidate the window's batches have
/// *now* ([`ClusterCore::ahead`]) is filled in one [`Verifier::verify`]
/// across the rayon pool, and each batch then reads its survivors' verdicts
/// off the window. Verdicts are pure and the filters only tighten, so every
/// trace record and result is the one-batch-at-a-time loop's. Returns the verdicts it filled that no
/// batch then admitted — in RR a read of the pair was removed first, in
/// CCD the pair was deferred. Panics when `batch_size` is 0.
pub fn drive_batched(
    core: &mut ClusterCore<'_>,
    pairs: &[MatchPair],
    verifier: &Verifier,
    batch_size: usize,
) -> Vec<Verdict> {
    assert!(batch_size > 0, "drive_batched needs a batch size of at least 1");
    let window_len = (VERIFY_SLICE / batch_size).max(1) * batch_size;
    let mut unadmitted = Vec::new();
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
        }
    }
    unadmitted.retain(|v| !v.ledger_hit);
    unadmitted
}

/// Cut the next batch of at most `batch_size` pairs off the front of
/// `rest`, and whether it is the last: shorter than `batch_size`, so empty
/// when the pairs ran out on a full batch. The push worker sends
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
) -> Result<(), TransportError> {
    let n_workers = t.n_workers();
    let mut workers_done = 0usize;
    // Per-worker: how many candidate batches are still in flight.
    let mut outstanding = vec![0usize; n_workers];

    while workers_done < n_workers || outstanding.iter().sum::<usize>() > 0 {
        match t.try_recv()? {
            Some((w, WorkerMsg::Verdicts { verdicts })) => {
                outstanding[w] -= 1;
                core.absorb(verdicts);
            }
            Some((w, WorkerMsg::Pairs { pairs, exhausted })) => {
                // Every pushed batch is recorded, even when all of its
                // pairs are filtered (or it is the empty final batch).
                let candidates = core.admit_batch(&wire_pairs(&pairs));
                if !candidates.is_empty() {
                    outstanding[w] += 1;
                    t.send(w, MasterMsg::Task { candidates })?;
                }
                if exhausted {
                    workers_done += 1;
                    t.send(w, MasterMsg::SourceDone)?;
                }
            }
            None => std::thread::yield_now(),
        }
    }
    // Release workers: they exit after the SourceDone message once no
    // more candidate batches can arrive (outstanding drained above).
    t.barrier()
}

/// The worker half of the push protocol: cut the next batch off this
/// rank's `pairs`, push it, serve candidate tasks while waiting, leave
/// after the master's [`MasterMsg::SourceDone`]. Panics on transport
/// faults — the push protocol assumes a healthy world — and when
/// `batch_size` is 0.
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
        healthy(port.send(WorkerMsg::Verdicts { verdicts }));
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
                Some(MasterMsg::Task { candidates }) => {
                    answer(port, candidates);
                    continue;
                }
                Some(MasterMsg::SourceDone) => {
                    // Final drain: answer any candidates still queued.
                    while let Some(MasterMsg::Task { candidates }) = healthy(port.try_recv()) {
                        answer(port, candidates);
                    }
                    healthy(port.barrier());
                    return;
                }
                None => {}
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
        drive_batched(&mut ClusterCore::new_ccd(&set), &[], &verifier(), 0);
    }

    #[test]
    #[should_panic(expected = "serve_push_worker needs a batch size of at least 1")]
    fn a_push_worker_refuses_batch_size_zero() {
        let set = SequenceSet::default();
        let (_transport, mut ports) = LocalTransport::new(1);
        serve_push_worker(&mut ports[0], &[], &verifier(), &set, 0);
    }
}
