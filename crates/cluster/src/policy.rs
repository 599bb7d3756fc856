//! Who drives the clustering loop — the third pluggable axis around
//! [`ClusterCore`].
//!
//! A [`WorkPolicy`] owns the control flow of one phase run: it pulls from
//! a [`PairSource`], routes candidates through the core's filter, gets
//! them verified (locally or across a [`Transport`]), and folds verdicts
//! back into the core. Three policies cover every driver in this crate:
//!
//! * [`BatchedPush`] — the in-process loop, the only one `pfam` runs:
//!   batch, filter, verify across the rayon pool (candidates are handed
//!   out one at a time through an atomic cursor, so the pool schedules
//!   itself), absorb; optional checkpoint cursor emission at batch
//!   boundaries.
//! * [`SpmdPush`] — the paper's Section IV-B protocol: workers own
//!   rank-partitioned slices of the suffix space and push pair batches to
//!   the master, which filters and returns the survivors to the same
//!   worker for alignment.
//! * [`LeasedPull`] — the fault-tolerant scheduler: the master owns the
//!   source, workers pull one admitted batch per lease; leases held by
//!   dead or silent workers are re-enqueued, stale verdicts are discarded
//!   by lease id.
//!
//! The worker halves of the distributed policies are free functions
//! ([`serve_push_worker`], [`serve_pull_worker`]) run on worker ranks or
//! threads against any [`WorkerPort`].

use std::collections::HashMap;
use std::time::{Duration, Instant};

use pfam_align::CostModel;
use pfam_seq::{SeqId, SeqStore};
use pfam_suffix::MatchPair;

use crate::core::{CcdCursor, ClusterCore, Verdict, Verifier};
use crate::source::PairSource;
use crate::supervise::HealthReport;
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

/// Timing knobs for [`LeasedPull`] — the constants above surfaced as
/// configuration (via `ClusterConfig::recovery`), plus the
/// supervision-plane extensions. Every default reproduces the pre-knob
/// behaviour exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeaseKnobs {
    /// Outstanding-lease timeout (see [`LEASE_TIMEOUT`]).
    pub lease_timeout: Duration,
    /// With every worker dead, wait this long for a supervisor to respawn
    /// capacity before giving up with `NoWorkersLeft`. Zero (the default)
    /// preserves the fail-fast behaviour of unsupervised runs.
    pub respawn_grace: Duration,
    /// Enable speculative straggler re-execution: with no fresh work left,
    /// an idle worker is handed a *duplicate* of the most-overdue
    /// outstanding lease; the first verdict wins and the loser is
    /// discarded by lease id.
    pub speculate: bool,
    /// A lease younger than this is never speculated on (also the
    /// deadline while the cost model is uncalibrated).
    pub spec_min_wait: Duration,
    /// A lease is overdue when its age exceeds `slack ×` its predicted
    /// service time (predicted cells over the observed pool cell rate).
    pub spec_slack: f64,
}

impl Default for LeaseKnobs {
    fn default() -> Self {
        LeaseKnobs {
            lease_timeout: LEASE_TIMEOUT,
            respawn_grace: Duration::ZERO,
            speculate: false,
            spec_min_wait: Duration::from_millis(40),
            spec_slack: 2.0,
        }
    }
}

/// Why a policy could not drive its phase to completion.
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

/// One execution strategy for a phase run: pulls pairs, verifies the
/// survivors, and folds verdicts into `core` until the supply is dry.
pub trait WorkPolicy {
    /// Drive `core` to completion.
    fn drive(&mut self, core: &mut ClusterCore<'_>) -> Result<(), DriveError>;
}

/// The deterministic batched reference loop (rayon-parallel verification,
/// optional checkpoint emission). This is the policy whose trace and
/// cursor semantics the checkpoint-resume suites pin down.
pub struct BatchedPush<'a, S: PairSource + ?Sized> {
    /// Where pairs come from.
    pub source: &'a mut S,
    /// Verdict computation for this phase.
    pub verifier: &'a Verifier,
    /// Pairs per master round.
    pub batch_size: usize,
    /// Emit a cursor every this many batches (0 disables; CCD only).
    pub checkpoint_every: usize,
    /// Checkpoint sink.
    pub on_checkpoint: &'a mut dyn FnMut(&CcdCursor),
}

impl<S: PairSource + ?Sized> WorkPolicy for BatchedPush<'_, S> {
    fn drive(&mut self, core: &mut ClusterCore<'_>) -> Result<(), DriveError> {
        let mut batches_since_checkpoint = 0usize;
        loop {
            let batch = self.source.next_batch(self.batch_size);
            if batch.is_empty() {
                break;
            }
            let candidates = core.admit_batch(&batch);
            let verdicts = self.verifier.verify_par(core.set(), &candidates);
            core.absorb(verdicts);
            batches_since_checkpoint += 1;
            if self.checkpoint_every > 0 && batches_since_checkpoint >= self.checkpoint_every {
                batches_since_checkpoint = 0;
                (self.on_checkpoint)(&core.cursor());
            }
        }
        Ok(())
    }
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
pub struct SpmdPush<'a, T: Transport + ?Sized> {
    /// The worker pool.
    pub transport: &'a mut T,
}

impl<T: Transport + ?Sized> WorkPolicy for SpmdPush<'_, T> {
    fn drive(&mut self, core: &mut ClusterCore<'_>) -> Result<(), DriveError> {
        let t = &mut *self.transport;
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
}

/// The worker half of the push protocol: mine a batch from `source`,
/// push it, serve candidate tasks while waiting, leave after the
/// master's [`MasterMsg::SourceDone`]. Panics on transport faults — the
/// push protocol assumes a healthy world (fault tolerance lives in
/// [`LeasedPull`]).
pub fn serve_push_worker<P, S>(
    port: &mut P,
    source: &mut S,
    verifier: &Verifier,
    set: &dyn SeqStore,
    batch_size: usize,
) where
    P: WorkerPort + ?Sized,
    S: PairSource + ?Sized,
{
    fn healthy<X>(r: Result<X, TransportError>) -> X {
        match r {
            Ok(v) => v,
            Err(e) => panic!("spmd world must stay healthy: {e}"),
        }
    }
    let answer = |port: &mut P, candidates: Vec<(u32, u32)>| {
        let verdicts = verify_seq(verifier, set, &candidates);
        healthy(port.send(WorkerMsg::Verdicts { lease: 0, verdicts }));
    };

    let mut exhausted = false;
    while !exhausted {
        // Mine the next batch from this worker's slice.
        let batch = source.next_batch(batch_size);
        exhausted = batch.len() < batch_size;
        let pairs = batch.iter().map(|p| (p.a.0, p.b.0)).collect();
        healthy(port.send(WorkerMsg::Pairs { pairs, exhausted }));
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

/// One issued copy of a ticket: which worker holds this lease id and
/// when it was sent (for timeout and speculation deadlines).
struct Issue {
    worker: usize,
    issued: Instant,
}

/// An outstanding unit of work. Normally a ticket has exactly one issue
/// (one lease id on one worker); speculation adds duplicate issues with
/// fresh lease ids. The first verdict for *any* of a ticket's lease ids
/// completes the ticket — every sibling id is forgotten, so the losing
/// copies become stale verdicts and are discarded. The batch is applied
/// exactly once no matter how many copies were in flight.
struct Ticket {
    candidates: Vec<(u32, u32)>,
    /// Predicted DP cells ([`CostModel::predict`]) — drives the
    /// speculation deadline, never the verdicts.
    predicted: u64,
    /// The first lease id issued; a win by any other id is a speculation
    /// win.
    primary: u64,
    issues: HashMap<u64, Issue>,
}

/// The fault-tolerant pull scheduler: the master owns the pair source and
/// all work state; workers are stateless verification servers that pull
/// leases. A lease is recovered — re-enqueued for any surviving worker —
/// when its worker is observed dead on the liveness board or when it
/// times out (covers dropped task/verdict messages). Stale verdicts are
/// discarded by lease id, so no batch is ever applied twice.
///
/// With [`LeaseKnobs::speculate`] on, a worker requesting work when the
/// source is dry gets a duplicate of the most-overdue outstanding lease
/// (overdue = older than the cost-model-predicted service time times
/// [`LeaseKnobs::spec_slack`]); whichever copy answers first wins and the
/// other becomes a stale verdict. With [`LeaseKnobs::respawn_grace`] > 0,
/// a fully-dead pool is tolerated for that long before `NoWorkersLeft` —
/// the window in which a supervisor respawn can restore capacity.
pub struct LeasedPull<'a, T: Transport + ?Sized, S: PairSource + ?Sized> {
    /// The worker pool (fallible).
    pub transport: &'a mut T,
    /// The master-owned pair supply.
    pub source: &'a mut S,
    /// Pairs pulled from the source per admitted batch; a lease is one
    /// admitted batch's survivors.
    pub batch_size: usize,
    /// Predicts per-lease DP cells for the speculation deadline
    /// (scheduling-only).
    pub cost: &'a CostModel,
    /// Timeout / speculation / grace knobs.
    pub knobs: LeaseKnobs,
    /// Recovery counters, filled in during the drive (read it back out
    /// after [`WorkPolicy::drive`] returns).
    pub health: HealthReport,
}

impl<T, S> LeasedPull<'_, T, S>
where
    T: Transport + ?Sized,
    S: PairSource + ?Sized,
{
    /// Pull batches from the source until one leaves survivors (or the
    /// source runs dry). Each pulled batch is admitted — and therefore
    /// recorded in the trace — exactly once, whether or not any candidate
    /// survives.
    fn next_fresh_batch(
        &mut self,
        core: &mut ClusterCore<'_>,
        exhausted: &mut bool,
    ) -> Option<Vec<(u32, u32)>> {
        while !*exhausted {
            let batch = self.source.next_batch(self.batch_size);
            if batch.len() < self.batch_size {
                *exhausted = true;
            }
            if batch.is_empty() {
                break;
            }
            let candidates = core.admit_batch(&batch);
            if !candidates.is_empty() {
                return Some(candidates);
            }
        }
        None
    }

    /// Tell every surviving worker to exit and wait for acknowledgements,
    /// re-sending on timeout so dropped shutdown messages cannot strand a
    /// worker (fault schedules are finite, so retries eventually land).
    fn shutdown_workers(&mut self) -> Result<(), DriveError> {
        let t = &mut *self.transport;
        let mut pending: Vec<usize> = (0..t.n_workers()).filter(|&w| t.worker_alive(w)).collect();
        while !pending.is_empty() {
            for &w in &pending {
                match t.send(w, MasterMsg::Shutdown) {
                    // A transient refusal is retried by the next outer
                    // round, exactly like a dropped shutdown message.
                    Ok(()) | Err(TransportError::PeerGone) | Err(TransportError::Transient(_)) => {}
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
                    Err(TransportError::PeerGone) | Err(TransportError::Transient(_)) => {}
                    Err(e) => return Err(fatal(e)),
                }
                pending.retain(|&w| t.worker_alive(w));
            }
            pending.retain(|&w| t.worker_alive(w));
        }
        Ok(())
    }

    /// Predicted DP cells of one wire batch (speculation deadline input).
    fn predict_batch(&self, set: &dyn SeqStore, candidates: &[(u32, u32)]) -> u64 {
        candidates
            .iter()
            .map(|&(a, b)| self.cost.predict(set.seq_len(SeqId(a)), set.seq_len(SeqId(b))))
            .sum()
    }

    /// The age past which a lease of `predicted` cells is overdue. While
    /// no lease has completed, the floor applies — speculating early
    /// against an uncalibrated model costs only idle-worker cycles.
    fn spec_deadline(&self, predicted: u64, done_cells: u64, busy: Duration) -> Duration {
        let floor = self.knobs.spec_min_wait;
        if done_cells == 0 || busy.is_zero() {
            return floor;
        }
        let rate = done_cells as f64 / busy.as_secs_f64(); // cells / second
        let expected = (predicted as f64 / rate.max(1.0)) * self.knobs.spec_slack.max(1.0);
        floor.max(Duration::from_secs_f64(expected.min(3600.0)))
    }

    /// Hand idle worker `from` a duplicate of the most-overdue
    /// single-issue ticket held elsewhere, if any lease is past its
    /// deadline. First verdict wins; duplication is scheduling-only.
    #[allow(clippy::too_many_arguments)] // private scheduling step of drive()
    fn speculate(
        &mut self,
        core: &mut ClusterCore<'_>,
        from: usize,
        now: Instant,
        tickets: &mut HashMap<u64, Ticket>,
        lease_ticket: &mut HashMap<u64, u64>,
        next_lease: &mut u64,
        done_cells: u64,
        busy: Duration,
    ) -> Result<(), DriveError> {
        let mut best: Option<(u64, usize, Duration)> = None; // (ticket, holder, overdue-by)
        for (&tid, t) in tickets.iter() {
            // Duplicate only single-issue tickets: one copy per straggler
            // bounds duplicated work at 2× per ticket.
            if t.issues.len() != 1 {
                continue;
            }
            let Some(issue) = t.issues.values().next() else { continue };
            if issue.worker == from || !self.transport.worker_alive(issue.worker) {
                continue;
            }
            let age = now.duration_since(issue.issued);
            let deadline = self.spec_deadline(t.predicted, done_cells, busy);
            if age > deadline {
                let over = age - deadline;
                if best.is_none_or(|(_, _, b)| over > b) {
                    best = Some((tid, issue.worker, over));
                }
            }
        }
        let Some((tid, holder, _)) = best else { return Ok(()) };
        let Some(t) = tickets.get_mut(&tid) else { return Ok(()) };
        let lease = *next_lease;
        *next_lease += 1;
        match self.transport.send(from, MasterMsg::Task { lease, candidates: t.candidates.clone() })
        {
            Ok(()) => {
                t.issues.insert(lease, Issue { worker: from, issued: Instant::now() });
                lease_ticket.insert(lease, tid);
                // Charge the speculation to the straggler being doubled.
                self.health.worker_mut(holder).spec_issued += 1;
                core.note_recovery(0, 0, 1, 0);
            }
            // The idle worker vanished mid-handoff: the original issue
            // still stands, nothing to undo.
            Err(TransportError::PeerGone) | Err(TransportError::Transient(_)) => {}
            Err(e) => return Err(fatal(e)),
        }
        Ok(())
    }
}

impl<T, S> WorkPolicy for LeasedPull<'_, T, S>
where
    T: Transport + ?Sized,
    S: PairSource + ?Sized,
{
    fn drive(&mut self, core: &mut ClusterCore<'_>) -> Result<(), DriveError> {
        let mut exhausted = false;
        let mut next_lease: u64 = 0;
        let mut next_ticket: u64 = 0;
        let mut tickets: HashMap<u64, Ticket> = HashMap::new();
        let mut lease_ticket: HashMap<u64, u64> = HashMap::new();
        // Recovered batches waiting to be re-leased, ahead of fresh pairs.
        let mut requeued: Vec<Vec<(u32, u32)>> = Vec::new();
        // Observed pool throughput (completed predicted cells over lease
        // service time) — calibrates the speculation deadline.
        let mut done_cells: u64 = 0;
        let mut busy = Duration::ZERO;
        // When the whole pool was first observed dead (respawn grace).
        let mut all_dead_since: Option<Instant> = None;

        loop {
            // Recover issues held by dead workers, then stale issues
            // (their task or verdict message may have been dropped). A
            // ticket is re-enqueued only when its *last* issue lapses —
            // a still-live duplicate keeps the ticket outstanding.
            let now = Instant::now();
            let mut lapsed: Vec<(u64, u64, usize, bool)> = Vec::new();
            for (&tid, t) in &tickets {
                for (&lid, issue) in &t.issues {
                    let dead = !self.transport.worker_alive(issue.worker);
                    let timed_out = now.duration_since(issue.issued) > self.knobs.lease_timeout;
                    if dead || timed_out {
                        lapsed.push((tid, lid, issue.worker, !dead));
                    }
                }
            }
            let mut n_requeued = 0usize;
            for (tid, lid, w, timed_out) in lapsed {
                let Some(t) = tickets.get_mut(&tid) else { continue };
                t.issues.remove(&lid);
                lease_ticket.remove(&lid);
                if timed_out {
                    self.health.worker_mut(w).timeouts += 1;
                }
                if t.issues.is_empty() {
                    if let Some(t) = tickets.remove(&tid) {
                        requeued.push(t.candidates);
                        n_requeued += 1;
                    }
                }
            }
            if n_requeued > 0 {
                core.note_recovery(n_requeued, 0, 0, 0);
            }

            let work_remains = !exhausted || !requeued.is_empty() || !tickets.is_empty();
            if !work_remains {
                break;
            }
            if (0..self.transport.n_workers()).all(|w| !self.transport.worker_alive(w)) {
                // Tolerate a fully-dead pool for the respawn grace window:
                // a supervisor may be bringing replacement capacity up.
                let since = *all_dead_since.get_or_insert(now);
                if now.duration_since(since) >= self.knobs.respawn_grace {
                    return Err(DriveError::NoWorkersLeft);
                }
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
            all_dead_since = None;

            match self.transport.try_recv() {
                Ok(Some((_, WorkerMsg::Verdicts { lease, verdicts }))) => {
                    // Stale verdicts — from a recovered lease or the loser
                    // of a speculative race — are discarded: each ticket
                    // is applied exactly once.
                    if let Some(tid) = lease_ticket.remove(&lease) {
                        if let Some(t) = tickets.remove(&tid) {
                            if let Some(issue) = t.issues.get(&lease) {
                                busy += now.duration_since(issue.issued);
                                done_cells += t.predicted.max(1);
                                let won_by = issue.worker;
                                let wh = self.health.worker_mut(won_by);
                                wh.leases_completed += 1;
                                if lease != t.primary {
                                    wh.spec_wins += 1;
                                    core.note_recovery(0, 0, 0, 1);
                                }
                            }
                            for &lid in t.issues.keys() {
                                if lid != lease {
                                    lease_ticket.remove(&lid);
                                }
                            }
                            core.absorb(verdicts);
                        }
                    }
                    continue;
                }
                Ok(Some((from, WorkerMsg::Request))) => {
                    if !self.transport.worker_alive(from) {
                        continue;
                    }
                    // Lease a recovered batch first, else generate fresh.
                    let candidates = match requeued.pop() {
                        Some(batch) => Some(batch),
                        None => self.next_fresh_batch(core, &mut exhausted),
                    };
                    match candidates {
                        Some(candidates) => {
                            let predicted = self.predict_batch(core.set(), &candidates);
                            let lease = next_lease;
                            next_lease += 1;
                            match self.transport.send(
                                from,
                                MasterMsg::Task { lease, candidates: candidates.clone() },
                            ) {
                                Ok(()) => {
                                    let tid = next_ticket;
                                    next_ticket += 1;
                                    let mut issues = HashMap::new();
                                    issues.insert(
                                        lease,
                                        Issue { worker: from, issued: Instant::now() },
                                    );
                                    tickets.insert(
                                        tid,
                                        Ticket { candidates, predicted, primary: lease, issues },
                                    );
                                    lease_ticket.insert(lease, tid);
                                }
                                // The worker died (or the link flaked)
                                // between requesting and being served:
                                // keep the batch for a survivor.
                                Err(TransportError::PeerGone)
                                | Err(TransportError::Transient(_)) => requeued.push(candidates),
                                Err(e) => return Err(fatal(e)),
                            }
                        }
                        // Source dry, everything in flight: an idle worker
                        // is speculation fuel for the most-overdue lease.
                        None if self.knobs.speculate => {
                            self.speculate(
                                core,
                                from,
                                now,
                                &mut tickets,
                                &mut lease_ticket,
                                &mut next_lease,
                                done_cells,
                                busy,
                            )?;
                        }
                        // No work available right now: stay silent — the
                        // worker re-requests after its timeout.
                        None => {}
                    }
                    continue;
                }
                Ok(Some(_)) => continue,
                Ok(None) => {}
                // A transient receive fault is a failed poll: loop again.
                Err(TransportError::Transient(_)) => {}
                Err(e) => return Err(fatal(e)),
            }

            std::thread::yield_now();
        }

        self.shutdown_workers()
    }
}

/// Verify a leased batch on the worker's own thread, in task order.
fn verify_seq(verifier: &Verifier, set: &dyn SeqStore, candidates: &[(u32, u32)]) -> Vec<Verdict> {
    candidates.iter().map(|&c| verifier.verdict(set, c)).collect()
}

/// The worker half of the pull protocol with the default request
/// timeout; see [`serve_pull_worker_with`].
pub fn serve_pull_worker<P: WorkerPort + ?Sized>(
    port: &mut P,
    verifier: &Verifier,
    set: &dyn SeqStore,
) {
    serve_pull_worker_with(port, verifier, set, REQUEST_TIMEOUT)
}

/// The worker half of the pull protocol: a stateless verification server
/// — request, verify the leased batch, answer, repeat, re-requesting
/// every `request_timeout` while unanswered. A transient send failure is
/// absorbed (the re-request cadence already covers lost messages); any
/// fatal transport error (most importantly the worker's own injected
/// kill) ends the loop and the master recovers whatever this worker held.
pub fn serve_pull_worker_with<P: WorkerPort + ?Sized>(
    port: &mut P,
    verifier: &Verifier,
    set: &dyn SeqStore,
    request_timeout: Duration,
) {
    loop {
        match port.send(WorkerMsg::Request) {
            Ok(()) => {}
            // A refused request costs one poll interval: the loop below
            // times out and re-sends.
            Err(TransportError::Transient(_)) => {}
            Err(_) => return, // own kill, or the master is gone
        }
        let deadline = Instant::now() + request_timeout;
        loop {
            match port.try_recv() {
                Ok(Some(MasterMsg::Shutdown)) => {
                    let _ = port.send(WorkerMsg::Bye);
                    return;
                }
                Ok(Some(MasterMsg::Task { lease, candidates })) => {
                    let verdicts = verify_seq(verifier, set, &candidates);
                    match port.send(WorkerMsg::Verdicts { lease, verdicts }) {
                        // A transiently-refused verdict is simply lost:
                        // the master recovers the lease by timeout, like
                        // any dropped verdict message.
                        Ok(()) | Err(TransportError::Transient(_)) => {}
                        Err(_) => return,
                    }
                    break; // back to requesting
                }
                Ok(Some(_)) | Ok(None) => {}
                Err(TransportError::Transient(_)) => {}
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
