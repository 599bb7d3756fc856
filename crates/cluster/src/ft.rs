//! Fault-tolerant CCD: the PaCE master–worker loop hardened against
//! worker death, message loss, message reordering and stragglers.
//!
//! The SPMD engine ([`crate::spmd`], the paper's protocol) assumes a
//! healthy world: each worker owns a slice of the suffix space, so a dead
//! worker silently loses every pair it had not yet generated, and a lost
//! message deadlocks the job. This engine restructures the protocol so
//! the **master owns all work state** and workers are stateless
//! alignment servers:
//!
//! * the master holds the mined pairs, the union-find clustering and a
//!   queue of re-issuable candidate batches;
//! * workers *pull*: they request work, align the candidate batch they
//!   are leased, return verdicts, and request again;
//! * every outstanding batch is tracked as a **lease** with a unique id.
//!   A lease is recovered — its candidates re-enqueued for any surviving
//!   worker — when its worker is observed dead on the liveness board or
//!   when the lease times out (covers dropped task/verdict messages and
//!   a worker that is alive but too slow).
//!   A verdict for a lease that is no longer outstanding is stale
//!   (already recovered and re-issued) and is discarded, so no pair is
//!   ever applied twice;
//! * all waits are bounded (polling with lease deadlines), so lost messages
//!   cost latency, never liveness: workers re-request on timeout, and the
//!   master re-sends shutdown until every surviving worker acknowledges.
//!
//! Because the overlap test is a pure function and cluster merges are
//! order-independent (see `crate::spmd`), re-executing a lease on a
//! different worker cannot change the final components: under *any*
//! injected kill/drop/delay schedule that leaves the master and at least
//! one worker alive, the clustering is identical to the batched
//! reference — the fault-tolerance property test sweeps seeded schedules
//! to check exactly this.
//!
//! The lease bookkeeping itself lives in [`crate::policy::drive_leased`] /
//! [`crate::policy::serve_pull_worker`] over the [`crate::transport`]
//! seam; this module assembles the faulty world around them and maps
//! scheduler errors onto [`FtError`].

use std::sync::Arc;

use pfam_mpi::{run_spmd_faulty, FaultInjector};
use pfam_seq::SequenceSet;
use pfam_suffix::{parallel_pairs, MaximalMatchConfig, SuffixTree};

use crate::ccd::CcdResult;
use crate::config::ClusterConfig;
use crate::core::{ClusterCore, CorePhase, Verifier};
use crate::policy::{drive_leased, serve_pull_worker, DriveError};
use crate::source::with_config_index;
use crate::transport::{MpiTransport, MpiWorkerPort};

/// Why a fault-tolerant run could not produce a clustering.
#[derive(Debug)]
pub enum FtError {
    /// Every worker died while leased or queued work remained.
    NoWorkersLeft,
    /// The master rank itself failed (killed by the injector or panicked).
    /// Master failure is recovered by checkpoint/restart, not in-job.
    MasterFailed(String),
}

impl std::fmt::Display for FtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FtError::NoWorkersLeft => {
                write!(f, "all workers died with work still outstanding")
            }
            FtError::MasterFailed(why) => write!(f, "master rank failed: {why}"),
        }
    }
}

impl std::error::Error for FtError {}

/// Run CCD on `n_ranks` ranks (1 master + workers) under `injector`.
/// A lease held by a worker that dies, or outstanding longer than
/// [`crate::policy::LEASE_TIMEOUT`], goes back on the queue for a
/// survivor; what that cost is in the trace
/// ([`crate::trace::PhaseTrace::total_requeued`]). The components are
/// bit-identical to [`crate::ccd::run_ccd`] under every injected schedule
/// that leaves the master and at least one worker alive.
pub fn run_ccd_ft(
    set: &SequenceSet,
    config: &ClusterConfig,
    n_ranks: usize,
    injector: Arc<dyn FaultInjector>,
) -> Result<CcdResult, FtError> {
    assert!(n_ranks >= 2, "need a master and at least one worker");
    if set.is_empty() {
        return Ok(CcdResult::empty());
    }

    // The index is built once, before the world starts: in MPI terms this
    // is the pre-failure collective phase, covered by checkpoint/restart
    // rather than in-job recovery.
    with_config_index(set, config, config.psi_ccd, |tree, matches| {
        run_ft_world(set, config, n_ranks, injector, tree, matches)
    })
}

/// The SPMD world of [`run_ccd_ft`], over a finished index.
fn run_ft_world(
    set: &SequenceSet,
    config: &ClusterConfig,
    n_ranks: usize,
    injector: Arc<dyn FaultInjector>,
    tree: &SuffixTree<'_>,
    matches: MaximalMatchConfig,
) -> Result<CcdResult, FtError> {
    let outcomes = run_spmd_faulty(n_ranks, injector, |comm| {
        if comm.rank() == 0 {
            let (pairs, stats) = parallel_pairs(tree, matches, config.index_threads());
            let mut core = ClusterCore::new_ccd(set);
            let mut transport = MpiTransport::master(comm);
            Some(match drive_leased(&mut core, &mut transport, &pairs, config.batch_size) {
                Ok(()) => {
                    core.set_nodes_visited(stats.nodes_visited as u64);
                    Ok(CcdResult::from_core(core))
                }
                Err(DriveError::NoWorkersLeft) => Err(FtError::NoWorkersLeft),
                Err(e) => Err(FtError::MasterFailed(format!("{e}"))),
            })
        } else {
            let verifier = Verifier::new(config, CorePhase::Ccd);
            serve_pull_worker(&mut MpiWorkerPort::new(comm), &verifier, set);
            None
        }
    });

    match outcomes.into_iter().next() {
        Some(Ok(Some(result))) => result,
        Some(Ok(None)) => Err(FtError::MasterFailed("master returned no result".into())),
        Some(Err(failure)) => Err(FtError::MasterFailed(format!("{failure:?}"))),
        None => Err(FtError::MasterFailed("empty world".into())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ccd::run_ccd;
    use pfam_datagen::{DatasetConfig, SyntheticDataset};
    use pfam_mpi::{MessageFate, NoFaults};

    /// Inline schedule for unit tests (the seed-driven generator lives in
    /// `pfam-sim`, which sits above this crate).
    struct Script {
        kills: Vec<(usize, u64)>,
        drops: Vec<(usize, usize, u64)>,
    }

    impl FaultInjector for Script {
        fn kill_now(&self, rank: usize, event: u64) -> bool {
            self.kills.iter().any(|&(r, at)| r == rank && event >= at)
        }
        fn message_fate(&self, from: usize, to: usize, _tag: u32, seq: u64) -> MessageFate {
            if self.drops.iter().any(|&(f, t, s)| f == from && t == to && s == seq) {
                MessageFate::Drop
            } else {
                MessageFate::Deliver
            }
        }
    }

    fn dataset(seed: u64) -> SyntheticDataset {
        SyntheticDataset::generate(&DatasetConfig::tiny(seed))
    }

    #[test]
    fn fault_free_run_matches_batched_engine() {
        let d = dataset(141);
        let config = ClusterConfig::default();
        let reference = run_ccd(&d.set, &config);
        for ranks in [2usize, 4] {
            let ft = run_ccd_ft(&d.set, &config, ranks, Arc::new(NoFaults)).expect("healthy world");
            assert_eq!(ft.components, reference.components, "{ranks} ranks");
            assert_eq!(ft.n_merges, reference.n_merges);
        }
    }

    #[test]
    fn survives_a_worker_kill() {
        let d = dataset(142);
        let config = ClusterConfig { batch_size: 16, ..ClusterConfig::default() };
        let reference = run_ccd(&d.set, &config);
        // Kill worker 1 early and worker 3 later; 2 survives.
        let script = Arc::new(Script { kills: vec![(1, 4), (3, 30)], drops: Vec::new() });
        let ft = run_ccd_ft(&d.set, &config, 4, script).expect("a worker survives");
        assert_eq!(ft.components, reference.components);
    }

    #[test]
    fn survives_dropped_messages() {
        let d = dataset(143);
        let config = ClusterConfig { batch_size: 16, ..ClusterConfig::default() };
        let reference = run_ccd(&d.set, &config);
        // Drop early traffic in both directions on the master↔1 edge.
        let script = Arc::new(Script {
            kills: Vec::new(),
            drops: vec![(1, 0, 0), (1, 0, 2), (0, 1, 1), (0, 1, 3)],
        });
        let ft = run_ccd_ft(&d.set, &config, 3, script).expect("drops are recovered");
        assert_eq!(ft.components, reference.components);
    }

    #[test]
    fn all_workers_dead_is_an_error_not_a_hang() {
        let d = dataset(144);
        let config = ClusterConfig::default();
        let script = Arc::new(Script { kills: vec![(1, 0), (2, 0)], drops: Vec::new() });
        match run_ccd_ft(&d.set, &config, 3, script) {
            Err(FtError::NoWorkersLeft) => {}
            other => panic!("expected NoWorkersLeft, got {other:?}"),
        }
    }

    #[test]
    fn empty_set_short_circuits() {
        let r =
            run_ccd_ft(&SequenceSet::default(), &ClusterConfig::default(), 4, Arc::new(NoFaults))
                .expect("empty set");
        assert!(r.components.is_empty());
    }
}
