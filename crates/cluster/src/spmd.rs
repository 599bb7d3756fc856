//! The PaCE loop as a real SPMD program over `pfam-mpi` — the closest
//! rendering of the paper's Section IV-B in this repository.
//!
//! Rank 0 is the master; ranks 1… are workers. Exactly as in PaCE:
//!
//! 1. every worker owns a prefix-partitioned slice of the suffix space
//!    (`PartitionedSuffixSpace`) and generates promising pairs from its
//!    own subtrees, longest match first;
//! 2. workers push pair batches to the master; the master filters them
//!    against the live union-find clustering and returns the surviving
//!    candidates to the *same* worker for alignment;
//! 3. workers send alignment verdicts back; the master merges clusters.
//!
//! The protocol lives in [`crate::policy::drive_spmd`] /
//! [`crate::policy::serve_push_worker`] over the [`crate::transport`]
//! seam; this module's one entry, [`run_phase_spmd`], only assembles the
//! topology for either phase (RR or CCD): the partitioned pair slices and
//! the rank-0 master core, which it hands back finished.
//!
//! CCD's final components are identical to the batched loop's (a pair is
//! only skipped when its endpoints are already connected, and a verdict
//! is a pure function of the two sequences, so the clustering is
//! order-independent), which `tests/spmd_engines.rs`,
//! `tests/align_engine.rs` and this module's tests assert; RR's removals
//! are each a genuine containment.

use pfam_mpi::run_spmd;
use pfam_seq::{SeqStore, SequenceSet};
use pfam_suffix::distributed::PartitionedSuffixSpace;
use pfam_suffix::{mine_pairs, MineNodes};

use crate::config::ClusterConfig;
use crate::core::{ClusterCore, CorePhase, Verifier};
use crate::policy::{drive_spmd, serve_push_worker};
use crate::source::with_config_index;
use crate::transport::{MpiTransport, MpiWorkerPort};

/// Partition prefix length (suffix-space ownership granularity).
const PREFIX_LEN: u32 = 3;

/// Run one phase of the paper's push protocol as an SPMD job on `n_ranks`
/// ranks (1 master + `n_ranks − 1` workers) and return the master's
/// finished core: rank 0 drives it with [`drive_spmd`], every other rank
/// mines its own slice of the suffix space and serves the master. The
/// result is `CcdResult::from_core` or `RrResult::from_core` of it. In RR
/// the master marks contained sequences redundant instead of merging
/// clusters, and candidates are *oriented* — the first id of each
/// candidate pair is the one to test for containment. Requires
/// `n_ranks ≥ 2` and the phase's ψ ≥ the partition prefix length (3).
/// The world must stay healthy — any communicator fault panics; a failed
/// run is restarted from its last checkpoint.
pub fn run_phase_spmd<'s>(
    set: &'s SequenceSet,
    config: &ClusterConfig,
    n_ranks: usize,
    phase: CorePhase,
) -> ClusterCore<'s> {
    assert!(n_ranks >= 2, "need a master and at least one worker");
    let (psi, new_core): (u32, fn(&'s dyn SeqStore) -> ClusterCore<'s>) = match phase {
        CorePhase::Ccd => (config.psi_ccd, ClusterCore::new_ccd),
        CorePhase::Rr => (config.psi_rr, ClusterCore::new_rr),
    };
    if set.is_empty() {
        return new_core(set);
    }
    assert!(psi >= PREFIX_LEN, "ψ must cover the partition prefix");

    // Shared read-only state, built once (in MPI this would be the
    // distributed construction; the partition assigns subtree ownership).
    with_config_index(set, config, psi, |tree, matches| {
        let partition = PartitionedSuffixSpace::new(tree.gsa(), n_ranks - 1, PREFIX_LEN);
        let nodes_per_worker = partition.nodes_per_rank(tree, matches.min_len);
        let results = run_spmd(n_ranks, |comm| {
            if comm.rank() == 0 {
                let mut core = new_core(set);
                if let Err(e) = drive_spmd(&mut core, &mut MpiTransport::master(comm)) {
                    panic!("spmd world must stay healthy: {e}");
                }
                Some(core)
            } else {
                // One thread per rank: the ranks are the parallelism.
                let nodes = &nodes_per_worker[comm.rank() - 1];
                let (pairs, _) = mine_pairs(tree, matches, 1, MineNodes::Slice(nodes));
                let verifier = Verifier::new(config, phase);
                let mut port = MpiWorkerPort::new(comm);
                serve_push_worker(&mut port, &pairs, &verifier, set, config.batch_size);
                None
            }
        });
        results.into_iter().next().flatten().expect("rank 0 returns the result")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ccd::{run_ccd, CcdResult};
    use crate::rr::RrResult;
    use pfam_datagen::{DatasetConfig, SyntheticDataset};

    fn ccd_spmd(set: &SequenceSet, config: &ClusterConfig, n_ranks: usize) -> CcdResult {
        CcdResult::from_core(run_phase_spmd(set, config, n_ranks, CorePhase::Ccd))
    }

    fn rr_spmd(set: &SequenceSet, config: &ClusterConfig, n_ranks: usize) -> RrResult {
        RrResult::from_core(run_phase_spmd(set, config, n_ranks, CorePhase::Rr))
    }

    #[test]
    fn spmd_components_match_batched_engine() {
        let d = SyntheticDataset::generate(&DatasetConfig::tiny(91));
        let config = ClusterConfig::default();
        let reference = run_ccd(&d.set, &config);
        for ranks in [2usize, 3, 5] {
            let spmd = ccd_spmd(&d.set, &config, ranks);
            assert_eq!(
                spmd.components, reference.components,
                "{ranks} ranks must reproduce the reference clustering"
            );
        }
    }

    #[test]
    fn spmd_trace_accounts_for_all_pairs() {
        let d = SyntheticDataset::generate(&DatasetConfig::tiny(92));
        let config = ClusterConfig::default();
        let spmd = ccd_spmd(&d.set, &config, 3);
        let reference = run_ccd(&d.set, &config);
        // Each worker dedups only its own subtrees, so a sequence pair with
        // maximal matches in two workers' subtrees is generated twice —
        // never fewer pairs than the globally-deduped single generator.
        // The master's filter absorbs the duplicates.
        assert!(
            spmd.trace.total_generated() >= reference.trace.total_generated(),
            "spmd {} < reference {}",
            spmd.trace.total_generated(),
            reference.trace.total_generated()
        );
        assert!(spmd.trace.total_aligned() <= spmd.trace.total_generated());
    }

    #[test]
    fn empty_set_short_circuits() {
        let r = ccd_spmd(&SequenceSet::default(), &ClusterConfig::default(), 4);
        assert!(r.components.is_empty());
        let rr = rr_spmd(&SequenceSet::default(), &ClusterConfig::default(), 4);
        assert!(rr.kept.is_empty());
    }

    #[test]
    fn spmd_rr_removals_are_genuine_containments() {
        let d = SyntheticDataset::generate(&DatasetConfig::tiny(94));
        let config = ClusterConfig::default();
        let r = rr_spmd(&d.set, &config, 3);
        // Unlike CCD, the exact removal set depends on processing order
        // (chains a⊂b⊂c admit several valid outcomes), so assert semantic
        // validity rather than bitwise equality with the batched engine.
        for &(cand, container) in &r.removed {
            assert!(pfam_align::is_contained(
                d.set.codes(cand),
                d.set.codes(container),
                &config.scheme,
                &config.containment
            ));
            assert!(!r.kept.contains(&cand));
        }
        // Partition: every sequence is kept or removed, never both.
        assert_eq!(r.kept.len() + r.removed.len(), d.set.len());
        // The bulk of injected redundancy is caught, as with the batched
        // engine.
        let reference = crate::rr::run_redundancy_removal(&d.set, &config);
        let diff = (r.kept.len() as i64 - reference.kept.len() as i64).abs();
        assert!(
            diff <= (d.set.len() / 10) as i64,
            "spmd kept {} vs batched {}",
            r.kept.len(),
            reference.kept.len()
        );
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn one_rank_rejected() {
        let d = SyntheticDataset::generate(&DatasetConfig::tiny(93));
        let _ = ccd_spmd(&d.set, &ClusterConfig::default(), 1);
    }
}
