//! Phase 1 — redundancy removal (Problem 1 of the paper).
//!
//! Sequences that are ≥ 95 %-similar and ≥ 95 %-contained in another
//! sequence are dropped: they carry no extra information and risk false
//! groupings in the dense-subgraph stage. Instead of all-versus-all
//! comparison, candidate pairs come from the maximal-match generator
//! (exact matches of length ≥ ψ are a necessary condition for the
//! similarity level the containment test demands), and alignments are
//! verified batch-wise: the master filters pairs whose candidate is
//! already marked redundant, workers align the survivors in parallel.
//!
//! Pair orientation (shorter sequence is the removal candidate, ties to
//! the higher id) and the already-redundant filter live in
//! [`crate::core::ClusterCore`]'s RR mode; this entry point is the
//! batched in-process composition around it. Each fill also answers the
//! pair's overlap test, and the answers between survivors leave the phase
//! as its [`PairLedger`].

use std::sync::Arc;

use pfam_seq::{SeqId, SeqStore};
use pfam_suffix::WindowStats;

use crate::config::ClusterConfig;
use crate::core::{ClusterCore, CorePhase, Verifier};
use crate::ledger::PairLedger;
use crate::policy::drive_batched;
use crate::source::{with_pair_source, SharedIndex};
use crate::trace::PhaseTrace;

/// Outcome of the RR phase.
#[derive(Debug, Clone)]
pub struct RrResult {
    /// Ids kept (non-redundant), ascending.
    pub kept: Vec<SeqId>,
    /// `(redundant, container)` pairs in removal order.
    pub removed: Vec<(SeqId, SeqId)>,
    /// The overlap answer of every pair the phase filled between two kept
    /// reads, keyed by their positions in `kept`.
    pub ledger: Arc<PairLedger>,
    /// Pairs the master loop filled ahead of their batch that the batch
    /// then did not admit — one of the reads was removed first. Their
    /// verdicts were dropped: no later phase reads over a removed id.
    pub ahead_discarded: usize,
    /// Work trace for the performance model.
    pub trace: PhaseTrace,
    /// What the windows held, when the phase mined its pairs window by
    /// window under a memory budget.
    pub windows: Option<WindowStats>,
}

/// Run redundancy removal over `set`.
pub fn run_redundancy_removal(set: &dyn SeqStore, config: &ClusterConfig) -> RrResult {
    rr_over(set, config, None)
}

/// [`run_redundancy_removal`], mining `shared` when the run holds an
/// index of `set`.
pub(crate) fn rr_over(
    set: &dyn SeqStore,
    config: &ClusterConfig,
    shared: Option<&SharedIndex<'_>>,
) -> RrResult {
    if set.is_empty() {
        return RrResult::empty();
    }
    with_pair_source(set, config, config.psi_rr, shared, |pairs, nodes_visited, windows| {
        let mut core = ClusterCore::new_rr(set);
        core.record_ledger(&config.budget);
        let verifier = Verifier::new(config, CorePhase::Rr);
        let discarded = drive_batched(&mut core, pairs, &verifier, config.batch_size);
        core.set_nodes_visited(nodes_visited);
        RrResult { ahead_discarded: discarded.len(), windows, ..RrResult::from_core(core) }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfam_seq::{SequenceSet, SequenceSetBuilder};

    fn set_of(seqs: &[&str]) -> SequenceSet {
        let mut b = SequenceSetBuilder::new();
        for (i, s) in seqs.iter().enumerate() {
            b.push_letters(format!("s{i}"), s.as_bytes()).unwrap();
        }
        b.finish()
    }

    fn config() -> ClusterConfig {
        ClusterConfig { psi_rr: 8, ..Default::default() }
    }

    const LONG: &str = "MKVLWAAKNDCQEGHILKMFPSTWYVARNDCQ";

    #[test]
    fn exact_window_is_removed() {
        // s1 is a verbatim window covering >95 % of itself inside s0.
        let contained = &LONG[..30];
        let set = set_of(&[LONG, contained]);
        let r = run_redundancy_removal(&set, &config());
        assert_eq!(r.kept, vec![SeqId(0)]);
        assert_eq!(r.removed, vec![(SeqId(1), SeqId(0))]);
    }

    #[test]
    fn identical_sequences_keep_one() {
        let set = set_of(&[LONG, LONG, LONG]);
        let r = run_redundancy_removal(&set, &config());
        assert_eq!(r.kept.len(), 1);
        assert_eq!(r.kept, vec![SeqId(0)], "lowest id survives");
    }

    #[test]
    fn unrelated_sequences_all_kept() {
        let set = set_of(&["MKVLWAAKNDCQEGHILKMF", "PSTWYVARNDCQEGHAAAAA", "WWWWHHHHGGGGCCCCDDDD"]);
        let r = run_redundancy_removal(&set, &config());
        assert_eq!(r.kept.len(), 3);
        assert!(r.removed.is_empty());
    }

    #[test]
    fn partial_overlap_not_redundant() {
        // Two sequences sharing a core but each with long unique flanks:
        // neither is 95 %-contained in the other.
        let a = format!("{}AAAAAAAAAAAAAAAAAAAA", LONG);
        let b = format!("GGGGGGGGGGGGGGGGGGGG{}", LONG);
        let set = set_of(&[&a, &b]);
        let r = run_redundancy_removal(&set, &config());
        assert_eq!(r.kept.len(), 2);
    }

    #[test]
    fn chain_of_containments() {
        // s2 ⊂ s1 ⊂ s0 (each a >95 % window of the previous).
        let s0 = format!("{LONG}{LONG}");
        let s1 = &s0[..(s0.len() as f64 * 0.96) as usize];
        let s2 = &s1[1..(s1.len() as f64 * 0.97) as usize];
        let set = set_of(&[&s0, s1, s2]);
        let r = run_redundancy_removal(&set, &config());
        assert_eq!(r.kept, vec![SeqId(0)]);
        assert_eq!(r.removed.len(), 2);
    }

    #[test]
    fn trace_records_work() {
        let set = set_of(&[LONG, &LONG[..30], "WWWWHHHHGGGGCCCCDDDD"]);
        let r = run_redundancy_removal(&set, &config());
        assert_eq!(r.trace.index_residues, set.total_residues() as u64);
        assert!(r.trace.total_generated() >= 1);
        assert!(r.trace.total_aligned() >= 1);
        assert!(r.trace.total_cells() > 0);
    }

    #[test]
    fn empty_set() {
        let r = run_redundancy_removal(&SequenceSet::default(), &config());
        assert!(r.kept.is_empty());
        assert!(r.removed.is_empty());
    }

    #[test]
    fn containment_direction_marks_shorter() {
        let contained = &LONG[1..31];
        // Order in the set should not matter: the shorter one goes.
        for seqs in [[LONG, contained], [contained, LONG]] {
            let set = set_of(&seqs);
            let r = run_redundancy_removal(&set, &config());
            assert_eq!(r.kept.len(), 1);
            let kept_len = set.seq_len(r.kept[0]);
            assert_eq!(kept_len, LONG.len(), "longer sequence must survive");
        }
    }

    #[test]
    fn redundancy_injected_by_datagen_is_found() {
        use pfam_datagen::{DatasetConfig, Provenance, SyntheticDataset};
        let d = SyntheticDataset::generate(&DatasetConfig::tiny(42));
        let r = run_redundancy_removal(&d.set, &config());
        // Every injected redundant read must be removed (its container is a
        // verbatim superstring), except when its original was itself removed
        // first in favour of yet another container — removal is what counts.
        let removed_ids: std::collections::HashSet<SeqId> =
            r.removed.iter().map(|&(x, _)| x).collect();
        let injected: Vec<SeqId> = d
            .set
            .ids()
            .filter(|id| matches!(d.provenance[id.index()], Provenance::Redundant { .. }))
            .collect();
        let found = injected.iter().filter(|id| removed_ids.contains(id)).count();
        assert!(
            found as f64 >= injected.len() as f64 * 0.9,
            "only {found}/{} injected redundancies detected",
            injected.len()
        );
    }
}
