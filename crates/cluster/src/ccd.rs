//! Phase 2 — connected-component detection (Problem 2 of the paper),
//! the PaCE clustering loop.
//!
//! The master holds a union-find clustering initialised to singletons.
//! Each round it pulls a batch of promising pairs from the maximal-match
//! generator (longest matches first), *filters* every pair whose endpoints
//! are already co-clustered — the transitive-closure heuristic responsible
//! for the paper's 99 %+ alignment-work reduction — and dispatches the
//! rest to workers, which evaluate the Definition-2 overlap test in
//! parallel. Passing pairs merge clusters.
//!
//! The loop itself is [`crate::core::ClusterCore`] driven by
//! [`crate::policy::drive_batched`] over the phase's mined pairs
//! ([`crate::source::with_pair_source`]).

use std::sync::Arc;

use pfam_seq::{SeqId, SeqStore};
use pfam_suffix::WindowStats;

use crate::config::ClusterConfig;
use crate::core::{ClusterCore, CorePhase, Verdict, Verifier};
use crate::ledger::PairLedger;
use crate::policy::drive_batched;
use crate::source::{with_pair_source, SharedIndex};
use crate::trace::PhaseTrace;

/// Outcome of the CCD phase.
#[derive(Debug, Clone)]
pub struct CcdResult {
    /// Connected components (clusters) as ascending id lists, ordered by
    /// smallest member. Includes singletons.
    pub components: Vec<Vec<SeqId>>,
    /// Edges whose overlap test passed, in verification order.
    pub edges: Vec<(SeqId, SeqId)>,
    /// Pairs the closure filter dropped without a verdict, in arrival
    /// order: both ends lie in one component, whether they overlap is
    /// open. With `edges` and the pairs aligned and refused, these
    /// partition the generated stream.
    pub deferred: Vec<(u32, u32)>,
    /// Verdicts of deferred pairs the master loop filled ahead of their
    /// batch, before the closure filter dropped them: the back half's
    /// answers for those pairs ([`crate::KnownPairs`]), so none is filled
    /// twice. Held in memory only — a run resumed from its checkpoint has
    /// none and fills those pairs in the back half.
    pub filled_ahead: Vec<Verdict>,
    /// Cluster merges performed (≤ `edges.len()`).
    pub n_merges: usize,
    /// Work trace for the performance model.
    pub trace: PhaseTrace,
    /// What the windows held, when the phase mined its pairs window by
    /// window under a memory budget.
    pub windows: Option<WindowStats>,
}

/// Run connected-component detection over `set` (typically the
/// non-redundant output of the RR phase re-packed as its own set).
///
/// ```
/// use pfam_cluster::{run_ccd, ClusterConfig};
/// use pfam_seq::SequenceSetBuilder;
///
/// let mut b = SequenceSetBuilder::new();
/// b.push_letters("a".into(), b"MKVLWAAKNDCQEGHILKMFPSTWYV").unwrap();
/// b.push_letters("b".into(), b"MKVLWAAKNDCQEGHILKMFPSTWYV").unwrap();
/// b.push_letters("c".into(), b"GGHHWWYYVVRRNNDDCCEEQQGGHH").unwrap();
/// let result = run_ccd(&b.finish(), &ClusterConfig::for_short_sequences());
/// assert_eq!(result.components.len(), 2); // {a, b} and {c}
/// ```
pub fn run_ccd(set: &dyn SeqStore, config: &ClusterConfig) -> CcdResult {
    run_ccd_with_ledger(set, config, &Arc::default())
}

/// [`run_ccd`], knowing what RR's fills answered: candidates `ledger`
/// answers (RR's, over this `set`'s ids; the empty ledger answers none) are
/// not aligned again.
pub fn run_ccd_with_ledger(
    set: &dyn SeqStore,
    config: &ClusterConfig,
    ledger: &Arc<PairLedger>,
) -> CcdResult {
    ccd_mined(set, config, None, ledger)
}

/// [`run_ccd_with_ledger`], mining `shared` when the run holds an index of
/// the in-memory set `set` is a view of.
pub(crate) fn ccd_mined(
    set: &dyn SeqStore,
    config: &ClusterConfig,
    shared: Option<&SharedIndex<'_>>,
    ledger: &Arc<PairLedger>,
) -> CcdResult {
    if set.is_empty() {
        return CcdResult::empty();
    }
    with_pair_source(set, config, config.psi_ccd, shared, |pairs, nodes_visited, windows| {
        let mut core = ClusterCore::new_ccd(set);
        let verifier = Verifier::new(config, CorePhase::Ccd).with_ledger(ledger.clone());
        let filled_ahead = drive_batched(&mut core, pairs, &verifier, config.batch_size);
        let mut result = CcdResult { filled_ahead, windows, ..CcdResult::from_core(core) };
        result.trace.nodes_visited = nodes_visited;
        result
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
        ClusterConfig::for_short_sequences()
    }

    const FAM_A: &str = "MKVLWAAKNDCQEGHILKMFPSTWYV";
    const FAM_B: &str = "GHILPWYVRNDAAKCCQQEEGGHHII";

    #[test]
    fn identical_family_members_cluster() {
        let set = set_of(&[FAM_A, FAM_A, FAM_A, FAM_B, FAM_B]);
        let r = run_ccd(&set, &config());
        let big: Vec<_> = r.components.iter().filter(|c| c.len() >= 2).collect();
        assert_eq!(big.len(), 2);
        assert_eq!(big[0].len(), 3);
        assert_eq!(big[1].len(), 2);
    }

    #[test]
    fn unrelated_sequences_stay_singletons() {
        let set = set_of(&[FAM_A, "WWWWHHHHGGGGCCCCDDDDEEEE"]);
        let r = run_ccd(&set, &config());
        assert_eq!(r.components.len(), 2);
        assert!(r.edges.is_empty());
    }

    #[test]
    fn transitive_closure_filter_saves_alignments() {
        // Many identical sequences: after the first merges, remaining pairs
        // are filtered without alignment. A small batch size makes the
        // master's filter visible even on this tiny input.
        let seqs = vec![FAM_A; 12];
        let set = set_of(&seqs);
        let r = run_ccd(&set, &ClusterConfig { batch_size: 8, ..config() });
        assert_eq!(r.components.len(), 1);
        // 12 sequences need only 11 merges; C(12,2)=66 pairs exist.
        assert_eq!(r.n_merges, 11);
        assert!(
            r.trace.total_aligned() < 66,
            "filter should avoid the all-pairs {} alignments (did {})",
            66,
            r.trace.total_aligned()
        );
        assert!(r.trace.total_filtered() > 0);
    }

    #[test]
    fn chain_overlap_clusters_transitively() {
        // Sliding windows of a non-repetitive base: a–b and b–c pass the
        // 80 %-of-longer coverage test, a–c does not (70 %) — yet all three
        // end up in one component via transitive closure.
        let base = format!("{FAM_A}{FAM_B}MKWYVHQNDERAAGILPSTFCMKWYV{FAM_A}");
        let a = &base[0..80];
        let b = &base[12..92];
        let c = &base[24..104];
        let set = set_of(&[a, b, c]);
        let r = run_ccd(&set, &config());
        assert_eq!(r.components.len(), 1, "components: {:?}", r.components);
        // The direct a–c edge must not have been needed.
        assert!(
            !r.edges.contains(&(SeqId(0), SeqId(2))),
            "a and c should connect only through b: {:?}",
            r.edges
        );
    }

    #[test]
    fn empty_and_singleton_inputs() {
        assert!(run_ccd(&SequenceSet::default(), &config()).components.is_empty());
        let one = set_of(&[FAM_A]);
        let r = run_ccd(&one, &config());
        assert_eq!(r.components, vec![vec![SeqId(0)]]);
    }

    #[test]
    fn components_partition_the_set() {
        let set = set_of(&[FAM_A, FAM_A, FAM_B, "WWWWHHHHGGGGCCCC", FAM_B]);
        let r = run_ccd(&set, &config());
        let mut all: Vec<u32> = r.components.iter().flatten().map(|id| id.0).collect();
        all.sort_unstable();
        assert_eq!(all, (0..set.len() as u32).collect::<Vec<_>>());
    }

    #[test]
    fn masking_suppresses_low_complexity_pairs() {
        // Two unrelated sequences sharing only a poly-A linker: the run
        // generates promising pairs that alignment must then reject.
        // Masking the index removes those candidates at the source.
        let a = format!("MKVLWDERNCQ{}HILKMFPSTWY", "A".repeat(20));
        let b = format!("GGHHWWYYVVR{}NDCEQGHIKLM", "A".repeat(20));
        let set = set_of(&[&a, &b]);
        let plain = run_ccd(&set, &config());
        assert!(plain.trace.total_generated() > 0, "poly-A should produce candidates");
        let masked = run_ccd(
            &set,
            &ClusterConfig { mask: Some(pfam_seq::complexity::MaskParams::default()), ..config() },
        );
        // Masking erodes the poly-A run (a boundary remnant shorter than
        // the entropy window can survive), so require a strict reduction
        // rather than zero.
        assert!(
            masked.trace.total_generated() < plain.trace.total_generated(),
            "masked index should generate fewer candidates: {} vs {}",
            masked.trace.total_generated(),
            plain.trace.total_generated()
        );
        // Either way the sequences must not cluster together.
        assert_eq!(plain.components.len(), 2);
        assert_eq!(masked.components.len(), 2);
    }

    #[test]
    fn datagen_families_recovered() {
        use pfam_datagen::{DatasetConfig, MutationModel, SyntheticDataset};
        let cfg = DatasetConfig {
            n_families: 3,
            n_members: 24,
            n_noise: 0,
            redundancy_frac: 0.0,
            fragment_prob: 0.0,
            mutation: MutationModel {
                substitution_rate: 0.12,
                conservative_fraction: 0.6,
                insertion_rate: 0.0,
                deletion_rate: 0.0,
            },
            seed: 9,
            ..DatasetConfig::tiny(9)
        };
        let d = SyntheticDataset::generate(&cfg);
        let r = run_ccd(&d.set, &ClusterConfig::default());
        // Components must never mix families (precision of CCD).
        for comp in &r.components {
            let fams: std::collections::HashSet<_> =
                comp.iter().filter_map(|&id| d.provenance[id.index()].family()).collect();
            assert!(fams.len() <= 1, "component mixes families: {fams:?}");
        }
        // And the components should reunite each family exactly.
        let big = r.components.iter().filter(|c| c.len() >= 2).collect::<Vec<_>>();
        assert_eq!(
            big.len(),
            3,
            "three families expected: {:?}",
            r.components.iter().map(|c| c.len()).collect::<Vec<_>>()
        );
        let mut sizes: Vec<usize> = big.iter().map(|c| c.len()).collect();
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(sizes, vec![13, 7, 4], "Zipf family sizes recovered");
    }
}
