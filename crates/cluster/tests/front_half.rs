//! The front half over one index against the composition it replaced:
//! RR over the input, CCD over a copy of the survivors with an index of
//! its own. Results and work traces (one record per batch) must not tell
//! the two apart, and a run one monolithic index cannot serve — a budget under
//! the index — mines windows to the same streams. (What RR's pair ledger
//! changes — and does not — is `pair_ledger.rs`.)

use std::sync::Arc;

use pfam_cluster::{
    index_plan, run_ccd_with_ledger, run_redundancy_removal, with_front_half, CcdResult,
    ClusterConfig, IndexPlan, PairLedger, RrResult,
};
use pfam_datagen::{DatasetConfig, SyntheticDataset};
use pfam_seq::complexity::MaskParams;
use pfam_seq::{materialize_subset, SequenceSet, SubsetStore};
use pfam_suffix::estimated_index_bytes;

/// Small batches, so a run's trace holds many batch records.
fn config() -> ClusterConfig {
    ClusterConfig { batch_size: 32, ..ClusterConfig::default() }
}

fn dataset(seed: u64) -> SequenceSet {
    SyntheticDataset::generate(&DatasetConfig::tiny(seed)).set
}

/// CCD over `store`, answered by `ledger` where it can be.
fn ccd_with(
    store: &dyn pfam_seq::SeqStore,
    config: &ClusterConfig,
    ledger: &Arc<PairLedger>,
) -> CcdResult {
    run_ccd_with_ledger(store, config, ledger)
}

/// RR over `set`, then CCD over a materialised copy of the survivors
/// (knowing what RR's fills answered, as the front half does).
fn two_builds(set: &SequenceSet, config: &ClusterConfig) -> (RrResult, CcdResult) {
    let rr = run_redundancy_removal(set, config);
    let ccd = ccd_with(&materialize_subset(set, &rr.kept), config, &rr.ledger);
    (rr, ccd)
}

/// RR, then CCD over its survivors, both over one index — as the pipeline
/// runs them.
fn front_half(set: &SequenceSet, config: &ClusterConfig) -> (RrResult, CcdResult) {
    with_front_half(set, config, |front| {
        let rr = front.rr();
        let ccd = front.ccd(&rr);
        (rr, ccd)
    })
}

fn assert_same_ccd(got: &CcdResult, want: &CcdResult, what: &str) {
    assert_eq!(got.components, want.components, "{what}: components");
    assert_eq!(got.edges, want.edges, "{what}: edges");
    assert_eq!(got.deferred, want.deferred, "{what}: deferred");
    assert_eq!(got.n_merges, want.n_merges, "{what}: merges");
    assert_eq!(got.trace, want.trace, "{what}: trace");
}

#[test]
fn one_build_equals_two_builds() {
    for (seed, mask) in [(3u64, None), (7, None), (21, Some(MaskParams::default()))] {
        let set = dataset(seed);
        let config = ClusterConfig { mask, ..config() };
        let (rr_want, ccd_want) = two_builds(&set, &config);
        assert!(rr_want.kept.len() < set.len(), "seed {seed}: RR must remove something");

        let (rr, ccd) = front_half(&set, &config);
        assert_eq!(rr.kept, rr_want.kept, "seed {seed}");
        assert_eq!(rr.removed, rr_want.removed, "seed {seed}");
        assert_eq!(rr.ledger, rr_want.ledger, "seed {seed}");
        assert_eq!(rr.trace, rr_want.trace, "seed {seed}");
        assert_same_ccd(&ccd, &ccd_want, "shared index");

        // A view of the survivors on its own, as the benchmark's traced
        // pass composes it: an index of the base, mined through the mask.
        let view = SubsetStore::new(&set, rr.kept.clone());
        assert_same_ccd(&ccd_with(&view, &config, &rr.ledger), &ccd_want, "subset view");
    }
}

#[test]
fn ccd_agrees_whoever_built_the_index() {
    let set = dataset(5);
    let config = config();
    let rr = run_redundancy_removal(&set, &config);
    let shared = with_front_half(&set, &config, |front| front.ccd(&rr));
    let view = SubsetStore::new(&set, rr.kept.clone());
    let alone = ccd_with(&view, &config, &rr.ledger);
    let windowed = ccd_with(&view, &budgeted(&set), &rr.ledger);
    let batches = shared.trace.batches.len();
    assert!(batches >= 3, "want several batches, got {batches}");
    assert_same_ccd(&alone, &shared, "whoever built the index");
    assert_same_ccd(&windowed, &shared, "and mined in windows, too");
}

/// A budget a quarter of `set`'s monolithic index: every phase mines
/// windows. A budget of its own — clones share the accounting.
fn budgeted(set: &SequenceSet) -> ClusterConfig {
    let estimate = estimated_index_bytes(set.total_residues(), set.len());
    ClusterConfig { budget: pfam_seq::MemoryBudget::limited(estimate / 4), ..config() }
}

#[test]
fn runs_one_index_cannot_serve_mine_windows() {
    let set = dataset(17);
    let config = config();
    let (rr_want, ccd_want) = two_builds(&set, &config);

    // A budget of its own: clones share the accounting, and `rr_want`
    // still holds its ledger on `config`'s.
    let cfg = budgeted(&set);
    assert_eq!(index_plan(&set, &cfg, None).unwrap(), IndexPlan::Windowed, "RR in windows");
    let (rr, ccd) = front_half(&set, &cfg);
    assert_eq!(rr.kept, rr_want.kept);
    assert_eq!(rr.trace, rr_want.trace);
    assert_same_ccd(&ccd, &ccd_want, "budget");
    let survivors = SubsetStore::new(&set, rr.kept.clone());
    assert_eq!(index_plan(&survivors, &cfg, None).unwrap(), IndexPlan::Windowed, "CCD too");
    // What is still held is the ledger, and it goes with RR's result.
    assert_eq!(cfg.budget.used(), 8 * rr.ledger.len() as u64, "index released");
    drop(rr);
    assert_eq!(cfg.budget.used(), 0, "reservations released");
}
