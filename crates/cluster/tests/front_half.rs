//! The front half over one index against the composition it replaced:
//! RR over the input, CCD over a copy of the survivors with an index of
//! its own. Results, work traces and checkpoint cursors must not tell the
//! two apart, and a run one monolithic index cannot serve — a budget under
//! the index — mines windows to the same streams. (What RR's pair ledger
//! changes — and does not — is `pair_ledger.rs`.)

use std::sync::Arc;

use pfam_cluster::{
    index_plan, run_ccd_resumable, run_front_half, run_redundancy_removal, with_front_half,
    CcdCursor, CcdResult, ClusterConfig, ClusterCore, IndexPlan, PairLedger, RrResult,
};
use pfam_datagen::{DatasetConfig, SyntheticDataset};
use pfam_seq::complexity::MaskParams;
use pfam_seq::{materialize_subset, SequenceSet, SubsetStore};
use pfam_suffix::estimated_index_bytes;

/// Small batches, so a run crosses many cursor boundaries.
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
    run_ccd_resumable(store, config, ledger, None, &mut |_| {})
}

/// RR over `set`, then CCD over a materialised copy of the survivors
/// (knowing what RR's fills answered, as the front half does).
fn two_builds(set: &SequenceSet, config: &ClusterConfig) -> (RrResult, CcdResult) {
    let rr = run_redundancy_removal(set, config);
    let ccd = ccd_with(&materialize_subset(set, &rr.kept), config, &rr.ledger);
    (rr, ccd)
}

/// The ledger that answers nothing.
fn no_ledger() -> Arc<PairLedger> {
    Arc::default()
}

fn assert_same_ccd(got: &CcdResult, want: &CcdResult, what: &str) {
    assert_eq!(got.components, want.components, "{what}: components");
    assert_eq!(got.edges, want.edges, "{what}: edges");
    assert_eq!(got.deferred, want.deferred, "{what}: deferred");
    assert_eq!(got.n_merges, want.n_merges, "{what}: merges");
    assert_eq!(got.trace, want.trace, "{what}: trace");
}

/// The cursor at every batch boundary a resumable CCD run offers.
fn cursors_of(run: impl FnOnce(&mut dyn FnMut(&ClusterCore<'_>)) -> CcdResult) -> Vec<CcdCursor> {
    let mut cursors = Vec::new();
    run(&mut |core| cursors.push(core.cursor()));
    cursors
}

#[test]
fn one_build_equals_two_builds() {
    for (seed, mask) in [(3u64, None), (7, None), (21, Some(MaskParams::default()))] {
        let set = dataset(seed);
        let config = ClusterConfig { mask, ..config() };
        let (rr_want, ccd_want) = two_builds(&set, &config);
        assert!(rr_want.kept.len() < set.len(), "seed {seed}: RR must remove something");

        let (rr, ccd) = run_front_half(&set, &config);
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
fn cursors_agree_whoever_built_the_index() {
    let set = dataset(5);
    let config = config();
    let kept = run_redundancy_removal(&set, &config).kept;
    let shared = cursors_of(|on_batch| {
        with_front_half(&set, &config, |front| {
            front.ccd_resumable(&kept, &no_ledger(), None, on_batch)
        })
    });
    let view = SubsetStore::new(&set, kept.clone());
    let alone =
        cursors_of(|on_batch| run_ccd_resumable(&view, &config, &no_ledger(), None, on_batch));
    let windowed = cursors_of(|on_batch| {
        run_ccd_resumable(&view, &budgeted(&set), &no_ledger(), None, on_batch)
    });
    assert!(shared.len() >= 3, "want several boundaries, got {}", shared.len());
    assert_eq!(shared, alone, "whoever built the index, the cursors agree");
    assert_eq!(shared, windowed, "and mined in windows, too");
}

/// A budget a quarter of `set`'s monolithic index: every phase mines
/// windows. A budget of its own — clones share the accounting.
fn budgeted(set: &SequenceSet) -> ClusterConfig {
    let estimate = estimated_index_bytes(set.total_residues(), set.len());
    ClusterConfig { budget: pfam_seq::MemoryBudget::limited(estimate / 4), ..config() }
}

#[test]
fn a_cursor_resumes_on_any_index() {
    let set = dataset(9);
    let config = config();
    let (rr, want) = two_builds(&set, &config);
    let cursors = cursors_of(|on_batch| {
        with_front_half(&set, &config, |front| {
            front.ccd_resumable(&rr.kept, &rr.ledger, None, on_batch)
        })
    });
    let cursor = cursors[cursors.len() / 2].clone();
    assert!(cursor.pairs_consumed > 0);

    // The base's index rebuilt and masked; an index of a copy; the view
    // mined in windows under a budget.
    let view = SubsetStore::new(&set, rr.kept.clone());
    let copy = materialize_subset(&set, &rr.kept);
    let windowed = budgeted(&set);
    for (what, store, config) in [
        ("rebuilt, masked", &view as &dyn pfam_seq::SeqStore, &config),
        ("index of a copy", &copy, &config),
        ("windows", &view, &windowed),
    ] {
        let resumed =
            run_ccd_resumable(store, config, &rr.ledger, Some(cursor.clone()), &mut |_| {});
        assert_same_ccd(&resumed, &want, what);
    }
}

#[test]
fn a_windowed_cursor_resumes_under_the_shared_index() {
    let set = dataset(13);
    let config = config();
    let kept = run_redundancy_removal(&set, &config).kept;
    let view = SubsetStore::new(&set, kept.clone());
    let windowed = budgeted(&set);
    let from_start = |on_batch: &mut dyn FnMut(&ClusterCore<'_>)| {
        run_ccd_resumable(&view, &windowed, &no_ledger(), None, on_batch)
    };
    let want = from_start(&mut |_| {});
    let cursors = cursors_of(from_start);
    let cursor = cursors[cursors.len() / 2].clone();

    let resumed = with_front_half(&set, &config, |front| {
        front.ccd_resumable(&kept, &no_ledger(), Some(cursor), &mut |_| {})
    });
    assert_same_ccd(&resumed, &want, "windows, then the shared index");
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
    let (rr, ccd) = run_front_half(&set, &cfg);
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
