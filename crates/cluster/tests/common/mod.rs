//! Checks shared by the suites that hold CCD's pair bookkeeping against
//! the per-component miner (`pair_ledger`, `driver_matrix`).
#![allow(dead_code)] // each suite uses its own subset

use std::collections::HashSet;
use std::sync::Arc;

use pfam_cluster::{component_graph, CcdResult, ClusterConfig, KnownPairs, PairLedger};
use pfam_seq::{SeqId, SequenceSet};

/// (c): `edges`, the refused and `deferred` partition what was generated.
pub fn assert_partition(ccd: &CcdResult, what: &str) {
    let t = &ccd.trace;
    assert_eq!(ccd.deferred.len(), t.total_filtered(), "{what}: deferred = filtered");
    let verified = t.total_aligned() + t.total_ledger_hits();
    assert_eq!(verified + ccd.deferred.len(), t.total_generated(), "{what}: nothing lost");
    assert!(ccd.edges.len() <= verified, "{what}: the rest were refused");
    assert_disjoint_and_inside(ccd, what);
}

/// Every edge and deferred pair is one or the other, once, with both ends
/// in one component.
pub fn assert_disjoint_and_inside(ccd: &CcdResult, what: &str) {
    let mut component_of = vec![0usize; ccd.components.iter().map(Vec::len).sum()];
    for (c, members) in ccd.components.iter().enumerate() {
        members.iter().for_each(|id| component_of[id.index()] = c);
    }
    let mut seen = HashSet::new();
    for (a, b) in ccd.edges.iter().map(|&(a, b)| (a.0, b.0)).chain(ccd.deferred.iter().copied()) {
        assert!(a < b && seen.insert((a, b)), "{what}: ({a},{b}) is an edge or deferred, once");
        assert_eq!(component_of[a as usize], component_of[b as usize], "{what}: ({a},{b})");
    }
}

/// (a): graphs from what `ccd` knows == graphs mined per component.
/// Returns (fills, ledger hits) of the known supply.
pub fn assert_known_graphs_equal_mined(
    set: &SequenceSet,
    cfg: &ClusterConfig,
    kept: &[SeqId],
    ledger: &Arc<PairLedger>,
    ccd: &CcdResult,
    what: &str,
) -> (usize, usize) {
    let (deferred, ahead) = (ccd.deferred.clone(), ccd.filled_ahead.clone());
    let known =
        KnownPairs::new(set, cfg, kept, ledger, &ccd.components, &ccd.edges, deferred, ahead, 0);
    let (mut fills, mut hits) = (0, 0);
    for (c, members) in ccd.components.iter().enumerate() {
        let members: Vec<SeqId> = members.iter().map(|&id| kept[id.index()]).collect();
        let (want, mined) = component_graph(set, &members, cfg);
        let (got, record) = known.component_graph(c);
        assert_eq!(got.members, want.members, "{what}: component {c}");
        assert_eq!(got.graph, want.graph, "{what}: component {c}");
        assert_eq!(record.n_generated, known.n_deferred(c));
        assert_eq!(record.n_aligned + record.n_ledger_hits, record.n_generated);
        assert!(record.n_aligned <= mined.n_aligned, "{what}: never more fills than mining");
        fills += record.n_aligned;
        hits += record.n_ledger_hits;
    }
    (fills, hits)
}
