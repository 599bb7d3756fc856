//! Phases 1–2 over one suffix index — the front half of the pipeline.
//!
//! RR and CCD differ in the match cut-off ψ and in the acceptance test,
//! not in the index: the paper builds its generalized suffix tree once and
//! draws promising pairs from it on demand. [`with_front_half`] builds
//! the index of the input once ([`crate::source::with_shared_index`]);
//! RR mines its nodes ≥ ψ_rr, CCD its nodes ≥ ψ_ccd through a mask that
//! drops the suffixes of the reads RR removed — and does not align again
//! the pairs RR's [`PairLedger`] already answers. When one monolithic index
//! cannot serve the run (it does not fit the budget) each phase mines
//! windows of its own reads ([`crate::source::index_plan`]),
//! exactly as [`crate::run_redundancy_removal`] and [`crate::run_ccd`] do —
//! the same pair streams.

use pfam_seq::{SeqStore, SubsetStore};

use crate::ccd::{ccd_mined, CcdResult};
use crate::config::ClusterConfig;
use crate::rr::{rr_over, RrResult};
use crate::source::{with_shared_index, SharedIndex};

/// The two clustering phases of one run over `input`, holding the index
/// they share for as long as this value is lent.
pub struct FrontHalf<'a> {
    input: &'a dyn SeqStore,
    config: &'a ClusterConfig,
    shared: Option<&'a SharedIndex<'a>>,
}

/// Index `input` for both phases and lend them to `f`; the index and its
/// budget reservation are dropped when `f` returns.
pub fn with_front_half<R>(
    input: &dyn SeqStore,
    config: &ClusterConfig,
    f: impl FnOnce(&FrontHalf<'_>) -> R,
) -> R {
    with_shared_index(input, config, |shared| f(&FrontHalf { input, config, shared }))
}

impl FrontHalf<'_> {
    /// Phase 1: redundancy removal over the input.
    pub fn rr(&self) -> RrResult {
        rr_over(self.input, self.config, self.shared)
    }

    /// Phase 2: connected components of the reads `rr` kept, reported
    /// under their dense ids `0..rr.kept.len()`; what `rr`'s ledger answers
    /// is not aligned again.
    pub fn ccd(&self, rr: &RrResult) -> CcdResult {
        let nr_store = SubsetStore::new(self.input, rr.kept.clone());
        ccd_mined(&nr_store, self.config, self.shared, &rr.ledger)
    }
}
