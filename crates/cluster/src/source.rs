//! Where a phase's promising pairs come from: one mined vector, in the
//! order the clustering loop consumes them (decreasing maximal-match
//! length — the paper's "longest match first" discipline).
//!
//! The vector is what [`pfam_suffix::mine_pairs`] mined from one suffix
//! index (the whole tree, or the reads a [`pfam_suffix::KeepMask`] keeps
//! of it) or what [`pfam_suffix::PartitionedMiner`] mined window by window
//! under a memory budget — the same stream either way. Which of the two a
//! phase mines is one decision, [`index_plan`]: one monolithic index when
//! it fits, else windows of one resident text. [`with_pair_source`] opens
//! what it names and lends the pairs to a closure as a slice — the index
//! borrows the sequence set transitively (set → GSA → tree), so the opener
//! owns that borrow chain. [`with_shared_index`] builds the monolithic
//! index once for a run whose phases all mine it.

use std::ops::Range;

use pfam_seq::{BudgetError, SeqId, SeqStore, SequenceSet};
use pfam_suffix::maximal::GenerationStats;
use pfam_suffix::{
    estimated_index_bytes, mine_pairs, with_match_tree, ChunkPlan, KeepMask, MatchPair,
    MaximalMatchConfig, MineNodes, PartitionedMiner, SuffixTree, WindowStats,
};

use crate::config::ClusterConfig;

/// The miner's configuration at cut-off `psi`: the config's per-node cap,
/// each pair reported once at its longest match.
fn match_config(config: &ClusterConfig, psi: u32) -> MaximalMatchConfig {
    MaximalMatchConfig { min_len: psi, max_pairs_per_node: config.max_pairs_per_node, dedup: true }
}

/// Build the index a phase mines from `set` — the config's masked view,
/// GSA on the config's threads, tree pruned at cut-off `psi` — and lend it
/// to `f`.
pub(crate) fn with_config_index<R>(
    set: &SequenceSet,
    config: &ClusterConfig,
    psi: u32,
    f: impl FnOnce(&SuffixTree<'_>, MaximalMatchConfig) -> R,
) -> R {
    let index_set = crate::mask::index_view(set, &config.mask);
    with_match_tree(&index_set, psi, config.max_pairs_per_node, config.index_threads(), f)
}

/// Estimated bytes of the monolithic index of `base`.
fn index_bytes(base: &SequenceSet) -> u64 {
    estimated_index_bytes(base.total_residues(), base.len())
}

/// The windowed miner of `store` at cut-off `psi` under the config's
/// budget: the reads loaded chunk by chunk ([`ChunkPlan::under_budget`])
/// with the config's index-side masking (it is per read, so chunk by chunk
/// equals the whole set). `strict`: `Err` when the text and its smallest
/// window do not fit ([`PartitionedMiner::try_new`]); otherwise what does
/// not fit runs unreserved.
fn windowed_miner(
    store: &dyn SeqStore,
    config: &ClusterConfig,
    psi: u32,
    strict: bool,
) -> Result<PartitionedMiner, BudgetError> {
    let lens: Vec<u32> = (0..store.len()).map(|i| store.seq_len(SeqId(i as u32)) as u32).collect();
    let plan = ChunkPlan::under_budget(&lens, &config.budget);
    let mask = config.mask;
    let loader = |r: Range<u32>| {
        let chunk = store.load_range(r);
        match mask {
            None => chunk,
            Some(_) => crate::mask::index_view(&chunk, &mask).into_owned(),
        }
    };
    let (matches, threads, budget) =
        (match_config(config, psi), config.index_threads(), &config.budget);
    if strict {
        PartitionedMiner::try_new(plan, loader, matches, threads, budget)
    } else {
        Ok(PartitionedMiner::new(plan, loader, matches, threads, budget))
    }
}

/// The monolithic suffix index of an in-memory set, built once for every
/// phase of a run that mines the set or a subset view of it
/// ([`with_shared_index`]).
pub struct SharedIndex<'t> {
    base: &'t SequenceSet,
    tree: &'t SuffixTree<'t>,
}

impl SharedIndex<'_> {
    /// Whether this is the index of `base`.
    fn indexes(&self, base: &SequenceSet) -> bool {
        std::ptr::eq(self.base, base)
    }
}

/// Index `input` once for both clustering phases — masked view, GSA, tree
/// pruned at `min(psi_rr, psi_ccd)` — and lend the index to `f`, holding
/// its `gsa-index` reservation until `f` returns. `f` gets `None`, and
/// every phase mines windows of its own, when one monolithic index of
/// `input` does not fit the budget or `input` is not an in-memory set.
pub fn with_shared_index<R>(
    input: &dyn SeqStore,
    config: &ClusterConfig,
    f: impl FnOnce(Option<&SharedIndex<'_>>) -> R,
) -> R {
    let base = match input.as_sequence_set() {
        Some(set) if !set.is_empty() && route(input, config, None) == IndexPlan::Monolithic => set,
        _ => return f(None),
    };
    let _held = config.budget.try_reserve("gsa-index", index_bytes(base));
    with_config_index(base, config, config.psi_rr.min(config.psi_ccd), |tree, _| {
        f(Some(&SharedIndex { base, tree }))
    })
}

/// `store` as a monolithic index sees it: the in-memory set it is, or is
/// a subset view of, and the ids the view keeps. A view that reorders its
/// base is none — sentinel order, hence suffix order, follows read order.
fn in_memory_view(store: &dyn SeqStore) -> Option<(&SequenceSet, Option<&[SeqId]>)> {
    if let Some(set) = store.as_sequence_set() {
        return Some((set, None));
    }
    let (base, keep) = store.as_subset_view()?;
    keep.windows(2).all(|w| w[0] < w[1]).then_some((base, Some(keep)))
}

/// Which index a phase mines. The pairs, and their order, are the same
/// either way; the plan decides what is resident while they are mined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexPlan {
    /// One monolithic index of the in-memory set the store is (a view
    /// of).
    Monolithic,
    /// One resident text, its suffixes sorted and mined a window of
    /// buckets at a time ([`PartitionedMiner`]).
    Windowed,
}

/// The one routing decision of the index plane: one monolithic index when
/// `shared` already holds the index of the in-memory set `store` is (an
/// ascending view of), or that index fits the remaining budget; windows
/// otherwise.
fn route(
    store: &dyn SeqStore,
    config: &ClusterConfig,
    shared: Option<&SharedIndex<'_>>,
) -> IndexPlan {
    match in_memory_view(store) {
        Some((base, _))
            if shared.is_some_and(|shared| shared.indexes(base))
                || config.budget.would_fit(index_bytes(base)) =>
        {
            IndexPlan::Monolithic
        }
        _ => IndexPlan::Windowed,
    }
}

/// Where a phase over `store` draws its pairs from ([`with_pair_source`]
/// decides the same way), checked against the budget: `Err` when the plan
/// is windows and the reads' text and the smallest window it can be cut
/// into (at the smaller of the config's two cut-offs) do not fit together
/// — the budget's floor. The pipeline asks before phase 1 and refuses
/// such a run; a windowed plan under a budget loads and counts the text
/// to answer.
pub fn index_plan(
    store: &dyn SeqStore,
    config: &ClusterConfig,
    shared: Option<&SharedIndex<'_>>,
) -> Result<IndexPlan, BudgetError> {
    let plan = route(store, config, shared);
    if plan == IndexPlan::Windowed && config.budget.is_limited() && !store.is_empty() {
        windowed_miner(store, config, config.psi_rr.min(config.psi_ccd), true)?;
    }
    Ok(plan)
}

/// Mine the pairs [`index_plan`] names for `store` at cut-off `psi` and
/// lend them to `f`, with the suffix-tree nodes the miner visited and, when
/// it mined windows, what they held; mining runs on the config's threads.
/// The index, and its budget reservation, live until `f` returns.
///
/// Monolithic: one index of the in-memory set `store` is, or is an
/// ascending view of — mined through a mask when the view keeps only some
/// of its reads. That index is `shared` when `shared` is it (its builder
/// holds the budget), else one built here and reserved as `gsa-index`.
/// The masked stream is the stream of an index of the kept reads alone
/// ([`pfam_suffix::KeepMask`]).
///
/// Windowed: [`PartitionedMiner`] over the store's reads, holding what fits
/// of the budget and running the rest over it — the library entries are
/// infallible; the pipeline checked the floor before phase 1.
///
/// Both give one stream, so a phase's result does not depend on the
/// budget.
pub fn with_pair_source<R>(
    store: &dyn SeqStore,
    config: &ClusterConfig,
    psi: u32,
    shared: Option<&SharedIndex<'_>>,
    f: impl FnOnce(&[MatchPair], u64, Option<WindowStats>) -> R,
) -> R {
    let lend = |(pairs, stats): (Vec<MatchPair>, GenerationStats), windows| {
        f(&pairs, stats.nodes_visited as u64, windows)
    };
    let (base, keep) = match (route(store, config, shared), in_memory_view(store)) {
        (IndexPlan::Monolithic, Some(view)) => view,
        _ => {
            let miner =
                windowed_miner(store, config, psi, false).expect("a lenient open never refuses");
            let (pairs, stats, windows) = miner.mine();
            return lend((pairs, stats), Some(windows));
        }
    };
    let mine = |tree: &SuffixTree<'_>| {
        let keep = keep.map(|keep| KeepMask::new(tree.gsa(), keep));
        let matches = match_config(config, psi);
        let threads = config.index_threads();
        lend(mine_pairs(tree, matches, threads, MineNodes::Whole(keep.as_ref())), None)
    };
    match shared.filter(|shared| shared.indexes(base)) {
        Some(shared) => mine(shared.tree),
        None => {
            let _held = config.budget.try_reserve("gsa-index", index_bytes(base));
            with_config_index(base, config, psi, |tree, _| mine(tree))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfam_datagen::{DatasetConfig, SyntheticDataset};
    use pfam_seq::{MemoryBudget, SequenceSetBuilder, SubsetStore};
    use pfam_suffix::estimated_text_bytes;

    fn set_of(seqs: &[&str]) -> SequenceSet {
        let mut b = SequenceSetBuilder::new();
        for (i, s) in seqs.iter().enumerate() {
            b.push_letters(format!("s{i}"), s.as_bytes()).unwrap();
        }
        b.finish()
    }

    fn dataset(seed: u64) -> SequenceSet {
        SyntheticDataset::generate(&DatasetConfig::tiny(seed)).set
    }

    fn budgeted(bytes: u64) -> ClusterConfig {
        ClusterConfig { budget: MemoryBudget::limited(bytes), ..ClusterConfig::default() }
    }

    #[test]
    fn mined_pairs_are_thread_count_invariant() {
        let set = set_of(&[
            "MKVLWAAKNDCQEGHILKMFPSTWYV",
            "MKVLWAAKNDCQEGHILKMFPSTWYV",
            "GHILPWYVRNDAAKCCQQEEGGHHII",
        ]);
        let mine = |threads: usize| {
            let config = ClusterConfig { threads, ..ClusterConfig::for_short_sequences() };
            with_pair_source(&set, &config, config.psi_ccd, None, |pairs, _, _| pairs.to_vec())
        };
        let serial = mine(1);
        assert!(!serial.is_empty());
        assert_eq!(serial, mine(2), "mining must be output-identical across thread counts");
    }

    #[test]
    fn an_in_memory_set_that_fits_plans_one_index() {
        let set = dataset(3);
        let monolithic = Ok(IndexPlan::Monolithic);
        assert_eq!(index_plan(&set, &ClusterConfig::default(), None), monolithic, "unbudgeted");
        assert_eq!(index_plan(&set, &budgeted(index_bytes(&set)), None), monolithic, "fits");
    }

    #[test]
    fn a_view_of_the_shared_index_plans_it_under_a_budget_it_no_longer_fits() {
        let set = dataset(5);
        let config = budgeted(index_bytes(&set));
        let view = SubsetStore::new(&set, set.ids().step_by(2).collect());
        with_shared_index(&set, &config, |shared| {
            assert!(shared.is_some(), "the index fits: it is built");
            assert_eq!(config.budget.remaining(), 0, "and holds the whole budget");
            assert_eq!(index_plan(&view, &config, shared), Ok(IndexPlan::Monolithic));
            assert!(index_plan(&view, &config, None).is_err(), "no room for another");
        });
    }

    /// Bytes of the text of `set`'s reads, resident while windows are mined.
    fn text_bytes(set: &SequenceSet) -> u64 {
        estimated_text_bytes(set.total_residues(), set.len())
    }

    #[test]
    fn over_budget_plans_windows_down_to_the_text_and_one_window() {
        let set = dataset(7);
        let config = budgeted(index_bytes(&set) / 4);
        assert_eq!(index_plan(&set, &config, None), Ok(IndexPlan::Windowed));
        assert_eq!(config.budget.used(), 0, "the check holds nothing");

        // Below the text: refused before a read is loaded.
        let err = index_plan(&set, &budgeted(text_bytes(&set) - 1), None).unwrap_err();
        assert_eq!((err.what, err.requested), ("gsa-text", text_bytes(&set)));
        // The text and nothing else: refused with the smallest window.
        let err = index_plan(&set, &budgeted(text_bytes(&set)), None).unwrap_err();
        assert_eq!(err.what, "gsa-window");
        let floor = text_bytes(&set) + err.requested;
        assert_eq!(index_plan(&set, &budgeted(floor), None), Ok(IndexPlan::Windowed));
        assert!(floor < index_bytes(&set) / 4, "the floor is well under the index");
    }
}
