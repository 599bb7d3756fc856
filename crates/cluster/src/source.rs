//! Where promising pairs come from — the first of the three pluggable
//! axes around [`crate::core::ClusterCore`].
//!
//! A [`PairSource`] yields batches of [`MatchPair`]s in the order the
//! clustering loop should consume them (decreasing maximal-match length —
//! the paper's "longest match first" discipline). Two implementations
//! cover every driver in this crate:
//!
//! * [`MinedSource`] — a phase's pairs held in memory: what
//!   [`pfam_suffix::mine_pairs`] mined from one suffix index (the whole
//!   tree, the reads a [`pfam_suffix::KeepMask`] keeps of it, or one SPMD
//!   rank's slice of its nodes), with the same output at any thread count;
//!   or an explicit pair list — the ablation hook (`run_ccd_from_pairs`)
//!   and the tests.
//! * [`PartitionedMinedSource`] — the out-of-core generator: per-chunk
//!   GSAs mined task by task under a [`pfam_seq::MemoryBudget`]
//!   (see [`pfam_suffix::PartitionedMiner`]), at most one task's pairs
//!   held at a time; the pair *set* is identical to [`MinedSource`]'s,
//!   the order is the deterministic task order.
//!
//! Which of the two suffix-index generators a phase mines is one decision,
//! [`index_plan`]: `0` for one monolithic index, else the partitioned
//! miner's per-chunk target. [`with_pair_source`] opens the source a plan
//! names and lends it to a closure — the index borrows the sequence set
//! transitively (set → GSA → tree), so the opener owns that borrow chain.
//! [`with_shared_index`] builds the monolithic index once for a run whose
//! phases all mine it.

use std::ops::Range;

use pfam_seq::{BudgetError, SeqId, SeqStore, SequenceSet};
use pfam_suffix::maximal::GenerationStats;
use pfam_suffix::{
    estimated_index_bytes, mine_pairs, with_match_tree, ChunkPlan, KeepMask, MatchPair,
    MaximalMatchConfig, MineNodes, PartitionedMiner, SuffixTree,
};

use crate::config::ClusterConfig;

/// A stream of promising pairs, drawn batch-wise by a
/// [`crate::policy::WorkPolicy`]. An empty batch means the source is
/// exhausted (sources never yield an empty batch mid-stream).
pub trait PairSource {
    /// Pull up to `max` pairs. A batch shorter than `max` means the
    /// stream is exhausted — the pull/push worker protocols rely on that
    /// to piggyback end-of-stream on the last real batch, so sources
    /// must fill the batch while pairs remain.
    fn next_batch(&mut self, max: usize) -> Vec<MatchPair>;

    /// Suffix-tree nodes visited producing the stream so far (0 for
    /// sources that never touched an index).
    fn nodes_visited(&self) -> u64 {
        0
    }

    /// Discard the next `n` pairs — deterministic checkpoint replay:
    /// the generation order is bit-identical across runs, so skipping the
    /// consumed prefix lands exactly where a checkpointed run stopped.
    fn skip(&mut self, n: u64) {
        for _ in 0..n {
            if self.next_batch(1).is_empty() {
                break;
            }
        }
    }
}

/// A phase's promising pairs, held in memory in the order they are
/// consumed.
pub struct MinedSource {
    pairs: std::vec::IntoIter<MatchPair>,
    nodes_visited: u64,
}

impl MinedSource {
    /// An explicit pair stream, in the order given. It visited no tree
    /// node.
    pub fn new(pairs: Vec<MatchPair>) -> Self {
        MinedSource { pairs: pairs.into_iter(), nodes_visited: 0 }
    }

    /// The output of a [`mine_pairs`] run: its pairs, and the tree nodes
    /// it visited.
    pub fn mined((pairs, stats): (Vec<MatchPair>, GenerationStats)) -> Self {
        MinedSource { pairs: pairs.into_iter(), nodes_visited: stats.nodes_visited as u64 }
    }
}

impl PairSource for MinedSource {
    fn next_batch(&mut self, max: usize) -> Vec<MatchPair> {
        self.pairs.by_ref().take(max).collect()
    }

    fn nodes_visited(&self) -> u64 {
        self.nodes_visited
    }
}

/// A chunk loader: global id range → in-memory set (ids renumbered from
/// 0) with the config's index-side masking already applied. Masking is
/// per-sequence, so chunk-level masking equals whole-set masking.
type ChunkLoader<'a> = Box<dyn FnMut(Range<u32>) -> SequenceSet + 'a>;

fn chunk_loader<'a>(
    store: &'a dyn SeqStore,
    mask: Option<pfam_seq::complexity::MaskParams>,
) -> ChunkLoader<'a> {
    Box::new(move |r: Range<u32>| {
        let chunk = store.load_range(r);
        match mask {
            None => chunk,
            Some(_) => crate::mask::index_view(&chunk, &mask).into_owned(),
        }
    })
}

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

/// Per-chunk index target of a partitioned plan with no budget to size it
/// from (a paged store, unbudgeted).
const DEFAULT_CHUNK_INDEX_BYTES: u64 = 256 << 20;

/// Every read length of `store`, in id order — what a [`ChunkPlan`] cuts.
fn read_lens(store: &dyn SeqStore) -> Vec<u32> {
    (0..store.len()).map(|i| store.seq_len(SeqId(i as u32)) as u32).collect()
}

/// Estimated bytes of the monolithic index of `base`.
fn index_bytes(base: &SequenceSet) -> u64 {
    estimated_index_bytes(base.total_residues(), base.len())
}

/// Pairs mined from per-chunk suffix indexes — the out-of-core
/// counterpart of [`MinedSource`]. Same pair *set*, deterministic
/// task-major order, at most one task's index resident at a time.
pub struct PartitionedMinedSource<'a> {
    miner: PartitionedMiner<ChunkLoader<'a>>,
}

impl<'a> PartitionedMinedSource<'a> {
    /// The partitioned generator over `store` with per-chunk index target
    /// `target` — [`index_plan`]'s answer or a checkpoint cursor's pin. The
    /// chunk plan, and with it the pair *order*, is a pure function of the
    /// store's read lengths and `target`. The plan's peak task footprint is
    /// reserved on the config's budget when it fits; when it does not (a
    /// pin replayed under a smaller budget, or one-read chunks over it) the
    /// miner runs accounting-only rather than change the order.
    pub fn new(
        store: &'a dyn SeqStore,
        config: &ClusterConfig,
        psi: u32,
        target: u64,
    ) -> PartitionedMinedSource<'a> {
        let plan = ChunkPlan::plan(&read_lens(store), target.max(1));
        let (matches, threads) = (match_config(config, psi), config.index_threads());
        let loader = || chunk_loader(store, config.mask);
        let miner =
            PartitionedMiner::try_new(plan.clone(), loader(), matches, threads, &config.budget)
                .unwrap_or_else(|_| PartitionedMiner::new(plan, loader(), matches, threads));
        PartitionedMinedSource { miner }
    }

    /// The chunk plan the miner partitions by.
    pub fn plan(&self) -> &ChunkPlan {
        self.miner.plan()
    }
}

impl PairSource for PartitionedMinedSource<'_> {
    fn next_batch(&mut self, max: usize) -> Vec<MatchPair> {
        self.miner.by_ref().take(max).collect()
    }

    fn nodes_visited(&self) -> u64 {
        self.miner.stats().nodes_visited as u64
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
/// every phase plans on its own, when [`index_plan`] does not name one
/// monolithic index for `input` or `input` is not an in-memory set.
pub fn with_shared_index<R>(
    input: &dyn SeqStore,
    config: &ClusterConfig,
    f: impl FnOnce(Option<&SharedIndex<'_>>) -> R,
) -> R {
    let base = match input.as_sequence_set() {
        Some(set) if !set.is_empty() && index_plan(input, config, None) == Ok(0) => set,
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

/// Where a fresh phase over `store` draws its pairs from — the one routing
/// decision of the index plane. `0` names one monolithic index: `shared`
/// already holds the index of the in-memory set `store` is (an ascending
/// view of), or that index fits the remaining budget. Any other value is
/// the partitioned miner's per-chunk index target: a third of the
/// remaining budget (a task holds two chunks resident; the third share is
/// slack for the union text's sentinels and mining scratch), 256 MiB when
/// unbudgeted, halved until the plan's largest task fits.
///
/// `Err` when even one-read chunks do not fit: no plan runs inside the
/// budget. The pipeline refuses such a run before phase 1; the infallible
/// library entries run one-read chunks (target `1`) accounting-only.
pub fn index_plan(
    store: &dyn SeqStore,
    config: &ClusterConfig,
    shared: Option<&SharedIndex<'_>>,
) -> Result<u64, BudgetError> {
    let budget = &config.budget;
    if let Some((base, _)) = in_memory_view(store) {
        if shared.is_some_and(|shared| shared.indexes(base)) || budget.would_fit(index_bytes(base))
        {
            return Ok(0);
        }
    }
    let lens = read_lens(store);
    let mut target = if budget.is_limited() {
        (budget.remaining() / 3).max(1)
    } else {
        DEFAULT_CHUNK_INDEX_BYTES
    };
    loop {
        let plan = ChunkPlan::plan(&lens, target);
        let need = plan.max_task_index_bytes();
        if budget.would_fit(need) {
            return Ok(target);
        }
        if plan.n_chunks() >= lens.len() {
            return Err(BudgetError {
                what: "partitioned-gsa",
                requested: need,
                in_use: budget.used(),
                limit: budget.limit().unwrap_or(u64::MAX),
            });
        }
        target = (target / 2).max(1);
    }
}

/// Open the pair source `plan` names over `store` at cut-off `psi` and
/// lend it to `f`; mining runs on the config's threads.
///
/// Plan `0`: one monolithic index of the in-memory set `store` is, or is
/// an ascending view of — mined through a mask when the view keeps only
/// some of its reads — or of a copy of `store`'s reads otherwise. That
/// index is `shared` when `shared` is it (its builder holds the budget),
/// else one built here and reserved as `gsa-index`. Pin `0` names one
/// order however the index came about: the masked stream is the stream of
/// an index of the kept reads alone ([`pfam_suffix::KeepMask`]).
///
/// Any other plan: the [`PartitionedMinedSource`] with that chunk target.
///
/// A fresh phase passes [`index_plan`]'s answer and stamps it into the
/// cursors it emits; a resumed CCD passes its cursor's pin, because
/// `pairs_consumed` is a position in that one generation order. The
/// source is rebuilt from the pin, not from this run's budget, so a resume
/// under another budget replays byte-identically; a pin that no longer
/// fits runs accounting-only — changing the order would corrupt the
/// replay, which is strictly worse than exceeding a soft limit.
pub fn with_pair_source<R>(
    store: &dyn SeqStore,
    config: &ClusterConfig,
    psi: u32,
    plan: u64,
    shared: Option<&SharedIndex<'_>>,
    f: impl FnOnce(&mut dyn PairSource) -> R,
) -> R {
    if plan != 0 {
        return f(&mut PartitionedMinedSource::new(store, config, psi, plan));
    }
    let owned;
    let (base, keep) = match in_memory_view(store) {
        Some(view) => view,
        None => {
            owned = store.load_range(0..store.len() as u32);
            (&owned, None)
        }
    };
    let mine = |tree: &SuffixTree<'_>| {
        let keep = keep.map(|keep| KeepMask::new(tree.gsa(), keep));
        let matches = match_config(config, psi);
        let threads = config.index_threads();
        f(&mut MinedSource::mined(mine_pairs(
            tree,
            matches,
            threads,
            MineNodes::Whole(keep.as_ref()),
        )))
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
    use pfam_seq::{MemoryBudget, PagedSeqStore, SeqId, SequenceSetBuilder, SubsetStore};

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
    fn an_explicit_list_batches_and_exhausts() {
        let pairs: Vec<MatchPair> =
            (1..=5).map(|i| MatchPair::new(SeqId(0), SeqId(i), 10)).collect();
        let mut s = MinedSource::new(pairs);
        assert_eq!(s.next_batch(2).len(), 2);
        assert_eq!(s.next_batch(10).len(), 3);
        assert!(s.next_batch(1).is_empty(), "exhausted");
        assert_eq!(s.nodes_visited(), 0);
    }

    #[test]
    fn skip_is_prefix_discard() {
        let pairs: Vec<MatchPair> =
            (1..=5).map(|i| MatchPair::new(SeqId(0), SeqId(i), 10)).collect();
        let mut s = MinedSource::new(pairs.clone());
        s.skip(3);
        assert_eq!(s.next_batch(10), pairs[3..].to_vec());
        // Skipping past the end is harmless.
        s.skip(100);
        assert!(s.next_batch(1).is_empty());
    }

    #[test]
    fn mined_source_is_thread_count_invariant() {
        let set = set_of(&[
            "MKVLWAAKNDCQEGHILKMFPSTWYV",
            "MKVLWAAKNDCQEGHILKMFPSTWYV",
            "GHILPWYVRNDAAKCCQQEEGGHHII",
        ]);
        let mine = |threads: usize| {
            let config = ClusterConfig { threads, ..ClusterConfig::for_short_sequences() };
            with_pair_source(&set, &config, config.psi_ccd, 0, None, |s| s.next_batch(10_000))
        };
        let serial = mine(1);
        assert!(!serial.is_empty());
        assert_eq!(serial, mine(2), "mining must be output-identical across thread counts");
    }

    #[test]
    fn an_in_memory_set_that_fits_plans_one_index() {
        let set = dataset(3);
        assert_eq!(index_plan(&set, &ClusterConfig::default(), None), Ok(0), "unbudgeted");
        assert_eq!(index_plan(&set, &budgeted(index_bytes(&set)), None), Ok(0), "exactly fits");
    }

    #[test]
    fn a_view_of_the_shared_index_plans_it_under_a_budget_it_no_longer_fits() {
        let set = dataset(5);
        let config = budgeted(index_bytes(&set));
        let view = SubsetStore::new(&set, set.ids().step_by(2).collect());
        with_shared_index(&set, &config, |shared| {
            assert!(shared.is_some(), "the index fits: it is built");
            assert_eq!(config.budget.remaining(), 0, "and holds the whole budget");
            assert_eq!(index_plan(&view, &config, shared), Ok(0));
            assert!(index_plan(&view, &config, None).is_err(), "no room for another");
        });
    }

    #[test]
    fn over_budget_plans_a_third_of_it_halved_until_the_largest_task_fits() {
        let set = dataset(7);
        let limit = index_bytes(&set) / 4;
        let lens = read_lens(&set);
        let mut want = limit / 3;
        while ChunkPlan::plan(&lens, want).max_task_index_bytes() > limit {
            want /= 2;
        }
        let plan = index_plan(&set, &budgeted(limit), None);
        assert_eq!(plan, Ok(want));
        assert!(ChunkPlan::plan(&lens, want).n_chunks() > 1);
    }

    #[test]
    fn a_paged_store_unbudgeted_plans_256_mib_chunks() {
        let path =
            std::env::temp_dir().join(format!("pfam-index-plan-{}.pfss", std::process::id()));
        PagedSeqStore::write_set(&path, &dataset(9), 1 << 12).expect("write paged store");
        let paged = PagedSeqStore::open(&path).expect("open paged store");
        assert_eq!(index_plan(&paged, &ClusterConfig::default(), None), Ok(256 << 20));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn one_read_chunks_over_the_budget_are_a_budget_error() {
        let set = dataset(11);
        let err = index_plan(&set, &budgeted(8), None).unwrap_err();
        assert_eq!(err.what, "partitioned-gsa");
        assert_eq!((err.limit, err.in_use), (8, 0));
        assert_eq!(err.requested, ChunkPlan::plan(&read_lens(&set), 1).max_task_index_bytes());
    }
}
