//! Where promising pairs come from — the first of the three pluggable
//! axes around [`crate::core::ClusterCore`].
//!
//! A [`PairSource`] yields batches of [`MatchPair`]s in the order the
//! clustering loop should consume them (decreasing maximal-match length —
//! the paper's "longest match first" discipline). Three implementations
//! cover every driver in this crate:
//!
//! * [`MinedSource`] — the suffix-index generator: serial when
//!   `threads == 1` (the reference path), eagerly mined across threads
//!   otherwise, with identical output either way; through a
//!   [`pfam_suffix::KeepMask`] it mines an index of a whole input on
//!   behalf of a subset view of it. The rank-partitioned SPMD variant is
//!   [`MinedSource::partitioned`].
//! * [`IterSource`] — any explicit pair stream; the ablation hook
//!   (`run_ccd_from_pairs`) and the pre-collected sources in the
//!   driver-equivalence matrix tests.
//! * [`PartitionedMinedSource`] — the out-of-core generator: per-chunk
//!   GSAs mined task by task under a [`pfam_seq::MemoryBudget`]
//!   (see [`pfam_suffix::PartitionedMiner`]); the pair *set* is identical
//!   to [`MinedSource`], the order is the deterministic task order.
//!
//! The suffix index borrows the sequence set transitively (set → GSA →
//! tree → generator), so [`with_mined_source`] owns that borrow chain and
//! lends the finished source to a closure. [`with_source_pinned`] is the
//! budget-aware front door every driver routes through: it picks the
//! monolithic or partitioned generator from the [`crate::config::MemParams`]
//! knobs and the store's residency, degrading to smaller chunks instead
//! of aborting when the budget binds. [`with_shared_index`] builds the
//! monolithic index once for a run whose phases all mine it.

use std::ops::Range;

use pfam_seq::{BudgetError, MemoryBudget, SeqId, SeqStore, SequenceSet};
use pfam_suffix::{
    estimated_index_bytes, promising_pairs_masked, with_match_tree, ChunkPlan, KeepMask, MatchPair,
    MaximalMatchConfig, MaximalMatchGenerator, PartitionedMiner, SuffixTree,
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

/// Pairs mined from the generalized suffix tree.
pub struct MinedSource<'a> {
    inner: pfam_suffix::PairSource<'a>,
}

impl<'a> MinedSource<'a> {
    /// Mine the whole tree: serial generation when `threads == 1`, eager
    /// parallel mining otherwise (`0` = all cores); output order and
    /// content are identical in both modes.
    pub fn new(tree: &'a SuffixTree<'a>, config: MaximalMatchConfig, threads: usize) -> Self {
        MinedSource::masked(tree, config, threads, None)
    }

    /// Mine the tree for the reads `keep` keeps (`None`: all), under
    /// their dense ids — the stream of an index built over those reads
    /// alone, whatever else `tree` indexes.
    pub fn masked(
        tree: &'a SuffixTree<'a>,
        config: MaximalMatchConfig,
        threads: usize,
        keep: Option<&'a KeepMask>,
    ) -> Self {
        MinedSource { inner: promising_pairs_masked(tree, config, threads, keep) }
    }

    /// Mine only `nodes` — one rank's slice of a prefix-partitioned
    /// suffix space (the SPMD workers' source).
    pub fn partitioned(
        tree: &'a SuffixTree<'a>,
        config: MaximalMatchConfig,
        nodes: Vec<pfam_suffix::tree::NodeId>,
    ) -> Self {
        MinedSource {
            inner: pfam_suffix::PairSource::Serial(MaximalMatchGenerator::with_nodes(
                tree, config, nodes,
            )),
        }
    }
}

impl PairSource for MinedSource<'_> {
    fn next_batch(&mut self, max: usize) -> Vec<MatchPair> {
        self.inner.by_ref().take(max).collect()
    }

    fn nodes_visited(&self) -> u64 {
        self.inner.stats().nodes_visited as u64
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

/// Default per-chunk index target when partitioning is forced (a store
/// that is no view of an in-memory set) but neither a chunk size nor a
/// budget limit is configured.
const DEFAULT_CHUNK_INDEX_BYTES: u64 = 256 << 20;

/// Pairs mined from per-chunk suffix indexes — the out-of-core
/// counterpart of [`MinedSource`]. Same pair *set*, deterministic
/// task-major order, at most one task's index resident at a time.
pub struct PartitionedMinedSource<'a> {
    miner: PartitionedMiner<ChunkLoader<'a>>,
    /// The per-chunk index target the plan was built from, after budget
    /// degradation — the value a checkpoint cursor pins so resume can
    /// rebuild the identical generation order.
    chunk_target: u64,
}

impl<'a> PartitionedMinedSource<'a> {
    /// Build the partitioned generator over `store`, sizing chunks from
    /// [`crate::config::MemParams`] and degrading (halving the chunk
    /// target, down to one-sequence chunks) until the plan's peak task
    /// footprint fits the budget. When even one-sequence chunks exceed
    /// the limit the miner runs accounting-only rather than aborting —
    /// the pipeline entry ([`check_index_budget`]) reports that case as a
    /// typed error before any driver gets here.
    pub fn new(
        store: &'a dyn SeqStore,
        config: &ClusterConfig,
        psi: u32,
        threads: usize,
    ) -> PartitionedMinedSource<'a> {
        let mm = match_config(config, psi);
        let budget = &config.mem.budget;
        let lens: Vec<u32> =
            (0..store.len()).map(|i| store.seq_len(SeqId(i as u32)) as u32).collect();
        let mut target = if config.mem.index_chunk_bytes > 0 {
            config.mem.index_chunk_bytes
        } else if budget.is_limited() {
            // A task holds two chunks resident; the third share is slack
            // for the union text's sentinels and mining scratch.
            (budget.remaining() / 3).max(1)
        } else {
            DEFAULT_CHUNK_INDEX_BYTES
        };
        loop {
            let plan = ChunkPlan::plan(&lens, target);
            let maxed_out = plan.n_chunks() >= lens.len();
            match PartitionedMiner::try_new(
                plan,
                chunk_loader(store, config.mask),
                mm,
                threads,
                budget,
            ) {
                Ok(miner) => return PartitionedMinedSource { miner, chunk_target: target },
                Err(_) if !maxed_out => target = (target / 2).max(1),
                Err(_) => {
                    // One-sequence chunks still over budget: degrade to
                    // accounting-only (never abort mid-drive).
                    let plan = ChunkPlan::plan(&lens, 1);
                    let miner =
                        PartitionedMiner::new(plan, chunk_loader(store, config.mask), mm, threads);
                    return PartitionedMinedSource { miner, chunk_target: 1 };
                }
            }
        }
    }

    /// Build the partitioned generator with an exact, pinned per-chunk
    /// target — no degradation: the chunk plan (and therefore the pair
    /// *order*) is a pure function of the store's lengths and `target`.
    /// This is the checkpoint-resume path: the cursor pins the target the
    /// original run settled on, and replay must reproduce that order even
    /// if this run's budget differs. The budget still *accounts* for the
    /// footprint when it fits; when it does not, the miner runs
    /// accounting-only rather than silently changing the order.
    pub fn with_target(
        store: &'a dyn SeqStore,
        config: &ClusterConfig,
        psi: u32,
        threads: usize,
        target: u64,
    ) -> PartitionedMinedSource<'a> {
        let mm = match_config(config, psi);
        let lens: Vec<u32> =
            (0..store.len()).map(|i| store.seq_len(SeqId(i as u32)) as u32).collect();
        let plan = ChunkPlan::plan(&lens, target.max(1));
        let miner = match PartitionedMiner::try_new(
            plan.clone(),
            chunk_loader(store, config.mask),
            mm,
            threads,
            &config.mem.budget,
        ) {
            Ok(miner) => miner,
            Err(_) => PartitionedMiner::new(plan, chunk_loader(store, config.mask), mm, threads),
        };
        PartitionedMinedSource { miner, chunk_target: target.max(1) }
    }

    /// The chunk plan the miner settled on (after budget degradation).
    pub fn plan(&self) -> &ChunkPlan {
        self.miner.plan()
    }

    /// The per-chunk index target the plan was built from — what a
    /// checkpoint cursor records as its generation-plan pin.
    pub fn chunk_target(&self) -> u64 {
        self.chunk_target
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

/// An explicit pair stream (ablations, tests, replay from a recording).
pub struct IterSource<I> {
    inner: I,
}

impl<I: Iterator<Item = MatchPair>> IterSource<I> {
    /// Wrap any pair iterator.
    pub fn new(inner: I) -> Self {
        IterSource { inner }
    }
}

impl<I: Iterator<Item = MatchPair>> PairSource for IterSource<I> {
    fn next_batch(&mut self, max: usize) -> Vec<MatchPair> {
        self.inner.by_ref().take(max).collect()
    }
}

/// Build the suffix index for `set` (masked view, GSA, ψ-pruned tree), open a
/// [`MinedSource`] over it with match cutoff `psi`, and lend it to `f`.
///
/// `threads` controls both index construction and mining (`1` runs them
/// on the calling thread, `0` uses all cores); every value is
/// output-identical.
pub fn with_mined_source<R>(
    set: &SequenceSet,
    config: &ClusterConfig,
    psi: u32,
    threads: usize,
    f: impl FnOnce(&mut MinedSource<'_>) -> R,
) -> R {
    let index_set = crate::mask::index_view(set, &config.mask);
    with_match_tree(&index_set, psi, config.max_pairs_per_node, threads, |tree, matches| {
        f(&mut MinedSource::new(tree, matches, threads))
    })
}

/// The monolithic suffix index of an in-memory set, built once for every
/// phase of a run that mines the set or a subset view of it
/// ([`with_shared_index`]).
pub struct SharedIndex<'t> {
    base: &'t SequenceSet,
    tree: &'t SuffixTree<'t>,
}

/// Index `input` once for both clustering phases — masked view, GSA, tree
/// pruned at `min(psi_rr, psi_ccd)` — and lend the index to `f`, holding
/// its `gsa-index` reservation until `f` returns. `f` gets `None`, and
/// every phase routes on its own as [`with_source_pinned`] does, when one
/// monolithic index cannot serve the run: `input` is not an in-memory
/// set, a chunk size is forced, or the index does not fit the budget.
pub fn with_shared_index<R>(
    input: &dyn SeqStore,
    config: &ClusterConfig,
    f: impl FnOnce(Option<&SharedIndex<'_>>) -> R,
) -> R {
    let base = match input.as_sequence_set() {
        Some(set) if !set.is_empty() && config.mem.index_chunk_bytes == 0 => set,
        _ => return f(None),
    };
    let estimate = estimated_index_bytes(base.total_residues(), base.len());
    let Ok(_held) = config.mem.budget.try_reserve("gsa-index", estimate) else {
        return f(None);
    };
    let index_set = crate::mask::index_view(base, &config.mask);
    with_match_tree(
        &index_set,
        config.psi_rr.min(config.psi_ccd),
        config.max_pairs_per_node,
        config.index_threads(),
        |tree, _| f(Some(&SharedIndex { base, tree })),
    )
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

/// Open the monolithic source over `base` — mined through a mask when the
/// store `keep`s only some of its reads — on `tree` when the run already
/// holds the index of `base`, else on one built here for cut-off `psi`.
/// Plan pin `0`.
fn with_monolithic_source<R>(
    (base, keep): (&SequenceSet, Option<&[SeqId]>),
    config: &ClusterConfig,
    psi: u32,
    threads: usize,
    tree: Option<&SuffixTree<'_>>,
    f: impl FnOnce(&mut dyn PairSource, u64) -> R,
) -> R {
    let mine = |tree: &SuffixTree<'_>| {
        let matches = match_config(config, psi);
        let keep = keep.map(|keep| KeepMask::new(tree.gsa(), keep));
        f(&mut MinedSource::masked(tree, matches, threads, keep.as_ref()), 0)
    };
    match tree {
        Some(tree) => mine(tree),
        None => {
            let index_set = crate::mask::index_view(base, &config.mask);
            with_match_tree(&index_set, psi, config.max_pairs_per_node, threads, |tree, _| {
                mine(tree)
            })
        }
    }
}

/// The budget-aware front door every in-process driver routes through:
/// build a pair source for `store` honouring [`crate::config::MemParams`]
/// and lend it to `f`, with the plan pin it settled on. `pin` is the
/// checkpoint-resume seam (`None` on a fresh run), and `shared` the
/// [`SharedIndex`] to mine instead of building another, when the run
/// holds one.
///
/// Routing of a fresh run: the monolithic [`MinedSource`] when the store
/// is an in-memory set or a subset view of one (the view is mined through
/// a mask over the index of its base — no copy of the kept reads), no
/// chunk size is forced, and the whole index fits the budget (reserving
/// its footprint for the duration of `f`); else the
/// [`PartitionedMinedSource`], whose chunk plan degrades under the budget
/// instead of aborting. Both yield the same pair *set*, and every consumer
/// is order-invariant, so components are identical either way.
///
/// `pairs_consumed` in a [`crate::core::CcdCursor`] is a position in one
/// specific generation order, and the partitioned generator's order is a
/// function of its chunk plan. So every emitted cursor pins the plan it
/// was generated under (`0` = monolithic, else the settled per-chunk
/// target), and resume passes that pin here: the source is rebuilt from
/// the *pin*, not from this run's [`crate::config::MemParams`], making
/// resume byte-identical even when the resumed run is configured with a
/// different chunk size (or none at all). The closure receives the
/// settled pin so fresh runs can stamp it into the cursors they emit.
///
/// Pin `0` names one order however the index came about: mined through a
/// mask from the index of the store's in-memory base (shared with the
/// previous phase, or rebuilt on resume) or from an index of a copy of
/// the store's reads, the stream is the same
/// ([`pfam_suffix::KeepMask`]).
///
/// A pinned plan overrides budget *routing* but not budget *accounting*:
/// the reservation is still attempted, and when the pinned plan no longer
/// fits the generator runs accounting-only — changing the order would
/// corrupt the replay, which is strictly worse than exceeding a soft
/// limit.
pub fn with_source_pinned<R>(
    store: &dyn SeqStore,
    config: &ClusterConfig,
    psi: u32,
    threads: usize,
    pin: Option<u64>,
    shared: Option<&SharedIndex<'_>>,
    f: impl FnOnce(&mut dyn PairSource, u64) -> R,
) -> R {
    let index_bytes = |base: &SequenceSet| estimated_index_bytes(base.total_residues(), base.len());
    // The run's index, if it is the index of the set `store` is a view of.
    let shared_tree = |base: &SequenceSet| {
        shared.filter(|shared| std::ptr::eq(shared.base, base)).map(|shared| shared.tree)
    };
    match pin {
        // Pinned monolithic: the checkpointed run mined one big index.
        Some(0) => {
            let owned;
            let view = match in_memory_view(store) {
                Some(view) => view,
                None => {
                    owned = store.load_range(0..store.len() as u32);
                    (&owned, None)
                }
            };
            // A shared index is already accounted for by its builder.
            let tree = shared_tree(view.0);
            let _held = match tree {
                Some(_) => None,
                None => config.mem.budget.try_reserve("gsa-index", index_bytes(view.0)).ok(),
            };
            with_monolithic_source(view, config, psi, threads, tree, f)
        }
        // Pinned partitioned: rebuild the exact chunk plan.
        Some(target) => {
            let mut source =
                PartitionedMinedSource::with_target(store, config, psi, threads, target);
            f(&mut source, target)
        }
        // Fresh run: route from MemParams and report what was chosen.
        None => {
            if let Some(view) = in_memory_view(store) {
                if let Some(tree) = shared_tree(view.0) {
                    return with_monolithic_source(view, config, psi, threads, Some(tree), f);
                }
                if config.mem.index_chunk_bytes == 0 {
                    if let Ok(_held) =
                        config.mem.budget.try_reserve("gsa-index", index_bytes(view.0))
                    {
                        return with_monolithic_source(view, config, psi, threads, None, f);
                    }
                }
            }
            let mut source = PartitionedMinedSource::new(store, config, psi, threads);
            let target = source.chunk_target();
            f(&mut source, target)
        }
    }
}

/// The fallible budget check the pipeline entry makes before phase 1:
/// `Err` iff the *minimum feasible* index plan — one-sequence chunks, the
/// deepest the partitioned miner can degrade — still exceeds the
/// remaining budget, i.e. no amount of chunking makes the index fit.
/// Drivers themselves never abort; this is where the typed error
/// surfaces instead.
pub fn check_index_budget(store: &dyn SeqStore, budget: &MemoryBudget) -> Result<(), BudgetError> {
    if !budget.is_limited() {
        return Ok(());
    }
    let lens: Vec<u32> = (0..store.len()).map(|i| store.seq_len(SeqId(i as u32)) as u32).collect();
    let need = ChunkPlan::plan(&lens, 1).max_task_index_bytes();
    if budget.would_fit(need) {
        Ok(())
    } else {
        Err(BudgetError {
            what: "partitioned-gsa",
            requested: need,
            in_use: budget.used(),
            limit: budget.limit().unwrap_or(u64::MAX),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfam_seq::{SeqId, SequenceSetBuilder};

    fn set_of(seqs: &[&str]) -> SequenceSet {
        let mut b = SequenceSetBuilder::new();
        for (i, s) in seqs.iter().enumerate() {
            b.push_letters(format!("s{i}"), s.as_bytes()).unwrap();
        }
        b.finish()
    }

    #[test]
    fn iter_source_batches_and_exhausts() {
        let pairs: Vec<MatchPair> =
            (1..=5).map(|i| MatchPair::new(SeqId(0), SeqId(i), 10)).collect();
        let mut s = IterSource::new(pairs.into_iter());
        assert_eq!(s.next_batch(2).len(), 2);
        assert_eq!(s.next_batch(10).len(), 3);
        assert!(s.next_batch(1).is_empty(), "exhausted");
        assert_eq!(s.nodes_visited(), 0);
    }

    #[test]
    fn skip_is_prefix_discard() {
        let pairs: Vec<MatchPair> =
            (1..=5).map(|i| MatchPair::new(SeqId(0), SeqId(i), 10)).collect();
        let mut s = IterSource::new(pairs.clone().into_iter());
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
        let config = ClusterConfig::for_short_sequences();
        let serial = with_mined_source(&set, &config, config.psi_ccd, 1, |s| s.next_batch(10_000));
        let mined = with_mined_source(&set, &config, config.psi_ccd, 2, |s| s.next_batch(10_000));
        assert!(!serial.is_empty());
        assert_eq!(serial, mined, "mining must be output-identical across thread counts");
    }
}
