//! Partitioned GSA construction and mining — the out-of-core half of the
//! promising-pair generator.
//!
//! The monolithic [`crate::GeneralizedSuffixArray`] needs ~7 bytes per
//! text character resident at once (15 while it is built), which caps the
//! indexable data set below the paper's 28.6 M-ORF scale. This module splits the *sequence
//! universe* into contiguous chunks sized by a per-chunk index budget,
//! builds per-chunk suffix+LCP indexes, and mines maximal matches per
//! *task* — one task per unordered chunk pair:
//!
//! * task `(i, i)` mines chunk `i`'s own GSA and keeps every pair;
//! * task `(i, j)`, `i < j`, mines the GSA of the chunk-`i` ∪ chunk-`j`
//!   union text and keeps only cross-chunk pairs.
//!
//! At most one task's index (≤ two chunks of text) is resident at a time,
//! so peak memory is set by the chunk plan, not the data set.
//!
//! ## Why the union of tasks equals the monolithic mine
//!
//! A maximal match between sequences `a` and `b` is a *pairwise* property
//! of their residue strings alone: right-maximality is witnessed by the
//! two occurrences landing under different children of their LCA node
//! (true in any generalized suffix tree containing both sequences), and
//! left-maximality is a pairwise comparison of the preceding residues.
//! Sequences are never split across chunks, so both witnesses are intact
//! in whichever task's tree contains `a` and `b` — and exactly one task
//! does: `(chunk(a), chunk(b))`. Per-task dedup (keep the longest match
//! per pair, deepest node first) therefore equals monolithic dedup, and
//! the union over tasks of kept pairs equals the monolithic pair set.
//! The one divergence risk is [`MaximalMatchConfig::max_pairs_per_node`]:
//! the cap counts candidates per *node*, and node structure differs
//! between the union tree and the monolithic tree, so a binding cap can
//! drop different candidates. The identity suites run with the default
//! (effectively unbinding) cap; see DESIGN.md §11.
//!
//! Generation order is deterministic (tasks in `(0,0), (0,1), …, (1,1),
//! …` order, deepest-first within a task) but *not* the monolithic
//! order; every consumer in `pfam-cluster` is order-invariant (the
//! transitive-closure filter only skips already-connected pairs).

use std::ops::Range;

use pfam_seq::{BudgetError, MemoryBudget, Reservation, SeqId, SequenceSet, SequenceSetBuilder};

use crate::gsa::estimated_index_bytes;
use crate::maximal::{GenerationStats, MatchPair, MaximalMatchConfig};
use crate::parallel::{parallel_pairs, with_match_tree};

/// Ceiling on one chunk's text length (residues + sentinels): half the
/// `u32` position space minus margin, so the *union* text of any two
/// chunks still indexes with `u32` positions.
const MAX_CHUNK_TEXT: u64 = (u32::MAX / 2 - 1024) as u64;

/// A partition of the sequence id space `0..n` into contiguous chunks,
/// planned so each chunk's estimated index footprint stays under a target.
///
/// Chunks hold whole sequences (a sequence is never split — maximal-match
/// left/right contexts must stay intact) and at least one sequence each,
/// so a single sequence larger than the target *clamps* rather than
/// fails: the plan degrades, construction never aborts here. Budget
/// *enforcement* happens where the plan meets a [`MemoryBudget`]
/// ([`PartitionedMiner::try_new`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkPlan {
    /// Chunk boundaries: chunk `c` covers ids `starts[c]..starts[c+1]`.
    starts: Vec<u32>,
    /// Total residues per chunk.
    residues: Vec<u64>,
}

impl ChunkPlan {
    /// Greedily pack sequences (by their lengths, in id order) into
    /// chunks whose estimated index bytes stay ≤ `target_chunk_bytes`.
    /// A target of `0` means "one chunk" (no partitioning).
    pub fn plan(lens: &[u32], target_chunk_bytes: u64) -> ChunkPlan {
        if target_chunk_bytes == 0 {
            return ChunkPlan::single(lens);
        }
        let mut starts = vec![0u32];
        let mut residues = Vec::new();
        let mut acc_res = 0u64;
        let mut acc_n = 0u64;
        for (i, &len) in lens.iter().enumerate() {
            let next_res = acc_res + len as u64;
            let next_n = acc_n + 1;
            let over_budget =
                estimated_index_bytes(next_res as usize, next_n as usize) > target_chunk_bytes;
            let over_text = next_res + next_n > MAX_CHUNK_TEXT;
            if acc_n > 0 && (over_budget || over_text) {
                starts.push(i as u32);
                residues.push(acc_res);
                acc_res = len as u64;
                acc_n = 1;
            } else {
                acc_res = next_res;
                acc_n = next_n;
            }
        }
        if acc_n > 0 {
            residues.push(acc_res);
        }
        starts.push(lens.len() as u32);
        if lens.is_empty() {
            // `starts` must still be a valid (empty) plan: [0].
            starts.truncate(1);
        }
        ChunkPlan { starts, residues }
    }

    /// The trivial one-chunk plan covering all of `lens`.
    pub fn single(lens: &[u32]) -> ChunkPlan {
        if lens.is_empty() {
            return ChunkPlan { starts: vec![0], residues: Vec::new() };
        }
        ChunkPlan {
            starts: vec![0, lens.len() as u32],
            residues: vec![lens.iter().map(|&l| l as u64).sum()],
        }
    }

    /// Number of chunks (0 for an empty id space).
    pub fn n_chunks(&self) -> usize {
        self.starts.len() - 1
    }

    /// Number of sequences covered.
    pub fn n_seqs(&self) -> u32 {
        *self.starts.last().expect("starts is never empty")
    }

    /// The id range of chunk `c`.
    pub fn chunk_range(&self, c: usize) -> Range<u32> {
        self.starts[c]..self.starts[c + 1]
    }

    /// Sequences in chunk `c`.
    pub fn chunk_len(&self, c: usize) -> u32 {
        self.starts[c + 1] - self.starts[c]
    }

    /// Estimated index bytes of chunk `c` alone.
    pub fn chunk_index_bytes(&self, c: usize) -> u64 {
        estimated_index_bytes(self.residues[c] as usize, self.chunk_len(c) as usize)
    }

    /// Estimated index bytes of the largest single *task* — the peak a
    /// miner over this plan holds resident. Index bytes are linear in
    /// (residues, sequences), so the worst task is the two heaviest
    /// chunks together (or the single chunk when there is only one).
    pub fn max_task_index_bytes(&self) -> u64 {
        let mut best = 0u64;
        let mut second = 0u64;
        for c in 0..self.n_chunks() {
            let w = self.chunk_index_bytes(c);
            if w >= best {
                second = best;
                best = w;
            } else if w > second {
                second = w;
            }
        }
        if self.n_chunks() >= 2 {
            best + second
        } else {
            best
        }
    }

    /// Mining tasks in deterministic order:
    /// `(0,0), (0,1), …, (0,k−1), (1,1), …, (k−1,k−1)`.
    pub fn tasks(&self) -> Vec<(usize, usize)> {
        let k = self.n_chunks();
        let mut out = Vec::with_capacity(k * (k + 1) / 2);
        for i in 0..k {
            for j in i..k {
                out.push((i, j));
            }
        }
        out
    }
}

/// Translate a task-local sequence id back to the global id space, with
/// overflow-checked arithmetic (the conversion the in-memory miner
/// never needed — chunk-relative addressing makes it explicit).
///
/// Task `(i, j)` presents chunk `i`'s sequences as local ids
/// `0..n_i`, then chunk `j`'s as `n_i..n_i+n_j`.
fn to_global(plan: &ChunkPlan, i: usize, j: usize, local: SeqId) -> SeqId {
    let n_i = plan.chunk_len(i);
    let (chunk, within) = if local.0 < n_i { (i, local.0) } else { (j, local.0 - n_i) };
    let global = plan.starts[chunk]
        .checked_add(within)
        .expect("chunk-relative id must fit the u32 global id space");
    debug_assert!(global < plan.n_seqs());
    SeqId(global)
}

/// Streaming maximal-match miner over a [`ChunkPlan`]: yields the same
/// pair set as the monolithic miner (see the module docs for the
/// argument), loading at most one task's chunks at a time through a
/// caller-supplied loader.
///
/// The loader maps a global id range to an in-memory [`SequenceSet`]
/// (ids renumbered from 0) — `SeqStore::load_range` composed with any
/// per-sequence transform (index-side masking is per-sequence, so
/// chunk-level masking equals whole-set masking).
pub struct PartitionedMiner<F: FnMut(Range<u32>) -> SequenceSet> {
    plan: ChunkPlan,
    loader: F,
    config: MaximalMatchConfig,
    threads: usize,
    tasks: Vec<(usize, usize)>,
    next_task: usize,
    /// Pairs of the current task, reversed so popping preserves order.
    buffer: Vec<MatchPair>,
    /// Chunk-`i` set cached across the `(i, i..k)` task row.
    row_cache: Option<(usize, SequenceSet)>,
    stats: GenerationStats,
    /// Budget bytes held for the peak task index (None when unbudgeted).
    _reservation: Option<Reservation>,
}

impl<F: FnMut(Range<u32>) -> SequenceSet> PartitionedMiner<F> {
    /// Miner without budget enforcement (accounting-only callers pass an
    /// unlimited budget to [`try_new`](Self::try_new) instead).
    pub fn new(plan: ChunkPlan, loader: F, config: MaximalMatchConfig, threads: usize) -> Self {
        let tasks = plan.tasks();
        PartitionedMiner {
            plan,
            loader,
            config,
            threads,
            tasks,
            next_task: 0,
            buffer: Vec::new(),
            row_cache: None,
            stats: GenerationStats::default(),
            _reservation: None,
        }
    }

    /// Miner that reserves the plan's peak task footprint
    /// ([`ChunkPlan::max_task_index_bytes`]) against `budget` up front.
    /// Over budget is a typed error — the caller re-plans with smaller
    /// chunks (or propagates); mining itself stays infallible.
    pub fn try_new(
        plan: ChunkPlan,
        loader: F,
        config: MaximalMatchConfig,
        threads: usize,
        budget: &MemoryBudget,
    ) -> Result<Self, BudgetError> {
        let reservation = budget.try_reserve("partitioned-gsa", plan.max_task_index_bytes())?;
        let mut miner = PartitionedMiner::new(plan, loader, config, threads);
        miner._reservation = Some(reservation);
        Ok(miner)
    }

    /// The plan this miner partitions by.
    pub fn plan(&self) -> &ChunkPlan {
        &self.plan
    }

    /// Generation statistics so far (sums over completed tasks).
    pub fn stats(&self) -> GenerationStats {
        self.stats
    }

    /// Mine one task into `buffer` (reversed for back-pop draining).
    fn mine_task(&mut self, i: usize, j: usize) {
        // Chunk `i` is loaded once per task row and lent from the cache.
        if self.row_cache.as_ref().is_none_or(|(cached, _)| *cached != i) {
            self.row_cache = Some((i, (self.loader)(self.plan.chunk_range(i))));
        }
        let row = &self.row_cache.as_ref().expect("filled above").1;
        let joined;
        let union = if i == j {
            row
        } else {
            joined = concat_sets(row, &(self.loader)(self.plan.chunk_range(j)));
            &joined
        };
        if union.is_empty() {
            return;
        }
        let n_i = self.plan.chunk_len(i);
        debug_assert!(self.buffer.is_empty());
        // Mined under the miner's own config: its `dedup` is the caller's.
        let (config, threads) = (self.config, self.threads);
        let (pairs, task_stats) = with_match_tree(
            union,
            config.min_len,
            config.max_pairs_per_node,
            threads,
            |tree, _| parallel_pairs(tree, config, threads),
        );
        for p in pairs {
            // Cross-chunk tasks keep only cross-chunk pairs: intra-chunk
            // pairs belong to (and are emitted by) the diagonal tasks.
            if i != j && (p.a.0 < n_i) == (p.b.0 < n_i) {
                continue;
            }
            self.buffer.push(MatchPair::with_anchor(
                to_global(&self.plan, i, j, p.a),
                to_global(&self.plan, i, j, p.b),
                p.len,
                p.a_pos,
                p.b_pos,
            ));
        }
        self.stats.pairs_emitted += self.buffer.len();
        self.stats.nodes_visited += task_stats.nodes_visited;
        self.stats.pairs_deduped += task_stats.pairs_deduped;
        self.stats.pairs_capped += task_stats.pairs_capped;
        self.buffer.reverse();
    }
}

impl<F: FnMut(Range<u32>) -> SequenceSet> Iterator for PartitionedMiner<F> {
    type Item = MatchPair;

    fn next(&mut self) -> Option<MatchPair> {
        loop {
            if let Some(p) = self.buffer.pop() {
                return Some(p);
            }
            if self.next_task >= self.tasks.len() {
                return None;
            }
            let (i, j) = self.tasks[self.next_task];
            self.next_task += 1;
            self.mine_task(i, j);
        }
    }
}

/// Concatenate the residues of two dense sequence sets (ids of `b`
/// shifted past `a`). The union is only ever indexed, so it carries no
/// headers.
fn concat_sets(a: &SequenceSet, b: &SequenceSet) -> SequenceSet {
    let mut out = SequenceSetBuilder::with_capacity(
        a.len() + b.len(),
        a.total_residues() + b.total_residues(),
    );
    for set in [a, b] {
        for seq in set.iter() {
            out.push_codes(String::new(), seq.codes.to_vec())
                .expect("a valid set holds no empty sequences");
        }
    }
    out.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parallel_pairs, GeneralizedSuffixArray, SuffixTree};
    use pfam_seq::SequenceSetBuilder;
    use std::collections::HashSet;

    fn set_of(seqs: &[&str]) -> SequenceSet {
        let mut b = SequenceSetBuilder::new();
        for (i, s) in seqs.iter().enumerate() {
            b.push_letters(format!("s{i}"), s.as_bytes()).unwrap();
        }
        b.finish()
    }

    fn lens_of(set: &SequenceSet) -> Vec<u32> {
        (0..set.len()).map(|i| set.seq_len(SeqId(i as u32)) as u32).collect()
    }

    fn monolithic(set: &SequenceSet, config: MaximalMatchConfig) -> HashSet<MatchPair> {
        let gsa = GeneralizedSuffixArray::build(set);
        let tree = SuffixTree::build(&gsa);
        parallel_pairs(&tree, config, 1).0.into_iter().collect()
    }

    fn partitioned(
        set: &SequenceSet,
        config: MaximalMatchConfig,
        target_chunk_bytes: u64,
    ) -> (HashSet<MatchPair>, ChunkPlan) {
        let plan = ChunkPlan::plan(&lens_of(set), target_chunk_bytes);
        let loader = |r: Range<u32>| {
            let keep: Vec<SeqId> = r.map(SeqId).collect();
            set.subset(&keep).0
        };
        let miner = PartitionedMiner::new(plan.clone(), loader, config, 1);
        (miner.collect::<Vec<_>>().into_iter().collect(), plan)
    }

    const TEST_SEQS: &[&str] = &[
        "AAMKVLWAAKNDAA",
        "CCMKVLWAAKNDCC", // long shared word with s0
        "DDMKVLWDD",      // shorter shared word with s0/s1
        "EFGHIKLMNPQRST",
        "WYEFGHIKLMNPWY", // shared word with s3
        "MKVLWAAKND",     // whole-sequence match region
        "GGGGGGAAMKVLW",  // repeat-adjacent
    ];

    #[test]
    fn plan_single_covers_everything() {
        let plan = ChunkPlan::plan(&[10, 20, 30], 0);
        assert_eq!(plan.n_chunks(), 1);
        assert_eq!(plan.chunk_range(0), 0..3);
        assert_eq!(plan.max_task_index_bytes(), estimated_index_bytes(60, 3));
    }

    #[test]
    fn plan_respects_target_and_covers_all_ids() {
        let lens = vec![50u32; 20];
        // Budget for roughly 5 sequences per chunk.
        let target = estimated_index_bytes(5 * 50, 5);
        let plan = ChunkPlan::plan(&lens, target);
        assert!(plan.n_chunks() >= 4, "plan: {plan:?}");
        assert_eq!(plan.n_seqs(), 20);
        for c in 0..plan.n_chunks() {
            assert!(plan.chunk_index_bytes(c) <= target, "chunk {c} over target");
        }
    }

    #[test]
    fn plan_clamps_oversized_sequences_to_their_own_chunk() {
        // Target smaller than any single sequence: one chunk per sequence,
        // never a failure.
        let plan = ChunkPlan::plan(&[100, 200, 300], 1);
        assert_eq!(plan.n_chunks(), 3);
        for c in 0..3 {
            assert_eq!(plan.chunk_len(c), 1);
        }
    }

    #[test]
    fn plan_empty_space() {
        let plan = ChunkPlan::plan(&[], 1024);
        assert_eq!(plan.n_chunks(), 0);
        assert_eq!(plan.n_seqs(), 0);
        assert!(plan.tasks().is_empty());
        assert_eq!(plan.max_task_index_bytes(), 0);
    }

    #[test]
    fn tasks_enumerate_all_unordered_chunk_pairs() {
        let plan = ChunkPlan::plan(&[10, 10, 10], 1);
        assert_eq!(plan.tasks(), vec![(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]);
    }

    #[test]
    fn one_chunk_matches_monolithic_exactly_in_order() {
        let set = set_of(TEST_SEQS);
        let config = MaximalMatchConfig { min_len: 5, ..Default::default() };
        let gsa = GeneralizedSuffixArray::build(&set);
        let tree = SuffixTree::build(&gsa);
        let (mono_ordered, _) = parallel_pairs(&tree, config, 1);
        let plan = ChunkPlan::single(&lens_of(&set));
        let loader = |r: Range<u32>| {
            let keep: Vec<SeqId> = r.map(SeqId).collect();
            set.subset(&keep).0
        };
        let part_ordered: Vec<_> = PartitionedMiner::new(plan, loader, config, 1).collect();
        assert_eq!(part_ordered, mono_ordered, "single chunk is the monolithic mine");
    }

    #[test]
    fn partitioned_equals_monolithic_across_chunk_sizes() {
        let set = set_of(TEST_SEQS);
        let config = MaximalMatchConfig { min_len: 5, ..Default::default() };
        let mono = monolithic(&set, config);
        assert!(!mono.is_empty());
        // Sweep: per-sequence chunks, small chunks, a boundary in the
        // middle of the repeat cluster, one chunk.
        for target in [1u64, 400, 700, 1200, u64::MAX] {
            let (part, plan) = partitioned(&set, config, target);
            assert_eq!(part, mono, "target={target} plan={plan:?}");
        }
    }

    #[test]
    fn chunk_boundary_straddling_a_repeat_is_exact() {
        // The shared word sits in sequences 0, 1, 5 — force plans where
        // every boundary falls between them.
        let set = set_of(TEST_SEQS);
        let config = MaximalMatchConfig { min_len: 5, ..Default::default() };
        let mono = monolithic(&set, config);
        let n = set.len() as u32;
        for split in 1..n {
            // Hand-built two-chunk plan split at `split`.
            let lens = lens_of(&set);
            let residues: Vec<u64> = vec![
                lens[..split as usize].iter().map(|&l| l as u64).sum(),
                lens[split as usize..].iter().map(|&l| l as u64).sum(),
            ];
            let plan = ChunkPlan { starts: vec![0, split, n], residues };
            let loader = |r: Range<u32>| {
                let keep: Vec<SeqId> = r.map(SeqId).collect();
                set.subset(&keep).0
            };
            let part: HashSet<MatchPair> = PartitionedMiner::new(plan, loader, config, 1).collect();
            assert_eq!(part, mono, "split={split}");
        }
    }

    #[test]
    fn single_sequence_set_yields_nothing() {
        let set = set_of(&["MKVLWMKVLW"]);
        let config = MaximalMatchConfig { min_len: 5, ..Default::default() };
        let (part, _) = partitioned(&set, config, 1);
        assert!(part.is_empty());
    }

    #[test]
    fn budget_enforced_at_construction() {
        let set = set_of(TEST_SEQS);
        let config = MaximalMatchConfig { min_len: 5, ..Default::default() };
        let plan = ChunkPlan::plan(&lens_of(&set), 500);
        let need = plan.max_task_index_bytes();
        let loader = |r: Range<u32>| {
            let keep: Vec<SeqId> = r.map(SeqId).collect();
            set.subset(&keep).0
        };
        let tight = MemoryBudget::limited(need - 1);
        let err = PartitionedMiner::try_new(plan.clone(), loader, config, 1, &tight)
            .err()
            .expect("under-sized budget must refuse");
        assert_eq!(err.what, "partitioned-gsa");
        assert_eq!(err.requested, need);

        let loader2 = |r: Range<u32>| {
            let keep: Vec<SeqId> = r.map(SeqId).collect();
            set.subset(&keep).0
        };
        let roomy = MemoryBudget::limited(need);
        let miner = PartitionedMiner::try_new(plan, loader2, config, 1, &roomy)
            .expect("exact budget admits");
        assert_eq!(roomy.used(), need, "reservation held while mining");
        let mono = monolithic(&set, config);
        let part: HashSet<MatchPair> = miner.collect();
        assert_eq!(part, mono);
        assert_eq!(roomy.used(), 0, "reservation released when the miner drops");
    }

    #[test]
    fn stats_accumulate_over_tasks() {
        let set = set_of(TEST_SEQS);
        let config = MaximalMatchConfig { min_len: 5, ..Default::default() };
        let plan = ChunkPlan::plan(&lens_of(&set), 500);
        assert!(plan.n_chunks() > 1);
        let loader = |r: Range<u32>| {
            let keep: Vec<SeqId> = r.map(SeqId).collect();
            set.subset(&keep).0
        };
        let mut miner = PartitionedMiner::new(plan, loader, config, 1);
        let n = miner.by_ref().count();
        let stats = miner.stats();
        assert_eq!(stats.pairs_emitted, n);
        assert!(stats.nodes_visited > 0);
    }
}
