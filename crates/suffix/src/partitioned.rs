//! The budgeted miner: one resident text whose suffixes are sorted, treed
//! and mined window by window — the out-of-core half of the
//! promising-pair generator.
//!
//! The monolithic [`crate::GeneralizedSuffixArray`] is budgeted at its
//! full size, ~7 bytes per text position (≈ 7.3 while it is built). Under
//! a memory budget that does not admit it, a phase holds only the text
//! resident: one byte per position, the sampled read ids and the start
//! table ([`estimated_text_bytes`], ≈ 1.06 bytes per position), loaded a
//! chunk of reads at a time ([`ChunkPlan::under_budget`]) through the
//! caller's loader, so the reads are never copied whole. The bucket sort's count
//! pass runs once over that text, its per-chunk histograms kept for the
//! phase, and its 2¹⁵ buckets are cut into contiguous *windows* whose
//! estimated peak — 6 bytes of sort arrays per suffix, and 8 for the tree
//! and stream mined from them ([`crate::parallel::estimated_window_bytes`])
//! — fits what the budget has left ([`window_cap`]). Each window is
//! scattered and sorted on its own at the cut-off ψ, keeping only the
//! suffixes a node of depth ≥ ψ can hold (so the estimate is an upper
//! bound), then treed at ψ and mined; one window's arrays are resident at
//! a time.
//! This is the suffix-space split of PaCE's distributed construction
//! (prefix buckets, as [`crate::distributed`] assigns them to ranks), run
//! one bucket range after another.
//!
//! ## Why the windowed stream is the monolithic stream
//!
//! A window's arrays are the slice of the monolithic arrays cut at ψ
//! ([`crate::GeneralizedSuffixArray::build_cut`]): its kept suffixes, each
//! LCP against the kept suffix before it. Windows are cut only
//! where the leading `min(ψ, 3)` symbols of the bucket ids change, so
//! every node of depth ≥ ψ lies in one window with the same ranks
//! (shifted), children and depth, and every node a window's tree holds is
//! one of the monolithic tree's: node for node, the windows hold the
//! monolithic tree pruned at ψ, and each node mines the same candidates.
//!
//! The monolithic miner visits its nodes deepest first, ties by id; ids
//! follow the order the LCP scan closes the intervals, except that the
//! first interval the scan closes carries the last id
//! ([`crate::SuffixTree::build_pruned`]). The scan closes one window's
//! nodes before the next window's, so each window is mined in its own
//! closing order, and that one interval — in whichever window the scan
//! first descends — is mined as a stream of its own. Every stream is
//! deduplicated as it is mined; the streams are then merged by match
//! length, windows in order and that interval's stream last, and
//! deduplicated again. A pair's first sighting in the merged order is its
//! first sighting in its own stream, so the two levels of dedup keep what
//! one pass over the monolithic order keeps: the result is
//! [`crate::mine_pairs`] over the monolithic index, pair for pair and in
//! order, anchors and [`GenerationStats`] included. The budget therefore
//! changes no output, and a checkpoint cursor is a position in one stream
//! under any budget.
//!
//! ## Ties
//!
//! A window that holds every bucket is the monolithic sort, with its tie
//! budget and its SA-IS fallback. A smaller window resolves its key ties
//! without a limit: SA-IS over the whole text would hold its own arrays
//! for every position — several times the budget the window was cut to
//! fit. Memory stays within the window; the cost is time, quadratic in
//! the length of an exact repeat the window holds many copies of.

use std::ops::Range;

use pfam_seq::{BudgetError, MemoryBudget, Reservation, SequenceSet};

use crate::gsa::{estimated_index_bytes, estimated_text_bytes, GeneralizedSuffixArray};
use crate::maximal::{GenerationStats, MatchPair, MaximalMatchConfig, PairKeySet};
use crate::parallel::{
    bucket_at, estimated_table_bytes, first_rank_lcp, mine_pairs, plan_windows, resolve_threads,
    sort_window, whole_text_tie_limit, BucketTable, MineNodes,
};
use crate::tree::{NodeId, SuffixTree};

/// A partition of the read id space `0..n` into contiguous chunks — the
/// granularity at which a [`PartitionedMiner`] loads its text — planned so
/// each chunk's estimated monolithic index stays under a target.
///
/// Chunks hold whole reads and at least one read each, so a read larger
/// than the target *clamps* rather than fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkPlan {
    /// Chunk boundaries: chunk `c` covers ids `starts[c]..starts[c+1]`.
    starts: Vec<u32>,
    /// Total residues per chunk.
    residues: Vec<u64>,
}

impl ChunkPlan {
    /// Greedily pack reads (by their lengths, in id order) into chunks
    /// whose estimated index bytes stay ≤ `target_chunk_bytes`. A target
    /// of `0` means one chunk.
    pub fn plan(lens: &[u32], target_chunk_bytes: u64) -> ChunkPlan {
        if target_chunk_bytes == 0 {
            return ChunkPlan::single(lens);
        }
        let mut starts = vec![0u32];
        let mut residues = Vec::new();
        let (mut acc_res, mut acc_n) = (0u64, 0u64);
        for (i, &len) in lens.iter().enumerate() {
            let next_res = acc_res + len as u64;
            let next_n = acc_n + 1;
            if acc_n > 0
                && estimated_index_bytes(next_res as usize, next_n as usize) > target_chunk_bytes
            {
                starts.push(i as u32);
                residues.push(acc_res);
                (acc_res, acc_n) = (len as u64, 1);
            } else {
                (acc_res, acc_n) = (next_res, next_n);
            }
        }
        if acc_n > 0 {
            residues.push(acc_res);
            starts.push(lens.len() as u32);
        }
        ChunkPlan { starts, residues }
    }

    /// How a windowed mine of reads of lengths `lens` loads its text under
    /// `budget`: chunks whose estimated index is at most the window cap or
    /// the text itself, whichever is smaller, so the reads are never copied
    /// whole beside the text.
    pub fn under_budget(lens: &[u32], budget: &MemoryBudget) -> ChunkPlan {
        let residues = lens.iter().map(|&l| l as usize).sum();
        let text = estimated_text_bytes(residues, lens.len());
        ChunkPlan::plan(lens, window_cap(budget, text).min(text).max(1))
    }

    /// The one-chunk plan covering all of `lens`.
    fn single(lens: &[u32]) -> ChunkPlan {
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

    /// Number of reads covered.
    pub fn n_seqs(&self) -> u32 {
        *self.starts.last().expect("starts is never empty")
    }

    /// The id range of chunk `c`.
    pub fn chunk_range(&self, c: usize) -> Range<u32> {
        self.starts[c]..self.starts[c + 1]
    }

    /// Residues over every chunk.
    fn n_residues(&self) -> usize {
        self.residues.iter().sum::<u64>() as usize
    }
}

/// Bytes the windows of a text may take under `budget` once `resident`
/// bytes are held: the text ([`estimated_text_bytes`]), and, once it is
/// counted, its bucket table ([`estimated_table_bytes`]). The one place
/// the window cap is derived.
fn window_cap(budget: &MemoryBudget, resident: u64) -> u64 {
    budget.remaining().saturating_sub(resident)
}

/// The windowed maximal-match miner over the reads a [`ChunkPlan`] covers
/// — their stream is the monolithic miner's, pair for pair (see the
/// module docs) — as an iterator of pairs, or whole ([`mine`](Self::mine)).
///
/// The loader maps a global id range to an in-memory [`SequenceSet`] (ids
/// renumbered from 0): `SeqStore::load_range` composed with any
/// per-sequence transform.
pub struct PartitionedMiner {
    /// The text and its windows, until mined.
    text: Option<WindowedText>,
    /// How many windows the text was cut into.
    n_windows: usize,
    /// The mined stream, once mined.
    pairs: std::vec::IntoIter<MatchPair>,
}

/// A phase's reads as one text, their suffixes not yet sorted.
struct WindowedText {
    /// The text, sampled ids and start table; each window's arrays are
    /// lent to it in turn.
    index: GeneralizedSuffixArray,
    /// The text's bucket table, unless the text is empty.
    table: Option<BucketTable>,
    /// Bucket ranges, in order, each with its estimated sort peak.
    windows: Vec<(Range<usize>, u64)>,
    config: MaximalMatchConfig,
    threads: usize,
    /// The budget held for the text, its bucket table and the largest
    /// window, each if it fit.
    _held: [Option<Reservation>; 3],
}

impl PartitionedMiner {
    /// Load the reads of `plan` into one text, count its buckets and cut
    /// them into windows under what `budget` has left, reserving the text
    /// (`gsa-text`), its bucket table's histograms (`gsa-tables`) and the
    /// largest window (`gsa-window`) for as long as the miner holds them.
    /// `Err` — before any read is loaded, when the text and table alone are
    /// over — when the text, its table and the smallest window the text can
    /// be cut into do not fit together: the budget's floor for these reads.
    /// Mining itself is infallible.
    pub fn try_new<F: FnMut(Range<u32>) -> SequenceSet>(
        plan: ChunkPlan,
        loader: F,
        config: MaximalMatchConfig,
        threads: usize,
        budget: &MemoryBudget,
    ) -> Result<Self, BudgetError> {
        Self::open(plan, loader, config, threads, budget, true)
    }

    /// [`try_new`](Self::try_new) that runs over the budget rather than
    /// refuse: what fits is reserved, and a window cut past the cap (it
    /// could not be cut smaller) or a text over it runs unreserved.
    pub fn new<F: FnMut(Range<u32>) -> SequenceSet>(
        plan: ChunkPlan,
        loader: F,
        config: MaximalMatchConfig,
        threads: usize,
        budget: &MemoryBudget,
    ) -> Self {
        Self::open(plan, loader, config, threads, budget, false)
            .expect("only a strict open refuses")
    }

    fn open<F: FnMut(Range<u32>) -> SequenceSet>(
        plan: ChunkPlan,
        mut loader: F,
        config: MaximalMatchConfig,
        threads: usize,
        budget: &MemoryBudget,
        strict: bool,
    ) -> Result<Self, BudgetError> {
        let threads = resolve_threads(threads);
        let (n_residues, n_seqs) = (plan.n_residues(), plan.n_seqs() as usize);
        let text_bytes = estimated_text_bytes(n_residues, n_seqs);
        let table_bytes = estimated_table_bytes(n_residues + n_seqs, threads);
        let cap = window_cap(budget, text_bytes + table_bytes);
        let hold = |what, bytes| match budget.try_reserve(what, bytes) {
            Ok(reservation) => Ok(Some(reservation)),
            Err(e) if strict => Err(e),
            Err(_) => Ok(None),
        };
        let text_held = hold("gsa-text", text_bytes)?;
        let table_held = hold("gsa-tables", table_bytes)?;
        let mut index = GeneralizedSuffixArray::with_capacity(n_residues, n_seqs);
        for c in 0..plan.n_chunks() {
            index.push_reads(&loader(plan.chunk_range(c)));
        }
        let (table, windows) = if n_seqs == 0 {
            (None, Vec::new())
        } else {
            let table = BucketTable::count(index.text(), threads);
            let windows = plan_windows(&table.starts, config.min_len, cap, threads);
            (Some(table), windows)
        };
        let window_held =
            hold("gsa-window", windows.iter().map(|&(_, bytes)| bytes).max().unwrap_or(0))?;
        let n_windows = windows.len();
        let _held = [text_held, table_held, window_held];
        let text = WindowedText { index, table, windows, config, threads, _held };
        Ok(PartitionedMiner { text: Some(text), n_windows, pairs: Vec::new().into_iter() })
    }

    /// How many windows the text was cut into (0 for no reads).
    pub fn n_windows(&self) -> usize {
        self.n_windows
    }

    /// The whole stream and its generation statistics, the text and its
    /// reservations released before the windows' streams are merged. A
    /// miner is mined whole or iterated, not both.
    pub fn mine(self) -> (Vec<MatchPair>, GenerationStats) {
        self.text.expect("the miner has not been iterated").mine()
    }
}

impl Iterator for PartitionedMiner {
    type Item = MatchPair;

    fn next(&mut self) -> Option<MatchPair> {
        if let Some(text) = self.text.take() {
            self.pairs = text.mine().0.into_iter();
        }
        self.pairs.next()
    }
}

impl WindowedText {
    fn mine(self) -> (Vec<MatchPair>, GenerationStats) {
        let WindowedText { mut index, table, windows, config, threads, _held } = self;
        let Some(table) = table else { return Default::default() };
        let psi = config.min_len;
        // Only a window that is the whole text may hand it to SA-IS.
        let tie_limit =
            if windows.len() == 1 { whole_text_tie_limit(index.text_len()) } else { usize::MAX };
        let mut streams = Vec::with_capacity(windows.len() + 1);
        // The first interval the LCP scan closes, if it is deep enough to
        // be mined: its stream goes after every window's.
        let mut first_closed = None;
        let mut descended = false;
        // The bucket of the last suffix kept before the window.
        let mut before = None;
        for (w, (buckets, _)) in windows.iter().enumerate() {
            let text = index.text();
            match sort_window(text, &table, buckets.clone(), before, psi, tie_limit, threads).0 {
                Some(arrays) => {
                    before = arrays.0.last().map(|&pos| bucket_at(text, pos as usize)).or(before);
                    index.set_arrays(arrays, psi);
                }
                None => index.set_arrays(index.sais_arrays(), 0),
            }
            let trail =
                windows.get(w + 1).map_or(0, |(next, _)| first_rank_lcp(&table.starts, next.start));
            let (tree, descent) = SuffixTree::build_window(&index, psi, trail);
            let mut queue: Vec<NodeId> = tree
                .nodes_by_depth_desc()
                .into_iter()
                .take_while(|&node| tree.depth(node) >= psi)
                .collect();
            if let Some(depth) = descent.filter(|_| !descended) {
                descended = true;
                if depth >= psi {
                    // Node 1: the first interval this window closes.
                    queue.retain(|&node| node != 1);
                    first_closed = Some(mine_pairs(&tree, config, threads, MineNodes::Slice(&[1])));
                }
            }
            streams.push(mine_pairs(&tree, config, threads, MineNodes::Slice(&queue)));
            // One window's arrays at a time: free these before the next sort.
            drop(tree);
            index.set_arrays(Default::default(), 0);
        }
        drop((index, table, _held));
        streams.extend(first_closed);
        merge_streams(streams, config.dedup)
    }
}

/// Merge streams — each deepest match first, each deduplicated on its
/// own — into one, deepest match first, the streams in the order given at
/// equal lengths, deduplicated across them; statistics summed.
fn merge_streams(
    mut streams: Vec<(Vec<MatchPair>, GenerationStats)>,
    dedup: bool,
) -> (Vec<MatchPair>, GenerationStats) {
    if streams.len() == 1 {
        return streams.pop().expect("one stream");
    }
    let mut stats = GenerationStats::default();
    for (_, s) in &streams {
        stats.nodes_visited += s.nodes_visited;
        stats.pairs_capped += s.pairs_capped;
        stats.pairs_deduped += s.pairs_deduped;
    }
    let total: usize = streams.iter().map(|(pairs, _)| pairs.len()).sum();
    let mut heads: Vec<_> =
        streams.into_iter().map(|(pairs, _)| pairs.into_iter().peekable()).collect();
    let mut seen = PairKeySet::default();
    let mut out = Vec::with_capacity(total);
    while let Some(len) = heads.iter_mut().filter_map(|h| h.peek().map(|p| p.len)).max() {
        for head in &mut heads {
            while let Some(pair) = head.next_if(|p| p.len == len) {
                if !dedup || seen.insert(pair.key()) {
                    out.push(pair);
                }
            }
        }
    }
    stats.pairs_deduped += total - out.len();
    stats.pairs_emitted = out.len();
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::{bucket_sort_index, parallel_pairs};
    use crate::SuffixTree;
    use pfam_seq::{SeqId, SequenceSetBuilder};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    fn loader(set: &SequenceSet) -> impl FnMut(Range<u32>) -> SequenceSet + '_ {
        |r: Range<u32>| {
            let keep: Vec<SeqId> = r.map(SeqId).collect();
            set.subset(&keep).0
        }
    }

    /// Anchors included: `MatchPair` equality ignores them.
    fn anchored(pairs: &[MatchPair]) -> Vec<(u32, u32, u32, u32, u32)> {
        pairs.iter().map(|p| (p.a.0, p.b.0, p.len, p.a_pos, p.b_pos)).collect()
    }

    fn text_bytes(set: &SequenceSet) -> u64 {
        estimated_text_bytes(set.total_residues(), set.len())
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
        assert_eq!(plan.n_residues(), 60);
    }

    #[test]
    fn plan_respects_target_and_covers_all_ids() {
        let lens = vec![50u32; 20];
        let target = estimated_index_bytes(5 * 50, 5);
        let plan = ChunkPlan::plan(&lens, target);
        assert_eq!(plan.n_chunks(), 4, "plan: {plan:?}");
        assert_eq!(plan.n_seqs(), 20);
        assert_eq!(plan.n_residues(), 1000);
    }

    #[test]
    fn plan_clamps_oversized_sequences_to_their_own_chunk() {
        let plan = ChunkPlan::plan(&[100, 200, 300], 1);
        assert_eq!(plan.n_chunks(), 3);
        assert_eq!((0..3).map(|c| plan.chunk_range(c)).collect::<Vec<_>>(), [0..1, 1..2, 2..3]);
    }

    #[test]
    fn plan_empty_space() {
        let plan = ChunkPlan::plan(&[], 1024);
        assert_eq!((plan.n_chunks(), plan.n_seqs()), (0, 0));
    }

    #[test]
    fn windows_concatenate_to_the_monolithic_arrays() {
        let set = set_of(TEST_SEQS);
        let whole = GeneralizedSuffixArray::build(&set);
        let text = whole.text();
        let table = BucketTable::count(text, 2);
        let starts = &table.starts;
        for psi in [1, 2, 3, 5, 10] {
            let cut = GeneralizedSuffixArray::build_cut(&set, 2, psi);
            assert_eq!(cut.sa().len() == whole.sa().len(), psi < 3, "psi {psi}");
            for cap in [0, 200, u64::MAX] {
                let windows = plan_windows(starts, psi, cap, 2);
                let (mut sa, mut lcp) = (Vec::new(), Vec::new());
                let mut before = None;
                for (w, (buckets, _)) in windows.iter().enumerate() {
                    let (wsa, wlcp) =
                        sort_window(text, &table, buckets.clone(), before, psi, usize::MAX, 2)
                            .0
                            .expect("no tie limit");
                    assert!(
                        !wsa.is_empty() || psi >= 3,
                        "psi {psi} cap {cap}: window {w} is empty"
                    );
                    if let Some((next, _)) = windows.get(w + 1) {
                        assert!(first_rank_lcp(starts, next.start) < psi.clamp(1, 3));
                    }
                    before = wsa.last().map(|&pos| bucket_at(text, pos as usize)).or(before);
                    lcp.extend((0..wsa.len()).map(|r| wlcp.get(r)));
                    sa.extend(wsa);
                }
                assert_eq!(sa, cut.sa(), "psi {psi} cap {cap}");
                assert_eq!(lcp, (0..sa.len()).map(|r| cut.lcp_at(r)).collect::<Vec<_>>());
                if cap == u64::MAX {
                    assert_eq!(windows.len(), 1);
                    assert_eq!(
                        bucket_sort_index(text, 2).map(|(sa, _)| sa),
                        Some(whole.sa().to_vec())
                    );
                }
            }
        }
    }

    #[test]
    fn the_windowed_stream_is_the_monolithic_stream() {
        let set = set_of(TEST_SEQS);
        let gsa = GeneralizedSuffixArray::build(&set);
        for psi in [1, 2, 3, 5, 10, 12, 15] {
            for dedup in [true, false] {
                let config = MaximalMatchConfig { min_len: psi, dedup, ..Default::default() };
                let (want, want_stats) =
                    parallel_pairs(&SuffixTree::build_pruned(&gsa, psi), config, 1);
                for (cap, threads) in [(1, 1), (300, 2), (u64::MAX, 1)] {
                    let budget = MemoryBudget::limited(text_bytes(&set).saturating_add(cap));
                    let miner = PartitionedMiner::new(
                        ChunkPlan::plan(&lens_of(&set), 300),
                        loader(&set),
                        config,
                        threads,
                        &budget,
                    );
                    let windows = miner.n_windows();
                    assert!(cap > 1 || windows >= 3, "psi {psi}: {windows} windows");
                    let (got, stats) = miner.mine();
                    let what = format!("psi {psi} dedup {dedup} cap {cap}: {windows} windows");
                    assert_eq!(anchored(&got), anchored(&want), "{what}");
                    assert_eq!(stats, want_stats, "{what}");
                    assert_eq!(budget.used(), 0, "{what}: released once mined");
                }
            }
        }
    }

    #[test]
    fn single_and_empty_sets_yield_nothing() {
        let config = MaximalMatchConfig { min_len: 5, ..Default::default() };
        for set in [set_of(&["MKVLWMKVLW"]), SequenceSet::default()] {
            let plan = ChunkPlan::plan(&lens_of(&set), 1);
            let miner =
                PartitionedMiner::new(plan, loader(&set), config, 1, &MemoryBudget::limited(1));
            assert_eq!(miner.n_windows() == 0, set.is_empty());
            assert_eq!(miner.collect::<Vec<_>>(), []);
        }
    }

    #[test]
    fn budget_enforced_at_construction() {
        // A text of one chunk, which keeps no histogram, and one of two
        // chunks, which keeps one for the whole phase.
        let mut rng = StdRng::seed_from_u64(3);
        let long: Vec<String> = (0..9_000)
            .map(|_| {
                (0..60).map(|_| b"ACDEFGHIKLMNPQRSTVWY"[rng.gen_range(0..20)] as char).collect()
            })
            .collect();
        let long: Vec<&str> = long.iter().map(String::as_str).collect();
        for (set, threads) in [(set_of(TEST_SEQS), 1), (set_of(&long), 2)] {
            let config = MaximalMatchConfig { min_len: 5, ..Default::default() };
            let text = text_bytes(&set);
            let tables = estimated_table_bytes(set.total_residues() + set.len(), threads);
            assert_eq!(tables > 0, threads > 1, "{} positions", set.total_residues() + set.len());
            let plan = || ChunkPlan::plan(&lens_of(&set), 500);
            let open = |limit| {
                PartitionedMiner::try_new(
                    plan(),
                    loader(&set),
                    config,
                    threads,
                    &MemoryBudget::limited(limit),
                )
            };
            let err = open(text - 1).err().expect("no room for the text");
            assert_eq!((err.what, err.requested), ("gsa-text", text));
            if tables > 0 {
                let err = open(text).err().expect("no room for the histograms");
                assert_eq!((err.what, err.requested), ("gsa-tables", tables));
            }
            // With the text and table held and nothing left, every window
            // is as small as the buckets allow: the error names the largest
            // of them.
            let err = open(text + tables).err().expect("no room for a window");
            assert_eq!(err.what, "gsa-window");
            let floor = text + tables + err.requested;
            assert!(open(floor - 1).is_err(), "the floor is exact");

            let budget = MemoryBudget::limited(floor);
            let miner = PartitionedMiner::try_new(plan(), loader(&set), config, threads, &budget)
                .expect("the floor admits");
            assert!(miner.n_windows() > 1);
            assert_eq!(budget.used(), floor, "text, table and window held while mining");
            let mono =
                parallel_pairs(&SuffixTree::build(&GeneralizedSuffixArray::build(&set)), config, 1);
            assert_eq!(miner.collect::<Vec<_>>(), mono.0);
            assert_eq!(budget.used(), 0, "released when mined");
        }
    }
}
