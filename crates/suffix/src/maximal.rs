//! Promising-pair generation: maximal-match pairs in decreasing match
//! length.
//!
//! A *maximal match* between sequences `sᵢ` and `sⱼ` is an exact match that
//! can be extended neither left nor right. On the generalized suffix tree,
//! every maximal match of length `d` corresponds to a pair of leaves under
//! different children of a depth-`d` internal node (right-maximality) whose
//! preceding residues differ or hit a sequence start (left-maximality).
//!
//! Mining visits internal nodes in decreasing depth order — exactly the
//! PaCE "longest match first" discipline the paper relies on so that
//! cluster-merging pairs are discovered early — emitting (sequence,
//! sequence, length) tuples. A per-node cap bounds the output on
//! low-complexity repeats, and an optional global dedup keeps only the
//! first (longest) report of each pair. This module holds the node-local
//! half — what one node emits, and which nodes a miner visits in what
//! order; [`crate::parallel::mine_pairs`] walks the nodes.

use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

use pfam_seq::SeqId;

use crate::gsa::GeneralizedSuffixArray;
use crate::parallel::{leading_suffixes, whole_ranks};
use crate::tree::{NodeId, SuffixTree};

/// Hasher for packed [`MatchPair::key`] values: a single 64-bit
/// multiply-xor mix (the `splitmix64` finalizer) instead of SipHash —
/// the dedup set sits on the pair-generation hot path and its keys are
/// already well-distributed sequence-id pairs, so a keyed hash buys
/// nothing here.
#[derive(Clone, Copy, Default)]
pub(crate) struct PairKeyHasher(u64);

impl Hasher for PairKeyHasher {
    #[inline]
    fn write_u64(&mut self, x: u64) {
        let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.0 = z ^ (z >> 31);
    }

    fn write(&mut self, bytes: &[u8]) {
        // Fallback for non-u64 keys (unused by the dedup set).
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Dedup set keyed by [`MatchPair::key`].
pub(crate) type PairKeySet = HashSet<u64, BuildHasherDefault<PairKeyHasher>>;

/// A promising pair: two distinct sequences sharing a maximal match.
///
/// Besides the pair identity, the record carries the *anchor* — the start
/// offsets of the maximal-match occurrence in each sequence — so downstream
/// alignment can seed a banded/x-drop probe instead of rediscovering the
/// matching region. Equality and hashing deliberately ignore the anchor:
/// a pair is the same pair regardless of which occurrence produced it.
#[derive(Debug, Clone, Copy)]
pub struct MatchPair {
    /// Smaller sequence id.
    pub a: SeqId,
    /// Larger sequence id.
    pub b: SeqId,
    /// Length of the maximal match that produced the pair.
    pub len: u32,
    /// Start offset of the match occurrence within sequence `a`.
    pub a_pos: u32,
    /// Start offset of the match occurrence within sequence `b`.
    pub b_pos: u32,
}

impl PartialEq for MatchPair {
    fn eq(&self, other: &Self) -> bool {
        self.a == other.a && self.b == other.b && self.len == other.len
    }
}

impl Eq for MatchPair {}

impl std::hash::Hash for MatchPair {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.a.hash(state);
        self.b.hash(state);
        self.len.hash(state);
    }
}

impl MatchPair {
    /// Canonicalise so that `a < b` (anchor offsets default to 0).
    pub fn new(x: SeqId, y: SeqId, len: u32) -> MatchPair {
        Self::with_anchor(x, y, len, 0, 0)
    }

    /// Canonicalise so that `a < b`, swapping the anchor offsets in tandem.
    pub fn with_anchor(x: SeqId, y: SeqId, len: u32, x_pos: u32, y_pos: u32) -> MatchPair {
        if x.0 <= y.0 {
            MatchPair { a: x, b: y, len, a_pos: x_pos, b_pos: y_pos }
        } else {
            MatchPair { a: y, b: x, len, a_pos: y_pos, b_pos: x_pos }
        }
    }

    /// The pair as a packed key for hashing.
    #[inline]
    pub fn key(&self) -> u64 {
        ((self.a.0 as u64) << 32) | self.b.0 as u64
    }
}

/// Configuration of a miner.
#[derive(Debug, Clone, Copy)]
pub struct MaximalMatchConfig {
    /// Minimum maximal-match length ψ (paper default ≈ 10 for CCD; derived
    /// from the similarity cutoff for RR, e.g. 33 for 98 % over 100).
    pub min_len: u32,
    /// Cap on pairs emitted per tree node, bounding low-complexity blowups.
    pub max_pairs_per_node: usize,
    /// Emit each sequence pair only once, at its longest match.
    pub dedup: bool,
}

impl Default for MaximalMatchConfig {
    fn default() -> Self {
        MaximalMatchConfig { min_len: 10, max_pairs_per_node: 100_000, dedup: true }
    }
}

/// Counters describing a completed generation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GenerationStats {
    /// Tree nodes of depth ≥ ψ visited.
    pub nodes_visited: usize,
    /// Pairs emitted (after filters and dedup).
    pub pairs_emitted: usize,
    /// Pairs suppressed by the dedup filter.
    pub pairs_deduped: usize,
    /// Candidate pairs dropped by the per-node cap. The cap counts raw
    /// candidates *before* dedup, so each node's output depends only on
    /// the node itself — the property that lets nodes be processed on
    /// any thread with the same output at every thread count.
    pub pairs_capped: usize,
}

/// The reads of an index a miner keeps, renumbered densely — what lets one
/// index over a whole input serve a phase that sees only a subset of it.
///
/// Mining a tree through a mask yields, pair for pair and in order, the
/// stream of an index built over the kept reads alone, statistics
/// included. A maximal match is a property of two residue strings, and
/// deleting other reads leaves the kept suffixes in their relative rank
/// order, under the same child groups; masked-out suffixes are dropped
/// before anything else sees them, so the per-node cap and the saturation
/// break count what that index would count. The two places a smaller
/// index orders things by *its own* shape — its last read's sentinel and
/// the first interval it closes — are re-enacted here and in
/// [`mining_queue`].
#[derive(Debug, Clone)]
pub struct KeepMask {
    /// Dense id of every indexed read; [`KeepMask::DROPPED`] if not kept.
    dense: Vec<u32>,
    /// Rank runs `(first, last)` to rotate right by one, ascending and
    /// disjoint. An index gives its last read the *smallest* sentinel
    /// (see [`crate::gsa`]). When the last kept read is not this index's
    /// last read, each of its suffixes ranks after the suffixes equal to
    /// it up to the sentinel here — `last` after `first..last` — and
    /// before them in an index of the kept reads alone.
    moved: Vec<(u32, u32)>,
}

impl KeepMask {
    const DROPPED: u32 = u32::MAX;

    /// Keep the reads `keep` of `gsa` — strictly ascending ids — as dense
    /// ids `0..keep.len()`. Of an index cut at a mining cut-off, the
    /// suffixes it does not hold lie under no node the miner visits, and
    /// are skipped.
    pub fn new(gsa: &GeneralizedSuffixArray, keep: &[SeqId]) -> KeepMask {
        assert!(keep.windows(2).all(|w| w[0] < w[1]), "kept ids must be strictly ascending");
        let mut dense = vec![Self::DROPPED; gsa.n_seqs() as usize];
        for (i, id) in keep.iter().enumerate() {
            dense[id.index()] = i as u32;
        }
        let mut moved = Vec::new();
        if let Some(last) = keep.last().filter(|id| id.0 + 1 != gsa.n_seqs()) {
            let residues = gsa.seq_span(*last);
            let sentinel = residues.end;
            for pos in residues {
                let Some(rank) = gsa.rank_of(pos) else { continue };
                let len = (sentinel - pos) as u32;
                let mut first = rank;
                while gsa.lcp_at(first) >= len {
                    first -= 1;
                }
                if first < rank {
                    moved.push((first as u32, rank as u32));
                }
            }
            moved.sort_unstable();
        }
        KeepMask { dense, moved }
    }

    /// Dense id of `seq`, or `None` when the read is masked out.
    #[inline]
    fn dense_id(&self, seq: SeqId) -> Option<SeqId> {
        let d = self.dense[seq.index()];
        (d != Self::DROPPED).then_some(SeqId(d))
    }

    /// The runs to rotate among the ranks `l..r` of one node. Suffixes
    /// equal up to a sentinel lie under the same nodes, so a run is inside
    /// the range or disjoint from it.
    fn moved_within(&self, (l, r): (u32, u32)) -> &[(u32, u32)] {
        let lo = self.moved.partition_point(|&(first, _)| first < l);
        let hi = self.moved.partition_point(|&(first, _)| first < r);
        &self.moved[lo..hi]
    }
}

/// Enumerate the maximal-match candidate pairs of one tree node, appending
/// them to `out` in generation order (no dedup — that is a stream-level
/// concern applied by the caller in node order). Returns the number of
/// candidates dropped by `max_pairs_per_node`, and whether the node
/// branches at all: under a mask, a node whose kept suffixes share one
/// child group is no node of the kept reads' index and must not count as
/// visited.
///
/// This function is deliberately free of miner state: a node's output
/// depends on the node alone, which is what lets
/// [`crate::parallel::mine_pairs`] mine any chunk of nodes on any thread.
pub(crate) fn collect_node_pairs(
    tree: &SuffixTree<'_>,
    node: NodeId,
    max_pairs_per_node: usize,
    keep: Option<&KeepMask>,
    out: &mut Vec<MatchPair>,
) -> (usize, bool) {
    let groups = tree.child_groups(node);
    // Every rank of the node with the index of its child group.
    let ranks =
        groups.iter().enumerate().flat_map(|(g, &(gl, gr))| (gl..gr).map(move |rank| (rank, g)));
    let range = tree.range(node);
    match keep.map_or(&[][..], |keep| keep.moved_within(range)) {
        [] => scan_node(tree, node, max_pairs_per_node, keep, ranks, out),
        moved => {
            // A run stays inside one group, or spans singleton groups:
            // either way groups remain contiguous in the rotated order.
            let mut ranks: Vec<(u32, usize)> = ranks.collect();
            for &(first, last) in moved {
                ranks[(first - range.0) as usize..=(last - range.0) as usize].rotate_right(1);
            }
            scan_node(tree, node, max_pairs_per_node, keep, ranks.into_iter(), out)
        }
    }
}

/// [`collect_node_pairs`] over the node's `(rank, child group)` sequence.
fn scan_node(
    tree: &SuffixTree<'_>,
    node: NodeId,
    max_pairs_per_node: usize,
    keep: Option<&KeepMask>,
    ranks: impl Iterator<Item = (u32, usize)>,
    out: &mut Vec<MatchPair>,
) -> (usize, bool) {
    let gsa = tree.gsa();
    let sa = gsa.sa();
    let depth = tree.depth(node);

    // Entries seen so far: (sequence, left residue or None, occurrence
    // offset within the sequence — the alignment anchor). Those of earlier
    // groups are `prev[..group_start]`.
    let mut prev: Vec<(SeqId, Option<u8>, u32)> = Vec::new();
    let mut group_start = 0usize;
    let mut group = usize::MAX;
    let mut groups_here = 0usize;
    let mut candidates_here = 0usize;
    let mut capped = 0usize;
    for (rank, g) in ranks {
        if g != group {
            if candidates_here >= max_pairs_per_node && capped > 0 && prev.len() > 4096 {
                // Node is saturated and very large: stop scanning it.
                break;
            }
            groups_here += usize::from(prev.len() > group_start);
            group = g;
            group_start = prev.len();
        }
        let pos = sa[rank as usize] as usize;
        let (seq, off) = gsa.locate(pos);
        let seq = match keep {
            None => seq,
            Some(keep) => match keep.dense_id(seq) {
                Some(seq) => seq,
                None => continue,
            },
        };
        let left = gsa.left_residue(pos);
        // Pair with all entries from previous groups.
        for &(pseq, pleft, poff) in &prev[..group_start] {
            if pseq == seq {
                continue; // self-match within one sequence
            }
            // Left-maximality: preceding residues differ, or either
            // occurrence starts its sequence.
            let left_maximal = match (pleft, left) {
                (Some(x), Some(y)) => x != y,
                _ => true,
            };
            if !left_maximal {
                continue;
            }
            if candidates_here >= max_pairs_per_node {
                capped += 1;
                continue;
            }
            candidates_here += 1;
            out.push(MatchPair::with_anchor(pseq, seq, depth, poff, off));
        }
        prev.push((seq, left, off));
    }
    groups_here += usize::from(prev.len() > group_start);
    (capped, groups_here >= 2)
}

/// The first interval an LCP scan closes, fed suffixes in suffix order.
#[derive(Default)]
struct FirstDescent {
    /// Position and LCP with the suffix before it of the last suffix fed.
    prev: Option<(u32, u32)>,
}

impl FirstDescent {
    /// Feed the next suffix and its LCP with the one fed before it: the
    /// depth of the interval that closes and the position of its last
    /// suffix, if the LCP descends here.
    fn push(&mut self, pos: u32, lcp: u32) -> Option<(u32, u32)> {
        let lcp = if self.prev.is_some() { lcp } else { 0 };
        if let Some((prev_pos, prev_lcp)) = self.prev.filter(|&(_, prev_lcp)| lcp < prev_lcp) {
            return Some((prev_lcp, prev_pos));
        }
        self.prev = Some((pos, lcp));
        None
    }

    /// The interval the end of the suffixes closes, if none closed before.
    fn end(self) -> Option<(u32, u32)> {
        self.prev.filter(|&(_, lcp)| lcp > 0).map(|(pos, lcp)| (lcp, pos))
    }
}

/// The first interval the lcp scan of an index over the kept reads alone
/// would close: its depth, and the text position of its last suffix.
/// `None` when the kept suffixes share no prefix at all.
///
/// Read off the ranks of `tree`'s index that hold every suffix. When the
/// kept reads' scan runs past them — a cut index whose leading buckets
/// the mask empties — their leading suffixes are sorted from the text.
fn first_closed_kept(tree: &SuffixTree<'_>, keep: &KeepMask) -> Option<(u32, u32)> {
    let gsa = tree.gsa();
    let whole = whole_ranks(gsa);
    let mut scan = FirstDescent::default();
    // Smallest lcp value since the last kept suffix: the lcp of the next.
    let mut gap_lcp = u32::MAX;
    for (rank, &pos) in gsa.sa()[..whole].iter().enumerate() {
        gap_lcp = gap_lcp.min(gsa.lcp_at(rank));
        if keep.dense_id(gsa.seq_at(pos as usize)).is_none() {
            continue;
        }
        if let Some(closed) = scan.push(pos, gap_lcp) {
            return Some(closed);
        }
        gap_lcp = u32::MAX;
    }
    if whole == gsa.sa().len() {
        return scan.end();
    }
    let reads: Vec<_> = (0..gsa.n_seqs())
        .map(SeqId)
        .filter(|&id| keep.dense_id(id).is_some())
        .map(|id| {
            let residues = gsa.seq_span(id);
            residues.start..residues.end + 1
        })
        .collect();
    let mut scan = FirstDescent::default();
    for (pos, lcp) in leading_suffixes(gsa.text(), &reads) {
        if let Some(closed) = scan.push(pos, lcp) {
            return Some(closed);
        }
    }
    scan.end()
}

/// The nodes a miner at cut-off `min_len` visits, deepest first.
///
/// Equal depths fall to the tree's node numbering, which puts the first
/// interval its lcp scan closed last ([`SuffixTree::build_pruned`]). An
/// index over the kept reads alone closes *its* first interval — in
/// general another node of this tree — and every other node it shares
/// with this one closes in the same relative order, so under a mask that
/// node is moved to the end of its depth class.
pub(crate) fn mining_queue(
    tree: &SuffixTree<'_>,
    min_len: u32,
    keep: Option<&KeepMask>,
) -> Vec<NodeId> {
    let mut queue: Vec<NodeId> =
        tree.nodes_by_depth_desc().into_iter().take_while(|&n| tree.depth(n) >= min_len).collect();
    let first_closed = keep.and_then(|keep| first_closed_kept(tree, keep));
    if let Some((depth, pos)) = first_closed.filter(|&(depth, _)| depth >= min_len) {
        // It shares `depth` ≥ ψ symbols with another suffix: held.
        let rank = tree.gsa().rank_of(pos as usize).expect("a suffix under a mined node") as u32;
        let class_start = queue.partition_point(|&n| tree.depth(n) > depth);
        let class_end = queue.partition_point(|&n| tree.depth(n) >= depth);
        let holds_rank = |&n: &NodeId| {
            let (l, r) = tree.range(n);
            (l..r).contains(&rank)
        };
        let at = queue[class_start..class_end]
            .iter()
            .position(holds_rank)
            .expect("kept suffixes sharing a prefix lie under a node of that depth");
        queue[class_start + at..class_end].rotate_left(1);
    }
    queue
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gsa::GeneralizedSuffixArray;
    use crate::parallel::parallel_pairs;
    use pfam_seq::{SequenceSet, SequenceSetBuilder};

    fn set_of(seqs: &[&str]) -> SequenceSet {
        let mut b = SequenceSetBuilder::new();
        for (i, s) in seqs.iter().enumerate() {
            b.push_letters(format!("s{i}"), s.as_bytes()).unwrap();
        }
        b.finish()
    }

    fn pairs_of(seqs: &[&str], min_len: u32) -> (Vec<MatchPair>, GenerationStats) {
        let set = set_of(seqs);
        let gsa = GeneralizedSuffixArray::build(&set);
        let tree = SuffixTree::build(&gsa);
        parallel_pairs(&tree, MaximalMatchConfig { min_len, ..Default::default() }, 1)
    }

    #[test]
    fn shared_word_produces_pair() {
        let (pairs, _) = pairs_of(&["AAAMKVLWAAA", "CCCMKVLWCCC"], 5);
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0], MatchPair::new(SeqId(0), SeqId(1), 5));
    }

    #[test]
    fn no_pair_below_min_len() {
        let (pairs, _) = pairs_of(&["AAAMKVAAA", "CCCMKVCCC"], 5);
        assert!(pairs.is_empty(), "3-residue match must not pass ψ=5: {pairs:?}");
    }

    #[test]
    fn pairs_arrive_in_decreasing_length() {
        let (pairs, _) = pairs_of(
            &[
                "MKVLWAAKND", // shares length-10 with s1
                "MKVLWAAKND", //
                "GGMKVLWGG",  // shares length-5 "MKVLW" with s0/s1
            ],
            5,
        );
        for w in pairs.windows(2) {
            assert!(w[0].len >= w[1].len, "out of order: {pairs:?}");
        }
        assert_eq!(pairs[0], MatchPair::new(SeqId(0), SeqId(1), 10));
        assert!(pairs.iter().any(|p| p.b == SeqId(2) && p.len == 5));
    }

    #[test]
    fn dedup_keeps_longest_occurrence() {
        // s0 and s1 share both a length-8 match and a separate length-5
        // match; with dedup only the length-8 pair survives.
        let (pairs, stats) = pairs_of(&["MKVLWAAKXXXXDEFGH", "MKVLWAAKYYYYDEFGH"], 5);
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].len, 8);
        assert!(stats.pairs_deduped >= 1);
    }

    #[test]
    fn without_dedup_all_matches_reported() {
        let set = set_of(&["MKVLWAAKXXXXDEFGH", "MKVLWAAKYYYYDEFGH"]);
        let gsa = GeneralizedSuffixArray::build(&set);
        let tree = SuffixTree::build(&gsa);
        let config = MaximalMatchConfig { min_len: 5, dedup: false, ..Default::default() };
        let (pairs, _) = parallel_pairs(&tree, config, 1);
        let lens: Vec<u32> = pairs.iter().map(|p| p.len).collect();
        assert!(lens.contains(&8), "length-8 match: {lens:?}");
        assert!(lens.contains(&5), "length-5 match: {lens:?}");
    }

    #[test]
    fn left_maximality_filters_extendable_matches() {
        // "XMKVLW" in both sequences with the same left residue X: the
        // 5-length suffix match "MKVLW" is left-extendable, so the only
        // maximal match is the full 6-length "XMKVLW"... represented here
        // with A as the shared left residue.
        let (pairs, _) = pairs_of(&["GAMKVLW", "TAMKVLW"], 5);
        // The match "AMKVLW" (length 6) is maximal (left G vs T differ).
        // The inner "MKVLW" has identical left residue A on both sides and
        // must NOT be emitted as a separate pair... with dedup on we see a
        // single pair of length 6.
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].len, 6);
    }

    #[test]
    fn left_maximality_allows_sequence_start() {
        // Match at the very start of s0: no left residue, always maximal.
        let (pairs, _) = pairs_of(&["MKVLW", "AAMKVLW"], 5);
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].len, 5);
    }

    #[test]
    fn self_matches_never_emitted() {
        // A sequence repeating its own word must not pair with itself.
        let (pairs, _) = pairs_of(&["MKVLWMKVLW"], 5);
        assert!(pairs.is_empty());
    }

    #[test]
    fn three_way_sharing_yields_all_pairs() {
        let (pairs, _) = pairs_of(&["AAMKVLWAA", "CCMKVLWCC", "DDMKVLWDD"], 5);
        let mut seen: Vec<(u32, u32)> = pairs.iter().map(|p| (p.a.0, p.b.0)).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![(0, 1), (0, 2), (1, 2)]);
        assert!(pairs.iter().all(|p| p.len == 5), "shared core is MKVLW: {pairs:?}");
    }

    #[test]
    fn per_node_cap_limits_output() {
        let flanks = b"ARNDCQEGHI";
        let seqs: Vec<String> = (0..20)
            .map(|i| {
                let l = flanks[i % flanks.len()] as char;
                let r = flanks[(i + 1) % flanks.len()] as char;
                format!("{l}MKVLWAAKND{r}")
            })
            .collect();
        let refs: Vec<&str> = seqs.iter().map(|s| s.as_str()).collect();
        let set = set_of(&refs);
        let gsa = GeneralizedSuffixArray::build(&set);
        let tree = SuffixTree::build(&gsa);
        let config = MaximalMatchConfig { min_len: 5, max_pairs_per_node: 10, dedup: false };
        let (_, stats) = parallel_pairs(&tree, config, 1);
        assert!(stats.pairs_capped > 0, "cap should trigger: {stats:?}");
    }

    #[test]
    fn stats_track_counts() {
        let (pairs, stats) = pairs_of(&["AAMKVLWAA", "CCMKVLWCC"], 5);
        assert_eq!(stats.pairs_emitted, pairs.len());
        assert!(stats.nodes_visited >= 1);
    }

    #[test]
    fn identical_sequences_pair_once_at_full_length() {
        let (pairs, _) = pairs_of(&["MKVLWAAKND", "MKVLWAAKND"], 5);
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].len, 10);
    }
}
