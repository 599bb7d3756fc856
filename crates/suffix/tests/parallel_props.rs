//! Property tests pinning the parallel hot path to the serial reference:
//! for every input and every thread count, `build_parallel` and the full
//! index `build_cut` sorts at no cut-off must equal SA-IS + Kasai over
//! `encoded_text()` bit for bit, pair mining
//! on k threads must replay the one-thread stream exactly, and a tree
//! pruned at ψ must mine what the full tree mines, in the same order. The corpora after that are what the narrow index types can get
//! wrong: matches longer than a `u16` LCP holds, more reads than sixteen
//! bits count, `X`s between equal flanks. Last, an index cut at a mining
//! cut-off ψ must tree, at ψ, node for node what the full index trees,
//! and mine the same stream whole and window by window.

use proptest::prelude::*;

use pfam_seq::{MemoryBudget, SeqId, SequenceSet, SequenceSetBuilder};
use pfam_suffix::lcp::lcp_array;
use pfam_suffix::maximal::GenerationStats;
use pfam_suffix::{
    bucket_sort_index, estimated_text_bytes, mine_pairs, parallel_pairs, suffix_array, ChunkPlan,
    GeneralizedSuffixArray, MatchPair, MaximalMatchConfig, MineNodes, PartitionedMiner, SuffixTree,
};

/// The ambiguity residue.
const X: u8 = 20;

fn build_set(seqs: Vec<Vec<u8>>) -> SequenceSet {
    let mut b = SequenceSetBuilder::new();
    for (i, s) in seqs.into_iter().enumerate() {
        b.push_codes(format!("s{i}"), s).expect("non-empty by construction");
    }
    b.finish()
}

/// Arbitrary small sets over a narrow residue range (many repeats, deep
/// tree — the adversarial regime for suffix sorting).
fn seq_set(max_seqs: usize, max_len: usize) -> impl Strategy<Value = SequenceSet> {
    prop::collection::vec(prop::collection::vec(0u8..6, 1..max_len), 1..max_seqs)
        .prop_map(build_set)
}

/// X-heavy sets: codes 15..21 include the ambiguity residue `X` (20) with
/// probability ~1/6 per position, exercising the unique-character encoding
/// and keys that end in an `X` terminator.
fn x_heavy_set(max_seqs: usize, max_len: usize) -> impl Strategy<Value = SequenceSet> {
    prop::collection::vec(prop::collection::vec(15u8..21, 1..max_len), 1..max_seqs)
        .prop_map(build_set)
}

/// Sets of identical copies of one sequence — maximal suffix-order tie
/// pressure and maximal pair density.
fn identical_set(max_copies: usize, max_len: usize) -> impl Strategy<Value = SequenceSet> {
    (prop::collection::vec(0u8..4, 1..max_len), 2..max_copies)
        .prop_map(|(template, copies)| build_set(vec![template; copies]))
}

/// The LCP array of `index`, read through `lcp_at`.
fn lcp_of(index: &GeneralizedSuffixArray) -> Vec<u32> {
    (0..index.sa().len()).map(|rank| index.lcp_at(rank)).collect()
}

/// `index` against the oracle spelt out: SA-IS and Kasai over
/// `encoded_text()`, and the owning read and offset of every position
/// (sentinels included) counted off `set`.
fn check_index(set: &SequenceSet, index: &GeneralizedSuffixArray) -> Result<(), String> {
    let text = index.encoded_text();
    let sa = suffix_array(&text, index.alphabet_size());
    if index.sa() != sa.as_slice() {
        return Err("suffix array differs from SA-IS".into());
    }
    if lcp_of(index) != lcp_array(&text, &sa) {
        return Err("LCP array differs from Kasai".into());
    }
    let mut pos = 0;
    for seq in set.iter() {
        for offset in 0..=seq.codes.len() as u32 {
            if index.locate(pos) != (seq.id, offset) || index.seq_at(pos) != seq.id {
                return Err(format!("position {pos} is not ({}, {offset})", seq.id));
            }
            pos += 1;
        }
    }
    if pos != index.text_len() {
        return Err(format!("text holds {} positions, the set {pos}", index.text_len()));
    }
    Ok(())
}

/// `build_parallel` at every thread count, and `build_cut` at no cut-off,
/// against the oracle.
fn check_full_builds(set: &SequenceSet) -> Result<(), String> {
    for threads in [1usize, 2, 3, 8] {
        check_index(set, &GeneralizedSuffixArray::build_parallel(set, threads))
            .map_err(|e| format!("build_parallel at {threads} threads: {e}"))?;
    }
    check_index(set, &GeneralizedSuffixArray::build_cut(set, 2, 0))
        .map_err(|e| format!("build_cut at 0: {e}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn build_parallel_is_bit_identical(set in seq_set(6, 25)) {
        check_full_builds(&set)?;
    }

    #[test]
    fn build_parallel_handles_x_heavy_inputs(set in x_heavy_set(5, 20)) {
        check_full_builds(&set)?;
    }

    #[test]
    fn build_parallel_handles_identical_sequences(set in identical_set(8, 20)) {
        check_full_builds(&set)?;
    }

    #[test]
    fn parallel_pairgen_replays_serial_stream(
        random in seq_set(6, 25),
        identical in identical_set(6, 15),
    ) {
        for set in [random, identical] {
            let gsa = GeneralizedSuffixArray::build_cut(&set, 1, 0);
            let tree = pfam_suffix::SuffixTree::build(&gsa);
            for min_len in [2u32, 4] {
                for dedup in [true, false] {
                    let config = MaximalMatchConfig { min_len, dedup, ..Default::default() };
                    let (one, one_stats) = parallel_pairs(&tree, config, 1);
                    for threads in [2usize, 3, 8] {
                        let (many, stats) = parallel_pairs(&tree, config, threads);
                        // Exact sequence equality — same pairs, same order.
                        prop_assert_eq!(with_anchors(&many), with_anchors(&one));
                        prop_assert_eq!(stats, one_stats);
                    }
                    prop_assert_eq!(one_stats.pairs_emitted, one.len());
                    // Decreasing match length (the PaCE discipline).
                    for w in one.windows(2) {
                        prop_assert!(w[0].len >= w[1].len);
                    }
                }
            }
        }
    }

    #[test]
    fn pruned_tree_mines_what_the_full_tree_mines(set in mining_set(8, 30)) {
        let gsa = GeneralizedSuffixArray::build_parallel(&set, 2);
        let full = SuffixTree::build(&gsa);
        // 40 is deeper than any match a 30-residue read can have.
        for psi in [1u32, 5, 10, 15, 40] {
            let pruned = SuffixTree::build_pruned(&gsa, psi);
            prop_assert!((1..pruned.n_nodes() as u32).all(|n| pruned.depth(n) >= psi));
            for dedup in [true, false] {
                let config = MaximalMatchConfig { min_len: psi, dedup, ..Default::default() };
                let expect = with_anchors(&parallel_pairs(&full, config, 1).0);
                for threads in [1usize, 2, 3] {
                    let (pairs, stats) = parallel_pairs(&pruned, config, threads);
                    prop_assert_eq!(with_anchors(&pairs), expect.clone());
                    prop_assert_eq!(stats, parallel_pairs(&full, config, threads).1);
                }
            }
        }
    }
}

/// Sets built to be mined: a few 3-letter motifs repeated into long shared
/// words, `X` runs between them, exact duplicate reads and length-1 reads.
fn mining_set(max_seqs: usize, max_len: usize) -> impl Strategy<Value = SequenceSet> {
    let read = prop::collection::vec(0u8..4, 1..max_len / 3).prop_map(|motifs| {
        motifs
            .into_iter()
            .flat_map(|m| match m {
                0 => [0u8, 1, 2],
                1 => [3, 4, 0],
                2 => [X, X, X],
                _ => [2, 2, 5],
            })
            .collect::<Vec<u8>>()
    });
    prop::collection::vec(read, 2..max_seqs).prop_map(|mut reads| {
        reads.push(reads[0].clone());
        reads.push(vec![0]);
        reads.push(vec![X]);
        build_set(reads)
    })
}

/// `MatchPair` equality ignores the anchor; the mined stream must not.
fn with_anchors(pairs: &[MatchPair]) -> Vec<(u32, u32, u32, u32, u32)> {
    pairs.iter().map(|p| (p.a.0, p.b.0, p.len, p.a_pos, p.b_pos)).collect()
}

/// `build_parallel` against the oracle at one thread and against that
/// index at every other thread count, and whether the bucket sort handed
/// the text back to SA-IS.
fn check_against_oracle(set: &SequenceSet, expect_fallback: bool) {
    let index = GeneralizedSuffixArray::build_parallel(set, 1);
    check_index(set, &index).expect("one thread builds SA-IS + Kasai");
    let index_lcp = lcp_of(&index);
    for threads in [2usize, 3, 8] {
        let other = GeneralizedSuffixArray::build_parallel(set, threads);
        assert_eq!(other.text(), index.text(), "threads={threads}");
        assert_eq!(other.sa(), index.sa(), "threads={threads}");
        assert_eq!(lcp_of(&other), index_lcp, "threads={threads}");
    }
    let sorted = bucket_sort_index(index.text(), 2);
    assert_eq!(sorted.is_none(), expect_fallback, "SA-IS fallback");
}

/// `n` deterministic reads of `len` residues without long repeats.
fn noise_reads(n: usize, len: usize) -> Vec<Vec<u8>> {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    (0..n)
        .map(|_| {
            (0..len)
                .map(|_| {
                    state =
                        state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    ((state >> 33) % 20) as u8
                })
                .collect()
        })
        .collect()
}

// The `repeat_corpus_*` tests are the inputs on which resolving key ties by
// comparison is quadratic; `scripts/tier1.sh` runs them under a timeout.

#[test]
fn repeat_corpus_two_homopolymers_among_noise() {
    let mut reads = noise_reads(50, 120);
    reads.insert(10, vec![7; 20_000]);
    reads.insert(40, vec![7; 20_000]);
    check_against_oracle(&build_set(reads), true);
}

#[test]
fn repeat_corpus_all_identical_sequences() {
    let read = noise_reads(1, 600).remove(0);
    check_against_oracle(&build_set(vec![read; 40]), true);
}

#[test]
fn repeat_corpus_one_long_tandem_repeat() {
    let read: Vec<u8> = [3u8, 11, 3, 5].iter().copied().cycle().take(100_000).collect();
    check_against_oracle(&build_set(vec![read]), true);
}

#[test]
fn more_sequences_than_sixteen_bits() {
    // Short reads, every fiftieth with an `X`: the key must not depend on
    // how many sentinels there are.
    let mut reads = noise_reads(66_000, 9);
    for read in reads.iter_mut().step_by(50) {
        read[4] = X;
    }
    check_against_oracle(&build_set(reads), false);
}

#[test]
fn repeat_corpus_match_longer_than_a_u16_lcp() {
    // Two identical reads of 70 000 residues among noise: LCP values up to
    // 70 000, stored past the `u16` array. Resolving their ties costs
    // 70 000² re-keyed symbols against a budget of 32 a position, so this
    // is the SA-IS hand-back; `parallel.rs` drives the bucket sort's own
    // overflow path on its two tied suffixes alone.
    let stream = noise_reads(1, 73_000).remove(0);
    let (long, noise) = stream.split_at(70_000);
    let mut reads: Vec<Vec<u8>> = noise.chunks(100).map(<[u8]>::to_vec).collect();
    let long = long.to_vec();
    reads.insert(7, long.clone());
    reads.insert(20, long);
    let set = build_set(reads);
    check_against_oracle(&set, true);

    let index = GeneralizedSuffixArray::build_parallel(&set, 2);
    let lcp = lcp_of(&index);
    assert_eq!(lcp.iter().max(), Some(&70_000));
    assert_eq!(lcp.iter().filter(|&&l| l >= u16::MAX as u32).count(), 70_000 - 65_535 + 1);

    // The tree and the miner read those values through `lcp_at`.
    let tree = SuffixTree::build_pruned(&index, 15);
    let deepest = (1..tree.n_nodes() as u32).map(|n| tree.depth(n)).max();
    assert_eq!(deepest, Some(70_000));
    let config = MaximalMatchConfig { min_len: 15, ..Default::default() };
    let pairs = with_anchors(&parallel_pairs(&tree, config, 1).0);
    assert_eq!(pairs, vec![(7, 20, 70_000, 0, 0)]);
    assert_eq!(with_anchors(&parallel_pairs(&tree, config, 2).0), pairs);
}

#[test]
fn equal_tails_of_more_reads_than_sixteen_bits() {
    // The `short_reads` shape — 70 000 reads of 20–40 residues — every
    // read ending in one of three tails: suffixes equal up to a sentinel,
    // by the tens of thousands, ordered by which sentinel it is. The last
    // read's is the smallest, the others follow read order.
    let tails: [&[u8]; 3] = [&[4, 9, 2, 7, 7, 1], &[4, 9, 2], &[13]];
    let mut reads = noise_reads(70_000, 34);
    for (i, read) in reads.iter_mut().enumerate() {
        read.truncate(14 + i * 7 % 20);
        read.extend_from_slice(tails[i % 3]);
    }
    let set = build_set(reads);
    check_against_oracle(&set, false);

    let index = GeneralizedSuffixArray::build_parallel(&set, 2);
    let tail = tails[0];
    let last = SeqId(set.len() as u32 - 1);
    // The suffixes that are exactly `tail` and then a sentinel.
    let ranks: Vec<usize> = (0..index.sa().len())
        .filter(|&r| {
            let pos = index.sa()[r] as usize;
            let (seq, offset) = index.locate(pos);
            offset as usize + tail.len() == set.seq_len(seq)
                && &set.codes(seq)[offset as usize..] == tail
        })
        .collect();
    assert!(ranks.len() > 20_000);
    assert!(ranks.windows(2).all(|w| w[0] + 1 == w[1]), "equal keys sort together");
    let owners: Vec<SeqId> = ranks.iter().map(|&r| index.seq_at(index.sa()[r] as usize)).collect();
    // 70 000 = 3 · 23 333 + 1: the last read ends in `tails[0]`.
    assert_eq!(owners[0], last, "the last read's sentinel is the smallest");
    assert!(owners[1..].windows(2).all(|w| w[0] < w[1]), "then read order");
    assert!(ranks[1..].iter().all(|&r| index.lcp_at(r) == tail.len() as u32));
}

#[test]
fn x_between_equal_flanks() {
    // Every read is FLANK X FLANK (some with a second X): suffixes equal
    // up to an `X` are ordered by where that `X` lies in the text, no
    // match runs through one, and a match that starts after one is
    // left-maximal whatever precedes the `X`.
    let flank: Vec<u8> = vec![10, 3, 17, 8, 0, 5, 12, 19, 1, 6, 14, 2];
    let mut reads = Vec::new();
    for i in 0..100 {
        let mut read = flank.clone();
        read.push(X);
        read.extend_from_slice(&flank);
        if i % 4 == 0 {
            read.push(X);
            read.push((i % 20) as u8);
        }
        reads.push(read);
    }
    let set = build_set(reads);
    check_against_oracle(&set, false);

    let index = GeneralizedSuffixArray::build_parallel(&set, 2);
    assert!(lcp_of(&index).iter().all(|&l| l as usize <= flank.len()), "X never matches");
    // Suffixes FLANK X …: one per read, in read (= text) order.
    let whole: Vec<u32> = (0..index.sa().len())
        .map(|r| index.sa()[r])
        .filter(|&pos| index.locate(pos as usize).1 == 0)
        .collect();
    assert_eq!(whole.len(), set.len());
    assert!(whole.windows(2).all(|w| w[0] < w[1]), "equal up to an X: text order");
    // The second flank follows an X: a boundary, not a left residue.
    let second = flank.len() + 1;
    assert_eq!(index.text()[second - 1], pfam_suffix::gsa::X_CLASS);
    assert_eq!(index.left_residue(second), None);
    assert_eq!(index.left_residue(second + 1), Some(flank[0]));
    assert_eq!(index.left_residue(0), None);

    // Mining: FLANK against FLANK, at most `flank.len()` long, whole and
    // from the index cut at 5.
    let config = MaximalMatchConfig { min_len: 5, ..Default::default() };
    let tree = SuffixTree::build_pruned(&index, 5);
    let (pairs, _) = parallel_pairs(&tree, config, 1);
    assert_eq!(pairs.len(), 100 * 99 / 2);
    assert!(pairs.iter().all(|p| p.len as usize == flank.len()));
    let cut = GeneralizedSuffixArray::build_cut(&set, 2, 5);
    let (expect, _) = parallel_pairs(&SuffixTree::build_pruned(&cut, 5), config, 1);
    assert_eq!(with_anchors(&pairs), with_anchors(&expect));
}

/// Reads to cut an index for: random reads, reads carrying a planted
/// motif (twice each, so the motif is a deep repeat), `X`-bearing reads,
/// reads shorter than ψ, and reads that open with a poly-residue run —
/// suffixes of the leading buckets, which a cut index keeps whole.
fn cut_corpus(max_seqs: usize) -> impl Strategy<Value = SequenceSet> {
    let motif = prop::collection::vec(0u8..20, 8..20);
    let read = (0u8..5, prop::collection::vec(0u8..20, 1..30), 0usize..40, 1usize..14);
    (motif, prop::collection::vec(read, 1..max_seqs)).prop_map(|(motif, reads)| {
        let mut out = Vec::new();
        for (kind, mut codes, at, run) in reads {
            match kind {
                0 => out.push(codes),
                1 => {
                    let at = at % (codes.len() + 1);
                    codes.splice(at..at, motif.iter().copied());
                    out.push(codes.clone());
                    out.push(codes);
                }
                2 => {
                    codes.extend_from_slice(&motif);
                    let at = at % codes.len();
                    codes[at] = X;
                    out.push(codes);
                }
                3 => out.push(codes[..1 + at % 4.min(codes.len())].to_vec()),
                _ => {
                    codes.splice(0..0, std::iter::repeat_n((at % 3) as u8, run));
                    out.push(codes);
                }
            }
        }
        out.push(motif);
        build_set(out)
    })
}

/// Every node of `tree`, by id: its depth, the text positions under it in
/// rank order (but the root's: every suffix the index holds), and its
/// children.
fn nodes_of(tree: &SuffixTree<'_>) -> Vec<(u32, Vec<u32>, Vec<u32>)> {
    (0..tree.n_nodes() as u32)
        .map(|node| {
            let (l, r) = if node == 0 { (0, 0) } else { tree.range(node) };
            let under = tree.gsa().sa()[l as usize..r as usize].to_vec();
            (tree.depth(node), under, tree.children(node).to_vec())
        })
        .collect()
}

/// The stream [`mine_pairs`] gives over the whole of `tree`, anchors and
/// statistics included.
fn stream(tree: &SuffixTree<'_>, config: MaximalMatchConfig, threads: usize) -> Stream {
    let (pairs, stats) = mine_pairs(tree, config, threads, MineNodes::Whole(None));
    (with_anchors(&pairs), stats)
}

type Stream = (Vec<(u32, u32, u32, u32, u32)>, GenerationStats);

/// The arrays of `full` cut at `psi`, spelt out: the ranks up to the end
/// of the first run that shares three residues (the leading buckets), and
/// every suffix that shares `min(psi, 12)` symbols with a neighbour, each
/// LCP the least between it and the kept suffix before it.
fn cut_by_hand(full: &GeneralizedSuffixArray, psi: u32) -> (Vec<u32>, Vec<u32>) {
    let lcp = lcp_of(full);
    let n = lcp.len();
    let depth = psi.min(12);
    let whole = match (1..n).find(|&r| lcp[r] >= 3) {
        Some(first) => (first + 1..n).find(|&r| lcp[r] < 3).unwrap_or(n),
        None => n,
    };
    let (mut sa, mut kept_lcp) = (Vec::new(), Vec::new());
    let mut gap = u32::MAX;
    for r in 0..n {
        gap = gap.min(lcp[r]);
        if r < whole || lcp[r] >= depth || lcp.get(r + 1).is_some_and(|&l| l >= depth) {
            kept_lcp.push(if sa.is_empty() { 0 } else { gap });
            sa.push(full.sa()[r]);
            gap = u32::MAX;
        }
    }
    (sa, kept_lcp)
}

/// `index`, cut at `psi`, against the full index of `set`: the arrays
/// [`cut_by_hand`], the tree pruned at `psi` node for node, and the mined
/// stream of the whole tree and of the windowed miner cut into at least
/// three windows.
fn check_cut(set: &SequenceSet, full: &GeneralizedSuffixArray, psi: u32, threads: usize) {
    let cut = GeneralizedSuffixArray::build_cut(set, threads, psi);
    let what = format!("psi {psi} threads {threads}");
    assert_eq!(cut.text(), full.text(), "{what}");
    assert_eq!((cut.sa().to_vec(), lcp_of(&cut)), cut_by_hand(full, psi), "{what}");
    let (want, got) = (SuffixTree::build_pruned(full, psi), SuffixTree::build_pruned(&cut, psi));
    assert_eq!(nodes_of(&got), nodes_of(&want), "{what}");
    let lens: Vec<u32> = (0..set.len()).map(|i| set.seq_len(SeqId(i as u32)) as u32).collect();
    for dedup in [true, false] {
        let config = MaximalMatchConfig { min_len: psi, dedup, ..Default::default() };
        let expect = stream(&want, config, threads);
        assert_eq!(stream(&got, config, threads), expect, "{what} dedup {dedup}");
        // Every window as small as the buckets allow.
        let budget = MemoryBudget::limited(estimated_text_bytes(set.total_residues(), set.len()));
        let loader = |r: std::ops::Range<u32>| set.subset(&r.map(SeqId).collect::<Vec<_>>()).0;
        let miner =
            PartitionedMiner::new(ChunkPlan::plan(&lens, 0), loader, config, threads, &budget);
        let (pairs, stats, held) = miner.mine();
        assert!(held.windows >= 3, "{what}: {} windows", held.windows);
        assert_eq!((with_anchors(&pairs), stats), expect, "{what} dedup {dedup}: windowed");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn a_cut_index_trees_and_mines_as_the_full_index(set in cut_corpus(12)) {
        let full = GeneralizedSuffixArray::build_parallel(&set, 1);
        for psi in [3u32, 5, 10, 12, 15] {
            for threads in [1usize, 2] {
                check_cut(&set, &full, psi, threads);
            }
        }
    }
}

/// Depth of the first interval the LCP scan of `index` closes: the LCP
/// value before the array's first descent.
fn first_closed_depth(index: &GeneralizedSuffixArray) -> u32 {
    let lcp = lcp_of(index);
    let at = (1..lcp.len()).find(|&r| lcp[r] < lcp[r - 1]).unwrap_or(lcp.len());
    lcp[at - 1]
}

#[test]
fn the_renumbered_interval_is_deeper_than_the_cut() {
    // Two copies of a read opening with the smallest residue, among noise:
    // after the sentinels, the LCP climbs to the read's length and the
    // first interval the scan closes is that deep — the one the tree
    // numbers last, as on `giant_component` (depth 12 ≥ ψ = 10).
    let read: Vec<u8> = vec![0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13];
    // Noise without that residue, so nothing ranks between the sentinels
    // and the copies.
    let mut reads = noise_reads(41, 60);
    reads.iter_mut().flatten().filter(|c| **c == 0).for_each(|c| *c = 19);
    reads.insert(3, read.clone());
    reads.insert(17, read);
    // A second interval of the same depth, so the renumbering orders ties.
    let twin = reads.pop().expect("one more read")[..14].to_vec();
    reads.push(twin.clone());
    reads.insert(9, twin);
    let set = build_set(reads);
    let full = GeneralizedSuffixArray::build_parallel(&set, 1);
    assert_eq!(first_closed_depth(&full), 14);
    for psi in [3u32, 5, 10, 12, 14, 15] {
        for threads in [1usize, 2] {
            check_cut(&set, &full, psi, threads);
        }
    }
}

#[test]
fn a_cut_index_of_sparse_reads_keeps_a_few_per_cent() {
    // Noise reads hardly share ten residues: what is left is the leading
    // buckets — the sentinels first — and the few chance repeats.
    let set = build_set(noise_reads(2_000, 100));
    let cut = GeneralizedSuffixArray::build_cut(&set, 2, 10);
    assert_eq!(cut.cutoff(), 10);
    // Thousands of buckets to group per sort job: the fingerprint table
    // wraps many times over.
    let full = GeneralizedSuffixArray::build_cut(&set, 1, 0);
    assert_eq!((cut.sa().to_vec(), lcp_of(&cut)), cut_by_hand(&full, 10));
    assert!(cut.sa().len() < cut.text_len() / 20, "{} of {}", cut.sa().len(), cut.text_len());
    // Below the bucket id's three symbols every suffix is kept.
    let uncut = GeneralizedSuffixArray::build_cut(&set, 2, 2);
    assert_eq!((uncut.cutoff(), uncut.sa()), (0, full.sa()));
}

#[test]
#[should_panic(expected = "trees no shallower")]
fn a_cut_index_refuses_a_shallower_tree() {
    let set = build_set(noise_reads(20, 30));
    let cut = GeneralizedSuffixArray::build_cut(&set, 1, 10);
    let _ = SuffixTree::build_pruned(&cut, 5);
}
