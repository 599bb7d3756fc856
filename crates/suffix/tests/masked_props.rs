//! Property tests for mining one index on behalf of a subset of its reads:
//! the masked stream over the full index must equal — pair for pair, in
//! order, anchors and statistics included — the stream of an index built
//! over the materialised subset, and a tree pruned for the shallower of
//! two cut-offs must serve the deeper one unchanged — from the full index
//! and from one cut at the mining cut-off.

use proptest::prelude::*;

use pfam_seq::{SeqId, SequenceSet, SequenceSetBuilder};
use pfam_suffix::maximal::GenerationStats;
use pfam_suffix::{
    mine_pairs, GeneralizedSuffixArray, KeepMask, MatchPair, MaximalMatchConfig, MineNodes,
    SuffixTree,
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

/// Reads of up to 20 three-letter motifs — long shared words, `X` runs
/// between them, words that end reads (so sentinel order decides ranks) —
/// plus an exact duplicate of the first read, two length-1 reads and, at
/// random, reads that open with a run of the smallest residue: suffixes
/// of the leading buckets.
fn mining_set(max_seqs: usize) -> impl Strategy<Value = SequenceSet> {
    let read = prop::collection::vec(0u8..6, 1..20).prop_map(|motifs| {
        motifs
            .into_iter()
            .flat_map(|m| match m {
                0 | 1 => [0u8, 1, 2],
                2 => [3, 4, 0],
                3 => [X, X, X],
                4 => [2, 2, 5],
                _ => [0, 0, 0],
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

type Stream = (Vec<(u32, u32, u32, u32, u32)>, GenerationStats);

/// The stream [`mine_pairs`] yields over the whole of `tree`.
fn mine(
    tree: &SuffixTree<'_>,
    config: MaximalMatchConfig,
    threads: usize,
    keep: Option<&KeepMask>,
) -> Stream {
    let (pairs, stats) = mine_pairs(tree, config, threads, MineNodes::Whole(keep));
    (with_anchors(&pairs), stats)
}

/// Keep-masks over `n` reads, from keep-all to keep-two: everything, all
/// but the last read, all but the first, a draw of about two thirds, and
/// two reads.
fn keep_masks(n: usize, draws: &[u32]) -> Vec<Vec<SeqId>> {
    let ids = |keep: &dyn Fn(usize) -> bool| -> Vec<SeqId> {
        (0..n).filter(|&i| keep(i)).map(|i| SeqId(i as u32)).collect()
    };
    let (a, b) = (draws[0] as usize % n, draws[1] as usize % n);
    let b = if a == b { (a + 1) % n } else { b };
    vec![
        ids(&|_| true),
        ids(&|i| i + 1 != n),
        ids(&|i| i != 0),
        ids(&|i| !draws[i % draws.len()].is_multiple_of(3) || i == a || i == b),
        ids(&|i| i == a || i == b),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn masked_mining_equals_mining_the_subset(
        set in mining_set(9),
        draws in prop::collection::vec(0u32..1000, 12..13),
    ) {
        // One index for every cut-off, as the pipeline holds it.
        let gsa = GeneralizedSuffixArray::build_parallel(&set, 2);
        let tree = SuffixTree::build_pruned(&gsa, 5);
        for keep in keep_masks(set.len(), &draws) {
            let mask = KeepMask::new(&gsa, &keep);
            let subset = set.subset(&keep).0;
            let sub_gsa = GeneralizedSuffixArray::build_parallel(&subset, 2);
            for psi in [5u32, 10, 15] {
                let sub_tree = SuffixTree::build_pruned(&sub_gsa, psi);
                // 2 binds on these corpora; the default never does.
                for (dedup, cap) in [(true, 100_000), (false, 100_000), (true, 2)] {
                    let config =
                        MaximalMatchConfig { min_len: psi, max_pairs_per_node: cap, dedup };
                    for threads in [1usize, 2, 3] {
                        let expect = mine(&sub_tree, config, threads, None);
                        let got = mine(&tree, config, threads, Some(&mask));
                        prop_assert_eq!(
                            got, expect,
                            "keep={:?} psi={} cap={} dedup={} threads={}",
                            keep, psi, cap, dedup, threads
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn masked_mining_of_a_cut_index_equals_mining_the_subset(
        set in mining_set(9),
        draws in prop::collection::vec(0u32..1000, 12..13),
    ) {
        for psi in [3u32, 5, 10, 12, 15] {
            for threads in [1usize, 2] {
                let cut = GeneralizedSuffixArray::build_cut(&set, threads, psi);
                let tree = SuffixTree::build_pruned(&cut, psi);
                for keep in keep_masks(set.len(), &draws) {
                    let subset = set.subset(&keep).0;
                    let sub_gsa = GeneralizedSuffixArray::build_parallel(&subset, threads);
                    let sub_tree = SuffixTree::build_pruned(&sub_gsa, psi);
                    let mask = KeepMask::new(&cut, &keep);
                    for dedup in [true, false] {
                        let config = MaximalMatchConfig { min_len: psi, dedup, ..Default::default() };
                        prop_assert_eq!(
                            mine(&tree, config, threads, Some(&mask)),
                            mine(&sub_tree, config, threads, None),
                            "keep={:?} psi={} dedup={} threads={}", keep, psi, dedup, threads
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn a_tree_pruned_for_ccd_serves_rr(set in mining_set(9)) {
        let gsa = GeneralizedSuffixArray::build_parallel(&set, 2);
        let (shallow, deep) = (SuffixTree::build_pruned(&gsa, 10), SuffixTree::build_pruned(&gsa, 15));
        let config = MaximalMatchConfig { min_len: 15, ..Default::default() };
        for threads in [1usize, 2, 3] {
            prop_assert_eq!(
                mine(&shallow, config, threads, None),
                mine(&deep, config, threads, None)
            );
        }
    }
}

#[test]
fn a_mask_that_empties_the_whole_buckets_is_read_from_the_text() {
    // A A C and A A D open the first buckets of three residues that hold
    // two suffixes: the cut index keeps reads 0 and 1's whole, and drops
    // reads 2 and 3's (they share only three residues). Two pairs of
    // reads share fourteen residues each, the first pair's words ranking
    // before the second's.
    let reads: [&[u8]; 8] = [
        &[0, 0, 1, 5],
        &[0, 0, 1, 6],
        &[0, 0, 2, 17],
        &[0, 0, 2, 18],
        &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13],
        &[9, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13],
        &[9, 8, 7, 6, 5, 4, 3, 2, 1, 19, 18, 17, 16, 15],
        &[9, 8, 7, 6, 5, 4, 3, 2, 1, 19, 18, 17, 16, 15, 14],
    ];
    let set = build_set(reads.iter().map(|r| r.to_vec()).collect());
    for psi in [3u32, 4, 10, 14] {
        for threads in [1usize, 2] {
            let cut = GeneralizedSuffixArray::build_cut(&set, threads, psi);
            let tree = SuffixTree::build_pruned(&cut, psi);
            // Without reads 0 and 1 the kept reads' first descent is A A D's,
            // three deep, which the cut index no longer holds unless ψ is 3;
            // without reads 0–3 it is the first word's, fourteen deep.
            for keep in [&[2, 3, 4, 5, 6, 7][..], &[4, 5, 6, 7], &[0, 2, 4, 5, 6, 7]] {
                let keep: Vec<SeqId> = keep.iter().map(|&i| SeqId(i)).collect();
                let sub_gsa = GeneralizedSuffixArray::build_cut(&set.subset(&keep).0, threads, 0);
                let mask = KeepMask::new(&cut, &keep);
                let config = MaximalMatchConfig { min_len: psi, ..Default::default() };
                let want = mine(&SuffixTree::build_pruned(&sub_gsa, psi), config, threads, None);
                let got = mine(&tree, config, threads, Some(&mask));
                assert_eq!(got, want, "keep {keep:?} psi {psi} threads {threads}");
            }
        }
    }
}
