//! Property tests pinning the parallel hot path to the serial reference:
//! for every input and every thread count, `build_parallel` must equal
//! `build` (SA-IS + Kasai) bit for bit, parallel pair generation must
//! replay the serial generator's stream exactly, and a tree pruned at ψ
//! must mine what the full tree mines, in the same order.

use proptest::prelude::*;

use pfam_seq::{SequenceSet, SequenceSetBuilder};
use pfam_suffix::maximal::all_pairs;
use pfam_suffix::{
    bucket_sort_index, parallel_pairs, promising_pairs, GeneralizedSuffixArray, MatchPair,
    MaximalMatchConfig, SuffixTree,
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

fn assert_same_index(
    serial: &GeneralizedSuffixArray,
    par: &GeneralizedSuffixArray,
) -> Result<(), String> {
    prop_assert_eq!(par.text(), serial.text());
    prop_assert_eq!(par.sa(), serial.sa());
    prop_assert_eq!(par.lcp(), serial.lcp());
    prop_assert_eq!(par.alphabet_size(), serial.alphabet_size());
    for pos in 0..serial.text_len() {
        prop_assert_eq!(par.seq_at(pos), serial.seq_at(pos));
        prop_assert_eq!(par.offset_at(pos), serial.offset_at(pos));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn build_parallel_is_bit_identical(set in seq_set(6, 25)) {
        let serial = GeneralizedSuffixArray::build(&set);
        for threads in [1usize, 2, 3, 8] {
            let par = GeneralizedSuffixArray::build_parallel(&set, threads);
            assert_same_index(&serial, &par)?;
        }
    }

    #[test]
    fn build_parallel_handles_x_heavy_inputs(set in x_heavy_set(5, 20)) {
        let serial = GeneralizedSuffixArray::build(&set);
        for threads in [1usize, 2, 3, 8] {
            let par = GeneralizedSuffixArray::build_parallel(&set, threads);
            assert_same_index(&serial, &par)?;
        }
    }

    #[test]
    fn build_parallel_handles_identical_sequences(set in identical_set(8, 20)) {
        let serial = GeneralizedSuffixArray::build(&set);
        for threads in [1usize, 2, 3, 8] {
            let par = GeneralizedSuffixArray::build_parallel(&set, threads);
            assert_same_index(&serial, &par)?;
        }
    }

    #[test]
    fn parallel_pairgen_replays_serial_stream(set in seq_set(6, 25)) {
        let gsa = GeneralizedSuffixArray::build(&set);
        let tree = pfam_suffix::SuffixTree::build(&gsa);
        for min_len in [2u32, 4] {
            for dedup in [true, false] {
                let config = MaximalMatchConfig { min_len, dedup, ..Default::default() };
                let serial = all_pairs(&tree, config);
                for threads in [2usize, 3, 8] {
                    let (par, stats) = parallel_pairs(&tree, config, threads);
                    // Exact sequence equality — same pairs, same order.
                    prop_assert_eq!(&par, &serial);
                    prop_assert_eq!(stats.pairs_emitted, serial.len());
                }
                // Decreasing match length (the PaCE discipline).
                for w in serial.windows(2) {
                    prop_assert!(w[0].len >= w[1].len);
                }
            }
        }
    }

    #[test]
    fn pair_source_is_mode_transparent(set in identical_set(6, 15)) {
        let gsa = GeneralizedSuffixArray::build(&set);
        let tree = pfam_suffix::SuffixTree::build(&gsa);
        let config = MaximalMatchConfig { min_len: 2, ..Default::default() };
        let serial: Vec<_> = promising_pairs(&tree, config, 1).collect();
        let parallel: Vec<_> = promising_pairs(&tree, config, 4).collect();
        prop_assert_eq!(parallel, serial);
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
                let expect = with_anchors(&all_pairs(&full, config));
                prop_assert_eq!(with_anchors(&all_pairs(&pruned, config)), expect.clone());
                for threads in [2usize, 3] {
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

/// `build_parallel` against the oracle at every thread count, and whether
/// the bucket sort handed the text back to SA-IS.
fn check_against_oracle(set: &SequenceSet, expect_fallback: bool) {
    let oracle = GeneralizedSuffixArray::build(set);
    for threads in [1usize, 2, 3, 8] {
        let index = GeneralizedSuffixArray::build_parallel(set, threads);
        assert_eq!(index.text(), oracle.text(), "threads={threads}");
        assert_eq!(index.sa(), oracle.sa(), "threads={threads}");
        assert_eq!(index.lcp(), oracle.lcp(), "threads={threads}");
    }
    let sorted = bucket_sort_index(oracle.text(), oracle.n_seqs(), 2);
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
