//! Independent implementations checked against each other: SA-IS vs
//! comparison sort, and the maximal-match miner vs a brute-force
//! definition.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pfam::seq::{SeqId, SequenceSet, SequenceSetBuilder};
use pfam::suffix::maximal::MatchPair;
use pfam::suffix::sais::{suffix_array, suffix_array_naive};
use pfam::suffix::{parallel_pairs, GeneralizedSuffixArray, MaximalMatchConfig, SuffixTree};

fn random_set(rng: &mut StdRng, n_seqs: usize, max_len: usize) -> SequenceSet {
    let mut b = SequenceSetBuilder::new();
    for i in 0..n_seqs {
        let len = rng.gen_range(5..=max_len);
        // Small residue alphabet to force shared substrings.
        let codes: Vec<u8> = (0..len).map(|_| rng.gen_range(0..5u8)).collect();
        b.push_codes(format!("s{i}"), codes).expect("non-empty");
    }
    b.finish()
}

#[test]
fn sais_agrees_with_naive_on_generalized_texts() {
    let mut rng = StdRng::seed_from_u64(402);
    for _ in 0..20 {
        let n_seqs = rng.gen_range(1..5);
        let set = random_set(&mut rng, n_seqs, 30);
        let gsa = GeneralizedSuffixArray::build_cut(&set, 1, 0);
        let text = gsa.encoded_text();
        let naive = suffix_array_naive(&text);
        // Alphabet-size stress: SA-IS over the integer text, and the
        // index's own sort of it.
        assert_eq!(suffix_array(&text, gsa.alphabet_size()), naive);
        assert_eq!(gsa.sa(), naive.as_slice());
    }
}

/// Brute-force maximal matches: all (i, j, length) such that some common
/// substring of that length is left- and right-maximal between the pair.
fn brute_force_pairs(set: &SequenceSet, min_len: u32) -> std::collections::HashSet<(u32, u32)> {
    let mut found = std::collections::HashSet::new();
    for a in 0..set.len() {
        for b in a + 1..set.len() {
            let x = set.codes(SeqId(a as u32));
            let y = set.codes(SeqId(b as u32));
            'positions: for i in 0..x.len() {
                for j in 0..y.len() {
                    // Extend the match at (i, j).
                    let mut l = 0usize;
                    while i + l < x.len() && j + l < y.len() && x[i + l] == y[j + l] {
                        l += 1;
                    }
                    let left_maximal = i == 0 || j == 0 || x[i - 1] != y[j - 1];
                    if left_maximal && l >= min_len as usize {
                        found.insert((a as u32, b as u32));
                        break 'positions;
                    }
                }
            }
        }
    }
    found
}

#[test]
fn maximal_match_pairs_complete_vs_brute_force() {
    let mut rng = StdRng::seed_from_u64(403);
    for trial in 0..15 {
        let n_seqs = rng.gen_range(2..6);
        let set = random_set(&mut rng, n_seqs, 25);
        let gsa = GeneralizedSuffixArray::build_cut(&set, 1, 0);
        let tree = SuffixTree::build(&gsa);
        let min_len = rng.gen_range(2..5u32);
        let config = MaximalMatchConfig { min_len, dedup: true, ..Default::default() };
        let expected = brute_force_pairs(&set, min_len);
        for threads in [1usize, 2] {
            let generated: std::collections::HashSet<(u32, u32)> =
                parallel_pairs(&tree, config, threads)
                    .0
                    .into_iter()
                    .map(|MatchPair { a, b, .. }| (a.0, b.0))
                    .collect();
            assert_eq!(generated, expected, "trial {trial}, ψ = {min_len}, {threads} thread(s)");
        }
    }
}

#[test]
fn maximal_match_lengths_are_genuine() {
    // Every reported (pair, len) corresponds to an actual common substring
    // of that length.
    let mut rng = StdRng::seed_from_u64(404);
    for _ in 0..10 {
        let set = random_set(&mut rng, 3, 30);
        let gsa = GeneralizedSuffixArray::build_cut(&set, 1, 0);
        let tree = SuffixTree::build(&gsa);
        let config = MaximalMatchConfig { min_len: 3, ..Default::default() };
        for p in parallel_pairs(&tree, config, 1).0 {
            let x = set.codes(p.a);
            let y = set.codes(p.b);
            let found =
                x.windows(p.len as usize).any(|w| y.windows(p.len as usize).any(|v| v == w));
            assert!(found, "reported match of length {} does not exist", p.len);
        }
    }
}
