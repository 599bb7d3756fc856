//! Property-based tests (proptest) over the core data structures and
//! invariants of the substrates.

use proptest::prelude::*;

use pfam::align::{local_affine, AlignOp};
use pfam::graph::UnionFind;
use pfam::metrics::{pair_confusion, PairConfusion};
use pfam::seq::{alphabet, ScoringScheme, SequenceSetBuilder};
use pfam::shingle::{shingle_set, HashFamily};
use pfam::suffix::lcp::{lcp_array, lcp_array_naive};
use pfam::suffix::sais::{suffix_array, suffix_array_naive};
use pfam::suffix::GeneralizedSuffixArray;

fn residues(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..20, 1..max_len)
}

/// What a sequence scores against itself, residue by residue — no aligner.
fn self_score(x: &[u8], s: &ScoringScheme) -> i32 {
    x.iter().map(|&a| s.matrix.score_codes(a, a)).sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sais_matches_naive(text in prop::collection::vec(1u32..8, 0..120)) {
        let mut t = text.clone();
        t.push(0); // sentinel
        prop_assert_eq!(suffix_array(&t, 8), suffix_array_naive(&t));
    }

    #[test]
    fn lcp_matches_naive(text in prop::collection::vec(1u32..6, 0..100)) {
        let mut t = text.clone();
        t.push(0);
        let sa = suffix_array(&t, 6);
        prop_assert_eq!(lcp_array(&t, &sa), lcp_array_naive(&t, &sa));
    }

    #[test]
    fn suffix_array_is_sorted_permutation(text in prop::collection::vec(1u32..10, 0..150)) {
        let mut t = text.clone();
        t.push(0);
        let sa = suffix_array(&t, 10);
        // Permutation.
        let mut seen = vec![false; t.len()];
        for &p in &sa {
            prop_assert!(!seen[p as usize]);
            seen[p as usize] = true;
        }
        // Sorted.
        for w in sa.windows(2) {
            prop_assert!(t[w[0] as usize..] < t[w[1] as usize..]);
        }
    }

    #[test]
    fn alignment_score_symmetric(x in residues(40), y in residues(40)) {
        // BLOSUM62 is symmetric, so optimal scores are direction-free.
        let s = ScoringScheme::blosum62_default();
        prop_assert_eq!(local_affine(&x, &y, &s).score, local_affine(&y, &x, &s).score);
    }

    #[test]
    fn self_alignment_is_perfect(x in residues(50)) {
        // Every BLOSUM62 diagonal entry of a standard residue is positive,
        // so the best local alignment of `x` with itself is all of it.
        let s = ScoringScheme::blosum62_default();
        let aln = local_affine(&x, &x, &s);
        prop_assert_eq!(aln.ops.len(), x.len());
        prop_assert!(aln.ops.iter().all(|&o| o == AlignOp::Subst));
        prop_assert_eq!(aln.score, self_score(&x, &s));
        prop_assert_eq!(aln.stats(&x, &x, &s.matrix).matches, x.len());
    }

    #[test]
    fn local_score_bounded_by_self_scores(x in residues(40), y in residues(40)) {
        // BLOSUM62's diagonal dominates its rows: no aligned column can
        // score more than either of its residues does against itself.
        let s = ScoringScheme::blosum62_default();
        let cross = local_affine(&x, &y, &s).score;
        prop_assert!(cross <= self_score(&x, &s).min(self_score(&y, &s)));
        prop_assert!(cross >= 0);
    }

    #[test]
    fn union_find_equals_reference(
        n in 1usize..40,
        ops in prop::collection::vec((0u32..40, 0u32..40), 0..80),
    ) {
        let mut uf = UnionFind::new(n);
        // Reference: label propagation over a vector.
        let mut labels: Vec<usize> = (0..n).collect();
        for &(a, b) in &ops {
            let (a, b) = (a as usize % n, b as usize % n);
            uf.union(a as u32, b as u32);
            let (la, lb) = (labels[a], labels[b]);
            if la != lb {
                for l in labels.iter_mut() {
                    if *l == lb {
                        *l = la;
                    }
                }
            }
        }
        for i in 0..n as u32 {
            for j in 0..n as u32 {
                prop_assert_eq!(
                    uf.same(i, j),
                    labels[i as usize] == labels[j as usize],
                    "pair ({}, {})", i, j
                );
            }
        }
        let distinct: std::collections::HashSet<usize> = labels.iter().copied().collect();
        prop_assert_eq!(uf.groups().len(), distinct.len());
    }

    #[test]
    fn confusion_counts_are_consistent(
        labels in prop::collection::vec((0u32..4, 0u32..4), 0..50),
    ) {
        let test: Vec<Option<u32>> = labels.iter().map(|&(t, _)| Some(t)).collect();
        let bench: Vec<Option<u32>> = labels.iter().map(|&(_, b)| Some(b)).collect();
        let PairConfusion { tp, fp, fn_, tn } = pair_confusion(&test, &bench);
        let n = labels.len() as u64;
        prop_assert_eq!(tp + fp + fn_ + tn, n * n.saturating_sub(1) / 2);
    }

    #[test]
    fn shingles_deterministic_and_subsets(
        links in prop::collection::vec(0u32..1000, 0..60),
        s in 1usize..6,
        seed in 0u64..1000,
    ) {
        let mut links = links;
        links.sort_unstable();
        links.dedup();
        let fam = HashFamily::new(10, seed);
        let a = shingle_set(&links, &fam, s);
        let b = shingle_set(&links, &fam, s);
        prop_assert_eq!(&a, &b);
        for sh in &a {
            prop_assert!(sh.elements.len() <= s.max(links.len()));
            for e in &sh.elements {
                prop_assert!(links.contains(e));
            }
        }
    }

    #[test]
    fn gsa_lcp_capped_by_sequence_bounds(
        seqs in prop::collection::vec(prop::collection::vec(0u8..4, 1..20), 1..6),
    ) {
        let mut b = SequenceSetBuilder::new();
        for (i, s) in seqs.iter().enumerate() {
            b.push_codes(format!("s{i}"), s.clone()).unwrap();
        }
        let set = b.finish();
        let gsa = GeneralizedSuffixArray::build_cut(&set, 1, 0);
        // No LCP may reach past a sentinel: lcp <= remaining residues.
        for r in 1..gsa.sa().len() {
            for &pos in &[gsa.sa()[r - 1] as usize, gsa.sa()[r] as usize] {
                let (seq, offset) = gsa.locate(pos);
                let remaining = set.seq_len(seq) as i64 - offset as i64;
                prop_assert!(
                    (gsa.lcp_at(r) as i64) <= remaining,
                    "lcp {} crosses the sentinel at rank {}", gsa.lcp_at(r), r
                );
            }
        }
    }

    #[test]
    fn encode_decode_roundtrip(letters in "[ARNDCQEGHILKMFPSTWYVX]{1,80}") {
        let codes = alphabet::encode(letters.as_bytes()).unwrap();
        prop_assert_eq!(alphabet::decode(&codes), letters);
    }
}
