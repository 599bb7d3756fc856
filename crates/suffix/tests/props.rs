//! Property tests over the suffix substrate.

use proptest::prelude::*;

use pfam_seq::{SequenceSet, SequenceSetBuilder};
use pfam_suffix::distributed::PartitionedSuffixSpace;
use pfam_suffix::maximal::MatchPair;
use pfam_suffix::tree::SuffixTree;
use pfam_suffix::{
    mine_pairs, parallel_pairs, GeneralizedSuffixArray, MaximalMatchConfig, MineNodes,
};

fn seq_set(max_seqs: usize, max_len: usize) -> impl Strategy<Value = SequenceSet> {
    prop::collection::vec(prop::collection::vec(0u8..6, 1..max_len), 1..max_seqs).prop_map(|seqs| {
        let mut b = SequenceSetBuilder::new();
        for (i, s) in seqs.into_iter().enumerate() {
            b.push_codes(format!("s{i}"), s).expect("non-empty by construction");
        }
        b.finish()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn gsa_suffixes_strictly_sorted(set in seq_set(6, 25)) {
        let g = GeneralizedSuffixArray::build_cut(&set, 1, 0);
        let text = g.encoded_text();
        for r in 1..g.sa().len() {
            let a = &text[g.sa()[r - 1] as usize..];
            let b = &text[g.sa()[r] as usize..];
            prop_assert!(a < b, "rank {} out of order", r);
        }
    }

    #[test]
    fn tree_nodes_have_correct_depth_and_branching(set in seq_set(5, 20)) {
        let g = GeneralizedSuffixArray::build_cut(&set, 1, 0);
        let t = SuffixTree::build(&g);
        for node in 0..t.n_nodes() as u32 {
            let (l, r) = t.range(node);
            prop_assert!(r > l);
            // Depth equals the minimum LCP strictly inside the range.
            if r - l >= 2 {
                let min_lcp = (l + 1..r).map(|i| g.lcp_at(i as usize)).min().unwrap();
                prop_assert_eq!(min_lcp, t.depth(node));
            }
            // Every internal node branches (≥ 2 child groups).
            prop_assert!(t.child_groups(node).len() >= 2);
        }
    }

    #[test]
    fn every_reported_pair_shares_a_substring(set in seq_set(5, 20)) {
        let g = GeneralizedSuffixArray::build_cut(&set, 1, 0);
        let t = SuffixTree::build(&g);
        let (pairs, _) = parallel_pairs(&t, MaximalMatchConfig { min_len: 2, ..Default::default() }, 1);
        for MatchPair { a, b, len, .. } in pairs {
            let x = set.codes(a);
            let y = set.codes(b);
            let shared = x
                .windows(len as usize)
                .any(|w| y.windows(len as usize).any(|v| v == w));
            prop_assert!(shared, "pair ({a}, {b}) claims a length-{len} match");
        }
    }

    #[test]
    fn distributed_partition_preserves_pairs(
        set in seq_set(6, 20),
        p in 1usize..6,
    ) {
        let g = GeneralizedSuffixArray::build_cut(&set, 1, 0);
        let t = SuffixTree::build(&g);
        let config = MaximalMatchConfig { min_len: 3, dedup: false, ..Default::default() };
        let global: std::collections::HashSet<MatchPair> =
            parallel_pairs(&t, config, 1).0.into_iter().collect();
        let part = PartitionedSuffixSpace::new(&g, p, 3);
        let distributed: std::collections::HashSet<MatchPair> = part
            .nodes_per_rank(&t, config.min_len)
            .into_iter()
            .flat_map(|nodes| mine_pairs(&t, config, 1, MineNodes::Slice(&nodes)).0)
            .collect();
        prop_assert_eq!(distributed, global);
    }

    #[test]
    fn pairs_emitted_in_decreasing_length(set in seq_set(6, 22)) {
        let g = GeneralizedSuffixArray::build_cut(&set, 1, 0);
        let t = SuffixTree::build(&g);
        let (pairs, _) = parallel_pairs(&t, MaximalMatchConfig { min_len: 2, ..Default::default() }, 1);
        for w in pairs.windows(2) {
            prop_assert!(w[0].len >= w[1].len);
        }
    }
}
