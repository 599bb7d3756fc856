//! Prefix-partitioned ("distributed") construction of the suffix space.
//!
//! PaCE builds the generalized suffix tree in a distributed fashion: the
//! suffix space is split into buckets by a fixed-length prefix, buckets are
//! assigned to processors with load balancing, and each processor builds
//! and mines only its own subtrees. Because every internal node of depth
//! ≥ `prefix_len` lies entirely inside one bucket, pair generation with
//! ψ ≥ `prefix_len` is *exact* under this partitioning — no cross-processor
//! pairs are lost.
//!
//! On one shared-memory machine we reproduce the same decomposition over
//! the already-built [`GeneralizedSuffixArray`]: bucket boundaries are SA
//! ranks where the LCP drops below `prefix_len`. The per-rank node lists
//! are what each SPMD worker mines (`pfam_cluster::spmd`).

use crate::gsa::GeneralizedSuffixArray;
use crate::tree::{NodeId, SuffixTree};

/// A partition of the suffix space across `p` ranks.
#[derive(Debug, Clone)]
pub struct PartitionedSuffixSpace {
    /// Bucket boundaries as SA ranks: bucket `i` covers
    /// `boundaries[i]..boundaries[i + 1]`.
    boundaries: Vec<u32>,
    /// Owning rank of each bucket.
    rank_of_bucket: Vec<u32>,
    /// Number of ranks.
    p: usize,
    /// Prefix length used for splitting.
    prefix_len: u32,
}

impl PartitionedSuffixSpace {
    /// Split the suffix space of `gsa` into prefix buckets and assign them
    /// to `p` ranks by longest-processing-time (LPT) load balancing.
    pub fn new(gsa: &GeneralizedSuffixArray, p: usize, prefix_len: u32) -> Self {
        assert!(p >= 1, "at least one rank required");
        assert!(prefix_len >= 1, "prefix length must be positive");
        let n = gsa.sa().len();
        let mut boundaries = vec![0u32];
        boundaries.extend((1..n).filter(|&r| gsa.lcp_at(r) < prefix_len).map(|r| r as u32));
        boundaries.push(n as u32);

        // LPT: largest buckets first onto the least-loaded rank.
        let n_buckets = boundaries.len() - 1;
        let mut order: Vec<usize> = (0..n_buckets).collect();
        let size = |b: usize| boundaries[b + 1] - boundaries[b];
        order.sort_by_key(|&b| std::cmp::Reverse(size(b)));
        let mut load = vec![0u64; p];
        let mut rank_of_bucket = vec![0u32; n_buckets];
        for b in order {
            let (rank, _) = load.iter().enumerate().min_by_key(|&(_, &l)| l).expect("p >= 1");
            rank_of_bucket[b] = rank as u32;
            load[rank] += size(b) as u64;
        }
        PartitionedSuffixSpace { boundaries, rank_of_bucket, p, prefix_len }
    }

    /// Owning rank of the bucket containing SA rank `r`.
    pub fn rank_of_sa_rank(&self, r: u32) -> u32 {
        let b = self.boundaries.partition_point(|&x| x <= r) - 1;
        self.rank_of_bucket[b]
    }

    /// Distribute the internal nodes of `tree` (depth ≥ ψ) to their owning
    /// ranks, preserving decreasing-depth order within each rank.
    ///
    /// Requires `config.min_len >= self.prefix_len` — shallower nodes may
    /// straddle buckets.
    pub fn nodes_per_rank(&self, tree: &SuffixTree<'_>, min_len: u32) -> Vec<Vec<NodeId>> {
        assert!(
            min_len >= self.prefix_len,
            "ψ (={min_len}) must be at least the partition prefix length (={})",
            self.prefix_len
        );
        let mut per_rank: Vec<Vec<NodeId>> = vec![Vec::new(); self.p];
        for node in tree.nodes_by_depth_desc() {
            if tree.depth(node) < min_len {
                break;
            }
            let (l, r) = tree.range(node);
            let rank = self.rank_of_sa_rank(l);
            debug_assert_eq!(
                rank,
                self.rank_of_sa_rank(r - 1),
                "node of depth >= prefix_len must sit inside one bucket"
            );
            per_rank[rank as usize].push(node);
        }
        per_rank
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maximal::{MatchPair, MaximalMatchConfig};
    use crate::parallel::{mine_pairs, parallel_pairs, MineNodes};
    use pfam_seq::{SequenceSet, SequenceSetBuilder};
    use std::collections::HashSet;

    fn set_of(seqs: &[&str]) -> SequenceSet {
        let mut b = SequenceSetBuilder::new();
        for (i, s) in seqs.iter().enumerate() {
            b.push_letters(format!("s{i}"), s.as_bytes()).unwrap();
        }
        b.finish()
    }

    fn family_set() -> SequenceSet {
        // Three "families" with internal sharing plus singletons.
        set_of(&[
            "MKVLWAAKNDCQEGH",
            "MKVLWAAKNDCQEGH",
            "GGMKVLWAAKNDGG",
            "WYVFPSTWYVFPST",
            "AAWYVFPSTWYVAA",
            "CCCCCCCCCCCC",
            "HILKMFHILKMF",
        ])
    }

    /// Suffixes owned by each of `p` ranks, asked one SA rank at a time.
    fn suffixes_per_rank(
        part: &PartitionedSuffixSpace,
        gsa: &GeneralizedSuffixArray,
        p: usize,
    ) -> Vec<u64> {
        let mut load = vec![0u64; p];
        for r in 0..gsa.sa().len() as u32 {
            load[part.rank_of_sa_rank(r) as usize] += 1;
        }
        load
    }

    #[test]
    fn single_rank_owns_everything() {
        let set = family_set();
        let gsa = GeneralizedSuffixArray::build(&set);
        let part = PartitionedSuffixSpace::new(&gsa, 1, 2);
        assert_eq!(suffixes_per_rank(&part, &gsa, 1), vec![gsa.sa().len() as u64]);
    }

    #[test]
    fn lpt_balances_loads() {
        let set = family_set();
        let gsa = GeneralizedSuffixArray::build(&set);
        let part = PartitionedSuffixSpace::new(&gsa, 3, 2);
        let loads = suffixes_per_rank(&part, &gsa, 3);
        let max = *loads.iter().max().unwrap();
        let min = *loads.iter().min().unwrap();
        // LPT guarantee is loose; just check no rank is starved while
        // another holds everything.
        assert!(min > 0, "a rank was starved: {loads:?}");
        assert!(max < gsa.sa().len() as u64, "one rank holds all: {loads:?}");
    }

    #[test]
    fn partitioned_pairs_equal_global_pairs() {
        let set = family_set();
        let gsa = GeneralizedSuffixArray::build(&set);
        let tree = SuffixTree::build(&gsa);
        let config = MaximalMatchConfig { min_len: 5, dedup: false, ..Default::default() };
        let global: HashSet<MatchPair> = parallel_pairs(&tree, config, 1).0.into_iter().collect();
        for p in [1usize, 2, 3, 5, 8] {
            let part = PartitionedSuffixSpace::new(&gsa, p, 3);
            let distributed: HashSet<MatchPair> = part
                .nodes_per_rank(&tree, config.min_len)
                .into_iter()
                .flat_map(|nodes| mine_pairs(&tree, config, 1, MineNodes::Slice(&nodes)).0)
                .collect();
            assert_eq!(distributed, global, "p = {p}");
        }
    }

    #[test]
    fn deep_nodes_never_straddle_buckets() {
        let set = family_set();
        let gsa = GeneralizedSuffixArray::build(&set);
        let tree = SuffixTree::build(&gsa);
        let part = PartitionedSuffixSpace::new(&gsa, 4, 3);
        for node in tree.nodes_by_depth_desc() {
            if tree.depth(node) < 3 {
                break;
            }
            let (l, r) = tree.range(node);
            let first = part.rank_of_sa_rank(l);
            for rank in l..r {
                assert_eq!(part.rank_of_sa_rank(rank), first, "node {node}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "must be at least the partition prefix length")]
    fn rejects_psi_below_prefix_len() {
        let set = family_set();
        let gsa = GeneralizedSuffixArray::build(&set);
        let tree = SuffixTree::build(&gsa);
        let part = PartitionedSuffixSpace::new(&gsa, 2, 5);
        let _ = part.nodes_per_rank(&tree, 3);
    }

    #[test]
    fn more_ranks_than_buckets_is_fine() {
        let set = set_of(&["ACD", "EFG"]);
        let gsa = GeneralizedSuffixArray::build(&set);
        let part = PartitionedSuffixSpace::new(&gsa, 64, 2);
        assert_eq!(suffixes_per_rank(&part, &gsa, 64).iter().sum::<u64>(), gsa.sa().len() as u64);
    }
}
