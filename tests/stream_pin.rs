//! The mined streams and the dense subgraphs of one fixed input, pinned:
//! the values below were computed once and every later index build must
//! reproduce them. The identity suites compare two builds of one tree; this
//! compares against a record, so a change that moves both sides at once —
//! the cut-off index and the full index it is checked against — still
//! fails here.

use pfam::cluster::ClusterConfig;
use pfam::core::PipelineConfig;
use pfam::datagen::{DatasetConfig, SyntheticDataset};
use pfam::seq::SeqId;
use pfam::suffix::maximal::GenerationStats;
use pfam::suffix::{
    mine_pairs, with_match_tree, GeneralizedSuffixArray, KeepMask, MatchPair, MaximalMatchConfig,
    MineNodes, SuffixTree,
};

/// FNV-1a over the little-endian bytes of `words`.
fn fnv64(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in words.into_iter().flat_map(u64::to_le_bytes) {
        hash = (hash ^ byte as u64).wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// A mined stream as one number: every pair with its anchors, in order,
/// then the statistics.
fn digest((pairs, stats): &(Vec<MatchPair>, GenerationStats)) -> u64 {
    let pairs = pairs.iter().flat_map(|p| [p.a.0, p.b.0, p.len, p.a_pos, p.b_pos]);
    let stats = [stats.nodes_visited, stats.pairs_emitted, stats.pairs_deduped, stats.pairs_capped];
    fnv64(pairs.map(u64::from).chain(stats.map(|s| s as u64)))
}

/// Sparse families with redundant copies among noise reads: the shape
/// whose index a cut-off shrinks most.
fn dataset() -> SyntheticDataset {
    SyntheticDataset::generate(&DatasetConfig {
        n_families: 12,
        n_members: 360,
        size_skew: 0.5,
        fragment_prob: 0.25,
        redundancy_frac: 0.14,
        n_noise: 900,
        seed: 0x5EED_0036,
        ..DatasetConfig::default()
    })
}

/// The RR stream (ψ_rr over every read) and the CCD stream (ψ_ccd over the
/// reads the generator did not make redundant, through a mask) of one
/// tree pruned at the smaller cut-off, as the pipeline mines them.
fn streams(tree: &SuffixTree<'_>, kept: &[SeqId], threads: usize) -> (u64, u64) {
    let config = ClusterConfig::default();
    let at = |psi| MaximalMatchConfig {
        min_len: psi,
        max_pairs_per_node: config.max_pairs_per_node,
        dedup: true,
    };
    let rr = mine_pairs(tree, at(config.psi_rr), threads, MineNodes::Whole(None));
    let mask = KeepMask::new(tree.gsa(), kept);
    let ccd = mine_pairs(tree, at(config.psi_ccd), threads, MineNodes::Whole(Some(&mask)));
    (digest(&rr), digest(&ccd))
}

#[test]
fn mined_streams_are_pinned() {
    let data = dataset();
    let redundant = data.redundant_ids();
    assert!(!redundant.is_empty());
    let kept: Vec<SeqId> =
        data.set.ids().filter(|id| redundant.binary_search(id).is_err()).collect();
    let config = ClusterConfig::default();
    let psi = config.psi_rr.min(config.psi_ccd);
    for threads in [1, 2] {
        let cut = with_match_tree(&data.set, psi, config.max_pairs_per_node, threads, |tree, _| {
            streams(tree, &kept, threads)
        });
        let full = GeneralizedSuffixArray::build_parallel(&data.set, threads);
        let whole = streams(&SuffixTree::build_pruned(&full, psi), &kept, threads);
        assert_eq!(cut, PINNED_STREAMS, "the index cut at {psi}, {threads} threads");
        assert_eq!(whole, PINNED_STREAMS, "the full index, {threads} threads");
    }
}

#[test]
fn dense_subgraphs_are_pinned() {
    let data = dataset();
    let result = PipelineConfig::default().run(&data.set);
    let subgraphs = &result.dense_subgraphs;
    let words = subgraphs.iter().flat_map(|ds| {
        let members = ds.members.iter().map(|id| id.0 as u64);
        [ds.component as u64, ds.members.len() as u64].into_iter().chain(members)
    });
    let pinned = (subgraphs.len(), fnv64(words));
    assert_eq!(pinned, PINNED_SUBGRAPHS);
}

/// `(RR, CCD)` digests of [`mined_streams_are_pinned`].
const PINNED_STREAMS: (u64, u64) = (0xe8a8_04a7_8f79_85a1, 0x61b0_2a26_2d63_3f00);
/// Count and digest of [`dense_subgraphs_are_pinned`].
const PINNED_SUBGRAPHS: (usize, u64) = (12, 0x6b83_ab94_a399_77f1);
