//! Identity suite for the out-of-core index plane: the windowed miner's
//! stream is [`mine_pairs`] over the monolithic index — every pair, in
//! order, anchors and generation statistics included — for every window
//! cap, thread count and cut-off; so a phase gives the same results under
//! any budget.

use std::ops::Range;

use pfam_cluster::{run_ccd, with_pair_source, CcdResult, ClusterConfig};
use pfam_datagen::{DatasetConfig, SyntheticDataset};
use pfam_seq::complexity::MaskParams;
use pfam_seq::{MemoryBudget, SeqStore, SequenceSet, SequenceSetBuilder};
use pfam_suffix::maximal::GenerationStats;
use pfam_suffix::{
    bucket_sort_index, estimated_index_bytes, estimated_text_bytes, parallel_pairs, ChunkPlan,
    GeneralizedSuffixArray, MatchPair, MaximalMatchConfig, PartitionedMiner, SuffixTree,
};

/// A mined stream with its anchors — `MatchPair` equality ignores them —
/// and its statistics.
type Stream = (Vec<(u32, u32, u32, u32, u32)>, GenerationStats);

fn anchored((pairs, stats): (Vec<MatchPair>, GenerationStats)) -> Stream {
    (pairs.iter().map(|p| (p.a.0, p.b.0, p.len, p.a_pos, p.b_pos)).collect(), stats)
}

fn config_at(psi: u32) -> MaximalMatchConfig {
    MaximalMatchConfig { min_len: psi, ..Default::default() }
}

/// `mine_pairs` over the monolithic index of `set`, at one thread.
fn monolithic(set: &SequenceSet, psi: u32) -> Stream {
    if set.is_empty() {
        return Default::default();
    }
    let gsa = GeneralizedSuffixArray::build_parallel(set, 1);
    anchored(parallel_pairs(&SuffixTree::build_pruned(&gsa, psi), config_at(psi), 1))
}

fn text_bytes(set: &SequenceSet) -> u64 {
    estimated_text_bytes(set.total_residues(), set.len())
}

/// The windowed stream of `set` at cut-off `psi` on `threads`, windows cut
/// to at most `cap` bytes past the text (a run of buckets that cannot be
/// cut goes over it), loaded in chunks of a few reads; and its window
/// count.
fn windowed(set: &SequenceSet, psi: u32, cap: u64, threads: usize) -> (Stream, usize) {
    let lens: Vec<u32> = set.ids().map(|id| set.seq_len(id) as u32).collect();
    let budget = MemoryBudget::limited(text_bytes(set).saturating_add(cap));
    let loader = |r: Range<u32>| set.load_range(r);
    let miner = PartitionedMiner::new(
        ChunkPlan::plan(&lens, 1 << 12),
        loader,
        config_at(psi),
        threads,
        &budget,
    );
    let (pairs, stats, held) = miner.mine();
    let stream = anchored((pairs, stats));
    assert_eq!(budget.used(), 0, "the miner releases what it held");
    (stream, held.windows)
}

/// Window caps: none at all (every run of buckets that cannot be cut is
/// a window — one bucket a window from ψ = 3 on), a quarter of the
/// suffixes, every suffix (one window).
fn caps(set: &SequenceSet) -> [u64; 3] {
    let suffixes = (set.total_residues() + set.len()) as u64;
    [0, 14 * suffixes / 4, u64::MAX]
}

/// The windowed stream equals the monolithic one at every cap, thread
/// count and `psis` entry; returns the window counts per cut-off, caps in
/// [`caps`] order.
fn assert_windowed_is_monolithic(set: &SequenceSet, psis: &[u32]) -> Vec<[usize; 3]> {
    let mut counts = Vec::new();
    for &psi in psis {
        let want = monolithic(set, psi);
        let mut per_cap = [0; 3];
        for (c, cap) in caps(set).into_iter().enumerate() {
            for threads in [1, 2] {
                let (got, n_windows) = windowed(set, psi, cap, threads);
                let what = format!("psi {psi} cap {cap} threads {threads}: {n_windows} windows");
                assert_eq!(got.0, want.0, "{what}");
                assert_eq!(got.1, want.1, "{what}");
                per_cap[c] = n_windows;
            }
        }
        counts.push(per_cap);
    }
    counts
}

/// Small family reads: every cut-off from 1 up has matches to mine.
fn corpus(seed: u64) -> SequenceSet {
    let config = DatasetConfig {
        n_families: 3,
        n_members: 12,
        n_noise: 3,
        ancestor_len: 40..70,
        ..DatasetConfig::tiny(seed)
    };
    SyntheticDataset::generate(&config).set
}

#[test]
fn the_windowed_stream_is_the_monolithic_stream_on_datagen() {
    for seed in [3u64, 7, 21] {
        let set = corpus(seed);
        let counts = assert_windowed_is_monolithic(&set, &[1, 2, 3, 10, 15]);
        for &[none, quarter, every] in &counts {
            assert!(none > quarter && quarter > every && every == 1, "seed {seed}: {counts:?}");
        }
    }
}

#[test]
fn the_windowed_stream_holds_past_the_tie_budget() {
    // Two 600-residue homopolymers among noise reads: resolving their key
    // ties costs more than the whole text may spend, so the monolithic
    // build hands the text to SA-IS — and a window holding them resolves
    // its ties to the end.
    let mut b = SequenceSetBuilder::new();
    let noise = corpus(5);
    for (i, read) in noise.iter().enumerate() {
        if i % 7 == 3 {
            b.push_codes(format!("h{i}"), vec![7; 600]).unwrap();
        }
        b.push_codes(format!("r{i}"), read.codes.to_vec()).unwrap();
    }
    let set = b.finish();
    let whole = GeneralizedSuffixArray::build_cut(&set, 2, 0);
    assert_eq!(bucket_sort_index(whole.text(), 2), None, "the corpus must blow the tie budget");
    for [none, ..] in assert_windowed_is_monolithic(&set, &[3, 10]) {
        assert!(none > 1, "the homopolymers' bucket sits in one of several windows");
    }
}

#[test]
fn the_windowed_stream_of_empty_and_one_read_sets() {
    let mut b = SequenceSetBuilder::new();
    b.push_letters("s0".into(), b"MKVLWAAKNDCQEGHILKMFPSTWYVMKVLWAAKND").unwrap();
    let one = b.finish();
    for set in [SequenceSet::default(), one] {
        assert_windowed_is_monolithic(&set, &[1, 10]);
        let (_, n_windows) = windowed(&set, 10, 0, 1);
        assert_eq!(n_windows == 0, set.is_empty());
    }
}

/// `run_ccd` over `set` under a budget of `share` of its monolithic index.
fn ccd_under(set: &SequenceSet, config: &ClusterConfig, share: u64) -> CcdResult {
    let estimate = estimated_index_bytes(set.total_residues(), set.len());
    let config =
        ClusterConfig { budget: MemoryBudget::limited(estimate / share), ..config.clone() };
    run_ccd(set, &config)
}

fn assert_same_ccd(got: &CcdResult, want: &CcdResult, what: &str) {
    assert_eq!(got.components, want.components, "{what}: components");
    assert_eq!(got.edges, want.edges, "{what}: edges");
    assert_eq!(got.deferred, want.deferred, "{what}: deferred");
    assert_eq!(got.n_merges, want.n_merges, "{what}: merges");
    assert_eq!(got.trace, want.trace, "{what}: trace");
}

#[test]
fn a_phase_is_identical_under_every_budget() {
    for (seed, mask) in [(31u64, None), (32, Some(MaskParams::default()))] {
        let set = SyntheticDataset::generate(&DatasetConfig::tiny(seed)).set;
        let config = ClusterConfig { mask, ..ClusterConfig::default() };
        let stream = |budget: MemoryBudget| {
            let config = ClusterConfig { budget, ..config.clone() };
            with_pair_source(&set, &config, config.psi_ccd, None, |pairs, nodes_visited, _| {
                (pairs.to_vec(), nodes_visited)
            })
        };
        let want = stream(MemoryBudget::unlimited());
        let reference = run_ccd(&set, &config);
        let estimate = estimated_index_bytes(set.total_residues(), set.len());
        for share in [2u64, 3, 4] {
            let got = stream(MemoryBudget::limited(estimate / share));
            let anchors = |pairs: &[MatchPair]| {
                pairs.iter().map(|p| (p.a, p.b, p.len, p.a_pos, p.b_pos)).collect::<Vec<_>>()
            };
            assert_eq!(anchors(&got.0), anchors(&want.0), "seed {seed}, est/{share}");
            assert_eq!(got.1, want.1, "seed {seed}, est/{share}: nodes visited");
            let ccd = ccd_under(&set, &config, share);
            assert_same_ccd(&ccd, &reference, &format!("seed {seed}, est/{share}"));
        }
    }
}
