//! Driver-equivalence matrix: every miner × every master loop must produce
//! the same connected components as the batched reference driver.
//!
//! CCD components are invariant under execution order, pair partitioning
//! and filter sharpness: a pair is only skipped when its endpoints are
//! already connected (so verifying it could not change reachability), and
//! every verified verdict is a pure function of the two sequences. The
//! matrix below pins that invariant across the real composition space —
//! the same pieces the public `run_*` drivers are built from. Every cell of
//! the matrix also leaves bookkeeping the back half can build on: its
//! edges, refused and deferred pairs partition what it generated, and the
//! component graphs built from them equal the mined ones (which pairs a
//! cell defers depends on its arrival order; the graphs do not).

mod common;

use std::sync::Arc;

use common::{assert_known_graphs_equal_mined, assert_partition};
use pfam_cluster::core::VERIFY_SLICE;
use pfam_cluster::{
    drive_batched, drive_spmd, run_ccd, serve_push_worker, ClusterConfig, ClusterCore, CorePhase,
    LocalTransport, Verifier,
};
use pfam_cluster::{CcdResult, RrResult, VerifyOn};
use pfam_datagen::{DatasetConfig, SyntheticDataset};
use pfam_seq::{MemoryBudget, SeqId, SeqStore, SequenceSet, SequenceSetBuilder};
use pfam_suffix::{
    estimated_text_bytes, parallel_pairs, ChunkPlan, GeneralizedSuffixArray, MatchPair,
    MaximalMatchConfig, PartitionedMiner, SuffixTree,
};

/// Which miner supplies the pairs.
#[derive(Clone, Copy, Debug)]
enum MinerKind {
    /// The suffix index mined on this many threads (the output is the
    /// same at every count).
    Mined(usize),
    /// The out-of-core generator: one text, its suffixes sorted and mined
    /// in windows small enough that real inputs are cut into several.
    Partitioned,
}

/// Which master loop consumes them (the transport is implied: rayon
/// in-process for `Batched`, the local channel transport for the rest).
#[derive(Clone, Copy, Debug)]
enum LoopKind {
    /// [`drive_batched`] — the deterministic reference loop.
    Batched,
    /// [`drive_spmd`] — two workers push half the pairs each.
    Push,
    /// [`drive_spmd`] with every pair on one worker and the other idle
    /// (the degenerate partition).
    PushToOne,
}

const MINERS: [MinerKind; 3] = [MinerKind::Mined(1), MinerKind::Mined(2), MinerKind::Partitioned];
const LOOPS: [LoopKind; 3] = [LoopKind::Batched, LoopKind::Push, LoopKind::PushToOne];

/// Mine the full promising-pair stream without the index-borrow dance
/// (the integration test cannot reach the crate-private masked view, so
/// it indexes the raw set — every driver below shares this supply, which
/// is all the equivalence matrix needs).
fn mine(set: &SequenceSet, config: &ClusterConfig, threads: usize) -> Vec<MatchPair> {
    if set.is_empty() {
        return Vec::new();
    }
    let gsa = GeneralizedSuffixArray::build_parallel(set, threads);
    let tree = SuffixTree::build(&gsa);
    parallel_pairs(&tree, match_config(config), threads).0
}

fn match_config(config: &ClusterConfig) -> MaximalMatchConfig {
    MaximalMatchConfig {
        min_len: config.psi_ccd,
        max_pairs_per_node: config.max_pairs_per_node,
        dedup: true,
    }
}

/// Bytes a window may take past the text: small enough that any
/// non-trivial set is cut into several windows.
const WINDOW_CAP: u64 = 1024;

/// The full pair stream of the out-of-core generator.
fn partitioned_pairs(set: &SequenceSet, config: &ClusterConfig) -> Vec<MatchPair> {
    let lens: Vec<u32> = set.ids().map(|id| set.seq_len(id) as u32).collect();
    let text = estimated_text_bytes(set.total_residues(), set.len());
    let miner = PartitionedMiner::new(
        ChunkPlan::plan(&lens, 1 << 12),
        |r| set.load_range(r),
        match_config(config),
        2,
        &MemoryBudget::limited(text + WINDOW_CAP),
    );
    let (pairs, _, held) = miner.mine();
    assert!(set.len() < 2 || held.windows > 1, "the window cap must actually cut the text");
    pairs
}

/// Drive one (miner, loop) cell.
fn run_cell(
    set: &SequenceSet,
    config: &ClusterConfig,
    miner: MinerKind,
    driver: LoopKind,
) -> CcdResult {
    let pairs = match miner {
        MinerKind::Mined(threads) => mine(set, config, threads),
        MinerKind::Partitioned => partitioned_pairs(set, config),
    };
    let verifier = Verifier::new(config, CorePhase::Ccd);
    let mut core = ClusterCore::new_ccd(set);
    match driver {
        LoopKind::Batched => {
            drive_batched(&mut core, &pairs, &verifier, config.batch_size);
        }
        LoopKind::Push => {
            let (left, right) = pairs.split_at(pairs.len() / 2);
            drive_push(&mut core, set, config, [left, right]);
        }
        LoopKind::PushToOne => drive_push(&mut core, set, config, [&pairs, &[]]),
    }
    CcdResult::from_core(core)
}

/// Run the push protocol with one slice of pairs per worker.
fn drive_push(
    core: &mut ClusterCore<'_>,
    set: &SequenceSet,
    config: &ClusterConfig,
    worker_pairs: [&[MatchPair]; 2],
) {
    let (mut transport, ports) = LocalTransport::new(worker_pairs.len());
    std::thread::scope(|scope| {
        for (mut port, pairs) in ports.into_iter().zip(worker_pairs) {
            scope.spawn(move || {
                let verifier = Verifier::new(config, CorePhase::Ccd);
                serve_push_worker(&mut port, pairs, &verifier, set, config.batch_size);
            });
        }
        drive_spmd(core, &mut transport).expect("healthy local world");
    });
}

/// (c) and (a) of `pair_ledger.rs` for one CCD result over the
/// whole of `set`.
fn assert_bookkeeping_holds(
    set: &SequenceSet,
    config: &ClusterConfig,
    ccd: &CcdResult,
    what: &str,
) {
    assert_partition(ccd, what);
    let all: Vec<SeqId> = set.ids().collect();
    assert_known_graphs_equal_mined(set, config, &all, &Arc::default(), ccd, what);
}

/// Assert every matrix cell reproduces the reference components, with
/// bookkeeping that holds.
fn assert_matrix_agrees(set: &SequenceSet, config: &ClusterConfig) {
    let reference = run_ccd(set, config).components;
    for miner in MINERS {
        for driver in LOOPS {
            let what = format!("{miner:?} × {driver:?}");
            let got = run_cell(set, config, miner, driver);
            assert_eq!(got.components, reference, "{what} diverged from the reference components");
            assert_bookkeeping_holds(set, config, &got, &what);
        }
    }
}

fn set_of(seqs: &[&str]) -> SequenceSet {
    let mut b = SequenceSetBuilder::new();
    for (i, s) in seqs.iter().enumerate() {
        b.push_letters(format!("s{i}"), s.as_bytes()).unwrap();
    }
    b.finish()
}

#[test]
fn matrix_agrees_on_random_datagen_inputs() {
    for seed in [11u64, 12, 13] {
        let d = SyntheticDataset::generate(&DatasetConfig::tiny(seed));
        assert_matrix_agrees(&d.set, &ClusterConfig::default());
    }
}

#[test]
fn matrix_agrees_on_empty_set() {
    assert_matrix_agrees(&SequenceSet::default(), &ClusterConfig::default());
}

#[test]
fn matrix_agrees_on_single_sequence_set() {
    let set = set_of(&["MKVLWAAKNDCQEGHILKMFPSTWYV"]);
    assert_matrix_agrees(&set, &ClusterConfig::for_short_sequences());
}

#[test]
fn matrix_agrees_on_identical_family() {
    const FAM: &str = "MKVLWAAKNDCQEGHILKMFPSTWYV";
    let seqs = vec![FAM; 6];
    let set = set_of(&seqs);
    assert_matrix_agrees(&set, &ClusterConfig::for_short_sequences());
}

#[test]
fn small_batch_sizes_do_not_change_components() {
    // Batch boundaries shift which pairs the filter sees together; the
    // final partition must not care.
    let d = SyntheticDataset::generate(&DatasetConfig::tiny(14));
    for batch_size in [1usize, 3, 64] {
        let config = ClusterConfig { batch_size, ..ClusterConfig::default() };
        assert_matrix_agrees(&d.set, &config);
    }
}

/// The loop [`drive_batched`] replaced, written from the public API: one
/// batch at a time — admit, verify what survived, absorb. Its fills run on
/// the calling thread: where a list is filled does not change a verdict.
fn batch_at_a_time(
    core: &mut ClusterCore<'_>,
    pairs: &[MatchPair],
    verifier: &Verifier,
    batch_size: usize,
) {
    for batch in pairs.chunks(batch_size) {
        let candidates = core.admit_batch(batch);
        core.absorb(verifier.verify(core.set(), &candidates, VerifyOn::Caller));
    }
}

fn assert_same_ccd(got: &CcdResult, want: &CcdResult, what: &str) {
    assert_eq!(got.components, want.components, "{what}: components");
    assert_eq!(got.edges, want.edges, "{what}: edges");
    assert_eq!(got.deferred, want.deferred, "{what}: deferred");
    assert_eq!(got.n_merges, want.n_merges, "{what}: merges");
    assert_eq!(got.trace, want.trace, "{what}: trace");
}

/// The window changes when pairs are filled, not what any batch sees: at
/// every batch size — 5 000 is past [`VERIFY_SLICE`], a window of one
/// batch — RR and CCD leave the one-batch-at-a-time loop's results and
/// traces (one record per batch), and every fill no batch admitted is
/// accounted for.
#[test]
fn the_window_is_the_batch_at_a_time_loop() {
    const { assert!(5_000 > VERIFY_SLICE) };
    let d = SyntheticDataset::generate(&DatasetConfig::tiny(16).scaled(5.0));
    let set = &d.set;
    let defaults = ClusterConfig::default();
    let rr_match = MaximalMatchConfig { min_len: defaults.psi_rr, ..match_config(&defaults) };
    let gsa = GeneralizedSuffixArray::build_parallel(set, 2);
    let rr_pairs = parallel_pairs(&SuffixTree::build(&gsa), rr_match, 2).0;
    let ccd_pairs = mine(set, &defaults, 2);
    assert!(ccd_pairs.len() > VERIFY_SLICE, "several windows: {} pairs", ccd_pairs.len());
    for batch_size in [1usize, 3, 64, 128, 5_000] {
        let config = ClusterConfig { batch_size, ..defaults.clone() };

        let pairs = &rr_pairs;
        let verifier = Verifier::new(&config, CorePhase::Rr);
        let rr_core = || {
            let mut core = ClusterCore::new_rr(set);
            core.record_ledger(&config.budget);
            core
        };
        let (mut want, mut got) = (rr_core(), rr_core());
        batch_at_a_time(&mut want, pairs, &verifier, batch_size);
        let discarded = drive_batched(&mut got, pairs, &verifier, batch_size);
        let (want, got) = (RrResult::from_core(want), RrResult::from_core(got));
        let what = format!("RR, batch {batch_size}");
        assert_eq!((&got.kept, &got.removed, &got.trace), (&want.kept, &want.removed, &want.trace));
        let entries = |r: &RrResult| r.ledger.entries().collect::<Vec<_>>();
        assert_eq!(entries(&got), entries(&want), "{what}: ledger");
        for v in &discarded {
            let kept = |id: u32| got.kept.binary_search(&SeqId(id)).is_ok();
            assert!(!(kept(v.a) && kept(v.b)), "{what}: ({}, {}) lost a read", v.a, v.b);
        }

        let pairs = &ccd_pairs;
        let verifier = Verifier::new(&config, CorePhase::Ccd);
        let (mut want, mut got) = (ClusterCore::new_ccd(set), ClusterCore::new_ccd(set));
        batch_at_a_time(&mut want, pairs, &verifier, batch_size);
        let ahead = drive_batched(&mut got, pairs, &verifier, batch_size);
        let what = format!("CCD, batch {batch_size}");
        let (want, got) = (CcdResult::from_core(want), CcdResult::from_core(got));
        assert_same_ccd(&got, &want, &what);
        for v in &ahead {
            assert!(got.deferred.contains(&(v.a, v.b)), "{what}: ({}, {}) deferred", v.a, v.b);
            assert_eq!(*v, verifier.verdict(set, (v.a, v.b)), "{what}: the pair's own verdict");
        }
    }
}
