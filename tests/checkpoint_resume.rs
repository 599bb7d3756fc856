//! Kill/resume integration tests: stop the checkpointed pipeline after
//! every phase boundary (and mid-CCD, and mid-DSD), resume from disk, and
//! require the final clustering — down to the rendered families.tsv text
//! — and all three work traces to be identical to the uninterrupted run:
//! `rr.ckpt` carries the pair ledger and `ccd.ckpt` the deferred pairs, so
//! a resumed run aligns exactly what an uninterrupted one does. A run that
//! starts at RR mines one suffix index in both clustering phases; a
//! resumed run rebuilds what the CCD cursor pins, so the cursors here come
//! from either.

use std::path::PathBuf;
use std::sync::Arc;

use pfam::cluster::PairLedger;
use pfam::core::checkpoint::{
    read_checkpoint, write_checkpoint, CcdState, CkptError, DsdState, MAGIC,
};
use pfam::core::{
    run_pipeline, run_pipeline_checkpointed, CheckpointConfig, Phase, PipelineConfig,
    PipelineResult,
};
use pfam::datagen::{DatasetConfig, MutationModel, SyntheticDataset};
use pfam::seq::SequenceSet;

fn dataset(seed: u64) -> SyntheticDataset {
    SyntheticDataset::generate(&DatasetConfig {
        n_families: 3,
        n_members: 30,
        n_noise: 4,
        redundancy_frac: 0.1,
        fragment_prob: 0.0,
        mutation: MutationModel {
            substitution_rate: 0.12,
            conservative_fraction: 0.6,
            insertion_rate: 0.0,
            deletion_rate: 0.0,
        },
        seed,
        ..DatasetConfig::tiny(seed)
    })
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pfam-ckpt-test-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The families.tsv body the CLI writes, as a string — byte-identical
/// output is the acceptance bar for resume.
fn render_families(set: &SequenceSet, result: &PipelineResult) -> String {
    let mut out = String::from("#family\tsize\tdensity\tmembers (FASTA headers)\n");
    for (i, ds) in result.dense_subgraphs.iter().enumerate() {
        let headers: Vec<&str> = ds.members.iter().map(|&id| set.header(id)).collect();
        out.push_str(&format!(
            "{i}\t{}\t{:.2}\t{}\n",
            ds.members.len(),
            ds.density.density,
            headers.join(",")
        ));
    }
    out
}

fn assert_same_result(set: &SequenceSet, resumed: &PipelineResult, straight: &PipelineResult) {
    assert_eq!(resumed.non_redundant, straight.non_redundant);
    assert_eq!(resumed.components, straight.components);
    assert_eq!(resumed.dense_subgraphs, straight.dense_subgraphs);
    assert_eq!(resumed.traces.0, straight.traces.0, "RR trace");
    assert_eq!(resumed.traces.1, straight.traces.1, "CCD trace");
    assert_eq!(resumed.traces.2, straight.traces.2, "BGG trace");
    assert_eq!(
        render_families(set, resumed),
        render_families(set, straight),
        "families.tsv must be byte-identical after resume"
    );
}

#[test]
fn kill_after_each_phase_then_resume_is_identical() {
    let d = dataset(4870);
    let config = PipelineConfig::for_tests();
    let straight = run_pipeline(&d.set, &config);
    for stop in [Phase::Rr, Phase::Ccd, Phase::Dsd] {
        let ckpt = CheckpointConfig {
            dir: scratch_dir(&format!("kill-{stop:?}")),
            every_batches: 4,
            every_components: 1,
        };
        let first = run_pipeline_checkpointed(&d.set, &config, &ckpt, false, Some(stop))
            .expect("checkpointed run");
        assert!(first.is_none(), "stop_after must end the run early");
        let resumed = run_pipeline_checkpointed(&d.set, &config, &ckpt, true, None)
            .expect("resumed run")
            .expect("resumed run completes");
        assert_same_result(&d.set, &resumed, &straight);
        let _ = std::fs::remove_dir_all(&ckpt.dir);
    }
}

/// Complete RR under `ckpt`, then plant a genuine mid-CCD cursor — the
/// one in the middle of those `run` emits over RR's survivors, answered by
/// RR's ledger — as `ccd.ckpt`, and return its plan pin.
fn kill_mid_ccd(
    d: &SyntheticDataset,
    config: &PipelineConfig,
    ckpt: &CheckpointConfig,
    run: impl FnOnce(&[pfam::seq::SeqId], &Arc<PairLedger>, &mut dyn FnMut(&pfam::cluster::CcdCursor)),
) -> u64 {
    run_pipeline_checkpointed(&d.set, config, ckpt, false, Some(Phase::Rr)).expect("rr-only run");
    let (_, payload) = read_checkpoint(&Phase::Rr.path_in(&ckpt.dir)).expect("rr.ckpt");
    let rr = pfam::core::checkpoint::RrState::decode(&payload).expect("decode rr");
    let kept: Vec<pfam::seq::SeqId> = rr.kept.iter().map(|&i| pfam::seq::SeqId(i)).collect();
    assert!(!rr.ledger.is_empty(), "rr.ckpt must carry the pair ledger");
    let ledger = Arc::new(PairLedger::from_entries(rr.ledger, &config.cluster.mem.budget));
    let mut cursors = Vec::new();
    run(&kept, &ledger, &mut |c| cursors.push(c.clone()));
    let cursor = cursors.swap_remove(cursors.len() / 2);
    assert!(cursor.pairs_consumed > 0, "cursor must sit mid-phase");
    let pin = cursor.gen_chunk_bytes;
    let state = CcdState { complete: false, cursor };
    write_checkpoint(&Phase::Ccd.path_in(&ckpt.dir), Phase::Ccd, &state.encode())
        .expect("plant partial ccd.ckpt");
    pin
}

#[test]
fn resume_from_partial_ccd_cursor_is_identical() {
    // Simulate a crash *mid-CCD*: complete RR, then plant a genuine
    // partial cursor (complete = false) as ccd.ckpt and resume from it.
    // This one is cut over a copy of the survivors with its own index.
    let d = dataset(4871);
    let config = PipelineConfig::for_tests();
    let straight = run_pipeline(&d.set, &config);
    let ckpt =
        CheckpointConfig { dir: scratch_dir("mid-ccd"), every_batches: 1, every_components: 1 };
    kill_mid_ccd(&d, &config, &ckpt, |kept, ledger, on_cursor| {
        let (nr_set, _) = d.set.subset(kept);
        pfam::cluster::run_ccd_resumable(&nr_set, &config.cluster, ledger, None, 1, on_cursor);
    });
    let resumed = run_pipeline_checkpointed(&d.set, &config, &ckpt, true, None)
        .expect("resume from partial cursor")
        .expect("completes");
    assert_same_result(&d.set, &resumed, &straight);
    let _ = std::fs::remove_dir_all(&ckpt.dir);
}

#[test]
fn kill_mid_ccd_on_the_shared_index_resumes_identically() {
    // The cursor is cut while CCD mines the index RR built (what a run
    // killed mid-CCD leaves behind); the resumed run has no such index
    // and rebuilds one from the pin.
    let d = dataset(4876);
    let config = PipelineConfig::for_tests();
    let straight = run_pipeline(&d.set, &config);
    let ckpt = CheckpointConfig {
        dir: scratch_dir("mid-ccd-shared"),
        every_batches: 1,
        every_components: 1,
    };
    let pin = kill_mid_ccd(&d, &config, &ckpt, |kept, ledger, on_cursor| {
        pfam::cluster::with_front_half(&d.set, &config.cluster, |front| {
            front.ccd_resumable(kept, ledger, None, 1, on_cursor);
        })
    });
    assert_eq!(pin, 0, "an unbudgeted in-memory run mines one monolithic index");
    let resumed = run_pipeline_checkpointed(&d.set, &config, &ckpt, true, None)
        .expect("resume from partial cursor")
        .expect("completes");
    assert_same_result(&d.set, &resumed, &straight);
    let _ = std::fs::remove_dir_all(&ckpt.dir);
}

#[test]
fn partitioned_pin_of_an_older_checkpoint_still_resumes() {
    // Before a view of an in-memory set was mined monolithically, an
    // unbudgeted run pinned the partitioned default (256 MiB per chunk)
    // into its CCD cursors. Such a checkpoint must still resume.
    const OLD_DEFAULT: u64 = 256 << 20;
    let d = dataset(4877);
    let config = PipelineConfig::for_tests();
    let straight = run_pipeline(&d.set, &config);
    let ckpt =
        CheckpointConfig { dir: scratch_dir("old-pin"), every_batches: 1, every_components: 1 };
    let pin = kill_mid_ccd(&d, &config, &ckpt, |kept, ledger, on_cursor| {
        let view = pfam::seq::SubsetStore::new(&d.set, kept.to_vec());
        let forced = config.clone().with_index_chunk_bytes(OLD_DEFAULT);
        pfam::cluster::run_ccd_resumable(&view, &forced.cluster, ledger, None, 1, on_cursor);
    });
    assert_eq!(pin, OLD_DEFAULT);
    let resumed = run_pipeline_checkpointed(&d.set, &config, &ckpt, true, None)
        .expect("resume from the pinned plan")
        .expect("completes");
    // One chunk holds this input, so the pinned order is the monolithic one.
    assert_same_result(&d.set, &resumed, &straight);
    let _ = std::fs::remove_dir_all(&ckpt.dir);
}

#[test]
fn batched_dsd_checkpointing_resumes_identically() {
    // every_components > 1 snapshots once per component batch; the kill
    // point then sits on a batch boundary, and the resumed run must still
    // be byte-identical to the uninterrupted one.
    let d = dataset(4875);
    let config = PipelineConfig::for_tests();
    let straight = run_pipeline(&d.set, &config);
    for every in [2usize, 3, 100] {
        let ckpt = CheckpointConfig {
            dir: scratch_dir(&format!("batched-{every}")),
            every_batches: 4,
            every_components: every,
        };
        let first = run_pipeline_checkpointed(&d.set, &config, &ckpt, false, Some(Phase::Dsd))
            .expect("checkpointed run");
        assert!(first.is_none(), "stop_after must end the run early");
        let resumed = run_pipeline_checkpointed(&d.set, &config, &ckpt, true, None)
            .expect("resumed run")
            .expect("resumed run completes");
        assert_same_result(&d.set, &resumed, &straight);
        let _ = std::fs::remove_dir_all(&ckpt.dir);
    }
}

#[test]
fn kill_mid_dsd_resumes_identically() {
    // What a run killed between two DSD snapshots leaves behind: complete
    // rr.ckpt and ccd.ckpt, and a dsd.ckpt holding a prefix of the queue.
    // The resumed run must build the remaining graphs from the stored
    // ledger and deferred pairs — same fills, same ledger hits.
    use pfam::graph::{BipartiteGraph, CsrGraph};
    use pfam::shingle::{detect_dense_subgraphs, DenseSubgraphConfig, ReductionMode, ShingleStats};
    let d = dataset(4878);
    let config = PipelineConfig::for_tests();
    let straight = run_pipeline(&d.set, &config);
    let ckpt =
        CheckpointConfig { dir: scratch_dir("mid-dsd"), every_batches: 4, every_components: 1 };
    run_pipeline_checkpointed(&d.set, &config, &ckpt, false, Some(Phase::Dsd)).expect("full run");
    let dsd_path = Phase::Dsd.path_in(&ckpt.dir);
    let mut state = DsdState::decode(&read_checkpoint(&dsd_path).expect("dsd.ckpt").1).unwrap();
    assert!(state.done.len() >= 2, "need a queue to cut");
    state.done.truncate(1);
    state.trace.batches.truncate(1);
    let pfam::core::Reduction::GlobalSimilarity { tau } = config.reduction else { unreachable!() };
    let dsd_config = DenseSubgraphConfig {
        params: config.shingle,
        mode: ReductionMode::GlobalSimilarity { tau },
        min_size: config.min_subgraph_size,
        disjoint: true,
    };
    state.shingle = ShingleStats::default();
    for c in &state.done {
        let graph = CsrGraph::from_edges(c.members.len(), &c.edges);
        let (_, stats) =
            detect_dense_subgraphs(&BipartiteGraph::duplicate_from(&graph), &dsd_config);
        state.shingle.absorb(&stats);
    }
    write_checkpoint(&dsd_path, Phase::Dsd, &state.encode()).expect("plant partial dsd.ckpt");
    let resumed = run_pipeline_checkpointed(&d.set, &config, &ckpt, true, None)
        .expect("resume mid-DSD")
        .expect("completes");
    assert!(resumed.traces.2.total_ledger_hits() > 0, "the stored ledger must answer");
    assert_same_result(&d.set, &resumed, &straight);
    let _ = std::fs::remove_dir_all(&ckpt.dir);
}

#[test]
fn a_version_2_checkpoint_is_refused() {
    // v2 files hold neither ledger nor deferred pairs; there is no
    // compatibility path — the resume stops with the version it found.
    let d = dataset(4879);
    let config = PipelineConfig::for_tests();
    let ckpt = CheckpointConfig { dir: scratch_dir("v2"), every_batches: 0, every_components: 1 };
    run_pipeline_checkpointed(&d.set, &config, &ckpt, false, Some(Phase::Ccd)).expect("ccd run");
    let path = Phase::Ccd.path_in(&ckpt.dir);
    let mut bytes = std::fs::read(&path).expect("read ccd.ckpt");
    assert_eq!(&bytes[..4], MAGIC);
    assert_eq!(bytes[4..8], 3u32.to_le_bytes(), "this build writes version 3");
    bytes[4..8].copy_from_slice(&2u32.to_le_bytes());
    std::fs::write(&path, &bytes).expect("rewrite as v2");
    let err = run_pipeline_checkpointed(&d.set, &config, &ckpt, true, None).unwrap_err();
    assert!(matches!(err, CkptError::BadVersion(2)), "{err}");
    let _ = std::fs::remove_dir_all(&ckpt.dir);
}

#[test]
fn resume_without_checkpoints_just_runs() {
    let d = dataset(4872);
    let config = PipelineConfig::for_tests();
    let ckpt =
        CheckpointConfig { dir: scratch_dir("fresh"), every_batches: 0, every_components: 1 };
    let r = run_pipeline_checkpointed(&d.set, &config, &ckpt, true, None)
        .expect("run")
        .expect("completes");
    let straight = run_pipeline(&d.set, &config);
    assert_same_result(&d.set, &r, &straight);
    let _ = std::fs::remove_dir_all(&ckpt.dir);
}

#[test]
fn corrupt_checkpoint_is_rejected_not_trusted() {
    let d = dataset(4873);
    let config = PipelineConfig::for_tests();
    let ckpt =
        CheckpointConfig { dir: scratch_dir("corrupt"), every_batches: 0, every_components: 1 };
    run_pipeline_checkpointed(&d.set, &config, &ckpt, false, Some(Phase::Rr)).expect("rr run");
    let path = Phase::Rr.path_in(&ckpt.dir);
    let mut bytes = std::fs::read(&path).expect("read rr.ckpt");
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    std::fs::write(&path, &bytes).expect("corrupt rr.ckpt");
    assert!(
        run_pipeline_checkpointed(&d.set, &config, &ckpt, true, None).is_err(),
        "a checksum-failing checkpoint must abort the resume"
    );
    let _ = std::fs::remove_dir_all(&ckpt.dir);
}
