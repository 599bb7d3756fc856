//! Kill/resume integration tests: stop the checkpointed pipeline after
//! every phase boundary (and mid-CCD, and mid-DSD), resume from disk, and
//! require the final clustering — down to the rendered families.tsv text
//! — and all three work traces to be identical to the uninterrupted run:
//! `rr.ckpt` carries the pair ledger and `ccd.ckpt` the deferred pairs, so
//! a resumed run aligns exactly what an uninterrupted one does. A run that
//! starts at RR mines one suffix index in both clustering phases; a
//! resumed run mines its own, monolithic or in windows as its budget
//! allows — one pair stream either way, so the cursors here come from
//! either and resume under either.

mod common;

use std::sync::Arc;

use common::{assert_same_result, hooks_in, render_families, resume, run_until, scratch_dir};
use pfam::cluster::{ClusterCore, PairLedger, PhaseTrace};
use pfam::core::checkpoint::{
    read_checkpoint, write_checkpoint, CcdState, CkptError, DsdState, Enc, RrState, MAGIC,
};
use pfam::core::{
    run_pipeline, FillReport, Phase, PipelineConfig, PipelineError, PipelineHooks, Reduction,
};
use pfam::datagen::{DatasetConfig, MutationModel, SyntheticDataset};
use pfam::graph::CsrGraph;
use pfam::seq::{SeqId, SequenceSet, SequenceSetBuilder};

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

/// The directory `hooks` snapshot into.
fn dir_of(hooks: &PipelineHooks) -> &std::path::Path {
    hooks.checkpoint.as_deref().expect("hooks with a directory")
}

/// What a resume from `hooks`' directory ends in, when it must not run.
fn resume_error(set: &SequenceSet, config: &PipelineConfig, hooks: &PipelineHooks) -> CkptError {
    let hooks = PipelineHooks { resume: true, ..hooks.clone() };
    match run_pipeline(set, config, &hooks) {
        Err(PipelineError::Checkpoint(e)) => e,
        other => panic!("expected a checkpoint error, got {:?}", other.map(|r| r.is_some())),
    }
}

#[test]
fn kill_after_each_phase_then_resume_is_identical() {
    let d = dataset(4870);
    let config = PipelineConfig::for_tests();
    let straight = config.run(&d.set);
    for stop in [Phase::Rr, Phase::Ccd, Phase::Dsd] {
        let hooks = hooks_in(&scratch_dir(&format!("kill-{stop:?}")));
        run_until(&d.set, &config, &hooks, stop);
        assert_same_result(&d.set, &resume(&d.set, &config, &hooks), &straight);
        let _ = std::fs::remove_dir_all(dir_of(&hooks));
    }
}

/// Complete RR under `hooks`, then plant a genuine mid-CCD cursor — the
/// one `run` offers in the middle of its batch boundaries over RR's
/// survivors, answered by RR's ledger — as `ccd.ckpt`.
fn kill_mid_ccd(
    d: &SyntheticDataset,
    config: &PipelineConfig,
    hooks: &PipelineHooks,
    run: impl FnOnce(&[SeqId], &Arc<PairLedger>, &mut dyn FnMut(&ClusterCore<'_>)),
) {
    run_until(&d.set, config, hooks, Phase::Rr);
    let (_, fingerprint, payload) =
        read_checkpoint(&Phase::Rr.path_in(dir_of(hooks))).expect("rr.ckpt");
    let rr = pfam::core::checkpoint::RrState::decode(&payload).expect("decode rr");
    let kept: Vec<SeqId> = rr.kept.iter().map(|&i| SeqId(i)).collect();
    assert!(!rr.ledger.is_empty(), "rr.ckpt must carry the pair ledger");
    let ledger =
        Arc::new(PairLedger::from_entries(rr.ledger, rr.ledger_dropped, &config.cluster.budget));
    let mut cursors = Vec::new();
    run(&kept, &ledger, &mut |core| cursors.push(core.cursor()));
    let cursor = cursors.swap_remove(cursors.len() / 2);
    assert!(cursor.pairs_consumed > 0, "cursor must sit mid-phase");
    let state = CcdState { complete: false, cursor };
    write_checkpoint(&Phase::Ccd.path_in(dir_of(hooks)), Phase::Ccd, fingerprint, &state.encode())
        .expect("plant partial ccd.ckpt");
}

#[test]
fn resume_from_partial_ccd_cursor_is_identical() {
    // Simulate a crash *mid-CCD*: complete RR, then plant a genuine
    // partial cursor (complete = false) as ccd.ckpt and resume from it.
    // This one is cut over a copy of the survivors with its own index.
    let d = dataset(4871);
    let config = PipelineConfig::for_tests();
    let straight = config.run(&d.set);
    let hooks = hooks_in(&scratch_dir("mid-ccd"));
    kill_mid_ccd(&d, &config, &hooks, |kept, ledger, on_batch| {
        let (nr_set, _) = d.set.subset(kept);
        pfam::cluster::run_ccd_resumable(&nr_set, &config.cluster, ledger, None, on_batch);
    });
    assert_same_result(&d.set, &resume(&d.set, &config, &hooks), &straight);
    let _ = std::fs::remove_dir_all(dir_of(&hooks));
}

#[test]
fn kill_mid_ccd_on_the_shared_index_resumes_identically() {
    // The cursor is cut while CCD mines the index RR built (what a run
    // killed mid-CCD leaves behind); the resumed run has no such index
    // and builds one of its own.
    let d = dataset(4876);
    let config = PipelineConfig::for_tests();
    let straight = config.run(&d.set);
    let hooks = hooks_in(&scratch_dir("mid-ccd-shared"));
    kill_mid_ccd(&d, &config, &hooks, |kept, ledger, on_batch| {
        pfam::cluster::with_front_half(&d.set, &config.cluster, |front| {
            front.ccd_resumable(kept, ledger, None, on_batch);
        })
    });
    assert_same_result(&d.set, &resume(&d.set, &config, &hooks), &straight);
    let _ = std::fs::remove_dir_all(dir_of(&hooks));
}

/// A run killed mid-CCD under `cut` (with the RR checkpoint it wrote),
/// resumed under `resumed`: families.tsv and the fills line of the
/// uninterrupted run under `resumed`.
fn assert_mid_ccd_resumes_under_another_budget(
    tag: &str,
    cut: &PipelineConfig,
    resumed: &PipelineConfig,
) {
    let d = dataset(4877);
    let straight = resumed.run(&d.set);
    let hooks = hooks_in(&scratch_dir(tag));
    kill_mid_ccd(&d, cut, &hooks, |kept, ledger, on_batch| {
        pfam::cluster::with_front_half(&d.set, &cut.cluster, |front| {
            front.ccd_resumable(kept, ledger, None, on_batch);
        })
    });
    let got = resume(&d.set, resumed, &hooks);
    assert_eq!(render_families(&d.set, &got), render_families(&d.set, &straight), "{tag}");
    assert_eq!(
        FillReport::from_result(&got).to_string(),
        FillReport::from_result(&straight).to_string(),
        "{tag}: fills line"
    );
    assert_same_result(&d.set, &got, &straight);
    let _ = std::fs::remove_dir_all(dir_of(&hooks));
}

/// A budget at two fifths of `d`'s monolithic index: both phases mine
/// windows.
fn windowed(config: &PipelineConfig, d: &SyntheticDataset) -> PipelineConfig {
    let estimate = pfam::suffix::estimated_index_bytes(d.set.total_residues(), d.set.len());
    config.clone().with_mem_budget(estimate * 2 / 5)
}

#[test]
fn a_ccd_checkpoint_cut_under_a_budget_resumes_without_one() {
    let config = PipelineConfig::for_tests();
    let budgeted = windowed(&config, &dataset(4877));
    assert_mid_ccd_resumes_under_another_budget("budget-to-none", &budgeted, &config);
}

#[test]
fn a_ccd_checkpoint_cut_without_a_budget_resumes_under_one() {
    let config = PipelineConfig::for_tests();
    let budgeted = windowed(&config, &dataset(4877));
    assert_mid_ccd_resumes_under_another_budget("none-to-budget", &config, &budgeted);
}

/// The DSD state a run stopped after DSD left under `hooks`.
fn finished_dsd(hooks: &PipelineHooks) -> DsdState {
    let (_, _, payload) = read_checkpoint(&Phase::Dsd.path_in(dir_of(hooks))).expect("dsd.ckpt");
    DsdState::decode(&payload).expect("dsd state")
}

/// `state` as a payload.
fn encode_dsd(state: &DsdState) -> Vec<u8> {
    DsdState::encode(state.done.iter().map(|(position, out)| (*position, out)))
}

/// Plant as `dsd.ckpt` under `hooks` the components of the finished state
/// `done` whose queue positions `keep` takes, as a run killed once just
/// those had finished leaves it: their graphs, subgraphs, BGG records and
/// Shingle counters, nothing of the rest.
fn plant_dsd(hooks: &PipelineHooks, done: &DsdState, keep: impl Fn(usize) -> bool) {
    let dsd_path = Phase::Dsd.path_in(dir_of(hooks));
    let (_, fingerprint, _) = read_checkpoint(&dsd_path).expect("dsd.ckpt");
    let mut state = done.clone();
    state.done.retain(|&(position, _)| keep(position));
    assert!(state.done.len() < done.done.len(), "a kill leaves work to do");
    write_checkpoint(&dsd_path, Phase::Dsd, fingerprint, &encode_dsd(&state))
        .expect("plant partial dsd.ckpt");
}

#[test]
fn a_dsd_snapshot_of_any_finished_subset_resumes_identically() {
    // The back half's workers finish components in whatever order their
    // costs allow, so a snapshot holds whichever have finished. A resume
    // from any such subset runs the rest and must write the straight
    // run's result.
    let d = dataset(4875);
    let config = PipelineConfig::for_tests();
    let straight = config.run(&d.set);
    let hooks = hooks_in(&scratch_dir("dsd-subsets"));
    run_until(&d.set, &config, &hooks, Phase::Dsd);
    // The phase end saves every component once, under its queue position.
    let done = finished_dsd(&hooks);
    let k = done.done.len();
    assert!(k >= 3, "need a queue with a middle, got {k} components");
    let saved: Vec<_> = done.done.iter().map(|(position, out)| (*position, &out.graph)).collect();
    assert_eq!(saved, straight.component_graphs.iter().enumerate().collect::<Vec<_>>());
    // The first one dispatched: the most deferred pairs to verify, then
    // the first in the queue.
    let weight = |p: usize| (done.done[p].1.record.n_generated, std::cmp::Reverse(p));
    let heaviest = (0..k).max_by_key(|&p| weight(p)).expect("components");
    let subsets: [(&str, &dyn Fn(usize) -> bool); 4] = [
        ("the first component", &|p| p == 0),
        ("the last component", &|p| p == k - 1),
        ("every other component", &|p| p % 2 == 0),
        ("all but the heaviest", &|p| p != heaviest),
    ];
    for (what, keep) in subsets {
        plant_dsd(&hooks, &done, keep);
        eprintln!("resuming from a dsd.ckpt holding {what}");
        assert_same_result(&d.set, &resume(&d.set, &config, &hooks), &straight);
    }
    let _ = std::fs::remove_dir_all(dir_of(&hooks));
}

#[test]
fn kill_mid_dsd_resumes_identically() {
    // What a run killed between two DSD snapshots leaves behind: complete
    // rr.ckpt and ccd.ckpt, and a dsd.ckpt holding some of the queue.
    // The resumed run must build the remaining graphs from the stored
    // ledger and deferred pairs — same fills, same ledger hits.
    let d = dataset(4878);
    let config = PipelineConfig::for_tests();
    let straight = config.run(&d.set);
    let hooks = hooks_in(&scratch_dir("mid-dsd"));
    run_until(&d.set, &config, &hooks, Phase::Dsd);
    let done = finished_dsd(&hooks);
    assert!(done.done.len() >= 2, "need a queue to cut");
    plant_dsd(&hooks, &done, |position| position == 0);
    let resumed = resume(&d.set, &config, &hooks);
    assert!(resumed.traces.2.total_ledger_hits() > 0, "the stored ledger must answer");
    assert_same_result(&d.set, &resumed, &straight);
    let _ = std::fs::remove_dir_all(dir_of(&hooks));
}

#[test]
fn a_version_2_checkpoint_is_refused() {
    // v2 files hold neither ledger nor deferred pairs, v3 files no
    // fingerprint; there is no compatibility path — the resume stops with
    // the version it found.
    let d = dataset(4879);
    let config = PipelineConfig::for_tests();
    let hooks = hooks_in(&scratch_dir("v2"));
    run_until(&d.set, &config, &hooks, Phase::Ccd);
    let path = Phase::Ccd.path_in(dir_of(&hooks));
    let mut bytes = std::fs::read(&path).expect("read ccd.ckpt");
    assert_eq!(&bytes[..4], MAGIC);
    assert_eq!(bytes[4..8], 9u32.to_le_bytes(), "this build writes version 9");
    for old in [2u32, 3, 4, 5, 6, 7, 8] {
        bytes[4..8].copy_from_slice(&old.to_le_bytes());
        std::fs::write(&path, &bytes).expect("rewrite as an older version");
        let err = resume_error(&d.set, &config, &hooks);
        assert!(matches!(err, CkptError::BadVersion(v) if v == old), "{err}");
    }
    // A whole v3 file — a 24-byte header, no fingerprint — as well.
    let v3 = [&bytes[..4], &3u32.to_le_bytes(), &bytes[8..12], &bytes[20..]].concat();
    std::fs::write(&path, v3).expect("plant a v3 file");
    assert!(matches!(resume_error(&d.set, &config, &hooks), CkptError::BadVersion(3)));
    let _ = std::fs::remove_dir_all(dir_of(&hooks));
}

#[test]
fn a_version_4_directory_is_refused_before_any_phase_runs() {
    // v4, v5 and v6 files are laid out alike, and v7 and v8 files but for
    // the CCD cursor: a v4 plan pin counts bytes of the 16-byte-per-position
    // index estimate, a v5 fingerprint folds the sketch mode, a v6 cursor
    // carries a plan pin v7 no longer has, a v7 fingerprint folds no
    // residue, and a v8 dsd.ckpt is a prefix of the queue with running
    // totals. A whole older directory stops at its first file, untouched.
    let d = dataset(4883);
    let config = PipelineConfig::for_tests();
    let hooks = hooks_in(&scratch_dir("v4-to-v8"));
    run_until(&d.set, &config, &hooks, Phase::Dsd);
    let paths = [Phase::Rr, Phase::Ccd, Phase::Dsd].map(|phase| phase.path_in(dir_of(&hooks)));
    for old in [4u32, 5, 6, 7, 8] {
        let planted: Vec<Vec<u8>> = paths
            .iter()
            .map(|path| {
                let mut bytes = std::fs::read(path).expect("read a snapshot");
                bytes[4..8].copy_from_slice(&old.to_le_bytes());
                std::fs::write(path, &bytes).expect("rewrite as an older version");
                bytes
            })
            .collect();
        let err = resume_error(&d.set, &config, &hooks);
        assert!(matches!(err, CkptError::BadVersion(v) if v == old), "{err}");
        for (path, bytes) in paths.iter().zip(&planted) {
            assert_eq!(&std::fs::read(path).expect("still there"), bytes, "no phase ran");
        }
    }
    let _ = std::fs::remove_dir_all(dir_of(&hooks));
}

/// The layouts earlier writers gave a trace: today's columns with these
/// retired counters between `cells_skipped` and `n_ledger_hits` — the
/// leased loop's `n_requeued` alone, and before that the supervision
/// plane's three after it.
const RETIRED_LAYOUTS: [&[&str]; 2] =
    [&["n_requeued"], &["n_requeued", "n_retries", "n_spec_issued", "n_spec_wins"]];

/// `trace` as a writer of one of [`RETIRED_LAYOUTS`] wrote it: the
/// `retired` columns spliced in before today's last one, holding values
/// that a parser shifting columns would put into a live field.
fn tsv_with_the_retired_counters(trace: &PhaseTrace, retired: &[&str]) -> String {
    let values: Vec<String> = (6..6 + retired.len()).map(|v| v.to_string()).collect();
    let mut out = String::new();
    for (i, line) in trace.to_tsv().lines().enumerate() {
        let spliced = match (i, line.rsplit_once('\t')) {
            (1, Some((head, last))) => {
                assert!(head.ends_with("cells_skipped") && last == "n_ledger_hits", "{line}");
                format!("{head}\t{}\t{last}", retired.join("\t"))
            }
            (2.., Some((head, last))) => format!("{head}\t{}\t{last}", values.join("\t")),
            _ => line.to_owned(),
        };
        out.push_str(&spliced);
        out.push('\n');
    }
    out
}

#[test]
fn a_directory_written_with_the_retired_trace_columns_resumes() {
    // Every snapshot ends in its phase's trace as TSV. Dropping columns
    // did not bump the format version, so a directory whose traces still
    // carry them has to resume — each value in its field.
    let d = dataset(4882);
    let config = PipelineConfig::for_tests();
    let straight = config.run(&d.set);
    assert!(straight.traces.1.total_ledger_hits() + straight.traces.2.total_ledger_hits() > 0);
    let hooks = hooks_in(&scratch_dir("retired-columns"));
    run_until(&d.set, &config, &hooks, Phase::Dsd);
    let as_payload_tail = |tsv: String| {
        let mut e = Enc::new();
        e.str(&tsv);
        e.finish()
    };
    let snapshots = [Phase::Rr, Phase::Ccd, Phase::Dsd].map(|phase| {
        let path = phase.path_in(dir_of(&hooks));
        let (_, fingerprint, payload) = read_checkpoint(&path).expect("read the snapshot");
        let trace = match phase {
            Phase::Rr => RrState::decode(&payload).expect("rr state").trace,
            Phase::Ccd => CcdState::decode(&payload).expect("ccd state").cursor.trace,
            Phase::Dsd => {
                let state = DsdState::decode(&payload).expect("dsd state");
                let batches = state.done.into_iter().map(|(_, out)| out.record).collect();
                PhaseTrace { batches, ..PhaseTrace::default() }
            }
        };
        let written = as_payload_tail(trace.to_tsv());
        assert!(payload.ends_with(&written), "the trace is the payload's last field");
        let head = payload[..payload.len() - written.len()].to_vec();
        (phase, path, fingerprint, head, trace)
    });
    for retired in RETIRED_LAYOUTS {
        for (phase, path, fingerprint, head, trace) in &snapshots {
            let tail = as_payload_tail(tsv_with_the_retired_counters(trace, retired));
            let planted = [head.as_slice(), &tail].concat();
            write_checkpoint(path, *phase, *fingerprint, &planted).expect("plant the older layout");
        }
        assert_same_result(&d.set, &resume(&d.set, &config, &hooks), &straight);
    }
    let _ = std::fs::remove_dir_all(dir_of(&hooks));
}

#[test]
fn resume_under_other_parameters_or_input_is_a_mismatch() {
    // A resumed run answers for the input and the parameters it is given,
    // or not at all: every snapshot names what it was computed from.
    let d = dataset(4880);
    let config = PipelineConfig::for_tests();
    let straight = config.run(&d.set);
    let mut other_psi = config.clone();
    other_psi.cluster.psi_ccd += 1;
    let other_tau =
        PipelineConfig { reduction: Reduction::GlobalSimilarity { tau: 0.9 }, ..config.clone() };
    // What cannot change the answer does not block the resume: another
    // thread count or another budget mines the same pair stream and
    // repeats the work.
    let estimate = pfam::suffix::estimated_index_bytes(d.set.total_residues(), d.set.len());
    let mut one_thread = config.clone();
    one_thread.cluster.threads = 1;
    let unchanged = [
        one_thread,
        config.clone().with_mem_budget(estimate * 2 / 5),
        config.clone().with_mem_budget(estimate / 4),
    ];
    let hooks = hooks_in(&scratch_dir("mismatch"));
    for stop in [Phase::Rr, Phase::Ccd, Phase::Dsd] {
        for unchanged in &unchanged {
            let _ = std::fs::remove_dir_all(dir_of(&hooks));
            run_until(&d.set, &config, &hooks, stop);
            for changed in [&other_psi, &other_tau] {
                let err = resume_error(&d.set, changed, &hooks);
                assert!(matches!(err, CkptError::Mismatch("rr.ckpt")), "{stop:?}: {err}");
            }
            let resumed = resume(&d.set, unchanged, &hooks);
            assert_same_result(&d.set, &resumed, &straight);
            assert_eq!(render_families(&d.set, &resumed), render_families(&d.set, &straight));
        }
    }

    // As many reads, other lengths.
    let other = dataset(4881).set;
    let first_n: Vec<SeqId> = (0..d.set.len().min(other.len()) as u32).map(SeqId).collect();
    let (reads, other) = (d.set.subset(&first_n).0, other.subset(&first_n).0);
    let _ = std::fs::remove_dir_all(dir_of(&hooks));
    run_until(&reads, &config, &hooks, Phase::Dsd);
    let err = resume_error(&other, &config, &hooks);
    assert!(matches!(err, CkptError::Mismatch("rr.ckpt")), "{err}");
    let _ = std::fs::remove_dir_all(dir_of(&hooks));
}

#[test]
fn a_one_residue_edit_of_the_input_is_a_mismatch() {
    // Every length kept, one residue of one read changed in place: the
    // snapshots answer for the other input, so the resume must refuse them
    // at every phase boundary instead of returning their families.
    let d = dataset(4884);
    let config = PipelineConfig::for_tests();
    let mut edited = SequenceSetBuilder::new();
    for id in d.set.ids() {
        let mut codes = d.set.codes(id).to_vec();
        if id == SeqId(0) {
            codes[5] = (codes[5] + 1) % 20;
        }
        edited.push_codes(d.set.header(id).to_owned(), codes).expect("a non-empty read");
    }
    let edited = edited.finish();
    assert_ne!(edited.codes(SeqId(0)), d.set.codes(SeqId(0)));
    let hooks = hooks_in(&scratch_dir("one-residue"));
    for stop in [Phase::Rr, Phase::Ccd, Phase::Dsd] {
        let _ = std::fs::remove_dir_all(dir_of(&hooks));
        run_until(&d.set, &config, &hooks, stop);
        let err = resume_error(&edited, &config, &hooks);
        assert!(matches!(err, CkptError::Mismatch("rr.ckpt")), "{stop:?}: {err}");
    }
    let _ = std::fs::remove_dir_all(dir_of(&hooks));
}

#[test]
fn resume_without_checkpoints_just_runs() {
    let d = dataset(4872);
    let config = PipelineConfig::for_tests();
    let hooks = hooks_in(&scratch_dir("fresh"));
    let r = resume(&d.set, &config, &hooks);
    assert_same_result(&d.set, &r, &config.run(&d.set));
    let _ = std::fs::remove_dir_all(dir_of(&hooks));
}

#[test]
fn corrupt_checkpoint_is_rejected_not_trusted() {
    let d = dataset(4873);
    let config = PipelineConfig::for_tests();
    let hooks = hooks_in(&scratch_dir("corrupt"));
    run_until(&d.set, &config, &hooks, Phase::Rr);
    let path = Phase::Rr.path_in(dir_of(&hooks));
    let mut bytes = std::fs::read(&path).expect("read rr.ckpt");
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    std::fs::write(&path, &bytes).expect("corrupt rr.ckpt");
    let err = resume_error(&d.set, &config, &hooks);
    assert!(matches!(err, CkptError::BadChecksum), "a failing checksum must abort the resume");
    let _ = std::fs::remove_dir_all(dir_of(&hooks));
}

/// Run until `phase` is snapshotted, rewrite its file through `edit` (the
/// payload and the input's read count in, a payload out) under a valid
/// checksum and fingerprint, and return what the resume ends in.
fn resume_from_planted(
    tag: &str,
    phase: Phase,
    edit: impl FnOnce(&[u8], usize) -> Vec<u8>,
) -> CkptError {
    let d = dataset(4884);
    let config = PipelineConfig::for_tests();
    let hooks = hooks_in(&scratch_dir(tag));
    run_until(&d.set, &config, &hooks, phase);
    let path = phase.path_in(dir_of(&hooks));
    let (_, fingerprint, payload) = read_checkpoint(&path).expect("read the snapshot");
    write_checkpoint(&path, phase, fingerprint, &edit(&payload, d.set.len()))
        .expect("plant the edited snapshot");
    let err = resume_error(&d.set, &config, &hooks);
    let _ = std::fs::remove_dir_all(dir_of(&hooks));
    err
}

#[test]
fn a_union_find_parent_outside_the_forest_is_corrupt_not_a_panic() {
    let err = resume_from_planted("uf-parent", Phase::Ccd, |payload, _| {
        let mut state = CcdState::decode(payload).expect("ccd state");
        state.cursor.uf_parent[0] = state.cursor.uf_parent.len() as u32;
        state.encode()
    });
    assert!(matches!(err, CkptError::Corrupt(_)), "{err}");
}

#[test]
fn a_dsd_edge_outside_its_component_is_corrupt_not_a_panic() {
    let err = resume_from_planted("dsd-edge", Phase::Dsd, |payload, _| {
        let mut state = DsdState::decode(payload).expect("dsd state");
        let out = &mut state.done[0].1;
        let n = out.graph.members.len();
        out.graph.graph = CsrGraph::from_edges(n + 1, &[(0, n as u32)]);
        encode_dsd(&state)
    });
    assert!(matches!(err, CkptError::Corrupt(_)), "{err}");
}

#[test]
fn a_dense_subgraph_outside_its_component_is_corrupt_not_a_panic() {
    let err = resume_from_planted("dsd-subgraph", Phase::Dsd, |payload, _| {
        let mut state = DsdState::decode(payload).expect("dsd state");
        let dense = state.done.iter_mut().find(|(_, out)| !out.subgraphs.is_empty());
        let (_, out) = dense.expect("a subgraph");
        out.subgraphs[0][0] = out.graph.members.len() as u32;
        encode_dsd(&state)
    });
    assert!(matches!(err, CkptError::Corrupt(_)), "{err}");
}

/// [`resume_from_planted`] with the finished `dsd.ckpt` edited by `edit`.
fn resume_from_edited_dsd(tag: &str, edit: fn(&mut DsdState)) -> CkptError {
    resume_from_planted(tag, Phase::Dsd, |payload, _| {
        let mut state = DsdState::decode(payload).expect("dsd state");
        assert!(state.done.len() >= 2, "need two components");
        edit(&mut state);
        encode_dsd(&state)
    })
}

#[test]
fn a_dsd_entry_that_is_not_in_the_queue_is_corrupt_not_a_panic() {
    // Positions are the only link between a stored component and the
    // queue: one past its end, one stored twice, and two components under
    // each other's positions (members that differ from the component
    // there) must all be refused.
    let err = resume_from_edited_dsd("dsd-past-end", |state| state.done[0].0 = state.done.len());
    assert!(matches!(err, CkptError::Corrupt(_)), "past the end: {err}");
    let err = resume_from_edited_dsd("dsd-twice", |state| state.done.push(state.done[0].clone()));
    assert!(matches!(err, CkptError::Corrupt(_)), "stored twice: {err}");
    let err = resume_from_edited_dsd("dsd-swap", |state| {
        let (a, b) = (state.done[0].0, state.done[1].0);
        state.done[0].0 = b;
        state.done[1].0 = a;
    });
    assert!(matches!(err, CkptError::Corrupt(_)), "other members: {err}");
}

#[test]
fn a_cursor_past_the_end_of_the_ccd_stream_resumes_at_its_end() {
    // A valid ccd.ckpt, marked incomplete, whose cursor counts more pairs
    // than the stream holds: the resumed run starts at the stream's end
    // and finishes with the clustering the cursor carries.
    let d = dataset(4885);
    let config = PipelineConfig::for_tests();
    let straight = config.run(&d.set);
    let hooks = hooks_in(&scratch_dir("past-the-end"));
    for past in [|n: u64| n + 1, |_| u64::MAX] {
        run_until(&d.set, &config, &hooks, Phase::Ccd);
        let path = Phase::Ccd.path_in(dir_of(&hooks));
        let (_, fingerprint, payload) = read_checkpoint(&path).expect("ccd.ckpt");
        let mut state = CcdState::decode(&payload).expect("ccd state");
        let stream = state.cursor.trace.total_generated() as u64;
        assert!(stream > 0 && state.cursor.pairs_consumed == stream, "a completed phase");
        state.complete = false;
        state.cursor.pairs_consumed = past(stream);
        write_checkpoint(&path, Phase::Ccd, fingerprint, &state.encode())
            .expect("plant the cursor past the end");
        assert_same_result(&d.set, &resume(&d.set, &config, &hooks), &straight);
        let _ = std::fs::remove_dir_all(dir_of(&hooks));
    }
}

#[test]
fn a_survivor_outside_the_input_is_corrupt_not_a_panic() {
    let err = resume_from_planted("rr-kept", Phase::Rr, |payload, n_input| {
        let mut state = RrState::decode(payload).expect("rr state");
        *state.kept.last_mut().expect("survivors") = n_input as u32;
        state.encode()
    });
    assert!(matches!(err, CkptError::Corrupt(_)), "{err}");
}
