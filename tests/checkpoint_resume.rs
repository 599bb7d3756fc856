//! Kill/resume integration tests: leave the checkpoint directory as a run
//! killed in or after each phase (and mid-DSD) leaves it — one file per
//! finished unit, nothing of the unit in flight — resume from disk, and
//! require the final clustering — down to the rendered families.tsv text —
//! and all three work traces to be identical to the uninterrupted run:
//! `rr.ckpt` carries the pair ledger and `ccd.ckpt` the deferred pairs, so
//! a resumed run aligns exactly what an uninterrupted one does. A run that
//! starts at RR mines one suffix index in both clustering phases; a run
//! resumed from `rr.ckpt` mines its own, monolithic or in windows as its
//! budget allows — one pair stream either way, so the files here come from
//! either and resume under either.

mod common;

use common::{assert_same_result, hooks_in, render_families, resume, run_until, scratch_dir};
use pfam::cluster::PhaseTrace;
use pfam::core::checkpoint::{
    component_files, component_path, read_checkpoint, write_checkpoint, CcdState, CkptError,
    DsdState, Enc, RrState, MAGIC,
};
use pfam::core::{
    run_pipeline, FillReport, Phase, PipelineConfig, PipelineError, PipelineHooks, Reduction,
};
use pfam::datagen::{DatasetConfig, MutationModel, SyntheticDataset};
use pfam::graph::CsrGraph;
use pfam::seq::{SeqId, SequenceSet, SequenceSetBuilder};

fn dataset(seed: u64) -> SyntheticDataset {
    SyntheticDataset::generate(&dataset_config(seed))
}

fn dataset_config(seed: u64) -> DatasetConfig {
    DatasetConfig {
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
    }
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
        other => panic!("expected a checkpoint error, got {:?}", other.map(|_| "a result")),
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

#[test]
fn kill_mid_ccd_on_the_shared_index_resumes_identically() {
    // A run killed in CCD, while it mines the index RR built, leaves
    // `rr.ckpt` and nothing of CCD. The resumed run has no such index: it
    // builds one of its own, runs CCD from its start, and writes what the
    // killed run did not.
    let d = dataset(4876);
    let config = PipelineConfig::for_tests();
    let straight = config.run(&d.set);
    let hooks = hooks_in(&scratch_dir("mid-ccd-shared"));
    run_until(&d.set, &config, &hooks, Phase::Rr);
    let resumed = resume(&d.set, &config, &hooks);
    assert_same_result(&d.set, &resumed, &straight);
    let written = resumed.checkpoints.expect("a run with a directory reports them").phases;
    assert_eq!(written.map(|(count, _)| count), [0, 1, straight.component_graphs.len()]);
    let _ = std::fs::remove_dir_all(dir_of(&hooks));
}

/// A run killed in CCD or after it under `cut`, resumed under `resumed`:
/// families.tsv and the fills line of the uninterrupted run under
/// `resumed`.
fn assert_ccd_resumes_under_another_budget(
    tag: &str,
    cut: &PipelineConfig,
    resumed: &PipelineConfig,
) {
    let d = dataset(4877);
    let straight = resumed.run(&d.set);
    for stop in [Phase::Rr, Phase::Ccd] {
        let hooks = hooks_in(&scratch_dir(&format!("{tag}-{stop:?}")));
        run_until(&d.set, cut, &hooks, stop);
        let got = resume(&d.set, resumed, &hooks);
        let what = format!("{tag}, killed after {stop:?}");
        assert_eq!(render_families(&d.set, &got), render_families(&d.set, &straight), "{what}");
        assert_eq!(
            FillReport::from_result(&got).to_string(),
            FillReport::from_result(&straight).to_string(),
            "{what}: fills line"
        );
        assert_same_result(&d.set, &got, &straight);
        let _ = std::fs::remove_dir_all(dir_of(&hooks));
    }
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
    assert_ccd_resumes_under_another_budget("budget-to-none", &budgeted, &config);
}

#[test]
fn a_ccd_checkpoint_cut_without_a_budget_resumes_under_one() {
    let config = PipelineConfig::for_tests();
    let budgeted = windowed(&config, &dataset(4877));
    assert_ccd_resumes_under_another_budget("none-to-budget", &config, &budgeted);
}

/// The components a finished run left under `hooks`, one file each, in
/// queue order.
fn finished_components(hooks: &PipelineHooks) -> Vec<DsdState> {
    let decode = |path: &std::path::PathBuf| {
        let (_, _, payload) = read_checkpoint(path).expect("a component file");
        DsdState::decode(&payload).expect("dsd state")
    };
    let files = component_files(dir_of(hooks)).expect("the component files");
    let mut done: Vec<DsdState> = files.iter().map(decode).collect();
    done.sort_by_key(|state| state.position);
    done
}

/// Delete under `hooks` the component files whose queue positions `keep`
/// does not take, as a run killed once just those had finished leaves the
/// directory.
fn keep_components(hooks: &PipelineHooks, keep: impl Fn(usize) -> bool) {
    let n = component_files(dir_of(hooks)).expect("the component files").len();
    let gone: Vec<usize> = (0..n).filter(|&position| !keep(position)).collect();
    assert!(!gone.is_empty(), "a kill leaves work to do");
    for position in gone {
        std::fs::remove_file(component_path(dir_of(hooks), position)).expect("a component file");
    }
}

#[test]
fn a_dsd_snapshot_of_any_finished_subset_resumes_identically() {
    // The back half's workers finish components in whatever order their
    // costs allow, so a kill leaves the files of whichever have finished.
    // A resume from any such subset runs the rest and must write the
    // straight run's result.
    let d = dataset(4875);
    let config = PipelineConfig::for_tests();
    let straight = config.run(&d.set);
    let hooks = hooks_in(&scratch_dir("dsd-subsets"));
    run_until(&d.set, &config, &hooks, Phase::Dsd);
    // A straight run saves every component once, under its queue position.
    let done = finished_components(&hooks);
    let k = done.len();
    assert!(k >= 3, "need a queue with a middle, got {k} components");
    let saved: Vec<_> = done.iter().map(|state| (state.position, &state.output.graph)).collect();
    assert_eq!(saved, straight.component_graphs.iter().enumerate().collect::<Vec<_>>());
    // The first one dispatched: the most deferred pairs to verify, then
    // the first in the queue.
    let weight = |p: usize| (done[p].output.record.n_generated, std::cmp::Reverse(p));
    let heaviest = (0..k).max_by_key(|&p| weight(p)).expect("components");
    let subsets: [(&str, &dyn Fn(usize) -> bool); 4] = [
        ("the first component", &|p| p == 0),
        ("the last component", &|p| p == k - 1),
        ("every other component", &|p| p % 2 == 0),
        ("all but the heaviest", &|p| p != heaviest),
    ];
    for (what, keep) in subsets {
        keep_components(&hooks, keep);
        eprintln!("resuming from the component files of {what}");
        assert_same_result(&d.set, &resume(&d.set, &config, &hooks), &straight);
        // The resume saved what it ran: the directory is whole again.
        assert_eq!(finished_components(&hooks), done, "{what}");
    }
    let _ = std::fs::remove_dir_all(dir_of(&hooks));
}

#[test]
fn kill_mid_dsd_resumes_identically() {
    // What a run killed mid-DSD leaves behind: complete rr.ckpt and
    // ccd.ckpt, and the files of the components that had finished. The
    // resumed run must build the remaining graphs from the stored ledger
    // and deferred pairs — same fills, same ledger hits.
    let d = dataset(4878);
    let config = PipelineConfig::for_tests();
    let straight = config.run(&d.set);
    let hooks = hooks_in(&scratch_dir("mid-dsd"));
    run_until(&d.set, &config, &hooks, Phase::Dsd);
    assert!(finished_components(&hooks).len() >= 2, "need a queue to cut");
    keep_components(&hooks, |position| position == 0);
    let resumed = resume(&d.set, &config, &hooks);
    assert!(resumed.traces.2.total_ledger_hits() > 0, "the stored ledger must answer");
    assert_same_result(&d.set, &resumed, &straight);
    let _ = std::fs::remove_dir_all(dir_of(&hooks));
}

#[test]
fn a_checkpointed_run_writes_each_component_once() {
    // No cadence and no re-encode: the DSD count of the `checkpoints:` line
    // is the queue's length, and its bytes are the component files'.
    let d = dataset(4886);
    let config = PipelineConfig::for_tests();
    let hooks = hooks_in(&scratch_dir("write-once"));
    let r = run_pipeline(&d.set, &config, &hooks).expect("a checkpointed run");
    let (count, bytes) = r.checkpoints.expect("a run with a directory reports them").phases[2];
    assert_eq!(count, r.component_graphs.len());
    let files = component_files(dir_of(&hooks)).expect("the component files");
    assert_eq!(files.len(), count, "one file per component");
    let on_disk: u64 =
        files.iter().map(|path| std::fs::metadata(path).expect("a file").len()).sum();
    assert_eq!(bytes, on_disk);
    let _ = std::fs::remove_dir_all(dir_of(&hooks));
}

#[test]
fn a_fresh_run_clears_the_components_an_earlier_run_left() {
    // A run over another input left more component files than this run's
    // queue holds. A fresh run deletes every one before it starts, so a
    // resume meets only its own.
    let d = dataset(4887);
    let config = PipelineConfig::for_tests();
    let straight = config.run(&d.set);
    let earlier =
        SyntheticDataset::generate(&DatasetConfig { n_families: 6, ..dataset_config(4888) });
    let hooks = hooks_in(&scratch_dir("stale-components"));
    let left = run_pipeline(&earlier.set, &config, &hooks).expect("the earlier run");
    assert!(left.component_graphs.len() > straight.component_graphs.len(), "more components");
    run_pipeline(&d.set, &config, &hooks).expect("a fresh run");
    let files = component_files(dir_of(&hooks)).expect("the component files");
    assert_eq!(files.len(), straight.component_graphs.len(), "only this run's components");
    assert_same_result(&d.set, &resume(&d.set, &config, &hooks), &straight);
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
    assert_eq!(bytes[4..8], 11u32.to_le_bytes(), "this build writes version 11");
    for old in 2u32..=10 {
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
    // v4, v5 and v6 files are laid out alike, and v7 to v9 files but for
    // the CCD cursor: a v4 plan pin counts bytes of the 16-byte-per-position
    // index estimate, a v5 fingerprint folds the sketch mode, a v6 cursor
    // carries a plan pin v7 no longer has, a v7 fingerprint folds no
    // residue, a v8 dsd.ckpt is a prefix of the queue with running totals,
    // a v9 dsd.ckpt holds the finished set behind a count, where v10
    // writes one file per component, and a v10 ccd.ckpt may be a mid-phase
    // cursor, where v11 holds the finished phase alone. A whole older
    // directory stops at its first file, untouched.
    let d = dataset(4883);
    let config = PipelineConfig::for_tests();
    let hooks = hooks_in(&scratch_dir("v4-to-v10"));
    run_until(&d.set, &config, &hooks, Phase::Dsd);
    let mut paths = [Phase::Rr, Phase::Ccd].map(|phase| phase.path_in(dir_of(&hooks))).to_vec();
    paths.extend(component_files(dir_of(&hooks)).expect("the component files"));
    for old in 4u32..=10 {
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
    // Every snapshot ends in its phase's trace as TSV — a component file in
    // its own BGG record, as a trace of one batch. Dropping columns
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
    let dir = dir_of(&hooks);
    let mut files =
        vec![(Phase::Rr, Phase::Rr.path_in(dir)), (Phase::Ccd, Phase::Ccd.path_in(dir))];
    let components = component_files(dir).expect("the component files");
    files.extend(components.into_iter().map(|path| (Phase::Dsd, path)));
    let snapshots: Vec<_> = files
        .into_iter()
        .map(|(phase, path)| {
            let (_, fingerprint, payload) = read_checkpoint(&path).expect("read the snapshot");
            let trace = match phase {
                Phase::Rr => RrState::decode(&payload).expect("rr state").trace,
                Phase::Ccd => CcdState::decode(&payload).expect("ccd state").trace,
                Phase::Dsd => {
                    let record = DsdState::decode(&payload).expect("dsd state").output.record;
                    PhaseTrace { batches: vec![record], ..PhaseTrace::default() }
                }
            };
            let written = as_payload_tail(trace.to_tsv());
            assert!(payload.ends_with(&written), "the trace is the payload's last field");
            let head = payload[..payload.len() - written.len()].to_vec();
            (phase, path, fingerprint, head, trace)
        })
        .collect();
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
fn a_ccd_pair_outside_the_survivors_is_corrupt_not_a_panic() {
    // `ccd.ckpt` names reads by their place among RR's survivors: an edge
    // or a deferred pair past them, and a survivor count `rr.ckpt` does
    // not have, would rebuild a forest over reads that are not there.
    type Edit = fn(&mut CcdState);
    let edits: [(&str, Edit); 4] = [
        ("ccd-edge", |s| s.edges[0].1 = s.survivors as u32),
        ("ccd-deferred", |s| s.deferred.push((0, s.survivors as u32))),
        ("ccd-more-survivors", |s| s.survivors += 1),
        ("ccd-fewer-survivors", |s| s.survivors -= 1),
    ];
    for (tag, edit) in edits {
        let err = resume_from_planted(tag, Phase::Ccd, |payload, _| {
            let mut state = CcdState::decode(payload).expect("ccd state");
            edit(&mut state);
            state.encode()
        });
        assert!(matches!(err, CkptError::Corrupt(_)), "{tag}: {err}");
    }
}

/// Run to the end, rewrite its component files from what `edit` makes of
/// them — file `dsd-<i>.ckpt` holds entry `i` — under a valid checksum and
/// fingerprint, and return what the resume ends in.
fn resume_from_edited_components(tag: &str, edit: impl FnOnce(&mut Vec<DsdState>)) -> CkptError {
    let d = dataset(4884);
    let config = PipelineConfig::for_tests();
    let hooks = hooks_in(&scratch_dir(tag));
    run_until(&d.set, &config, &hooks, Phase::Dsd);
    let dir = dir_of(&hooks);
    let (_, fingerprint, _) = read_checkpoint(&component_path(dir, 0)).expect("dsd-0.ckpt");
    let mut states = finished_components(&hooks);
    assert!(states.len() >= 2, "need two components");
    edit(&mut states);
    for (i, state) in states.iter().enumerate() {
        let payload = DsdState::encode(state.position, &state.output);
        write_checkpoint(&component_path(dir, i), Phase::Dsd, fingerprint, &payload)
            .expect("plant the edited component");
    }
    let err = resume_error(&d.set, &config, &hooks);
    let _ = std::fs::remove_dir_all(dir);
    err
}

#[test]
fn a_dsd_edge_outside_its_component_is_corrupt_not_a_panic() {
    let err = resume_from_edited_components("dsd-edge", |states| {
        let out = &mut states[0].output;
        let n = out.graph.members.len();
        out.graph.graph = CsrGraph::from_edges(n + 1, &[(0, n as u32)]);
    });
    assert!(matches!(err, CkptError::Corrupt(_)), "{err}");
}

#[test]
fn a_dense_subgraph_outside_its_component_is_corrupt_not_a_panic() {
    let err = resume_from_edited_components("dsd-subgraph", |states| {
        let dense = states.iter_mut().find(|state| !state.output.subgraphs.is_empty());
        let out = &mut dense.expect("a subgraph").output;
        out.subgraphs[0][0] = out.graph.members.len() as u32;
    });
    assert!(matches!(err, CkptError::Corrupt(_)), "{err}");
}

#[test]
fn a_dsd_entry_that_is_not_in_the_queue_is_corrupt_not_a_panic() {
    // Positions are the only link between a component file and the queue:
    // one past its end, one held by two files, and two files under each
    // other's positions (members that differ from the component there)
    // must all be refused.
    let err = resume_from_edited_components("dsd-past-end", |s| s[0].position = s.len());
    assert!(matches!(err, CkptError::Corrupt(_)), "past the end: {err}");
    let err = resume_from_edited_components("dsd-twice", |s| s.push(s[0].clone()));
    assert!(matches!(err, CkptError::Corrupt(_)), "held by two files: {err}");
    let err = resume_from_edited_components("dsd-swap", |s| {
        let (a, b) = (s[0].position, s[1].position);
        s[0].position = b;
        s[1].position = a;
    });
    assert!(matches!(err, CkptError::Corrupt(_)), "other members: {err}");
}

#[test]
fn a_component_file_of_another_run_is_a_mismatch() {
    // Each component file carries the fingerprint of the run that wrote
    // it: one another run wrote is refused, not slotted into this queue.
    let d = dataset(4889);
    let config = PipelineConfig::for_tests();
    let hooks = hooks_in(&scratch_dir("dsd-mismatch"));
    run_until(&d.set, &config, &hooks, Phase::Dsd);
    let path = component_path(dir_of(&hooks), 0);
    let (_, fingerprint, payload) = read_checkpoint(&path).expect("dsd-0.ckpt");
    write_checkpoint(&path, Phase::Dsd, fingerprint ^ 1, &payload).expect("plant another run's");
    let err = resume_error(&d.set, &config, &hooks);
    assert!(matches!(err, CkptError::Mismatch("dsd-*.ckpt")), "{err}");
    let _ = std::fs::remove_dir_all(dir_of(&hooks));
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
