//! What the suites that compare whole pipeline runs share
//! (`pipeline_end_to_end`, `checkpoint_resume`).
#![allow(dead_code)] // each suite uses its own subset

use std::path::PathBuf;

use pfam::core::checkpoint::component_files;
use pfam::core::{run_pipeline, Phase, PipelineConfig, PipelineHooks, PipelineResult};
use pfam::seq::SequenceSet;

/// A fresh path under the temp directory for one test's checkpoints.
pub fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pfam-ckpt-test-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Hooks that snapshot into `dir`.
pub fn hooks_in(dir: &std::path::Path) -> PipelineHooks {
    PipelineHooks { checkpoint: Some(dir.to_path_buf()), ..PipelineHooks::default() }
}

/// Leave `hooks`' directory as a run killed right after `stop` finished
/// leaves it: what a finished run writes, less the files of later phases.
pub fn run_until(set: &SequenceSet, config: &PipelineConfig, hooks: &PipelineHooks, stop: Phase) {
    run_pipeline(set, config, hooks).expect("checkpointed run");
    let dir = hooks.checkpoint.as_deref().expect("hooks with a directory");
    let mut later = component_files(dir).expect("the component files");
    if stop == Phase::Rr {
        later.push(Phase::Ccd.path_in(dir));
    }
    if stop != Phase::Dsd {
        for path in later {
            std::fs::remove_file(&path).expect("remove a later phase's file");
        }
    }
}

/// Resume from what `hooks`' directory holds and run to the end.
pub fn resume(set: &SequenceSet, config: &PipelineConfig, hooks: &PipelineHooks) -> PipelineResult {
    let hooks = PipelineHooks { resume: true, ..hooks.clone() };
    run_pipeline(set, config, &hooks).expect("resumed run")
}

/// The families.tsv body the CLI writes, as a string — byte-identical
/// output is the acceptance bar for resume.
pub fn render_families(set: &SequenceSet, result: &PipelineResult) -> String {
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

/// Two runs that must not be told apart: the same reads kept, components,
/// graphs and families, through the same work.
pub fn assert_same_result(set: &SequenceSet, got: &PipelineResult, want: &PipelineResult) {
    assert_eq!(got.n_input, want.n_input);
    assert_eq!(got.non_redundant, want.non_redundant);
    assert_eq!(got.components, want.components);
    assert_eq!(got.component_graphs.len(), want.component_graphs.len());
    for (g, w) in got.component_graphs.iter().zip(&want.component_graphs) {
        assert_eq!((&g.members, &g.graph), (&w.members, &w.graph));
    }
    assert_eq!(got.dense_subgraphs, want.dense_subgraphs);
    assert_eq!(got.traces.0, want.traces.0, "RR trace");
    assert_eq!(got.traces.1, want.traces.1, "CCD trace");
    assert_eq!(got.traces.2, want.traces.2, "BGG trace");
    assert_eq!(got.shingle_stats, want.shingle_stats);
    assert_eq!(got.ledger_dropped, want.ledger_dropped);
    assert_eq!(
        render_families(set, got),
        render_families(set, want),
        "families.tsv must be byte-identical"
    );
}
