//! End-to-end pipeline invariants on synthetic metagenomes.

mod common;

use std::collections::HashSet;

use common::{assert_same_result, hooks_in, resume, run_until, scratch_dir};
use pfam::cluster::{index_plan, run_ccd, run_redundancy_removal, IndexPlan};
use pfam::core::{
    evaluate, run_pipeline, stream_components, Phase, PipelineConfig, PipelineError, PipelineHooks,
    TableOneRow,
};
use pfam::datagen::{DatasetConfig, MutationModel, Provenance, SyntheticDataset};
use pfam::seq::{materialize_subset, SeqId, SequenceSetBuilder};
use pfam::shingle::ShingleStats;

fn dataset(seed: u64) -> SyntheticDataset {
    SyntheticDataset::generate(&dataset_config(seed))
}

fn dataset_config(seed: u64) -> DatasetConfig {
    DatasetConfig {
        n_families: 5,
        n_members: 60,
        n_noise: 8,
        redundancy_frac: 0.12,
        fragment_prob: 0.15,
        mutation: MutationModel {
            substitution_rate: 0.12,
            conservative_fraction: 0.6,
            insertion_rate: 0.002,
            deletion_rate: 0.002,
        },
        seed,
        ..DatasetConfig::tiny(seed)
    }
}

#[test]
fn dense_subgraphs_contain_only_non_redundant_sequences() {
    let d = dataset(101);
    let r = PipelineConfig::for_tests().run(&d.set);
    let nr: HashSet<SeqId> = r.non_redundant.iter().copied().collect();
    for ds in &r.dense_subgraphs {
        for &m in &ds.members {
            assert!(nr.contains(&m), "{m} was removed as redundant but appears in a DS");
        }
    }
}

#[test]
fn dense_subgraphs_nest_inside_their_component() {
    let d = dataset(102);
    let r = PipelineConfig::for_tests().run(&d.set);
    for ds in &r.dense_subgraphs {
        let members: HashSet<SeqId> =
            r.component_graphs[ds.component].members.iter().copied().collect();
        for &m in &ds.members {
            assert!(members.contains(&m), "DS member outside its component");
        }
    }
}

#[test]
fn components_partition_the_non_redundant_set() {
    let d = dataset(103);
    let r = PipelineConfig::for_tests().run(&d.set);
    let mut seen = HashSet::new();
    for comp in &r.components {
        for &m in comp {
            assert!(seen.insert(m), "{m} in two components");
        }
    }
    let nr: HashSet<SeqId> = r.non_redundant.iter().copied().collect();
    assert_eq!(seen, nr);
}

#[test]
fn noise_reads_never_enter_family_subgraphs_with_members() {
    let d = dataset(104);
    let r = PipelineConfig::for_tests().run(&d.set);
    for ds in &r.dense_subgraphs {
        let has_member = ds
            .members
            .iter()
            .any(|&id| matches!(d.provenance[id.index()], Provenance::Member { .. }));
        let has_noise =
            ds.members.iter().any(|&id| matches!(d.provenance[id.index()], Provenance::Noise));
        assert!(!(has_member && has_noise), "noise clustered together with family members");
    }
}

#[test]
fn quality_against_ground_truth_is_high_precision() {
    let d = dataset(105);
    let r = PipelineConfig::for_tests().run(&d.set);
    let q = evaluate(&r, &d.benchmark_clusters());
    assert!(q.measures.precision > 0.95, "PR = {}", q.measures.precision);
    assert!(q.confusion.tp > 0, "no true-positive pairs at all");
}

#[test]
fn table_row_is_internally_consistent() {
    let d = dataset(106);
    let config = PipelineConfig::for_tests();
    let r = config.run(&d.set);
    let row = TableOneRow::from_result(&r, config.min_component_size);
    assert!(row.n_non_redundant <= row.n_input);
    assert!(row.n_seq_in_subgraphs <= row.n_non_redundant);
    assert!(row.largest <= row.n_seq_in_subgraphs);
    assert!(row.mean_density >= 0.0 && row.mean_density <= 1.0);
    assert!(row.n_dense_subgraphs <= row.n_seq_in_subgraphs);
}

/// The families `d`'s dense subgraphs mix, one entry per subgraph with
/// more than one.
fn impure_subgraphs(d: &SyntheticDataset, r: &pfam::core::PipelineResult) -> Vec<HashSet<u32>> {
    r.dense_subgraphs
        .iter()
        .map(|ds| ds.members.iter().filter_map(|&id| d.provenance[id.index()].family()).collect())
        .filter(|fams: &HashSet<u32>| fams.len() > 1)
        .collect()
}

#[test]
fn dense_subgraphs_are_family_pure() {
    let d = dataset(107);
    let r = PipelineConfig::for_tests().run(&d.set);
    assert!(!r.dense_subgraphs.is_empty());
    assert_eq!(impure_subgraphs(&d, &r), []);
}

#[test]
fn families_sharing_only_a_domain_block_come_out_apart() {
    // Four 40-residue blocks, each planted in three families' ancestors:
    // those families share long exact words and nothing else. Every dense
    // subgraph must still be one family.
    let d = SyntheticDataset::generate(&DatasetConfig {
        n_families: 12,
        n_members: 240,
        n_shared_domains: 4,
        domain_len: 40,
        families_per_domain: 3,
        fragment_prob: 0.1,
        mutation: MutationModel {
            substitution_rate: 0.10,
            conservative_fraction: 0.6,
            insertion_rate: 0.0,
            deletion_rate: 0.0,
        },
        seed: 0xD03A11,
        ..DatasetConfig::default()
    });
    let r = PipelineConfig::default().run(&d.set);
    assert!(r.dense_subgraphs.len() >= 4, "{} dense subgraphs", r.dense_subgraphs.len());
    assert_eq!(impure_subgraphs(&d, &r), []);
    assert_eq!(evaluate(&r, &d.benchmark_clusters()).measures.precision, 1.0);
}

#[test]
fn pipeline_is_deterministic_across_runs() {
    let d = dataset(108);
    let config = PipelineConfig::for_tests();
    let a = config.run(&d.set);
    let b = config.run(&d.set);
    assert_eq!(a.non_redundant, b.non_redundant);
    assert_eq!(a.components, b.components);
    assert_eq!(a.dense_subgraphs, b.dense_subgraphs);
}

#[test]
fn fasta_round_trip_preserves_pipeline_output() {
    let d = dataset(109);
    let mut text = Vec::new();
    pfam::seq::fasta::write_fasta(&d.set, &mut text, 60).expect("writing to a Vec");
    let reparsed = pfam::seq::fasta::read_fasta(&text[..]).expect("own output parses");
    let config = PipelineConfig::for_tests();
    let a = config.run(&d.set);
    let b = config.run(&reparsed);
    assert_eq!(a.dense_subgraphs, b.dense_subgraphs);
}

#[test]
fn pipeline_equals_the_hand_composition() {
    // The pipeline mines one suffix index in both clustering phases; the
    // composition it replaced — RR over the input, CCD over a copy of the
    // survivors with an index of its own, then the back half — must give
    // the same families through the same work.
    let d = dataset(110);
    let config = PipelineConfig::for_tests();
    let got = config.run(&d.set);

    let rr = run_redundancy_removal(&d.set, &config.cluster);
    let ccd = run_ccd(&materialize_subset(&d.set, &rr.kept), &config.cluster);
    let components: Vec<Vec<SeqId>> = ccd
        .components
        .iter()
        .map(|c| c.iter().map(|&local| rr.kept[local.index()]).collect())
        .collect();
    let selected: Vec<&[SeqId]> = components
        .iter()
        .filter(|c| c.len() >= config.min_component_size)
        .map(|c| c.as_slice())
        .collect();
    let mut shingle_stats = ShingleStats::default();
    let mut families: Vec<Vec<SeqId>> = Vec::new();
    for out in stream_components(&d.set, &config, &selected) {
        shingle_stats.absorb(&out.stats);
        for local in &out.subgraphs {
            families.push(local.iter().map(|&l| out.graph.original_id(l)).collect());
        }
    }
    families.sort_by(|a, b| b.len().cmp(&a.len()).then(a.cmp(b)));

    assert!(rr.kept.len() < d.set.len(), "RR must remove something for the mask to matter");
    assert_eq!(got.non_redundant, rr.kept);
    assert_eq!(got.components, components);
    let got_families: Vec<Vec<SeqId>> =
        got.dense_subgraphs.iter().map(|ds| ds.members.clone()).collect();
    assert_eq!(got_families, families);
    assert_eq!(got.shingle_stats, shingle_stats);
    // ... through the same candidates: the pipeline's CCD answers from RR's
    // ledger what the composition's fills again.
    for (what, got, want) in [("RR", &got.traces.0, &rr.trace), ("CCD", &got.traces.1, &ccd.trace)]
    {
        assert_eq!(got.total_generated(), want.total_generated(), "{what} generated");
        assert_eq!(got.total_filtered(), want.total_filtered(), "{what} filtered");
        assert_eq!(
            got.total_aligned() + got.total_ledger_hits(),
            want.total_aligned(),
            "{what} verified"
        );
    }
    assert_eq!(got.traces.0.total_ledger_hits(), 0, "RR fills; it has no ledger to ask");

    // The back half verifies the deferred pairs of the selected components
    // and nothing else — each by a ledger hit or by one fill.
    let size_of: std::collections::HashMap<SeqId, usize> =
        ccd.components.iter().flat_map(|c| c.iter().map(move |&id| (id, c.len()))).collect();
    let deferred_selected = ccd
        .deferred
        .iter()
        .filter(|&&(a, _)| size_of[&SeqId(a)] >= config.min_component_size)
        .count();
    let bgg = &got.traces.2;
    assert!(deferred_selected > 0 && bgg.total_ledger_hits() > 0);
    assert_eq!(bgg.total_aligned() + bgg.total_ledger_hits(), deferred_selected);
    assert_eq!(got.ledger_dropped, 0);
}

#[test]
fn exact_mode_builds_one_index_and_fills_no_pair_twice() {
    // One suffix index for the whole run: the monolithic route, shared by
    // RR and CCD. (That the back half indexes no component is tier 1's
    // "one suffix index per run" gate.)
    let d = dataset(111);
    let config = PipelineConfig::for_tests();
    let budget = &config.cluster.budget;
    assert_eq!(index_plan(&d.set, &config.cluster, None).unwrap(), IndexPlan::Monolithic);
    let got = config.run(&d.set);
    assert_eq!(budget.used(), 0, "and everything is released, ledger included");

    // No pair is filled twice. The phases fill disjoint sets of pairs by
    // construction — CCD `stream ∖ deferred ∖ ledger`, the back half
    // `deferred ∖ ledger` — so it suffices that the counts are those sets'
    // sizes: stream without repeats, ledger complete.
    let (rr, ccd) = pfam::cluster::with_front_half(&d.set, &config.cluster, |front| {
        let rr = front.rr();
        let ccd = front.ccd(&rr);
        (rr, ccd)
    });
    let (rr_t, ccd_t, bgg_t) = &got.traces;
    assert_eq!((rr.ledger.dropped(), got.ledger_dropped), (0, 0));
    let edges = ccd.edges.iter().map(|&(a, b)| (a.0, b.0));
    let mut seen = HashSet::new();
    assert!(
        edges.chain(ccd.deferred.iter().copied()).all(|p| seen.insert(p)),
        "an edge is never deferred, nothing is deferred twice"
    );
    let deferred_hits =
        ccd.deferred.iter().filter(|&&(a, b)| rr.ledger.lookup(a, b).is_some()).count();
    assert_eq!(
        ccd_t.total_aligned() + ccd_t.total_ledger_hits() + ccd.deferred.len(),
        ccd_t.total_generated()
    );
    assert_eq!(
        ccd_t.total_ledger_hits() + deferred_hits,
        rr.ledger.len(),
        "every pair RR filled between survivors comes back exactly once: ψ_rr pairs ⊂ ψ_ccd pairs"
    );
    assert!(bgg_t.total_ledger_hits() <= deferred_hits);
    assert!(rr_t.total_aligned() >= rr.ledger.len());
}

#[test]
fn one_body_whatever_it_keeps_on_disk() {
    // The pipeline without a directory, with one, and killed after each
    // phase and resumed: one result, through the same work — on every
    // route through the front half. (A third of the usual corpus: four
    // configurations, each run five times.)
    let d = SyntheticDataset::generate(&DatasetConfig {
        n_families: 3,
        n_members: 30,
        n_noise: 4,
        ..dataset_config(112)
    });
    let base = PipelineConfig::for_tests();
    let estimate = pfam::suffix::estimated_index_bytes(d.set.total_residues(), d.set.len());
    let mut masked = base.clone();
    masked.cluster.mask = Some(pfam::seq::complexity::MaskParams::default());
    let configs = [
        ("default", base.clone()),
        ("budget", base.clone().with_mem_budget(estimate * 2 / 5)),
        ("small budget", base.clone().with_mem_budget(estimate / 4)),
        ("mask", masked),
    ];
    for (name, config) in configs {
        let in_memory = config.run(&d.set);
        assert!(!in_memory.dense_subgraphs.is_empty(), "{name}: nothing to compare");
        let dir = scratch_dir(&format!("one-body-{name}"));
        let hooks = hooks_in(&dir);
        let kept = run_pipeline(&d.set, &config, &hooks).expect(name);
        assert_same_result(&d.set, &kept, &in_memory);
        for stop in [Phase::Rr, Phase::Ccd, Phase::Dsd] {
            let _ = std::fs::remove_dir_all(&dir);
            run_until(&d.set, &config, &hooks, stop);
            assert_same_result(&d.set, &resume(&d.set, &config, &hooks), &in_memory);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn masking_keeps_poly_a_reads_out_of_one_family() {
    // A tiny data set plus four reads that share only a 60-residue poly-A
    // run, each with a 12-residue flank of its own. Unmasked, the run is a
    // long exact match, every two of the four overlap and they come out as
    // one family; masked (`cluster.mask`, what `--mask` sets), the index
    // never sees the run.
    let d = dataset(112);
    let mut b = SequenceSetBuilder::new();
    for s in d.set.iter() {
        b.push_codes(s.header.to_owned(), s.codes.to_vec()).unwrap();
    }
    let run = "A".repeat(60);
    let reads = [
        format!("MKWVTFISLLFH{run}"),
        format!("CDEGHIKLMNPQ{run}"),
        format!("{run}GHRPQDEYCNWI"),
        format!("{run}WYTSRQPNMLKI"),
    ];
    let poly_a: Vec<SeqId> = (reads.iter().enumerate())
        .map(|(i, read)| b.push_letters(format!("polyA-{i}"), read.as_bytes()).unwrap())
        .collect();
    let set = b.finish();
    let shared = |members: &[SeqId]| poly_a.iter().filter(|id| members.contains(id)).count();

    let plain = PipelineConfig::for_tests();
    let mut masking = plain.clone();
    masking.cluster.mask = Some(Default::default());
    let unmasked = plain.run(&set);
    let masked = masking.run(&set);

    assert!(
        unmasked.dense_subgraphs.iter().any(|ds| shared(&ds.members) == poly_a.len()),
        "unmasked, the poly-A reads are one family"
    );
    assert!(
        masked.traces.1.total_generated() < unmasked.traces.1.total_generated(),
        "CCD mined {} pairs masked, {} unmasked",
        masked.traces.1.total_generated(),
        unmasked.traces.1.total_generated()
    );
    for ds in &masked.dense_subgraphs {
        assert!(shared(&ds.members) <= 1, "masked, a family holds poly-A reads: {:?}", ds.members);
    }
}

#[test]
fn what_cannot_run_is_a_typed_error_not_an_empty_answer() {
    let mut b = SequenceSetBuilder::new();
    for (i, read) in
        ["MKVLWAAKNDCQEGHILKMFPSTWYV", "MKVLWAAKNDCQEGHILKMFPSTWYV", "MKV"].into_iter().enumerate()
    {
        b.push_letters(format!("s{i}"), read.as_bytes()).unwrap();
    }
    let set = b.finish();
    // Under the reads' text, and with room for the text and no window.
    let text = pfam::suffix::estimated_text_bytes(set.total_residues(), set.len());
    let dir = scratch_dir("refused");
    for (limit, what) in [(8, "gsa-text"), (text, "gsa-window")] {
        let starved = PipelineConfig::for_tests().with_mem_budget(limit);
        for hooks in [PipelineHooks::default(), hooks_in(&dir)] {
            let err = run_pipeline(&set, &starved, &hooks).unwrap_err();
            assert!(matches!(&err, PipelineError::Budget(e) if e.what == what), "{err}");
        }
    }
    assert!(!Phase::Rr.path_in(&dir).exists(), "a refused run writes no snapshot");
}

/// The `phases:` line's CPU column accounts for the process: its four
/// spans add up to within 5 % of what `pfam cluster` spent in user and
/// system time, give or take the 30 ms that the readings' clock ticks and
/// the line's two decimals can lose. The process's own total comes from
/// the shell's `times` after the child exits.
#[cfg(target_os = "linux")]
#[test]
fn the_phases_cpu_adds_up_to_the_process_cpu() {
    let pfam = env!("CARGO_BIN_EXE_pfam");
    let dir = scratch_dir("phases-cpu");
    std::fs::create_dir_all(&dir).unwrap();
    let (fasta, err) = (dir.join("reads.fasta"), dir.join("cluster.err"));
    let generated = std::process::Command::new(pfam)
        .args(["generate", "--families", "20", "--members", "800", "--seed", "3", "--out"])
        .arg(&fasta)
        .output()
        .unwrap();
    assert!(generated.status.success());
    let shell = std::process::Command::new("bash")
        .args(["-c", r#""$0" cluster "$1" --out "$2" >/dev/null 2>"$3"; times"#, pfam])
        .arg(&fasta)
        .arg(dir.join("families.tsv"))
        .arg(&err)
        .output()
        .unwrap();
    assert!(shell.status.success());
    // `times`: the shell's user and system time, then its children's.
    let times = String::from_utf8(shell.stdout).unwrap();
    let child = times.lines().nth(1).expect("the children's line");
    let seconds = |t: &str| {
        let (min, sec) = t.trim_end_matches('s').split_once('m').expect("XmY.YYYs");
        min.parse::<f64>().unwrap() * 60.0 + sec.parse::<f64>().unwrap()
    };
    let process: f64 = child.split_whitespace().map(seconds).sum();
    let stderr = std::fs::read_to_string(&err).unwrap();
    let phases = stderr.lines().find(|l| l.starts_with("phases:")).expect("a phases line");
    let cpu = phases.split("; cpu ").nth(1).and_then(|s| s.split(" s;").next()).expect("cpu");
    let spans: f64 =
        cpu.split(", ").map(|s| s.rsplit(' ').next().unwrap().parse::<f64>().unwrap()).sum();
    assert!(
        (spans - process).abs() <= 0.05 * process + 0.03,
        "phases' CPU {spans:.3} s against the process's {process:.3} s: {phases}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
