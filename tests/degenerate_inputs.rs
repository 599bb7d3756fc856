//! Degenerate-input robustness: the RR + CCD front of the pipeline must
//! handle empty inputs, single-residue reads, all-`X` sequences, and
//! sequences whose shared prefixes exceed the suffix sort's packed-prefix
//! key width (12 residues) without panicking — and still produce a valid
//! partition.

use pfam::cluster::{run_ccd, run_redundancy_removal, ClusterConfig};
use pfam::core::PipelineConfig;
use pfam::seq::{SeqId, SequenceSet, SequenceSetBuilder};

fn set_of(seqs: &[&str]) -> SequenceSet {
    let mut b = SequenceSetBuilder::new();
    for (i, s) in seqs.iter().enumerate() {
        b.push_letters(format!("s{i}"), s.as_bytes()).expect("valid letters");
    }
    b.finish()
}

/// The components must partition the input: every id exactly once.
fn assert_partition(set: &SequenceSet, components: &[Vec<SeqId>]) {
    let mut seen = vec![false; set.len()];
    for c in components {
        for &id in c {
            assert!(!seen[id.index()], "sequence {id:?} in two components");
            seen[id.index()] = true;
        }
    }
    assert!(seen.iter().all(|&s| s), "some sequence missing from the partition");
}

fn rr_and_ccd(set: &SequenceSet, config: &ClusterConfig) {
    let rr = run_redundancy_removal(set, config);
    assert!(rr.kept.len() + rr.removed.len() == set.len(), "RR must account for every read");
    let (nr, _mapping) = set.subset(&rr.kept);
    let ccd = run_ccd(&nr, config);
    assert_partition(&nr, &ccd.components);
}

#[test]
fn empty_input_set() {
    let set = SequenceSet::default();
    let rr = run_redundancy_removal(&set, &ClusterConfig::default());
    assert!(rr.kept.is_empty() && rr.removed.is_empty());
    let ccd = run_ccd(&set, &ClusterConfig::default());
    assert!(ccd.components.is_empty());
    let r = PipelineConfig::for_tests().run(&set);
    assert_eq!(r.n_input, 0);
    assert!(r.dense_subgraphs.is_empty());
}

#[test]
fn single_residue_sequences() {
    let set = set_of(&["M", "M", "W"]);
    let config = ClusterConfig::default();
    rr_and_ccd(&set, &config);
    // Nothing to match at psi-length scales: all survive RR as singletons.
    let rr = run_redundancy_removal(&set, &config);
    let (nr, _) = set.subset(&rr.kept);
    let ccd = run_ccd(&nr, &config);
    for c in &ccd.components {
        assert_eq!(c.len(), 1, "one-residue reads must stay singletons");
    }
}

#[test]
fn all_unknown_residues() {
    // Runs of `X` are exactly what low-complexity regions degenerate to;
    // they must neither match spuriously nor crash the index.
    let set = set_of(&["XXXXXXXXXXXXXXXXXXXXXXXXXXXXXX"; 3]);
    rr_and_ccd(&set, &ClusterConfig::default());
    let mixed = set_of(&["XXXXXXXXXXXXXXXXXXXXXXXXXXXXXX", "MKVLWAAKNDCQEGHILKMFPSTWYVRRRR"]);
    rr_and_ccd(&mixed, &ClusterConfig::default());
}

#[test]
fn shared_prefix_longer_than_packed_key_width() {
    // The parallel suffix sort compares a 12-residue packed prefix first;
    // these reads agree for 24 residues and only then diverge, forcing
    // the tie-break path. Containment and clustering must still be exact.
    let stem = "MKVLWAAKNDCQEGHILKMFPSTW"; // 24 residues, > 12
    let a = format!("{stem}YVRRRRGGGGHHHH");
    let b = format!("{stem}CCCCDDDDEEEEFF");
    let dup = a.clone();
    let set = set_of(&[&a, &b, &dup]);
    let config = ClusterConfig::for_short_sequences();
    let rr = run_redundancy_removal(&set, &config);
    assert_eq!(rr.kept.len() + rr.removed.len(), 3);
    assert!(
        rr.removed.iter().any(|&(r, _)| r == SeqId(0) || r == SeqId(2)),
        "an exact duplicate must be removed as redundant"
    );
    let (nr, _) = set.subset(&rr.kept);
    let ccd = run_ccd(&nr, &config);
    assert_partition(&nr, &ccd.components);
}

#[test]
fn long_identical_sequences_cluster() {
    // 60-residue identical reads: maximal matches far beyond the packed
    // key width; all copies must land in one component after RR.
    let long: String = "MKVLWAAKNDCQEGHILKMFPSTWYVRNDA".repeat(2);
    let set = set_of(&[&long, &long, &long, &long]);
    let config = ClusterConfig::for_short_sequences();
    let rr = run_redundancy_removal(&set, &config);
    let (nr, _) = set.subset(&rr.kept);
    let ccd = run_ccd(&nr, &config);
    assert_partition(&nr, &ccd.components);
    assert_eq!(ccd.components.len(), 1, "identical survivors must form a single component");
}
