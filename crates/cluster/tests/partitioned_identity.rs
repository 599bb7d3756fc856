//! Property suite for the out-of-core index plane: the partitioned
//! generator's pair *set* equals the monolithic miner's for every chunk
//! plan, and checkpoint/resume is byte-identical even when the resumed
//! run would plan another chunk size (the cursor pins the generation
//! plan it was cut under). A fresh CCD under a chosen plan is a resume
//! from the empty cursor that pins it ([`start_pinned`]).

use std::sync::Arc;

use pfam_cluster::{
    run_ccd, run_ccd_resumable, with_pair_source, CcdCursor, CcdResult, ClusterConfig, ClusterCore,
    PairSource, PartitionedMinedSource,
};
use pfam_datagen::{DatasetConfig, SyntheticDataset};
use pfam_seq::{MemoryBudget, SeqStore, SequenceSet, SequenceSetBuilder};
use pfam_suffix::{estimated_index_bytes, MatchPair};

/// Order-free canonical form: `(a, b, len)` per emitted pair — the
/// fields [`MatchPair`]'s own equality is defined over. The longest
/// match per pair is a property of the two sequences alone, so it is
/// chunk-invariant; the representative *occurrence* positions are not
/// (ties at the maximal length are reported in enumeration order, which
/// differs between one big index and per-chunk indexes).
fn canonical(pairs: Vec<MatchPair>) -> Vec<(u32, u32, u32)> {
    let mut keys: Vec<_> = pairs.iter().map(|p| (p.a.0, p.b.0, p.len)).collect();
    keys.sort_unstable();
    keys
}

/// The monolithic reference stream (masked view, one big index).
fn mono_pairs(set: &SequenceSet, config: &ClusterConfig, psi: u32) -> Vec<MatchPair> {
    if set.is_empty() {
        return Vec::new();
    }
    with_pair_source(set, config, psi, 0, None, |s| s.next_batch(usize::MAX))
}

/// The partitioned stream under an exact pinned chunk target, plus the
/// number of chunks the plan produced.
fn part_pairs(
    set: &SequenceSet,
    config: &ClusterConfig,
    psi: u32,
    target: u64,
) -> (Vec<MatchPair>, usize) {
    let mut src = PartitionedMinedSource::new(set, config, psi, target);
    let n_chunks = src.plan().n_chunks();
    (src.next_batch(usize::MAX), n_chunks)
}

/// The empty cursor that pins `plan`: resuming from it is a fresh CCD
/// over `store` mined under that plan.
fn start_pinned(store: &dyn SeqStore, plan: u64) -> CcdCursor {
    let mut start = ClusterCore::new_ccd(store).cursor();
    start.gen_chunk_bytes = plan;
    start
}

/// CCD over `set` from `resume`, every cursor it emits sent to `on_cursor`
/// (none when `every` is 0).
fn ccd_from(
    set: &SequenceSet,
    config: &ClusterConfig,
    resume: CcdCursor,
    every: usize,
    on_cursor: &mut dyn FnMut(&CcdCursor),
) -> CcdResult {
    run_ccd_resumable(set, config, &Arc::default(), Some(resume), every, on_cursor)
}

/// Sweep chunk targets spanning one-chunk, several-chunk and
/// one-sequence-per-chunk plans, asserting pair-set identity for each.
fn assert_sweep_identical(set: &SequenceSet, config: &ClusterConfig, psi: u32) {
    let reference = canonical(mono_pairs(set, config, psi));
    let whole = estimated_index_bytes(set.total_residues(), set.len()).max(1);
    let mut chunk_counts = Vec::new();
    for target in [whole, whole / 3 + 1, whole / 7 + 1, 1] {
        let (pairs, n_chunks) = part_pairs(set, config, psi, target);
        assert_eq!(
            canonical(pairs),
            reference,
            "partitioned pair set diverged at target {target} ({n_chunks} chunks)"
        );
        chunk_counts.push(n_chunks);
    }
    if set.len() > 1 {
        assert_eq!(chunk_counts[0], 1, "the whole-set target must give one chunk");
        assert_eq!(
            *chunk_counts.last().expect("non-empty sweep"),
            set.len(),
            "target 1 must give one-sequence chunks"
        );
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
fn pair_sets_identical_across_chunk_sweep_on_datagen() {
    for seed in [3u64, 7, 21] {
        let d = SyntheticDataset::generate(&DatasetConfig::tiny(seed));
        let config = ClusterConfig::default();
        assert_sweep_identical(&d.set, &config, config.psi_ccd);
    }
}

#[test]
fn pair_sets_identical_on_empty_and_single_sequence_sets() {
    let config = ClusterConfig::for_short_sequences();
    assert_sweep_identical(&SequenceSet::new(), &config, config.psi_ccd);
    assert_sweep_identical(&set_of(&["MKVLWAAKNDCQEGHILKMFPSTWYV"]), &config, config.psi_ccd);
}

#[test]
fn repeat_straddling_a_chunk_boundary_is_found() {
    // A long shared word placed in the first and last sequence, with a
    // decoy in between: under one-sequence chunks the two occurrences
    // live in different chunks, so only the cross-chunk task can pair
    // them.
    const WORD: &str = "MKVLWAAKNDCQEGH";
    let s0 = format!("{WORD}ILKMFPSTWYV");
    let s1 = "GGHHIIPPWWYYVVRRNNDD".to_string();
    let s2 = format!("TTYYWWPP{WORD}");
    let set = set_of(&[&s0, &s1, &s2]);
    let config = ClusterConfig::for_short_sequences();
    let psi = WORD.len() as u32;

    let (pairs, n_chunks) = part_pairs(&set, &config, psi, 1);
    assert_eq!(n_chunks, 3, "one-sequence chunks expected");
    assert!(
        pairs.iter().any(|p| p.a.0 == 0 && p.b.0 == 2 && p.len >= psi),
        "the cross-chunk repeat pair (0, 2) must be mined: {pairs:?}"
    );
    assert_eq!(canonical(pairs), canonical(mono_pairs(&set, &config, psi)));
}

#[test]
fn components_identical_through_run_ccd_across_chunk_sizes() {
    let d = SyntheticDataset::generate(&DatasetConfig::tiny(31));
    let reference = run_ccd(&d.set, &ClusterConfig::default());
    let cfg = ClusterConfig::default();
    for chunk_bytes in [512u64, 4096, 1 << 16] {
        let got = ccd_from(&d.set, &cfg, start_pinned(&d.set, chunk_bytes), 0, &mut |_| {});
        assert_eq!(got.components, reference.components, "chunk target {chunk_bytes}");
        assert_eq!(got.n_merges, reference.n_merges, "chunk target {chunk_bytes}");
    }
}

#[test]
fn resume_with_a_different_chunk_size_is_byte_identical() {
    let d = SyntheticDataset::generate(&DatasetConfig::tiny(77));
    // The checkpointed run mines through pinned 2 KiB chunks.
    let cfg_a = ClusterConfig { batch_size: 32, ..ClusterConfig::default() };
    let full = ccd_from(&d.set, &cfg_a, start_pinned(&d.set, 2048), 0, &mut |_| {});

    let mut cursors = Vec::new();
    let observed =
        ccd_from(&d.set, &cfg_a, start_pinned(&d.set, 2048), 1, &mut |c| cursors.push(c.clone()));
    assert_eq!(observed.components, full.components);
    assert_eq!(observed.trace, full.trace);
    assert!(cursors.len() >= 3, "want several boundaries, got {}", cursors.len());
    assert!(
        cursors.iter().all(|c| c.gen_chunk_bytes == 2048),
        "every cursor must pin the generation plan it was cut under"
    );

    // Resume under configs that would plan otherwise — unbudgeted (one
    // monolithic index) and a budget a tenth of the index (smaller
    // chunks). The pinned plan, not the resumed config, dictates the
    // generation order, so the replay is byte-identical: same components,
    // same edges, same trace.
    let tenth = estimated_index_bytes(d.set.total_residues(), d.set.len()) / 10;
    let step = (cursors.len() / 3).max(1);
    for cursor in cursors.into_iter().step_by(step) {
        for (what, budget) in [("unbudgeted", 0), ("a tenth", tenth)] {
            let cfg_b = ClusterConfig { budget: MemoryBudget::limited(budget), ..cfg_a.clone() };
            let resumed = ccd_from(&d.set, &cfg_b, cursor.clone(), 0, &mut |_| {});
            assert_eq!(resumed.components, full.components, "resumed {what}");
            assert_eq!(resumed.edges, full.edges, "resumed {what}");
            assert_eq!(resumed.n_merges, full.n_merges, "resumed {what}");
            assert_eq!(resumed.trace, full.trace, "trace must replay exactly (resumed {what})");
        }
    }
}

#[test]
fn monolithic_checkpoint_resumes_under_a_chunked_config() {
    let d = SyntheticDataset::generate(&DatasetConfig::tiny(78));
    // The checkpointed run mined one big index (the default routing).
    let cfg_mono = ClusterConfig { batch_size: 32, ..ClusterConfig::default() };
    let full = run_ccd(&d.set, &cfg_mono);

    let mut cursors = Vec::new();
    let observed = run_ccd_resumable(&d.set, &cfg_mono, &Arc::default(), None, 1, &mut |c| {
        cursors.push(c.clone())
    });
    assert_eq!(observed.components, full.components);
    assert!(cursors.iter().all(|c| c.gen_chunk_bytes == 0), "monolithic runs pin plan 0");
    assert!(cursors.len() >= 2, "want several boundaries, got {}", cursors.len());

    // Resuming under a budget that would plan 1 KiB-scale chunks must
    // still replay the monolithic order the cursor position refers to.
    let cursor = cursors.swap_remove(cursors.len() / 2);
    let cfg_chunked = ClusterConfig { budget: MemoryBudget::limited(3 << 10), ..cfg_mono.clone() };
    let resumed = ccd_from(&d.set, &cfg_chunked, cursor, 0, &mut |_| {});
    assert_eq!(resumed.components, full.components);
    assert_eq!(resumed.edges, full.edges);
    assert_eq!(resumed.trace, full.trace);
}
