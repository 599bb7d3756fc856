//! `Verifier::verify` — the one entry every candidate list goes through —
//! against `Verifier::verdict` mapped over the list.
//!
//! The list entry answers from the ledger, sorts the rest by shape and
//! fills them sixteen to a register; none of that may show in a verdict.
//! So for both phases, on the pool and on the caller's thread: lists of
//! 1 / 15 / 16 / 17 / 33 / 4 096 candidates — ledger hits interleaved,
//! candidates repeated, pairs over the batch kernel's direction bound and
//! over the `i16` score guard mixed in — come back in order, each verdict
//! (cell counters included) the one the candidate gets alone. And the back
//! half's deferred pairs: those of a component no graph will be asked for
//! are neither held nor filled.

use std::sync::Arc;

use pfam_cluster::{run_ccd, ClusterConfig, CorePhase, KnownPairs, PairLedger, Verifier, VerifyOn};
use pfam_datagen::{random_peptide, DatasetConfig, MutationModel, SyntheticDataset};
use pfam_seq::{MemoryBudget, SeqId, SequenceSet, SequenceSetBuilder};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Family reads, plus homologs too long for one batch (600 × 600 cells of
/// direction bits are over 2 MiB) and for the `i16` kernels altogether
/// (1 380 residues against 1 380: past `vector_max_short`).
fn corpus() -> (SequenceSet, Vec<u32>) {
    let families = SyntheticDataset::generate(&DatasetConfig::tiny(77)).set;
    let mut builder = SequenceSetBuilder::new();
    for id in 0..families.len() {
        builder.push_codes(format!("f{id}"), families.codes(SeqId(id as u32)).to_vec()).unwrap();
    }
    let mut rng = StdRng::seed_from_u64(78);
    let model = MutationModel {
        substitution_rate: 0.1,
        conservative_fraction: 0.5,
        insertion_rate: 0.01,
        deletion_rate: 0.01,
    };
    let mut long = Vec::new();
    for len in [600usize, 1380] {
        let ancestor = random_peptide(&mut rng, len);
        for copy in 0..2 {
            long.push((families.len() + long.len()) as u32);
            builder
                .push_codes(format!("l{len}-{copy}"), model.mutate(&ancestor, &mut rng))
                .unwrap();
        }
    }
    (builder.finish(), long)
}

/// `n` candidates over `set`: mostly family pairs in pseudo-random order,
/// every seventh of the first 350 among the long reads, every fifth a
/// repeat of an earlier one.
fn candidates(set: &SequenceSet, long: &[u32], n: usize, salt: u64) -> Vec<(u32, u32)> {
    let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ salt;
    let mut next = |bound: usize| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 33) as usize) % bound
    };
    let n_family = set.len() - long.len();
    let mut list: Vec<(u32, u32)> = Vec::with_capacity(n);
    while list.len() < n {
        let k = list.len();
        let c = if k % 7 == 3 && k < 350 {
            (long[next(long.len())], long[next(long.len())])
        } else if k % 5 == 4 {
            list[next(k)]
        } else {
            (next(n_family) as u32, next(n_family) as u32)
        };
        if c.0 != c.1 {
            list.push(c);
        }
    }
    list
}

#[test]
fn the_list_entry_is_verdict_mapped_over_the_list() {
    let (set, long) = corpus();
    let cfg = ClusterConfig::default();

    // A ledger that knows every third pair of the largest list — right or
    // wrong does not matter: a hit is repeated, not checked.
    let known = candidates(&set, &long, 4096, 0)
        .into_iter()
        .step_by(3)
        .enumerate()
        .map(|(k, (a, b))| (a.min(b), a.max(b), k % 2 == 0));
    let mut known: Vec<_> = known.collect();
    known.sort_unstable();
    known.dedup_by_key(|&mut (a, b, _)| (a, b));
    let ledger = Arc::new(PairLedger::from_entries(known, 0, &MemoryBudget::unlimited()));

    let verifiers = [
        ("rr", Verifier::new(&cfg, CorePhase::Rr)),
        ("ccd", Verifier::new(&cfg, CorePhase::Ccd)),
        ("ccd + ledger", Verifier::new(&cfg, CorePhase::Ccd).with_ledger(ledger)),
    ];
    let (mut hits, mut fills, mut scalar_fills) = (0, 0, 0);
    for (n, salt) in [(1, 1), (15, 2), (16, 3), (17, 4), (33, 5), (4096, 0)] {
        let list = candidates(&set, &long, n, salt);
        for (phase, verifier) in &verifiers {
            let alone: Vec<_> = list.iter().map(|&c| verifier.verdict(&set, c)).collect();
            for on in [VerifyOn::Pool, VerifyOn::Caller] {
                let got = verifier.verify(&set, &list, on);
                assert_eq!(got, alone, "{phase}, {on:?}: list of {n}");
            }
            hits += alone.iter().filter(|v| v.ledger_hit).count();
            fills += alone.iter().filter(|v| !v.ledger_hit).count();
            scalar_fills += alone.iter().filter(|v| v.cells_computed >= 1364 * 1364).count();
        }
    }
    assert!(hits > 500 && fills > 5000, "{hits} ledger hits, {fills} fills — a vacuous corpus");
    assert!(scalar_fills > 20, "only {scalar_fills} pairs past the i16 guard were filled");
}

#[test]
fn deferred_pairs_of_a_component_under_the_minimum_are_neither_held_nor_filled() {
    // Two families of identical reads, five members and three. One pair to
    // a batch, so CCD merges each along a spanning tree and defers the rest
    // of its pairs: 4 edges + 6 deferred, and 2 edges + 1 deferred.
    let (big, small) = ("MKVLWAAKNDCQEGHILKMFPSTWYV", "WYVTSPFMKLIHGEQCDNKAAWLVKM");
    let mut builder = SequenceSetBuilder::new();
    for (k, letters) in [big, big, small, big, small, big, small, big].into_iter().enumerate() {
        builder.push_letters(format!("s{k}"), letters.as_bytes()).unwrap();
    }
    let set = builder.finish();
    let budget = MemoryBudget::limited(1 << 20);
    let cfg = ClusterConfig {
        batch_size: 1,
        budget: budget.clone(),
        ..ClusterConfig::for_short_sequences()
    };
    let kept: Vec<SeqId> = (0..set.len() as u32).map(SeqId).collect();
    let ccd = run_ccd(&set, &cfg);
    let large = ccd.components.iter().position(|c| c.len() == 5).expect("the family of five");
    let tiny = ccd.components.iter().position(|c| c.len() == 3).expect("the family of three");
    let deferred = ccd.deferred.clone();
    let inside =
        |c: usize| deferred.iter().filter(|&&(a, _)| ccd.components[c].contains(&SeqId(a))).count();
    let (n_large, n_tiny) = (inside(large), inside(tiny));
    assert_eq!((n_large, n_tiny), (6, 1), "what the closure filter deferred");
    // One window: every pair was filled before the first batch merged.
    let mut filled: Vec<(u32, u32)> = ccd.filled_ahead.iter().map(|v| (v.a, v.b)).collect();
    filled.sort_unstable();
    let mut want = deferred.clone();
    want.sort_unstable();
    assert_eq!(filled, want, "each deferred pair's verdict was filled ahead");

    let none = Arc::<PairLedger>::default();
    let before = budget.used();
    for (min_size, n_tiny) in [(0, n_tiny), (3, n_tiny), (4, 0)] {
        let known = KnownPairs::new(
            &set,
            &cfg,
            &kept,
            &none,
            &ccd.components,
            &ccd.edges,
            deferred.clone(),
            ccd.filled_ahead.clone(),
            min_size,
        );
        assert_eq!((known.n_deferred(large), known.n_deferred(tiny)), (n_large, n_tiny));
        assert_eq!(known.filled_ahead(), (n_large + n_tiny, 1 - n_tiny), "held, dropped");
        let held = 8 * (n_large + n_tiny) as u64 + 40 * (n_large + n_tiny) as u64;
        assert_eq!(budget.used() - before, held, "8 B a pair and 40 B a verdict held");
        let (graph, record) = known.component_graph(large);
        assert_eq!((graph.graph.n_edges(), record.n_aligned), (10, n_large), "all C(5,2) edges");
        let (_, record) = known.component_graph(tiny);
        assert_eq!(record.n_aligned, n_tiny, "min_size {min_size}: the tiny component's fills");
        assert_eq!(record.n_ledger_hits, 0, "a verdict filled ahead counts as a fill");
        drop(known);
        assert_eq!(budget.used(), before, "released with the pairs");
    }
}
