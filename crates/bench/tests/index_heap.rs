//! The suffix index's heap against the bounds it is built and budgeted
//! by, weighed with `pfam_bench::alloc`'s counting allocator. The full and
//! the cut index are built as `pfam` builds them
//! (`GeneralizedSuffixArray::build_cut`, at no cut-off and at ψ = 10); the
//! windowed miner is the one `pfam_cluster::index_plan` sends a phase to
//! under a budget of 0.4 × the monolithic estimate (the benchmark's
//! `sparse_budgeted` share), opened as the pipeline opens it. The
//! allocator counts every thread of this binary, so the file holds one
//! test, which weighs its builds one after another.

use pfam_bench::alloc::{live_bytes, peak_reset, peak_since, CountingAlloc};
use pfam_cluster::{index_plan, ClusterConfig, IndexPlan};
use pfam_datagen::{DatasetConfig, SyntheticDataset};
use pfam_seq::{BudgetError, MemoryBudget, SeqStore, SequenceSet, SequenceSetBuilder};
use pfam_suffix::{
    estimated_index_bytes, estimated_text_bytes, ChunkPlan, GeneralizedSuffixArray, MatchPair,
    MaximalMatchConfig, PartitionedMiner,
};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn the_index_stays_inside_its_bytes() {
    the_estimate_is_the_heap_the_index_holds();
    builds_stay_under_their_ceilings_per_position();
    the_windowed_miner_stays_inside_what_it_reserved();
}

/// Ceilings in bytes per text position: what an index may hold, and what
/// a build may hold at its peak on top of the bucket tables — a full one,
/// and one cut at ψ ≥ 3, whose windows share one scatter buffer.
const MAX_RESIDENT_PER_POSITION: f64 = 7.2;
const MAX_BUILD_PEAK_PER_POSITION: f64 = 8.5;
const MAX_CUT_BUILD_PEAK_PER_POSITION: f64 = 4.5;

/// ψ of component detection (`ClusterConfig` default): the cut the
/// pipeline's shared index is built at.
const PSI_CCD: u32 = 10;

/// The budget of the windowed miner, as a share of the monolithic
/// index's estimate.
const BUDGET_SHARE: f64 = 0.4;

/// Threads of every windowed miner here.
const THREADS: usize = 2;

/// Bytes of the bucket sort that do not grow with the text, at most: one
/// histogram of 2¹⁵ `u32` counters per text chunk (a chunk per thread) and
/// the scatter's 2¹⁵ cursors per chunk, the 2¹⁵ bucket starts, and 64 KiB
/// for the job lists and one bucket's records per worker.
fn bucket_table_bytes(threads: usize) -> f64 {
    ((8 * threads + 8) << 15) as f64 + 65_536.0
}

/// `build` weighed: the bytes it holds once built and the most it held at
/// once while building.
fn weigh(build: impl FnOnce() -> GeneralizedSuffixArray) -> (GeneralizedSuffixArray, u64, u64) {
    let live0 = peak_reset();
    let gsa = build();
    (gsa, live_bytes().saturating_sub(live0), peak_since(live0))
}

fn set_of(reads: &[String]) -> SequenceSet {
    let mut b = SequenceSetBuilder::new();
    for (i, s) in reads.iter().enumerate() {
        b.push_letters(format!("s{i}"), s.as_bytes()).expect("non-empty");
    }
    b.finish()
}

/// `estimated_index_bytes` is what the full index holds, to 1 %, and a
/// ceiling on what an index cut at a mining cut-off holds: on long reads,
/// many short reads and `X`-bearing reads.
fn the_estimate_is_the_heap_the_index_holds() {
    let long: Vec<String> = (0..40).map(|i| "ACDEFGHIKLMNPQRSTVWY".repeat(20 + i)).collect();
    let short: Vec<String> = (0..3_000).map(|i| "MKVLWAAKND"[i % 7..].repeat(1 + i % 3)).collect();
    let unknown: Vec<String> = (0..500).map(|i| format!("AXC{}XXW", "DE".repeat(i % 40))).collect();
    for (name, corpus) in [("long", long), ("short", short), ("unknown", unknown)] {
        let set = set_of(&corpus);
        let estimate = estimated_index_bytes(set.total_residues(), set.len()) as f64;
        for threads in [1, 2] {
            let (_, held, _) = weigh(|| GeneralizedSuffixArray::build_cut(&set, threads, 0));
            let held = held as f64;
            assert!(
                (held - estimate).abs() <= 0.01 * held,
                "{name}, {threads} threads: estimate {estimate} against {held} bytes held"
            );
            let (_, cut, _) = weigh(|| GeneralizedSuffixArray::build_cut(&set, threads, PSI_CCD));
            assert!(
                cut as f64 <= estimate,
                "{name}, {threads} threads: estimate {estimate} against {cut} bytes held, cut at \
                 {PSI_CCD}"
            );
        }
    }
}

/// The metagenomic long tail: a few families drowned in unrelated ORFs.
fn sparse_reads() -> SequenceSet {
    let config = DatasetConfig {
        n_families: 100,
        n_members: 2000,
        size_skew: 0.0,
        ancestor_len: 120..220,
        fragment_prob: 0.25,
        redundancy_frac: 0.14,
        n_noise: 100_000,
        seed: 0x1D,
        ..DatasetConfig::default()
    }
    .scaled(0.05);
    SyntheticDataset::generate(&config).set
}

/// Reads of 20–40 residues, every fiftieth with an `X`: more reads than
/// positions per read, so the start table weighs.
fn short_reads() -> SequenceSet {
    const X_CODE: u8 = (pfam_seq::ALPHABET_SIZE - 1) as u8;
    let mut state = 0x5EADu64;
    let mut next = |n: u64| {
        state =
            state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) % n
    };
    let mut b = SequenceSetBuilder::new();
    for i in 0..7_000 {
        let len = 20 + next(20) as usize;
        let mut codes: Vec<u8> = (0..len).map(|_| next(20) as u8).collect();
        if i % 50 == 0 {
            codes[len / 2] = X_CODE;
        }
        b.push_codes(format!("r{i}"), codes).expect("non-empty");
    }
    b.finish()
}

/// Every build, full and cut at ψ = 10, on one and two threads: the index
/// holds at most 7.2 bytes per position, and the build peaks over its
/// bucket tables at most 8.5 (full) or 4.5 (cut) per position.
fn builds_stay_under_their_ceilings_per_position() {
    for (name, set) in [("sparse", sparse_reads()), ("short_reads", short_reads())] {
        let positions = (set.total_residues() + set.len()) as f64;
        for threads in [1, 2] {
            for (psi, max_peak) in
                [(0, MAX_BUILD_PEAK_PER_POSITION), (PSI_CCD, MAX_CUT_BUILD_PEAK_PER_POSITION)]
            {
                let (gsa, held, peak) =
                    weigh(|| GeneralizedSuffixArray::build_cut(&set, threads, psi));
                // The bucket sort indexed it: SA-IS, which a too repetitive
                // text is handed to, keeps every suffix.
                assert_eq!(gsa.cutoff(), psi, "{name}: the bucket sort gave the text up");
                drop(gsa);
                let what = format!("{name}, cut at {psi}, {threads} threads");
                let resident = held as f64 / positions;
                assert!(
                    resident <= MAX_RESIDENT_PER_POSITION,
                    "{what}: the index holds {resident:.3} bytes per position"
                );
                let over_tables = (peak as f64 - bucket_table_bytes(threads)) / positions;
                assert!(
                    over_tables <= max_peak,
                    "{what}: the build peaked at {over_tables:.3} bytes per position over its \
                     bucket tables (ceiling {max_peak})"
                );
            }
        }
    }
}

/// The generator's recipe at `n_orfs` reads, in families of about
/// `family_size` members, with a tenth as many unrelated reads when
/// `noise`.
fn recipe(n_orfs: usize, family_size: usize, noise: bool) -> DatasetConfig {
    // reads ~= members * (1 + redundancy) + noise.
    let members = ((n_orfs as f64 / 1.24).round() as usize).max(20);
    DatasetConfig {
        n_families: (members / family_size).max(2),
        n_members: members,
        size_skew: 0.3,
        ancestor_len: 80..140,
        fragment_prob: 0.25,
        redundancy_frac: 0.14,
        n_noise: if noise { members / 10 } else { 0 },
        seed: 0x0c,
        ..DatasetConfig::default()
    }
}

/// Bytes of the windowed miner that do not grow with the text, at most,
/// beyond the histograms it reserves, in its two phases: counting — the
/// 2¹⁵ bucket starts and a histogram of 2¹⁵ `u32` counters per text chunk
/// (a chunk per thread) — and sorting a window — the bucket starts, the
/// scatter's cursors (one per bucket and chunk), and 64 KiB for job lists.
fn miner_table_bytes() -> (f64, f64) {
    let count = ((4 * THREADS + 8) << 15) as f64;
    (count, count + 65_536.0)
}

/// The windowed miner over `set` at cut-off `psi` under `budget`, opened
/// as the pipeline opens it: the reads planned in chunks under the budget
/// (`ChunkPlan::under_budget`), loaded chunk by chunk.
fn windowed(
    set: &SequenceSet,
    psi: u32,
    budget: &MemoryBudget,
) -> Result<PartitionedMiner, BudgetError> {
    let lens: Vec<u32> = set.ids().map(|id| set.seq_len(id) as u32).collect();
    let plan = ChunkPlan::under_budget(&lens, budget);
    let defaults = ClusterConfig::default();
    let config = MaximalMatchConfig {
        min_len: psi,
        max_pairs_per_node: defaults.max_pairs_per_node,
        dedup: true,
    };
    PartitionedMiner::try_new(plan, |r| set.load_range(r), config, THREADS, budget)
}

/// Windows `set` under [`BUDGET_SHARE`] of its monolithic index's
/// estimate, as `index_plan` decides, and holds the miner to what it
/// reserved: mined at ψ = 15 (`mine`, sparse input), its peak within 2 %
/// of what it reserved plus its tables and the mined pairs; mined at a
/// cut-off no match reaches (its windows sorted and treed, nothing mined),
/// the text it holds within 1 % plus 64 KiB of `estimated_text_bytes`,
/// and its peak within 2 % of what it reserved plus its tables.
fn hold_to_the_reservation(what: &str, set: &SequenceSet, mine: bool) {
    let estimate = estimated_index_bytes(set.total_residues(), set.len());
    let budget_bytes = (BUDGET_SHARE * estimate as f64) as u64;
    let config = ClusterConfig {
        budget: MemoryBudget::limited(budget_bytes),
        threads: THREADS,
        ..ClusterConfig::default()
    };
    let plan = index_plan(set, &config, None).expect("the budget admits the text and a window");
    assert_eq!(plan, IndexPlan::Windowed, "{what}: the budget must refuse the index");
    let (count_tables, window_tables) = miner_table_bytes();

    if mine {
        let budget = MemoryBudget::limited(budget_bytes);
        let live0 = peak_reset();
        let miner = windowed(set, config.psi_rr, &budget).expect("the budget admits the miner");
        let reserved = budget.used() as f64;
        let (pairs, _, held) = miner.mine();
        let peak = peak_since(live0) as f64;
        let mined = (std::mem::size_of::<MatchPair>() * pairs.len()) as f64;
        let bound = 1.02 * reserved + window_tables + mined;
        assert!(held.windows > 1 && !pairs.is_empty(), "{what}: {held:?}, {} pairs", pairs.len());
        assert!(
            peak <= bound,
            "{what}: the windowed miner peaked at {peak} bytes over {reserved} reserved \
             (bound {bound:.0})"
        );
    }

    // Index alone: the text held, then the peak.
    let text_est = estimated_text_bytes(set.total_residues(), set.len());
    let tables = match windowed(set, 10_000, &MemoryBudget::limited(text_est)) {
        Err(e) if e.what == "gsa-tables" => e.requested,
        _ => 0,
    };
    let budget = MemoryBudget::limited(budget_bytes);
    let live0 = peak_reset();
    let miner = windowed(set, 10_000, &budget).expect("the budget admits the miner");
    // Held now: the text and the bucket table — its starts and histograms.
    let text_held = live_bytes().saturating_sub(live0).saturating_sub((8 << 15) + tables);
    let reserved = budget.used() as f64;
    let (_, _, held) = miner.mine();
    let peak = peak_since(live0) as f64;
    assert!(held.windows > 1, "{what}: {held:?}");
    assert!(
        text_held.abs_diff(text_est) as f64 <= 0.01 * text_est as f64 + 65_536.0,
        "{what}: the windowed miner holds {text_held} bytes of text, estimated {text_est}"
    );
    // Whichever phase peaked: the text while the buckets are counted, or
    // the text and a window while it is sorted.
    let bound = (1.01 * text_est as f64 + count_tables).max(1.02 * reserved + window_tables);
    assert!(
        peak <= bound,
        "{what}: the windowed index peaked at {peak} bytes over {reserved} reserved \
         (bound {bound:.0})"
    );
}

/// The windowed miner on sparse input (families of about 10, a tenth of
/// the reads unrelated), mined and index alone, and on dense input
/// (families of about 300, no unrelated reads: about half the suffixes are
/// kept at ψ = 15, so the windows' kept arrays and trees are as large as
/// they get), index alone — its mined pass holds every window's stream at
/// once, which the bound does not count.
fn the_windowed_miner_stays_inside_what_it_reserved() {
    const READS: usize = 10_000;
    hold_to_the_reservation(
        "sparse",
        &SyntheticDataset::generate(&recipe(READS, 10, true)).set,
        true,
    );
    hold_to_the_reservation(
        "dense",
        &SyntheticDataset::generate(&recipe(READS, 300, false)).set,
        false,
    );
}
