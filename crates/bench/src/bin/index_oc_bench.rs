//! Out-of-core index-plane benchmark: the monolithic suffix index against
//! the windowed miner under a memory budget, on one generated in-memory
//! dataset, emitting **append-mode** records to `BENCH_index_oc.json` —
//! one JSON line per run, so successive runs accumulate a history instead
//! of overwriting it.
//!
//! ```sh
//! cargo run --release -p pfam-bench --bin index_oc_bench [n_orfs]   # default 100 000
//! cargo run --release -p pfam-bench --bin index_oc_bench -- --test  # smoke
//! ```
//!
//! The input is `SyntheticDataset::generate` at `n_orfs` reads. Three
//! sections per record, each on all detected cores:
//!
//! * `compare` — the first `n_reads` (at most 50 000) reads mined at
//!   ψ = 15 twice: one monolithic index, unbudgeted, and the windowed miner
//!   under 0.4 × that index's estimate (the share of the benchmark's
//!   `sparse_budgeted` workload). The streams are asserted identical —
//!   every pair in order, anchors and statistics included
//!   (`streams_identical`) — and each side is weighed by this binary's
//!   counting `#[global_allocator]`. The windowed side is held to what it
//!   reserved — the text, its bucket histograms and its largest window —
//!   twice. Mined at ψ = 15, its peak stays within 2 % of that plus the
//!   bucket tables that do not grow with the text and the mined pairs
//!   (`windowed.peak_bound_bytes`). Mined at a cut-off no match reaches
//!   (`index_alone`: its windows are sorted and treed and nothing is
//!   mined), the text it holds stays within 1 % plus 64 KiB of
//!   `estimated_text_bytes`, and the peak within 2 % of what it reserved
//!   plus the tables. Together they check the 8 bytes a window is charged
//!   per suffix it scatters (`estimated_window_bytes`). `--test` runs
//!   10 000 reads, where the tables are a third of the bound.
//! * `dense` — as many reads in families of about 300, with no unrelated
//!   reads: about half the suffixes are kept at ψ = 15, so the windows'
//!   kept arrays and trees are as large as they get. Its `index_alone`
//!   pass is held to the same bound. Its compare pass is reported, not
//!   held: every window's mined stream is kept until the streams are
//!   merged, and the bound counts only the merged pairs.
//! * `pipeline` — `run_pipeline` over the whole set under 0.4 × the
//!   monolithic index's estimate.

use std::time::Instant;

use pfam_bench::alloc::{live_bytes, peak_reset, peak_since, CountingAlloc};
use pfam_bench::{cores_field, detected_cores, emit_append, BenchArgs};
use pfam_cluster::index_plan;
use pfam_core::PipelineConfig;
use pfam_datagen::{DatasetConfig, SyntheticDataset};
use pfam_seq::{BudgetError, MemoryBudget, SeqStore, SequenceSet};
use pfam_suffix::maximal::GenerationStats;
use pfam_suffix::{
    estimated_index_bytes, estimated_text_bytes, parallel_pairs, ChunkPlan, GeneralizedSuffixArray,
    MatchPair, MaximalMatchConfig, PartitionedMiner, SuffixTree, WindowStats,
};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The budget of the windowed side, as a share of the monolithic
/// index's estimate.
const BUDGET_SHARE: f64 = 0.4;

/// Bytes of the windowed miner that do not grow with the text, at most,
/// beyond the histograms it reserves, in its two phases: counting — the
/// 2¹⁵ bucket starts and a histogram of 2¹⁵ `u32` counters per text chunk
/// (a chunk per thread) — and sorting a window — the bucket starts, the
/// scatter's cursors (one per bucket and chunk), and 64 KiB for job lists.
fn bucket_table_bytes(threads: usize) -> (u64, u64) {
    (((4 * threads + 8) << 15) as u64, ((4 * threads + 8) << 15) as u64 + 65_536)
}

/// A mined stream with its anchors and statistics: what must repeat.
type Stream = (Vec<(u32, u32, u32, u32, u32)>, GenerationStats);

fn anchored((pairs, stats): &(Vec<MatchPair>, GenerationStats)) -> Stream {
    (pairs.iter().map(|p| (p.a.0, p.b.0, p.len, p.a_pos, p.b_pos)).collect(), *stats)
}

/// The windowed miner over `set` at `config`, loaded as `pfam_cluster`
/// loads it.
fn try_windowed(
    set: &SequenceSet,
    config: MaximalMatchConfig,
    threads: usize,
    budget: &MemoryBudget,
) -> Result<PartitionedMiner, BudgetError> {
    let lens: Vec<u32> = set.ids().map(|id| set.seq_len(id) as u32).collect();
    let plan = ChunkPlan::under_budget(&lens, budget);
    PartitionedMiner::try_new(plan, |r| set.load_range(r), config, threads, budget)
}

fn windowed(
    set: &SequenceSet,
    config: MaximalMatchConfig,
    threads: usize,
    budget: &MemoryBudget,
) -> PartitionedMiner {
    try_windowed(set, config, threads, budget).expect("the budget admits the text and its windows")
}

/// Bytes of bucket histograms the windowed miner over `set` reserves beside
/// its text (`gsa-tables`): what a budget of the text alone refuses first,
/// if anything before a window.
fn reserved_table_bytes(set: &SequenceSet, config: MaximalMatchConfig, threads: usize) -> u64 {
    let text = estimated_text_bytes(set.total_residues(), set.len());
    match try_windowed(set, config, threads, &MemoryBudget::limited(text)) {
        Err(e) if e.what == "gsa-tables" => e.requested,
        _ => 0,
    }
}

/// The budget of the windowed side over `set`: [`BUDGET_SHARE`] of its
/// monolithic index's estimate.
fn budget_of(set: &SequenceSet) -> u64 {
    let bytes = estimated_index_bytes(set.total_residues(), set.len());
    let budget = (BUDGET_SHARE * bytes as f64) as u64;
    assert!(!MemoryBudget::limited(budget).would_fit(bytes), "the budget must refuse the index");
    budget
}

/// One monolithic index against the windowed miner, both mined at ψ = 15.
struct Compare {
    n_windows: usize,
    /// What the windows held: suffixes scattered and kept.
    held: WindowStats,
    n_pairs: usize,
    mono_s: f64,
    mono_peak: u64,
    part_s: f64,
    part_peak: u64,
    part_reserved: u64,
    /// What was reserved (2 % slack), the tables and the mined vector.
    part_bound: f64,
}

/// Mine `set` at `config` monolithically and windowed under `budget_bytes`
/// and assert the streams identical.
fn compare(
    set: &SequenceSet,
    config: MaximalMatchConfig,
    threads: usize,
    budget_bytes: u64,
) -> Compare {
    let live0 = peak_reset();
    let t0 = Instant::now();
    let gsa = GeneralizedSuffixArray::build_parallel(set, threads);
    let tree = SuffixTree::build_pruned(&gsa, config.min_len);
    let mono = parallel_pairs(&tree, config, threads);
    let mono_s = t0.elapsed().as_secs_f64();
    let mono_peak = peak_since(live0);
    drop(tree);
    drop(gsa);

    let (_, window_tables) = bucket_table_bytes(threads);
    let budget = MemoryBudget::limited(budget_bytes);
    let live0 = peak_reset();
    let t0 = Instant::now();
    let miner = windowed(set, config, threads, &budget);
    let n_windows = miner.n_windows();
    let part_reserved = budget.used();
    let (pairs, stats, held) = miner.mine();
    let part_s = t0.elapsed().as_secs_f64();
    let part_peak = peak_since(live0);
    assert!(
        anchored(&(pairs, stats)) == anchored(&mono),
        "the windowed stream diverged from the monolithic one"
    );
    let part_bound = 1.02 * part_reserved as f64
        + window_tables as f64
        + (std::mem::size_of::<MatchPair>() * mono.0.len()) as f64;
    Compare {
        n_windows,
        held,
        n_pairs: mono.0.len(),
        mono_s,
        mono_peak,
        part_s,
        part_peak,
        part_reserved,
        part_bound,
    }
}

/// The windowed index plane alone — its windows sorted and treed, nothing
/// mined — held to what it reserved.
struct IndexAlone {
    text_est: u64,
    tables: u64,
    text_held: u64,
    reserved: u64,
    bound: f64,
    peak: u64,
}

/// Sort and tree the windows of `set` under `budget_bytes` at a cut-off no
/// match reaches, and assert the text within 1 % plus 64 KiB of its
/// estimate and the peak within 2 % of what was reserved plus the tables.
fn index_alone(
    set: &SequenceSet,
    config: MaximalMatchConfig,
    threads: usize,
    budget_bytes: u64,
    what: &str,
) -> IndexAlone {
    let (count_tables, window_tables) = bucket_table_bytes(threads);
    let text_est = estimated_text_bytes(set.total_residues(), set.len());
    let nothing_to_mine = MaximalMatchConfig { min_len: 10_000, ..config };
    let tables = reserved_table_bytes(set, nothing_to_mine, threads);
    let budget = MemoryBudget::limited(budget_bytes);
    let live0 = peak_reset();
    let miner = windowed(set, nothing_to_mine, threads, &budget);
    // Held now: the text and the bucket table — its starts and histograms.
    let text_held = live_bytes().saturating_sub(live0).saturating_sub((8 << 15) + tables);
    let reserved = budget.used();
    drop(miner.mine());
    let peak = peak_since(live0);
    assert!(
        text_held.abs_diff(text_est) as f64 <= 0.01 * text_est as f64 + 65_536.0,
        "{what}: the windowed miner holds {text_held} bytes of text, estimated {text_est}"
    );
    // Whichever phase peaked: the text while the buckets are counted, or
    // the text and a window while it is sorted.
    let bound = (1.01 * text_est as f64 + count_tables as f64)
        .max(1.02 * reserved as f64 + window_tables as f64);
    assert!(
        peak as f64 <= bound,
        "{what}: the windowed index peaked at {peak} bytes over {reserved} reserved \
         (bound {bound})"
    );
    IndexAlone { text_est, tables, text_held, reserved, bound, peak }
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

/// The `index_alone` object of the record.
fn index_alone_json(a: &IndexAlone) -> String {
    format!(
        concat!(
            "\"index_alone\": {{ \"text_bytes_est\": {}, \"table_bytes\": {}, ",
            "\"text_bytes_held\": {}, \"reserved_bytes\": {}, \"peak_bound_bytes\": {:.0}, ",
            "\"peak_alloc_bytes\": {} }}"
        ),
        a.text_est, a.tables, a.text_held, a.reserved, a.bound, a.peak
    )
}

fn main() {
    let args = BenchArgs::parse();
    let cores = detected_cores();
    let threads = cores;
    let n_orfs = args.scale(10_000.0, 100_000.0) as usize;

    // A metagenome-like long tail: many small families of ~10 members
    // (mild skew), short ORFs. Family count scales *linearly* with the
    // read count so per-read pipeline work stays flat — the regime where
    // a large run is index-bound, which is what this bench is about.
    let set = SyntheticDataset::generate(&recipe(n_orfs, 10, true)).set;
    let mono_bytes = estimated_index_bytes(set.total_residues(), set.len());
    let pair_config = MaximalMatchConfig { min_len: 15, max_pairs_per_node: 100_000, dedup: true };

    // ---- Monolithic vs windowed mining. ----
    let cmp_n = set.len().min(50_000) as u32;
    let cmp_set = set.load_range(0..cmp_n);
    let budget_bytes = budget_of(&cmp_set);
    let cmp = compare(&cmp_set, pair_config, threads, budget_bytes);
    // The windows' sort arrays, trees and streams within their 8 bytes a
    // suffix: what was reserved, the tables, and the mined vector.
    assert!(
        cmp.part_peak as f64 <= cmp.part_bound,
        "the windowed miner peaked at {} bytes over {} reserved (bound {:.0})",
        cmp.part_peak,
        cmp.part_reserved,
        cmp.part_bound
    );
    let alone = index_alone(&cmp_set, pair_config, threads, budget_bytes, "sparse");
    eprintln!(
        "index_oc_bench: compare n={cmp_n}: {} pairs identical across {} windows, {} of {} \
         suffixes kept (mono {:.2}s / {} MiB peak, windowed {:.2}s / {} B peak under {} MiB, \
         bound {:.0} B); index alone peaked at {} B over {} B reserved (bound {:.0} B)",
        cmp.n_pairs,
        cmp.n_windows,
        cmp.held.kept,
        cmp.held.suffixes,
        cmp.mono_s,
        cmp.mono_peak >> 20,
        cmp.part_s,
        cmp.part_peak,
        budget_bytes >> 20,
        cmp.part_bound,
        alone.peak,
        alone.reserved,
        alone.bound
    );
    drop(cmp_set);

    // ---- The same on dense input: families of ~300 reads, no noise, so
    // about half the suffixes are kept and the windows' trees are large.
    // The index alone is held to the same bound; the compare pass is not
    // gated, since it holds every window's mined stream at once (ROADMAP,
    // the mined pair vector). ----
    let dense_set = SyntheticDataset::generate(&recipe(cmp_n as usize, 300, false)).set;
    let dense_n = dense_set.len();
    let dense_budget = budget_of(&dense_set);
    let dense = compare(&dense_set, pair_config, threads, dense_budget);
    let dense_alone = index_alone(&dense_set, pair_config, threads, dense_budget, "dense");
    eprintln!(
        "index_oc_bench: dense n={dense_n}: {} pairs identical across {} windows, {} of {} \
         suffixes kept (windowed {} B peak, bound {:.0} B, not gated); index alone peaked at {} B \
         over {} B reserved (bound {:.0} B)",
        dense.n_pairs,
        dense.n_windows,
        dense.held.kept,
        dense.held.suffixes,
        dense.part_peak,
        dense.part_bound,
        dense_alone.peak,
        dense_alone.reserved,
        dense_alone.bound
    );
    drop(dense_set);

    // ---- Full budgeted pipeline over the whole set. ----
    let pipe_budget = (BUDGET_SHARE * mono_bytes as f64) as u64;
    let pipe_config = PipelineConfig::default().with_mem_budget(pipe_budget);
    let plan = index_plan(&set, &pipe_config.cluster, None)
        .expect("the pipeline budget admits the text and a window");
    let live0 = peak_reset();
    let t0 = Instant::now();
    let result = pipe_config.run(&set);
    let pipeline_s = t0.elapsed().as_secs_f64();
    let pipeline_peak = peak_since(live0);
    let budget_peak = pipe_config.cluster.budget.peak();
    eprintln!(
        "index_oc_bench: pipeline {} reads in {pipeline_s:.2}s under {} MiB budget ({plan:?}, \
         mono index estimate {} MiB): {} non-redundant, {} components, {} subgraphs, \
         peak alloc {} MiB",
        set.len(),
        pipe_budget >> 20,
        mono_bytes >> 20,
        result.non_redundant.len(),
        result.components.len(),
        result.dense_subgraphs.len(),
        pipeline_peak >> 20
    );

    let record = format!(
        concat!(
            "{{ \"bench\": \"index_oc\", \"mode\": \"{mode}\", {cores_field}, ",
            "\"threads\": {threads}, \"n_reads\": {n_reads}, \"total_residues\": {residues}, ",
            "\"monolithic_index_bytes\": {mono_bytes}, ",
            "\"compare\": {{ \"n_reads\": {cmp_n}, \"psi\": {psi}, ",
            "\"budget_share\": {share}, \"budget_bytes\": {budget_bytes}, ",
            "\"n_windows\": {n_windows}, \"suffixes\": {suffixes}, \"kept\": {kept}, ",
            "\"n_pairs\": {n_pairs}, \"streams_identical\": true, ",
            "\"monolithic\": {{ \"seconds\": {mono_s:.3}, \"peak_alloc_bytes\": {mono_peak} }}, ",
            "\"windowed\": {{ \"seconds\": {part_s:.3}, \"peak_alloc_bytes\": {part_peak}, ",
            "\"peak_over_budget\": {part_ratio:.3}, \"reserved_bytes\": {part_reserved}, ",
            "\"peak_bound_bytes\": {part_bound:.0} }}, ",
            "{index_alone} }}, ",
            "\"dense\": {{ \"n_reads\": {dense_n}, \"budget_bytes\": {dense_budget}, ",
            "\"n_windows\": {dense_windows}, \"suffixes\": {dense_suffixes}, ",
            "\"kept\": {dense_kept}, \"n_pairs\": {dense_pairs}, \"streams_identical\": true, ",
            "\"windowed\": {{ \"peak_alloc_bytes\": {dense_peak}, ",
            "\"reserved_bytes\": {dense_reserved}, \"peak_bound_bytes\": {dense_bound:.0}, ",
            "\"gated\": false }}, {dense_alone} }}, ",
            "\"pipeline\": {{ \"budget_bytes\": {pipe_budget}, \"plan\": \"{plan:?}\", ",
            "\"seconds\": {pipe_s:.3}, \"peak_alloc_bytes\": {pipe_peak}, ",
            "\"budget_peak_bytes\": {budget_peak}, \"n_non_redundant\": {n_nr}, ",
            "\"n_components\": {n_comp}, \"n_dense_subgraphs\": {n_ds} }} }}"
        ),
        mode = if args.smoke { "smoke" } else { "full" },
        cores_field = cores_field(cores),
        threads = threads,
        n_reads = set.len(),
        residues = set.total_residues(),
        mono_bytes = mono_bytes,
        cmp_n = cmp_n,
        psi = pair_config.min_len,
        share = BUDGET_SHARE,
        budget_bytes = budget_bytes,
        n_windows = cmp.n_windows,
        suffixes = cmp.held.suffixes,
        kept = cmp.held.kept,
        n_pairs = cmp.n_pairs,
        mono_s = cmp.mono_s,
        mono_peak = cmp.mono_peak,
        part_s = cmp.part_s,
        part_peak = cmp.part_peak,
        part_ratio = cmp.part_peak as f64 / budget_bytes as f64,
        part_reserved = cmp.part_reserved,
        part_bound = cmp.part_bound,
        index_alone = index_alone_json(&alone),
        dense_n = dense_n,
        dense_budget = dense_budget,
        dense_windows = dense.n_windows,
        dense_suffixes = dense.held.suffixes,
        dense_kept = dense.held.kept,
        dense_pairs = dense.n_pairs,
        dense_peak = dense.part_peak,
        dense_reserved = dense.part_reserved,
        dense_bound = dense.part_bound,
        dense_alone = index_alone_json(&dense_alone),
        pipe_budget = pipe_budget,
        plan = plan,
        pipe_s = pipeline_s,
        pipe_peak = pipeline_peak,
        budget_peak = budget_peak,
        n_nr = result.non_redundant.len(),
        n_comp = result.components.len(),
        n_ds = result.dense_subgraphs.len(),
    );
    emit_append("index_oc", &record, args.smoke);
}
