//! Out-of-core index-plane benchmark: monolithic vs partitioned GSA at a
//! matched memory budget on a streamed (paged-store) dataset, emitting
//! **append-mode** trajectory records to `BENCH_index_oc.json` — one JSON
//! line per run, so successive PRs accumulate a visible history instead
//! of overwriting it.
//!
//! ```sh
//! cargo run --release -p pfam-bench --bin index_oc_bench [n_orfs]
//! cargo run --release -p pfam-bench --bin index_oc_bench -- --test  # smoke
//! ```
//!
//! Three sections per record:
//!
//! * `datagen` — `generate_to_store` streams `n_orfs` reads (default
//!   1 000 000) through a `PagedStoreWriter`; peak allocation shows the
//!   generator's memory is flat in the ORF count.
//! * `compare` — monolithic (`GeneralizedSuffixArray` over the whole set)
//!   vs partitioned (`PartitionedMiner` over budget-sized chunks) pair
//!   mining on the same reads at a **matched budget**: the budget admits
//!   the partitioned plan and refuses the monolithic reservation. The
//!   pair sets are asserted identical; peak allocation per side comes
//!   from this binary's counting `#[global_allocator]`.
//! * `pipeline` — the full pipeline (`run_pipeline`) over the paged
//!   store, under a budget smaller than the monolithic index's estimated
//!   footprint.
//!
//! The comparison section is capped at 20 K reads (the monolithic side
//! must stay feasible on the measurement host); the pipeline section runs
//! at the full requested scale. Core counts are recorded through the
//! honesty guard; per-side seconds are raw single-host measurements, not
//! scaling claims.

use std::time::Instant;

use pfam_bench::alloc::{peak_reset, peak_since, CountingAlloc};
use pfam_bench::{cores_field, detected_cores, emit_append, BenchArgs};
use pfam_cluster::index_plan;
use pfam_core::PipelineConfig;
use pfam_datagen::{generate_to_store, DatasetConfig};
use pfam_seq::{MemoryBudget, PagedSeqStore, SeqId, SeqStore};
use pfam_suffix::{
    estimated_index_bytes, parallel_pairs, ChunkPlan, GeneralizedSuffixArray, MatchPair,
    MaximalMatchConfig, PartitionedMiner, SuffixTree,
};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Canonical sort key: two miners emit the same *set* of pairs, possibly
/// in different orders. Keyed on `(a, b, len)` — `MatchPair`'s own
/// equality fields; representative occurrence positions are
/// enumeration-order dependent when ties exist at the maximal length.
fn canonical(mut pairs: Vec<MatchPair>) -> Vec<(u32, u32, u32)> {
    let mut keys: Vec<_> = pairs.drain(..).map(|p| (p.a.0, p.b.0, p.len)).collect();
    keys.sort_unstable();
    keys
}

fn main() {
    let args = BenchArgs::parse();
    let cores = detected_cores();
    let n_orfs = args.scale(1_000.0, 1_000_000.0) as usize;

    // A metagenome-like long tail: many small families of ~10 members
    // (mild skew), short ORFs. Family count scales *linearly* with the
    // read count so per-read pipeline work stays flat — the regime where
    // a million-ORF run is index-bound, which is what this bench is
    // about. reads ~= members * (1 + redundancy) + noise.
    let members = ((n_orfs as f64 / 1.24).round() as usize).max(20);
    let config = DatasetConfig {
        n_families: (members / 10).max(2),
        n_members: members,
        size_skew: 0.3,
        ancestor_len: 80..140,
        fragment_prob: 0.25,
        redundancy_frac: 0.14,
        n_noise: members / 10,
        seed: 0x0c,
        ..DatasetConfig::default()
    };

    // ---- Streamed datagen into a paged store. ----
    let path = std::env::temp_dir().join(format!("pfam_index_oc_{n_orfs}.pseq"));
    let live0 = peak_reset();
    let t0 = Instant::now();
    let streamed = generate_to_store(&config, &path, 4 << 20).expect("temp dir is writable");
    let datagen_s = t0.elapsed().as_secs_f64();
    let datagen_peak = peak_since(live0);
    let store = PagedSeqStore::open(&path).expect("the store just written opens");
    eprintln!(
        "index_oc_bench: streamed {} reads / {} residues in {datagen_s:.2}s (peak alloc {} MiB)",
        streamed.n_reads,
        streamed.total_residues,
        datagen_peak >> 20
    );

    let mono_bytes = estimated_index_bytes(store.total_residues(), store.len());

    // ---- Monolithic vs partitioned mining at a matched budget. ----
    // Capped so the monolithic side stays feasible; both sides see the
    // same reads, the same matching config, and the same budget.
    let cmp_n = store.len().min(20_000) as u32;
    let cmp_set = store.load_range(0..cmp_n);
    let cmp_bytes = estimated_index_bytes(cmp_set.total_residues(), cmp_set.len());
    let budget_bytes = cmp_bytes / 2;
    let chunk_bytes = cmp_bytes / 6;
    let pair_config = MaximalMatchConfig { min_len: 15, max_pairs_per_node: 100_000, dedup: true };

    let live0 = peak_reset();
    let t0 = Instant::now();
    let gsa = GeneralizedSuffixArray::build(&cmp_set);
    let tree = SuffixTree::build(&gsa);
    let (mono_pairs, _) = parallel_pairs(&tree, pair_config, 1);
    let mono_s = t0.elapsed().as_secs_f64();
    let mono_peak = peak_since(live0);
    drop(tree);
    drop(gsa);

    let budget = MemoryBudget::limited(budget_bytes);
    // The matched budget refuses the monolithic index up front — that
    // refusal (a typed error, not an abort) is what forces partitioning.
    let mono_fits = budget.would_fit(cmp_bytes);
    assert!(!mono_fits, "the matched budget must be smaller than the monolithic index");
    let lens: Vec<u32> = (0..cmp_n).map(|i| cmp_set.seq_len(SeqId(i)) as u32).collect();
    let plan = ChunkPlan::plan(&lens, chunk_bytes);
    let n_chunks = plan.n_chunks();
    let live0 = peak_reset();
    let t0 = Instant::now();
    let miner = PartitionedMiner::try_new(plan, |r| cmp_set.load_range(r), pair_config, 1, &budget)
        .expect("the chunk plan fits the matched budget");
    let part_pairs: Vec<MatchPair> = miner.collect();
    let part_s = t0.elapsed().as_secs_f64();
    let part_peak = peak_since(live0);

    let pairs_identical = canonical(mono_pairs.clone()) == canonical(part_pairs.clone());
    assert!(pairs_identical, "partitioned pair set diverged from monolithic — this is a bug");
    eprintln!(
        "index_oc_bench: compare n={cmp_n}: {} pairs identical across {n_chunks} chunks \
         (mono {mono_s:.2}s / {} MiB peak, part {part_s:.2}s / {} MiB peak)",
        mono_pairs.len(),
        mono_peak >> 20,
        part_peak >> 20
    );
    drop(cmp_set);

    // ---- Full budgeted pipeline over the paged store. ----
    // Budget below the monolithic footprint; the index plane sizes the
    // chunks from it so a cross-chunk task (two chunks resident) fits.
    let pipe_budget = mono_bytes * 2 / 3;
    let pipe_config = PipelineConfig::default().with_mem_budget(pipe_budget);
    let pipe_chunk = index_plan(&store, &pipe_config.cluster, None)
        .expect("the pipeline budget admits one-read chunks");
    let live0 = peak_reset();
    let t0 = Instant::now();
    let result = pipe_config.run(&store);
    let pipeline_s = t0.elapsed().as_secs_f64();
    let pipeline_peak = peak_since(live0);
    let budget_peak = pipe_config.cluster.budget.peak();
    eprintln!(
        "index_oc_bench: pipeline {} reads in {pipeline_s:.2}s under {} MiB budget \
         (mono index estimate {} MiB): {} non-redundant, {} components, {} subgraphs, \
         peak alloc {} MiB",
        store.len(),
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
            "\"n_reads\": {n_reads}, \"total_residues\": {residues}, ",
            "\"monolithic_index_bytes\": {mono_bytes}, ",
            "\"datagen\": {{ \"seconds\": {dg_s:.3}, \"peak_alloc_bytes\": {dg_peak} }}, ",
            "\"compare\": {{ \"n_reads\": {cmp_n}, \"budget_bytes\": {budget_bytes}, ",
            "\"chunk_bytes\": {chunk_bytes}, \"n_chunks\": {n_chunks}, ",
            "\"monolithic_fits_budget\": {mono_fits}, \"n_pairs\": {n_pairs}, ",
            "\"pairs_identical\": {pairs_identical}, ",
            "\"monolithic\": {{ \"seconds\": {mono_s:.3}, \"peak_alloc_bytes\": {mono_peak} }}, ",
            "\"partitioned\": {{ \"seconds\": {part_s:.3}, \"peak_alloc_bytes\": {part_peak} }} }}, ",
            "\"pipeline\": {{ \"budget_bytes\": {pipe_budget}, \"chunk_bytes\": {pipe_chunk}, ",
            "\"seconds\": {pipe_s:.3}, \"peak_alloc_bytes\": {pipe_peak}, ",
            "\"budget_peak_bytes\": {budget_peak}, \"n_non_redundant\": {n_nr}, ",
            "\"n_components\": {n_comp}, \"n_dense_subgraphs\": {n_ds} }} }}"
        ),
        mode = if args.smoke { "smoke" } else { "full" },
        cores_field = cores_field(cores),
        n_reads = streamed.n_reads,
        residues = streamed.total_residues,
        mono_bytes = mono_bytes,
        dg_s = datagen_s,
        dg_peak = datagen_peak,
        cmp_n = cmp_n,
        budget_bytes = budget_bytes,
        chunk_bytes = chunk_bytes,
        n_chunks = n_chunks,
        mono_fits = mono_fits,
        n_pairs = mono_pairs.len(),
        pairs_identical = pairs_identical,
        mono_s = mono_s,
        mono_peak = mono_peak,
        part_s = part_s,
        part_peak = part_peak,
        pipe_budget = pipe_budget,
        pipe_chunk = pipe_chunk,
        pipe_s = pipeline_s,
        pipe_peak = pipeline_peak,
        budget_peak = budget_peak,
        n_nr = result.non_redundant.len(),
        n_comp = result.components.len(),
        n_ds = result.dense_subgraphs.len(),
    );
    let _ = std::fs::remove_file(&path);
    emit_append("index_oc", &record, args.smoke);
}
