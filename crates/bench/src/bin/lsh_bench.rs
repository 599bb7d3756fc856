//! LSH sketch-plane benchmark: banded min-hash candidate generation vs
//! exact suffix-index mining, emitting **append-mode** trajectory records
//! to `BENCH_lsh.json` — one JSON line per run.
//!
//! ```sh
//! cargo run --release -p pfam-bench --bin lsh_bench [n_orfs]
//! cargo run --release -p pfam-bench --bin lsh_bench -- --test  # smoke
//! ```
//!
//! Three sections per record:
//!
//! * `sketch_at_scale` — a [`SketchSource`] streams candidates over the
//!   full paged store (default 1 000 000 ORFs). Its peak allocation is
//!   recorded against the monolithic GSA estimate for the same reads
//!   (`peak_vs_mono`, `under_half_mono`) — under half of it was the memory
//!   claim the sketch plane came with, made when the index took 16 bytes
//!   per text position. At 7 the record says where the claim stands; the
//!   run does not abort on it.
//! * `compare` — exact monolithic mining, partitioned mining, and the
//!   sketch source on the same ≤20 K-read slice, each with its own peak
//!   from this binary's counting `#[global_allocator]`; the sketch side
//!   also records its candidate recall against the exact pair set.
//! * `sweep` — the exactness trade quantified: for each (bands, rows)
//!   setting, candidate recall vs the exact pair set plus clustering
//!   precision/sensitivity vs datagen ground truth (the same
//!   `pfam_metrics` harness the quality bench uses). The full run asserts
//!   some swept point reaches recall ≥ 0.95.
//!
//! Core counts go through the honesty guard; the comparative
//! speedup claim is refused on a 1-core host. Raw per-side seconds are
//! single-host measurements, not scaling claims.

use std::collections::HashSet;
use std::time::Instant;

use pfam_bench::alloc::{peak_reset, peak_since, CountingAlloc};
use pfam_bench::{claim_f64, cores_field, detected_cores, emit_append, BenchArgs};
use pfam_cluster::{run_ccd, ClusterConfig, PairSource, SketchMode, SketchParams, SketchSource};
use pfam_datagen::{generate_to_store, DatasetConfig, SyntheticDataset};
use pfam_metrics::{labels_from_clusters, pair_confusion, QualityMeasures};
use pfam_seq::{MemoryBudget, PagedSeqStore, SeqId, SeqStore};
use pfam_suffix::{
    estimated_index_bytes, maximal::all_pairs, ChunkPlan, GeneralizedSuffixArray, MatchPair,
    MaximalMatchConfig, PartitionedMiner, SuffixTree,
};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Drain a pair source without retaining the pairs, returning how many
/// it emitted. Bounded batches keep the source's internal buffer — and
/// this binary's measurement — at stream size, not corpus size.
fn drain_count(src: &mut dyn PairSource) -> u64 {
    let mut n = 0u64;
    loop {
        let batch = src.next_batch(65_536);
        n += batch.len() as u64;
        if batch.len() < 65_536 {
            return n;
        }
    }
}

/// Drain a pair source into the `(a, b)` key set recall is computed on.
fn drain_keys(src: &mut dyn PairSource) -> HashSet<u64> {
    let mut keys = HashSet::new();
    loop {
        let batch = src.next_batch(65_536);
        let short = batch.len() < 65_536;
        keys.extend(batch.iter().map(MatchPair::key));
        if short {
            return keys;
        }
    }
}

/// Exact promising-pair set for `set` at the config's ψ — the reference
/// every recall figure is computed against.
fn exact_pairs(set: &pfam_seq::SequenceSet, config: &ClusterConfig) -> Vec<MatchPair> {
    let gsa = GeneralizedSuffixArray::build(set);
    let tree = SuffixTree::build(&gsa);
    all_pairs(
        &tree,
        MaximalMatchConfig {
            min_len: config.psi_ccd,
            max_pairs_per_node: config.max_pairs_per_node,
            dedup: true,
        },
    )
}

/// Fraction of exact pairs the candidate set covers (1.0 when there are
/// no exact pairs — nothing was missed).
fn recall_of(candidates: &HashSet<u64>, exact: &[MatchPair]) -> f64 {
    if exact.is_empty() {
        return 1.0;
    }
    let hit = exact.iter().filter(|p| candidates.contains(&p.key())).count();
    hit as f64 / exact.len() as f64
}

/// The approximate-mode cluster config a sweep point runs under.
fn sketch_config(bands: usize, rows: usize) -> ClusterConfig {
    ClusterConfig {
        sketch: SketchParams { mode: SketchMode::Approx, bands, rows, ..SketchParams::default() },
        ..ClusterConfig::default()
    }
}

fn main() {
    let args = BenchArgs::parse();
    let cores = detected_cores();
    let n_orfs = args.scale(1_000.0, 1_000_000.0) as usize;

    // Same metagenome-like long tail the out-of-core index bench streams:
    // family count linear in the read count, short ORFs, mild skew.
    let members = ((n_orfs as f64 / 1.24).round() as usize).max(20);
    let gen_config = DatasetConfig {
        n_families: (members / 10).max(2),
        n_members: members,
        size_skew: 0.3,
        ancestor_len: 80..140,
        fragment_prob: 0.25,
        redundancy_frac: 0.14,
        n_noise: members / 10,
        seed: 0x15,
        ..DatasetConfig::default()
    };

    // ---- Streamed datagen into a paged store. ----
    let path = std::env::temp_dir().join(format!("pfam_lsh_{n_orfs}.pseq"));
    let streamed = generate_to_store(&gen_config, &path, 4 << 20).expect("temp dir is writable");
    let store = PagedSeqStore::open(&path).expect("the store just written opens");
    let mono_bytes = estimated_index_bytes(store.total_residues(), store.len());
    eprintln!(
        "lsh_bench: streamed {} reads / {} residues (mono index estimate {} MiB)",
        streamed.n_reads,
        streamed.total_residues,
        mono_bytes >> 20
    );

    // ---- Sketch source over the full store: the memory claim. ----
    let scale_config = sketch_config(16, 2);
    let live0 = peak_reset();
    let t0 = Instant::now();
    let mut src = SketchSource::new(&store, &scale_config, scale_config.psi_ccd, 0);
    let scale_pairs = drain_count(&mut src);
    let scale_s = t0.elapsed().as_secs_f64();
    let scale_peak = peak_since(live0);
    let scale_stats = src.stats();
    drop(src);
    let peak_vs_mono = scale_peak as f64 / mono_bytes as f64;
    let under_half = scale_peak < mono_bytes / 2;
    eprintln!(
        "lsh_bench: sketch at scale n={}: {} candidates -> {} unique pairs in {scale_s:.2}s, \
         peak {} MiB = {:.1}% of the mono estimate",
        store.len(),
        scale_stats.candidates,
        scale_pairs,
        scale_peak >> 20,
        peak_vs_mono * 100.0
    );

    // ---- Exact vs partitioned vs sketch on a bounded slice. ----
    let cmp_config = ClusterConfig::default();
    let cmp_n = store.len().min(20_000) as u32;
    let cmp_set = store.load_range(0..cmp_n);
    let cmp_bytes = estimated_index_bytes(cmp_set.total_residues(), cmp_set.len());
    let pair_config = MaximalMatchConfig {
        min_len: cmp_config.psi_ccd,
        max_pairs_per_node: cmp_config.max_pairs_per_node,
        dedup: true,
    };

    let live0 = peak_reset();
    let t0 = Instant::now();
    let gsa = GeneralizedSuffixArray::build(&cmp_set);
    let tree = SuffixTree::build(&gsa);
    let exact = all_pairs(&tree, pair_config);
    let exact_s = t0.elapsed().as_secs_f64();
    let exact_peak = peak_since(live0);
    drop(tree);
    drop(gsa);

    let budget = MemoryBudget::limited(cmp_bytes / 2);
    let lens: Vec<u32> = (0..cmp_n).map(|i| cmp_set.seq_len(SeqId(i)) as u32).collect();
    let plan = ChunkPlan::plan(&lens, cmp_bytes / 6);
    let n_chunks = plan.n_chunks();
    let live0 = peak_reset();
    let t0 = Instant::now();
    let miner = PartitionedMiner::try_new(plan, |r| cmp_set.load_range(r), pair_config, 1, &budget)
        .expect("the chunk plan fits the matched budget");
    let part_n = miner.count() as u64;
    let part_s = t0.elapsed().as_secs_f64();
    let part_peak = peak_since(live0);

    let live0 = peak_reset();
    let t0 = Instant::now();
    let mut src = SketchSource::new(&cmp_set, &scale_config, scale_config.psi_ccd, 0);
    let cmp_keys = drain_keys(&mut src);
    let sketch_s = t0.elapsed().as_secs_f64();
    let sketch_peak = peak_since(live0);
    drop(src);
    let cmp_recall = recall_of(&cmp_keys, &exact);
    let speedup = exact_s / sketch_s.max(1e-9);
    eprintln!(
        "lsh_bench: compare n={cmp_n}: exact {} pairs {exact_s:.2}s / {} MiB, partitioned \
         {part_n} pairs {part_s:.2}s / {} MiB ({n_chunks} chunks), sketch {} candidates \
         {sketch_s:.2}s / {} MiB, recall {cmp_recall:.3}",
        exact.len(),
        exact_peak >> 20,
        part_peak >> 20,
        cmp_keys.len(),
        sketch_peak >> 20
    );
    drop(cmp_keys);
    drop(cmp_set);

    // ---- Band/row sweep: recall + clustering quality vs ground truth. ----
    let sweep_members = if args.smoke { 240 } else { 2_400 };
    let sweep_data = SyntheticDataset::generate(&DatasetConfig {
        n_families: sweep_members / 20,
        n_members: sweep_members,
        ancestor_len: 80..140,
        fragment_prob: 0.25,
        redundancy_frac: 0.14,
        n_noise: sweep_members / 10,
        seed: 0xB4,
        ..DatasetConfig::default()
    });
    let sweep_n = sweep_data.set.len();
    let truth: Vec<Option<u32>> =
        sweep_data.provenance.iter().map(pfam_datagen::Provenance::family).collect();
    let exact_config = ClusterConfig::default();
    let sweep_exact = exact_pairs(&sweep_data.set, &exact_config);
    let exact_ccd = run_ccd(&sweep_data.set, &exact_config);
    let quality_of = |components: &[Vec<SeqId>]| {
        let clusters: Vec<Vec<u32>> =
            components.iter().map(|c| c.iter().map(|id| id.0).collect()).collect();
        let labels = labels_from_clusters(sweep_n, &clusters);
        QualityMeasures::from_confusion(&pair_confusion(&labels, &truth))
    };
    let exact_q = quality_of(&exact_ccd.components);

    let grid: [(usize, usize); 7] = [(4, 2), (8, 2), (16, 2), (32, 2), (8, 4), (16, 1), (32, 1)];
    let mut best_recall = 0.0f64;
    let mut sweep_rows = Vec::new();
    for (bands, rows) in grid {
        let config = sketch_config(bands, rows);
        let mut src = SketchSource::new(&sweep_data.set, &config, config.psi_ccd, 0);
        let keys = drain_keys(&mut src);
        let stats = src.stats();
        drop(src);
        let recall = recall_of(&keys, &sweep_exact);
        best_recall = best_recall.max(recall);
        let ccd = run_ccd(&sweep_data.set, &config);
        let q = quality_of(&ccd.components);
        eprintln!(
            "lsh_bench: sweep b={bands:<2} r={rows}: recall {recall:.3}, precision {:.3}, \
             sensitivity {:.3} ({} candidates, {} unique)",
            q.precision,
            q.sensitivity,
            stats.candidates,
            keys.len()
        );
        sweep_rows.push(format!(
            "    {{ \"bands\": {bands}, \"rows\": {rows}, \"recall\": {recall:.4}, \
             \"precision\": {:.4}, \"sensitivity\": {:.4}, \"candidates\": {}, \
             \"unique_pairs\": {} }}",
            q.precision,
            q.sensitivity,
            stats.candidates,
            keys.len()
        ));
    }
    let recall_target_met = best_recall >= 0.95;
    if !args.smoke {
        assert!(
            recall_target_met,
            "no swept (bands, rows) reached recall 0.95 (best {best_recall:.3}) — \
             the approximate mode is not delivering its advertised operating point"
        );
    }

    let record = format!(
        concat!(
            "{{ \"bench\": \"lsh\", \"mode\": \"{mode}\", {cores_field}, ",
            "\"n_reads\": {n_reads}, \"total_residues\": {residues}, ",
            "\"monolithic_index_bytes\": {mono_bytes}, ",
            "\"sketch_at_scale\": {{ \"bands\": 16, \"rows\": 2, \"seconds\": {scale_s:.3}, ",
            "\"peak_bytes\": {scale_peak}, \"candidates\": {scale_cands}, ",
            "\"unique_pairs\": {scale_pairs}, \"peak_vs_mono\": {peak_vs_mono:.4}, ",
            "\"under_half_mono\": {under_half} }}, ",
            "\"compare\": {{ \"n_reads\": {cmp_n}, \"n_exact_pairs\": {n_exact}, ",
            "\"exact\": {{ \"seconds\": {exact_s:.3}, \"peak_bytes\": {exact_peak} }}, ",
            "\"partitioned\": {{ \"n_chunks\": {n_chunks}, \"seconds\": {part_s:.3}, ",
            "\"peak_bytes\": {part_peak} }}, ",
            "\"sketch\": {{ \"seconds\": {sketch_s:.3}, \"peak_bytes\": {sketch_peak}, ",
            "\"recall\": {cmp_recall:.4}, {speedup_claim} }} }}, ",
            "\"sweep\": {{ \"n_reads\": {sweep_n}, \"exact_precision\": {ex_p:.4}, ",
            "\"exact_sensitivity\": {ex_s:.4}, \"best_recall\": {best_recall:.4}, ",
            "\"recall_target_met\": {recall_target_met}, \"points\": [\n{sweep_rows}\n  ] }} }}"
        ),
        mode = if args.smoke { "smoke" } else { "full" },
        cores_field = cores_field(cores),
        n_reads = streamed.n_reads,
        residues = streamed.total_residues,
        mono_bytes = mono_bytes,
        scale_s = scale_s,
        scale_peak = scale_peak,
        scale_cands = scale_stats.candidates,
        scale_pairs = scale_pairs,
        peak_vs_mono = peak_vs_mono,
        under_half = under_half,
        cmp_n = cmp_n,
        n_exact = exact.len(),
        exact_s = exact_s,
        exact_peak = exact_peak,
        n_chunks = n_chunks,
        part_s = part_s,
        part_peak = part_peak,
        sketch_s = sketch_s,
        sketch_peak = sketch_peak,
        cmp_recall = cmp_recall,
        speedup_claim = claim_f64(cores, "speedup_vs_exact", speedup),
        sweep_n = sweep_n,
        ex_p = exact_q.precision,
        ex_s = exact_q.sensitivity,
        best_recall = best_recall,
        recall_target_met = recall_target_met,
        sweep_rows = sweep_rows.join(",\n"),
    );
    let _ = std::fs::remove_file(&path);
    // The sweep rows are pretty-printed across lines; collapse for the
    // one-line append contract.
    let record = record.replace('\n', " ");
    emit_append("lsh", &record, args.smoke);
}
