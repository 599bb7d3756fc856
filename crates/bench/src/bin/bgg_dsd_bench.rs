//! BGG→DSD back-half benchmark: the barrier data flow (all component
//! graphs, then all dense-subgraph detection) vs the fused streaming
//! executor on the same component population — emitting a
//! machine-readable `BENCH_bgg_dsd.json` alongside `BENCH_index.json` and
//! `BENCH_align.json`.
//!
//! ```sh
//! cargo run --release -p pfam-bench --bin bgg_dsd_bench [scale]
//! cargo run --release -p pfam-bench --bin bgg_dsd_bench -- --test   # smoke
//! ```
//!
//! `--test` runs a tiny single-rep smoke pass and prints the JSON to
//! stdout instead of writing the file. The bench asserts — and records —
//! that streaming and barrier outputs are identical.

use pfam_bench::{
    claim_f64, cores_field, dataset_160k_like, detected_cores, emit, time_min, BenchArgs,
};
use pfam_core::{barrier_components, stream_components, ComponentOutput, PipelineConfig};
use pfam_seq::SeqId;

fn outputs_identical(a: &[ComponentOutput], b: &[ComponentOutput]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.graph.members == y.graph.members
                && x.graph.graph == y.graph.graph
                && x.record == y.record
                && x.subgraphs == y.subgraphs
                && x.stats == y.stats
        })
}

fn main() {
    let args = BenchArgs::parse();
    let scale = args.scale(0.02, 0.25);
    let reps = args.reps();

    let data = dataset_160k_like(scale, 0xb99);
    let set = &data.set;
    let config =
        PipelineConfig { min_component_size: 2, min_subgraph_size: 2, ..PipelineConfig::default() };
    eprintln!(
        "bgg_dsd_bench: {} ({} reads, {} residues), {} rep(s)",
        data.label,
        set.len(),
        set.total_residues(),
        reps
    );

    // The component queue, straight from CCD (the executor's real input).
    let ccd = pfam_cluster::run_ccd(set, &config.cluster);
    let queue: Vec<&[SeqId]> = ccd
        .components
        .iter()
        .filter(|c| c.len() >= config.min_component_size)
        .map(|c| c.as_slice())
        .collect();
    assert!(!queue.is_empty(), "dataset produced no components to stream");
    eprintln!("bgg_dsd_bench: {} components queued", queue.len());

    // ---- Barrier vs streaming executor. ----
    let (barrier_s, barrier_out) = time_min(reps, || barrier_components(set, &config, &queue));
    let (stream_s, stream_out) = time_min(reps, || stream_components(set, &config, &queue));
    let identical = outputs_identical(&stream_out, &barrier_out);
    assert!(identical, "streaming outputs diverged from barrier — this is a bug");

    let n_components = queue.len() as f64;
    let cores = detected_cores();
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"bgg_dsd\",\n",
            "  \"dataset\": \"{label}\",\n",
            "  \"n_seqs\": {n_seqs},\n",
            "  \"n_components\": {n_components},\n",
            "  \"reps\": {reps},\n",
            "  {cores_field},\n",
            "  \"outputs_identical\": {identical},\n",
            "  \"barrier\": {{ \"seconds\": {bs:.6}, \"components_per_sec\": {bcps:.1} }},\n",
            "  \"streaming\": {{ \"seconds\": {ss:.6}, \"components_per_sec\": {scps:.1} }},\n",
            "  {streaming_speedup}\n",
            "}}\n"
        ),
        label = data.label,
        n_seqs = set.len(),
        n_components = queue.len(),
        reps = reps,
        cores_field = cores_field(cores),
        identical = identical,
        bs = barrier_s,
        bcps = n_components / barrier_s,
        ss = stream_s,
        scps = n_components / stream_s,
        streaming_speedup = claim_f64(cores, "streaming_speedup", barrier_s / stream_s),
    );

    eprintln!("bgg_dsd_bench: {:.2}x streaming vs barrier", barrier_s / stream_s);
    emit("bgg_dsd", &json, args.smoke);
}
