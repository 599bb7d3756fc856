//! BGG→DSD back-half benchmark on one component population (a front
//! half's output), emitting a machine-readable `BENCH_bgg_dsd.json`
//! alongside `BENCH_index.json` and `BENCH_align.json`: the fused executor
//! under its two pair supplies — mined per component vs built from what
//! the front half already knows (CCD's edges and deferred pairs, RR's pair
//! ledger) — with the fills and DP cells each costs.
//!
//! ```sh
//! cargo run --release -p pfam-bench --bin bgg_dsd_bench [scale]
//! cargo run --release -p pfam-bench --bin bgg_dsd_bench -- --test   # smoke
//! ```
//!
//! `--test` runs a tiny single-rep smoke pass and prints the JSON to
//! stdout instead of writing the file. The bench asserts — and records —
//! that both produce identical graphs and families.

use pfam_bench::{
    claim_f64, cores_field, dataset_160k_like, detected_cores, emit, time_min, BenchArgs,
};
use pfam_cluster::{run_front_half, KnownPairs};
use pfam_core::{stream_components, stream_graphs, ComponentOutput, PipelineConfig};
use pfam_seq::SeqId;

/// Same graphs, families and shingle counters (the alignment work is what
/// the supplies differ in).
fn outputs_identical(a: &[ComponentOutput], b: &[ComponentOutput]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.graph.members == y.graph.members
                && x.graph.graph == y.graph.graph
                && x.subgraphs == y.subgraphs
                && x.stats == y.stats
        })
}

/// `"seconds": .., "fills": .., "ledger_hits": .., "cells": ..` of one supply.
fn supply_fields(seconds: f64, out: &[ComponentOutput]) -> String {
    let sum = |f: fn(&ComponentOutput) -> u64| out.iter().map(f).sum::<u64>();
    format!(
        "\"seconds\": {seconds:.6}, \"fills\": {}, \"ledger_hits\": {}, \"cells\": {}",
        sum(|o| o.record.n_aligned as u64),
        sum(|o| o.record.n_ledger_hits as u64),
        sum(|o| o.record.cells_computed),
    )
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

    // The component queue, straight from the front half (the executor's
    // real input), under input ids.
    let (rr, ccd) = run_front_half(set, &config.cluster);
    let selected: Vec<usize> = (0..ccd.components.len())
        .filter(|&c| ccd.components[c].len() >= config.min_component_size)
        .collect();
    let members: Vec<Vec<SeqId>> = selected
        .iter()
        .map(|&c| ccd.components[c].iter().map(|id| rr.kept[id.index()]).collect())
        .collect();
    let queue: Vec<&[SeqId]> = members.iter().map(Vec::as_slice).collect();
    assert!(!queue.is_empty(), "dataset produced no components to stream");
    eprintln!("bgg_dsd_bench: {} components queued", queue.len());

    // ---- The executor mining each component's own suffix index. ----
    let (mined_s, mined_out) = time_min(reps, || stream_components(set, &config, &queue));

    // ---- The executor on what the front half already knows (grouping
    // CCD's pairs by component is part of the bill). ----
    let (known_s, known_out) = time_min(reps, || {
        let (cluster, deferred, ahead) =
            (&config.cluster, ccd.deferred.clone(), ccd.filled_ahead.clone());
        let known = KnownPairs::new(
            set,
            cluster,
            &rr.kept,
            &rr.ledger,
            &ccd.components,
            &ccd.edges,
            deferred,
            ahead,
            config.min_component_size,
        );
        stream_graphs(
            &config,
            selected.len(),
            |i| known.n_deferred(selected[i]),
            |i| known.component_graph(selected[i]),
            |_, out| out,
        )
        .0
    });
    let identical = outputs_identical(&known_out, &mined_out);
    assert!(identical, "the back half's outputs depend on how it ran — this is a bug");

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
            "  \"supply_mined\": {{ {mined} }},\n",
            "  \"supply_known\": {{ {known} }},\n",
            "  {known_speedup}\n",
            "}}\n"
        ),
        label = data.label,
        n_seqs = set.len(),
        n_components = queue.len(),
        reps = reps,
        cores_field = cores_field(cores),
        identical = identical,
        mined = supply_fields(mined_s, &mined_out),
        known = supply_fields(known_s, &known_out),
        known_speedup = claim_f64(cores, "known_supply_speedup", mined_s / known_s),
    );

    eprintln!("bgg_dsd_bench: {:.2}x known vs mined supply", mined_s / known_s);
    emit("bgg_dsd", &json, args.smoke);
}
