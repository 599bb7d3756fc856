//! Criterion benches for the ablation axes (DESIGN.md §5): masking,
//! engine variants, detection algorithms, and the distributed Shingle.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use pfam_bench::dataset_160k_like;
use pfam_cluster::{run_ccd, ClusterConfig};
use pfam_graph::{greedy_dense_decomposition, BipartiteGraph};
use pfam_seq::complexity::MaskParams;
use pfam_shingle::{
    shingle_clusters, shingle_clusters_distributed, DenseSubgraphConfig, ShingleParams,
};

const SCALE: f64 = 0.12;

fn bench_masking(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablate_masking");
    group.sample_size(10);
    let data = dataset_160k_like(SCALE, 0xAB);
    for (name, mask) in [("unmasked", None), ("masked", Some(MaskParams::default()))] {
        let config = ClusterConfig { mask, ..ClusterConfig::default() };
        group
            .bench_function(name, |b| b.iter(|| black_box(run_ccd(black_box(&data.set), &config))));
    }
    group.finish();
}

fn bench_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablate_engine");
    group.sample_size(10);
    let data = dataset_160k_like(SCALE, 0xAC);
    let config = ClusterConfig::default();
    group.bench_function("batched_rayon", |b| {
        b.iter(|| black_box(run_ccd(black_box(&data.set), &config)))
    });
    for ranks in [3usize, 5] {
        group.bench_with_input(BenchmarkId::new("spmd", ranks), &ranks, |b, &r| {
            b.iter(|| black_box(pfam_cluster::run_ccd_spmd(black_box(&data.set), &config, r)))
        });
    }
    group.finish();
}

fn bench_detection(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablate_detection");
    group.sample_size(10);
    // A dense component graph to detect on.
    let data = dataset_160k_like(SCALE, 0xAD);
    let config = ClusterConfig::default();
    let rr = pfam_cluster::run_redundancy_removal(&data.set, &config);
    let (nr, _) = data.set.subset(&rr.kept);
    let ccd = run_ccd(&nr, &config);
    let (graphs, _) = pfam_cluster::all_component_graphs(&nr, &ccd.components, 5, &config);
    let Some(biggest) = graphs.iter().max_by_key(|g| g.graph.n_vertices()) else {
        return;
    };
    let bd = BipartiteGraph::duplicate_from(&biggest.graph);
    let dsd = DenseSubgraphConfig::default();
    group.bench_function("shingle", |b| {
        b.iter(|| black_box(pfam_shingle::detect_dense_subgraphs(black_box(&bd), &dsd)))
    });
    group.bench_function("charikar_peeling", |b| {
        b.iter(|| black_box(greedy_dense_decomposition(black_box(&biggest.graph), 5, 2.0)))
    });
    group.finish();
}

fn bench_distributed_shingle(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablate_distributed_shingle");
    group.sample_size(10);
    let data = dataset_160k_like(SCALE, 0xAE);
    let config = ClusterConfig::default();
    let ccd = run_ccd(&data.set, &config);
    let (graphs, _) = pfam_cluster::all_component_graphs(&data.set, &ccd.components, 5, &config);
    let Some(biggest) = graphs.iter().max_by_key(|g| g.graph.n_vertices()) else {
        return;
    };
    let bd = BipartiteGraph::duplicate_from(&biggest.graph);
    let params = ShingleParams::default();
    group.bench_function("serial", |b| {
        b.iter(|| black_box(shingle_clusters(black_box(&bd), &params)))
    });
    for p in [2usize, 8] {
        group.bench_with_input(BenchmarkId::new("ranks", p), &p, |b, &p| {
            b.iter(|| black_box(shingle_clusters_distributed(black_box(&bd), &params, p)))
        });
    }
    group.finish();
}

criterion_group!(
    ablations,
    bench_masking,
    bench_engines,
    bench_detection,
    bench_distributed_shingle
);
criterion_main!(ablations);
