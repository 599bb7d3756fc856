//! Criterion benches regenerating the paper's figures (one group per
//! figure; see `src/bin/` for the full-output experiment binaries).
//!
//! * `fig5/*`  — dense-subgraph size histogram on the 22K-like set.
//! * `fig6a/*` — RR+CCD replay across processor counts.
//! * `fig6b/*` — RR+CCD replay across input sizes.
//! * `fig7a/*` — speedup sweep relative to p = 32.
//! * `fig7b/*` — serial Shingle run-time as a function of c.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use pfam_bench::{dataset_160k_like, dataset_22k_like, scaled_members};
use pfam_cluster::{
    all_component_graphs, run_ccd, run_redundancy_removal, ClusterConfig, PhaseTrace,
};
use pfam_core::PipelineConfig;
use pfam_graph::BipartiteGraph;
use pfam_metrics::Histogram;
use pfam_shingle::{shingle_clusters, ShingleParams};
use pfam_sim::{simulate_phases, speedup_sweep, MachineModel};

const SCALE: f64 = 0.12;

fn record_traces(scale: f64, seed: u64) -> (PhaseTrace, PhaseTrace) {
    let data = dataset_160k_like(scale, seed);
    let config = ClusterConfig::default();
    let rr = run_redundancy_removal(&data.set, &config);
    let (nr, _) = data.set.subset(&rr.kept);
    let ccd = run_ccd(&nr, &config);
    (rr.trace, ccd.trace)
}

fn bench_fig5(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig5");
    group.sample_size(10);
    let data = dataset_22k_like(SCALE * 4.0, 0x22);
    let config = PipelineConfig::default();
    group.bench_function("size_histogram", |b| {
        b.iter(|| {
            let result = config.run(black_box(&data.set));
            black_box(Histogram::new(5, result.dense_subgraphs.iter().map(|d| d.members.len())))
        })
    });
    group.finish();
}

fn bench_fig6(c: &mut Criterion) {
    let machine = MachineModel::bluegene_l();
    // Fig 6a: sweep p at fixed n.
    {
        let mut group = c.benchmark_group("fig6a");
        group.sample_size(10);
        let (rr, ccd) = record_traces(SCALE, 0x600);
        for p in [32usize, 128, 512] {
            group.bench_with_input(BenchmarkId::from_parameter(p), &p, |b, &p| {
                b.iter(|| black_box(simulate_phases(&[&rr, &ccd], &machine, p)))
            });
        }
        group.finish();
    }
    // Fig 6b: sweep n at fixed p (traces recorded per ladder size).
    {
        let mut group = c.benchmark_group("fig6b");
        group.sample_size(10);
        let ladder = scaled_members(SCALE);
        for (i, (members, label)) in ladder.iter().enumerate().step_by(2) {
            let frac = *members as f64 / ladder.last().expect("non-empty").0 as f64;
            let (rr, ccd) = record_traces(SCALE * frac, 0x601 + i as u64);
            group.bench_with_input(BenchmarkId::from_parameter(label), &(), |b, _| {
                b.iter(|| black_box(simulate_phases(&[&rr, &ccd], &machine, 128)))
            });
        }
        group.finish();
    }
}

fn bench_fig7a(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig7a");
    group.sample_size(10);
    let (rr, ccd) = record_traces(SCALE, 0x7A);
    let machine = MachineModel::bluegene_l();
    group.bench_function("speedup_sweep", |b| {
        b.iter(|| black_box(speedup_sweep(&[&rr, &ccd], &machine, &[32, 64, 128, 512])))
    });
    group.finish();
}

fn bench_fig7b(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig7b");
    group.sample_size(10);
    // Component bipartite graphs of the 160K-like set: the DSD input.
    let data = dataset_160k_like(SCALE, 0x7B);
    let config = ClusterConfig::default();
    let rr = run_redundancy_removal(&data.set, &config);
    let (nr, _) = data.set.subset(&rr.kept);
    let ccd = run_ccd(&nr, &config);
    let (graphs, _) = all_component_graphs(&nr, &ccd.components, 5, &config);
    let bds: Vec<BipartiteGraph> =
        graphs.iter().map(|g| BipartiteGraph::duplicate_from(&g.graph)).collect();
    for c1 in [100usize, 200, 300, 400] {
        let params = ShingleParams { s1: 5, c1, s2: 2, c2: 40, seed: 0x7b };
        group.bench_with_input(BenchmarkId::new("c", c1), &params, |b, params| {
            b.iter(|| {
                for bd in &bds {
                    black_box(shingle_clusters(black_box(bd), params));
                }
            })
        });
    }
    group.finish();
}

criterion_group!(figures, bench_fig5, bench_fig6, bench_fig7a, bench_fig7b);
criterion_main!(figures);
