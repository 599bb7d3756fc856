//! Criterion benches regenerating the paper's tables (one group per
//! table; see `src/bin/` for the full-output experiment binaries).
//!
//! * `table1/*`  — the qualitative pipeline runs on both workloads.
//! * `table2/*`  — trace replay of RR and CCD at the paper's processor
//!   counts.
//! * `quality/*` — the Section-V PR/SE/OQ/CC evaluation.
//! * `workreduction/*` — heuristic CCD vs the all-pairs GOS baseline.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use pfam_bench::{dataset_160k_like, dataset_22k_like};
use pfam_cluster::{run_all_pairs_baseline, run_ccd, run_redundancy_removal, ClusterConfig};
use pfam_core::{evaluate, PipelineConfig, TableOneRow};
use pfam_sim::{simulate_phase, MachineModel};

/// Bench-friendly scale: big enough for real structure, small enough for
/// Criterion's repeated sampling.
const SCALE: f64 = 0.12;

fn bench_table1(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1");
    group.sample_size(10);
    let config = PipelineConfig::default();
    for data in [dataset_160k_like(SCALE, 0x160), dataset_22k_like(SCALE, 0x22)] {
        let name = if data.label.starts_with("160K") { "160k_like" } else { "22k_like" };
        group.bench_function(name, |b| {
            b.iter(|| {
                let result = config.run(black_box(&data.set));
                black_box(TableOneRow::from_result(&result, config.min_component_size))
            })
        });
    }
    group.finish();
}

fn bench_table2(c: &mut Criterion) {
    let mut group = c.benchmark_group("table2");
    group.sample_size(10);
    // Record the traces once; the benched unit is the DES replay the
    // table is generated from.
    let data = dataset_160k_like(SCALE, 0x80);
    let config = ClusterConfig::default();
    let rr = run_redundancy_removal(&data.set, &config);
    let (nr, _) = data.set.subset(&rr.kept);
    let ccd = run_ccd(&nr, &config);
    let machine = MachineModel::bluegene_l();
    for (name, trace) in [("replay_rr", &rr.trace), ("replay_ccd", &ccd.trace)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                for p in [32usize, 64, 128, 512] {
                    black_box(simulate_phase(black_box(trace), &machine, p));
                }
            })
        });
    }
    group.bench_function("trace_rr_and_ccd", |b| {
        b.iter_batched(
            || data.set.clone(),
            |set| {
                let rr = run_redundancy_removal(&set, &config);
                let (nr, _) = set.subset(&rr.kept);
                black_box(run_ccd(&nr, &config))
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

fn bench_quality(c: &mut Criterion) {
    let mut group = c.benchmark_group("quality");
    group.sample_size(10);
    let data = dataset_160k_like(SCALE, 0x160);
    let config = PipelineConfig::default();
    let result = config.run(&data.set);
    group.bench_function("pr_se_oq_cc", |b| {
        b.iter(|| black_box(evaluate(black_box(&result), &data.benchmark)))
    });
    group.finish();
}

fn bench_workreduction(c: &mut Criterion) {
    let mut group = c.benchmark_group("workreduction");
    group.sample_size(10);
    let data = dataset_160k_like(SCALE * 0.5, 0x40);
    let config = ClusterConfig::default();
    group.bench_function("heuristic_ccd", |b| {
        b.iter(|| black_box(run_ccd(black_box(&data.set), &config)))
    });
    group.bench_function("all_pairs_baseline", |b| {
        b.iter(|| black_box(run_all_pairs_baseline(black_box(&data.set), &config)))
    });
    group.finish();
}

criterion_group!(tables, bench_table1, bench_table2, bench_quality, bench_workreduction);
criterion_main!(tables);
