//! Substrate micro-benchmarks: the kernels everything else is built on.
//! Useful for spotting regressions and for calibrating the machine-model
//! constants in `pfam-sim` against real hardware.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pfam_align::{banded_global_affine, global_score, local_affine, local_score};
use pfam_datagen::random_peptide;
use pfam_graph::{CsrGraph, UnionFind};
use pfam_seq::{ScoringScheme, SequenceSet, SequenceSetBuilder};
use pfam_shingle::{shingle_set, HashFamily};
use pfam_suffix::{
    bucket_sort_index, lcp::lcp_array, lcp_array_parallel, maximal::all_pairs, parallel_pairs,
    suffix_array, ukkonen::UkkonenTree, GeneralizedSuffixArray, MaximalMatchConfig, SuffixTree,
};

fn random_set(n_seqs: usize, len: usize, seed: u64) -> SequenceSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = SequenceSetBuilder::new();
    for i in 0..n_seqs {
        b.push_codes(format!("s{i}"), random_peptide(&mut rng, len)).expect("non-empty");
    }
    b.finish()
}

fn bench_suffix(c: &mut Criterion) {
    let mut group = c.benchmark_group("suffix");
    for n in [10_000usize, 50_000] {
        let mut rng = StdRng::seed_from_u64(1);
        let text: Vec<u32> =
            (0..n).map(|_| rng.gen_range(0..21u32) + 1).chain(std::iter::once(0)).collect();
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("sais", n), &text, |b, text| {
            b.iter(|| black_box(suffix_array(black_box(text), 22)))
        });
        group.bench_with_input(BenchmarkId::new("sa_lcp_bucket_sort", n), &text, |b, text| {
            b.iter(|| black_box(bucket_sort_index(black_box(text), 1, 0)))
        });
        let sa = suffix_array(&text, 22);
        group.bench_with_input(BenchmarkId::new("kasai_lcp", n), &(), |b, _| {
            b.iter(|| black_box(lcp_array(black_box(&text), black_box(&sa))))
        });
        group.bench_with_input(BenchmarkId::new("plcp_parallel", n), &(), |b, _| {
            b.iter(|| black_box(lcp_array_parallel(black_box(&text), black_box(&sa), 0)))
        });
    }
    let set = random_set(100, 200, 2);
    group.bench_function("gsa_build_100x200", |b| {
        b.iter(|| black_box(GeneralizedSuffixArray::build(black_box(&set))))
    });
    group.bench_function("gsa_build_parallel_100x200", |b| {
        b.iter(|| black_box(GeneralizedSuffixArray::build_parallel(black_box(&set), 0)))
    });
    let gsa = GeneralizedSuffixArray::build(&set);
    group.bench_function("interval_tree_build", |b| {
        b.iter(|| black_box(SuffixTree::build(black_box(&gsa))))
    });
    let tree = SuffixTree::build(&gsa);
    group.bench_function("maximal_pairs", |b| {
        b.iter(|| {
            black_box(all_pairs(
                black_box(&tree),
                MaximalMatchConfig { min_len: 8, ..Default::default() },
            ))
        })
    });
    group.bench_function("maximal_pairs_parallel", |b| {
        b.iter(|| {
            black_box(parallel_pairs(
                black_box(&tree),
                MaximalMatchConfig { min_len: 8, ..Default::default() },
                0,
            ))
        })
    });
    let mut rng = StdRng::seed_from_u64(3);
    let single = random_peptide(&mut rng, 5_000);
    group.bench_function("ukkonen_5k", |b| {
        b.iter(|| black_box(UkkonenTree::build(black_box(&single))))
    });
    group.finish();
}

fn bench_align(c: &mut Criterion) {
    let mut group = c.benchmark_group("align");
    let mut rng = StdRng::seed_from_u64(4);
    let scheme = ScoringScheme::blosum62_default();
    for len in [100usize, 300] {
        let x = random_peptide(&mut rng, len);
        let y = random_peptide(&mut rng, len);
        group.throughput(Throughput::Elements((len * len) as u64));
        group.bench_with_input(BenchmarkId::new("sw_traceback", len), &(), |b, _| {
            b.iter(|| black_box(local_affine(black_box(&x), black_box(&y), &scheme)))
        });
        group.bench_with_input(BenchmarkId::new("sw_score_only", len), &(), |b, _| {
            b.iter(|| black_box(local_score(black_box(&x), black_box(&y), &scheme)))
        });
        group.bench_with_input(BenchmarkId::new("nw_score_only", len), &(), |b, _| {
            b.iter(|| black_box(global_score(black_box(&x), black_box(&y), &scheme)))
        });
        group.bench_with_input(BenchmarkId::new("banded_w16", len), &(), |b, _| {
            b.iter(|| black_box(banded_global_affine(black_box(&x), black_box(&y), &scheme, 0, 16)))
        });
    }
    group.finish();
}

fn bench_graph(c: &mut Criterion) {
    let mut group = c.benchmark_group("graph");
    let mut rng = StdRng::seed_from_u64(5);
    let n = 20_000u32;
    let edges: Vec<(u32, u32)> =
        (0..40_000).map(|_| (rng.gen_range(0..n), rng.gen_range(0..n))).collect();
    group.bench_function("union_find_40k_unions", |b| {
        b.iter(|| {
            let mut uf = UnionFind::new(n as usize);
            for &(a, b2) in &edges {
                uf.union(a, b2);
            }
            black_box(uf.n_sets())
        })
    });
    group.bench_function("csr_build_and_components", |b| {
        b.iter(|| {
            let g = CsrGraph::from_edges(n as usize, black_box(&edges));
            black_box(g.connected_components().len())
        })
    });
    group.finish();
}

fn bench_shingle(c: &mut Criterion) {
    let mut group = c.benchmark_group("shingle");
    let fam = HashFamily::new(300, 7);
    let links: Vec<u32> = (0..200).collect();
    group.bench_function("shingle_set_s5_c300_deg200", |b| {
        b.iter(|| black_box(shingle_set(black_box(&links), &fam, 5)))
    });
    group.finish();
}

fn bench_extensions(c: &mut Criterion) {
    let mut group = c.benchmark_group("extensions");
    let mut rng = StdRng::seed_from_u64(9);
    // k-core + peeling on a random graph.
    let n = 5_000u32;
    let edges: Vec<(u32, u32)> =
        (0..20_000).map(|_| (rng.gen_range(0..n), rng.gen_range(0..n))).collect();
    let g = CsrGraph::from_edges(n as usize, &edges);
    group.bench_function("core_numbers_5k", |b| {
        b.iter(|| black_box(pfam_graph::core_numbers(black_box(&g))))
    });
    group.bench_function("articulation_5k", |b| {
        b.iter(|| black_box(pfam_graph::cut_structure(black_box(&g))))
    });
    group.finish();
}

criterion_group!(micro, bench_suffix, bench_align, bench_graph, bench_shingle, bench_extensions);
criterion_main!(micro);
