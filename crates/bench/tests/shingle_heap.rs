//! Shingle's heap against the bound `pfam-shingle` states for it
//! (`shingle_heap_bound`, what the back half reserves as `dsd-shingle`),
//! weighed with `pfam_bench::alloc`'s counting allocator: the most bytes
//! one `shingle_clusters` run holds at once, its returned clusters
//! included.
//! The allocator counts every thread of this binary, so the file holds one
//! test, which weighs its runs one after another.

use pfam_graph::{BipartiteGraph, CsrGraph};
use pfam_shingle::minwise::splitmix64;
use pfam_shingle::{shingle_clusters, shingle_heap_bound, ShingleParams};

#[global_allocator]
static ALLOC: pfam_bench::alloc::CountingAlloc = pfam_bench::alloc::CountingAlloc;

#[test]
fn shingle_stays_under_its_heap_bound() {
    a_near_clique_at_the_default_parameters_stays_under_the_bound_and_2_5_mb();
    graphs_across_the_parameters_stay_under_the_bound();
    an_empty_graph_stays_under_the_bound();
}

/// The counted peak of `shingle_clusters(graph, params)` and its bound.
fn peak_and_bound(graph: &BipartiteGraph, params: &ShingleParams) -> (u64, u64) {
    let base = pfam_bench::alloc::peak_reset();
    let clusters = shingle_clusters(graph, params);
    let peak = pfam_bench::alloc::peak_since(base);
    drop(clusters);
    (peak, shingle_heap_bound(graph, params) as u64)
}

/// The `Bd` graph of `n` vertices where each pair is an edge when a hash of
/// `(seed, pair)` falls under `percent`.
fn random_bd(n: u32, percent: u64, seed: u64) -> BipartiteGraph {
    let mut edges = Vec::new();
    for a in 0..n {
        for b in a + 1..n {
            if splitmix64(seed ^ ((a as u64) << 32 | b as u64)) % 10_000 < percent * 100 {
                edges.push((a, b));
            }
        }
    }
    BipartiteGraph::duplicate_from(&CsrGraph::from_edges(n as usize, &edges))
}

/// The size and density of `mixed_families`' heaviest component (238
/// reads, 39 364 `Bd` edges at seed 4401), its pairs drawn at random, so
/// fewer shingles repeat than in a family's reads: at the pipeline's
/// parameters one Shingle run on it holds under 2.5 MB.
fn a_near_clique_at_the_default_parameters_stays_under_the_bound_and_2_5_mb() {
    let g = random_bd(238, 70, 4401);
    assert!((35_000..45_000).contains(&g.n_edges()), "{} Bd edges", g.n_edges());
    let (peak, bound) = peak_and_bound(&g, &ShingleParams::default());
    assert!(peak > 0, "the counting allocator is installed");
    assert!(peak <= bound, "peak {peak} B over the bound {bound} B");
    assert!(peak <= 2_500_000, "peak {peak} B over 2.5 MB");
}

/// Sparse and dense graphs across the parameter space — whole-set and
/// rank paths, `c₂ = 0` (identical lists stay apart), `s` above every
/// degree — where shingles repeat less and the bound's worst case (one
/// cluster per record) is nearer.
fn graphs_across_the_parameters_stay_under_the_bound() {
    let params = [
        ShingleParams::default(),
        ShingleParams { s1: 2, c1: 7, s2: 1, c2: 3, seed: 1 },
        ShingleParams { s1: 1, c1: 4, s2: 3, c2: 0, seed: 2 },
        ShingleParams { s1: 3, c1: 20, s2: 1, c2: 1, seed: 3 },
        ShingleParams { s1: 40, c1: 5, s2: 40, c2: 5, seed: 4 },
    ];
    for (n, percent) in [(1_500, 1), (300, 3), (60, 10), (40, 50), (30, 95)] {
        let g = random_bd(n, percent, n as u64);
        for p in &params {
            let (peak, bound) = peak_and_bound(&g, p);
            assert!(peak <= bound, "n {n} at {percent} %: peak {peak} B over {bound} B at {p:?}");
        }
    }
}

/// No edges, with and without vertices: nothing to shingle, and the bound
/// still covers the passes' fixed buffers.
fn an_empty_graph_stays_under_the_bound() {
    for n in [0, 50] {
        let g = BipartiteGraph::duplicate_from(&CsrGraph::from_edges(n, &[]));
        let (peak, bound) = peak_and_bound(&g, &ShingleParams::default());
        assert!(peak <= bound, "n {n}: peak {peak} B over the bound {bound} B");
    }
}
