//! Property tests over the Shingle substrate.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use pfam_graph::{BipartiteGraph, CsrGraph};
use pfam_shingle::{
    jaccard, shingle_clusters, shingle_set, BipartiteCluster, DenseSubgraphConfig, HashFamily,
    PermutationOrder, ReductionMode, Shingle, ShingleKernel, ShingleParams, ShingleStats,
};

fn bipartite(n_left: usize, n_right: usize) -> impl Strategy<Value = BipartiteGraph> {
    prop::collection::vec((0..n_left as u32, 0..n_right as u32), 0..120)
        .prop_map(move |mut es| BipartiteGraph::from_pairs_in(n_left, n_right, &mut es))
}

fn params() -> ShingleParams {
    ShingleParams { s1: 2, c1: 30, s2: 1, c2: 15, seed: 7 }
}

/// The two passes spelt naively from the scalar [`shingle_set`]: what
/// [`shingle_clusters`] has to return, whatever it does inside. The seed
/// derivation of pass II and the report order are part of the contract
/// (checkpoints and `families.tsv` depend on both).
fn naive_shingle_clusters(
    g: &BipartiteGraph,
    p: &ShingleParams,
) -> (Vec<BipartiteCluster>, ShingleStats) {
    let mut stats = ShingleStats::default();
    // Pass I: first-level shingle id → (its elements, the vertices that made it).
    let fam1 = HashFamily::new(p.c1, p.seed);
    let mut first: BTreeMap<u64, (Vec<u32>, BTreeSet<u32>)> = BTreeMap::new();
    for v in 0..g.n_left() as u32 {
        for sh in shingle_set(g.out_links(v), &fam1, p.s1) {
            stats.pass1_shingles += 1;
            first.entry(sh.id).or_insert_with(|| (sh.elements, BTreeSet::new())).1.insert(v);
        }
    }
    stats.distinct_s1 = first.len();
    let first: Vec<(Vec<u32>, Vec<u32>)> =
        first.into_values().map(|(b, a)| (b, a.into_iter().collect())).collect();

    // Pass II: first-level shingles sharing a second-level id end up in one
    // group (transitively: labels are merged until nothing moves).
    let fam2 = HashFamily::new(p.c2, p.seed ^ 0xABCD_EF01_2345_6789);
    let mut group: Vec<usize> = (0..first.len()).collect();
    let mut owner: BTreeMap<u64, usize> = BTreeMap::new();
    for (i, (_, vertices)) in first.iter().enumerate() {
        for sh in shingle_set(vertices, &fam2, p.s2) {
            stats.pass2_shingles += 1;
            let (from, to) = (group[i], group[*owner.entry(sh.id).or_insert(i)]);
            group.iter_mut().filter(|label| **label == from).for_each(|label| *label = to);
        }
    }

    // Report: one (A, B) per group.
    let mut merged: BTreeMap<usize, (BTreeSet<u32>, BTreeSet<u32>)> = BTreeMap::new();
    for (i, (elements, vertices)) in first.iter().enumerate() {
        let (a, b) = merged.entry(group[i]).or_default();
        a.extend(vertices);
        b.extend(elements);
    }
    stats.components = merged.len();
    let mut clusters: Vec<BipartiteCluster> = merged
        .into_values()
        .map(|(a, b)| BipartiteCluster { a: a.into_iter().collect(), b: b.into_iter().collect() })
        .collect();
    clusters.sort_by(|x, y| y.b.len().cmp(&x.b.len()).then(x.a.cmp(&y.a)));
    (clusters, stats)
}

/// Two left vertices with one out-link list make two first-level shingles
/// with one vertex list. With `c₂ = 0` that list (longer than `s₂`) has no
/// second-level shingle, so the two must stay two components, not be
/// merged for sharing a list.
#[test]
fn identical_vertex_lists_without_second_level_shingles_stay_apart() {
    // Right vertices 0..6; left 0 and 1 both link to all of them, so every
    // first-level shingle is made by exactly {0, 1}.
    let mut es: Vec<(u32, u32)> = (0..2).flat_map(|l| (0..6).map(move |r| (l, r))).collect();
    let g = BipartiteGraph::from_pairs_in(2, 6, &mut es);
    let p = ShingleParams { s1: 2, c1: 12, s2: 1, c2: 0, seed: 3 };
    let (clusters, stats) = shingle_clusters(&g, &p);
    assert!(stats.distinct_s1 >= 2, "need two first-level shingles: {stats:?}");
    assert_eq!(stats.pass2_shingles, 0);
    assert_eq!(stats.components, stats.distinct_s1);
    assert_eq!((clusters.clone(), stats), naive_shingle_clusters(&g, &p));
    // With second-level shingles the shared list does merge them.
    let p = ShingleParams { c2: 4, ..p };
    let (clusters, stats) = shingle_clusters(&g, &p);
    assert_eq!(stats.components, 1);
    assert_eq!((clusters, stats), naive_shingle_clusters(&g, &p));
}

/// A dense block plus one low-degree vertex at the default parameters:
/// the block's vertices scan the permutation order (`|L|² ≥ s·n`), the
/// low-degree vertex ranks its links, in one graph.
#[test]
fn dense_block_and_sparse_vertex_take_both_paths_in_one_graph() {
    let n = 40u32;
    let mut es: Vec<(u32, u32)> = (0..30).flat_map(|l| (0..30).map(move |r| (l, r))).collect();
    // Degree 7 > s₁ = 5, and 7² < 5·40: the rank path.
    es.extend([31, 33, 34, 35, 36, 37, 39].map(|r| (35, r)));
    let g = BipartiteGraph::from_pairs_in(n as usize, n as usize, &mut es);
    let p = ShingleParams::default();
    assert!(30 * 30 >= p.s1 * n as usize && 7 * 7 < p.s1 * n as usize && 7 > p.s1);
    let got = shingle_clusters(&g, &p);
    assert!(got.0.iter().any(|c| c.a.contains(&35)), "the sparse vertex is reported");
    assert_eq!(got, naive_shingle_clusters(&g, &p));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The per-set kernel returns the reference shingle set (in id order)
    /// for random adjacency lists across the (c, s, seed) parameter space —
    /// `c = 0`, empty sets and `s > |set|` included — whether it ranks the
    /// elements or scans the permutation order, and recomputes each id's
    /// elements from its first permutation on either path.
    #[test]
    fn scratch_shingle_sets_equal_reference(
        links in prop::collection::vec(0u32..400, 0..48),
        c in 0usize..8,
        s in 1usize..6,
        seed in 0u64..=u64::MAX,
    ) {
        let mut links = links;
        links.sort_unstable();
        links.dedup();
        let family = HashFamily::new(c, seed);
        let mut reference = shingle_set(&links, &family, s);
        reference.sort_unstable_by_key(|sh| sh.id);
        let order = PermutationOrder::new(&family, 400);
        let mut kernel = ShingleKernel::default();
        for table in [None, Some(&order)] {
            kernel.run(&links, &family, s, table);
            let (ids, perms): (Vec<u64>, Vec<u32>) = kernel.shingles().unzip();
            let mut elements = Vec::new();
            kernel.select(&links, &family, s, table, perms, &mut elements);
            let got: Vec<Shingle> = ids
                .into_iter()
                .zip(elements.chunks(links.len().min(s).max(1)))
                .map(|(id, e)| Shingle { id, elements: e.to_vec() })
                .collect();
            prop_assert_eq!(&got, &reference);
        }
    }

    /// The one driver against the naive spelling of the algorithm —
    /// clusters and all four counters, degenerate shapes included (no
    /// vertices on a side, `c = 0`, `s` above every degree).
    #[test]
    fn shingle_clusters_equal_the_naive_two_passes(
        n_left in 0usize..=40,
        n_right in 0usize..=40,
        raw in prop::collection::vec((0u32..1 << 16, 0u32..1 << 16), 0..160),
        s1 in 1usize..4,
        c1 in 0usize..8,
        s2 in 1usize..4,
        c2 in 0usize..8,
        seed in 0u64..=u64::MAX,
    ) {
        let mut es: Vec<(u32, u32)> = if n_left == 0 || n_right == 0 {
            Vec::new()
        } else {
            raw.iter().map(|&(l, r)| (l % n_left as u32, r % n_right as u32)).collect()
        };
        let g = BipartiteGraph::from_pairs_in(n_left, n_right, &mut es);
        let p = ShingleParams { s1, c1, s2, c2, seed };
        prop_assert_eq!(shingle_clusters(&g, &p), naive_shingle_clusters(&g, &p));
    }

    #[test]
    fn clusters_reference_only_real_vertices(g in bipartite(20, 20)) {
        let (clusters, _) = shingle_clusters(&g, &params());
        for c in &clusters {
            for &v in &c.a {
                prop_assert!((v as usize) < g.n_left());
                prop_assert!(!g.out_links(v).is_empty(), "vertex without links in A");
            }
            for &u in &c.b {
                prop_assert!((u as usize) < g.n_right());
            }
            prop_assert!(!c.a.is_empty());
            prop_assert!(!c.b.is_empty());
        }
    }

    #[test]
    fn cluster_b_sides_come_from_out_links(g in bipartite(15, 15)) {
        let (clusters, _) = shingle_clusters(&g, &params());
        for c in &clusters {
            // Every B element must be an out-link of some A member.
            let union: BTreeSet<u32> = c
                .a
                .iter()
                .flat_map(|&v| g.out_links(v).iter().copied())
                .collect();
            for &u in &c.b {
                prop_assert!(union.contains(&u), "B element {u} unexplained");
            }
        }
    }

    #[test]
    fn deterministic_in_seed(g in bipartite(15, 15), seed in 0u64..50) {
        let p = ShingleParams { seed, ..params() };
        let (a, _) = shingle_clusters(&g, &p);
        let (b, _) = shingle_clusters(&g, &p);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn dense_subgraph_output_disjoint_and_sized(
        es in prop::collection::vec((0u32..20, 0u32..20), 0..100),
        min_size in 1usize..5,
    ) {
        let g = CsrGraph::from_edges(20, &es);
        let config = DenseSubgraphConfig {
            params: params(),
            mode: ReductionMode::GlobalSimilarity { tau: 0.3 },
            min_size,
            disjoint: true,
        };
        let bd = BipartiteGraph::duplicate_from(&g);
        let (subgraphs, _) = pfam_shingle::detect_dense_subgraphs(&bd, &config);
        let mut seen = BTreeSet::new();
        for sg in &subgraphs {
            prop_assert!(sg.len() >= min_size);
            for &v in sg {
                prop_assert!(seen.insert(v), "vertex {v} duplicated");
            }
        }
    }

    #[test]
    fn jaccard_properties(
        a in prop::collection::btree_set(0u32..50, 0..20),
        b in prop::collection::btree_set(0u32..50, 0..20),
    ) {
        let av: Vec<u32> = a.iter().copied().collect();
        let bv: Vec<u32> = b.iter().copied().collect();
        let j = jaccard(&av, &bv);
        prop_assert!((0.0..=1.0).contains(&j));
        prop_assert!((jaccard(&bv, &av) - j).abs() < 1e-12, "symmetry");
        if !av.is_empty() {
            prop_assert!((jaccard(&av, &av) - 1.0).abs() < 1e-12);
        }
        let inter: Vec<u32> = a.intersection(&b).copied().collect();
        if inter.is_empty() && !(av.is_empty() && bv.is_empty()) {
            prop_assert_eq!(j, 0.0);
        }
    }
}

/// The `Bd` graph of overlapping near-cliques: block `i` covers
/// `starts[i]..starts[i] + lens[i]`, and each of its pairs is kept unless a
/// hash of `(seed, pair)` falls under `drop_percent`.
fn near_cliques(starts: &[u32], lens: &[u32], drop_percent: u64, seed: u64) -> BipartiteGraph {
    let n = starts.iter().zip(lens).map(|(&s, &l)| s + l).max().unwrap_or(0);
    let mut edges = Vec::new();
    for (&start, &len) in starts.iter().zip(lens) {
        for a in start..start + len {
            for b in a + 1..start + len {
                let h = pfam_shingle::minwise::splitmix64(seed ^ ((a as u64) << 32 | b as u64));
                if h % 100 >= drop_percent {
                    edges.push((a, b));
                }
            }
        }
    }
    BipartiteGraph::duplicate_from(&CsrGraph::from_edges(n as usize, &edges))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `shingle_clusters` against the naive two passes at the pipeline's own
    /// parameters `(5, 300, 2, 40)`, on what the back half meets: one to
    /// three overlapping near-cliques of 20–60 reads with some edges
    /// dropped. Here pass I scans the permutation order and the reported
    /// elements are recomputed from it.
    #[test]
    fn shingle_clusters_equal_the_naive_two_passes_at_the_default_parameters(
        blocks in prop::collection::vec((0u32..100, 20u32..61), 1usize..4),
        drop_percent in 0u64..30,
        seed in 0u64..=u64::MAX,
    ) {
        // Each block starts inside the one before it, so they overlap.
        let mut starts = Vec::new();
        let mut lens = Vec::new();
        for (i, &(offset, len)) in blocks.iter().enumerate() {
            let start = if i == 0 { 0 } else { starts[i - 1] + offset % lens[i - 1] };
            starts.push(start);
            lens.push(len);
        }
        let g = near_cliques(&starts, &lens, drop_percent, seed);
        let p = ShingleParams { seed, ..ShingleParams::default() };
        prop_assert_eq!(shingle_clusters(&g, &p), naive_shingle_clusters(&g, &p));
    }
}
