//! Property tests over the Shingle substrate.

use proptest::prelude::*;

use pfam_graph::{BipartiteGraph, CsrGraph};
use pfam_shingle::{
    jaccard, shingle_clusters, shingle_set, shingle_set_from_table, shingle_set_with,
    DenseSubgraphConfig, HashFamily, RankTable, ReductionMode, ShingleParams, ShingleScratch,
};

fn bipartite(n_left: usize, n_right: usize) -> impl Strategy<Value = BipartiteGraph> {
    prop::collection::vec((0..n_left as u32, 0..n_right as u32), 0..120)
        .prop_map(move |es| BipartiteGraph::from_edges(n_left, n_right, &es))
}

fn params() -> ShingleParams {
    ShingleParams { s1: 2, c1: 30, s2: 1, c2: 15, seed: 7 }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The scratch-reusing and rank-table paths return the reference
    /// shingle set for random adjacency lists across the (c, s, seed)
    /// parameter space — `c = 0`, empty sets and `s > |set|` included.
    #[test]
    fn block_and_table_shingle_sets_equal_reference(
        links in prop::collection::vec(0u32..400, 0..48),
        c in 0usize..8,
        s in 1usize..6,
        seed in 0u64..=u64::MAX,
    ) {
        let mut links = links;
        links.sort_unstable();
        links.dedup();
        let family = HashFamily::new(c, seed);
        let reference = shingle_set(&links, &family, s);
        let mut scratch = ShingleScratch::new();
        prop_assert_eq!(&shingle_set_with(&links, &family, s, &mut scratch), &reference);
        let mut table = RankTable::new();
        table.rebuild(&family, 400);
        prop_assert_eq!(&shingle_set_from_table(&links, &table, s, &mut scratch), &reference);
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
            let union: std::collections::HashSet<u32> = c
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
        let mut seen = std::collections::HashSet::new();
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
