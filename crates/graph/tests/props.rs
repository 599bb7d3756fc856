//! Property tests over the graph substrate.

use proptest::prelude::*;

use pfam_graph::{
    densest_subgraph_peeling, greedy_dense_decomposition, subgraph_density, BipartiteGraph,
    CsrGraph,
};

fn edges(n: usize, max_edges: usize) -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec((0..n as u32, 0..n as u32), 0..max_edges)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn csr_neighbors_symmetric_and_sorted(es in edges(20, 60)) {
        let g = CsrGraph::from_edges(20, &es);
        for v in 0..20u32 {
            let ns = g.neighbors(v);
            prop_assert!(ns.windows(2).all(|w| w[0] < w[1]), "unsorted/duplicated");
            for &u in ns {
                prop_assert!(g.neighbors(u).contains(&v), "asymmetric edge {v}-{u}");
                prop_assert_ne!(u, v, "self-loop survived");
            }
        }
    }

    #[test]
    fn components_are_closed_under_adjacency(es in edges(25, 70)) {
        let g = CsrGraph::from_edges(25, &es);
        let comps = g.connected_components();
        let mut comp_of = [usize::MAX; 25];
        for (i, c) in comps.iter().enumerate() {
            for &v in c {
                comp_of[v as usize] = i;
            }
        }
        for v in 0..25u32 {
            for &u in g.neighbors(v) {
                prop_assert_eq!(comp_of[v as usize], comp_of[u as usize]);
            }
        }
    }

    #[test]
    fn peeling_density_is_at_least_half_of_any_subset_density(es in edges(16, 50)) {
        let g = CsrGraph::from_edges(16, &es);
        let (_, best) = densest_subgraph_peeling(&g);
        // Charikar guarantee: best ≥ OPT/2 ≥ (whole graph density)/2, and
        // trivially best ≥ density of the whole graph prefix considered.
        let whole = g.n_edges() as f64 / 16.0;
        prop_assert!(best + 1e-9 >= whole / 2.0);
    }

    #[test]
    fn decomposition_parts_are_disjoint_and_dense(es in edges(24, 90)) {
        let g = CsrGraph::from_edges(24, &es);
        let parts = greedy_dense_decomposition(&g, 2, 1.0);
        let mut seen = std::collections::HashSet::new();
        for part in &parts {
            prop_assert!(part.len() >= 2);
            for &v in part {
                prop_assert!(seen.insert(v));
            }
            let d = subgraph_density(&g, part);
            prop_assert!(d.mean_degree + 1e-9 >= 1.0, "avg degree {}", d.mean_degree);
        }
    }

    #[test]
    fn bd_reduction_out_links_mirror_graph(es in edges(15, 40)) {
        let g = CsrGraph::from_edges(15, &es);
        let bd = BipartiteGraph::duplicate_from(&g);
        for v in 0..15u32 {
            prop_assert_eq!(bd.out_links(v), g.neighbors(v));
        }
        prop_assert_eq!(bd.n_edges(), 2 * g.n_edges());
    }

    /// `Bd` copied from the CSR rows is the graph `from_pairs_in` builds
    /// from both directions of every edge, self-loops and repeats included
    /// in the input.
    #[test]
    fn bd_from_rows_equals_bd_from_pairs(n in 0usize..30, es in edges(30, 120)) {
        let es: Vec<(u32, u32)> = if n == 0 {
            Vec::new()
        } else {
            es.iter().map(|&(a, b)| (a % n as u32, b % n as u32)).collect()
        };
        let g = CsrGraph::from_edges(n, &es);
        let mut pairs: Vec<(u32, u32)> =
            es.iter().filter(|(a, b)| a != b).flat_map(|&(a, b)| [(a, b), (b, a)]).collect();
        prop_assert_eq!(
            BipartiteGraph::duplicate_from(&g),
            BipartiteGraph::from_pairs_in(n, n, &mut pairs)
        );
    }

    #[test]
    fn induced_subgraph_degrees_bounded(es in edges(18, 50), keep in prop::collection::btree_set(0u32..18, 0..18)) {
        let g = CsrGraph::from_edges(18, &es);
        let keep: Vec<u32> = keep.into_iter().collect();
        let (sub, mapping) = g.induced_subgraph(&keep);
        prop_assert_eq!(sub.n_vertices(), keep.len());
        for (local, &orig) in mapping.iter().enumerate() {
            prop_assert!(sub.degree(local as u32) <= g.degree(orig));
        }
    }
}
