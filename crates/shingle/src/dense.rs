//! Dense-subgraph extraction on top of the raw Shingle clusters: the τ
//! post-filter, size filtering, and disjoint-ification.

use pfam_graph::BipartiteGraph;

use crate::algorithm::{shingle_clusters, BipartiteCluster, ShingleParams, ShingleStats};

/// The bipartite reduction the clusters came from, deciding how a raw
/// `(A, B)` pair becomes a dense subgraph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReductionMode {
    /// `Bd`: report `A ∪ B` when `|A∩B| / |A∪B| ≥ τ`.
    GlobalSimilarity {
        /// The agreement cutoff τ (0 < τ ≤ 1).
        tau: f64,
    },
}

/// Extraction configuration.
#[derive(Debug, Clone, Copy)]
pub struct DenseSubgraphConfig {
    /// Shingle parameters.
    pub params: ShingleParams,
    /// Reduction-dependent reporting rule.
    pub mode: ReductionMode,
    /// Minimum subgraph size (the paper uses 5).
    pub min_size: usize,
    /// Enforce pairwise-disjoint output (the paper's subgraphs are
    /// disjoint because families partition the proteins).
    pub disjoint: bool,
}

impl Default for DenseSubgraphConfig {
    fn default() -> Self {
        DenseSubgraphConfig {
            params: ShingleParams::default(),
            mode: ReductionMode::GlobalSimilarity { tau: 0.5 },
            min_size: 5,
            disjoint: true,
        }
    }
}

/// Jaccard agreement |A∩B| / |A∪B| of two sorted vertex lists.
pub fn jaccard(a: &[u32], b: &[u32]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 0.0;
    }
    let mut i = 0;
    let mut j = 0;
    let mut inter = 0usize;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    let union = a.len() + b.len() - inter;
    inter as f64 / union as f64
}

/// Merge two sorted lists into a sorted deduplicated union.
fn sorted_union(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    out.extend_from_slice(a);
    out.extend_from_slice(b);
    out.sort_unstable();
    out.dedup();
    out
}

/// Apply the τ reporting rule, size filter, and disjoint-ification to raw
/// Shingle clusters whose vertices lie in `0..universe`.
fn report_subgraphs(
    clusters: &[BipartiteCluster],
    config: &DenseSubgraphConfig,
    universe: usize,
) -> Vec<Vec<u32>> {
    let ReductionMode::GlobalSimilarity { tau } = config.mode;
    let mut subgraphs: Vec<Vec<u32>> = clusters
        .iter()
        .filter(|BipartiteCluster { a, b }| jaccard(a, b) >= tau)
        .map(|BipartiteCluster { a, b }| sorted_union(a, b))
        .collect();
    subgraphs.sort_by(|x, y| y.len().cmp(&x.len()).then(x.cmp(y)));
    if config.disjoint {
        let mut claimed = vec![false; universe];
        let mut disjoint = Vec::with_capacity(subgraphs.len());
        for sg in subgraphs {
            let remaining: Vec<u32> = sg.into_iter().filter(|&v| !claimed[v as usize]).collect();
            if !remaining.is_empty() {
                remaining.iter().for_each(|&v| claimed[v as usize] = true);
                disjoint.push(remaining);
            }
        }
        subgraphs = disjoint;
    }
    subgraphs.retain(|sg| sg.len() >= config.min_size);
    subgraphs
}

/// Run the Shingle algorithm on `graph` and apply the reporting rule.
///
/// Returned subgraphs are vertex lists over the graph's vertices (both
/// sides of a `Bd` graph are the same vertex set), ordered by decreasing
/// size.
pub fn detect_dense_subgraphs(
    graph: &BipartiteGraph,
    config: &DenseSubgraphConfig,
) -> (Vec<Vec<u32>>, ShingleStats) {
    let (clusters, stats) = shingle_clusters(graph, &config.params);
    let universe = graph.n_left().max(graph.n_right());
    (report_subgraphs(&clusters, config, universe), stats)
}

#[cfg(test)]
// Single-block graphs ([0..n]) are intentional, not mistyped vecs.
#[allow(clippy::single_range_in_vec_init)]
mod tests {
    use super::*;
    use pfam_graph::CsrGraph;

    fn fast_config(min_size: usize) -> DenseSubgraphConfig {
        DenseSubgraphConfig {
            params: ShingleParams { s1: 2, c1: 60, s2: 1, c2: 20, seed: 5 },
            mode: ReductionMode::GlobalSimilarity { tau: 0.5 },
            min_size,
            disjoint: true,
        }
    }

    fn blocks_graph(blocks: &[std::ops::Range<u32>], n: usize) -> CsrGraph {
        let mut edges = Vec::new();
        for block in blocks {
            for a in block.clone() {
                for b in block.clone() {
                    if a < b {
                        edges.push((a, b));
                    }
                }
            }
        }
        CsrGraph::from_edges(n, &edges)
    }

    #[test]
    fn jaccard_basics() {
        assert_eq!(jaccard(&[1, 2, 3], &[1, 2, 3]), 1.0);
        assert_eq!(jaccard(&[1, 2], &[3, 4]), 0.0);
        assert!((jaccard(&[1, 2, 3], &[2, 3, 4]) - 0.5).abs() < 1e-12);
        assert_eq!(jaccard(&[], &[]), 0.0);
        assert_eq!(jaccard(&[1], &[]), 0.0);
    }

    #[test]
    fn recovers_two_cliques() {
        let g = blocks_graph(&[0..10, 10..18], 18);
        let (subgraphs, _) =
            detect_dense_subgraphs(&BipartiteGraph::duplicate_from(&g), &fast_config(5));
        assert_eq!(subgraphs.len(), 2, "{subgraphs:?}");
        assert_eq!(subgraphs[0], (0..10).collect::<Vec<u32>>());
        assert_eq!(subgraphs[1], (10..18).collect::<Vec<u32>>());
    }

    #[test]
    fn min_size_filters_small_cliques() {
        let g = blocks_graph(&[0..10, 10..13], 13);
        let (subgraphs, _) =
            detect_dense_subgraphs(&BipartiteGraph::duplicate_from(&g), &fast_config(5));
        assert!(subgraphs.iter().all(|sg| sg.len() >= 5));
        assert!(subgraphs.iter().any(|sg| sg.len() == 10));
    }

    #[test]
    fn disjointness_enforced() {
        let g = blocks_graph(&[0..10, 5..15], 15); // overlapping cliques
        let (subgraphs, _) =
            detect_dense_subgraphs(&BipartiteGraph::duplicate_from(&g), &fast_config(2));
        let mut seen = std::collections::BTreeSet::new();
        for sg in &subgraphs {
            for &v in sg {
                assert!(seen.insert(v), "vertex {v} appears twice");
            }
        }
    }

    #[test]
    fn tau_one_requires_exact_agreement() {
        let g = blocks_graph(&[0..8], 8);
        let mut config = fast_config(2);
        config.mode = ReductionMode::GlobalSimilarity { tau: 1.0 };
        // A perfect clique under Bd gives A == B, so τ = 1 still passes.
        let (subgraphs, _) = detect_dense_subgraphs(&BipartiteGraph::duplicate_from(&g), &config);
        assert_eq!(subgraphs.len(), 1);
        assert_eq!(subgraphs[0].len(), 8);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::from_edges(4, &[]);
        let (subgraphs, _) =
            detect_dense_subgraphs(&BipartiteGraph::duplicate_from(&g), &fast_config(1));
        assert!(subgraphs.is_empty());
    }

    #[test]
    fn output_sorted_by_size_desc() {
        let g = blocks_graph(&[0..12, 12..18, 18..26], 26);
        let (subgraphs, _) =
            detect_dense_subgraphs(&BipartiteGraph::duplicate_from(&g), &fast_config(2));
        for w in subgraphs.windows(2) {
            assert!(w[0].len() >= w[1].len());
        }
    }
}
