//! Greedy densest-subgraph peeling.
//!
//! The Shingle algorithm is the paper's choice because it streams; the
//! classical alternative is Charikar's peeling: repeatedly remove the
//! minimum-degree vertex and keep the prefix maximising average degree —
//! a ½-approximation to the densest subgraph. This module provides the
//! peeling baseline the ablation studies sanity-check the Shingle output
//! against.

use crate::csr::CsrGraph;

/// Charikar's greedy peeling: returns the vertex set maximising average
/// degree over all peeling prefixes (a ½-approximation of the densest
/// subgraph) and its density `|E| / |V|`.
pub fn densest_subgraph_peeling(g: &CsrGraph) -> (Vec<u32>, f64) {
    let n = g.n_vertices();
    if n == 0 {
        return (Vec::new(), 0.0);
    }
    let mut degree: Vec<i64> = (0..n as u32).map(|v| g.degree(v) as i64).collect();
    let mut alive = vec![true; n];
    let mut edges_left = g.n_edges() as i64;

    // Peel min-degree vertices; record the removal order.
    use std::collections::BTreeSet;
    let mut queue: BTreeSet<(i64, u32)> = (0..n as u32).map(|v| (degree[v as usize], v)).collect();
    let mut removal = Vec::with_capacity(n);
    let mut best_density = edges_left as f64 / n as f64;
    let mut best_remaining = n;
    let mut remaining = n;
    while let Some(&(d, v)) = queue.iter().next() {
        queue.remove(&(d, v));
        alive[v as usize] = false;
        edges_left -= d;
        remaining -= 1;
        removal.push(v);
        for &u in g.neighbors(v) {
            if alive[u as usize] {
                let du = degree[u as usize];
                queue.remove(&(du, u));
                degree[u as usize] = du - 1;
                queue.insert((du - 1, u));
            }
        }
        if remaining > 0 {
            let density = edges_left as f64 / remaining as f64;
            if density > best_density {
                best_density = density;
                best_remaining = remaining;
            }
        }
    }
    // The best prefix keeps the last `best_remaining` removed vertices.
    let mut members: Vec<u32> = removal[n - best_remaining..].to_vec();
    members.sort_unstable();
    (members, best_density)
}

/// Greedy dense-subgraph decomposition: repeatedly peel the densest
/// subgraph out of what remains, until it falls below `min_size` vertices
/// or `min_avg_degree` average degree. An alternative to the Shingle
/// detection used as an ablation baseline.
pub fn greedy_dense_decomposition(
    g: &CsrGraph,
    min_size: usize,
    min_avg_degree: f64,
) -> Vec<Vec<u32>> {
    let mut out = Vec::new();
    let mut remaining: Vec<u32> = (0..g.n_vertices() as u32).collect();
    let mut current = g.clone();
    let mut mapping: Vec<u32> = remaining.clone();
    loop {
        let (local, density) = densest_subgraph_peeling(&current);
        // average degree = 2 · |E| / |V| = 2 · density.
        if local.len() < min_size || 2.0 * density < min_avg_degree {
            break;
        }
        let members: Vec<u32> = local.iter().map(|&l| mapping[l as usize]).collect();
        let member_set: std::collections::HashSet<u32> = local.iter().copied().collect();
        out.push(members);
        remaining = (0..current.n_vertices() as u32).filter(|v| !member_set.contains(v)).collect();
        if remaining.len() < min_size {
            break;
        }
        let (sub, local_map) = current.induced_subgraph(&remaining);
        mapping = local_map.iter().map(|&l| mapping[l as usize]).collect();
        current = sub;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clique(n: usize) -> CsrGraph {
        let mut edges = Vec::new();
        for a in 0..n as u32 {
            for b in a + 1..n as u32 {
                edges.push((a, b));
            }
        }
        CsrGraph::from_edges(n, &edges)
    }

    #[test]
    fn peeling_finds_planted_clique() {
        // K8 plus a long sparse path attached.
        let mut edges = Vec::new();
        for a in 0..8u32 {
            for b in a + 1..8 {
                edges.push((a, b));
            }
        }
        for v in 8..20u32 {
            edges.push((v - 1, v));
        }
        let g = CsrGraph::from_edges(20, &edges);
        let (members, density) = densest_subgraph_peeling(&g);
        assert_eq!(members, (0..8).collect::<Vec<u32>>());
        assert!((density - 28.0 / 8.0).abs() < 1e-9);
    }

    #[test]
    fn peeling_on_empty_and_edgeless() {
        let (m, d) = densest_subgraph_peeling(&CsrGraph::from_edges(0, &[]));
        assert!(m.is_empty());
        assert_eq!(d, 0.0);
        let (_, d) = densest_subgraph_peeling(&CsrGraph::from_edges(5, &[]));
        assert_eq!(d, 0.0);
    }

    #[test]
    fn decomposition_recovers_two_cliques() {
        let mut edges = Vec::new();
        for a in 0..10u32 {
            for b in a + 1..10 {
                edges.push((a, b));
            }
        }
        for a in 10..16u32 {
            for b in a + 1..16 {
                edges.push((a, b));
            }
        }
        let g = CsrGraph::from_edges(16, &edges);
        let parts = greedy_dense_decomposition(&g, 3, 2.0);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0], (0..10).collect::<Vec<u32>>());
        assert_eq!(parts[1], (10..16).collect::<Vec<u32>>());
    }

    #[test]
    fn decomposition_respects_min_size() {
        let g = clique(4);
        assert!(greedy_dense_decomposition(&g, 5, 1.0).is_empty());
        assert_eq!(greedy_dense_decomposition(&g, 4, 1.0).len(), 1);
    }

    #[test]
    fn decomposition_is_disjoint() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(92);
        let n = 40;
        let edges: Vec<(u32, u32)> =
            (0..200).map(|_| (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32))).collect();
        let g = CsrGraph::from_edges(n, &edges);
        let parts = greedy_dense_decomposition(&g, 2, 1.0);
        let mut seen = std::collections::HashSet::new();
        for part in &parts {
            for &v in part {
                assert!(seen.insert(v), "vertex {v} in two parts");
            }
        }
    }
}
