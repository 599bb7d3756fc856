//! Degree and density statistics for reported dense subgraphs.
//!
//! The paper evaluates quality via the observed *density* of each reported
//! subgraph: for a subgraph with `m` nodes, density = mean-degree ⁄ (m − 1),
//! i.e. 100 % for a clique (Table I reports mean densities of 76–78 %).

use crate::csr::CsrGraph;

/// Degree/density summary of one vertex subset within a host graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubgraphDensity {
    /// Number of vertices in the subset.
    pub n_vertices: usize,
    /// Number of induced edges.
    pub n_edges: usize,
    /// Mean induced degree.
    pub mean_degree: f64,
    /// mean_degree / (n − 1); 1.0 for a clique, 0.0 for singletons.
    pub density: f64,
}

/// Compute the induced degree/density of `vertices` inside `g`.
pub fn subgraph_density(g: &CsrGraph, vertices: &[u32]) -> SubgraphDensity {
    let m = vertices.len();
    if m <= 1 {
        return SubgraphDensity { n_vertices: m, n_edges: 0, mean_degree: 0.0, density: 0.0 };
    }
    let members: std::collections::HashSet<u32> = vertices.iter().copied().collect();
    let mut degree_sum = 0usize;
    for &v in vertices {
        degree_sum += g.neighbors(v).iter().filter(|u| members.contains(u)).count();
    }
    let mean_degree = degree_sum as f64 / m as f64;
    SubgraphDensity {
        n_vertices: m,
        n_edges: degree_sum / 2,
        mean_degree,
        density: mean_degree / (m - 1) as f64,
    }
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
    fn clique_density_is_one() {
        let g = clique(6);
        let d = subgraph_density(&g, &[0, 1, 2, 3, 4, 5]);
        assert_eq!(d.n_edges, 15);
        assert!((d.density - 1.0).abs() < 1e-12);
        assert!((d.mean_degree - 5.0).abs() < 1e-12);
    }

    #[test]
    fn sub_clique_of_clique_is_still_clique() {
        let g = clique(6);
        let d = subgraph_density(&g, &[1, 3, 5]);
        assert!((d.density - 1.0).abs() < 1e-12);
        assert_eq!(d.n_edges, 3);
    }

    #[test]
    fn path_density() {
        // Path 0-1-2-3: degrees 1,2,2,1 → mean 1.5, density 0.5.
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let d = subgraph_density(&g, &[0, 1, 2, 3]);
        assert!((d.mean_degree - 1.5).abs() < 1e-12);
        assert!((d.density - 0.5).abs() < 1e-12);
    }

    #[test]
    fn external_edges_ignored() {
        // Triangle 0-1-2 plus pendant 2-3: subset {0,1,2} is a clique.
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]);
        let d = subgraph_density(&g, &[0, 1, 2]);
        assert!((d.density - 1.0).abs() < 1e-12);
    }

    #[test]
    fn singleton_and_empty() {
        let g = clique(3);
        assert_eq!(subgraph_density(&g, &[1]).density, 0.0);
        assert_eq!(subgraph_density(&g, &[]).n_vertices, 0);
    }
}
