//! Compressed sparse row (CSR) adjacency for undirected graphs.
//!
//! The per-component similarity graphs the pipeline analyses are built
//! once and then only read; CSR gives cache-friendly neighbor scans and a
//! third of the memory of `Vec<Vec<u32>>` at the sizes the paper works
//! with (components up to ~20 K vertices).

use crate::bipartite::BipartiteGraph;

/// An immutable undirected graph in CSR form. Vertices are `0..n`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrGraph {
    offsets: Vec<usize>,
    targets: Vec<u32>,
}

impl CsrGraph {
    /// Build from an undirected edge list over `n` vertices. Self-loops
    /// are dropped, duplicate edges collapsed, and each surviving edge
    /// `{a, b}` is stored in both adjacency rows.
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> CsrGraph {
        let mut pairs = Vec::with_capacity(edges.len() * 2);
        for &(a, b) in edges {
            assert!((a as usize) < n && (b as usize) < n, "edge ({a},{b}) out of range");
            if a == b {
                continue;
            }
            pairs.push((a, b));
            pairs.push((b, a));
        }
        // Both directions of every edge are the `Bd` graph's pairs: its
        // left-to-right rows are this graph's rows.
        let (offsets, targets) = BipartiteGraph::from_pairs_in(n, n, &mut pairs).into_rows();
        CsrGraph { offsets, targets }
    }

    /// Number of vertices.
    pub fn n_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    pub fn n_edges(&self) -> usize {
        self.targets.len() / 2
    }

    /// Neighbors of `v`, sorted ascending.
    #[inline]
    pub fn neighbors(&self, v: u32) -> &[u32] {
        &self.targets[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// The adjacency rows as they are stored: row `v` is
    /// `targets[offsets[v]..offsets[v + 1]]`.
    pub(crate) fn rows(&self) -> (&[usize], &[u32]) {
        (&self.offsets, &self.targets)
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: u32) -> usize {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Connected components as vertex lists (each sorted ascending; the
    /// list of components ordered by smallest member).
    pub fn connected_components(&self) -> Vec<Vec<u32>> {
        let mut uf = crate::union_find::UnionFind::new(self.n_vertices());
        for v in 0..self.n_vertices() as u32 {
            for &u in self.neighbors(v) {
                uf.union(v, u);
            }
        }
        uf.groups()
    }

    /// Extract the induced subgraph on `vertices` (renumbered densely in
    /// the given order). Returns the subgraph and the old-id mapping.
    pub fn induced_subgraph(&self, vertices: &[u32]) -> (CsrGraph, Vec<u32>) {
        let mut new_id = std::collections::HashMap::with_capacity(vertices.len());
        for (i, &v) in vertices.iter().enumerate() {
            new_id.insert(v, i as u32);
        }
        let mut edges = Vec::new();
        for &v in vertices {
            let nv = new_id[&v];
            for &u in self.neighbors(v) {
                if let Some(&nu) = new_id.get(&u) {
                    if nv < nu {
                        edges.push((nv, nu));
                    }
                }
            }
        }
        (CsrGraph::from_edges(vertices.len(), &edges), vertices.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_plus_isolated() -> CsrGraph {
        // 0-1-2 triangle, 3 isolated, 4-5 edge.
        CsrGraph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (4, 5)])
    }

    #[test]
    fn basic_shape() {
        let g = triangle_plus_isolated();
        assert_eq!(g.n_vertices(), 6);
        assert_eq!(g.n_edges(), 4);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(3), &[] as &[u32]);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.degree(3), 0);
    }

    #[test]
    fn duplicates_and_self_loops_cleaned() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 0), (0, 1), (2, 2)]);
        assert_eq!(g.n_edges(), 1);
        assert_eq!(g.neighbors(2), &[] as &[u32]);
    }

    #[test]
    fn components_found() {
        let g = triangle_plus_isolated();
        let cc = g.connected_components();
        assert_eq!(cc, vec![vec![0, 1, 2], vec![3], vec![4, 5]]);
    }

    #[test]
    fn induced_subgraph_renumbers() {
        let g = triangle_plus_isolated();
        let (sub, mapping) = g.induced_subgraph(&[1, 2, 4]);
        assert_eq!(mapping, vec![1, 2, 4]);
        assert_eq!(sub.n_vertices(), 3);
        // Only the 1-2 edge survives (4's partner 5 excluded).
        assert_eq!(sub.n_edges(), 1);
        assert_eq!(sub.neighbors(0), &[1]);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::from_edges(0, &[]);
        assert_eq!(g.n_vertices(), 0);
        assert_eq!(g.n_edges(), 0);
        assert!(g.connected_components().is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_edge() {
        let _ = CsrGraph::from_edges(2, &[(0, 2)]);
    }

    #[test]
    fn neighbors_sorted() {
        let g = CsrGraph::from_edges(5, &[(2, 4), (2, 0), (2, 3), (2, 1)]);
        assert_eq!(g.neighbors(2), &[0, 1, 3, 4]);
    }
}
