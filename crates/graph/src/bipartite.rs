//! The bipartite reduction of Section III of the paper, **`Bd` (global
//! similarity)**: duplicate the vertex set of an undirected similarity
//! graph `G(V, E)`: `Vl = Vr = V`, `E′ = {(i,j),(j,i) | (sᵢ,sⱼ) ∈ E}`.
//! Finding `A ⊆ Vl`, `B ⊆ Vr` that are densely connected with
//! `|A∩B| / |A∪B| ≥ τ` recovers dense subgraphs of `G`. The paper's other
//! reduction, `Bm` (shared exact words against sequences), is not here: it
//! loses to `Bd` on precision and cost (EXPERIMENTS.md, "One reduction").

use crate::csr::CsrGraph;

/// A bipartite graph stored as a left-to-right adjacency (CSR-like).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BipartiteGraph {
    n_left: usize,
    n_right: usize,
    offsets: Vec<usize>,
    targets: Vec<u32>,
}

impl BipartiteGraph {
    /// Build from explicit left-to-right edges in a caller-owned buffer,
    /// which is sorted and deduplicated in place — no copy of the list.
    pub fn from_pairs_in(
        n_left: usize,
        n_right: usize,
        pairs: &mut Vec<(u32, u32)>,
    ) -> BipartiteGraph {
        for &(l, r) in pairs.iter() {
            assert!((l as usize) < n_left && (r as usize) < n_right, "edge ({l},{r}) out of range");
        }
        pairs.sort_unstable();
        pairs.dedup();
        let mut offsets = vec![0usize; n_left + 1];
        for &(l, _) in pairs.iter() {
            offsets[l as usize + 1] += 1;
        }
        for i in 0..n_left {
            offsets[i + 1] += offsets[i];
        }
        let targets = pairs.iter().map(|&(_, r)| r).collect();
        BipartiteGraph { n_left, n_right, offsets, targets }
    }

    /// The `Bd` reduction of an undirected graph: both sides are the vertex
    /// set of `g`, and each undirected edge contributes both directions —
    /// exactly `g`'s rows, which are already sorted, distinct and free of
    /// self-loops, so they are copied as they are.
    pub fn duplicate_from(g: &CsrGraph) -> BipartiteGraph {
        let n = g.n_vertices();
        let (offsets, targets) = g.rows();
        BipartiteGraph {
            n_left: n,
            n_right: n,
            offsets: offsets.to_vec(),
            targets: targets.to_vec(),
        }
    }

    /// The left-to-right rows, `(offsets, targets)`.
    pub(crate) fn into_rows(self) -> (Vec<usize>, Vec<u32>) {
        (self.offsets, self.targets)
    }

    /// Number of left vertices.
    pub fn n_left(&self) -> usize {
        self.n_left
    }

    /// Number of right vertices.
    pub fn n_right(&self) -> usize {
        self.n_right
    }

    /// Number of edges.
    pub fn n_edges(&self) -> usize {
        self.targets.len()
    }

    /// Out-links Γ(v) of left vertex `v`, sorted ascending.
    #[inline]
    pub fn out_links(&self, v: u32) -> &[u32] {
        &self.targets[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_reduction_mirrors_graph() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (0, 2)]);
        let b = BipartiteGraph::duplicate_from(&g);
        assert_eq!(b.n_left(), 4);
        assert_eq!(b.n_right(), 4);
        assert_eq!(b.n_edges(), 6); // each undirected edge twice
        assert_eq!(b.out_links(0), &[1, 2]);
        assert_eq!(b.out_links(3), &[] as &[u32]);
        // Symmetry: u in Γ(v) ⇔ v in Γ(u).
        for v in 0..4u32 {
            for &u in b.out_links(v) {
                assert!(b.out_links(u).contains(&v));
            }
        }
    }

    #[test]
    fn from_pairs_in_sorts_and_dedups() {
        let mut raw = vec![(1u32, 2u32), (0, 1), (0, 1)];
        let b = BipartiteGraph::from_pairs_in(2, 3, &mut raw);
        assert_eq!(b.n_edges(), 2);
        assert_eq!(b.out_links(0), &[1]);
        assert_eq!(b.out_links(1), &[2]);
        assert_eq!(raw, [(0, 1), (1, 2)]);
    }

    #[test]
    fn empty_graphs() {
        let b = BipartiteGraph::from_pairs_in(0, 0, &mut Vec::new());
        assert_eq!(b.n_edges(), 0);
        let g = CsrGraph::from_edges(3, &[]);
        let bd = BipartiteGraph::duplicate_from(&g);
        assert_eq!(bd.n_edges(), 0);
        assert_eq!(bd.n_left(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_edge() {
        let _ = BipartiteGraph::from_pairs_in(1, 1, &mut vec![(0, 1)]);
    }
}
