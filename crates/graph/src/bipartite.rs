//! The two bipartite reductions of Section III of the paper.
//!
//! * **`Bd` (global-similarity)** — duplicate the vertex set of an
//!   undirected similarity graph `G(V, E)`: `Vl = Vr = V`,
//!   `E′ = {(i,j),(j,i) | (sᵢ,sⱼ) ∈ E}`. Finding `A ⊆ Vl`, `B ⊆ Vr` that
//!   are densely connected with `|A∩B| / |A∪B| ≥ τ` recovers dense
//!   subgraphs of `G`.
//! * **`Bm` (domain-based)** — `Vl` = the set of `w`-length words occurring
//!   in at least two different sequences, `Vr` = sequences, with an edge
//!   when the word occurs in the sequence. The `B` side of a dense
//!   subgraph is a family supported by shared exact words (domains).

use pfam_seq::{KmerIter, SeqId, SequenceSet};

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
    /// Build from explicit left-to-right edges.
    pub fn from_edges(n_left: usize, n_right: usize, edges: &[(u32, u32)]) -> BipartiteGraph {
        let mut pairs: Vec<(u32, u32)> = edges.to_vec();
        BipartiteGraph::from_pairs_in(n_left, n_right, &mut pairs)
    }

    /// [`BipartiteGraph::from_edges`] on a caller-owned pair buffer, sorted
    /// and deduplicated in place — identical output, no copy of the list.
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
    /// set of `g`, and each undirected edge contributes both directions.
    pub fn duplicate_from(g: &CsrGraph) -> BipartiteGraph {
        let n = g.n_vertices();
        let mut pairs = Vec::with_capacity(2 * g.n_edges());
        for v in 0..n as u32 {
            pairs.extend(g.neighbors(v).iter().map(|&u| (v, u)));
        }
        BipartiteGraph::from_pairs_in(n, n, &mut pairs)
    }

    /// The `Bm` reduction: left vertices are the `w`-length words occurring
    /// in ≥ 2 *different* sequences of `set` (restricted to `members` if
    /// given), right vertices are the sequences of `set`.
    pub fn word_based(set: &SequenceSet, members: Option<&[SeqId]>, w: usize) -> BipartiteGraph {
        use std::collections::HashMap;
        // word → sorted set of sequences containing it.
        let mut occurs: HashMap<u64, Vec<u32>> = HashMap::new();
        let mut scan = |id: SeqId| {
            for (_, word) in KmerIter::new(set.codes(id), w) {
                let entry = occurs.entry(word).or_default();
                if entry.last() != Some(&id.0) {
                    entry.push(id.0);
                }
            }
        };
        match members {
            Some(ids) => ids.iter().copied().for_each(&mut scan),
            None => set.ids().for_each(&mut scan),
        }
        let mut words: Vec<(u64, Vec<u32>)> =
            occurs.into_iter().filter(|(_, seqs)| seqs.len() >= 2).collect();
        words.sort_unstable_by_key(|&(word, _)| word);
        let mut edges = Vec::new();
        for (li, (_, seqs)) in words.iter().enumerate() {
            for &s in seqs {
                edges.push((li as u32, s));
            }
        }
        BipartiteGraph::from_edges(words.len(), set.len(), &edges)
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
    use pfam_seq::SequenceSetBuilder;

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
    fn from_edges_dedups() {
        let b = BipartiteGraph::from_edges(2, 3, &[(0, 1), (0, 1), (1, 2)]);
        assert_eq!(b.n_edges(), 2);
        assert_eq!(b.out_links(0).len(), 1);
    }

    #[test]
    fn word_based_requires_two_distinct_sequences() {
        let mut builder = SequenceSetBuilder::new();
        // "MKVLW" appears in s0 twice and in s1; "AAAAA" only in s2.
        builder.push_letters("s0".into(), b"MKVLWMKVLW").unwrap();
        builder.push_letters("s1".into(), b"CCMKVLWCC").unwrap();
        builder.push_letters("s2".into(), b"AAAAAA").unwrap();
        let set = builder.finish();
        let b = BipartiteGraph::word_based(&set, None, 5);
        // Words of length 5 in >= 2 sequences: MKVLW only.
        assert_eq!(b.n_left(), 1);
        assert_eq!(b.out_links(0), &[0, 1]);
    }

    #[test]
    fn word_based_respects_member_restriction() {
        let mut builder = SequenceSetBuilder::new();
        builder.push_letters("s0".into(), b"MKVLWAA").unwrap();
        builder.push_letters("s1".into(), b"MKVLWCC").unwrap();
        builder.push_letters("s2".into(), b"MKVLWDD").unwrap();
        let set = builder.finish();
        let all = BipartiteGraph::word_based(&set, None, 5);
        assert_eq!(all.out_links(0), &[0, 1, 2]);
        let restricted = BipartiteGraph::word_based(&set, Some(&[SeqId(0), SeqId(2)]), 5);
        assert_eq!(restricted.out_links(0), &[0, 2]);
    }

    #[test]
    fn word_based_ignores_x_windows() {
        let mut builder = SequenceSetBuilder::new();
        builder.push_letters("s0".into(), b"MKXLWAA").unwrap();
        builder.push_letters("s1".into(), b"MKXLWCC").unwrap();
        let set = builder.finish();
        let b = BipartiteGraph::word_based(&set, None, 5);
        assert_eq!(b.n_left(), 0, "X-containing words are not evidence");
    }

    #[test]
    fn empty_graphs() {
        let b = BipartiteGraph::from_edges(0, 0, &[]);
        assert_eq!(b.n_edges(), 0);
        let g = CsrGraph::from_edges(3, &[]);
        let bd = BipartiteGraph::duplicate_from(&g);
        assert_eq!(bd.n_edges(), 0);
        assert_eq!(bd.n_left(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_edge() {
        let _ = BipartiteGraph::from_edges(1, 1, &[(0, 1)]);
    }

    #[test]
    fn from_pairs_in_dedups_like_from_edges() {
        let mut raw = vec![(0u32, 1u32), (0, 1), (1, 2)];
        assert_eq!(
            BipartiteGraph::from_pairs_in(2, 3, &mut raw),
            BipartiteGraph::from_edges(2, 3, &[(0, 1), (0, 1), (1, 2)])
        );
    }
}
