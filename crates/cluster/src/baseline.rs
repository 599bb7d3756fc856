//! The GOS-style baseline (Section II of the paper).
//!
//! The comparison point for the work-reduction claims: all-versus-all
//! alignment to build the similarity graph, followed by the GOS core-set
//! heuristic (two sequences grouped when they share at least `k` common
//! graph neighbors, k = 10 in the GOS runs). This costs Θ(n²) alignments
//! and Θ(n²) pair storage in the worst case — exactly what the paper's
//! pipeline avoids.

use rayon::prelude::*;

use pfam_align::overlaps;
use pfam_graph::{CsrGraph, UnionFind};
use pfam_seq::{SeqId, SequenceSet};

use crate::config::ClusterConfig;

/// Outcome and cost of the all-pairs baseline.
#[derive(Debug, Clone)]
pub struct BaselineResult {
    /// The full similarity graph.
    pub graph: CsrGraph,
    /// Connected components of the graph.
    pub components: Vec<Vec<SeqId>>,
    /// Alignments performed — always `n·(n−1)/2`.
    pub n_alignments: u64,
    /// Total DP cells across all alignments.
    pub align_cells: u64,
}

/// Run the all-versus-all baseline over `set`.
pub fn run_all_pairs_baseline(set: &SequenceSet, config: &ClusterConfig) -> BaselineResult {
    let n = set.len();
    let pairs: Vec<(u32, u32)> =
        (0..n as u32).flat_map(|a| (a + 1..n as u32).map(move |b| (a, b))).collect();
    let verdicts: Vec<(u32, u32, bool, u64)> = pairs
        .par_iter()
        .map(|&(a, b)| {
            let x = set.codes(SeqId(a));
            let y = set.codes(SeqId(b));
            let cells = (x.len() as u64) * (y.len() as u64);
            (a, b, overlaps(x, y, &config.scheme, &config.overlap), cells)
        })
        .collect();
    let mut edges = Vec::new();
    let mut align_cells = 0u64;
    for (a, b, passed, cells) in &verdicts {
        align_cells += cells;
        if *passed {
            edges.push((*a, *b));
        }
    }
    let graph = CsrGraph::from_edges(n, &edges);
    let components = graph
        .connected_components()
        .into_iter()
        .map(|c| c.into_iter().map(SeqId).collect())
        .collect();
    BaselineResult { graph, components, n_alignments: verdicts.len() as u64, align_cells }
}

/// The GOS core-set grouping: sequences `a` and `b` are clustered together
/// when they share at least `k` common neighbors in the similarity graph
/// (or are adjacent and jointly small enough that `k` cannot be reached —
/// here, strictly the shared-neighbor rule plus direct adjacency for
/// k = 0). Transitive closure via union-find, as in the GOS merging step.
pub fn core_set_clusters(graph: &CsrGraph, k: usize) -> Vec<Vec<u32>> {
    let n = graph.n_vertices();
    let mut uf = UnionFind::new(n);
    for a in 0..n as u32 {
        let na = graph.neighbors(a);
        for &b in na {
            if b <= a {
                continue;
            }
            if k == 0 {
                uf.union(a, b);
                continue;
            }
            // Count common neighbors by sorted-list intersection.
            let nb = graph.neighbors(b);
            let mut i = 0;
            let mut j = 0;
            let mut common = 0usize;
            while i < na.len() && j < nb.len() && common < k {
                match na[i].cmp(&nb[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        common += 1;
                        i += 1;
                        j += 1;
                    }
                }
            }
            if common >= k {
                uf.union(a, b);
            }
        }
    }
    uf.groups()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfam_seq::SequenceSetBuilder;

    fn set_of(seqs: &[&str]) -> SequenceSet {
        let mut b = SequenceSetBuilder::new();
        for (i, s) in seqs.iter().enumerate() {
            b.push_letters(format!("s{i}"), s.as_bytes()).unwrap();
        }
        b.finish()
    }

    fn config() -> ClusterConfig {
        ClusterConfig::for_short_sequences()
    }

    const FAM: &str = "MKVLWAAKNDCQEGHILKMFPSTWYV";

    #[test]
    fn baseline_aligns_every_pair() {
        let set = set_of(&[FAM, FAM, FAM, "WWWWHHHHGGGGCCCC"]);
        let r = run_all_pairs_baseline(&set, &config());
        assert_eq!(r.n_alignments, 6);
        assert!(r.align_cells > 0);
        assert_eq!(r.graph.n_edges(), 3, "the three FAM pairs");
        assert_eq!(r.components.len(), 2);
    }

    #[test]
    fn baseline_agrees_with_ccd_components() {
        let set = set_of(&[FAM, FAM, "WWWWHHHHGGGGCCCC", FAM]);
        let base = run_all_pairs_baseline(&set, &config());
        let ccd = crate::ccd::run_ccd(&set, &config());
        assert_eq!(base.components, ccd.components);
        // ...but the heuristic pipeline must do no more alignment work.
        assert!(ccd.trace.total_aligned() as u64 <= base.n_alignments);
    }

    #[test]
    fn core_set_with_k_zero_is_connected_components() {
        let g = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (3, 4)]);
        assert_eq!(core_set_clusters(&g, 0), g.connected_components());
    }

    #[test]
    fn core_set_requires_shared_neighbors() {
        // Two triangles sharing one vertex: with k=1 the bridge vertex's
        // edges each have a common neighbor inside their own triangle, so
        // everything merges; with k=2 no edge has two shared neighbors.
        let g = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]);
        let k1 = core_set_clusters(&g, 1);
        assert_eq!(k1.len(), 1);
        let k2 = core_set_clusters(&g, 2);
        assert_eq!(k2.len(), 5, "no pair shares 2 neighbors: {k2:?}");
    }

    #[test]
    fn core_set_on_clique() {
        // K5: every edge has 3 common neighbors.
        let mut edges = Vec::new();
        for a in 0..5u32 {
            for b in a + 1..5 {
                edges.push((a, b));
            }
        }
        let g = CsrGraph::from_edges(5, &edges);
        assert_eq!(core_set_clusters(&g, 3).len(), 1);
        assert_eq!(core_set_clusters(&g, 4).len(), 5);
    }

    #[test]
    fn empty_set_baseline() {
        let r = run_all_pairs_baseline(&SequenceSet::default(), &config());
        assert_eq!(r.n_alignments, 0);
        assert!(r.components.is_empty());
    }
}
