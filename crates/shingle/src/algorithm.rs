//! The two-pass Shingle algorithm (Gibson, Kumar & Tomkins, VLDB 2005),
//! adapted to the paper's dense-bipartite-subgraph formulation.
//!
//! * **Pass I** — an `(s₁, c₁)`-shingle set is computed for every left
//!   vertex; vertices sharing a first-level shingle are grouped.
//! * **Pass II** — each first-level shingle becomes a vertex whose
//!   out-links are the left vertices that produced it; an `(s₂, c₂)`-
//!   shingle set groups first-level shingles into second-level shingles.
//! * **Reporting** — connected components of the (second-level shingle ↔
//!   first-level shingle) graph are enumerated with union-find. Component
//!   `A` = left vertices contributing a first-level shingle, `B` = union
//!   of the first-level shingles' constituent right vertices.

use std::collections::HashMap;

use pfam_graph::{BipartiteGraph, UnionFind};

use crate::minwise::{shingle_set_with, HashFamily, Shingle, ShingleScratch};

/// Parameters of the two passes. The paper's tuned setting for its data is
/// `(s, c) = (5, 300)` for pass I; pass II uses a coarser, cheaper setting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShingleParams {
    /// Pass-I shingle size s₁.
    pub s1: usize,
    /// Pass-I permutation count c₁.
    pub c1: usize,
    /// Pass-II shingle size s₂.
    pub s2: usize,
    /// Pass-II permutation count c₂.
    pub c2: usize,
    /// Seed for the min-wise hash families.
    pub seed: u64,
}

impl Default for ShingleParams {
    fn default() -> Self {
        ShingleParams { s1: 5, c1: 300, s2: 2, c2: 40, seed: 0x5eed }
    }
}

/// One raw dense-subgraph candidate from the reporting step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BipartiteCluster {
    /// Left-side vertices (sorted ascending).
    pub a: Vec<u32>,
    /// Right-side vertices (sorted ascending).
    pub b: Vec<u32>,
}

/// Work counters for the performance model (Figure 7b reproduces DSD time
/// as a function of `c`, which is proportional to `shingles_generated`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShingleStats {
    /// First-level shingles generated (pre-dedup, ≈ c₁ per vertex).
    pub pass1_shingles: usize,
    /// Distinct first-level shingles.
    pub distinct_s1: usize,
    /// Second-level shingles generated.
    pub pass2_shingles: usize,
    /// Components reported (before size filtering).
    pub components: usize,
}

impl ShingleStats {
    /// Fold `other`'s counters into `self` — the one accumulation point
    /// of the pipeline, its checkpointed form and the benchmark adapter.
    pub fn absorb(&mut self, other: &ShingleStats) {
        self.pass1_shingles += other.pass1_shingles;
        self.distinct_s1 += other.distinct_s1;
        self.pass2_shingles += other.pass2_shingles;
        self.components += other.components;
    }
}

/// Pass II derives its permutations from an independent seed stream.
const PASS2_SEED_XOR: u64 = 0xABCD_EF01_2345_6789;

/// Group per-vertex first-level shingles by id into the stable
/// `(id, elements, vertices)` numbering both passes agree on.
fn group_pass1(
    per_vertex: Vec<Vec<Shingle>>,
    stats: &mut ShingleStats,
) -> Vec<(u64, Vec<u32>, Vec<u32>)> {
    let mut s1_groups: HashMap<u64, (Vec<u32>, Vec<u32>)> = HashMap::new(); // id → (elements, vertices)
    for (v, shingles) in per_vertex.into_iter().enumerate() {
        stats.pass1_shingles += shingles.len();
        for sh in shingles {
            let entry = s1_groups.entry(sh.id).or_insert_with(|| (sh.elements.clone(), Vec::new()));
            entry.1.push(v as u32);
        }
    }
    stats.distinct_s1 = s1_groups.len();

    let mut s1_list: Vec<(u64, Vec<u32>, Vec<u32>)> = s1_groups
        .into_iter()
        .map(|(id, (elements, mut vertices))| {
            vertices.sort_unstable();
            vertices.dedup();
            (id, elements, vertices)
        })
        .collect();
    s1_list.sort_unstable_by_key(|&(id, _, _)| id);
    s1_list
}

/// Reporting: union first-level shingles sharing a second-level id and
/// materialise each union-find group as an `(A, B)` cluster.
fn report_clusters(
    s1_list: &[(u64, Vec<u32>, Vec<u32>)],
    second: &[Vec<Shingle>],
    stats: &mut ShingleStats,
) -> Vec<BipartiteCluster> {
    stats.pass2_shingles = second.iter().map(|s| s.len()).sum();

    let mut uf = UnionFind::new(s1_list.len());
    let mut owner_of_s2: HashMap<u64, u32> = HashMap::new();
    for (idx, shingles) in second.iter().enumerate() {
        for sh in shingles {
            match owner_of_s2.entry(sh.id) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    uf.union(*e.get(), idx as u32);
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(idx as u32);
                }
            }
        }
    }

    let groups = uf.groups();
    stats.components = groups.len();
    let mut clusters: Vec<BipartiteCluster> = groups
        .into_iter()
        .map(|shingle_ids| {
            let mut a = Vec::new();
            let mut b = Vec::new();
            for sid in shingle_ids {
                let (_, elements, vertices) = &s1_list[sid as usize];
                a.extend_from_slice(vertices);
                b.extend_from_slice(elements);
            }
            a.sort_unstable();
            a.dedup();
            b.sort_unstable();
            b.dedup();
            BipartiteCluster { a, b }
        })
        .collect();
    clusters.sort_by(|x, y| y.b.len().cmp(&x.b.len()).then(x.a.cmp(&y.a)));
    clusters
}

/// Run the two-pass Shingle algorithm on `graph`, serially: the pipeline's
/// parallelism is across components, one component per worker.
///
/// Returns clusters with `|A| ≥ 1` and `|B| ≥ 1`, ordered by decreasing
/// `|B|`, plus work counters.
pub fn shingle_clusters(
    graph: &BipartiteGraph,
    params: &ShingleParams,
) -> (Vec<BipartiteCluster>, ShingleStats) {
    let mut stats = ShingleStats::default();
    let mut scratch = ShingleScratch::new();

    // ---- Pass I over left vertices (elements are right vertices). ----
    let fam1 = HashFamily::new(params.c1, params.seed);
    let per_vertex: Vec<Vec<Shingle>> = (0..graph.n_left() as u32)
        .map(|v| shingle_set_with(graph.out_links(v), &fam1, params.s1, &mut scratch))
        .collect();
    let s1_list = group_pass1(per_vertex, &mut stats);

    // ---- Pass II over first-level shingles (elements are left vertices). ----
    let fam2 = HashFamily::new(params.c2, params.seed ^ PASS2_SEED_XOR);
    let second: Vec<Vec<Shingle>> = s1_list
        .iter()
        .map(|(_, _, vertices)| shingle_set_with(vertices, &fam2, params.s2, &mut scratch))
        .collect();

    let clusters = report_clusters(&s1_list, &second, &mut stats);
    (clusters, stats)
}

#[cfg(test)]
// Single-block clique graphs ([0..n]) are intentional, not mistyped vecs.
#[allow(clippy::single_range_in_vec_init)]
mod tests {
    use super::*;
    use pfam_graph::CsrGraph;

    fn clique_graph(blocks: &[std::ops::Range<u32>], n: usize) -> BipartiteGraph {
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
        BipartiteGraph::duplicate_from(&CsrGraph::from_edges(n, &edges))
    }

    fn fast_params() -> ShingleParams {
        ShingleParams { s1: 2, c1: 40, s2: 1, c2: 20, seed: 99 }
    }

    #[test]
    fn single_clique_recovered() {
        let g = clique_graph(&[0..12], 12);
        let (clusters, stats) = shingle_clusters(&g, &fast_params());
        assert!(!clusters.is_empty());
        // The biggest cluster must contain the whole clique on the B side.
        assert_eq!(clusters[0].b, (0..12).collect::<Vec<u32>>());
        assert!(stats.distinct_s1 >= 1);
    }

    #[test]
    fn two_cliques_stay_separate() {
        let g = clique_graph(&[0..10, 10..20], 20);
        let (clusters, _) = shingle_clusters(&g, &fast_params());
        // No reported cluster may mix the two cliques.
        for c in &clusters {
            let low = c.b.iter().filter(|&&v| v < 10).count();
            let high = c.b.len() - low;
            assert!(low == 0 || high == 0, "cluster mixes disjoint cliques: {:?}", c.b);
        }
        // Both cliques should be recovered as the two largest clusters.
        assert!(clusters.len() >= 2);
        assert_eq!(clusters[0].b.len(), 10);
        assert_eq!(clusters[1].b.len(), 10);
    }

    #[test]
    fn empty_graph_yields_nothing() {
        let g = BipartiteGraph::from_edges(0, 0, &[]);
        let (clusters, stats) = shingle_clusters(&g, &fast_params());
        assert!(clusters.is_empty());
        assert_eq!(stats.pass1_shingles, 0);
    }

    #[test]
    fn isolated_vertices_ignored() {
        // 5-clique plus 5 isolated vertices: isolated vertices have no
        // out-links, hence no shingles, hence appear in no cluster.
        let g = clique_graph(&[0..5], 10);
        let (clusters, _) = shingle_clusters(&g, &fast_params());
        for c in &clusters {
            assert!(c.a.iter().all(|&v| v < 5));
            assert!(c.b.iter().all(|&v| v < 5));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let g = clique_graph(&[0..8, 8..14], 14);
        let p = fast_params();
        let (c1, s1) = shingle_clusters(&g, &p);
        let (c2, s2) = shingle_clusters(&g, &p);
        assert_eq!(c1, c2);
        assert_eq!(s1, s2);
    }

    #[test]
    fn stats_scale_with_c() {
        let g = clique_graph(&[0..30], 30);
        let small = ShingleParams { c1: 10, ..fast_params() };
        let large = ShingleParams { c1: 80, ..fast_params() };
        let (_, st_small) = shingle_clusters(&g, &small);
        let (_, st_large) = shingle_clusters(&g, &large);
        assert!(
            st_large.pass1_shingles > st_small.pass1_shingles,
            "more permutations must generate more shingles"
        );
    }

    #[test]
    fn a_and_b_sides_consistent_for_bd() {
        // For the Bd reduction of a clique, A and B should largely agree.
        let g = clique_graph(&[0..15], 15);
        let (clusters, _) = shingle_clusters(&g, &fast_params());
        let top = &clusters[0];
        let a: std::collections::HashSet<u32> = top.a.iter().copied().collect();
        let b: std::collections::HashSet<u32> = top.b.iter().copied().collect();
        let inter = a.intersection(&b).count();
        let union = a.union(&b).count();
        assert!(inter as f64 / union as f64 > 0.8, "A≈B expected on a clique");
    }

    #[test]
    fn absorb_sums_fieldwise() {
        let mut total = ShingleStats::default();
        let x =
            ShingleStats { pass1_shingles: 1, distinct_s1: 2, pass2_shingles: 3, components: 4 };
        let y = ShingleStats {
            pass1_shingles: 10,
            distinct_s1: 20,
            pass2_shingles: 30,
            components: 40,
        };
        total.absorb(&x);
        total.absorb(&y);
        assert_eq!(
            total,
            ShingleStats {
                pass1_shingles: 11,
                distinct_s1: 22,
                pass2_shingles: 33,
                components: 44
            }
        );
    }
}
