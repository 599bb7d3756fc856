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

use std::cell::RefCell;
use std::collections::HashMap;

use rayon::prelude::*;

use pfam_graph::{BipartiteGraph, UnionFind};
use pfam_seq::{MemoryBudget, Reservation};

use crate::minwise::{
    shingle_set_from_table, shingle_set_with, HashFamily, RankTable, Shingle, ShingleScratch,
};

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
    /// shared by the streaming, barrier, and checkpointed pipelines.
    pub fn absorb(&mut self, other: &ShingleStats) {
        self.pass1_shingles += other.pass1_shingles;
        self.distinct_s1 += other.distinct_s1;
        self.pass2_shingles += other.pass2_shingles;
        self.components += other.components;
    }
}

/// Pass II derives its permutations from an independent seed stream.
const PASS2_SEED_XOR: u64 = 0xABCD_EF01_2345_6789;

/// Default rank-table ceiling when no memory budget is configured:
/// 64 MiB, the historical 2²³-entry cap. A *limited* budget replaces this
/// constant entirely — the shared [`MemoryBudget`] ledger (the same one
/// the index plane reserves against) decides whether a table fits, so
/// `--mem-budget` governs rank tables too.
const DEFAULT_TABLE_BYTES: u64 = 64 << 20;

/// Take the rank-table path only if the table's bytes fit the memory
/// ledger (or, unbudgeted, the default ceiling); the returned reservation
/// is held while the table is live for the pass. `None` sends the pass
/// down the per-set batched-hashing path, which is bit-identical in
/// output.
fn try_table(budget: &MemoryBudget, c: usize, n: usize) -> Option<Reservation> {
    // Entry-count overflow means the table is unrepresentable regardless
    // of any budget.
    c.checked_mul(n)?;
    let bytes = RankTable::bytes_for(c, n);
    if !budget.is_limited() && bytes > DEFAULT_TABLE_BYTES {
        return None;
    }
    budget.try_reserve("rank-table", bytes).ok()
}

thread_local! {
    /// Per-worker scratch for the parallel passes: each OS thread reuses
    /// its buffers across every item it draws from the work queue.
    static SCRATCH: RefCell<ShingleScratch> = RefCell::new(ShingleScratch::new());
}

/// Reusable per-worker state for serial, repeated Shingle runs — the
/// arena the streaming BGG→DSD executor holds per worker so steady-state
/// component processing allocates nothing: the batched-rank scratch plus
/// one rank table per pass, all grow-only.
#[derive(Debug)]
pub struct ShingleArena {
    budget: MemoryBudget,
    scratch: ShingleScratch,
    table1: RankTable,
    table2: RankTable,
}

impl ShingleArena {
    /// Empty arena with an unlimited budget.
    pub fn new() -> ShingleArena {
        ShingleArena {
            budget: MemoryBudget::unlimited(),
            scratch: ShingleScratch::new(),
            table1: RankTable::new(),
            table2: RankTable::new(),
        }
    }

    /// Register this arena's rank tables against `budget`: each pass
    /// reserves its table's bytes before building it and falls back to
    /// per-set batched hashing — bit-identical output — when the
    /// reservation is refused. What a per-worker executor calls to point
    /// its thread-local arena at the pipeline's budget (a cheap handle
    /// clone; the accounting is shared).
    pub fn set_budget(&mut self, budget: MemoryBudget) {
        self.budget = budget;
    }
}

impl Default for ShingleArena {
    fn default() -> Self {
        ShingleArena::new()
    }
}

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

/// Run the two-pass Shingle algorithm on `graph`.
///
/// Returns clusters with `|A| ≥ 1` and `|B| ≥ 1`, ordered by decreasing
/// `|B|`, plus work counters. When the `c × universe` rank table fits the
/// memory ceiling each `(permutation, element)` pair is hashed once per
/// pass and gathered thereafter.
pub fn shingle_clusters(
    graph: &BipartiteGraph,
    params: &ShingleParams,
) -> (Vec<BipartiteCluster>, ShingleStats) {
    shingle_clusters_budgeted(graph, params, &MemoryBudget::unlimited())
}

/// [`shingle_clusters`] with the rank tables registered against `budget`:
/// each pass reserves its table's bytes for the duration of the pass and
/// falls back to per-set batched hashing when refused. Output is
/// bit-identical to the unbudgeted run regardless of which path each pass
/// takes.
pub fn shingle_clusters_budgeted(
    graph: &BipartiteGraph,
    params: &ShingleParams,
    budget: &MemoryBudget,
) -> (Vec<BipartiteCluster>, ShingleStats) {
    let mut stats = ShingleStats::default();

    // ---- Pass I (parallel over left vertices). ----
    let fam1 = HashFamily::new(params.c1, params.seed);
    let per_vertex: Vec<Vec<Shingle>> =
        if let Some(_held) = try_table(budget, params.c1, graph.n_right()) {
            let mut table = RankTable::new();
            table.rebuild(&fam1, graph.n_right());
            let table = &table;
            (0..graph.n_left() as u32)
                .into_par_iter()
                .map(|v| {
                    SCRATCH.with(|s| {
                        shingle_set_from_table(
                            graph.out_links(v),
                            table,
                            params.s1,
                            &mut s.borrow_mut(),
                        )
                    })
                })
                .collect()
        } else {
            (0..graph.n_left() as u32)
                .into_par_iter()
                .map(|v| {
                    SCRATCH.with(|s| {
                        shingle_set_with(graph.out_links(v), &fam1, params.s1, &mut s.borrow_mut())
                    })
                })
                .collect()
        };
    let s1_list = group_pass1(per_vertex, &mut stats);

    // ---- Pass II over first-level shingles (elements are left vertices). ----
    let fam2 = HashFamily::new(params.c2, params.seed ^ PASS2_SEED_XOR);
    let second: Vec<Vec<Shingle>> = if let Some(_held) =
        try_table(budget, params.c2, graph.n_left())
    {
        let mut table = RankTable::new();
        table.rebuild(&fam2, graph.n_left());
        let table = &table;
        s1_list
            .par_iter()
            .map(|(_, _, vertices)| {
                SCRATCH.with(|s| {
                    shingle_set_from_table(vertices, table, params.s2, &mut s.borrow_mut())
                })
            })
            .collect()
    } else {
        s1_list
            .par_iter()
            .map(|(_, _, vertices)| {
                SCRATCH.with(|s| shingle_set_with(vertices, &fam2, params.s2, &mut s.borrow_mut()))
            })
            .collect()
    };

    let clusters = report_clusters(&s1_list, &second, &mut stats);
    (clusters, stats)
}

/// [`shingle_clusters`] as a serial pass over one worker's [`ShingleArena`]
/// — bit-identical output, zero steady-state allocation in the rank path.
///
/// This is the form the streaming BGG→DSD executor calls: outer
/// parallelism is over components, so the per-component Shingle run stays
/// on one worker and reuses that worker's tables and scratch.
pub fn shingle_clusters_with(
    graph: &BipartiteGraph,
    params: &ShingleParams,
    arena: &mut ShingleArena,
) -> (Vec<BipartiteCluster>, ShingleStats) {
    let mut stats = ShingleStats::default();
    let ShingleArena { budget, scratch, table1, table2 } = arena;

    // Each pass reserves its table's bytes while the table is in use; the
    // arena's grow-only capacity after the run is bounded by the largest
    // table a reservation ever approved.
    // ---- Pass I (serial over left vertices). ----
    let fam1 = HashFamily::new(params.c1, params.seed);
    let per_vertex: Vec<Vec<Shingle>> =
        if let Some(_held) = try_table(budget, params.c1, graph.n_right()) {
            table1.rebuild(&fam1, graph.n_right());
            (0..graph.n_left() as u32)
                .map(|v| shingle_set_from_table(graph.out_links(v), table1, params.s1, scratch))
                .collect()
        } else {
            (0..graph.n_left() as u32)
                .map(|v| shingle_set_with(graph.out_links(v), &fam1, params.s1, scratch))
                .collect()
        };
    let s1_list = group_pass1(per_vertex, &mut stats);

    // ---- Pass II over first-level shingles. ----
    let fam2 = HashFamily::new(params.c2, params.seed ^ PASS2_SEED_XOR);
    let second: Vec<Vec<Shingle>> = if let Some(_held) =
        try_table(budget, params.c2, graph.n_left())
    {
        table2.rebuild(&fam2, graph.n_left());
        s1_list
            .iter()
            .map(|(_, _, vertices)| shingle_set_from_table(vertices, table2, params.s2, scratch))
            .collect()
    } else {
        s1_list
            .iter()
            .map(|(_, _, vertices)| shingle_set_with(vertices, &fam2, params.s2, scratch))
            .collect()
    };

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
    fn arena_path_is_bit_identical_to_parallel_path() {
        let p = fast_params();
        let graphs = [
            clique_graph(&[0..12], 12),
            clique_graph(&[0..10, 10..20], 20),
            clique_graph(&[0..5], 10),
            BipartiteGraph::from_edges(0, 0, &[]),
        ];
        let mut arena = ShingleArena::new();
        for g in &graphs {
            let (want_clusters, want_stats) = shingle_clusters(g, &p);
            // Run twice through the same arena: reuse must not leak
            // state between components.
            for _ in 0..2 {
                let (got_clusters, got_stats) = shingle_clusters_with(g, &p, &mut arena);
                assert_eq!(got_clusters, want_clusters);
                assert_eq!(got_stats, want_stats);
            }
        }
    }

    #[test]
    fn arena_path_identical_when_table_does_not_fit() {
        // c1 large enough that c1 × n_right overflows the table ceiling is
        // impractical to build; instead exercise the fallback branch by
        // comparing against params whose table trivially fits — both must
        // equal the scalar reference, hence each other.
        let g = clique_graph(&[0..9], 9);
        let p = ShingleParams { s1: 2, c1: 30, s2: 1, c2: 10, seed: 3 };
        let mut arena = ShingleArena::new();
        let (a, sa) = shingle_clusters_with(&g, &p, &mut arena);
        let (b, sb) = shingle_clusters(&g, &p);
        assert_eq!(a, b);
        assert_eq!(sa, sb);
    }

    #[test]
    fn binding_budget_is_bit_identical() {
        // A budget too small for any rank table forces the per-set
        // batched-hashing path; clusters and stats must not change.
        let p = fast_params();
        let graphs = [
            clique_graph(&[0..12], 12),
            clique_graph(&[0..10, 10..20], 20),
            clique_graph(&[0..5], 10),
        ];
        for g in &graphs {
            let (want_clusters, want_stats) = shingle_clusters(g, &p);
            let tight = MemoryBudget::limited(16);
            let (got_clusters, got_stats) = shingle_clusters_budgeted(g, &p, &tight);
            assert_eq!(got_clusters, want_clusters);
            assert_eq!(got_stats, want_stats);
            assert_eq!(tight.used(), 0, "refused reservations must release");

            let mut arena = ShingleArena::new();
            arena.set_budget(MemoryBudget::limited(16));
            let (arena_clusters, arena_stats) = shingle_clusters_with(g, &p, &mut arena);
            assert_eq!(arena_clusters, want_clusters);
            assert_eq!(arena_stats, want_stats);
        }
    }

    #[test]
    fn table_routing_follows_the_ledger() {
        // Unbudgeted runs keep the historical 64 MiB default ceiling.
        let unlimited = MemoryBudget::unlimited();
        assert!(try_table(&unlimited, 8, 1000).is_some());
        let big = (1usize << 23) + 1; // bytes_for(1, big) ≈ 100 MB > 64 MiB
        assert!(RankTable::bytes_for(1, big) > DEFAULT_TABLE_BYTES);
        assert!(try_table(&unlimited, 1, big).is_none(), "default ceiling binds unbudgeted");

        // A limited budget replaces the ceiling with the shared ledger:
        // room above 64 MiB admits the table the default refuses...
        let roomy = MemoryBudget::limited(256 << 20);
        let held = try_table(&roomy, 1, big);
        assert!(held.is_some(), "the ledger, not the 64 MiB constant, decides");
        assert!(roomy.used() >= RankTable::bytes_for(1, big));
        drop(held);
        assert_eq!(roomy.used(), 0, "reservation releases on drop");

        // ...and a binding ledger refuses what the default would allow.
        let tight = MemoryBudget::limited(1 << 10);
        assert!(try_table(&tight, 8, 1000).is_none());

        // Entry-count overflow is unrepresentable regardless of budget.
        assert!(try_table(&unlimited, usize::MAX, 2).is_none());
    }

    #[test]
    fn generous_budget_accounts_table_bytes() {
        let p = fast_params();
        let g = clique_graph(&[0..12], 12);
        let budget = MemoryBudget::limited(64 << 20);
        let (clusters, _) = shingle_clusters_budgeted(&g, &p, &budget);
        assert!(!clusters.is_empty());
        assert_eq!(budget.used(), 0, "pass reservations are released");
        assert!(
            budget.peak() >= RankTable::bytes_for(p.c1, g.n_right()),
            "pass-I table must have registered its bytes"
        );
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
