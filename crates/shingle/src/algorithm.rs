//! The two-pass Shingle algorithm (Gibson, Kumar & Tomkins, VLDB 2005),
//! adapted to the paper's dense-bipartite-subgraph formulation, run as
//! sorts over flat record streams.
//!
//! * **Pass I** — an `(s₁, c₁)`-shingle set is computed for every left
//!   vertex. Each vertex emits one `(id, v, permutation)` record per
//!   distinct shingle; sorting the stream by `(id, v)` makes each run of
//!   equal ids one first-level shingle, and the run's vertices its
//!   out-links. Its elements are not kept: the run's first record names
//!   the vertex and permutation that recompute them at report time.
//! * **Pass II** — each first-level shingle becomes a vertex whose
//!   out-links are the left vertices that produced it; an `(s₂, c₂)`-
//!   shingle set is computed once per *distinct* vertex list, and a sorted
//!   `(second-level id, shingle)` stream groups the first-level shingles.
//! * **Reporting** — connected components of the (second-level shingle ↔
//!   first-level shingle) graph are enumerated with union-find. Component
//!   `A` = left vertices contributing a first-level shingle, `B` = union
//!   of the first-level shingles' constituent right vertices.
//!
//! A set dense in its universe (`|L|² ≥ s·n`) takes its min-wise elements
//! from a scan of the pass's [`PermutationOrder`], built before the pass
//! when its dense sets together save more steps than the order costs;
//! every other set ranks its elements.

use pfam_graph::{BipartiteGraph, UnionFind};

use crate::minwise::{HashFamily, PermutationOrder, ShingleKernel};

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
    /// First-level shingles generated: each left vertex's *distinct*
    /// shingles, summed (≤ c₁ per vertex; one for a vertex of degree ≤ s₁).
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

/// One pass's min-wise machinery over a universe `0..n`: the family, the
/// shingle size, the kernel's buffers and — when the pass's dense sets pay
/// for it — the universe's permutation order.
struct Pass {
    family: HashFamily,
    s: usize,
    n: usize,
    order: Option<PermutationOrder>,
    kernel: ShingleKernel,
}

impl Pass {
    /// A pass over sets of the lengths `lens`. Counted in steps per
    /// permutation, a dense set (`|L|² ≥ s·n`) scans about `s·n/|L|` of the
    /// order instead of ranking its `|L|` elements, and the order costs a
    /// sort of the universe, `n·log₂ n`: it is built only if the pass's
    /// dense sets together save more than that.
    fn new(c: usize, seed: u64, s: usize, n: usize, lens: impl Iterator<Item = usize>) -> Pass {
        let family = HashFamily::new(c, seed);
        let order = pays_for_order(s, n, lens).then(|| PermutationOrder::new(&family, n));
        Pass { family, s, n, order, kernel: ShingleKernel::default() }
    }

    /// The distinct shingles of `links` (sorted, distinct, in `0..n`) as
    /// `(id, first permutation)`, ascending by id, scanning the order when
    /// the pass has one and `links` is dense.
    fn shingles(&mut self, links: &[u32]) -> impl ExactSizeIterator<Item = (u64, u32)> + '_ {
        let order = self.order.as_ref().filter(|_| is_dense(links.len(), self.s, self.n));
        self.kernel.run(links, &self.family, self.s, order);
        self.kernel.shingles()
    }

    /// Append to `out` the sorted elements of `links`' shingle under each
    /// permutation of `perms`.
    fn elements(&mut self, links: &[u32], perms: impl Iterator<Item = u32>, out: &mut Vec<u32>) {
        let order = self.order.as_ref().filter(|_| is_dense(links.len(), self.s, self.n));
        self.kernel.select(links, &self.family, self.s, order, perms, out);
    }
}

/// Whether a pass over sets of the lengths `lens` builds its order table:
/// its dense sets save more steps than the table's sort costs.
fn pays_for_order(s: usize, n: usize, lens: impl Iterator<Item = usize>) -> bool {
    let saved: usize = lens.filter(|&l| is_dense(l, s, n)).map(|l| l - s * n / l).sum();
    saved > n * (usize::BITS - n.leading_zeros()) as usize
}

/// Whether a set of `len` elements in a universe of `n` finds its `s`
/// minima in no more order-scan steps than it has elements to rank.
fn is_dense(len: usize, s: usize, n: usize) -> bool {
    len > s && len * len >= s * n
}

/// The most distinct `(s, c)`-shingles a set of `len` elements can have:
/// none when empty, the whole set when `len ≤ s`, else one per
/// permutation but no more than the set has `s`-subsets.
fn max_shingles(len: usize, s: usize, c: usize) -> usize {
    if len == 0 {
        return 0;
    }
    if len <= s {
        return 1;
    }
    // C(len, k) with k = min(s, len − s), stopping once it reaches c.
    let mut subsets = 1usize;
    for i in 0..s.min(len - s) {
        subsets = subsets.saturating_mul(len - i) / (i + 1);
        if subsets >= c {
            return c;
        }
    }
    subsets
}

/// A shingle id as the two words a record stores it in.
fn words(id: u64) -> [u32; 2] {
    [(id >> 32) as u32, id as u32]
}

/// The id and the vertex of a record (pass I) or entry (pass II), the key
/// both streams sort by.
fn key<const N: usize>(r: &[u32; N]) -> (u64, u32) {
    ((r[0] as u64) << 32 | r[1] as u64, r[2])
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

    // ---- Pass I over left vertices (elements are right vertices). ----
    // One 16-byte record `[id, id, v, perm]` per vertex and distinct
    // shingle: `v` produced `id`, first under permutation `perm`. The
    // buffer is sized once, for the most records the degrees allow.
    let degrees = || (0..graph.n_left() as u32).map(|v| graph.out_links(v).len());
    let mut pass1 = Pass::new(params.c1, params.seed, params.s1, graph.n_right(), degrees());
    let most: usize = degrees().map(|d| max_shingles(d, params.s1, params.c1)).sum();
    let mut buffer: Vec<u32> = Vec::with_capacity(4 * most);
    for v in 0..graph.n_left() as u32 {
        for (id, perm) in pass1.shingles(graph.out_links(v)) {
            let [hi, lo] = words(id);
            buffer.extend_from_slice(&[hi, lo, v, perm]);
        }
    }
    let records: &mut [[u32; 4]] = buffer.as_chunks_mut().0;
    stats.pass1_shingles = records.len();
    records.sort_unstable_by_key(key);
    // First-level shingle k is the run records[runs[k]..runs[k + 1]]: its
    // vertices are verts[runs[k]..runs[k + 1]], its elements those of its
    // first record, `firsts[k]` — the lowest vertex under its first
    // permutation — recomputed when its cluster is reported.
    let opens = |i: usize| i == 0 || key(&records[i - 1]).0 != key(&records[i]).0;
    let n_s1 = (0..records.len()).filter(|&i| opens(i)).count();
    stats.distinct_s1 = n_s1;
    let mut runs: Vec<u32> = Vec::with_capacity(n_s1 + 1);
    let mut firsts: Vec<(u32, u32)> = Vec::with_capacity(n_s1);
    for (i, r) in records.iter().enumerate().filter(|&(i, _)| opens(i)) {
        runs.push(i as u32);
        firsts.push((r[2], r[3]));
    }
    runs.push(records.len() as u32);
    let verts: Vec<u32> = records.iter().map(|r| r[2]).collect();
    let vertices = |k: usize| &verts[runs[k] as usize..runs[k + 1] as usize];

    // ---- Pass II over first-level shingles (elements are left vertices),
    // once per distinct vertex list. ----
    let mut by_list: Vec<u32> = (0..n_s1 as u32).collect();
    by_list.sort_unstable_by(|&x, &y| vertices(x as usize).cmp(vertices(y as usize)));
    let same_list = || by_list.chunk_by(|&x, &y| vertices(x as usize) == vertices(y as usize));
    let list_lens = || same_list().map(|same| vertices(same[0] as usize).len());
    let seed2 = params.seed ^ PASS2_SEED_XOR;
    let mut pass2 = Pass::new(params.c2, seed2, params.s2, graph.n_left(), list_lens());
    let most_of = |list: &[u32]| max_shingles(list.len(), params.s2, params.c2);
    // The buffer again, now one 12-byte entry `[id, id, representative]`
    // per distinct list and second-level shingle. Should the records' room
    // run out, it grows once, to the most the lists left can add.
    buffer.clear();
    let mut room_left: usize = same_list().map(|same| most_of(vertices(same[0] as usize))).sum();
    let mut uf = UnionFind::new(n_s1);
    for same in same_list() {
        let list = vertices(same[0] as usize);
        let shingles = pass2.shingles(list);
        stats.pass2_shingles += shingles.len() * same.len();
        // Identical lists share every second-level shingle — if they have
        // one: with c₂ = 0 a long list has none, and its copies stay apart.
        if shingles.len() > 0 {
            for &k in &same[1..] {
                uf.union(same[0], k);
            }
            if buffer.capacity() - buffer.len() < 3 * shingles.len() {
                buffer.reserve_exact(3 * room_left);
            }
            for (id, _) in shingles {
                let [hi, lo] = words(id);
                buffer.extend_from_slice(&[hi, lo, same[0]]);
            }
        }
        room_left -= most_of(list);
    }
    drop((pass2, by_list));
    let entries: &mut [[u32; 3]] = buffer.as_chunks_mut().0;
    entries.sort_unstable_by_key(key);
    for sharing in entries.chunk_by(|x, y| key(x).0 == key(y).0) {
        for w in sharing.windows(2) {
            uf.union(w[0][2], w[1][2]);
        }
    }
    drop(buffer);

    // ---- Report: one (A, B) per union-find group. ----
    let groups = uf.groups();
    drop(uf);
    stats.components = groups.len();
    let mut clusters: Vec<BipartiteCluster> = groups
        .into_iter()
        .map(|mut members| {
            // By first vertex, so each vertex's shingles are recomputed
            // together: the sides are sorted below, the order is not seen.
            members.sort_unstable_by_key(|&k| firsts[k as usize]);
            let first_links = |k: u32| graph.out_links(firsts[k as usize].0);
            let a_len = members.iter().map(|&k| vertices(k as usize).len()).sum();
            let b_len = members.iter().map(|&k| first_links(k).len().min(params.s1)).sum();
            let (mut a, mut b) = (Vec::with_capacity(a_len), Vec::with_capacity(b_len));
            for same in members.chunk_by(|&x, &y| firsts[x as usize].0 == firsts[y as usize].0) {
                let perms = same.iter().map(|&k| firsts[k as usize].1);
                pass1.elements(first_links(same[0]), perms, &mut b);
            }
            for k in members {
                a.extend_from_slice(vertices(k as usize));
            }
            a.sort_unstable();
            a.dedup();
            b.sort_unstable();
            b.dedup();
            BipartiteCluster { a, b }
        })
        .collect();
    clusters.sort_by(|x, y| y.b.len().cmp(&x.b.len()).then(x.a.cmp(&y.a)));
    (clusters, stats)
}

/// The most heap bytes [`shingle_clusters`] can hold at once on `graph` at
/// `params`, the clusters it returns included: what a caller reserves
/// before the run. Every buffer of the layout is sized at its worst case —
/// `R` pass-I records (the most distinct shingles each vertex can have),
/// each a distinct first-level shingle; pass II's lists sharing those `R`
/// vertex slots so as to have the most second-level shingles, and every
/// distinct list a cluster of its own; both passes' order tables built; a
/// vector that grows by doubling at twice its length — and the largest of
/// the three moments (pass II, the union-find groups, the report) is
/// taken. Real graphs hold a fraction of it: their shingles repeat across
/// vertices.
pub fn shingle_heap_bound(graph: &BipartiteGraph, params: &ShingleParams) -> usize {
    let ShingleParams { s1, c1, s2, c2, .. } = *params;
    let (n_left, n_right) = (graph.n_left(), graph.n_right());
    let degrees = || (0..n_left as u32).map(|v| graph.out_links(v).len());
    let max_degree = degrees().max().unwrap_or(0);
    let r: usize = degrees().map(|d| max_shingles(d, s1, c1)).sum();
    // Lists of `l` slots have at most `max_shingles(l, s2, c2)` shingles
    // each, so `R` slots have at most `R` times the best such ratio.
    let second = (1..=n_left)
        .map(|l| r.saturating_mul(max_shingles(l, s2, c2)).div_ceil(l))
        .max()
        .unwrap_or(0);
    // One pass: its hash family; its order table and the sort building it;
    // the kernel's `s` lowest ranks, bitset, one shingle's elements and ids.
    let pass = |c: usize, s: usize, n: usize, order: bool| {
        16 * c
            + if order { 4 * c * n + 16 * n } else { 0 }
            + 16 * (2 * s).max(4)
            + 8 * n.div_ceil(64).max(4)
            + 4 * (2 * s).max(4)
            + 16 * (2 * c).max(4)
    };
    let pass1 = pass(c1, s1, n_right, pays_for_order(s1, n_right, degrees()));
    // From pass I's sort to the end: the vertex lists (4 B a record), the
    // run starts and each run's first record (12 B a first-level shingle).
    let lists = 16 * r + 4;
    // Pass II: the record buffer (16 B a record), reused for its stream (12
    // B an entry); the shingles sorted by list (4 B); the union-find (5 B);
    // pass II's machinery.
    let pass_two = (16 * r).max(12 * second) + 9 * r + pass(c2, s2, n_left, true);
    // Clusters: with c₂ > 0 every list has a second-level shingle, so
    // identical lists share a cluster, and of `R` slots at most `n_left`
    // distinct lists take one each, the rest two or more.
    let clusters = if c2 > 0 { r.min(n_left + r.saturating_sub(n_left) / 2) } else { r };
    // Grouping: the union-find, three scratch arrays and the groups (4 B a
    // member, 24 B a group).
    let grouping = 5 * r + 12 * r + 4 * r + 24 * clusters;
    // Report: the groups or the stable sort's buffer (48 B a cluster at
    // most) beside the clusters (48 B each) and their sides: every vertex
    // list once, and up to s₁ elements a first-level shingle.
    let report = (4 * r + 24 * clusters).max(48 * clusters)
        + 48 * clusters
        + 4 * r * (1 + s1.min(max_degree));
    pass1 + lists + pass_two.max(grouping).max(report)
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
        let g = BipartiteGraph::from_pairs_in(0, 0, &mut Vec::new());
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
        let a: std::collections::BTreeSet<u32> = top.a.iter().copied().collect();
        let b: std::collections::BTreeSet<u32> = top.b.iter().copied().collect();
        let inter = a.intersection(&b).count();
        let union = a.union(&b).count();
        assert!(inter as f64 / union as f64 > 0.8, "A≈B expected on a clique");
    }

    #[test]
    fn the_order_is_built_only_when_the_dense_sets_pay_for_it() {
        // One hub of degree 200 among 5 000 sparse vertices at s = 5: dense
        // (200² ≥ 5·5 000), but it saves 200 − 125 steps per permutation
        // against a 5 000 · 13-step sort, so it ranks.
        let hub = std::iter::once(200).chain(std::iter::repeat_n(10, 4_999));
        assert!(Pass::new(4, 1, 5, 5_000, hub).order.is_none());
        // A block of 230 vertices of degree 150 saves ≈ 143 steps each.
        assert!(Pass::new(4, 1, 5, 230, std::iter::repeat_n(150, 230)).order.is_some());
        // No dense set, no order.
        assert!(Pass::new(4, 1, 5, 230, std::iter::repeat_n(20, 230)).order.is_none());
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
