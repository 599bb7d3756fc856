//! The distributed Shingle as a real SPMD message-passing program.
//!
//! [`crate::parallel`] models the distributed algorithm with explicit
//! shuffle arrays; this module is the same algorithm written against the
//! `pfam-mpi` runtime, the way it would run on the paper's machine:
//!
//! 1. each rank computes pass-I shingles for its stripe of left vertices,
//! 2. an **all-to-all** exchange routes every tuple to the rank owning its
//!    shingle (hash partitioning),
//! 3. ranks group their shingles and run pass II locally,
//! 4. a second all-to-all routes second-level shingles; owners emit merge
//!    edges, which a gather at rank 0 feeds into the union-find reporting.
//!
//! Results are identical to the serial algorithm (tested).
//!
//! The collectives are all-or-nothing, so this engine does not recover
//! *in-job* — but it does not abort the process on a communicator
//! error either: any [`pfam_mpi::CommError`] **degrades to the serial
//! algorithm**, which computes the identical clustering on one node.
//! Shingle sits at the tail of the pipeline; hours of upstream clustering
//! should never be thrown away because a rank died during reporting.

use std::sync::Arc;

use pfam_graph::{BipartiteGraph, UnionFind};
use pfam_mpi::{run_spmd_faulty, CommError, FaultInjector, NoFaults};

use crate::algorithm::{shingle_clusters, BipartiteCluster, ShingleParams};
use crate::minwise::{shingle_set_with, HashFamily, Shingle, ShingleScratch};

/// Pass-I tuple: (shingle id, elements, producing vertex).
type Tuple = (u64, Vec<u32>, u32);

/// Run the two-pass Shingle algorithm as an SPMD job on `n_ranks` ranks.
/// Every rank participates in the compute; rank 0 performs the final
/// union-find reporting and returns the clusters. Equivalent to
/// [`shingle_clusters_spmd_faulty`] with no injected faults.
pub fn shingle_clusters_spmd(
    graph: &BipartiteGraph,
    params: &ShingleParams,
    n_ranks: usize,
) -> Vec<BipartiteCluster> {
    shingle_clusters_spmd_faulty(graph, params, n_ranks, Arc::new(NoFaults))
}

/// [`shingle_clusters_spmd`] under a fault injector. Any communicator
/// failure falls back to the serial algorithm, so the returned clustering
/// is identical to the healthy run.
pub fn shingle_clusters_spmd_faulty(
    graph: &BipartiteGraph,
    params: &ShingleParams,
    n_ranks: usize,
    injector: Arc<dyn FaultInjector>,
) -> Vec<BipartiteCluster> {
    assert!(n_ranks >= 1, "need at least one rank");
    if let Ok(clusters) = try_spmd(graph, params, n_ranks, injector) {
        return clusters;
    }
    // Serial fallback: same algorithm, same clustering, one node. Match
    // the SPMD report ordering (largest element set first).
    let (mut clusters, _) = shingle_clusters(graph, params);
    clusters.sort_by(|x, y| y.b.len().cmp(&x.b.len()).then(x.a.cmp(&y.a)));
    clusters
}

/// The SPMD run: every communicator error is propagated (never
/// panicked) so the caller can fall back.
fn try_spmd(
    graph: &BipartiteGraph,
    params: &ShingleParams,
    n_ranks: usize,
    injector: Arc<dyn FaultInjector>,
) -> Result<Vec<BipartiteCluster>, CommError> {
    let p = n_ranks;
    let owner = |id: u64| (id % p as u64) as usize;

    type RankReturn = Result<Option<Vec<BipartiteCluster>>, CommError>;
    let results = run_spmd_faulty(p, injector, |comm| -> RankReturn {
        let rank = comm.rank();
        // Each SPMD rank is one worker: one reusable batched-rank scratch.
        let mut scratch = ShingleScratch::new();

        // ---- Pass I over this rank's vertex stripe. ----
        let fam1 = HashFamily::new(params.c1, params.seed);
        let mut outgoing: Vec<Vec<Tuple>> = vec![Vec::new(); p];
        let mut v = rank as u32;
        while (v as usize) < graph.n_left() {
            let shingles = shingle_set_with(graph.out_links(v), &fam1, params.s1, &mut scratch);
            for Shingle { id, elements } in shingles {
                outgoing[owner(id)].push((id, elements, v));
            }
            v += p as u32;
        }

        // ---- Shuffle tuples to shingle owners. ----
        let incoming = comm.all_to_all(outgoing)?;

        // ---- Group + pass II locally. ----
        use std::collections::HashMap;
        let mut groups: HashMap<u64, (Vec<u32>, Vec<u32>)> = HashMap::new();
        for (id, elements, vertex) in incoming.into_iter().flatten() {
            let e = groups.entry(id).or_insert_with(|| (elements, Vec::new()));
            e.1.push(vertex);
        }
        let mut shingles: Vec<(u64, Vec<u32>, Vec<u32>)> = groups
            .into_iter()
            .map(|(id, (elements, mut vs))| {
                vs.sort_unstable();
                vs.dedup();
                (id, elements, vs)
            })
            .collect();
        shingles.sort_unstable_by_key(|&(id, _, _)| id);

        let fam2 = HashFamily::new(params.c2, params.seed ^ 0xABCD_EF01_2345_6789);
        let mut second_out: Vec<Vec<(u64, u64)>> = vec![Vec::new(); p];
        for (id, _, vs) in &shingles {
            for sh in shingle_set_with(vs, &fam2, params.s2, &mut scratch) {
                second_out[owner(sh.id)].push((sh.id, *id));
            }
        }

        // ---- Shuffle second-level tuples; owners emit merge edges. ----
        let mut second_in: Vec<(u64, u64)> =
            comm.all_to_all(second_out)?.into_iter().flatten().collect();
        second_in.sort_unstable();
        let mut edges: Vec<(u64, u64)> = Vec::new();
        let mut i = 0;
        while i < second_in.len() {
            let mut j = i + 1;
            while j < second_in.len() && second_in[j].0 == second_in[i].0 {
                edges.push((second_in[i].1, second_in[j].1));
                j += 1;
            }
            i = j;
        }

        // ---- Gather shingles + edges at rank 0 for reporting. ----
        let gathered_shingles = comm.gather(0, shingles)?;
        let gathered_edges = comm.gather(0, edges)?;
        let (Some(all_shingle_lists), Some(all_edge_lists)) = (gathered_shingles, gathered_edges)
        else {
            return Ok(None);
        };

        let mut all: Vec<(u64, Vec<u32>, Vec<u32>)> =
            all_shingle_lists.into_iter().flatten().collect();
        all.sort_unstable_by_key(|&(id, _, _)| id);
        let index_of = |id: u64| -> u32 {
            all.binary_search_by_key(&id, |&(i, _, _)| i).expect("edge references an owned shingle")
                as u32
        };
        let mut uf = UnionFind::new(all.len());
        for (a, b) in all_edge_lists.into_iter().flatten() {
            uf.union(index_of(a), index_of(b));
        }
        let mut clusters: Vec<BipartiteCluster> = uf
            .groups()
            .into_iter()
            .map(|ids| {
                let mut a = Vec::new();
                let mut b = Vec::new();
                for sid in ids {
                    let (_, elements, vertices) = &all[sid as usize];
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
        Ok(Some(clusters))
    });
    match results.into_iter().next() {
        Some(Ok(Ok(Some(clusters)))) => Ok(clusters),
        Some(Ok(Ok(None))) => Err(CommError::Protocol("rank 0 produced no clusters")),
        Some(Ok(Err(e))) => Err(e),
        Some(Err(_)) | None => Err(CommError::Disconnected),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::shingle_clusters;
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

    fn params() -> ShingleParams {
        ShingleParams { s1: 2, c1: 40, s2: 1, c2: 20, seed: 99 }
    }

    #[test]
    fn spmd_matches_serial() {
        let g = clique_graph(&[0..10, 10..22, 22..30], 30);
        let (serial, _) = shingle_clusters(&g, &params());
        let serial_set: std::collections::HashSet<(Vec<u32>, Vec<u32>)> =
            serial.into_iter().map(|c| (c.a, c.b)).collect();
        for ranks in [1usize, 2, 4, 7] {
            let spmd = shingle_clusters_spmd(&g, &params(), ranks);
            let spmd_set: std::collections::HashSet<(Vec<u32>, Vec<u32>)> =
                spmd.into_iter().map(|c| (c.a, c.b)).collect();
            assert_eq!(spmd_set, serial_set, "ranks = {ranks}");
        }
    }

    #[test]
    fn spmd_matches_shuffle_model() {
        let g = clique_graph(&[0..14, 14..20], 20);
        let (model, _) = crate::parallel::shingle_clusters_distributed(&g, &params(), 3);
        let spmd = shingle_clusters_spmd(&g, &params(), 3);
        let a: std::collections::HashSet<(Vec<u32>, Vec<u32>)> =
            model.into_iter().map(|c| (c.a, c.b)).collect();
        let b: std::collections::HashSet<(Vec<u32>, Vec<u32>)> =
            spmd.into_iter().map(|c| (c.a, c.b)).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_graph() {
        let g = BipartiteGraph::from_edges(0, 0, &[]);
        assert!(shingle_clusters_spmd(&g, &params(), 3).is_empty());
    }

    /// Kill `rank` at its `event`-th operation — the degrade trigger.
    struct KillAt {
        rank: usize,
        event: u64,
    }

    impl FaultInjector for KillAt {
        fn kill_now(&self, rank: usize, event: u64) -> bool {
            rank == self.rank && event >= self.event
        }
    }

    #[test]
    fn rank_death_degrades_to_serial_instead_of_aborting() {
        let g = clique_graph(&[0..10, 10..22, 22..30], 30);
        let (serial, _) = shingle_clusters(&g, &params());
        let serial_set: std::collections::HashSet<(Vec<u32>, Vec<u32>)> =
            serial.into_iter().map(|c| (c.a, c.b)).collect();
        // Kill a compute rank mid-shuffle and, separately, rank 0 itself:
        // both used to panic the whole process; now the clustering still
        // comes back, identical to serial.
        for (rank, event) in [(2usize, 1u64), (0, 2)] {
            let faulty =
                shingle_clusters_spmd_faulty(&g, &params(), 4, Arc::new(KillAt { rank, event }));
            let faulty_set: std::collections::HashSet<(Vec<u32>, Vec<u32>)> =
                faulty.into_iter().map(|c| (c.a, c.b)).collect();
            assert_eq!(faulty_set, serial_set, "killed rank {rank} at event {event}");
        }
    }
}
