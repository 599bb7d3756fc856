//! The fused, streaming BGG→DSD executor (phases 3 + 4).
//!
//! Each component flows from CCD output through similarity-graph
//! construction straight into dense-subgraph detection as one unit of
//! work — no barrier between the phases, so DSD on early components
//! overlaps BGG on later ones. Two further levers on the straggler tail
//! and the allocator:
//!
//! * **Heaviest-first scheduling** — component costs are wildly skewed
//!   (one giant component plus a long tail of small ones is the norm), so
//!   the queue is handed to the workers in descending weight; the biggest
//!   job starts first instead of landing last on an otherwise-drained pool.
//! * **Per-worker arenas** — each worker owns one [`ExecArena`]: the BGG
//!   slice/edge/CSR-pair buffers, the `Bd` pair staging buffer, and the
//!   Shingle rank tables + selection scratch. All grow-only, so
//!   steady-state component processing performs no buffer allocation.
//!
//! Where a component's graph comes from is the caller's closure
//! ([`stream_graphs`]): the pipeline builds it from what CCD already knows
//! ([`pfam_cluster::KnownPairs`]); [`stream_components`] mines each member
//! list's own suffix index. Outputs come back in **queue order**, and the
//! arena functions equal the allocating ones, so the streaming executor is
//! bit-identical to [`barrier_components`], the phase-at-a-time reference
//! of the identity tests and the bench.

use std::cell::RefCell;
use std::cmp::Reverse;

use rayon::prelude::*;

use pfam_cluster::{
    component_graph, component_graph_with, BatchRecord, BggScratch, ComponentGraph,
};
use pfam_graph::BipartiteGraph;
use pfam_seq::{materialize_subset, SeqId, SeqStore};
use pfam_shingle::{
    detect_dense_subgraphs_with, DenseSubgraphConfig, ReductionMode, ShingleArena, ShingleStats,
};

use crate::config::{PipelineConfig, Reduction};

/// Everything one component produces on its way through the fused
/// BGG→DSD path.
#[derive(Debug)]
pub struct ComponentOutput {
    /// The component's similarity graph (phase-3 output).
    pub graph: ComponentGraph,
    /// Alignment work the graph construction performed.
    pub record: BatchRecord,
    /// Dense subgraphs as local-index lists (phase-4 output).
    pub subgraphs: Vec<Vec<u32>>,
    /// Shingle work counters for this component.
    pub stats: ShingleStats,
}

/// One worker's reusable buffers for the whole fused path.
#[derive(Default)]
struct ExecArena {
    /// BGG verify slice, accepted edges, CSR staging.
    bgg: BggScratch,
    /// `Bd` duplication pair staging.
    bd_pairs: Vec<(u32, u32)>,
    /// Shingle rank tables (both passes) + min-wise selection scratch.
    shingle: ShingleArena,
}

thread_local! {
    /// Per-worker arena: every OS thread reuses its buffers across all
    /// components it draws from the work queue.
    static ARENA: RefCell<ExecArena> = RefCell::new(ExecArena::default());
}

/// Phase 4 for one component: bipartite reduction of `graph` and
/// dense-subgraph detection, through `arena`.
fn dense_subgraphs(
    input: &dyn SeqStore,
    config: &PipelineConfig,
    graph: &ComponentGraph,
    arena: &mut ExecArena,
) -> (Vec<Vec<u32>>, ShingleStats) {
    // Point this worker's rank tables at the pipeline's budget (a shared
    // handle — cloning only bumps a refcount).
    arena.shingle.set_budget(config.cluster.mem.budget.clone());
    let (mode, bipartite) = match config.reduction {
        Reduction::GlobalSimilarity { tau } => (
            ReductionMode::GlobalSimilarity { tau },
            BipartiteGraph::duplicate_from_with(&graph.graph, &mut arena.bd_pairs),
        ),
        Reduction::DomainBased { w } => (
            ReductionMode::DomainBased,
            BipartiteGraph::word_based(&materialize_subset(input, &graph.members), None, w),
        ),
    };
    let dsd_config = DenseSubgraphConfig {
        params: config.shingle,
        mode,
        min_size: config.min_subgraph_size,
        disjoint: true,
    };
    detect_dense_subgraphs_with(&bipartite, &dsd_config, &mut arena.shingle)
}

/// Stream `n` components through the fused BGG→DSD path: `build(i, ..)`
/// makes component `i`'s similarity graph on the worker's scratch and the
/// graph flows straight into dense-subgraph detection on the same arena.
/// Components are dispatched in descending `weight(i)`; the outputs come
/// back in index order whatever the scheduling.
pub fn stream_graphs(
    input: &dyn SeqStore,
    config: &PipelineConfig,
    n: usize,
    weight: impl Fn(usize) -> usize,
    build: impl Fn(usize, &mut BggScratch) -> (ComponentGraph, BatchRecord) + Sync,
) -> Vec<ComponentOutput> {
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (Reverse(weight(i)), i));
    let mut processed: Vec<(usize, ComponentOutput)> = order
        .into_par_iter()
        .map(|i| {
            ARENA.with(|arena| {
                let arena = &mut *arena.borrow_mut();
                let (graph, record) = build(i, &mut arena.bgg);
                let (subgraphs, stats) = dense_subgraphs(input, config, &graph, arena);
                (i, ComponentOutput { graph, record, subgraphs, stats })
            })
        })
        .collect();
    processed.sort_unstable_by_key(|&(i, _)| i);
    processed.into_iter().map(|(_, out)| out).collect()
}

/// [`stream_graphs`] over bare member lists, largest first: each
/// component's graph is mined from a suffix index of its own
/// ([`component_graph_with`]).
pub fn stream_components(
    input: &dyn SeqStore,
    config: &PipelineConfig,
    queue: &[&[SeqId]],
) -> Vec<ComponentOutput> {
    let build = |i: usize, scratch: &mut BggScratch| {
        component_graph_with(input, queue[i], &config.cluster, scratch)
    };
    stream_graphs(input, config, queue.len(), |i| queue[i].len(), build)
}

/// The pre-streaming reference data flow: build **all** component graphs
/// behind a barrier, then run DSD over them — fresh buffers for every
/// component, no reordering. Retained for the executor-identity suites
/// and `bgg_dsd_bench`.
pub fn barrier_components(
    input: &dyn SeqStore,
    config: &PipelineConfig,
    queue: &[&[SeqId]],
) -> Vec<ComponentOutput> {
    let built: Vec<(ComponentGraph, BatchRecord)> =
        queue.par_iter().map(|members| component_graph(input, members, &config.cluster)).collect();
    let detected: Vec<(Vec<Vec<u32>>, ShingleStats)> = built
        .par_iter()
        .map(|(graph, _)| dense_subgraphs(input, config, graph, &mut ExecArena::default()))
        .collect();
    let output =
        |((graph, record), (subgraphs, stats))| ComponentOutput { graph, record, subgraphs, stats };
    built.into_iter().zip(detected).map(output).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfam_datagen::{DatasetConfig, SyntheticDataset};

    // Streaming == barrier on real CCD output, under both reductions, is
    // `tests/streaming_executor.rs`.

    #[test]
    fn empty_queue() {
        let d = SyntheticDataset::generate(&DatasetConfig::tiny(9));
        let config = PipelineConfig::for_tests();
        assert!(stream_components(&d.set, &config, &[]).is_empty());
        assert!(barrier_components(&d.set, &config, &[]).is_empty());
    }

    #[test]
    fn outputs_come_back_in_queue_order() {
        // Queue deliberately ordered smallest-first: scheduling reorders,
        // the executor must restore.
        let d = SyntheticDataset::generate(&DatasetConfig::tiny(10));
        let config = PipelineConfig::for_tests();
        let mut components = pfam_cluster::run_ccd(&d.set, &config.cluster).components;
        components.sort_by_key(|c| c.len());
        let queue: Vec<&[SeqId]> = components.iter().map(|c| c.as_slice()).collect();
        let outs = stream_components(&d.set, &config, &queue);
        assert_eq!(outs.len(), queue.len());
        for ((q, out), reference) in
            queue.iter().zip(&outs).zip(barrier_components(&d.set, &config, &queue))
        {
            let mut sorted = q.to_vec();
            sorted.sort_unstable();
            assert_eq!(out.graph.members, sorted);
            assert_eq!(
                (&out.graph.graph, &out.record),
                (&reference.graph.graph, &reference.record)
            );
            assert_eq!((&out.subgraphs, &out.stats), (&reference.subgraphs, &reference.stats));
        }
    }
}
