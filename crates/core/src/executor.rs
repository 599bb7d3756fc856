//! The fused BGG→DSD executor (phases 3 + 4).
//!
//! Each component flows from CCD output through similarity-graph
//! construction straight into dense-subgraph detection as one unit of
//! work on one worker — no barrier between the phases, so DSD on early
//! components overlaps BGG on later ones — and the Shingle run inside it
//! is serial, as in the paper (§IV-D): parallelism is across components.
//!
//! Component costs are wildly skewed (one giant component plus a long tail
//! of small ones is the norm), so the queue is handed to the workers
//! **heaviest first**: the biggest job starts first instead of landing
//! last on an otherwise-drained pool. Each output goes to the caller's
//! sink the moment its component finishes, on the worker that ran it; what
//! the sinks return comes back in **queue order** whatever the scheduling.
//!
//! Where a component's graph comes from is the caller's closure
//! (`stream_graphs`): the pipeline builds it from what CCD already knows
//! ([`pfam_cluster::KnownPairs`]); [`stream_components`] mines each member
//! list's own suffix index. Either way a component's output is the plain
//! composition `component graph → bipartite reduction →
//! detect_dense_subgraphs`, which is what `tests/streaming_executor.rs`
//! holds it against.

use std::cmp::Reverse;
use std::time::Instant;

use rayon::prelude::*;

use pfam_cluster::{component_graph, BatchRecord, ComponentGraph};
use pfam_graph::BipartiteGraph;
use pfam_seq::{SeqId, SeqStore};
use pfam_shingle::{
    detect_dense_subgraphs, shingle_heap_bound, DenseSubgraphConfig, ReductionMode, ShingleStats,
};

use crate::config::{PipelineConfig, Reduction};
use crate::report::WorkerSeconds;

/// Everything one component produces on its way through the fused
/// BGG→DSD path.
#[derive(Debug, Clone, PartialEq)]
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

/// Phase 4 for one component: the `Bd` reduction of `graph` and
/// dense-subgraph detection. It reads the component graph alone, and holds
/// the most Shingle can take on it ([`shingle_heap_bound`]) reserved on
/// the run's budget as `dsd-shingle` while it runs; a refusal is
/// accounting-only, as for the deferred pairs: the subgraphs are needed.
fn dense_subgraphs(
    config: &PipelineConfig,
    graph: &ComponentGraph,
) -> (Vec<Vec<u32>>, ShingleStats) {
    let Reduction::GlobalSimilarity { tau } = config.reduction;
    let dsd_config = DenseSubgraphConfig {
        params: config.shingle,
        mode: ReductionMode::GlobalSimilarity { tau },
        min_size: config.min_subgraph_size,
        disjoint: true,
    };
    let bd = BipartiteGraph::duplicate_from(&graph.graph);
    let most = shingle_heap_bound(&bd, &config.shingle) as u64;
    let _held = config.cluster.budget.try_reserve("dsd-shingle", most).ok();
    detect_dense_subgraphs(&bd, &dsd_config)
}

/// Stream `n` components through the fused BGG→DSD path: `build(i)` makes
/// component `i`'s similarity graph, the graph flows straight into
/// dense-subgraph detection on the same worker, and the output goes to
/// `sink(i, output)` there as soon as it is done. Components are
/// dispatched in descending `weight(i)`; what `sink` returned comes back in
/// index order whatever the scheduling, with the seconds the workers spent
/// in BGG and DSD — one clock read per component and step.
pub(crate) fn stream_graphs<R: Send>(
    config: &PipelineConfig,
    n: usize,
    weight: impl Fn(usize) -> usize,
    build: impl Fn(usize) -> (ComponentGraph, BatchRecord) + Sync,
    sink: impl Fn(usize, ComponentOutput) -> R + Sync,
) -> (Vec<R>, WorkerSeconds) {
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (Reverse(weight(i)), i));
    let mut processed: Vec<(usize, R, (f64, f64))> = order
        .into_par_iter()
        .map(|i| {
            let start = Instant::now();
            let (graph, record) = build(i);
            let built = Instant::now();
            let (subgraphs, stats) = dense_subgraphs(config, &graph);
            let seconds = ((built - start).as_secs_f64(), built.elapsed().as_secs_f64());
            (i, sink(i, ComponentOutput { graph, record, subgraphs, stats }), seconds)
        })
        .collect();
    processed.sort_unstable_by_key(|&(i, ..)| i);
    let mut workers = WorkerSeconds::default();
    let outputs = processed
        .into_iter()
        .map(|(_, out, seconds)| {
            workers.add(seconds);
            out
        })
        .collect();
    (outputs, workers)
}

/// `stream_graphs` over bare member lists, largest first: each
/// component's graph is mined from a suffix index of its own
/// ([`component_graph`]).
pub fn stream_components(
    input: &dyn SeqStore,
    config: &PipelineConfig,
    queue: &[&[SeqId]],
) -> Vec<ComponentOutput> {
    let build = |i: usize| component_graph(input, queue[i], &config.cluster);
    stream_graphs(config, queue.len(), |i| queue[i].len(), build, |_, out| out).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfam_datagen::{DatasetConfig, SyntheticDataset};

    // Executor == the plain per-component composition on real CCD output
    // is `tests/streaming_executor.rs`.

    #[test]
    fn empty_queue() {
        let d = SyntheticDataset::generate(&DatasetConfig::tiny(9));
        let config = PipelineConfig::for_tests();
        assert!(stream_components(&d.set, &config, &[]).is_empty());
    }

    #[test]
    fn each_shingle_run_gives_its_reservation_back_and_runs_when_refused() {
        let d = SyntheticDataset::generate(&DatasetConfig::tiny(10));
        let config = PipelineConfig::for_tests();
        let components = pfam_cluster::run_ccd(&d.set, &config.cluster).components;
        let queue: Vec<&[SeqId]> = components.iter().map(|c| c.as_slice()).collect();
        let outs = stream_components(&d.set, &config, &queue);
        assert!(!outs.is_empty(), "components to run");
        assert_eq!(config.cluster.budget.used(), 0);
        // A budget that refuses every Shingle reservation changes nothing:
        // the refusal is accounting-only.
        let refusing = config.clone().with_mem_budget(1);
        for out in &outs {
            let (subgraphs, stats) = dense_subgraphs(&refusing, &out.graph);
            assert_eq!((&subgraphs, &stats), (&out.subgraphs, &out.stats));
            assert_eq!(refusing.cluster.budget.used(), 0);
        }
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
        for (q, out) in queue.iter().zip(&outs) {
            let mut sorted = q.to_vec();
            sorted.sort_unstable();
            assert_eq!(out.graph.members, sorted);
        }
    }
}
