//! The four-phase pipeline of Figure 2: redundancy removal → connected
//! components → bipartite graph generation → dense subgraph detection.
//!
//! Phases 3 and 4 run fused: the component queue flows through the
//! streaming executor ([`crate::executor`]) with no barrier between graph
//! construction and dense-subgraph detection
//! ([`crate::executor::barrier_components`] keeps the phase-at-a-time
//! data flow as the identity reference).
//!
//! A pair's verdict is a fact of the run, not of a phase: RR's fills leave
//! the overlap answers in a [`PairLedger`], CCD keeps the pairs its closure
//! filter drops, and in exact mode the back half builds each component's
//! graph from CCD's edges plus the verdicts of those deferred pairs — the
//! ledger's, or one fill ([`KnownPairs`]). No pair is aligned twice and no
//! per-component suffix index is built.

use std::path::PathBuf;
use std::sync::Arc;

use pfam_cluster::{
    check_index_budget, run_ccd_resumable, run_front_half, with_front_half, CcdCursor, CcdResult,
    ComponentGraph, KnownPairs, PairLedger, PhaseTrace, SketchMode,
};
use pfam_graph::{subgraph_density, CsrGraph, SubgraphDensity};
use pfam_seq::{BudgetError, SeqId, SeqStore, SubsetStore};
use pfam_shingle::ShingleStats;

use crate::checkpoint::{
    read_checkpoint, write_checkpoint, CcdState, CkptError, DsdComponent, DsdState, Phase, RrState,
};
use crate::config::PipelineConfig;
use crate::executor::{stream_components, stream_graphs, ComponentOutput};

/// One reported protein family (dense subgraph).
#[derive(Debug, Clone, PartialEq)]
pub struct DenseSubgraph {
    /// Members as ids into the *original* input set, ascending.
    pub members: Vec<SeqId>,
    /// Index of the connected component it came from.
    pub component: usize,
    /// Induced degree/density within its component graph.
    pub density: SubgraphDensity,
}

/// Everything the pipeline produces.
#[derive(Debug)]
pub struct PipelineResult {
    /// Number of input sequences.
    pub n_input: usize,
    /// Non-redundant sequence ids (original numbering).
    pub non_redundant: Vec<SeqId>,
    /// Connected components over the non-redundant set (original ids).
    pub components: Vec<Vec<SeqId>>,
    /// Per-component similarity graphs (only components that reached the
    /// dense-subgraph stage).
    pub component_graphs: Vec<ComponentGraph>,
    /// Reported dense subgraphs (original ids).
    pub dense_subgraphs: Vec<DenseSubgraph>,
    /// Work traces per phase: (RR, CCD, BGG).
    pub traces: (PhaseTrace, PhaseTrace, PhaseTrace),
    /// Aggregated shingle work counters.
    pub shingle_stats: ShingleStats,
    /// RR fills the pair ledger could not hold (its budget reservation was
    /// refused): each may have been filled once more by a later phase.
    /// Zero means no pair of the run was aligned twice.
    pub ledger_dropped: u64,
}

impl PipelineResult {
    /// Components with at least `min` members.
    pub fn components_of_size(&self, min: usize) -> Vec<&Vec<SeqId>> {
        self.components.iter().filter(|c| c.len() >= min).collect()
    }

    /// Total sequences covered by dense subgraphs.
    pub fn sequences_in_subgraphs(&self) -> usize {
        self.dense_subgraphs.iter().map(|d| d.members.len()).sum()
    }

    /// The dense subgraphs as a clustering (id lists) for the metrics.
    pub fn subgraph_clusters(&self) -> Vec<Vec<u32>> {
        self.dense_subgraphs.iter().map(|d| d.members.iter().map(|id| id.0).collect()).collect()
    }
}

/// [`run_pipeline`] behind the memory-budget pre-flight check: refuses to
/// start — with a typed error, never an abort — when even the smallest
/// partitioned index task (one chunk per sequence) cannot fit
/// `config.cluster.mem.budget`. A run that passes the check degrades
/// gracefully inside: the index plane picks chunk sizes that fit, and the
/// rank tables fall back to per-set hashing when refused.
pub fn run_pipeline_budgeted(
    input: &dyn SeqStore,
    config: &PipelineConfig,
) -> Result<PipelineResult, BudgetError> {
    check_index_budget(input, &config.cluster.mem.budget)?;
    Ok(run_pipeline(input, config))
}

/// A finished front half as the back half consumes it: the components
/// under `input` ids and, when CCD's stream was the exact ψ_ccd pair set,
/// what it knows of the pairs inside them. Sketch modes have no such
/// stream, so their back half mines each component's own index instead.
struct BackHalf<'a> {
    components: Vec<Vec<SeqId>>,
    known: Option<KnownPairs<'a>>,
}

impl<'a> BackHalf<'a> {
    fn new(
        input: &'a dyn SeqStore,
        config: &PipelineConfig,
        kept: &[SeqId],
        ledger: &Arc<PairLedger>,
        ccd: &'a mut CcdResult,
    ) -> BackHalf<'a> {
        let deferred = std::mem::take(&mut ccd.deferred);
        let components = ccd
            .components
            .iter()
            .map(|c| c.iter().map(|&local| kept[local.index()]).collect())
            .collect();
        let known = (config.cluster.sketch.mode == SketchMode::Exact).then(|| {
            let (components, edges) = (&ccd.components, &ccd.edges);
            KnownPairs::new(input, &config.cluster, kept, ledger, components, edges, deferred)
        });
        BackHalf { components, known }
    }

    /// Indices of the components large enough for the dense-subgraph stage.
    fn selected(&self, config: &PipelineConfig) -> Vec<usize> {
        let large = |&c: &usize| self.components[c].len() >= config.min_component_size;
        (0..self.components.len()).filter(large).collect()
    }

    /// Fused BGG→DSD over the components `queue` indexes.
    fn stream(
        &self,
        input: &dyn SeqStore,
        config: &PipelineConfig,
        queue: &[usize],
    ) -> Vec<ComponentOutput> {
        match &self.known {
            Some(known) => stream_graphs(
                input,
                config,
                queue.len(),
                |i| known.n_deferred(queue[i]),
                |i, scratch| known.component_graph(queue[i], scratch),
            ),
            None => {
                let members: Vec<&[SeqId]> =
                    queue.iter().map(|&c| self.components[c].as_slice()).collect();
                stream_components(input, config, &members)
            }
        }
    }

    /// Residues of the components `queue` indexes (the BGG trace's volume).
    fn residues(&self, input: &dyn SeqStore, queue: &[usize]) -> u64 {
        queue.iter().flat_map(|&c| &self.components[c]).map(|&id| input.seq_len(id) as u64).sum()
    }
}

/// Run the full pipeline on `input` — the BGG→DSD back half goes through
/// the fused streaming executor. `input` is any [`SeqStore`]: an
/// in-memory [`pfam_seq::SequenceSet`] or a paged on-disk store.
pub fn run_pipeline(input: &dyn SeqStore, config: &PipelineConfig) -> PipelineResult {
    // ---- Phases 1+2: redundancy removal, then connected components of
    // the survivors, over one suffix index; it is dropped before the back
    // half starts. CCD sees the survivors through the store (no re-pack —
    // a paged input stays on disk); its local id `i` maps back to original
    // id `rr.kept[i]`. ----
    let (rr, mut ccd) = run_front_half(input, &config.cluster);
    let ccd_trace = std::mem::take(&mut ccd.trace);

    // ---- Phases 3+4: fused BGG→DSD over the large components. ----
    let back = BackHalf::new(input, config, &rr.kept, &rr.ledger, &mut ccd);
    let selected = back.selected(config);
    let outputs = back.stream(input, config, &selected);

    let mut bgg_trace =
        PhaseTrace { index_residues: back.residues(input, &selected), ..PhaseTrace::default() };
    let mut graphs = Vec::with_capacity(outputs.len());
    let mut dense_subgraphs = Vec::new();
    let mut shingle_stats = ShingleStats::default();
    for (ci, out) in outputs.into_iter().enumerate() {
        shingle_stats.absorb(&out.stats);
        bgg_trace.batches.push(out.record);
        for local_members in &out.subgraphs {
            let density = subgraph_density(&out.graph.graph, local_members);
            let members: Vec<SeqId> =
                local_members.iter().map(|&l| out.graph.original_id(l)).collect();
            dense_subgraphs.push(DenseSubgraph { members, component: ci, density });
        }
        graphs.push(out.graph);
    }
    // Deterministic output order: biggest first, then by first member.
    dense_subgraphs
        .sort_by(|a, b| b.members.len().cmp(&a.members.len()).then(a.members.cmp(&b.members)));

    PipelineResult {
        n_input: input.len(),
        non_redundant: rr.kept.clone(),
        components: back.components,
        component_graphs: graphs,
        dense_subgraphs,
        traces: (rr.trace, ccd_trace, bgg_trace),
        shingle_stats,
        ledger_dropped: rr.ledger.dropped(),
    }
}

/// Where and how often [`run_pipeline_checkpointed`] snapshots its state.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Directory holding `rr.ckpt` / `ccd.ckpt` / `dsd.ckpt` (created if
    /// missing).
    pub dir: PathBuf,
    /// Write a CCD cursor every this many master batches (0 = only at
    /// phase completion).
    pub every_batches: usize,
    /// Write a DSD snapshot every this many finished components; the
    /// components inside one batch run through the streaming executor in
    /// parallel. `1` (and, defensively, `0`) checkpoints after every
    /// component, matching the pre-batching behaviour exactly.
    pub every_components: usize,
}

/// The undirected edge list of a component graph, `(u, v)` with `u < v`
/// in ascending order — the canonical serialized form.
fn csr_edge_list(graph: &CsrGraph) -> Vec<(u32, u32)> {
    let mut edges = Vec::with_capacity(graph.n_edges());
    for u in 0..graph.n_vertices() as u32 {
        for &v in graph.neighbors(u) {
            if u < v {
                edges.push((u, v));
            }
        }
    }
    edges
}

/// Phase 2 of the checkpointed pipeline over `n_kept` reads: the stored
/// result when `prior` (the decoded `ccd.ckpt`) holds a completed phase,
/// else `run` — from the stored cursor, if any — with every cursor it
/// emits written to `ccd.ckpt`, and the final state at the end.
fn ccd_checkpointed(
    prior: Option<CcdState>,
    n_kept: usize,
    ckpt: &CheckpointConfig,
    run: impl FnOnce(Option<CcdCursor>, &mut dyn FnMut(&CcdCursor)) -> CcdResult,
) -> Result<CcdResult, CkptError> {
    if prior.as_ref().is_some_and(|state| state.cursor.uf_parent.len() != n_kept) {
        return Err(CkptError::Corrupt("ccd checkpoint is for a different input"));
    }
    let cursor = match prior {
        // Phase already finished: rebuild the result from the stored
        // forest — no index rebuild, no realignment.
        Some(state) if state.complete => return Ok(CcdResult::from_cursor(state.cursor)),
        prior => prior.map(|state| state.cursor),
    };
    let ccd_path = Phase::Ccd.path_in(&ckpt.dir);
    let mut ckpt_err: Option<CkptError> = None;
    let mut on_cursor = |cursor: &CcdCursor| {
        if ckpt_err.is_some() {
            return;
        }
        let state = CcdState { complete: false, cursor: cursor.clone() };
        if let Err(e) = write_checkpoint(&ccd_path, Phase::Ccd, &state.encode()) {
            ckpt_err = Some(e);
        }
    };
    let result = run(cursor, &mut on_cursor);
    if let Some(e) = ckpt_err {
        return Err(e);
    }
    // Final snapshot: the forest rebuilt from the accepted edges yields
    // the same partition the master loop ended with.
    let state = CcdState { complete: true, cursor: CcdCursor::from_result(&result, n_kept) };
    write_checkpoint(&ccd_path, Phase::Ccd, &state.encode())?;
    Ok(result)
}

/// [`run_pipeline`] with checkpoint/restart (DESIGN.md §robustness).
///
/// State is snapshotted to `ckpt.dir` at phase boundaries (plus every
/// `ckpt.every_batches` CCD batches and every `ckpt.every_components`
/// finished DSD components), so a
/// killed run restarted with `resume = true` replays from the last
/// snapshot and produces a result *identical* to the uninterrupted run —
/// CCD's pair generator is deterministic, so skipping the consumed prefix
/// and restoring the union-find verbatim repeats every decision exactly.
///
/// `stop_after` ends the run right after the named phase's checkpoint is
/// written (returning `Ok(None)`) — the hook the kill-at-every-phase
/// integration tests use to simulate a crash at a phase boundary.
pub fn run_pipeline_checkpointed(
    input: &dyn SeqStore,
    config: &PipelineConfig,
    ckpt: &CheckpointConfig,
    resume: bool,
    stop_after: Option<Phase>,
) -> Result<Option<PipelineResult>, CkptError> {
    std::fs::create_dir_all(&ckpt.dir)
        .map_err(|e| CkptError::Io(format!("{}: {e}", ckpt.dir.display())))?;
    let load = |phase: Phase| -> Result<Option<Vec<u8>>, CkptError> {
        let path = phase.path_in(&ckpt.dir);
        if !(resume && path.exists()) {
            return Ok(None);
        }
        let (found, payload) = read_checkpoint(&path)?;
        if found != phase {
            return Err(CkptError::Corrupt("checkpoint file holds a different phase"));
        }
        Ok(Some(payload))
    };

    // ---- Phases 1+2: redundancy removal (checkpointed when complete),
    // then CCD (cursor every N batches, final state at the end). A run
    // that starts at RR holds one suffix index across both; it is dropped
    // before the back half starts. ----
    let prior_ccd = || -> Result<Option<CcdState>, CkptError> {
        load(Phase::Ccd)?.map(|payload| CcdState::decode(&payload)).transpose()
    };
    let budget = &config.cluster.mem.budget;
    let (rr, ledger, mut ccd) = match load(Phase::Rr)? {
        Some(payload) => {
            let mut rr = RrState::decode(&payload)?;
            if stop_after == Some(Phase::Rr) {
                return Ok(None);
            }
            let entries = std::mem::take(&mut rr.ledger);
            let ledger = Arc::new(PairLedger::from_entries(entries, budget));
            // No index is held: a completed CCD needs none, an interrupted
            // one rebuilds what its cursor pins.
            let nr_store = SubsetStore::new(input, rr.kept.iter().map(|&i| SeqId(i)).collect());
            let ccd = ccd_checkpointed(prior_ccd()?, nr_store.len(), ckpt, |cursor, on_cursor| {
                let every = ckpt.every_batches;
                run_ccd_resumable(&nr_store, &config.cluster, &ledger, cursor, every, on_cursor)
            })?;
            (rr, ledger, ccd)
        }
        None => {
            let fresh = with_front_half(input, &config.cluster, |front| {
                let r = front.rr();
                let mut rr = RrState {
                    kept: r.kept.iter().map(|id| id.0).collect(),
                    removed: r.removed.iter().map(|&(a, b)| (a.0, b.0)).collect(),
                    ledger: r.ledger.entries().collect(),
                    ledger_dropped: r.ledger.dropped(),
                    trace: r.trace,
                };
                write_checkpoint(&Phase::Rr.path_in(&ckpt.dir), Phase::Rr, &rr.encode())?;
                if stop_after == Some(Phase::Rr) {
                    return Ok(None);
                }
                // The ledger itself answers from here on.
                rr.ledger = Vec::new();
                let ccd =
                    ccd_checkpointed(prior_ccd()?, r.kept.len(), ckpt, |cursor, on_cursor| {
                        let every = ckpt.every_batches;
                        front.ccd_resumable(&r.kept, &r.ledger, cursor, every, on_cursor)
                    })?;
                Ok(Some((rr, r.ledger, ccd)))
            })?;
            match fresh {
                Some(phases) => phases,
                None => return Ok(None),
            }
        }
    };
    let ledger_dropped = rr.ledger_dropped + ledger.dropped();
    let kept_ids: Vec<SeqId> = rr.kept.iter().map(|&i| SeqId(i)).collect();
    if stop_after == Some(Phase::Ccd) {
        return Ok(None);
    }
    let ccd_trace = std::mem::take(&mut ccd.trace);
    let back = BackHalf::new(input, config, &kept_ids, &ledger, &mut ccd);

    // ---- Phases 3+4: fused BGG→DSD over the component queue in
    // checkpoint-bounded batches: each batch streams through the executor
    // in parallel, then one snapshot covers it. ----
    let dsd_path = Phase::Dsd.path_in(&ckpt.dir);
    let selected = back.selected(config);
    let mut state = match load(Phase::Dsd)? {
        Some(payload) => DsdState::decode(&payload)?,
        None => DsdState::default(),
    };
    if state.done.len() > selected.len() {
        return Err(CkptError::Corrupt("dsd checkpoint is for a different input"));
    }
    for (done, &c) in state.done.iter().zip(&selected) {
        if !done.members.iter().copied().eq(back.components[c].iter().map(|id| id.0)) {
            return Err(CkptError::Corrupt("dsd checkpoint is for a different input"));
        }
    }
    state.trace.index_residues = back.residues(input, &selected);
    let every = ckpt.every_components.max(1);
    let mut cursor = state.done.len();
    while cursor < selected.len() {
        let end = (cursor + every).min(selected.len());
        for out in back.stream(input, config, &selected[cursor..end]) {
            state.done.push(DsdComponent {
                members: out.graph.members.iter().map(|id| id.0).collect(),
                edges: csr_edge_list(&out.graph.graph),
                subgraphs: out.subgraphs,
            });
            state.shingle.absorb(&out.stats);
            state.trace.batches.push(out.record);
        }
        write_checkpoint(&dsd_path, Phase::Dsd, &state.encode())?;
        cursor = end;
    }
    if state.done.is_empty() {
        // No component reached the DSD stage; still record completion.
        write_checkpoint(&dsd_path, Phase::Dsd, &state.encode())?;
    }
    if stop_after == Some(Phase::Dsd) {
        return Ok(None);
    }

    // ---- Assemble the result from the (now complete) DSD state. ----
    let graphs: Vec<ComponentGraph> = state
        .done
        .iter()
        .map(|c| ComponentGraph {
            members: c.members.iter().map(|&i| SeqId(i)).collect(),
            graph: CsrGraph::from_edges(c.members.len(), &c.edges),
        })
        .collect();
    let mut dense_subgraphs = Vec::new();
    for (ci, comp) in state.done.iter().enumerate() {
        for local_members in &comp.subgraphs {
            let density = subgraph_density(&graphs[ci].graph, local_members);
            let members: Vec<SeqId> =
                local_members.iter().map(|&l| graphs[ci].original_id(l)).collect();
            dense_subgraphs.push(DenseSubgraph { members, component: ci, density });
        }
    }
    dense_subgraphs
        .sort_by(|a, b| b.members.len().cmp(&a.members.len()).then(a.members.cmp(&b.members)));

    Ok(Some(PipelineResult {
        n_input: input.len(),
        components: back.components,
        non_redundant: kept_ids,
        component_graphs: graphs,
        dense_subgraphs,
        traces: (rr.trace, ccd_trace, state.trace),
        shingle_stats: state.shingle,
        ledger_dropped,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfam_datagen::{DatasetConfig, MutationModel, SyntheticDataset};
    use pfam_seq::SequenceSet;

    fn small_dataset(seed: u64) -> SyntheticDataset {
        SyntheticDataset::generate(&DatasetConfig {
            n_families: 3,
            n_members: 30,
            n_noise: 4,
            redundancy_frac: 0.1,
            fragment_prob: 0.0,
            mutation: MutationModel {
                substitution_rate: 0.12,
                conservative_fraction: 0.6,
                insertion_rate: 0.0,
                deletion_rate: 0.0,
            },
            seed,
            ..DatasetConfig::tiny(seed)
        })
    }

    #[test]
    fn end_to_end_recovers_families() {
        let d = small_dataset(21);
        let r = run_pipeline(&d.set, &PipelineConfig::for_tests());
        assert_eq!(r.n_input, d.set.len());
        // Redundant reads removed.
        assert!(r.non_redundant.len() < d.set.len());
        // Three family components (plus noise singletons).
        assert_eq!(r.components_of_size(2).len(), 3);
        // Dense subgraphs found, none mixing families.
        assert!(!r.dense_subgraphs.is_empty());
        for ds in &r.dense_subgraphs {
            let fams: std::collections::HashSet<_> =
                ds.members.iter().filter_map(|&id| d.family_of(id)).collect();
            assert_eq!(fams.len(), 1, "dense subgraph mixes families");
        }
    }

    #[test]
    fn dense_subgraphs_are_disjoint_and_sized() {
        let d = small_dataset(22);
        let config = PipelineConfig::for_tests();
        let r = run_pipeline(&d.set, &config);
        let mut seen = std::collections::HashSet::new();
        for ds in &r.dense_subgraphs {
            assert!(ds.members.len() >= config.min_subgraph_size);
            for &m in &ds.members {
                assert!(seen.insert(m), "sequence {m} in two dense subgraphs");
            }
        }
    }

    #[test]
    fn densities_are_high_for_family_cliques() {
        let d = small_dataset(23);
        let r = run_pipeline(&d.set, &PipelineConfig::for_tests());
        for ds in &r.dense_subgraphs {
            assert!(
                ds.density.density > 0.5,
                "family subgraphs should be dense, got {}",
                ds.density.density
            );
        }
    }

    #[test]
    fn traces_populated() {
        let d = small_dataset(24);
        let r = run_pipeline(&d.set, &PipelineConfig::for_tests());
        let (rr, ccd, bgg) = &r.traces;
        assert!(rr.index_residues > 0);
        assert!(ccd.total_generated() > 0);
        // Every deferred pair of a selected component got its verdict:
        // from RR's ledger, or from one fill.
        assert!(bgg.total_generated() > 0);
        assert_eq!(bgg.total_aligned() + bgg.total_ledger_hits(), bgg.total_generated());
    }

    #[test]
    fn domain_reduction_runs() {
        let d = small_dataset(25);
        let mut config = PipelineConfig::for_tests();
        config.reduction = crate::config::Reduction::DomainBased { w: 10 };
        let r = run_pipeline(&d.set, &config);
        assert!(!r.dense_subgraphs.is_empty());
        for ds in &r.dense_subgraphs {
            let fams: std::collections::HashSet<_> =
                ds.members.iter().filter_map(|&id| d.family_of(id)).collect();
            assert_eq!(fams.len(), 1, "domain-based subgraph mixes families");
        }
    }

    #[test]
    fn empty_input() {
        let r = run_pipeline(&SequenceSet::new(), &PipelineConfig::for_tests());
        assert_eq!(r.n_input, 0);
        assert!(r.dense_subgraphs.is_empty());
    }

    #[test]
    fn budgeted_pipeline_is_bit_identical() {
        // A budget far below the monolithic index estimate forces the
        // partitioned index plane and the per-set shingle-hash path; every
        // reported family must be unchanged.
        let d = small_dataset(28);
        let config = PipelineConfig::for_tests();
        let want = run_pipeline(&d.set, &config);
        let est = pfam_suffix::estimated_index_bytes(d.set.total_residues(), d.set.len());
        let tight = config.clone().with_mem_budget(est / 4);
        let got = run_pipeline_budgeted(&d.set, &tight).expect("budget is feasible");
        assert_eq!(got.dense_subgraphs, want.dense_subgraphs);
        assert_eq!(got.components, want.components);
        assert_eq!(got.non_redundant, want.non_redundant);
        assert_eq!(got.shingle_stats, want.shingle_stats);
    }

    #[test]
    fn infeasible_budget_is_a_typed_error() {
        let d = small_dataset(29);
        let config = PipelineConfig::for_tests().with_mem_budget(8);
        let err = run_pipeline_budgeted(&d.set, &config).unwrap_err();
        assert_eq!(err.what, "partitioned-gsa");
        assert_eq!(err.limit, 8);
        assert!(err.requested > err.limit);
    }

    #[test]
    fn explicit_chunk_size_is_bit_identical() {
        let d = small_dataset(30);
        let config = PipelineConfig::for_tests();
        let want = run_pipeline(&d.set, &config);
        for chunk in [512u64, 4096, 1 << 20] {
            let forced = config.clone().with_index_chunk_bytes(chunk);
            let got = run_pipeline(&d.set, &forced);
            assert_eq!(got.dense_subgraphs, want.dense_subgraphs, "chunk={chunk}");
            assert_eq!(got.components, want.components, "chunk={chunk}");
        }
    }

    #[test]
    fn paged_store_input_matches_in_memory() {
        // The same pipeline over the same sequences, once from the
        // in-memory set and once from a paged on-disk store.
        let d = small_dataset(31);
        let dir = std::env::temp_dir().join(format!("pfam-pipe-store-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("input.pfss");
        pfam_seq::PagedSeqStore::write_set(&path, &d.set, 1 << 14).unwrap();
        let store = pfam_seq::PagedSeqStore::open(&path).unwrap();
        let config = PipelineConfig::for_tests().with_mem_budget(1 << 20);
        let want = run_pipeline(&d.set, &config);
        let got = run_pipeline_budgeted(&store, &config).expect("budget is feasible");
        assert_eq!(got.dense_subgraphs, want.dense_subgraphs);
        assert_eq!(got.components, want.components);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn deterministic() {
        let d = small_dataset(26);
        let config = PipelineConfig::for_tests();
        let a = run_pipeline(&d.set, &config);
        let b = run_pipeline(&d.set, &config);
        assert_eq!(a.dense_subgraphs, b.dense_subgraphs);
        assert_eq!(a.components, b.components);
    }
}
