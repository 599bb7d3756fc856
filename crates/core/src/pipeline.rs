//! The four-phase pipeline of Figure 2: redundancy removal → connected
//! components → bipartite graph generation → dense subgraph detection.
//!
//! Phases 3 and 4 run fused: the component queue flows through the
//! executor ([`crate::executor`]) with no barrier between graph
//! construction and dense-subgraph detection.
//!
//! A pair's verdict is a fact of the run, not of a phase: RR's fills leave
//! the overlap answers in a [`PairLedger`], CCD keeps the pairs its closure
//! filter drops, and the back half builds each component's
//! graph from CCD's edges plus the verdicts of those deferred pairs — the
//! ledger's, or one fill ([`KnownPairs`]). No pair is aligned twice and no
//! per-component suffix index is built.
//!
//! There is one composition of the phases, [`run_pipeline`]. What differs
//! between runs is [`PipelineHooks`]: with a checkpoint directory every
//! phase loads what an earlier run left there and saves what it finishes
//! (DESIGN.md §robustness), and snapshots mid-phase as often as what a
//! snapshot costs allows; without one the same code keeps nothing — no
//! snapshot is even encoded.

use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pfam_cluster::{
    index_plan, run_ccd_resumable, with_front_half, CcdCursor, CcdResult, ClusterCore,
    ComponentGraph, KnownPairs, PairLedger, PhaseTrace,
};
use pfam_graph::{subgraph_density, CsrGraph, SubgraphDensity};
use pfam_seq::{BudgetError, SeqId, SeqStore, SubsetStore};
use pfam_shingle::ShingleStats;
use pfam_suffix::WindowStats;

use crate::checkpoint::{
    fingerprint, read_checkpoint, write_checkpoint, CcdState, CkptError, DsdComponent, DsdState,
    Phase, RrState,
};
use crate::config::PipelineConfig;
use crate::executor::{stream_graphs, ComponentOutput};
use crate::report::{AheadReport, CheckpointReport, WindowReport};

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
    /// What the master loops filled ahead of admission and no batch then
    /// admitted: dropped, or held for the back half.
    pub filled_ahead: AheadReport,
    /// What each phase's windows held, when it mined windows.
    pub windows: WindowReport,
    /// The snapshots each phase wrote, when the run had a directory.
    pub checkpoints: Option<CheckpointReport>,
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

/// What a run keeps on disk and where it ends. The default is the
/// in-memory run: no directory, start at phase 1, run to the end.
#[derive(Debug, Clone, Default)]
pub struct PipelineHooks {
    /// Snapshot every phase into this directory as `rr.ckpt` / `ccd.ckpt`
    /// / `dsd.ckpt` (created if missing); `None` keeps nothing on disk.
    pub checkpoint: Option<PathBuf>,
    /// Continue from the snapshots found in the directory instead of
    /// overwriting them. A killed run restarted this way replays from the
    /// last snapshot and produces a result *identical* to the
    /// uninterrupted run — CCD's pair generator is deterministic, so
    /// skipping the consumed prefix and restoring the union-find verbatim
    /// repeats every decision exactly.
    pub resume: bool,
    /// End the run right after this phase's snapshot is written
    /// ([`run_pipeline`] returns `Ok(None)`) — the hook the
    /// kill-at-every-phase tests use to simulate a crash at a phase
    /// boundary.
    pub stop_after: Option<Phase>,
}

/// Why a run did not start, or could not go on.
#[derive(Debug)]
pub enum PipelineError {
    /// The input's text and the smallest window its suffixes can be cut
    /// into do not fit the memory budget together. A run that passes this
    /// check cuts its windows to what each phase has left.
    Budget(BudgetError),
    /// A snapshot could not be written, read back, or trusted.
    Checkpoint(CkptError),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Budget(e) => e.fmt(f),
            PipelineError::Checkpoint(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<BudgetError> for PipelineError {
    fn from(e: BudgetError) -> Self {
        PipelineError::Budget(e)
    }
}

impl From<CkptError> for PipelineError {
    fn from(e: CkptError) -> Self {
        PipelineError::Checkpoint(e)
    }
}

/// How many times longer than a snapshot took the run works before it
/// writes the next mid-phase one: mid-phase snapshots then take at most
/// 1/20 of the wall, whatever a snapshot costs on this input and disk —
/// CCD's cursor grows with the stream consumed, DSD's with the components
/// finished — and a kill loses about 19 times the last write.
const WORK_PER_SNAPSHOT: u32 = 19;

/// The run's last snapshot: when it finished, and how long it took from
/// building its payload to the rename.
#[derive(Debug, Clone, Copy)]
struct Written {
    finished: Instant,
    took: Duration,
}

/// Whether a mid-phase snapshot offered at `now` is due: when the run has
/// written none yet, or worked [`WORK_PER_SNAPSHOT`] times what the last
/// one took since it finished.
fn snapshot_due(last: Option<Written>, now: Instant) -> bool {
    last.is_none_or(|last| {
        now.saturating_duration_since(last.finished) >= last.took * WORK_PER_SNAPSHOT
    })
}

/// The snapshot files of one run. Without a directory nothing is loaded
/// and nothing saved — `save` and `offer` do not even build their payload.
struct Snapshots<'h> {
    hooks: &'h PipelineHooks,
    /// Of this run ([`fingerprint`]); unused without a directory.
    fingerprint: u64,
    last: Cell<Option<Written>>,
    written: Cell<CheckpointReport>,
}

impl<'h> Snapshots<'h> {
    fn open(
        hooks: &'h PipelineHooks,
        input: &dyn SeqStore,
        config: &PipelineConfig,
    ) -> Result<Snapshots<'h>, CkptError> {
        let run = match &hooks.checkpoint {
            Some(dir) => {
                std::fs::create_dir_all(dir)
                    .map_err(|e| CkptError::Io(format!("{}: {e}", dir.display())))?;
                fingerprint(input, config)
            }
            None => 0,
        };
        Ok(Snapshots { hooks, fingerprint: run, last: Cell::new(None), written: Cell::default() })
    }

    fn dir(&self) -> Option<&Path> {
        self.hooks.checkpoint.as_deref()
    }

    /// The payload an earlier run of the same input and parameters left
    /// for `phase`, when this run resumes and there is one.
    fn load(&self, phase: Phase) -> Result<Option<Vec<u8>>, CkptError> {
        let Some(dir) = self.dir() else {
            return Ok(None);
        };
        let path = phase.path_in(dir);
        if !(self.hooks.resume && path.exists()) {
            return Ok(None);
        }
        let (found, written_for, payload) = read_checkpoint(&path)?;
        if found != phase {
            return Err(CkptError::Corrupt("checkpoint file holds a different phase"));
        }
        if written_for != self.fingerprint {
            return Err(CkptError::Mismatch(phase.file_name()));
        }
        Ok(Some(payload))
    }

    /// Write `phase`'s snapshot — a phase end's, always.
    fn save(&self, phase: Phase, payload: impl FnOnce() -> Vec<u8>) -> Result<(), CkptError> {
        let Some(dir) = self.dir() else {
            return Ok(());
        };
        let start = Instant::now();
        let payload = payload();
        let bytes = write_checkpoint(&phase.path_in(dir), phase, self.fingerprint, &payload)?;
        let finished = Instant::now();
        let took = finished - start;
        self.last.set(Some(Written { finished, took }));
        let mut written = self.written.get();
        written.add(phase, bytes, took);
        self.written.set(written);
        Ok(())
    }

    /// Write a mid-phase snapshot of `phase` if one is due
    /// ([`snapshot_due`]); otherwise build nothing.
    fn offer(&self, phase: Phase, payload: impl FnOnce() -> Vec<u8>) -> Result<(), CkptError> {
        if self.dir().is_some() && snapshot_due(self.last.get(), Instant::now()) {
            self.save(phase, payload)?;
        }
        Ok(())
    }

    /// What the run wrote, when it has a directory.
    fn report(&self) -> Option<CheckpointReport> {
        self.dir().map(|_| self.written.get())
    }
}

/// Phases 1–2 as the back half consumes them, fresh or from snapshots.
struct FrontResult {
    /// RR's survivors; CCD's id `i` is `kept[i]`.
    kept: Vec<SeqId>,
    rr_trace: PhaseTrace,
    /// RR's fills ahead that no batch admitted (none when RR was loaded).
    rr_discarded: usize,
    /// RR's windows, when it mined windows (none when RR was loaded).
    rr_windows: Option<WindowStats>,
    ledger: Arc<PairLedger>,
    ledger_dropped: u64,
    ccd: CcdResult,
}

/// Phase 2 over `n_kept` reads: the stored result when `ccd.ckpt` holds a
/// completed phase, else `run(cursor, sink)` — from the stored cursor, if
/// any — with a cursor saved as `ccd.ckpt` at each batch boundary a
/// snapshot is due, and the final state at the end.
fn ccd_phase(
    snapshots: &Snapshots<'_>,
    n_kept: usize,
    run: impl FnOnce(Option<CcdCursor>, &mut dyn FnMut(&ClusterCore<'_>)) -> CcdResult,
) -> Result<CcdResult, CkptError> {
    let prior =
        snapshots.load(Phase::Ccd)?.map(|payload| CcdState::decode(&payload)).transpose()?;
    if prior.as_ref().is_some_and(|state| state.cursor.uf_parent.len() != n_kept) {
        return Err(CkptError::Corrupt("ccd checkpoint is for a different input"));
    }
    let cursor = match prior {
        // Phase already finished: rebuild the result from the stored
        // forest — no index rebuild, no realignment.
        Some(state) if state.complete => return Ok(CcdResult::from_cursor(state.cursor)),
        prior => prior.map(|state| state.cursor),
    };
    let mut failed: Option<CkptError> = None;
    let mut on_batch = |core: &ClusterCore<'_>| {
        if failed.is_none() {
            let state = || CcdState { complete: false, cursor: core.cursor() }.encode();
            failed = snapshots.offer(Phase::Ccd, state).err();
        }
    };
    let result = run(cursor, &mut on_batch);
    if let Some(e) = failed {
        return Err(e);
    }
    // Final snapshot: the forest rebuilt from the accepted edges yields
    // the same partition the master loop ended with.
    snapshots.save(Phase::Ccd, || {
        CcdState { complete: true, cursor: CcdCursor::from_result(&result, n_kept) }.encode()
    })?;
    Ok(result)
}

/// A finished front half as the back half consumes it: the components
/// under `input` ids and what CCD knows of the pairs inside them.
struct BackHalf<'a> {
    components: Vec<Vec<SeqId>>,
    known: KnownPairs<'a>,
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
        let filled_ahead = std::mem::take(&mut ccd.filled_ahead);
        let components = ccd
            .components
            .iter()
            .map(|c| c.iter().map(|&local| kept[local.index()]).collect())
            .collect();
        let known = KnownPairs::new(
            input,
            &config.cluster,
            kept,
            ledger,
            &ccd.components,
            &ccd.edges,
            deferred,
            filled_ahead,
            config.min_component_size,
        );
        BackHalf { components, known }
    }

    /// Indices of the components large enough for the dense-subgraph stage.
    fn selected(&self, config: &PipelineConfig) -> Vec<usize> {
        let large = |&c: &usize| self.components[c].len() >= config.min_component_size;
        (0..self.components.len()).filter(large).collect()
    }

    /// Fused BGG→DSD over the components `queue` indexes.
    fn stream(&self, config: &PipelineConfig, queue: &[usize]) -> Vec<ComponentOutput> {
        stream_graphs(
            config,
            queue.len(),
            |i| self.known.n_deferred(queue[i]),
            |i| self.known.component_graph(queue[i]),
        )
    }

    /// Residues of the components `queue` indexes (the BGG trace's volume).
    fn residues(&self, input: &dyn SeqStore, queue: &[usize]) -> u64 {
        queue.iter().flat_map(|&c| &self.components[c]).map(|&id| input.seq_len(id) as u64).sum()
    }
}

/// The finished prefix of the back half's component queue — what
/// `dsd.ckpt` holds, in the form the result is assembled from.
#[derive(Default)]
struct Finished {
    graphs: Vec<ComponentGraph>,
    /// Per finished component, its dense subgraphs as local-index lists.
    subgraphs: Vec<Vec<Vec<u32>>>,
    shingle: ShingleStats,
    /// BGG trace, one batch per finished component.
    trace: PhaseTrace,
}

impl Finished {
    fn from_state(state: DsdState) -> Finished {
        let mut finished =
            Finished { shingle: state.shingle, trace: state.trace, ..Finished::default() };
        for c in state.done {
            finished.graphs.push(ComponentGraph {
                graph: CsrGraph::from_edges(c.members.len(), &c.edges),
                members: c.members.into_iter().map(SeqId).collect(),
            });
            finished.subgraphs.push(c.subgraphs);
        }
        finished
    }

    fn to_state(&self) -> DsdState {
        let done = self.graphs.iter().zip(&self.subgraphs).map(|(graph, subgraphs)| DsdComponent {
            members: graph.members.iter().map(|id| id.0).collect(),
            edges: csr_edge_list(&graph.graph),
            subgraphs: subgraphs.clone(),
        });
        DsdState { done: done.collect(), shingle: self.shingle, trace: self.trace.clone() }
    }

    fn push(&mut self, out: ComponentOutput) {
        self.shingle.absorb(&out.stats);
        self.trace.batches.push(out.record);
        self.graphs.push(out.graph);
        self.subgraphs.push(out.subgraphs);
    }
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

/// Run the pipeline on `input` — any [`SeqStore`], such as a
/// [`pfam_seq::SequenceSet`] — keeping on disk what `hooks` says.
/// `Ok(None)` means the run ended where [`PipelineHooks::stop_after`]
/// asked it to.
///
/// Refuses to start — with a typed error, never an abort or an empty
/// answer — when the configuration cannot work on this input: no
/// [`index_plan`] fits the budget.
pub fn run_pipeline(
    input: &dyn SeqStore,
    config: &PipelineConfig,
    hooks: &PipelineHooks,
) -> Result<Option<PipelineResult>, PipelineError> {
    index_plan(input, &config.cluster, None)?;
    let budget = &config.cluster.budget;
    let snapshots = Snapshots::open(hooks, input, config)?;
    let stop_after = |phase: Phase| hooks.stop_after == Some(phase);

    // ---- Phases 1+2: redundancy removal (snapshot when complete), then
    // connected components of the survivors (a cursor whenever one is due,
    // the final state at the end). A run that starts at RR holds one
    // suffix index across both; it is dropped before the back half starts.
    // CCD sees the survivors through a view of the input (no re-pack); its
    // local id `i` maps back to original id `kept[i]`. ----
    let front = match snapshots.load(Phase::Rr)? {
        Some(payload) => {
            let rr = RrState::decode(&payload)?;
            if rr.kept.last().is_some_and(|&last| last as usize >= input.len()) {
                return Err(CkptError::Corrupt("rr checkpoint is for a different input").into());
            }
            if stop_after(Phase::Rr) {
                return Ok(None);
            }
            let kept: Vec<SeqId> = rr.kept.iter().map(|&i| SeqId(i)).collect();
            let ledger = Arc::new(PairLedger::from_entries(rr.ledger, budget));
            // No index is held: a completed CCD needs none, an interrupted
            // one mines the one stream again, under this run's budget.
            let nr_store = SubsetStore::new(input, kept.clone());
            let ccd = ccd_phase(&snapshots, kept.len(), |cursor, on_batch| {
                run_ccd_resumable(&nr_store, &config.cluster, &ledger, cursor, on_batch)
            })?;
            let ledger_dropped = rr.ledger_dropped + ledger.dropped();
            let rr_trace = rr.trace;
            Some(FrontResult {
                kept,
                rr_trace,
                rr_discarded: 0,
                rr_windows: None,
                ledger,
                ledger_dropped,
                ccd,
            })
        }
        None => with_front_half(input, &config.cluster, |front| {
            let rr = front.rr();
            snapshots.save(Phase::Rr, || {
                let state = RrState {
                    kept: rr.kept.iter().map(|id| id.0).collect(),
                    removed: rr.removed.iter().map(|&(a, b)| (a.0, b.0)).collect(),
                    ledger: rr.ledger.entries().collect(),
                    ledger_dropped: rr.ledger.dropped(),
                    trace: rr.trace.clone(),
                };
                state.encode()
            })?;
            if stop_after(Phase::Rr) {
                return Ok(None);
            }
            let ccd = ccd_phase(&snapshots, rr.kept.len(), |cursor, on_batch| {
                front.ccd_resumable(&rr.kept, &rr.ledger, cursor, on_batch)
            })?;
            let ledger_dropped = rr.ledger.dropped();
            Ok::<_, CkptError>(Some(FrontResult {
                kept: rr.kept,
                rr_trace: rr.trace,
                rr_discarded: rr.ahead_discarded,
                rr_windows: rr.windows,
                ledger: rr.ledger,
                ledger_dropped,
                ccd,
            }))
        })?,
    };
    let Some(FrontResult {
        kept,
        rr_trace,
        rr_discarded,
        rr_windows,
        ledger,
        ledger_dropped,
        mut ccd,
    }) = front
    else {
        return Ok(None);
    };
    if stop_after(Phase::Ccd) {
        return Ok(None);
    }
    let ccd_trace = std::mem::take(&mut ccd.trace);
    let windows = WindowReport { rr: rr_windows, ccd: ccd.windows };
    let back = BackHalf::new(input, config, &kept, &ledger, &mut ccd);
    let (ccd_held, ccd_discarded) = back.known.filled_ahead();
    let filled_ahead = AheadReport { rr_discarded, ccd_held, ccd_discarded };

    // ---- Phases 3+4: fused BGG→DSD over the queue of large components.
    // Without a directory the whole queue is one round, heaviest first.
    // With one, rounds double: each holds as many components as have
    // finished (at least one), streams through the executor in parallel,
    // and is followed by a snapshot when one is due — and the last round
    // always. ----
    let selected = back.selected(config);
    let mut finished = match snapshots.load(Phase::Dsd)? {
        Some(payload) => Finished::from_state(DsdState::decode(&payload)?),
        None => Finished::default(),
    };
    let queue_prefix = finished.graphs.len() <= selected.len()
        && finished.graphs.iter().zip(&selected).all(|(g, &c)| g.members == back.components[c]);
    if !queue_prefix {
        return Err(CkptError::Corrupt("dsd checkpoint is for a different input").into());
    }
    finished.trace.index_residues = back.residues(input, &selected);
    let mut cursor = finished.graphs.len();
    while cursor < selected.len() {
        let round = if snapshots.dir().is_some() { cursor.max(1) } else { usize::MAX };
        let end = cursor.saturating_add(round).min(selected.len());
        for out in back.stream(config, &selected[cursor..end]) {
            finished.push(out);
        }
        cursor = end;
        if cursor < selected.len() {
            snapshots.offer(Phase::Dsd, || finished.to_state().encode())?;
        }
    }
    snapshots.save(Phase::Dsd, || finished.to_state().encode())?;
    if stop_after(Phase::Dsd) {
        return Ok(None);
    }

    // ---- The result, from the finished queue. ----
    let mut dense_subgraphs = Vec::new();
    for (ci, (graph, subgraphs)) in finished.graphs.iter().zip(&finished.subgraphs).enumerate() {
        for local_members in subgraphs {
            let density = subgraph_density(&graph.graph, local_members);
            let members: Vec<SeqId> = local_members.iter().map(|&l| graph.original_id(l)).collect();
            dense_subgraphs.push(DenseSubgraph { members, component: ci, density });
        }
    }
    // Deterministic output order: biggest first, then by first member.
    dense_subgraphs
        .sort_by(|a, b| b.members.len().cmp(&a.members.len()).then(a.members.cmp(&b.members)));

    Ok(Some(PipelineResult {
        n_input: input.len(),
        components: back.components,
        non_redundant: kept,
        component_graphs: finished.graphs,
        dense_subgraphs,
        traces: (rr_trace, ccd_trace, finished.trace),
        shingle_stats: finished.shingle,
        ledger_dropped,
        filled_ahead,
        windows,
        checkpoints: snapshots.report(),
    }))
}

impl PipelineConfig {
    /// [`run_pipeline`] with the default hooks — nothing on disk, first
    /// phase to last — for callers that have no use for its error.
    ///
    /// # Panics
    ///
    /// When this configuration cannot work on `input` ([`PipelineError`]).
    pub fn run(&self, input: &dyn SeqStore) -> PipelineResult {
        match run_pipeline(input, self, &PipelineHooks::default()) {
            Ok(result) => result.expect("a run with no stop_after runs to the end"),
            Err(e) => panic!("the pipeline cannot run this configuration on this input: {e}"),
        }
    }
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
    fn a_mid_phase_snapshot_is_due_after_19_times_the_last_write() {
        let finished = Instant::now();
        let took = Duration::from_millis(30);
        let last = Some(Written { finished, took });
        assert!(snapshot_due(None, finished), "the run's first offer is due");
        let just_under = finished + took * 19 - Duration::from_nanos(1);
        assert!(!snapshot_due(last, just_under));
        assert!(snapshot_due(last, finished + took * 19));
    }

    #[test]
    fn end_to_end_recovers_families() {
        let d = small_dataset(21);
        let r = PipelineConfig::for_tests().run(&d.set);
        assert_eq!(r.n_input, d.set.len());
        // Redundant reads removed.
        assert!(r.non_redundant.len() < d.set.len());
        // Three family components (plus noise singletons).
        assert_eq!(r.components_of_size(2).len(), 3);
        // Dense subgraphs found, none mixing families.
        assert!(!r.dense_subgraphs.is_empty());
        for ds in &r.dense_subgraphs {
            let fams: std::collections::HashSet<_> =
                ds.members.iter().filter_map(|&id| d.provenance[id.index()].family()).collect();
            assert_eq!(fams.len(), 1, "dense subgraph mixes families");
        }
    }

    #[test]
    fn dense_subgraphs_are_disjoint_and_sized() {
        let d = small_dataset(22);
        let config = PipelineConfig::for_tests();
        let r = config.run(&d.set);
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
        let r = PipelineConfig::for_tests().run(&d.set);
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
        let r = PipelineConfig::for_tests().run(&d.set);
        let (rr, ccd, bgg) = &r.traces;
        assert!(rr.index_residues > 0);
        assert!(ccd.total_generated() > 0);
        // Every deferred pair of a selected component got its verdict:
        // from RR's ledger, or from one fill.
        assert!(bgg.total_generated() > 0);
        assert_eq!(bgg.total_aligned() + bgg.total_ledger_hits(), bgg.total_generated());
    }

    #[test]
    fn empty_input() {
        let r = PipelineConfig::for_tests().run(&SequenceSet::default());
        assert_eq!(r.n_input, 0);
        assert!(r.dense_subgraphs.is_empty());
    }

    #[test]
    fn budgeted_pipeline_is_bit_identical() {
        // Budgets below the monolithic index estimate send both phases to
        // the windowed miner, each cut into more windows than the last;
        // every reported family and trace must be unchanged.
        let d = small_dataset(28);
        let config = PipelineConfig::for_tests();
        let want = config.run(&d.set);
        let est = pfam_suffix::estimated_index_bytes(d.set.total_residues(), d.set.len());
        for share in [2, 4] {
            let got = config.clone().with_mem_budget(est / share).run(&d.set);
            assert_eq!(got.dense_subgraphs, want.dense_subgraphs, "est/{share}");
            assert_eq!(got.components, want.components, "est/{share}");
            assert_eq!(got.non_redundant, want.non_redundant, "est/{share}");
            assert_eq!(got.shingle_stats, want.shingle_stats, "est/{share}");
            assert_eq!(got.traces, want.traces, "est/{share}");
        }
        // An eighth of the estimate is under the text alone: refused.
        let config = config.with_mem_budget(est / 8);
        let err = run_pipeline(&d.set, &config, &PipelineHooks::default()).unwrap_err();
        let PipelineError::Budget(err) = err else { panic!("not a budget error: {err}") };
        let text = pfam_suffix::estimated_text_bytes(d.set.total_residues(), d.set.len());
        assert_eq!((err.what, err.requested), ("gsa-text", text));
    }

    #[test]
    fn infeasible_budget_is_a_typed_error() {
        let d = small_dataset(29);
        let config = PipelineConfig::for_tests().with_mem_budget(8);
        let err = run_pipeline(&d.set, &config, &PipelineHooks::default()).unwrap_err();
        let PipelineError::Budget(err) = err else { panic!("not a budget error: {err}") };
        assert_eq!(err.what, "gsa-text");
        assert_eq!(err.limit, 8);
        assert!(err.requested > err.limit);
    }

    #[test]
    fn deterministic() {
        let d = small_dataset(26);
        let config = PipelineConfig::for_tests();
        let a = config.run(&d.set);
        let b = config.run(&d.set);
        assert_eq!(a.dense_subgraphs, b.dense_subgraphs);
        assert_eq!(a.components, b.components);
    }
}
