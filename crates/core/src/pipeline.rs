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
//! (DESIGN.md §robustness) — RR and CCD once each, at their ends, the back
//! half each component once, as it finishes; a kill loses the unit in
//! flight. Without one the same code keeps nothing — no snapshot is even
//! encoded.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use pfam_cluster::{
    index_plan, with_front_half, CcdResult, ComponentGraph, FrontHalf, KnownPairs, PairLedger,
    PhaseTrace, RrResult,
};
use pfam_graph::{subgraph_density, SubgraphDensity};
use pfam_seq::{process_usage, BudgetError, MemoryBudget, SeqId, SeqStore};
use pfam_shingle::ShingleStats;

use crate::checkpoint::{
    component_files, component_path, fingerprint, read_checkpoint, write_checkpoint, CcdState,
    CkptError, DsdState, Phase, RrState,
};
use crate::config::PipelineConfig;
use crate::executor::{stream_graphs, ComponentOutput};
use crate::report::{AheadReport, CheckpointReport, PhaseReport, WindowReport};

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
    /// Where the run's wall-clock went, phase by phase.
    pub phases: PhaseReport,
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

/// What a run keeps on disk. The default is the in-memory run: no
/// directory, start at phase 1.
#[derive(Debug, Clone, Default)]
pub struct PipelineHooks {
    /// Snapshot every phase into this directory as `rr.ckpt`, `ccd.ckpt`
    /// and one `dsd-<queue position>.ckpt` per finished component (created
    /// if missing); `None` keeps nothing on disk.
    pub checkpoint: Option<PathBuf>,
    /// Continue from the snapshots found in the directory instead of
    /// overwriting them. A killed run restarted this way loads the phases
    /// it finished, runs the one it was killed in from its start, and
    /// produces a result *identical* to the uninterrupted run — every phase
    /// is deterministic, and the back half runs only the components no
    /// file holds.
    pub resume: bool,
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

/// The snapshot files of one run. Without a directory nothing is loaded
/// and nothing saved — no payload is even built. The back half's workers
/// save their components concurrently, each to its own file.
struct Snapshots<'h> {
    hooks: &'h PipelineHooks,
    /// Of this run ([`fingerprint`]); unused without a directory.
    fingerprint: u64,
    log: Mutex<SnapshotLog>,
}

/// What a run's snapshots have cost so far.
#[derive(Default)]
struct SnapshotLog {
    written: CheckpointReport,
    /// Seconds spent opening the directory and reading snapshots back.
    read_s: f64,
    /// Seconds of `written` the back half's workers spent on component
    /// files, while the run went on.
    component_s: f64,
}

impl SnapshotLog {
    /// Seconds the run waited on snapshots: every read and every write but
    /// the component files.
    fn waited_s(&self) -> f64 {
        self.io_s() - self.component_s
    }

    /// Seconds of every snapshot read and write.
    fn io_s(&self) -> f64 {
        self.read_s + self.written.seconds
    }
}

impl<'h> Snapshots<'h> {
    fn open(
        hooks: &'h PipelineHooks,
        input: &dyn SeqStore,
        config: &PipelineConfig,
    ) -> Result<Snapshots<'h>, CkptError> {
        let start = Instant::now();
        let run = match &hooks.checkpoint {
            Some(dir) => {
                let io = |e: std::io::Error| CkptError::Io(format!("{}: {e}", dir.display()));
                std::fs::create_dir_all(dir).map_err(io)?;
                // A later resume must meet no file another run left: a kill
                // in CCD leaves this run's `rr.ckpt` and no `ccd.ckpt`.
                if !hooks.resume {
                    let mut files = component_files(dir)?;
                    let phases = [Phase::Rr, Phase::Ccd].map(|phase| phase.path_in(dir));
                    files.extend(phases.into_iter().filter(|path| path.exists()));
                    files.iter().try_for_each(std::fs::remove_file).map_err(io)?;
                }
                fingerprint(input, config)
            }
            None => 0,
        };
        let read_s = if hooks.checkpoint.is_some() { start.elapsed().as_secs_f64() } else { 0.0 };
        let log = SnapshotLog { read_s, ..SnapshotLog::default() };
        Ok(Snapshots { hooks, fingerprint: run, log: Mutex::new(log) })
    }

    fn log(&self) -> std::sync::MutexGuard<'_, SnapshotLog> {
        self.log.lock().expect("a snapshot writer panicked")
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
        let start = Instant::now();
        let payload = self.read(&path, phase);
        self.log().read_s += start.elapsed().as_secs_f64();
        payload.map(Some)
    }

    /// The components an earlier run of the same input and parameters
    /// finished, one file each, when this run resumes.
    fn load_components(&self) -> Result<Vec<DsdState>, CkptError> {
        let Some(dir) = self.dir().filter(|_| self.hooks.resume) else {
            return Ok(Vec::new());
        };
        let start = Instant::now();
        let files = component_files(dir)?;
        let states =
            files.iter().map(|path| DsdState::decode(&self.read(path, Phase::Dsd)?)).collect();
        self.log().read_s += start.elapsed().as_secs_f64();
        states
    }

    /// The payload of the `phase` file at `path`, if it was written for
    /// this run's input and parameters.
    fn read(&self, path: &Path, phase: Phase) -> Result<Vec<u8>, CkptError> {
        let (found, written_for, payload) = read_checkpoint(path)?;
        if found != phase {
            return Err(CkptError::Corrupt("checkpoint file holds a different phase"));
        }
        if written_for != self.fingerprint {
            return Err(CkptError::Mismatch(phase.file_name()));
        }
        Ok(payload)
    }

    /// Write `phase`'s snapshot, at its end.
    fn save(&self, phase: Phase, payload: impl FnOnce() -> Vec<u8>) -> Result<(), CkptError> {
        self.write(phase, |dir| phase.path_in(dir), payload)
    }

    /// Write the back half's finished component at queue `position`, once.
    fn save_component(&self, position: usize, out: &ComponentOutput) -> Result<(), CkptError> {
        let payload = || DsdState::encode(position, out);
        self.write(Phase::Dsd, |dir| component_path(dir, position), payload)
    }

    /// Write `payload` as the `phase` file at `path(dir)`, and count it.
    fn write(
        &self,
        phase: Phase,
        path: impl FnOnce(&Path) -> PathBuf,
        payload: impl FnOnce() -> Vec<u8>,
    ) -> Result<(), CkptError> {
        let Some(dir) = self.dir() else {
            return Ok(());
        };
        let start = Instant::now();
        let bytes = write_checkpoint(&path(dir), phase, self.fingerprint, &payload())?;
        let took = start.elapsed();
        let mut log = self.log();
        log.written.add(phase, bytes, took);
        if phase == Phase::Dsd {
            log.component_s += took.as_secs_f64();
        }
        Ok(())
    }

    /// What the run wrote, when it has a directory.
    fn report(&self) -> Option<CheckpointReport> {
        self.dir().map(|_| self.log().written)
    }
}

/// The walls between a run's phase boundaries, each less what the run
/// waited on snapshots inside it, and the process's CPU and peak memory
/// over the same spans.
struct PhaseClock {
    last: Instant,
    waited_at_last: f64,
    /// [`process_usage`] at the last boundary.
    usage_at_last: Option<(f64, u64)>,
    /// Per span so far: its CPU seconds and the peak resident set at its
    /// end; `None` once a reading failed.
    spans: Option<Vec<(f64, u64)>>,
}

impl PhaseClock {
    /// A clock whose first span starts now; the counters are read inside
    /// it, as every later reading is inside the span it ends.
    fn start() -> PhaseClock {
        let last = Instant::now();
        let usage_at_last = process_usage();
        let spans = usage_at_last.map(|_| Vec::new());
        PhaseClock { last, waited_at_last: 0.0, usage_at_last, spans }
    }

    /// The span since the last boundary, less the snapshot waits in it:
    /// `waited` is [`SnapshotLog::waited_s`] now.
    fn lap(&mut self, waited: f64) -> f64 {
        let usage = process_usage();
        let now = Instant::now();
        let span = (now - self.last).as_secs_f64() - (waited - self.waited_at_last);
        (self.last, self.waited_at_last) = (now, waited);
        self.spans = match (self.spans.take(), self.usage_at_last, usage) {
            (Some(mut spans), Some((cpu_then, _)), Some((cpu, hwm))) => {
                // The kernel folds its per-thread counts into `VmHWM`
                // lazily, so a reading can fall below an earlier one; the
                // peak so far cannot.
                let peak = spans.last().map_or(hwm, |&(_, before)| hwm.max(before));
                spans.push((cpu - cpu_then, peak));
                Some(spans)
            }
            _ => None,
        };
        self.usage_at_last = usage;
        span.max(0.0)
    }

    /// The CPU seconds and `VmHWM` of the four spans of a run.
    fn usage(&self) -> (Option<[f64; 4]>, Option<[u64; 4]>) {
        let spans: Option<&[(f64, u64); 4]> = self.spans.as_deref().and_then(|s| s.try_into().ok());
        (spans.map(|s| s.map(|(cpu, _)| cpu)), spans.map(|s| s.map(|(_, hwm)| hwm)))
    }
}

/// Phase 1 as the run that wrote `rr.ckpt` over `n_input` reads left it;
/// its ledger is reserved on `budget` here, before any index.
fn loaded_rr(state: RrState, n_input: usize, budget: &MemoryBudget) -> Result<RrResult, CkptError> {
    if state.kept.last().is_some_and(|&last| last as usize >= n_input) {
        return Err(CkptError::Corrupt("rr checkpoint is for a different input"));
    }
    Ok(RrResult {
        kept: state.kept.into_iter().map(SeqId).collect(),
        removed: state.removed.into_iter().map(|(a, b)| (SeqId(a), SeqId(b))).collect(),
        ledger: Arc::new(PairLedger::from_entries(state.ledger, state.ledger_dropped, budget)),
        ahead_discarded: 0,
        trace: state.trace,
        windows: None,
    })
}

/// Phase 2 as the run that wrote `ccd.ckpt` over `n_kept` survivors left
/// it: the forest rebuilt from its edges.
fn loaded_ccd(state: CcdState, n_kept: usize) -> Result<CcdResult, CkptError> {
    if state.survivors != n_kept {
        return Err(CkptError::Corrupt("ccd checkpoint is for a different input"));
    }
    let edges = state.edges.into_iter().map(|(a, b)| (SeqId(a), SeqId(b))).collect();
    Ok(CcdResult::from_edges(n_kept, edges, state.deferred, state.trace))
}

/// Run the pipeline on `input` — any [`SeqStore`], such as a
/// [`pfam_seq::SequenceSet`] — keeping on disk what `hooks` says.
///
/// Refuses to start — with a typed error, never an abort or an empty
/// answer — when the configuration cannot work on this input: no
/// [`index_plan`] fits the budget.
pub fn run_pipeline(
    input: &dyn SeqStore,
    config: &PipelineConfig,
    hooks: &PipelineHooks,
) -> Result<PipelineResult, PipelineError> {
    let mut clock = PhaseClock::start();
    index_plan(input, &config.cluster, None)?;
    let snapshots = Snapshots::open(hooks, input, config)?;
    let mut phases = PhaseReport::default();

    // ---- Phases 1+2: redundancy removal, then connected components of
    // the survivors, each saved when complete, both mining one suffix index
    // of the input, dropped before the back half starts. CCD sees the
    // survivors through a view of the input (no re-pack); its local id `i`
    // maps back to original id `kept[i]`. A run resumed from `rr.ckpt`
    // builds that index for CCD alone — and none when there is a
    // `ccd.ckpt`. ----
    let loaded = match snapshots.load(Phase::Rr)? {
        Some(payload) => {
            Some(loaded_rr(RrState::decode(&payload)?, input.len(), &config.cluster.budget)?)
        }
        None => None,
    };
    let prior =
        snapshots.load(Phase::Ccd)?.map(|payload| CcdState::decode(&payload)).transpose()?;
    let indexed = loaded.is_none() || prior.is_none();
    let front_half = |front: Option<&FrontHalf<'_>>| {
        phases.index_s = clock.lap(snapshots.log().waited_s());
        let rr = match loaded {
            Some(rr) => rr,
            None => {
                let rr = front.expect("a run that starts at RR holds an index").rr();
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
                rr
            }
        };
        phases.rr_s = clock.lap(snapshots.log().waited_s());
        let ccd = match prior {
            Some(state) => loaded_ccd(state, rr.kept.len())?,
            None => {
                let ccd = front.expect("a run that runs CCD holds an index").ccd(&rr);
                snapshots.save(Phase::Ccd, || {
                    let pairs = ccd.edges.iter().map(|&(a, b)| (a.0, b.0)).collect();
                    let (deferred, trace) = (ccd.deferred.clone(), ccd.trace.clone());
                    CcdState { survivors: rr.kept.len(), edges: pairs, deferred, trace }.encode()
                })?;
                ccd
            }
        };
        phases.ccd_s = clock.lap(snapshots.log().waited_s());
        Ok::<_, CkptError>((rr, ccd))
    };
    let (rr, mut ccd) = match indexed {
        true => with_front_half(input, &config.cluster, |front| front_half(Some(front)))?,
        false => front_half(None)?,
    };
    let ledger_dropped = rr.ledger.dropped();
    let ccd_trace = std::mem::take(&mut ccd.trace);
    let windows = WindowReport { rr: rr.windows, ccd: ccd.windows };
    // The finished front half as the back half consumes it: the components
    // under `input` ids and what CCD knows of the pairs inside them.
    let local_to_input = |c: &Vec<SeqId>| c.iter().map(|&local| rr.kept[local.index()]).collect();
    let components: Vec<Vec<SeqId>> = ccd.components.iter().map(local_to_input).collect();
    let known = KnownPairs::new(
        input,
        &config.cluster,
        &rr.kept,
        &rr.ledger,
        &ccd.components,
        &ccd.edges,
        std::mem::take(&mut ccd.deferred),
        std::mem::take(&mut ccd.filled_ahead),
        config.min_component_size,
    );
    let (ccd_held, ccd_discarded) = known.filled_ahead();
    let filled_ahead = AheadReport { rr_discarded: rr.ahead_discarded, ccd_held, ccd_discarded };

    // ---- Phases 3+4: fused BGG→DSD, one pass over the large components
    // no file holds yet, heaviest first. Each is saved as its own file on
    // the worker that finished it. ----
    let large = |&c: &usize| components[c].len() >= config.min_component_size;
    let selected: Vec<usize> = (0..components.len()).filter(large).collect();
    let mut slots: Vec<Option<ComponentOutput>> = selected.iter().map(|_| None).collect();
    for DsdState { position, output } in snapshots.load_components()? {
        let queued = selected.get(position).map(|&c| &components[c]);
        if queued != Some(&output.graph.members) || slots[position].replace(output).is_some() {
            return Err(CkptError::Corrupt("a component file does not match the queue").into());
        }
    }
    let todo: Vec<usize> = (0..slots.len()).filter(|&p| slots[p].is_none()).collect();
    let (outputs, workers) = stream_graphs(
        config,
        todo.len(),
        |i| known.n_deferred(selected[todo[i]]),
        |i| known.component_graph(selected[todo[i]]),
        |i, out| snapshots.save_component(todo[i], &out).map(|()| out),
    );
    for (&position, out) in todo.iter().zip(outputs) {
        slots[position] = Some(out?);
    }

    // ---- The result, from the finished queue in queue order. ----
    let members = selected.iter().flat_map(|&c| &components[c]);
    let residues = members.map(|&id| input.seq_len(id) as u64).sum();
    let mut bgg_trace = PhaseTrace { index_residues: residues, ..PhaseTrace::default() };
    let mut shingle_stats = ShingleStats::default();
    let mut component_graphs = Vec::with_capacity(selected.len());
    let mut dense_subgraphs = Vec::new();
    for (ci, out) in slots.into_iter().enumerate() {
        let out = out.expect("the pass finishes every queued component");
        shingle_stats.absorb(&out.stats);
        bgg_trace.batches.push(out.record);
        for local_members in &out.subgraphs {
            let density = subgraph_density(&out.graph.graph, local_members);
            let members = local_members.iter().map(|&l| out.graph.original_id(l)).collect();
            dense_subgraphs.push(DenseSubgraph { members, component: ci, density });
        }
        component_graphs.push(out.graph);
    }
    // Deterministic output order: biggest first, then by first member.
    dense_subgraphs
        .sort_by(|a, b| b.members.len().cmp(&a.members.len()).then(a.members.cmp(&b.members)));

    phases.back_half_s = clock.lap(snapshots.log().waited_s());
    (phases.cpu_s, phases.hwm_bytes) = clock.usage();
    phases.workers = workers;
    phases.checkpoints_s = snapshots.log().io_s();
    Ok(PipelineResult {
        n_input: input.len(),
        components,
        non_redundant: rr.kept,
        component_graphs,
        dense_subgraphs,
        traces: (rr.trace, ccd_trace, bgg_trace),
        shingle_stats,
        ledger_dropped,
        filled_ahead,
        windows,
        checkpoints: snapshots.report(),
        phases,
    })
}

impl PipelineConfig {
    /// [`run_pipeline`] with the default hooks — nothing on disk — for
    /// callers that have no use for its error.
    ///
    /// # Panics
    ///
    /// When this configuration cannot work on `input` ([`PipelineError`]).
    pub fn run(&self, input: &dyn SeqStore) -> PipelineResult {
        run_pipeline(input, self, &PipelineHooks::default()).unwrap_or_else(|e| {
            panic!("the pipeline cannot run this configuration on this input: {e}")
        })
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
    fn a_fresh_run_leaves_no_file_of_another_run() {
        // A run killed in CCD must leave its own `rr.ckpt` and no
        // `ccd.ckpt`: a run without `resume` deletes every snapshot it
        // finds before it writes one; a resumed run reads them.
        let d = small_dataset(31);
        let config = PipelineConfig::for_tests();
        let dir = std::env::temp_dir().join("pfam-pipeline-fresh");
        let _ = std::fs::remove_dir_all(&dir);
        let hooks = PipelineHooks { checkpoint: Some(dir.clone()), resume: false };
        run_pipeline(&d.set, &config, &hooks).expect("an earlier run");
        for resume in [true, false] {
            let opened = PipelineHooks { resume, ..hooks.clone() };
            Snapshots::open(&opened, &d.set, &config).expect("open the directory");
            let left = std::fs::read_dir(&dir).expect("the directory").count();
            assert_eq!(left == 0, !resume, "resume {resume}: {left} files left");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_phases_add_up_to_the_run() {
        let d = small_dataset(30);
        let config = PipelineConfig::for_tests();
        let dir = std::env::temp_dir().join("pfam-pipeline-phases");
        let _ = std::fs::remove_dir_all(&dir);
        for checkpoint in [None, Some(dir.clone())] {
            let hooks = PipelineHooks { checkpoint, resume: false };
            let start = Instant::now();
            let r = run_pipeline(&d.set, &config, &hooks).expect("a run");
            let wall = start.elapsed().as_secs_f64();
            let phases = r.phases;
            let waited = phases.index_s + phases.rr_s + phases.ccd_s + phases.back_half_s;
            let total = waited + phases.checkpoints_s;
            assert!(total >= 0.95 * wall, "{phases} of a {wall:.4} s run");
            assert!(waited <= wall, "{phases} of a {wall:.4} s run");
            assert!(phases.rr_s > 0.0 && phases.back_half_s > 0.0, "{phases}");
            assert!(phases.workers.bgg_s + phases.workers.dsd_s > 0.0, "{phases}");
            assert_eq!(phases.checkpoints_s > 0.0, hooks.checkpoint.is_some(), "{phases}");
            if cfg!(target_os = "linux") {
                let cpu = phases.cpu_s.expect("Linux has /proc/self/stat");
                let hwm = phases.hwm_bytes.expect("Linux has /proc/self/status");
                assert!(cpu.iter().all(|&s| s >= 0.0), "{phases}");
                assert!(hwm.windows(2).all(|w| w[0] <= w[1]) && hwm[0] > 0, "{phases}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
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
