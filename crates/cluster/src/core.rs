//! `ClusterCore` — the one state machine behind every RR/CCD driver.
//!
//! The paper's clustering loop is a single algorithm: consume promising
//! pairs in decreasing maximal-match order, *filter* pairs the current
//! state already resolves (co-clustered endpoints in CCD, already-redundant
//! sequences in RR), verify the survivors by alignment, and fold the
//! verdicts back into the state. Before this module the repository
//! implemented that loop eight times — six CCD drivers and two RR drivers —
//! each re-wiring the union-find, the filter and the trace bookkeeping by
//! hand.
//!
//! `ClusterCore` owns all of that mutable state exactly once:
//!
//! * the **clustering state** — a union-find forest (CCD) or the
//!   redundancy marks (RR); no other module in this crate mutates a
//!   [`UnionFind`] (`scripts/tier1.sh` greps for violations);
//! * the **pair filter** — [`ClusterCore::admit_batch`] applies the
//!   transitive-closure (CCD) or redundancy (RR) filter, records the
//!   generated/filtered counts, and keeps the pairs the closure filter
//!   drops (*deferred*: never admitted, both ends in one final component);
//!   [`ClusterCore::ahead`] is the same filter as a query — what a batch
//!   would admit right now, with nothing recorded and the union-find not
//!   path-halved — so a loop can fill a window of batches before it
//!   admits them one by one (the filters only tighten);
//! * the **accept/reject bookkeeping** — [`ClusterCore::absorb`] applies
//!   verdicts (merges, redundancy marks, accepted edges, RR's
//!   [`PairLedger`] of overlap answers) and the per-batch work trace in
//!   one place;
//! * the **finished forest** — [`CcdResult::from_core`] reads the
//!   components off it, and [`CcdResult::from_edges`] rebuilds it from a
//!   finished phase's accepted edges (what `ccd.ckpt` holds).
//!
//! Around the core sit a phase's mined pairs, lent as a slice
//! ([`crate::source::with_pair_source`]), a [`Verifier`] that fills
//! candidate lists of up to [`VERIFY_SLICE`] pairs, and two loop
//! functions that consume the slice ([`crate::policy::drive_batched`] in
//! process, [`crate::policy::drive_spmd`] across a
//! [`crate::transport::Transport`]). Every public `run_*` entry point is a
//! thin composition of those pieces.

use std::sync::Arc;

use pfam_align::{AlignScratch, PairQuery, PairVerdict};
use pfam_graph::UnionFind;
use pfam_seq::{MemoryBudget, SeqId, SeqStore};
use pfam_suffix::MatchPair;

use crate::ccd::CcdResult;
use crate::config::ClusterConfig;
use crate::ledger::PairLedger;
use crate::rr::RrResult;
use crate::trace::{BatchRecord, PhaseTrace};

/// Pairs any loop hands the verifier at once: the window
/// [`crate::policy::drive_batched`] fills ahead of admission, and the
/// slice the back half ([`crate::bgg`]) verifies a component's pairs in.
pub const VERIFY_SLICE: usize = 4096;

/// Which phase of the paper a core instance runs: the filter, the
/// verification criterion and the accept action all key off this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorePhase {
    /// Redundancy removal (Definition-1 containment test).
    Rr,
    /// Connected-component detection (Definition-2 overlap test).
    Ccd,
}

/// The outcome of verifying one candidate — a pair that survived the
/// filter, as the transports carry it: `(a, b)` sequence ids, in CCD the
/// pair as generated (`a < b`), in RR *oriented* so `a` is the
/// candidate-to-remove and `b` its potential container.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    /// First sequence id (matches the candidate's `a`).
    pub a: u32,
    /// Second sequence id (matches the candidate's `b`).
    pub b: u32,
    /// Whether the phase's acceptance criterion passed.
    pub accept: bool,
    /// The pair's Definition-2 answer off the same fill (in CCD this is
    /// `accept`; in RR it is what the ledger keeps).
    pub overlap: bool,
    /// Answered by the [`PairLedger`]: nothing was filled and the cell
    /// counts below are zero.
    pub ledger_hit: bool,
    /// Full `m·n` DP rectangle of the pair (the simulator's work unit).
    pub cells: u64,
    /// DP cells the alignment engine actually evaluated.
    pub cells_computed: u64,
    /// Full-matrix DP cells the engine avoided.
    pub cells_skipped: u64,
}

/// Mode-specific clustering state: exactly one of these exists per run,
/// and all mutation goes through [`ClusterCore`].
#[derive(Debug)]
enum ModeState {
    Ccd { uf: UnionFind, edges: Vec<(SeqId, SeqId)>, deferred: Vec<(u32, u32)>, n_merges: usize },
    Rr { redundant: Vec<Option<SeqId>>, removed: Vec<(SeqId, SeqId)>, ledger: Option<PairLedger> },
}

/// The clustering state machine. See the module docs for the contract.
pub struct ClusterCore<'s> {
    set: &'s dyn SeqStore,
    state: ModeState,
    trace: PhaseTrace,
}

impl std::fmt::Debug for ClusterCore<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterCore")
            .field("n_seqs", &self.set.len())
            .field("state", &self.state)
            .field("trace", &self.trace)
            .finish()
    }
}

impl<'s> ClusterCore<'s> {
    /// Fresh CCD state: every sequence a singleton cluster.
    pub fn new_ccd(set: &'s dyn SeqStore) -> ClusterCore<'s> {
        ClusterCore {
            set,
            state: ModeState::Ccd {
                uf: UnionFind::new(set.len()),
                edges: Vec::new(),
                deferred: Vec::new(),
                n_merges: 0,
            },
            trace: PhaseTrace {
                index_residues: set.total_residues() as u64,
                ..PhaseTrace::default()
            },
        }
    }

    /// Fresh RR state: no sequence marked redundant, no overlap answer
    /// kept (see [`ClusterCore::record_ledger`]).
    pub fn new_rr(set: &'s dyn SeqStore) -> ClusterCore<'s> {
        ClusterCore {
            set,
            state: ModeState::Rr {
                redundant: vec![None; set.len()],
                removed: Vec::new(),
                ledger: None,
            },
            trace: PhaseTrace {
                index_residues: set.total_residues() as u64,
                ..PhaseTrace::default()
            },
        }
    }

    /// Keep the overlap answer of every pair this RR core absorbs, in a
    /// [`PairLedger`] reserved on `budget` (RR only — panics on a CCD core).
    pub fn record_ledger(&mut self, budget: &MemoryBudget) {
        match &mut self.state {
            ModeState::Rr { ledger, .. } => *ledger = Some(PairLedger::recording(budget)),
            ModeState::Ccd { .. } => panic!("pair ledgers are recorded by the RR phase"),
        }
    }

    /// The sequence store the core clusters.
    pub fn set(&self) -> &'s dyn SeqStore {
        self.set
    }

    /// Admit a generated batch: open a new trace record with the
    /// generated/filtered counts and return the candidates that survive
    /// the filter. CCD drops — and keeps as *deferred* — every pair whose
    /// ends are already co-clustered; RR orients each pair
    /// `(candidate, container)` and drops it when either is marked.
    pub fn admit_batch(&mut self, pairs: &[MatchPair]) -> Vec<(u32, u32)> {
        let mut candidates = Vec::new();
        match &mut self.state {
            ModeState::Ccd { uf, deferred, .. } => {
                for p in pairs {
                    let pair = (p.a.0, p.b.0);
                    if uf.same(pair.0, pair.1) { &mut *deferred } else { &mut candidates }
                        .push(pair);
                }
            }
            ModeState::Rr { redundant, .. } => {
                candidates
                    .extend(pairs.iter().filter_map(|p| rr_candidate(self.set, redundant, p)));
            }
        }
        self.trace.batches.push(BatchRecord {
            n_generated: pairs.len(),
            n_filtered: pairs.len() - candidates.len(),
            ..BatchRecord::default()
        });
        candidates
    }

    /// The candidates [`Self::admit_batch`] would return for `pairs` right
    /// now, with nothing recorded and nothing changed: the union-find is
    /// walked to its roots, not path-halved. Both filters only ever
    /// tighten — clusters merge, marks stay — so what a later `admit_batch`
    /// of these pairs returns is an ordered subsequence of this.
    pub fn ahead(&self, pairs: &[MatchPair]) -> Vec<(u32, u32)> {
        match &self.state {
            ModeState::Ccd { uf, .. } => pairs
                .iter()
                .map(|p| (p.a.0, p.b.0))
                .filter(|&(a, b)| uf.root(a) != uf.root(b))
                .collect(),
            ModeState::Rr { redundant, .. } => {
                pairs.iter().filter_map(|p| rr_candidate(self.set, redundant, p)).collect()
            }
        }
    }

    /// Fold a verdict set into the state: record the alignment work on the
    /// most recent trace record, and apply every accepted verdict (cluster
    /// merge in CCD, redundancy mark in RR).
    pub fn absorb(&mut self, verdicts: impl IntoIterator<Item = Verdict>) {
        let mut last = self.trace.batches.last_mut();
        let mut answers = Vec::new();
        for v in verdicts {
            if let Some(last) = last.as_deref_mut() {
                last.note_verdict(&v);
            }
            match &mut self.state {
                ModeState::Ccd { uf, edges, n_merges, .. } => {
                    if v.accept {
                        edges.push((SeqId(v.a), SeqId(v.b)));
                        if uf.union(v.a, v.b) {
                            *n_merges += 1;
                        }
                    }
                }
                ModeState::Rr { redundant, removed, ledger } => {
                    if ledger.is_some() {
                        answers.push((v.a, v.b, v.overlap));
                    }
                    // First containment wins; later verdicts against an
                    // already-removed candidate are no-ops.
                    if v.accept && redundant[v.a as usize].is_none() {
                        redundant[v.a as usize] = Some(SeqId(v.b));
                        removed.push((SeqId(v.a), SeqId(v.b)));
                    }
                }
            }
        }
        if let ModeState::Rr { ledger: Some(ledger), .. } = &mut self.state {
            ledger.record(&answers);
        }
    }

    /// Record the suffix-tree nodes the pair supply visited.
    pub fn set_nodes_visited(&mut self, n: u64) {
        self.trace.nodes_visited = n;
    }
}

/// RR's candidate for pair `p`, oriented `(candidate, container)`, or
/// `None` when either read is already marked redundant. The containment
/// candidate is the shorter read, ties toward the higher id, so results do
/// not depend on generation order.
fn rr_candidate(
    set: &dyn SeqStore,
    redundant: &[Option<SeqId>],
    p: &MatchPair,
) -> Option<(u32, u32)> {
    let (la, lb) = (set.seq_len(p.a), set.seq_len(p.b));
    let (cand, container) =
        if la < lb || (la == lb && p.a.0 > p.b.0) { (p.a, p.b) } else { (p.b, p.a) };
    let live = redundant[cand.index()].is_none() && redundant[container.index()].is_none();
    live.then_some((cand.0, container.0))
}

impl CcdResult {
    /// The empty clustering (empty input short-circuit).
    pub fn empty() -> CcdResult {
        CcdResult {
            components: Vec::new(),
            edges: Vec::new(),
            deferred: Vec::new(),
            filled_ahead: Vec::new(),
            n_merges: 0,
            trace: PhaseTrace::default(),
            windows: None,
        }
    }

    /// Assemble the phase result from a finished core — the single
    /// constructor every CCD driver funnels through — with no verdict
    /// filled ahead: a loop that fills ahead returns those itself.
    pub fn from_core(core: ClusterCore<'_>) -> CcdResult {
        match core.state {
            ModeState::Ccd { uf, edges, deferred, n_merges } => {
                CcdResult::of_forest(uf, edges, deferred, n_merges, core.trace)
            }
            ModeState::Rr { .. } => panic!("CcdResult::from_core on an RR core"),
        }
    }

    /// Rebuild a finished phase over `n` reads from what `ccd.ckpt` holds:
    /// its accepted `edges` in verification order, its `deferred` pairs and
    /// its `trace`. The forest the edges span has the master loop's
    /// partition, and uniting them in that order repeats its merges. Every
    /// id must be under `n`.
    pub fn from_edges(
        n: usize,
        edges: Vec<(SeqId, SeqId)>,
        deferred: Vec<(u32, u32)>,
        trace: PhaseTrace,
    ) -> CcdResult {
        let mut uf = UnionFind::new(n);
        let n_merges = edges.iter().filter(|&&(a, b)| uf.union(a.0, b.0)).count();
        CcdResult::of_forest(uf, edges, deferred, n_merges, trace)
    }

    /// The phase result over a finished forest.
    fn of_forest(
        mut uf: UnionFind,
        edges: Vec<(SeqId, SeqId)>,
        deferred: Vec<(u32, u32)>,
        n_merges: usize,
        trace: PhaseTrace,
    ) -> CcdResult {
        let groups = uf.groups().into_iter();
        CcdResult {
            components: groups.map(|g| g.into_iter().map(SeqId).collect()).collect(),
            edges,
            deferred,
            filled_ahead: Vec::new(),
            n_merges,
            trace,
            windows: None,
        }
    }
}

impl RrResult {
    /// The empty RR outcome (empty input short-circuit).
    pub fn empty() -> RrResult {
        RrResult {
            kept: Vec::new(),
            removed: Vec::new(),
            ledger: Arc::default(),
            ahead_discarded: 0,
            trace: PhaseTrace::default(),
            windows: None,
        }
    }

    /// Assemble the phase result from a finished core; the ledger keeps
    /// the pairs between two survivors, under their dense ids.
    pub fn from_core(core: ClusterCore<'_>) -> RrResult {
        match core.state {
            ModeState::Rr { redundant, removed, ledger } => {
                let mut kept = Vec::new();
                let dense_of: Vec<u32> = redundant
                    .iter()
                    .enumerate()
                    .map(|(id, container)| match container {
                        Some(_) => u32::MAX,
                        None => {
                            kept.push(SeqId(id as u32));
                            kept.len() as u32 - 1
                        }
                    })
                    .collect();
                let ledger = ledger.map(|l| l.sealed(&dense_of)).unwrap_or_default();
                let ledger = Arc::new(ledger);
                let trace = core.trace;
                RrResult { kept, removed, ledger, ahead_discarded: 0, trace, windows: None }
            }
            ModeState::Ccd { .. } => panic!("RrResult::from_core on a CCD core"),
        }
    }
}

/// Verdict computation for one phase: the single place the alignment
/// engine — and, before it, the run's [`PairLedger`] — is consulted.
/// `Sync`, so the loops may share it across worker threads; each thread
/// uses its own scratch arena inside the engine.
///
/// Every fill of a run aligns the lower id as `x` — the traceback's
/// tie-breaks are not transposition-invariant, and a pair must mean one
/// alignment whichever phase fills it — so RR reads the containment of
/// whichever side its candidate `a` is, plus the overlap answer for the
/// ledger.
pub struct Verifier {
    engine: pfam_align::AlignEngine,
    phase: CorePhase,
    ledger: Arc<PairLedger>,
    /// Verdicts filled earlier in the run, sorted by `(a, b)`.
    filled: Vec<Verdict>,
}

/// Where the groups of a candidate list are filled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyOn {
    /// Across the rayon pool, a group at a time: the in-process master.
    Pool,
    /// On the calling thread: a worker that is itself one of many.
    Caller,
}

impl Verifier {
    /// Build the verifier `config` selects for `phase`, knowing no answer
    /// in advance.
    pub fn new(config: &ClusterConfig, phase: CorePhase) -> Verifier {
        Verifier { engine: config.engine(), phase, ledger: Arc::default(), filled: Vec::new() }
    }

    /// Answer from `ledger` what it holds (CCD's criterion only: the
    /// ledger keeps overlap answers).
    pub fn with_ledger(self, ledger: Arc<PairLedger>) -> Verifier {
        Verifier { ledger, ..self }
    }

    /// Answer with `verdicts` — fills this phase's criterion already made,
    /// kept whole, cells and all (CCD only: RR knows nothing in advance).
    /// They count as fills wherever they are read.
    pub(crate) fn with_filled(self, mut verdicts: Vec<Verdict>) -> Verifier {
        verdicts.sort_unstable_by_key(|v| (v.a, v.b));
        verdicts.dedup_by_key(|v| (v.a, v.b));
        Verifier { filled: verdicts, ..self }
    }

    /// How many verdicts [`Self::with_filled`] holds, repeats merged.
    pub(crate) fn n_filled(&self) -> usize {
        self.filled.len()
    }

    /// What the ledger, or a fill made earlier, knows of candidate `(a, b)`.
    fn known(&self, (a, b): (u32, u32)) -> Option<Verdict> {
        if self.phase == CorePhase::Rr {
            return None;
        }
        if let Ok(at) = self.filled.binary_search_by_key(&(a, b), |v| (v.a, v.b)) {
            return Some(self.filled[at]);
        }
        let overlap = self.ledger.lookup(a.min(b), a.max(b))?;
        Some(Verdict {
            a,
            b,
            accept: overlap,
            overlap,
            ledger_hit: true,
            cells: 0,
            cells_computed: 0,
            cells_skipped: 0,
        })
    }

    /// The reads candidate `(a, b)` is filled as — `x` the lower id — and
    /// what this phase asks of them.
    fn question(&self, (a, b): (u32, u32)) -> (SeqId, SeqId, PairQuery) {
        let (lo, hi) = (a.min(b), a.max(b));
        let ask = match self.phase {
            CorePhase::Ccd => PairQuery::OVERLAP,
            CorePhase::Rr => PairQuery { x_in_y: a == lo, y_in_x: a != lo, overlap: true },
        };
        (SeqId(lo), SeqId(hi), ask)
    }

    /// Candidate `(a, b)`'s verdict off the engine's answer `v` to its
    /// [`Self::question`], over a rectangle of `cells`.
    fn filled(&self, (a, b): (u32, u32), v: PairVerdict, cells: u64) -> Verdict {
        Verdict {
            a,
            b,
            accept: match self.phase {
                CorePhase::Ccd => v.overlap,
                CorePhase::Rr => v.x_in_y || v.y_in_x,
            },
            overlap: v.overlap,
            ledger_hit: false,
            cells,
            cells_computed: v.cells_computed,
            cells_skipped: v.cells_skipped,
        }
    }

    /// Verify one candidate on its own, through the single-pair fill.
    pub fn verdict(&self, set: &dyn SeqStore, candidate: (u32, u32)) -> Verdict {
        if let Some(known) = self.known(candidate) {
            return known;
        }
        let (lo, hi, ask) = self.question(candidate);
        let (x, y) = (set.codes(lo), set.codes(hi));
        let cells = (x.len() as u64) * (y.len() as u64);
        self.filled(candidate, self.engine.judge(x, y, ask), cells)
    }

    /// Verify a candidate list; the verdicts come back in its order, each
    /// what [`Self::verdict`] gives the candidate alone. The ledger answers
    /// what it can; the rest are sorted by shape and cut into groups of the
    /// engine's [`AlignEngine::batch_lanes`] — one batch fill each
    /// ([`AlignEngine::judge_batch`]), thirty-two (AVX-512) or sixteen
    /// (AVX2) pairs of about one size to a register — which `on` spreads
    /// over the rayon pool or keeps on the caller's thread.
    ///
    /// [`AlignEngine::judge_batch`]: pfam_align::AlignEngine::judge_batch
    /// [`AlignEngine::batch_lanes`]: pfam_align::AlignEngine::batch_lanes
    pub fn verify(
        &self,
        set: &dyn SeqStore,
        candidates: &[(u32, u32)],
        on: VerifyOn,
    ) -> Vec<Verdict> {
        let mut verdicts: Vec<Option<Verdict>> =
            candidates.iter().map(|&c| self.known(c)).collect();
        // (n, m, position) of every candidate left to fill.
        let mut rest: Vec<(usize, usize, usize)> = Vec::new();
        for (at, &c) in candidates.iter().enumerate().filter(|&(at, _)| verdicts[at].is_none()) {
            let (lo, hi, _) = self.question(c);
            rest.push((set.seq_len(hi), set.seq_len(lo), at));
        }
        // Largest first: a worker's first batch is its largest, so its batch
        // buffers are sized once and never regrown (a regrowth can leave the
        // old buffer resident beside the new).
        rest.sort_unstable_by(|a, b| b.cmp(a));
        // `own`: fill in an arena of its own, freed with it, rather than
        // the thread's.
        let fill = |group: &[(usize, usize, usize)], own: bool| -> Vec<Verdict> {
            let asks = group.iter().map(|&(_, _, at)| self.question(candidates[at]));
            let asked: Vec<(&[u8], &[u8], PairQuery)> =
                asks.map(|(lo, hi, ask)| (set.codes(lo), set.codes(hi), ask)).collect();
            let mut answers = Vec::with_capacity(group.len());
            match own {
                true => {
                    self.engine.judge_batch_with(&asked, &mut AlignScratch::new(), &mut answers)
                }
                false => self.engine.judge_batch(&asked, &mut answers),
            }
            let verdict = |(&(n, m, at), v)| self.filled(candidates[at], v, (m * n) as u64);
            group.iter().zip(answers).map(verdict).collect()
        };
        let groups: Vec<&[(usize, usize, usize)]> =
            rest.chunks(self.engine.batch_lanes()).collect();
        let filled: Vec<Vec<Verdict>> = match on {
            VerifyOn::Pool if groups.len() > 1 => {
                use rayon::prelude::*;
                groups.par_iter().map(|group| fill(group, false)).collect()
            }
            // A lone group runs on the calling thread, which outlives the
            // call: its batch buffers would stay resident beside those of
            // the pool's next workers.
            VerifyOn::Pool => groups.iter().map(|group| fill(group, true)).collect(),
            VerifyOn::Caller => groups.iter().map(|group| fill(group, false)).collect(),
        };
        for (&(_, _, at), v) in rest.iter().zip(filled.into_iter().flatten()) {
            verdicts[at] = Some(v);
        }
        verdicts.into_iter().map(|v| v.expect("every candidate was answered or filled")).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfam_seq::{SequenceSet, SequenceSetBuilder};

    fn set_of(seqs: &[&str]) -> SequenceSet {
        let mut b = SequenceSetBuilder::new();
        for (i, s) in seqs.iter().enumerate() {
            b.push_letters(format!("s{i}"), s.as_bytes()).unwrap();
        }
        b.finish()
    }

    fn pair(a: u32, b: u32) -> MatchPair {
        MatchPair::new(SeqId(a), SeqId(b), 10)
    }

    fn accept(a: u32, b: u32) -> Verdict {
        Verdict {
            a,
            b,
            accept: true,
            overlap: true,
            ledger_hit: false,
            cells: 4,
            cells_computed: 4,
            cells_skipped: 0,
        }
    }

    #[test]
    fn ccd_filter_skips_co_clustered_pairs() {
        let set = set_of(&["MKVLW", "MKVLW", "MKVLW"]);
        let mut core = ClusterCore::new_ccd(&set);
        let c = core.admit_batch(&[pair(0, 1)]);
        assert_eq!(c.len(), 1);
        core.absorb(vec![accept(0, 1)]);
        // 0 and 1 are now co-clustered: the pair is filtered, 0–2 is not.
        let c = core.admit_batch(&[pair(0, 1), pair(0, 2)]);
        assert_eq!(c, vec![(0, 2)]);
        let r = CcdResult::from_core(core);
        assert_eq!(r.trace.total_generated(), 3);
        assert_eq!(r.trace.total_filtered(), 1);
        assert_eq!(r.n_merges, 1);
        assert_eq!(r.deferred, vec![(0, 1)], "the filtered pair is kept, not forgotten");
    }

    #[test]
    fn rr_orientation_marks_the_shorter_sequence() {
        let set = set_of(&["MKVLWAAKND", "MKVLW"]);
        let mut core = ClusterCore::new_rr(&set);
        let c = core.admit_batch(&[pair(0, 1)]);
        assert_eq!(c, vec![(1, 0)], "shorter sequence is the removal candidate");
        core.absorb(vec![accept(1, 0)]);
        let r = RrResult::from_core(core);
        assert_eq!(r.kept, vec![SeqId(0)]);
        assert_eq!(r.removed, vec![(SeqId(1), SeqId(0))]);
    }

    #[test]
    fn a_finished_phase_rebuilds_from_its_edges() {
        let set = set_of(&["MKVLW", "MKVLW", "GGHHW", "MKVLW"]);
        let mut core = ClusterCore::new_ccd(&set);
        core.admit_batch(&[pair(0, 1), pair(1, 3), pair(0, 3), pair(1, 2)]);
        core.absorb(vec![accept(0, 1), accept(1, 3), accept(0, 3)]);
        assert!(core.admit_batch(&[pair(0, 1)]).is_empty(), "deferred");
        let result = CcdResult::from_core(core);
        assert_eq!((result.edges.len(), result.n_merges), (3, 2), "one edge closes a cycle");
        assert_eq!(result.deferred, vec![(0, 1)]);
        let (edges, deferred) = (result.edges.clone(), result.deferred.clone());
        let rebuilt = CcdResult::from_edges(set.len(), edges, deferred, result.trace.clone());
        assert_eq!(rebuilt.components, result.components);
        assert_eq!(rebuilt.edges, result.edges);
        assert_eq!(rebuilt.deferred, result.deferred);
        assert_eq!(rebuilt.n_merges, result.n_merges);
        assert_eq!(rebuilt.trace, result.trace);
    }
}
