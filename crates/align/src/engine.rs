//! Alignment engine for the RR/CCD/BGG hot path.
//!
//! Every alignment consumer (redundancy-removal containment, CCD overlap,
//! the SPMD workers and bipartite graph generation) goes through [`AlignEngine`] instead of calling
//! [`crate::local_affine`] directly. One evaluation ([`AlignEngine::judge`]
//! for a pair, [`AlignEngine::judge_batch`] for a group of up to
//! [`AlignEngine::batch_lanes`])
//! answers any subset of the paper's criteria for a pair — containment of
//! either side, overlap — off **one** fill and **one** traceback, in three
//! steps, and is **verdict-identical to the reference criteria by
//! construction** — every reject is a proven bound, never a heuristic:
//!
//! 1. **Length screen** (`tier` 0), per criterion. A passing containment
//!    needs `positives ≥ min_similarity · min_coverage · L` with `L` the
//!    contained side's length, and positive columns are at most
//!    `min(|x|, |y|)`, so short partners reject with zero DP cells. The
//!    overlap analogue takes `L = max(|x|,|y|)`.
//! 2. **One fill**: a single row-major pass — the batch kernel
//!    ([`crate::interpair`]) for the pairs of a `judge_batch` group inside
//!    its guard, thirty-two to an AVX-512 register or sixteen to an AVX2
//!    one, one to a lane; the scalar
//!    twin ([`crate::onepass`]) for a single pair (`judge`) and for every
//!    other pair — yields the Smith–Waterman optimum `S*`, the reference's
//!    argmax cell and the direction bits of every cell. `S* = 0` rejects
//!    (the reference returns an empty alignment), and when a criterion
//!    admits a positive screen constant `κ = ms·p_min − (1−ms)·q_max`
//!    (with `p_min` the smallest positive matrix entry and `q_max` the
//!    largest per-column penalty) any pair it accepts has `S* ≥ κ·mc·L`,
//!    so lower scores reject it before any traceback (`tier` 1).
//! 3. **Direction traceback** (`tier` 3) from the argmax cell when any
//!    requested criterion is still open, accumulating the alignment
//!    statistics in line, then the paper's criteria. The bits encode the
//!    reference traceback's own decisions, so the columns are the reference
//!    alignment's, bit for bit.
//!
//! The traceback's tie-breaks are not transposition-invariant, so a caller
//! that wants one verdict per *pair* must fix which sequence is `x` — the
//! clustering phases always pass the lower sequence id first.
//!
//! All steps share a per-worker [`AlignScratch`] arena (thread-local in the
//! convenience API), so the verdict path performs no per-pair allocation.

use std::cell::RefCell;

use pfam_seq::ScoringScheme;

use crate::alignment::{AlignOp, AlignStats};
use crate::criteria::{local_stats, ContainmentParams, OverlapParams};
use crate::interpair::WIDE_LANES;
use crate::onepass::{trace, OnePassFill};
use crate::scratch::AlignScratch;

/// Which alignment engine the clustering phases use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AlignEngineKind {
    /// The pre-engine baseline: full-matrix `local_affine` per pair.
    Reference,
    /// The screen → one-pass fill → direction traceback cascade
    /// (verdict-identical).
    #[default]
    Tiered,
}

/// Maximal-match seed coordinates for a promising pair: the match of
/// length `len` starts at `x_pos` in the first sequence and `y_pos` in the
/// second. Candidates still carry it; the engine accepts and ignores it
/// (the anchor probes it once seeded measured no faster than the fill).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Anchor {
    /// Match start in the first (x) sequence.
    pub x_pos: u32,
    /// Match start in the second (y) sequence.
    pub y_pos: u32,
    /// Match length in residues.
    pub len: u32,
}

/// Outcome of one engine evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineVerdict {
    /// Accept (contained / overlapping) or reject — bit-identical to the
    /// reference criteria.
    pub accept: bool,
    /// Step that resolved the pair: 0 length screen, 1 score reject after
    /// the fill, 3 traced (2 is retired with the anchor probes).
    pub tier: u8,
    /// DP cells evaluated: `m·n` for every pair that reaches the fill, 0
    /// for a screen reject.
    pub cells_computed: u64,
    /// `m·n` when a screen or the score threshold rejected the pair
    /// before any traceback, 0 otherwise.
    pub cells_skipped: u64,
}

/// Which of the paper's criteria one [`AlignEngine::judge`] call answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PairQuery {
    /// Definition 1: is `x` contained in `y`?
    pub x_in_y: bool,
    /// Definition 1 for the other side: is `y` contained in `x`?
    pub y_in_x: bool,
    /// Definition 2: do `x` and `y` overlap?
    pub overlap: bool,
}

impl PairQuery {
    /// Overlap only.
    pub const OVERLAP: PairQuery = PairQuery { x_in_y: false, y_in_x: false, overlap: true };
}

/// Outcome of one [`AlignEngine::judge`] call: an answer per requested
/// criterion (`false` for the ones not asked), all off the same alignment
/// of `x` against `y`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairVerdict {
    /// `x` is contained in `y`.
    pub x_in_y: bool,
    /// `y` is contained in `x`, by the statistics of `(x, y)` as aligned.
    pub y_in_x: bool,
    /// `x` and `y` overlap.
    pub overlap: bool,
    /// Step that settled the last open criterion (as
    /// [`EngineVerdict::tier`]).
    pub tier: u8,
    /// DP cells evaluated: one `m·n` rectangle if the pair reached the
    /// fill, however many criteria were asked.
    pub cells_computed: u64,
    /// `m·n` when no traceback ran, 0 otherwise.
    pub cells_skipped: u64,
}

impl PairVerdict {
    fn single(self, accept: bool) -> EngineVerdict {
        EngineVerdict {
            accept,
            tier: self.tier,
            cells_computed: self.cells_computed,
            cells_skipped: self.cells_skipped,
        }
    }
}

/// No criterion left open: the pair is settled.
const CLOSED: [bool; 3] = [false; 3];

thread_local! {
    static SCRATCH: RefCell<AlignScratch> = RefCell::new(AlignScratch::new());
}

/// The alignment engine. Cheap to construct (precomputes matrix bounds and
/// picks a fill once), plain data, `Sync` — build one per phase and share
/// it across worker threads.
pub struct AlignEngine {
    kind: AlignEngineKind,
    containment: ContainmentParams,
    overlap: OverlapParams,
    /// Smallest strictly positive substitution-matrix entry, if any.
    p_min: Option<i32>,
    /// Largest per-column penalty `max(gap_open, gap_extend, −min_score, 0)`.
    q_max: i32,
    /// The scoring scheme and the one-pass fill it gets on this host.
    fill: OnePassFill,
}

impl AlignEngine {
    /// Build an engine for the given scheme and acceptance parameters.
    pub fn new(
        kind: AlignEngineKind,
        scheme: ScoringScheme,
        containment: ContainmentParams,
        overlap: OverlapParams,
    ) -> AlignEngine {
        let codes = 0..pfam_seq::ALPHABET_SIZE as u8;
        let p_min = codes
            .clone()
            .flat_map(|a| codes.clone().map(move |b| (a, b)))
            .map(|(a, b)| scheme.matrix.score_codes(a, b))
            .filter(|&s| s > 0)
            .min();
        let q_max = scheme.gap_open.max(scheme.gap_extend).max(-scheme.matrix.min_score()).max(0);
        let fill = OnePassFill::detect(&scheme);
        AlignEngine { kind, containment, overlap, p_min, q_max, fill }
    }

    /// The same engine with its batch kernel held to at most `lanes` pairs
    /// a register, whatever the host: 16 is the AVX2 body on a host that
    /// has the AVX-512 one, and anything under 16 — 0, say — the scalar
    /// one-pass fill for every pair. For this module's forced-width tests.
    #[cfg(test)]
    fn with_lanes(mut self, lanes: usize) -> AlignEngine {
        self.fill = self.fill.with_lanes(lanes);
        self
    }

    /// Label of the widest kernel a batch's eligible lanes run on
    /// (`avx512`, `avx2` or `scalar`) — the benchmark reports it per host.
    pub fn kernel_label(&self) -> &'static str {
        self.fill.label()
    }

    /// Pairs one batch fill takes, and so the group a caller hands
    /// [`Self::judge_batch`] to fill them at once: the lanes of the widest
    /// batch kernel this host runs — 32 on AVX-512BW — and 16 otherwise.
    pub fn batch_lanes(&self) -> usize {
        self.fill.lanes()
    }

    /// Definition-2 overlap between `x` and `y`. Uses a thread-local
    /// scratch arena. `anchor` is ignored.
    pub fn overlaps(&self, x: &[u8], y: &[u8], _anchor: Option<Anchor>) -> EngineVerdict {
        let v = self.judge(x, y, PairQuery::OVERLAP);
        v.single(v.overlap)
    }

    /// Answer every criterion in `ask` off one fill of `x` against `y`.
    /// Uses a thread-local scratch arena.
    pub fn judge(&self, x: &[u8], y: &[u8], ask: PairQuery) -> PairVerdict {
        SCRATCH.with(|s| self.judge_with(x, y, ask, &mut s.borrow_mut()))
    }

    /// [`Self::judge`] with an explicit scratch arena.
    pub fn judge_with(
        &self,
        x: &[u8],
        y: &[u8],
        ask: PairQuery,
        scratch: &mut AlignScratch,
    ) -> PairVerdict {
        if self.kind == AlignEngineKind::Reference {
            let st = local_stats(x, y, self.fill.scheme());
            let open = [ask.x_in_y, ask.y_in_x, ask.overlap].map(|asked| asked && st.is_some());
            return self.verdict(x, y, open, &st.unwrap_or_default(), 3);
        }
        let open = self.length_screen(x.len(), y.len(), ask);
        if open == CLOSED {
            return self.verdict(x, y, open, &AlignStats::default(), 0);
        }
        let filled = self.fill.fill(x, y, scratch);
        self.settle(x, y, open, filled, |i, j| scratch.onepass.dir(i, j))
    }

    /// [`Self::judge`] for up to 32 pairs at once, appending their
    /// verdicts to `out` in order — each equal to what `judge` gives the
    /// pair alone, counters included. The pairs that pass their length
    /// screens and that the batch kernel takes ([`OnePassFill::is_vector`]:
    /// this host, this scheme, no side over 2 048) share **one** batch
    /// fill, a pair to a lane — or fills of sixteen, where the host has
    /// the 16-lane body only or a side is past what the 32-lane body takes;
    /// any other pair gets the scalar twin on its own. Uses a thread-local
    /// scratch arena.
    pub fn judge_batch(&self, pairs: &[(&[u8], &[u8], PairQuery)], out: &mut Vec<PairVerdict>) {
        SCRATCH.with(|s| self.judge_batch_with(pairs, &mut s.borrow_mut(), out));
    }

    /// [`Self::judge_batch`] with an explicit scratch arena.
    pub fn judge_batch_with(
        &self,
        pairs: &[(&[u8], &[u8], PairQuery)],
        scratch: &mut AlignScratch,
        out: &mut Vec<PairVerdict>,
    ) {
        assert!(pairs.len() <= WIDE_LANES, "one pair per lane");
        if self.kind == AlignEngineKind::Reference {
            out.extend(pairs.iter().map(|&(x, y, ask)| self.judge_with(x, y, ask, scratch)));
            return;
        }
        let mut open = [CLOSED; WIDE_LANES];
        // The batched pairs, with where each stands in `pairs`.
        let mut lanes: [(&[u8], &[u8]); WIDE_LANES] = [(&[], &[]); WIDE_LANES];
        let mut at = [0; WIDE_LANES];
        let mut n_lanes = 0;
        for (k, (open, &(x, y, ask))) in open.iter_mut().zip(pairs).enumerate() {
            *open = self.length_screen(x.len(), y.len(), ask);
            if *open != CLOSED && self.fill.is_vector(x.len(), y.len()) {
                (lanes[n_lanes], at[n_lanes]) = ((x, y), k);
                n_lanes += 1;
            }
        }
        let mut settled = [None; WIDE_LANES];
        let width = self.fill.lanes_for(&lanes[..n_lanes]);
        for (group, at) in lanes[..n_lanes].chunks(width).zip(at[..n_lanes].chunks(width)) {
            let ends = self.fill.fill_batch(group, scratch);
            for (lane, (&(x, y), &k)) in group.iter().zip(at).enumerate() {
                let dir = scratch.batch.lane_dirs(lane);
                settled[k] = Some(self.settle(x, y, open[k], ends[lane], dir));
            }
        }
        for ((&open, settled), &(x, y, _)) in open.iter().zip(settled).zip(pairs) {
            out.push(match settled {
                Some(verdict) => verdict,
                None if open == CLOSED => self.verdict(x, y, open, &AlignStats::default(), 0),
                None => {
                    let filled = self.fill.fill(x, y, scratch);
                    self.settle(x, y, open, filled, |i, j| scratch.onepass.dir(i, j))
                }
            });
        }
    }

    /// Step 1 — the criteria of `ask` an `m × n` pair can still meet after
    /// the proven length screens (and the criteria's empty-input
    /// rejections, which they apply before any DP): accept ⇒ positives ≥
    /// ms·mc·L, and positives ≤ min(m, n).
    fn length_screen(&self, m: usize, n: usize, ask: PairQuery) -> [bool; 3] {
        let mut open = [ask.x_in_y, ask.y_in_x, ask.overlap];
        for (open, (ms, mc, l)) in open.iter_mut().zip(self.bounds(m, n)) {
            *open &= m * n != 0 && (m.min(n) as f64) + 1e-9 >= ms * mc * l as f64;
        }
        open
    }

    /// Steps 2 and 3 of a pair whose fill returned `(score, end)` and left
    /// the directions `dir` reads. A criterion is closed on S* = 0 (the
    /// reference returns the empty alignment) or S* below the κ·mc·L every
    /// pair it accepts clears; if one stays open, the direction traceback
    /// accumulates the statistics in line and the criteria read them.
    fn settle(
        &self,
        x: &[u8],
        y: &[u8],
        mut open: [bool; 3],
        (score, end): (i32, (usize, usize)),
        dir: impl Fn(usize, usize) -> u8,
    ) -> PairVerdict {
        for (open, (ms, mc, l)) in open.iter_mut().zip(self.bounds(x.len(), y.len())) {
            let kappa = self.p_min.map_or(0.0, |p| ms * p as f64 - (1.0 - ms) * self.q_max as f64);
            *open &= score != 0 && !(kappa > 0.0 && (score as f64) + 1e-9 < kappa * mc * l as f64);
        }
        if open == CLOSED {
            return self.verdict(x, y, open, &AlignStats::default(), 1);
        }
        let matrix = &self.fill.scheme().matrix;
        let mut st = AlignStats::default();
        let start = trace(end, dir, |step, i, j| match step {
            AlignOp::Subst => st.push_subst(x[i - 1], y[j - 1], matrix),
            AlignOp::InsertY | AlignOp::InsertX => st.push_gap(),
        });
        st.x_span = end.0 - start.0;
        st.y_span = end.1 - start.1;
        self.verdict(x, y, open, &st, 3)
    }

    /// Each criterion as (similarity, coverage, covered length L).
    fn bounds(&self, m: usize, n: usize) -> [(f64, f64, usize); 3] {
        let (cp, op) = (&self.containment, &self.overlap);
        [
            (cp.min_similarity, cp.min_coverage, m),
            (cp.min_similarity, cp.min_coverage, n),
            (op.min_similarity, op.min_longer_coverage, m.max(n)),
        ]
    }

    /// The verdict of a pair settled at step `tier` with `open` still to
    /// be read off the statistics `st`.
    fn verdict(
        &self,
        x: &[u8],
        y: &[u8],
        open: [bool; 3],
        st: &AlignStats,
        tier: u8,
    ) -> PairVerdict {
        let (m, n) = (x.len(), y.len());
        let full = m as u64 * n as u64;
        PairVerdict {
            x_in_y: open[0] && self.containment.accepts(st, m),
            y_in_x: open[1] && self.containment.accepts_y(st, n),
            overlap: open[2] && self.overlap.accepts(st, m, n),
            tier,
            cells_computed: if tier == 0 { 0 } else { full },
            cells_skipped: if tier == 3 { 0 } else { full },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfam_seq::alphabet::encode;
    use pfam_seq::SubstMatrix;
    use proptest::prelude::*;

    use crate::shapes::{corpus, mutated_pair, ragged, tie_heavy, Pair};

    /// The most pairs one `judge_batch` call takes: the 32-lane body's.
    const MAX_GROUP: usize = 32;

    /// Containment of `x` only.
    const X_IN_Y: PairQuery = PairQuery { x_in_y: true, y_in_x: false, overlap: false };

    fn codes(s: &str) -> Vec<u8> {
        encode(s.as_bytes()).unwrap()
    }

    fn engine(kind: AlignEngineKind) -> AlignEngine {
        AlignEngine::new(
            kind,
            ScoringScheme::blosum62_default(),
            ContainmentParams::default(),
            OverlapParams::default(),
        )
    }

    #[test]
    fn tiered_and_reference_agree_on_handcrafted_pairs() {
        let reference = engine(AlignEngineKind::Reference);
        let pairs = [
            ("MKVLWAAK", "PPMKVLWAAKPP"), // exact containment
            ("MKVLWAAK", "PPMKVLWAEKPP"), // one substitution
            ("ACDEFGHIKLMN", "WWWWYYYY"), // unrelated
            ("MKVLW", "MKVLW"),           // identical
            ("AAAAAAAAAA", "AAAA"),       // x longer than y
        ];
        for tiered in
            [engine(AlignEngineKind::Tiered), engine(AlignEngineKind::Tiered).with_lanes(0)]
        {
            for (a, b) in pairs {
                let (x, y) = (codes(a), codes(b));
                // Anchors — plausible or out of range — are ignored.
                let anchors = [
                    None,
                    Some(Anchor { x_pos: 0, y_pos: 2, len: 4 }),
                    Some(Anchor { x_pos: 100, y_pos: 0, len: 50 }),
                ];
                for anc in anchors {
                    assert_eq!(
                        tiered.judge(&x, &y, X_IN_Y).x_in_y,
                        reference.judge(&x, &y, X_IN_Y).x_in_y,
                        "containment {a} vs {b}"
                    );
                    assert_eq!(
                        tiered.overlaps(&x, &y, anc).accept,
                        reference.overlaps(&x, &y, anc).accept,
                        "overlap {a} vs {b} (anchor {anc:?})"
                    );
                }
            }
        }
    }

    #[test]
    fn cell_counters_follow_the_three_outcomes() {
        let engine = engine(AlignEngineKind::Tiered);
        let x = codes("MKVLWAAK");
        // Traced: the fill ran once over the rectangle, nothing skipped.
        let contained = |y: &str| engine.judge(&x, &codes(y), X_IN_Y);
        let traced = contained("PPMKVLWAAKPP");
        assert_eq!((traced.tier, traced.x_in_y), (3, true));
        assert_eq!((traced.cells_computed, traced.cells_skipped), (8 * 12, 0));
        // Length screen: no cell computed, the whole rectangle skipped.
        let screened = contained("WW");
        assert_eq!(screened.tier, 0);
        assert_eq!((screened.cells_computed, screened.cells_skipped), (0, 8 * 2));
        // Score reject: the fill ran, the traceback did not.
        let rejected = contained("PPPPPPPPPP");
        assert_eq!((rejected.tier, rejected.x_in_y), (1, false));
        assert_eq!((rejected.cells_computed, rejected.cells_skipped), (8 * 10, 8 * 10));
    }

    /// A lane over the side limit goes to the scalar twin alone: the rest
    /// of its group is still batch-filled, and every verdict is `judge`'s
    /// and the reference engine's.
    #[test]
    fn a_lane_over_the_side_limit_leaves_the_rest_of_its_group_batched() {
        let tiered = engine(AlignEngineKind::Tiered);
        let reference = engine(AlignEngineKind::Reference);
        let mut state = 11u32;
        let long: Vec<u8> = (0..2049)
            .map(|_| {
                state = state.wrapping_mul(1_103_515_245).wrapping_add(12_345);
                (state >> 16) as u8 % 20
            })
            .collect();
        let pairs = [
            (codes("MKVLWAAKNDCQEG"), codes("GGMKVLWAAKNDCQEGHH")),
            (long[1000..1300].to_vec(), long.clone()),
            (codes("ACDEFGHIKLMNPQ"), codes("ACDEFGHIKLMNPQRSTV")),
        ];
        let all = PairQuery { x_in_y: true, y_in_x: true, overlap: true };
        let asked: Vec<_> = pairs.iter().map(|(x, y)| (&x[..], &y[..], all)).collect();
        let mut out = Vec::new();
        tiered.judge_batch(&asked, &mut out);
        if tiered.fill.is_vector(1, 1) {
            // The batch holds the two short pairs, in lanes 0 and 1, cell
            // for cell as the scalar twin fills them.
            let scalar = OnePassFill::scalar(tiered.fill.scheme());
            let mut own = AlignScratch::new();
            SCRATCH.with(|s| {
                let batch = &s.borrow().batch;
                for (lane, (x, y)) in [&pairs[0], &pairs[2]].into_iter().enumerate() {
                    let twin = scalar.probe(x, y, &mut own);
                    let cells = (1..=x.len()).flat_map(|i| (1..=y.len()).map(move |j| (i, j)));
                    let dir = batch.lane_dirs(lane);
                    let dirs: Vec<u8> = cells.map(|(i, j)| dir(i, j)).collect();
                    assert_eq!(dirs, twin.dirs, "lane {lane}");
                }
            });
        }
        assert!(out[1].x_in_y, "the long lane was filled and traced");
        for (v, &(x, y, q)) in out.iter().zip(&asked) {
            assert_eq!(*v, tiered.judge(x, y, q));
            let r = reference.judge(x, y, q);
            assert_eq!((v.x_in_y, v.y_in_x, v.overlap), (r.x_in_y, r.y_in_x, r.overlap));
        }
    }

    fn blosum(gap_open: i32, gap_extend: i32) -> ScoringScheme {
        ScoringScheme { matrix: SubstMatrix::blosum62().clone(), gap_open, gap_extend }
    }

    /// BLASTP default, cheap gaps, linear gaps (`open = ext`, every stay /
    /// open tie), free extension.
    fn gap_regimes() -> [ScoringScheme; 4] {
        [blosum(11, 1), blosum(4, 1), blosum(3, 3), blosum(2, 0)]
    }

    /// Every subset of the criteria.
    fn queries() -> impl Iterator<Item = PairQuery> {
        (0..8u8).map(|b| PairQuery { x_in_y: b & 1 != 0, y_in_x: b & 2 != 0, overlap: b & 4 != 0 })
    }

    /// `pairs`, cut into groups of `lanes`, through the batch entry of the
    /// tiered engine held to the 16-lane body and to the scalar twin: each
    /// `PairVerdict` — tier and cell counters included — is the host
    /// engine's `judge`, for every query asked of all lanes and then for a
    /// different one per lane. (`tests/engine_props.rs` holds the host's
    /// own batch entry, on the same pairs, to `judge` and the reference.)
    fn assert_widths_agree(s: &ScoringScheme, pairs: &[Pair], lanes: usize) {
        let (cp, op) = (ContainmentParams::default(), OverlapParams::default());
        let tiered = || AlignEngine::new(AlignEngineKind::Tiered, s.clone(), cp, op);
        let (host, forced) = (tiered(), [tiered().with_lanes(16), tiered().with_lanes(0)]);
        let all: Vec<PairQuery> = queries().collect();
        for (g, group) in pairs.chunks(lanes).enumerate() {
            for round in 0..=all.len() {
                let ask = |k: usize| if round < all.len() { all[round] } else { all[(g + k) % 8] };
                let asked: Vec<(&[u8], &[u8], PairQuery)> =
                    group.iter().enumerate().map(|(k, (x, y))| (&x[..], &y[..], ask(k))).collect();
                let want: Vec<_> = asked.iter().map(|&(x, y, q)| host.judge(x, y, q)).collect();
                for e in &forced {
                    let mut out = Vec::new();
                    e.judge_batch(&asked, &mut out);
                    let (gaps, label) = ((s.gap_open, s.gap_extend), e.kernel_label());
                    assert_eq!(
                        out, want,
                        "gaps {gaps:?}, group {g} of {lanes}: {label}, round {round}"
                    );
                }
            }
        }
    }

    /// Forced widths on the corpus and the shapes that have broken a
    /// kernel, under every gap regime, in groups around both bodies' lane
    /// counts.
    #[test]
    fn forced_widths_give_the_host_verdicts() {
        let mut pairs = ragged();
        pairs.extend(tie_heavy());
        pairs.extend(corpus().into_iter().step_by(4));
        for s in gap_regimes() {
            for lanes in [1, 2, 15, 16, 17, 31, MAX_GROUP] {
                // One group size per scheme covers the whole list; the
                // others see its head, which holds every ragged shape.
                let n = if lanes == MAX_GROUP {
                    pairs.len()
                } else {
                    (2 * lanes.max(8)).min(pairs.len())
                };
                assert_widths_agree(&s, &pairs[..n], lanes);
            }
        }
    }

    /// Forced widths on both sides of the batch kernel's limits: the side
    /// limits (1 448 residues for the 32-lane body, 2 048 for any batch),
    /// the penalty limit, the `i8` matrix limit and the score limit under
    /// that matrix.
    #[test]
    fn forced_widths_give_the_host_verdicts_at_the_limits() {
        let (a, b) = mutated_pair(7, 150, 0.08, 0.01);
        let side = |len: usize| {
            vec![(a.clone(), b.clone()), (vec![3; 64], vec![3; len]), (vec![3; len], vec![3; 64])]
        };
        for len in [1448, 1449, 2048] {
            assert_widths_agree(&blosum(11, 1), &side(len), 2);
            assert_widths_agree(&blosum(11, 1), &side(len), 3);
        }
        assert_widths_agree(&blosum(11, 1), &side(2049), 2);

        let pairs: Vec<Pair> = ragged().into_iter().take(MAX_GROUP).collect();
        assert_widths_agree(&blosum(2048, 2048), &pairs, MAX_GROUP);
        assert_widths_agree(&blosum(2049, 2049), &pairs, MAX_GROUP);
        let short: Vec<Pair> =
            pairs.iter().filter(|(x, y)| x.len().min(y.len()) <= 118).cloned().collect();
        for matched in [127, 128] {
            let s = ScoringScheme {
                matrix: SubstMatrix::uniform(matched, -128),
                gap_open: 11,
                gap_extend: 1,
            };
            assert_widths_agree(&s, &short, MAX_GROUP);
            // The score limit under this matrix: min(m, n) ≤ 15 000 / 127.
            let limit = |len: usize| vec![(a.clone(), vec![9; len]), (vec![9; len], vec![9; len])];
            assert_widths_agree(&s, &limit(118), 2);
            assert_widths_agree(&s, &limit(119), 2);
        }
    }

    fn residues(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
        prop::collection::vec(0u8..21, 0..max_len)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// Forced widths on random groups: any number of lanes, any
        /// shapes, a homolog pair among unrelated strings.
        #[test]
        fn forced_widths_give_the_host_verdicts_on_random(
            strings in prop::collection::vec((residues(60), residues(60)), 1..33),
            seed in 0u64..1000,
        ) {
            let mut pairs = strings;
            pairs.push(mutated_pair(seed, 20 + (seed as usize % 60), 0.1, 0.03));
            pairs.retain(|(x, y)| !x.is_empty() && !y.is_empty());
            pairs.truncate(MAX_GROUP);
            for s in [blosum(11, 1), blosum(3, 3)] {
                assert_widths_agree(&s, &pairs, MAX_GROUP);
            }
        }
    }
}
