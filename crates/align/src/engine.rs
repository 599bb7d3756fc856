//! Alignment engine for the RR/CCD/BGG hot path.
//!
//! Every alignment consumer (redundancy-removal containment, CCD overlap,
//! the fault-tolerant leased CCD path, the SPMD workers and bipartite graph
//! generation) goes through [`AlignEngine`] instead of calling
//! [`crate::local_affine`] directly. The engine resolves each candidate pair
//! in three steps and is **verdict-identical to the reference criteria by
//! construction** — every reject is a proven bound, never a heuristic:
//!
//! 1. **Length screen** (`tier` 0). A passing containment needs
//!    `positives ≥ min_similarity · min_coverage · |x|` and positive columns
//!    are at most `min(|x|, |y|)`, so short partners reject with zero DP
//!    cells. The overlap analogue bounds `min(|x|,|y|)` against
//!    `min_similarity · min_longer_coverage · max(|x|,|y|)`.
//! 2. **One fill** ([`crate::onepass`]): a single row-major pass — AVX2
//!    where detected and exact, its scalar twin otherwise — yields the
//!    Smith–Waterman optimum `S*`, the reference's argmax cell and a
//!    direction byte per cell. `S* = 0` rejects (the reference returns an
//!    empty alignment), and when the scheme admits a positive screen
//!    constant `κ = ms·p_min − (1−ms)·q_max` (with `p_min` the smallest
//!    positive matrix entry and `q_max` the largest per-column penalty) any
//!    accepted pair has `S* ≥ κ·mc·L`, so lower scores reject before any
//!    traceback (`tier` 1).
//! 3. **Direction traceback** (`tier` 3) from the argmax cell, accumulating
//!    the alignment statistics in line, then the paper's criteria. The
//!    bytes encode the reference traceback's own decisions, so the columns
//!    are the reference alignment's, bit for bit.
//!
//! All steps share a per-worker [`AlignScratch`] arena (thread-local in the
//! convenience API), so the verdict path performs no per-pair allocation.

use std::cell::RefCell;

use pfam_seq::ScoringScheme;

use crate::alignment::{AlignOp, AlignStats};
use crate::criteria::{is_contained, overlaps, ContainmentParams, OverlapParams};
use crate::onepass::OnePassFill;
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

impl AlignEngineKind {
    /// Stable lowercase label (`reference` / `tiered`) for configs & JSON.
    pub fn label(self) -> &'static str {
        match self {
            AlignEngineKind::Reference => "reference",
            AlignEngineKind::Tiered => "tiered",
        }
    }
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

    /// The same engine on the scalar one-pass fill, whatever the host —
    /// the "best scalar" side of benches and the forced-path tests.
    pub fn with_scalar_fill(mut self) -> AlignEngine {
        self.fill = OnePassFill::scalar(self.fill.scheme());
        self
    }

    /// Which engine variant this is.
    pub fn kind(&self) -> AlignEngineKind {
        self.kind
    }

    /// Label of the fill kernel eligible pairs run on (`avx2` or `scalar`)
    /// — for bench reports.
    pub fn kernel_label(&self) -> &'static str {
        self.fill.label()
    }

    /// Definition-1 containment: is `x` redundant with respect to `y`?
    /// Uses a thread-local scratch arena. `anchor` is ignored.
    pub fn contained(&self, x: &[u8], y: &[u8], anchor: Option<Anchor>) -> EngineVerdict {
        SCRATCH.with(|s| self.contained_with(x, y, anchor, &mut s.borrow_mut()))
    }

    /// Definition-2 overlap between `x` and `y`. Uses a thread-local
    /// scratch arena. `anchor` is ignored.
    pub fn overlaps(&self, x: &[u8], y: &[u8], anchor: Option<Anchor>) -> EngineVerdict {
        SCRATCH.with(|s| self.overlaps_with(x, y, anchor, &mut s.borrow_mut()))
    }

    /// [`Self::contained`] with an explicit scratch arena.
    pub fn contained_with(
        &self,
        x: &[u8],
        y: &[u8],
        _anchor: Option<Anchor>,
        scratch: &mut AlignScratch,
    ) -> EngineVerdict {
        self.run(x, y, scratch, Mode::Containment)
    }

    /// [`Self::overlaps`] with an explicit scratch arena.
    pub fn overlaps_with(
        &self,
        x: &[u8],
        y: &[u8],
        _anchor: Option<Anchor>,
        scratch: &mut AlignScratch,
    ) -> EngineVerdict {
        self.run(x, y, scratch, Mode::Overlap)
    }

    fn run(&self, x: &[u8], y: &[u8], scratch: &mut AlignScratch, mode: Mode) -> EngineVerdict {
        let (m, n) = (x.len(), y.len());
        let full = m as u64 * n as u64;
        let scheme = self.fill.scheme();
        if self.kind == AlignEngineKind::Reference {
            let accept = match mode {
                Mode::Containment => is_contained(x, y, scheme, &self.containment),
                Mode::Overlap => overlaps(x, y, scheme, &self.overlap),
            };
            return EngineVerdict { accept, tier: 3, cells_computed: full, cells_skipped: 0 };
        }

        // Step 1: proven length screen (and the criteria's empty-input
        // rejections, which they apply before any DP). Accept ⇒ positives
        // ≥ ms·mc·L, and positives ≤ min(m, n).
        let (ms, mc, l) = match mode {
            Mode::Containment => {
                (self.containment.min_similarity, self.containment.min_coverage, m)
            }
            Mode::Overlap => {
                (self.overlap.min_similarity, self.overlap.min_longer_coverage, m.max(n))
            }
        };
        if full == 0 || (m.min(n) as f64) + 1e-9 < ms * mc * l as f64 {
            return EngineVerdict {
                accept: false,
                tier: 0,
                cells_computed: 0,
                cells_skipped: full,
            };
        }

        // Step 2: one fill; reject on S* = 0 (the reference returns the
        // empty alignment) or S* below the κ·mc·L every accepted pair clears.
        let (score, end) = self.fill.fill(x, y, scratch);
        let kappa = self.p_min.map_or(0.0, |p| ms * p as f64 - (1.0 - ms) * self.q_max as f64);
        if score == 0 || (kappa > 0.0 && (score as f64) + 1e-9 < kappa * mc * l as f64) {
            return EngineVerdict {
                accept: false,
                tier: 1,
                cells_computed: full,
                cells_skipped: full,
            };
        }

        // Step 3: direction traceback, statistics in line, then the criteria.
        let mut st = AlignStats::default();
        let start = scratch.onepass.trace(end, |op, i, j| match op {
            AlignOp::Subst => st.push_subst(x[i - 1], y[j - 1], &scheme.matrix),
            AlignOp::InsertY | AlignOp::InsertX => st.push_gap(),
        });
        st.x_span = end.0 - start.0;
        st.y_span = end.1 - start.1;
        let accept = match mode {
            Mode::Containment => self.containment.accepts(&st, m),
            Mode::Overlap => self.overlap.accepts(&st, m, n),
        };
        EngineVerdict { accept, tier: 3, cells_computed: full, cells_skipped: 0 }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Containment,
    Overlap,
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfam_seq::alphabet::encode;

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
            [engine(AlignEngineKind::Tiered), engine(AlignEngineKind::Tiered).with_scalar_fill()]
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
                        tiered.contained(&x, &y, anc).accept,
                        reference.contained(&x, &y, anc).accept,
                        "containment {a} vs {b} (anchor {anc:?})"
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
        let traced = engine.contained(&x, &codes("PPMKVLWAAKPP"), None);
        assert_eq!((traced.tier, traced.accept), (3, true));
        assert_eq!((traced.cells_computed, traced.cells_skipped), (8 * 12, 0));
        // Length screen: no cell computed, the whole rectangle skipped.
        let screened = engine.contained(&x, &codes("WW"), None);
        assert_eq!(screened.tier, 0);
        assert_eq!((screened.cells_computed, screened.cells_skipped), (0, 8 * 2));
        // Score reject: the fill ran, the traceback did not.
        let rejected = engine.contained(&x, &codes("PPPPPPPPPP"), None);
        assert_eq!((rejected.tier, rejected.accept), (1, false));
        assert_eq!((rejected.cells_computed, rejected.cells_skipped), (8 * 10, 8 * 10));
    }
}
