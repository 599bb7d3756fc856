//! One-pass Smith–Waterman fill with a packed direction matrix.
//!
//! The hot-path DP of [`crate::engine`]: one row-major pass per pair that
//! yields the optimal local score, the reference's argmax cell (the *first*
//! best cell in row-major order, the tie-break of [`crate::local_affine`])
//! and one **direction byte** per cell, so the traceback walks bytes
//! instead of re-deriving every decision from three `i32` Gotoh matrices:
//!
//! | bits | meaning |
//! |---|---|
//! | 0–1 | how `H(i,j)` was reached, in the reference traceback's precedence: 0 stop (`H = 0`), 1 diagonal, 2 from `E`, 3 from `F` |
//! | 2 | `E(i,j)` extends `E(i,j−1)` (the traceback stays in `E`) |
//! | 3 | `F(i,j)` extends `F(i−1,j)` (the traceback stays in `F`) |
//!
//! Two fills write those bits and must agree on every real cell:
//!
//! * the **scalar twin** (here) — the reference recurrences in `i32`, any
//!   scheme, any length. A single pair ([`crate::AlignEngine::judge`])
//!   runs on it, and so does every lane a batch cannot take;
//! * the **batch kernel** ([`crate::interpair`]) — the same recurrences in
//!   the `i16` lanes of a vector register, one pair a lane: thirty-two on
//!   AVX-512BW, sixteen on AVX2, the widest the host has. Each bit is a
//!   plane of one bit a lane, written straight from the compares. A
//!   candidate list ([`crate::AlignEngine::judge_batch`]) runs on it.
//!
//! One bound separates them, [`OnePassFill::is_vector`]: the scheme's and
//! the pair's `i16` guard, and the batch's side limit. `trace` walks
//! either layout through a "direction of cell (i, j)" closure.

use pfam_seq::{ScoringScheme, ALPHABET_SIZE};

use crate::alignment::{AlignOp, Alignment};
use crate::interpair::{
    self, batch_fits, sides, wide_batch_fits, LaneEnd, NARROW_LANES, WIDE_LANES,
};
use crate::local::NEG_INF;
use crate::scratch::AlignScratch;

const DIR_MASK: u8 = 3;
const DIR_STOP: u8 = 0;
const DIR_DIAG: u8 = 1;
const DIR_E: u8 = 2;
const DIR_F: u8 = 3;
pub(crate) const E_STAY: u8 = 4;
pub(crate) const F_STAY: u8 = 8;

/// Largest gap-open penalty the `i16` kernel admits.
const MAX_PENALTY16: i32 = 2048;
/// Cap on `min(m,n) · max(1, max_score)`, an upper bound on any local
/// score: with [`MAX_PENALTY16`] it keeps every real lane inside `i16`.
const MAX_SCORE16: usize = 15_000;

/// The scalar twin's direction bytes. Private to this module: the fill
/// sizes them, and the traceback reads what the last fill left.
#[derive(Default)]
pub(crate) struct OnePassBuf {
    /// Direction bytes: cell `(i, j)` at `(i − 1)·stride + (j − 1)`.
    dirs: Vec<u8>,
    /// Row stride of `dirs` as the last fill laid it out.
    stride: usize,
}

impl OnePassBuf {
    /// Size the direction matrix for an `m × n` pair; returns the stride.
    fn lay_out_dirs(&mut self, m: usize, n: usize) -> usize {
        if self.dirs.len() < m * n {
            self.dirs.resize(m * n, 0);
        }
        self.stride = n;
        n
    }

    /// The direction byte of cell `(i, j)` (1-based) of the last fill.
    pub(crate) fn dir(&self, i: usize, j: usize) -> u8 {
        self.dirs[(i - 1) * self.stride + j - 1]
    }
}

/// Walk the directions a fill left from cell `end` back to the first stop
/// cell, exactly as the reference traceback walks its matrices. `dir(i, j)`
/// is the direction byte of a cell, whatever layout the fill stored it in;
/// `column(op, i, j)` sees every alignment column, last first, with the
/// 1-based cell it leaves. Returns the 0-based start of the aligned ranges.
pub(crate) fn trace(
    end: (usize, usize),
    dir: impl Fn(usize, usize) -> u8,
    mut column: impl FnMut(AlignOp, usize, usize),
) -> (usize, usize) {
    #[derive(Clone, Copy)]
    enum Layer {
        H,
        E,
        F,
    }
    let (mut i, mut j) = end;
    let mut layer = Layer::H;
    // Row 0 and column 0 hold H = 0: the reference stops there too.
    while i > 0 && j > 0 {
        let d = dir(i, j);
        match layer {
            Layer::H => match d & DIR_MASK {
                DIR_STOP => break,
                DIR_DIAG => {
                    column(AlignOp::Subst, i, j);
                    i -= 1;
                    j -= 1;
                }
                DIR_E => layer = Layer::E,
                _ => layer = Layer::F,
            },
            Layer::E => {
                column(AlignOp::InsertY, i, j);
                if d & E_STAY == 0 {
                    layer = Layer::H;
                }
                j -= 1;
            }
            Layer::F => {
                column(AlignOp::InsertX, i, j);
                if d & F_STAY == 0 {
                    layer = Layer::H;
                }
                i -= 1;
            }
        }
    }
    (i, j)
}

/// A scoring scheme bound to the fills it gets on this host: the widest
/// batch kernel the CPU has for the lanes of a group inside its guard and
/// the scalar twin for everything else, or the scalar twin always.
#[derive(Debug, Clone)]
pub struct OnePassFill {
    /// The scheme every fill of this value scores with — owned, so the
    /// guard below can never be asked about one scheme and run on another.
    scheme: ScoringScheme,
    /// Longest `min(m, n)` the `i16` kernel is exact for. Zero unless AVX2
    /// was detected and the scheme is inside the lane-arithmetic guard —
    /// [`OnePassFill::fill_batch`] relies on that to call the kernel.
    vector_max_short: usize,
    /// Lanes of the widest batch body this fill runs: [`WIDE_LANES`] only
    /// where `detect` saw AVX-512BW (and [`OnePassFill::fill_batch`]
    /// relies on that), [`NARROW_LANES`] where it saw AVX2, 0 for the
    /// scalar twin alone.
    lanes: usize,
    /// Per residue, its matrix row as two 16-entry byte tables (codes
    /// 0–15, then 16–31) for the shuffle that builds the query profiles;
    /// entry [`interpair::PAD_CODE`] holds the padding score.
    #[cfg(target_arch = "x86_64")]
    lut: [[u8; 32]; ALPHABET_SIZE],
}

impl OnePassFill {
    /// The scalar twin for every pair.
    pub fn scalar(scheme: &ScoringScheme) -> OnePassFill {
        OnePassFill {
            scheme: scheme.clone(),
            vector_max_short: 0,
            lanes: 0,
            #[cfg(target_arch = "x86_64")]
            lut: [[0; 32]; ALPHABET_SIZE],
        }
    }

    /// The fastest exact fills for `scheme` on this host: the 32-lane
    /// body where the CPU has AVX-512BW, else the 16-lane body where it
    /// has AVX2, else the scalar twin.
    pub fn detect(scheme: &ScoringScheme) -> OnePassFill {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") && vector_max_short(scheme) > 0 {
            let wide = std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512bw");
            let mut fill = OnePassFill::scalar(scheme);
            fill.vector_max_short = vector_max_short(scheme);
            fill.lanes = if wide { WIDE_LANES } else { NARROW_LANES };
            for (r, row) in fill.lut.iter_mut().enumerate() {
                for (c, slot) in row.iter_mut().enumerate().take(ALPHABET_SIZE) {
                    // Inside i8 by the guard of `vector_max_short`.
                    *slot = scheme.matrix.score_codes(r as u8, c as u8) as i8 as u8;
                }
                row[interpair::PAD_CODE as usize] = interpair::PAD_SCORE as u8;
            }
            return fill;
        }
        OnePassFill::scalar(scheme)
    }

    /// The scheme this fill scores with.
    pub fn scheme(&self) -> &ScoringScheme {
        &self.scheme
    }

    /// The same fill with its batch kernel held to at most `lanes` pairs a
    /// register: below [`NARROW_LANES`] the scalar twin alone.
    #[cfg(test)]
    pub(crate) fn with_lanes(mut self, lanes: usize) -> OnePassFill {
        self.lanes = self.lanes.min(lanes);
        if self.lanes < NARROW_LANES {
            self.lanes = 0;
            self.vector_max_short = 0;
        }
        self
    }

    /// `avx512`, `avx2` or `scalar`: the widest kernel a batch's eligible
    /// lanes run on.
    pub fn label(&self) -> &'static str {
        match self.lanes {
            WIDE_LANES => "avx512",
            NARROW_LANES => "avx2",
            _ => "scalar",
        }
    }

    /// Pairs one batch fill takes at most: the widest kernel's lanes, and
    /// [`NARROW_LANES`] for the scalar twin.
    pub(crate) fn lanes(&self) -> usize {
        self.lanes.max(NARROW_LANES)
    }

    /// Pairs one batch fill of `pairs` takes: the widest kernel's lanes if
    /// their sides fit its limit, else the 16-lane body's.
    pub(crate) fn lanes_for(&self, pairs: &[(&[u8], &[u8])]) -> usize {
        let (m_max, n_max) = sides(pairs);
        match self.lanes == WIDE_LANES && wide_batch_fits(m_max, n_max) {
            true => WIDE_LANES,
            false => NARROW_LANES,
        }
    }

    /// Does an `m × n` pair take a lane of the batch kernel? Inside the
    /// scheme's `i16` guard, and neither side over the batch's limit of
    /// 2 048 residues.
    pub fn is_vector(&self, m: usize, n: usize) -> bool {
        m.min(n) > 0 && m.min(n) <= self.vector_max_short && batch_fits(m, n)
    }

    /// The scalar twin: fill the direction matrix of `x` against `y` into
    /// `scratch` by the reference recurrences of [`crate::local_affine`]
    /// over two `i32` rows, recording each cell's traceback decisions — by
    /// the same comparisons, in the same precedence — as a direction byte.
    /// Returns the optimal local score with its (1-based) end cell;
    /// `(0, (0, 0))` when nothing scores positively.
    pub(crate) fn fill(
        &self,
        x: &[u8],
        y: &[u8],
        scratch: &mut AlignScratch,
    ) -> (i32, (usize, usize)) {
        if x.is_empty() || y.is_empty() {
            return (0, (0, 0));
        }
        let n = y.len();
        let stride = scratch.onepass.lay_out_dirs(x.len(), n);
        let (open, ext) = (self.scheme.gap_open, self.scheme.gap_extend);
        let h = &mut scratch.row_h;
        h.clear();
        h.resize(n + 1, 0);
        let f = &mut scratch.row_f;
        f.clear();
        f.resize(n + 1, NEG_INF);
        let mut best = 0i32;
        let mut best_at = (0usize, 0usize);
        for (i, (&xi, drow)) in x.iter().zip(scratch.onepass.dirs.chunks_mut(stride)).enumerate() {
            let (mut diag, mut h_left, mut e, mut row_max) = (0, 0, NEG_INF, 0);
            let cells = h[1..].iter_mut().zip(f[1..].iter_mut()).zip(y.iter().zip(drow.iter_mut()));
            for ((h_j, f_j), (&yc, d)) in cells {
                let e_ext = e - ext;
                let e_stay = e != NEG_INF;
                e = (h_left - open).max(e_ext);
                let f_ext = *f_j - ext;
                let f_stay = *f_j != NEG_INF;
                let fv = (*h_j - open).max(f_ext);
                let s = diag + self.scheme.matrix.score_codes(xi, yc);
                let hv = s.max(fv).max(0).max(e);
                diag = *h_j;
                (*h_j, *f_j, h_left) = (hv, fv, hv);
                row_max = row_max.max(hv);
                // A table, not a branch: which term won is unpredictable per cell.
                let won =
                    ((hv == 0) as usize) << 2 | ((hv == s) as usize) << 1 | (hv == e) as usize;
                let from = FROM[won];
                *d = from
                    | ((e_stay & (e == e_ext)) as u8) << 2
                    | ((f_stay & (fv == f_ext)) as u8) << 3;
            }
            if row_max > best {
                best = row_max;
                let j = h[1..].iter().position(|&v| v == best).expect("the row holds its maximum");
                best_at = (i + 1, j + 1);
            }
        }
        (best, best_at)
    }

    /// Can the batch kernel fill these pairs at once, one per lane? At
    /// most [`Self::lanes_for`] of them, each [`Self::is_vector`].
    fn takes_batch(&self, pairs: &[(&[u8], &[u8])]) -> bool {
        pairs.len() <= self.lanes_for(pairs)
            && pairs.iter().all(|(x, y)| self.is_vector(x.len(), y.len()))
    }

    /// Fill the direction planes of up to [`Self::lanes_for`] pairs into
    /// `scratch` with the batch kernel, lane `k` holding `pairs[k]`, and
    /// return each lane's [`Self::fill`] answer: the 32-lane body where it
    /// was detected and the sides fit it, the 16-lane body otherwise.
    ///
    /// # Panics
    ///
    /// Unless every pair [`Self::is_vector`] and there are at most
    /// [`Self::lanes_for`] of them.
    pub(crate) fn fill_batch(
        &self,
        pairs: &[(&[u8], &[u8])],
        scratch: &mut AlignScratch,
    ) -> [LaneEnd; WIDE_LANES] {
        assert!(self.takes_batch(pairs), "batch outside the kernel's guard");
        #[cfg(target_arch = "x86_64")]
        {
            let (scheme, lut, buf) = (&self.scheme, &self.lut, &mut scratch.batch);
            if self.lanes_for(pairs) == WIDE_LANES {
                // SAFETY: `lanes` is `WIDE_LANES` only when `detect` saw
                // AVX2, AVX-512F and AVX-512BW on this host.
                return unsafe { interpair::x86::w32::fill(pairs, scheme, lut, buf) };
            }
            if self.vector_max_short > 0 {
                // SAFETY: `vector_max_short` is nonzero only when `detect`
                // saw AVX2 on this host.
                return unsafe { interpair::x86::w16::fill(pairs, scheme, lut, buf) };
            }
        }
        // No pair passes `is_vector` without the vector kernel.
        [(0, (0, 0)); WIDE_LANES]
    }

    /// Optimal local alignment with full traceback — bit-identical to
    /// [`crate::local_affine`] (score, operations and both ranges).
    pub fn align(&self, x: &[u8], y: &[u8], scratch: &mut AlignScratch) -> Alignment {
        let (score, end) = self.fill(x, y, scratch);
        if score == 0 {
            return Alignment { score: 0, ops: Vec::new(), x_range: (0, 0), y_range: (0, 0) };
        }
        let mut ops = Vec::new();
        let start = trace(end, |i, j| scratch.onepass.dir(i, j), |op, _, _| ops.push(op));
        ops.reverse();
        Alignment { score, ops, x_range: (start.0, end.0), y_range: (start.1, end.1) }
    }

    /// What the scalar twin leaves for `x` against `y`, decoded — for the
    /// forced-path suites.
    pub fn probe(&self, x: &[u8], y: &[u8], scratch: &mut AlignScratch) -> FillProbe {
        let (score, end) = self.fill(x, y, scratch);
        let dir = |i, j| scratch.onepass.dir(i, j);
        FillProbe::decode(score, end, x.len(), y.len(), dir)
    }

    /// What the batch kernel leaves for each of up to [`WIDE_LANES`]
    /// `pairs`, decoded, in fills cut as [`crate::AlignEngine::judge_batch`]
    /// cuts them — `None` when it cannot take them all.
    pub fn probe_batch(
        &self,
        pairs: &[(&[u8], &[u8])],
        scratch: &mut AlignScratch,
    ) -> Option<Vec<FillProbe>> {
        let vector = pairs.iter().all(|(x, y)| self.is_vector(x.len(), y.len()));
        if pairs.is_empty() || pairs.len() > WIDE_LANES || !vector {
            return None;
        }
        let mut probes = Vec::with_capacity(pairs.len());
        for group in pairs.chunks(self.lanes_for(pairs)) {
            let ends = self.fill_batch(group, scratch);
            for (k, (x, y)) in group.iter().enumerate() {
                let dir = scratch.batch.lane_dirs(k);
                probes.push(FillProbe::decode(ends[k].0, ends[k].1, x.len(), y.len(), dir));
            }
        }
        Some(probes)
    }
}

/// Everything a fill leaves for one pair, in a layout-free form: what the
/// forced-path suites compare between the scalar twin and the batch kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FillProbe {
    /// Optimal local score.
    pub score: i32,
    /// Its 1-based end cell, `(0, 0)` when the score is 0.
    pub end: (usize, usize),
    /// The direction byte of every real cell, row-major (`m·n` of them).
    pub dirs: Vec<u8>,
}

impl FillProbe {
    fn decode(
        score: i32,
        end: (usize, usize),
        m: usize,
        n: usize,
        dir: impl Fn(usize, usize) -> u8,
    ) -> FillProbe {
        let cells = (1..=m).flat_map(|i| (1..=n).map(move |j| (i, j)));
        FillProbe { score, end, dirs: cells.map(|(i, j)| dir(i, j)).collect() }
    }
}

/// The scheme half of the `i16` exactness guard, folded into the longest
/// shorter-sequence length the kernel may take (0: never). It needs
/// `open ≥ ext ≥ 0` (the regime of the kernel's ragged-batch argument),
/// `open` within [`MAX_PENALTY16`] and matrix entries within `i8` (no real
/// lane leaves `i16`, no reachable `E`/`F` meets the floor, and the
/// profiles are built by byte shuffles).
#[cfg(target_arch = "x86_64")]
fn vector_max_short(scheme: &ScoringScheme) -> usize {
    let (mat_max, mat_min) = (scheme.matrix.max_score(), scheme.matrix.min_score());
    let ok = scheme.gap_open >= scheme.gap_extend
        && scheme.gap_extend >= 0
        && scheme.gap_open <= MAX_PENALTY16
        && mat_max <= i8::MAX as i32
        && mat_min >= i8::MIN as i32;
    if ok {
        MAX_SCORE16 / mat_max.max(1) as usize
    } else {
        0
    }
}

/// Bits 0–1 of the direction byte by `[H = 0][H = diag + s][H = E]`, in the
/// reference traceback's precedence.
const FROM: [u8; 8] = [DIR_F, DIR_E, DIR_DIAG, DIR_DIAG, DIR_STOP, DIR_STOP, DIR_STOP, DIR_STOP];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local::local_affine;
    use pfam_seq::alphabet::encode;
    use pfam_seq::SubstMatrix;

    fn codes(s: &str) -> Vec<u8> {
        encode(s.as_bytes()).unwrap()
    }

    #[test]
    fn the_scalar_twin_reproduces_the_reference_alignment() {
        let pairs = [
            ("MKVLWAAKPP", "GGMKVLWAAK"),
            ("PPPPMKVLWAAKPPPP", "GGMKVLWAAKGG"),
            ("MKVLWMKVLW", "MKVLW"),
            ("MKVLWAAK", "MKVLWGGGAAK"),
            ("AAAA", "WWWW"),
            ("ACDEFGHIKLMNPQRSTVWY", "YWVTSRQPNMLKIHGFEDCA"),
            ("A", "A"),
            ("", "ACD"),
        ];
        let mut scratch = AlignScratch::new();
        for (open, ext) in [(11, 1), (4, 1), (3, 3), (2, 0)] {
            let s = ScoringScheme {
                matrix: SubstMatrix::blosum62().clone(),
                gap_open: open,
                gap_extend: ext,
            };
            let fill = OnePassFill::scalar(&s);
            for (a, b) in pairs {
                let (x, y) = (codes(a), codes(b));
                let reference = local_affine(&x, &y, &s);
                assert_eq!(fill.align(&x, &y, &mut scratch), reference, "{open}/{ext}: {a} vs {b}");
                assert_eq!(fill.align(&y, &x, &mut scratch), local_affine(&y, &x, &s));
            }
        }
    }

    /// Both instantiations of the batch kernel, each on its own: groups of
    /// 1, 15, 16, 17, 31 and 32 of the ragged and tie-heavy shapes (as many
    /// as the body takes) and lanes at its side limit leave, lane by lane,
    /// the scalar twin's score, end cell and direction of every real cell.
    #[test]
    fn both_widths_equal_the_scalar_twin_cell_by_cell() {
        let s = ScoringScheme::blosum62_default();
        let (host, scalar) = (OnePassFill::detect(&s), OnePassFill::scalar(&s));
        let mut pairs = crate::shapes::ragged();
        pairs.extend(crate::shapes::tie_heavy());
        pairs.retain(|(x, y)| !x.is_empty() && !y.is_empty());
        let (a, b) = crate::shapes::mutated_pair(3, 90, 0.08, 0.02);
        let (mut batch, mut twin) = (AlignScratch::new(), AlignScratch::new());
        for (lanes, limit) in [(WIDE_LANES, 1448), (NARROW_LANES, 2048)] {
            let fill = host.clone().with_lanes(lanes);
            if fill.lanes != lanes {
                continue; // not on this host
            }
            let at_limit =
                [(a.clone(), vec![3; limit]), (vec![3; limit], b.clone()), (b.clone(), a.clone())];
            let sizes = [1, 15, 16, 17, 31, 32].into_iter().filter(|&g| g <= lanes);
            let groups = sizes.flat_map(|g| pairs.chunks(g)).chain([&at_limit[..]]);
            for group in groups {
                let group: Vec<(&[u8], &[u8])> =
                    group.iter().map(|(x, y)| (&x[..], &y[..])).collect();
                assert_eq!(fill.lanes_for(&group), lanes, "{} pairs", group.len());
                let probes = fill.probe_batch(&group, &mut batch).expect("the body takes them");
                for (k, (probe, (x, y))) in probes.iter().zip(&group).enumerate() {
                    let what = format!(
                        "{lanes} lanes, lane {k} of {} ({}x{})",
                        group.len(),
                        x.len(),
                        y.len()
                    );
                    assert_eq!(*probe, scalar.probe(x, y, &mut twin), "{what}");
                }
            }
        }
    }

    #[test]
    fn schemes_outside_the_lane_guard_stay_scalar() {
        let mut s = ScoringScheme::blosum62_default();
        let host = OnePassFill::detect(&s);
        let vector = host.is_vector(1, 1);
        assert_eq!(vector, host.label() != "scalar");
        // The side limit: 2 048 residues, on either side.
        assert_eq!((host.is_vector(100, 2048), host.is_vector(2048, 100)), (vector, vector));
        assert!(!host.is_vector(100, 2049) && !host.is_vector(2049, 100));
        assert!(!OnePassFill::scalar(&s).is_vector(10, 10));
        s.gap_open = 1;
        s.gap_extend = 2; // open < ext: outside the ragged-batch argument
        assert_eq!(OnePassFill::detect(&s).label(), "scalar");
        s.gap_open = MAX_PENALTY16;
        s.gap_extend = MAX_PENALTY16; // the penalty limit itself
        assert_eq!(OnePassFill::detect(&s).label(), host.label());
        s.gap_open = MAX_PENALTY16 + 1;
        s.gap_extend = MAX_PENALTY16 + 1;
        assert_eq!(OnePassFill::detect(&s).label(), "scalar");
    }
}
