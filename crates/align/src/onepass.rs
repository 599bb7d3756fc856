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
//! Two fills write those bytes and must agree on every real cell:
//!
//! * the **scalar twin** — the reference recurrences in `i32`, any scheme,
//!   any length; the fallback and the "best scalar" the SIMD number is
//!   quoted against;
//! * the **AVX2 kernel** — sixteen `i16` lanes along the row. `F` and
//!   `H′ = max(diag + s, F, 0)` need the previous row only. `E` is then a
//!   max-plus prefix scan over the row,
//!   `E(j) = max_{k≤j} (H′(k−1) − (j−k)·ext) − open`, exact because
//!   `open ≥ ext` makes the `E(j−1) − open` term of the textbook
//!   recurrence redundant. The scan is kept *exclusive*
//!   (`P(j) = max_{k<j} …`), so "stays in `E`" is the lane compare
//!   `P(j) ≥ H′(j−1)`; it costs four shift/subtract/max steps per block
//!   and a broadcast carry of the previous block's last `P`.
//!
//! A third fill, [`crate::interpair`], lays sixteen *pairs* across the
//! register instead and stores the same four bits two cells to a byte;
//! `trace` walks any of the layouts through a "direction of cell (i, j)"
//! closure.
//!
//! Lanes right of column `n` see a negative profile score. Nothing flows
//! from them into a real column (`E` runs left to right, `F` down a column,
//! the diagonal down-right), and by induction they never hold more than the
//! largest real `H` computed so far, so the running maximum and its first
//! column can be read off whole vectors.

use pfam_seq::{ScoringScheme, ALPHABET_SIZE};

use crate::alignment::{AlignOp, Alignment};
use crate::interpair::{self, batch_fits, LaneEnd, BATCH_LANES};
use crate::local::NEG_INF;
use crate::scratch::AlignScratch;

const DIR_MASK: u8 = 3;
const DIR_STOP: u8 = 0;
const DIR_DIAG: u8 = 1;
const DIR_E: u8 = 2;
const DIR_F: u8 = 3;
pub(crate) const E_STAY: u8 = 4;
pub(crate) const F_STAY: u8 = 8;

/// `i16` lanes per AVX2 register; direction rows are padded to a multiple.
const LANES: usize = 16;
/// "−∞" of the `i16` kernel. Only ever decremented with saturating
/// subtraction, so it stays put and never equals a reachable `E` or `F`
/// (both `≥ −open ≥ −MAX_PENALTY16`).
#[cfg(target_arch = "x86_64")]
pub(crate) const FLOOR16: i16 = i16::MIN;
/// Largest gap-open penalty the `i16` kernel admits.
const MAX_PENALTY16: i32 = 2048;
/// Cap on `min(m,n) · max(1, max_score)`, an upper bound on any local
/// score: with [`MAX_PENALTY16`] it keeps every real lane inside `i16`.
const MAX_SCORE16: usize = 15_000;
/// Residue code standing for the padding columns right of column `n` in
/// the padded copy of `y` (any code the alphabet does not use, below 32).
#[cfg(target_arch = "x86_64")]
pub(crate) const PAD_CODE: u8 = 31;
/// Profile score of the padding columns.
#[cfg(target_arch = "x86_64")]
pub(crate) const PAD_SCORE: i8 = i8::MIN;

/// Buffers of the one-pass fill. Private to this module: the fills size
/// them, and the traceback reads what the last fill left.
#[derive(Default)]
pub(crate) struct OnePassBuf {
    /// `y` padded to the stride with [`PAD_CODE`].
    #[cfg(target_arch = "x86_64")]
    y_pad: Vec<u8>,
    /// Query profile: one padded row of `y`-indexed scores per residue.
    #[cfg(target_arch = "x86_64")]
    prof: Vec<i16>,
    /// Ping-pong `H` rows; slot 0 is the column-0 border, slot `j` column `j`.
    #[cfg(target_arch = "x86_64")]
    h: [Vec<i16>; 2],
    /// `F` row, updated in place (slot `j − 1` is column `j`).
    #[cfg(target_arch = "x86_64")]
    f: Vec<i16>,
    /// Direction bytes: cell `(i, j)` at `(i − 1)·stride + (j − 1)`.
    dirs: Vec<u8>,
    /// Row stride of `dirs` as the last fill laid it out.
    stride: usize,
}

impl OnePassBuf {
    /// Size the direction matrix for an `m × n` pair; returns the stride.
    fn lay_out_dirs(&mut self, m: usize, n: usize) -> usize {
        let stride = n.div_ceil(LANES) * LANES;
        if self.dirs.len() < m * stride {
            self.dirs.resize(m * stride, 0);
        }
        self.stride = stride;
        stride
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

/// A scoring scheme bound to the one-pass fill it gets on this host: the
/// AVX2 kernel for pairs inside its exactness guard and the scalar twin
/// otherwise, or the scalar twin always.
#[derive(Debug, Clone)]
pub struct OnePassFill {
    /// The scheme every fill of this value scores with — owned, so the
    /// guard below can never be asked about one scheme and run on another.
    scheme: ScoringScheme,
    /// Longest `min(m, n)` the `i16` kernel is exact for. Zero unless AVX2
    /// was detected and the scheme is inside the lane-arithmetic guard —
    /// [`OnePassFill::fill`] relies on that to call the kernel.
    vector_max_short: usize,
    /// Per residue, its matrix row as two 16-entry byte tables (codes
    /// 0–15, then 16–31) for the shuffle that builds the query profile;
    /// entry [`PAD_CODE`] holds the padding score.
    #[cfg(target_arch = "x86_64")]
    lut: [[u8; 32]; ALPHABET_SIZE],
}

impl OnePassFill {
    /// The scalar twin for every pair.
    pub fn scalar(scheme: &ScoringScheme) -> OnePassFill {
        OnePassFill {
            scheme: scheme.clone(),
            vector_max_short: 0,
            #[cfg(target_arch = "x86_64")]
            lut: [[0; 32]; ALPHABET_SIZE],
        }
    }

    /// The fastest exact fill for `scheme` on this host.
    pub fn detect(scheme: &ScoringScheme) -> OnePassFill {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") && vector_max_short(scheme) > 0 {
            let mut fill = OnePassFill::scalar(scheme);
            fill.vector_max_short = vector_max_short(scheme);
            for (r, row) in fill.lut.iter_mut().enumerate() {
                for (c, slot) in row.iter_mut().enumerate().take(ALPHABET_SIZE) {
                    // Inside i8 by the guard of `vector_max_short`.
                    *slot = scheme.matrix.score_codes(r as u8, c as u8) as i8 as u8;
                }
                row[PAD_CODE as usize] = PAD_SCORE as u8;
            }
            return fill;
        }
        OnePassFill::scalar(scheme)
    }

    /// The scheme this fill scores with.
    pub fn scheme(&self) -> &ScoringScheme {
        &self.scheme
    }

    /// `avx2` or `scalar`: the kernel eligible pairs run on.
    pub fn label(&self) -> &'static str {
        if self.vector_max_short > 0 {
            "avx2"
        } else {
            "scalar"
        }
    }

    /// Does an `m × n` pair run on the vector kernel?
    pub fn is_vector(&self, m: usize, n: usize) -> bool {
        m.min(n) > 0 && m.min(n) <= self.vector_max_short
    }

    /// Fill the direction matrix of `x` against `y` into `scratch` and
    /// return the optimal local score with its (1-based) end cell;
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
        #[cfg(target_arch = "x86_64")]
        if self.is_vector(x.len(), y.len()) {
            // SAFETY: `vector_max_short` is nonzero only when `detect`
            // saw AVX2 on this host.
            return unsafe { x86::fill_avx2(x, y, &self.scheme, &self.lut, &mut scratch.onepass) };
        }
        fill_scalar(x, y, &self.scheme, scratch)
    }

    /// Can the batch kernel fill these pairs at once, one per lane? At
    /// most [`BATCH_LANES`] of them, each inside the `i16` guard, their
    /// largest sides inside the batch's direction bound.
    pub fn takes_batch(&self, pairs: &[(&[u8], &[u8])]) -> bool {
        let m_max = pairs.iter().map(|(x, _)| x.len()).max().unwrap_or(0);
        let n_max = pairs.iter().map(|(_, y)| y.len()).max().unwrap_or(0);
        pairs.len() <= BATCH_LANES
            && pairs.iter().all(|(x, y)| self.is_vector(x.len(), y.len()))
            && batch_fits(m_max, n_max)
    }

    /// Fill the direction matrices of up to [`BATCH_LANES`] pairs into
    /// `scratch` with the batch kernel, lane `k` holding `pairs[k]`, and
    /// return each lane's [`Self::fill`] answer.
    ///
    /// # Panics
    ///
    /// Unless [`Self::takes_batch`].
    pub(crate) fn fill_batch(
        &self,
        pairs: &[(&[u8], &[u8])],
        scratch: &mut AlignScratch,
    ) -> [LaneEnd; BATCH_LANES] {
        assert!(self.takes_batch(pairs), "batch outside the kernel's guard");
        #[cfg(target_arch = "x86_64")]
        if self.vector_max_short > 0 {
            // SAFETY: `vector_max_short` is nonzero only when `detect`
            // saw AVX2 on this host.
            return unsafe {
                interpair::x86::fill_batch_avx2(pairs, &self.scheme, &self.lut, &mut scratch.batch)
            };
        }
        // No pair passes `is_vector` without the vector kernel.
        [(0, (0, 0)); BATCH_LANES]
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

    /// What the single-pair fill leaves for `x` against `y`, decoded — for
    /// the forced-path suites.
    pub fn probe(&self, x: &[u8], y: &[u8], scratch: &mut AlignScratch) -> FillProbe {
        let (score, end) = self.fill(x, y, scratch);
        let dir = |i, j| scratch.onepass.dir(i, j);
        FillProbe::decode(score, end, x.len(), y.len(), dir)
    }

    /// What the batch kernel leaves for each of `pairs`, decoded — `None`
    /// when it cannot take them ([`Self::takes_batch`]).
    pub fn probe_batch(
        &self,
        pairs: &[(&[u8], &[u8])],
        scratch: &mut AlignScratch,
    ) -> Option<Vec<FillProbe>> {
        if pairs.is_empty() || !self.takes_batch(pairs) {
            return None;
        }
        let ends = self.fill_batch(pairs, scratch);
        let probe = |(k, (x, y)): (usize, &(&[u8], &[u8]))| {
            let dir = |i, j| scratch.batch.dir(k, i, j);
            FillProbe::decode(ends[k].0, ends[k].1, x.len(), y.len(), dir)
        };
        Some(pairs.iter().enumerate().map(probe).collect())
    }
}

/// Everything a fill leaves for one pair, in a layout-free form: what the
/// forced-path suites compare between the scalar twin and a vector kernel.
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
/// `open ≥ ext ≥ 0` (the scan drops the `E − open` term), `open` within
/// [`MAX_PENALTY16`] and matrix entries within `i8` (no real lane leaves
/// `i16`, no reachable `E`/`F` meets the floor, and the profile is built
/// by byte shuffles), and `16·ext ≤ i16::MAX` (the carry ramp of the scan).
#[cfg(target_arch = "x86_64")]
fn vector_max_short(scheme: &ScoringScheme) -> usize {
    let (mat_max, mat_min) = (scheme.matrix.max_score(), scheme.matrix.min_score());
    let ok = scheme.gap_open >= scheme.gap_extend
        && scheme.gap_extend >= 0
        && scheme.gap_open <= MAX_PENALTY16
        && LANES as i32 * scheme.gap_extend <= i16::MAX as i32
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

/// The scalar twin: the reference recurrences of [`crate::local_affine`]
/// over two `i32` rows, recording each cell's traceback decisions — by the
/// same comparisons, in the same precedence — as a direction byte.
fn fill_scalar(
    x: &[u8],
    y: &[u8],
    scheme: &ScoringScheme,
    scratch: &mut AlignScratch,
) -> (i32, (usize, usize)) {
    let n = y.len();
    let stride = scratch.onepass.lay_out_dirs(x.len(), n);
    let (open, ext) = (scheme.gap_open, scheme.gap_extend);
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
            let s = diag + scheme.matrix.score_codes(xi, yc);
            let hv = s.max(fv).max(0).max(e);
            diag = *h_j;
            (*h_j, *f_j, h_left) = (hv, fv, hv);
            row_max = row_max.max(hv);
            // A table, not a branch: which term won is unpredictable per cell.
            let won = ((hv == 0) as usize) << 2 | ((hv == s) as usize) << 1 | (hv == e) as usize;
            let from = FROM[won];
            *d =
                from | ((e_stay & (e == e_ext)) as u8) << 2 | ((f_stay & (fv == f_ext)) as u8) << 3;
        }
        if row_max > best {
            best = row_max;
            let j = h[1..].iter().position(|&v| v == best).expect("the row holds its maximum");
            best_at = (i + 1, j + 1);
        }
    }
    (best, best_at)
}

#[cfg(target_arch = "x86_64")]
pub(crate) mod x86 {
    use std::arch::x86_64::*;

    use super::*;

    #[inline]
    #[target_feature(enable = "avx2")]
    pub(crate) fn load(src: &[i16]) -> __m256i {
        assert!(src.len() >= LANES);
        // SAFETY: the assertion leaves 32 readable bytes at `src`; `loadu`
        // has no alignment requirement.
        unsafe { _mm256_loadu_si256(src.as_ptr().cast()) }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    pub(crate) fn store(dst: &mut [i16], v: __m256i) {
        assert!(dst.len() >= LANES);
        // SAFETY: the assertion leaves 32 writable bytes at `dst`, which
        // this function borrows exclusively; `storeu` needs no alignment.
        unsafe { _mm256_storeu_si256(dst.as_mut_ptr().cast(), v) }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    pub(crate) fn load_bytes(src: &[u8]) -> __m128i {
        assert!(src.len() >= LANES);
        // SAFETY: the assertion leaves 16 readable bytes at `src`; `loadu`
        // has no alignment requirement.
        unsafe { _mm_loadu_si128(src.as_ptr().cast()) }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    pub(crate) fn store_bytes(dst: &mut [u8], v: __m128i) {
        assert!(dst.len() >= LANES);
        // SAFETY: the assertion leaves 16 writable bytes at `dst`, which
        // this function borrows exclusively; `storeu` needs no alignment.
        unsafe { _mm_storeu_si128(dst.as_mut_ptr().cast(), v) }
    }

    /// Lanes `16 − k .. 32 − k` of the 32-lane sequence `[prev, cur]`, for
    /// `BYTES = 16 − 2k`: `cur` moved up `k` lanes with the top `k` lanes
    /// of `prev` entering at the bottom.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn shifted<const BYTES: i32>(prev: __m256i, cur: __m256i) -> __m256i {
        let t = _mm256_permute2x128_si256::<0x21>(prev, cur); // [prev.hi, cur.lo]
        _mm256_alignr_epi8::<BYTES>(cur, t)
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn broadcast_last(v: __m256i) -> __m256i {
        _mm256_permute4x64_epi64::<0xFF>(_mm256_shufflehi_epi16::<0xFF>(v))
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn horizontal_max(v: __m256i) -> i16 {
        let m = _mm_max_epi16(_mm256_castsi256_si128(v), _mm256_extracti128_si256::<1>(v));
        let m = _mm_max_epi16(m, _mm_srli_si128::<8>(m));
        let m = _mm_max_epi16(m, _mm_srli_si128::<4>(m));
        let m = _mm_max_epi16(m, _mm_srli_si128::<2>(m));
        _mm_extract_epi16::<0>(m) as i16
    }

    /// The AVX2 fill (see the module docs). The caller guarantees AVX2 and
    /// a `(scheme, pair)` inside the guard of [`vector_max_short`]; every
    /// length the loads and stores rely on is established here, by slicing
    /// the freshly sized buffers into exact 16-lane chunks.
    #[target_feature(enable = "avx2")]
    pub(super) fn fill_avx2(
        x: &[u8],
        y: &[u8],
        scheme: &ScoringScheme,
        lut: &[[u8; 32]; ALPHABET_SIZE],
        buf: &mut OnePassBuf,
    ) -> (i32, (usize, usize)) {
        let n = y.len();
        let np = buf.lay_out_dirs(x.len(), n);
        let OnePassBuf { y_pad, prof, h: [h0, h1], f, dirs, .. } = buf;
        // Query profile: row r, column j holds s(r, y_j), looked up sixteen
        // columns at a time in r's two byte tables.
        assert!(y.iter().all(|&c| (c as usize) < ALPHABET_SIZE), "residue code out of range");
        y_pad.clear();
        y_pad.extend_from_slice(y);
        y_pad.resize(np, PAD_CODE);
        prof.resize(ALPHABET_SIZE * np, 0);
        let fifteen = _mm_set1_epi8(15);
        for (row, tables) in prof.chunks_exact_mut(np).zip(lut) {
            let (lo, hi) = (load_bytes(&tables[..16]), load_bytes(&tables[16..]));
            for (codes, out) in y_pad.chunks_exact(LANES).zip(row.chunks_exact_mut(LANES)) {
                let c = load_bytes(codes);
                let scores = _mm_blendv_epi8(
                    _mm_shuffle_epi8(lo, c),
                    _mm_shuffle_epi8(hi, c),
                    _mm_cmpgt_epi8(c, fifteen),
                );
                store(out, _mm256_cvtepi8_epi16(scores));
            }
        }
        for h in [&mut *h0, &mut *h1] {
            h.clear();
            h.resize(np + 1, 0);
        }
        f.clear();
        f.resize(np, FLOOR16);
        let (mut hprev, mut hcur) = (&mut h0[..], &mut h1[..]);

        let open = _mm256_set1_epi16(scheme.gap_open as i16);
        let ext = scheme.gap_extend as i16; // 16·ext ≤ i16::MAX by the guard
        let [ext1, ext2, ext4, ext8, ext16] = [1, 2, 4, 8, 16].map(|k| _mm256_set1_epi16(k * ext));
        let ramp = _mm256_mullo_epi16(
            _mm256_setr_epi16(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16),
            ext1,
        );
        let zero = _mm256_setzero_si256();
        let floor = _mm256_set1_epi16(FLOOR16);
        let (one, three) = (_mm256_set1_epi16(1), _mm256_set1_epi16(3));
        let e_stay = _mm256_set1_epi16(E_STAY as i16);
        let f_stay = _mm256_set1_epi16(F_STAY as i16);
        // "Block −1" of H′ for each row: columns −2, −1 are −∞, column 0 is 0.
        let hp_border = _mm256_insert_epi16::<15>(floor, 0);

        let mut best = 0i32;
        let mut best_at = (0usize, 0usize);
        let mut best_v = zero;
        let mut max_v = zero; // lane-wise max of every H so far
        for (i, (&xi, drow)) in x.iter().zip(dirs.chunks_exact_mut(np)).enumerate() {
            let prow = &prof[xi as usize * np..][..np];
            let mut hp_prev = hp_border;
            let mut carry = floor; // last P of the previous block, broadcast
            let blocks = hprev[..np]
                .chunks_exact(LANES)
                .zip(hprev[1..].chunks_exact(LANES))
                .zip(hcur[1..].chunks_exact_mut(LANES))
                .zip(f.chunks_exact_mut(LANES))
                .zip(prow.chunks_exact(LANES))
                .zip(drow.chunks_exact_mut(LANES));
            for (((((h_diag, h_up), h_out), f_io), p), d_out) in blocks {
                // F and H′: previous row only.
                let f_ext = _mm256_subs_epi16(load(f_io), ext1);
                let fv = _mm256_max_epi16(_mm256_sub_epi16(load(h_up), open), f_ext);
                store(f_io, fv);
                let sv = _mm256_add_epi16(load(h_diag), load(p));
                let hp = _mm256_max_epi16(_mm256_max_epi16(sv, fv), zero);
                // Exclusive scan P(j) = max_{k<j} H′(k−1) − (j−k)·ext over
                // U(j) = H′(j−2) − ext; the first step reads H′ directly.
                let hp_left = shifted::<14>(hp_prev, hp);
                let mut pv = _mm256_max_epi16(
                    _mm256_subs_epi16(shifted::<12>(hp_prev, hp), ext1),
                    _mm256_subs_epi16(shifted::<10>(hp_prev, hp), ext2),
                );
                hp_prev = hp;
                pv = _mm256_max_epi16(pv, _mm256_subs_epi16(shifted::<12>(floor, pv), ext2));
                pv = _mm256_max_epi16(pv, _mm256_subs_epi16(shifted::<8>(floor, pv), ext4));
                pv = _mm256_max_epi16(pv, _mm256_subs_epi16(shifted::<0>(floor, pv), ext8));
                let block_last = broadcast_last(pv);
                pv = _mm256_max_epi16(pv, _mm256_subs_epi16(carry, ramp));
                carry = _mm256_max_epi16(block_last, _mm256_subs_epi16(carry, ext16));
                // E = max(H′(j−1), P) − open; H = max(H′, E).
                let gv = _mm256_max_epi16(hp_left, pv);
                let ev = _mm256_sub_epi16(gv, open);
                let hv = _mm256_max_epi16(hp, ev);
                store(h_out, hv);
                max_v = _mm256_max_epi16(max_v, hv);
                // Direction byte, in the traceback's precedence.
                let from = _mm256_blendv_epi8(
                    _mm256_add_epi16(three, _mm256_cmpeq_epi16(hv, ev)), // DIR_E or DIR_F
                    one,                                                 // DIR_DIAG
                    _mm256_cmpeq_epi16(hv, sv),
                );
                let from = _mm256_andnot_si256(_mm256_cmpeq_epi16(hv, zero), from); // DIR_STOP
                let stay = _mm256_or_si256(
                    _mm256_and_si256(_mm256_cmpeq_epi16(pv, gv), e_stay),
                    _mm256_and_si256(_mm256_cmpeq_epi16(fv, f_ext), f_stay),
                );
                let d = _mm256_or_si256(from, stay);
                let d = _mm256_permute4x64_epi64::<0x08>(_mm256_packus_epi16(d, d));
                store_bytes(d_out, _mm256_castsi256_si128(d));
            }
            if _mm256_movemask_epi8(_mm256_cmpgt_epi16(max_v, best_v)) != 0 {
                // This row raised the maximum; padding lanes never exceed
                // the real ones, so its first holder is a real column.
                let b = horizontal_max(max_v);
                best = b as i32;
                best_v = _mm256_set1_epi16(b);
                for (blk, c) in hcur[1..].chunks_exact(LANES).enumerate() {
                    let hit = _mm256_movemask_epi8(_mm256_cmpeq_epi16(load(c), best_v)) as u32;
                    if hit != 0 {
                        best_at = (i + 1, blk * LANES + hit.trailing_zeros() as usize / 2 + 1);
                        break;
                    }
                }
                debug_assert!(best_at.1 <= n);
            }
            std::mem::swap(&mut hprev, &mut hcur);
        }
        (best, best_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local::local_affine;
    use pfam_seq::alphabet::encode;
    use pfam_seq::SubstMatrix;

    fn codes(s: &str) -> Vec<u8> {
        encode(s.as_bytes()).unwrap()
    }

    fn fills(scheme: &ScoringScheme) -> [OnePassFill; 2] {
        [OnePassFill::scalar(scheme), OnePassFill::detect(scheme)]
    }

    #[test]
    fn both_fills_reproduce_the_reference_alignment() {
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
            for (a, b) in pairs {
                let (x, y) = (codes(a), codes(b));
                for fill in fills(&s) {
                    let name = fill.label();
                    assert_eq!(
                        fill.align(&x, &y, &mut scratch),
                        local_affine(&x, &y, &s),
                        "{name} {open}/{ext}: {a} vs {b}"
                    );
                    assert_eq!(fill.align(&y, &x, &mut scratch), local_affine(&y, &x, &s));
                }
            }
        }
    }

    #[test]
    fn both_fills_write_the_same_direction_bytes() {
        let s =
            ScoringScheme { matrix: SubstMatrix::blosum62().clone(), gap_open: 4, gap_extend: 1 };
        let (x, y) = (codes("MKVLWAAKNDCQEGHILKMFPSTWYV"), codes("GGMKVLWNDCQEGGGHILKMFPSTWTT"));
        let [scalar, vector] = fills(&s);
        let mut a = AlignScratch::new();
        let mut b = AlignScratch::new();
        assert_eq!(scalar.fill(&x, &y, &mut a), vector.fill(&x, &y, &mut b));
        assert_eq!(a.onepass.stride, b.onepass.stride);
        let stride = a.onepass.stride;
        for i in 0..x.len() {
            let row = i * stride..i * stride + y.len();
            assert_eq!(a.onepass.dirs[row.clone()], b.onepass.dirs[row], "row {}", i + 1);
        }
    }

    #[test]
    fn schemes_outside_the_lane_guard_stay_scalar() {
        let mut s = ScoringScheme::blosum62_default();
        s.gap_open = 1;
        s.gap_extend = 2; // open < ext: the scan would be inexact
        assert_eq!(OnePassFill::detect(&s).label(), "scalar");
        s.gap_open = MAX_PENALTY16;
        s.gap_extend = MAX_PENALTY16; // 16·ext overflows the carry ramp
        assert_eq!(OnePassFill::detect(&s).label(), "scalar");
        assert!(!OnePassFill::scalar(&s).is_vector(10, 10));
    }
}
