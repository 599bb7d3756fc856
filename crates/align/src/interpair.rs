//! Inter-pair batched one-pass fill: up to sixteen pairs at once, one pair
//! per `i16` lane of an AVX2 register.
//!
//! Each lane runs the recurrences of [`crate::onepass`]'s scalar twin —
//! `e = max(h_left − open, e − ext)`, `f = max(h_up − open, f − ext)`,
//! `h = max(diag + s, f, e, 0)` — with no dependence between lanes, and
//! leaves exactly what the twin leaves: the optimal local score, the first
//! best cell in row-major order and the four direction bits of every cell.
//! This is the program's one vector fill; a pair it cannot take (outside
//! the `i16` guard, or a side over [`MAX_SIDE`]) runs on the scalar twin.
//!
//! **Substitution scores.** `s(x_k[i], y_k[j])` differs in both residues
//! from lane to lane, which would be a gather. Instead each lane keeps a
//! query profile, as `i8`: one row of `y_k`-indexed scores per residue,
//! and one shared *pad row*. Per DP row `i` the sixteen lanes' rows for
//! `x_k[i]` are read 32 columns at a time and turned by a 16 × 16 byte
//! transpose (`x86::transpose16`) into per-column vectors of sixteen lane
//! scores, which the inner loop sign-extends with one `vpmovsxbw`. Within
//! a block of 32 a profile row holds the even columns first and then the
//! odd ones, so each transposed register is two *adjacent* columns and
//! leaves in one store.
//!
//! **Ragged batches.** A lane shorter than the batch's `m_max × n_max`
//! reads the pad row below its last row and pad codes right of its last
//! column, both scoring `i8::MIN`. Such a cell holds at most the largest
//! `H` among its left, upper and diagonal neighbours (`open ≥ ext ≥ 0`), so
//! by induction — in scan order — no padding cell ever *exceeds* the lane's
//! running maximum; the argmax moves on strict `>` only, so it stays on a
//! real cell and the lane's `(score, end)` are its pair's own.
//!
//! **Directions** are four bits a cell. The inner loop writes the row's
//! direction words to a small stage; after the row they are packed four
//! cells to an `i16` lane — two cells per byte, lane-interleaved: cells
//! `4t+1 ..= 4t+4` of row `i`, lane `k`, are the nibbles (lowest first) of
//! word `(i − 1)·stride + 16·t + k`. Packing inside the loop body spills
//! registers; packing after the row does not.

use pfam_seq::{ScoringScheme, ALPHABET_SIZE};

/// Pairs one batch fill takes: the `i16` lanes of an AVX2 register.
pub const BATCH_LANES: usize = 16;

/// Cells packed into one direction word.
const CELLS_PER_WORD: usize = 4;

/// One lane's outcome: optimal local score and its 1-based end cell
/// (`(0, (0, 0))` when nothing scores positively).
pub(crate) type LaneEnd = (i32, (usize, usize));

/// Longest side a batch takes. It keeps every cell counter far inside
/// `i16` and bounds what a worker's batch buffers can cost in peak RSS:
/// the sixteen profiles (337 B a column) stay under 0.7 MiB, and the
/// directions (sixteen lanes of four bits, 8 B a cell-vector) under
/// 32 MiB, reached only by a lane 2 048 residues long on both sides.
const MAX_SIDE: usize = 2048;

/// "−∞" of the `i16` lanes. Only ever decremented with saturating
/// subtraction, so it stays put and never equals a reachable `E` or `F`
/// (both `≥ −open ≥ −2 048`).
#[cfg(target_arch = "x86_64")]
const FLOOR16: i16 = i16::MIN;
/// Residue code standing for the padding columns right of a lane's last
/// column (any code the alphabet does not use, below 32).
#[cfg(target_arch = "x86_64")]
pub(crate) const PAD_CODE: u8 = 31;
/// Profile score of the padding rows and columns.
#[cfg(target_arch = "x86_64")]
pub(crate) const PAD_SCORE: i8 = i8::MIN;

/// Can one batch hold pairs up to `m_max × n_max`? Both sides must fit
/// [`MAX_SIDE`].
pub(crate) fn batch_fits(m_max: usize, n_max: usize) -> bool {
    m_max.max(n_max) <= MAX_SIDE
}

/// Buffers of the batch fill. Private to this module: the fill sizes them,
/// and [`BatchBuf::dir`] reads what the last fill left.
#[derive(Default)]
pub(crate) struct BatchBuf {
    /// Query profiles: the pad row, then per lane one row per residue,
    /// each `np` scores wide.
    #[cfg(target_arch = "x86_64")]
    prof: Vec<u8>,
    /// One lane's `y` padded to `np` with the pad code.
    #[cfg(target_arch = "x86_64")]
    y_pad: Vec<u8>,
    /// The current DP row's scores, column-major: sixteen lane bytes a column.
    #[cfg(target_arch = "x86_64")]
    scores: Vec<u8>,
    /// `H` and `F` of the previous row, one lane vector a column, updated
    /// in place.
    #[cfg(target_arch = "x86_64")]
    h: Vec<i16>,
    #[cfg(target_arch = "x86_64")]
    f: Vec<i16>,
    /// Direction words of the current row, one lane vector a column.
    #[cfg(target_arch = "x86_64")]
    stage: Vec<i16>,
    /// Packed directions (see the module docs).
    dirs: Vec<i16>,
    /// Words per row of `dirs` as the last fill laid it out.
    stride: usize,
}

impl BatchBuf {
    /// The direction bits of cell `(i, j)` (1-based) of `lane`, as the
    /// single-pair fills' direction byte.
    pub(crate) fn dir(&self, lane: usize, i: usize, j: usize) -> u8 {
        let (word, nibble) = ((j - 1) / CELLS_PER_WORD, (j - 1) % CELLS_PER_WORD);
        let w = self.dirs[(i - 1) * self.stride + word * BATCH_LANES + lane];
        (w >> (4 * nibble)) as u8 & 15
    }

    /// Size the direction matrix for `m_max × n_max`. Exactly, and the old
    /// one goes before the new one comes: growing in place can hold both
    /// at once, which is this buffer's whole cost in peak RSS again.
    #[cfg(target_arch = "x86_64")]
    fn lay_out_dirs(&mut self, m_max: usize, n_max: usize) {
        self.stride = n_max.div_ceil(CELLS_PER_WORD) * BATCH_LANES;
        let words = m_max * self.stride;
        if self.dirs.len() < words {
            self.dirs = Vec::new();
            self.dirs = vec![0; words];
        }
    }
}

#[cfg(target_arch = "x86_64")]
pub(crate) mod x86 {
    use std::arch::x86_64::*;

    use super::*;
    use crate::onepass::{E_STAY, F_STAY};

    /// Columns one transpose turns: the bytes of a 256-bit load.
    const BLOCK: usize = 32;

    #[inline]
    #[target_feature(enable = "avx2")]
    fn load(src: &[i16]) -> __m256i {
        assert!(src.len() >= BATCH_LANES);
        // SAFETY: the assertion leaves 32 readable bytes at `src`; `loadu`
        // has no alignment requirement.
        unsafe { _mm256_loadu_si256(src.as_ptr().cast()) }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn store(dst: &mut [i16], v: __m256i) {
        assert!(dst.len() >= BATCH_LANES);
        // SAFETY: the assertion leaves 32 writable bytes at `dst`, which
        // this function borrows exclusively; `storeu` needs no alignment.
        unsafe { _mm256_storeu_si256(dst.as_mut_ptr().cast(), v) }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn load_bytes(src: &[u8]) -> __m128i {
        assert!(src.len() >= 16);
        // SAFETY: the assertion leaves 16 readable bytes at `src`; `loadu`
        // has no alignment requirement.
        unsafe { _mm_loadu_si128(src.as_ptr().cast()) }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn store_bytes(dst: &mut [u8], v: __m128i) {
        assert!(dst.len() >= 16);
        // SAFETY: the assertion leaves 16 writable bytes at `dst`, which
        // this function borrows exclusively; `storeu` needs no alignment.
        unsafe { _mm_storeu_si128(dst.as_mut_ptr().cast(), v) }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn load_block(src: &[u8]) -> __m256i {
        assert!(src.len() >= BLOCK);
        // SAFETY: the assertion leaves 32 readable bytes at `src`; `loadu`
        // has no alignment requirement.
        unsafe { _mm256_loadu_si256(src.as_ptr().cast()) }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn store_block(dst: &mut [u8], v: __m256i) {
        assert!(dst.len() >= BLOCK);
        // SAFETY: the assertion leaves 32 writable bytes at `dst`, which
        // this function borrows exclusively; `storeu` needs no alignment.
        unsafe { _mm256_storeu_si256(dst.as_mut_ptr().cast(), v) }
    }

    /// Transpose two 16 × 16 byte matrices at once: register `r` holds row
    /// `r` of one matrix in its low half and row `r` of the other in its
    /// high half, before and after. Each round interleaves the bytes of
    /// rows `i` and `i + 8` into rows `2i` and `2i + 1`, which rotates the
    /// 8-bit string (row, column) of every element left by one; four
    /// rounds swap row and column.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(crate) fn transpose16(mut rows: [__m256i; 16]) -> [__m256i; 16] {
        for _ in 0..4 {
            let mut next = rows;
            for i in 0..8 {
                next[2 * i] = _mm256_unpacklo_epi8(rows[i], rows[i + 8]);
                next[2 * i + 1] = _mm256_unpackhi_epi8(rows[i], rows[i + 8]);
            }
            rows = next;
        }
        rows
    }

    /// The batch fill (see the module docs). The caller guarantees AVX2,
    /// at most [`BATCH_LANES`] pairs, each inside the scheme's `i16` guard
    /// (`vector_max_short`), and [`batch_fits`] for their largest sides;
    /// every length the loads and stores rely on is established here, by
    /// slicing the freshly sized buffers into exact lane vectors.
    #[target_feature(enable = "avx2")]
    pub(crate) fn fill_batch_avx2(
        pairs: &[(&[u8], &[u8])],
        scheme: &ScoringScheme,
        lut: &[[u8; 32]; ALPHABET_SIZE],
        buf: &mut BatchBuf,
    ) -> [LaneEnd; BATCH_LANES] {
        assert!(pairs.len() <= BATCH_LANES);
        let m_max = pairs.iter().map(|(x, _)| x.len()).max().unwrap_or(0);
        let n_max = pairs.iter().map(|(_, y)| y.len()).max().unwrap_or(0);
        assert!(batch_fits(m_max, n_max), "batch over the side limit");
        if m_max == 0 || n_max == 0 {
            return [(0, (0, 0)); BATCH_LANES];
        }
        let residues = pairs.iter().flat_map(|(x, y)| x.iter().chain(y.iter()));
        assert!(residues.into_iter().all(|&c| (c as usize) < ALPHABET_SIZE), "residue code");
        buf.lay_out_dirs(m_max, n_max);
        let BatchBuf { prof, y_pad, scores, h, f, stage, dirs, stride } = buf;
        let np = n_max.div_ceil(BLOCK) * BLOCK;
        // Columns the DP runs over: whole direction words.
        let nw = n_max.div_ceil(CELLS_PER_WORD) * CELLS_PER_WORD;

        // Profiles: row 0 is the pad row, row `1 + k·A + r` holds
        // s(r, y_k[j]) — looked up sixteen columns at a time in r's two
        // byte tables, pad codes right of column n_k.
        prof.resize(np * (1 + pairs.len() * ALPHABET_SIZE), 0);
        prof[..np].fill(PAD_SCORE as u8);
        let fifteen = _mm_set1_epi8(15);
        let lane_profiles = prof[np..].chunks_exact_mut(np * ALPHABET_SIZE);
        for ((_, y), profile) in pairs.iter().zip(lane_profiles) {
            // Within a block the even columns come first, then the odd
            // ones, so that a transposed register holds two adjacent columns.
            y_pad.clear();
            y_pad.resize(np, PAD_CODE);
            for (j, &code) in y.iter().enumerate() {
                y_pad[j / BLOCK * BLOCK + j % 2 * (BLOCK / 2) + j % BLOCK / 2] = code;
            }
            for (row, tables) in profile.chunks_exact_mut(np).zip(lut) {
                let (lo, hi) = (load_bytes(&tables[..16]), load_bytes(&tables[16..]));
                for (codes, out) in y_pad.chunks_exact(16).zip(row.chunks_exact_mut(16)) {
                    let c = load_bytes(codes);
                    let s = _mm_blendv_epi8(
                        _mm_shuffle_epi8(lo, c),
                        _mm_shuffle_epi8(hi, c),
                        _mm_cmpgt_epi8(c, fifteen),
                    );
                    store_bytes(out, s);
                }
            }
        }

        scores.resize(np * BATCH_LANES, 0);
        h.clear();
        h.resize(nw * BATCH_LANES, 0);
        f.clear();
        f.resize(nw * BATCH_LANES, FLOOR16);
        stage.resize(nw * BATCH_LANES, 0);

        let open = _mm256_set1_epi16(scheme.gap_open as i16);
        let ext = _mm256_set1_epi16(scheme.gap_extend as i16);
        let zero = _mm256_setzero_si256();
        let floor = _mm256_set1_epi16(FLOOR16);
        let (one, three) = (_mm256_set1_epi16(1), _mm256_set1_epi16(3));
        let e_stay = _mm256_set1_epi16(E_STAY as i16);
        let f_stay = _mm256_set1_epi16(F_STAY as i16);

        // Per lane: the running maximum and the cell that first held it.
        let (mut best, mut best_i, mut best_j) = (zero, zero, zero);
        let mut starts = [0usize; BATCH_LANES]; // each lane's profile row for this DP row
        for (i, drow) in dirs.chunks_exact_mut(*stride).take(m_max).enumerate() {
            for (k, (start, (x, _))) in starts.iter_mut().zip(pairs).enumerate() {
                *start = x.get(i).map_or(0, |&r| np * (1 + k * ALPHABET_SIZE + r as usize));
            }
            for (c, out) in scores.chunks_exact_mut(BLOCK * BATCH_LANES).enumerate() {
                let mut rows = [zero; BATCH_LANES];
                for (row, start) in rows.iter_mut().zip(starts) {
                    *row = load_block(&prof[start + c * BLOCK..]);
                }
                let column_pairs = out.chunks_exact_mut(2 * BATCH_LANES);
                for (cols, out) in transpose16(rows).into_iter().zip(column_pairs) {
                    store_block(out, cols);
                }
            }

            let best_before = best;
            let (mut diag, mut h_left, mut e, mut jv) = (zero, zero, floor, zero);
            let cells = h
                .chunks_exact_mut(BATCH_LANES)
                .zip(f.chunks_exact_mut(BATCH_LANES))
                .zip(scores.chunks_exact(BATCH_LANES))
                .zip(stage.chunks_exact_mut(BATCH_LANES));
            for (((h_io, f_io), s), d_out) in cells {
                let h_up = load(h_io);
                let f_ext = _mm256_subs_epi16(load(f_io), ext);
                let fv = _mm256_max_epi16(_mm256_sub_epi16(h_up, open), f_ext);
                store(f_io, fv);
                let e_ext = _mm256_subs_epi16(e, ext);
                e = _mm256_max_epi16(_mm256_sub_epi16(h_left, open), e_ext);
                let sv = _mm256_add_epi16(diag, _mm256_cvtepi8_epi16(load_bytes(s)));
                let hv = _mm256_max_epi16(_mm256_max_epi16(sv, fv), _mm256_max_epi16(e, zero));
                store(h_io, hv);
                diag = h_up;
                h_left = hv;
                // First best cell of the lane: strict `>`, in scan order.
                jv = _mm256_add_epi16(jv, one);
                best_j = _mm256_blendv_epi8(best_j, jv, _mm256_cmpgt_epi16(hv, best));
                best = _mm256_max_epi16(best, hv);
                // Direction bits, in the traceback's precedence.
                let from = _mm256_blendv_epi8(
                    _mm256_add_epi16(three, _mm256_cmpeq_epi16(hv, e)), // DIR_E or DIR_F
                    one,                                                // DIR_DIAG
                    _mm256_cmpeq_epi16(hv, sv),
                );
                let from = _mm256_sign_epi16(from, hv); // DIR_STOP where H = 0 (H ≥ 0)
                let stay = _mm256_or_si256(
                    _mm256_and_si256(_mm256_cmpeq_epi16(e, e_ext), e_stay),
                    _mm256_and_si256(_mm256_cmpeq_epi16(fv, f_ext), f_stay),
                );
                store(d_out, _mm256_or_si256(from, stay));
            }
            let raised = _mm256_cmpgt_epi16(best, best_before);
            best_i = _mm256_blendv_epi8(best_i, _mm256_set1_epi16(i as i16 + 1), raised);

            let words = stage.chunks_exact(CELLS_PER_WORD * BATCH_LANES);
            for (cells, out) in words.zip(drow.chunks_exact_mut(BATCH_LANES)) {
                let [c0, c1, c2, c3] = [0, 1, 2, 3].map(|c| load(&cells[c * BATCH_LANES..]));
                let lo = _mm256_or_si256(c0, _mm256_slli_epi16::<4>(c1));
                let hi = _mm256_or_si256(c2, _mm256_slli_epi16::<4>(c3));
                store(out, _mm256_or_si256(lo, _mm256_slli_epi16::<8>(hi)));
            }
        }

        let lanes = |v: __m256i| {
            let mut out = [0i16; BATCH_LANES];
            store(&mut out, v);
            out
        };
        let (best, best_i, best_j) = (lanes(best), lanes(best_i), lanes(best_j));
        std::array::from_fn(|k| (best[k] as i32, (best_i[k] as usize, best_j[k] as usize)))
    }
}

#[cfg(all(test, target_arch = "x86_64"))]
mod tests {
    use std::arch::x86_64::*;

    use super::*;

    /// Rows in, columns out, for both 16 × 16 halves: element `c` of output
    /// register `r` is element `r` of input register `c`.
    #[test]
    fn transpose16_swaps_row_and_column_in_both_halves() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        let element = |half: usize, row: usize, col: usize| (half * 101 + row * 16 + col) as u8;
        let mut rows = [[0u8; 32]; BATCH_LANES];
        for (r, row) in rows.iter_mut().enumerate() {
            for (b, byte) in row.iter_mut().enumerate() {
                *byte = element(b / 16, r, b % 16);
            }
        }
        // SAFETY: AVX2 was detected above; the loads and stores cover the
        // 32 bytes of one `[u8; 32]` each.
        let turned = unsafe {
            let cols = x86::transpose16(rows.map(|row| _mm256_loadu_si256(row.as_ptr().cast())));
            cols.map(|col| {
                let mut out = [0u8; 32];
                _mm256_storeu_si256(out.as_mut_ptr().cast(), col);
                out
            })
        };
        for (r, row) in turned.iter().enumerate() {
            for (b, &byte) in row.iter().enumerate() {
                assert_eq!(byte, element(b / 16, b % 16, r), "register {r}, byte {b}");
            }
        }
    }

    #[test]
    fn a_batch_is_bounded_in_sides_only() {
        assert!(batch_fits(2048, 2048) && batch_fits(1, 2048) && batch_fits(2048, 1));
        assert!(!batch_fits(1, 2049) && !batch_fits(2049, 1) && !batch_fits(2049, 2049));
    }
}
