//! Inter-pair batched one-pass fill: many pairs at once, one pair per
//! `i16` lane of a vector register — sixteen lanes on AVX2, thirty-two on
//! AVX-512BW, one kernel body written once for both widths.
//!
//! Each lane runs the recurrences of [`crate::onepass`]'s scalar twin —
//! `e = max(h_left − open, e − ext)`, `f = max(h_up − open, f − ext)`,
//! `h = max(diag + s, f, e, 0)` — with no dependence between lanes, and
//! leaves exactly what the twin leaves: the optimal local score, the first
//! best cell in row-major order and the four direction bits of every cell.
//! This is the program's one vector fill; a pair it cannot take (outside
//! the `i16` guard, or a side over [`MAX_SIDE`]) runs on the scalar twin.
//!
//! **One body, two widths.** `batch_kernel!` writes the fill once over a
//! small set of lane operations — load, add, saturating subtract, max,
//! compare to a mask, select by a mask, the mask algebra, the byte
//! transpose and the plane store — and is instantiated in two modules that
//! define them: [`x86::w16`] on 256-bit AVX2 registers, where a mask is a
//! vector of all-ones lanes, and [`x86::w32`] on 512-bit AVX-512BW
//! registers, where a mask is a `k` register. `OnePassFill::detect` picks
//! the widest the CPU has; nothing else selects it.
//!
//! **Substitution scores.** `s(x_k[i], y_k[j])` differs in both residues
//! from lane to lane, which would be a gather. Instead each lane keeps a
//! query profile, as `i8`: one row of `y_k`-indexed scores per residue,
//! and one shared *pad row*. Per DP row `i` the lanes' rows for `x_k[i]`
//! are read one block of columns at a time — 32 on AVX2, 64 on AVX-512 —
//! and turned by a byte transpose into per-column vectors of lane scores,
//! which the inner loop sign-extends with one `vpmovsxbw`. The transpose
//! works on 16 × 16 byte matrices inside 128-bit lanes (four rounds of
//! byte unpacks), so within a block a profile row holds column `j` at byte
//! `16·(j mod c) + ⌊j / c⌋`, `c` the block's 16-byte chunks: each
//! transposed register is then two *adjacent* columns and leaves in one
//! store. The 32-lane body transposes its two halves of sixteen lanes
//! apart and interleaves them with one two-source permute per register.
//!
//! **Ragged batches.** A lane shorter than the batch's `m_max × n_max`
//! reads the pad row below its last row and pad codes right of its last
//! column, both scoring `i8::MIN`. Such a cell holds at most the largest
//! `H` among its left, upper and diagonal neighbours (`open ≥ ext ≥ 0`), so
//! by induction — in scan order — no padding cell ever *exceeds* the lane's
//! running maximum; the argmax moves on strict `>` only, so it stays on a
//! real cell and the lane's `(score, end)` are its pair's own.
//!
//! **Directions** are four bit planes a cell, written straight from the
//! compares: bit 0 and bit 1 of how `H` was reached, then `E_STAY`, then
//! `F_STAY`. A plane is one bit per lane; cell `(i, j)` of an `L`-lane fill
//! is the `4·L` bits from bit `4·L·((i − 1)·n_max + j − 1)` of the `u32`
//! words, little end first: planes 0 and 1 in its first `2·L` bits, 2 and 3
//! in the rest, each pair alternating in runs of `R` lanes — lane `k` of
//! the pair's first plane at bit `2R·⌊k / R⌋ + k mod R`, of its second `R`
//! bits later. AVX2 packs two planes' lane masks to bytes (`packs`) and
//! stores one `movemask` of them, which leaves runs of `R = 8`; AVX-512
//! stores each plane's `k` mask as a word, runs of `R = 32`. Both widths
//! leave this one layout, which [`BatchBuf::lane_dirs`] reads.

use pfam_seq::{ScoringScheme, ALPHABET_SIZE};

/// Lanes of the AVX2 body: the `i16` lanes of a 256-bit register.
pub(crate) const NARROW_LANES: usize = 16;
/// Lanes of the AVX-512BW body: the `i16` lanes of a 512-bit register. The
/// most pairs one batch fill takes.
pub(crate) const WIDE_LANES: usize = 32;

/// Direction bits of a cell: one plane each.
const PLANES: usize = 4;
/// Side of one byte transpose: the bytes of a 128-bit lane.
#[cfg(target_arch = "x86_64")]
const TILE: usize = 16;

/// One lane's outcome: optimal local score and its 1-based end cell
/// (`(0, (0, 0))` when nothing scores positively).
pub(crate) type LaneEnd = (i32, (usize, usize));

/// Longest side a batch takes. It keeps every cell counter far inside
/// `i16` and bounds what a worker's batch buffers can cost in peak RSS:
/// the profiles (16 lanes of 21 residue rows and the pad row, 337 B a
/// column) stay under 0.7 MiB, and the directions (sixteen lanes of four
/// bit planes, 8 B a cell-vector) under 32 MiB, reached only by a lane
/// 2 048 residues long on both sides.
const MAX_SIDE: usize = 2048;
/// Longest side a 32-lane batch takes: its directions are 16 B a
/// cell-vector, so 1 448² of them stay under the same 32 MiB (and its
/// 673 B-a-column profiles under 1 MiB). A longer lane goes to the 16-lane
/// body.
const WIDE_MAX_SIDE: usize = 1448;

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

/// Can one 32-lane batch hold pairs up to `m_max × n_max`? Both sides must
/// fit [`WIDE_MAX_SIDE`].
pub(crate) fn wide_batch_fits(m_max: usize, n_max: usize) -> bool {
    m_max.max(n_max) <= WIDE_MAX_SIDE
}

/// The longest `x` and the longest `y` of a batch.
pub(crate) fn sides(pairs: &[(&[u8], &[u8])]) -> (usize, usize) {
    let m_max = pairs.iter().map(|(x, _)| x.len()).max().unwrap_or(0);
    let n_max = pairs.iter().map(|(_, y)| y.len()).max().unwrap_or(0);
    (m_max, n_max)
}

/// Buffers of the batch fill, shared by both widths. Private to this
/// module: the fill sizes them, and [`BatchBuf::lane_dirs`] reads what the
/// last fill left.
#[derive(Default)]
pub(crate) struct BatchBuf {
    /// Query profiles: the pad row, then per lane one row per residue,
    /// each `np` scores wide.
    #[cfg(target_arch = "x86_64")]
    prof: Vec<u8>,
    /// One lane's `y` padded to `np` with the pad code.
    #[cfg(target_arch = "x86_64")]
    y_pad: Vec<u8>,
    /// The current DP row's scores, column-major: one lane byte each a column.
    #[cfg(target_arch = "x86_64")]
    scores: Vec<u8>,
    /// `H` and `F` of the previous row, one lane vector a column, updated
    /// in place.
    #[cfg(target_arch = "x86_64")]
    h: Vec<i16>,
    #[cfg(target_arch = "x86_64")]
    f: Vec<i16>,
    /// Direction bit planes (see the module docs).
    dirs: Vec<u32>,
    /// Cells per row of `dirs` as the last fill laid it out.
    stride: usize,
    /// Lanes of the last fill.
    lanes: usize,
    /// Lanes a run of one plane holds in the last fill's layout.
    run: usize,
}

impl BatchBuf {
    /// The direction bits of `lane`'s cells: for cell `(i, j)` (1-based),
    /// the single-pair fills' direction byte.
    pub(crate) fn lane_dirs(&self, lane: usize) -> impl Fn(usize, usize) -> u8 + '_ {
        let (lanes, run) = (self.lanes, self.run);
        let lane_at = lane / run * 2 * run + lane % run;
        move |i, j| {
            let cell = ((i - 1) * self.stride + j - 1) * PLANES * lanes + lane_at;
            let bit = |p: usize| {
                let at = cell + p / 2 * 2 * lanes + p % 2 * run;
                (self.dirs[at / 32] >> (at % 32)) as u8 & 1
            };
            bit(0) | bit(1) << 1 | bit(2) << 2 | bit(3) << 3
        }
    }

    /// Size the direction planes of `lanes` lanes in runs of `run` for
    /// `m_max × n_max`.
    /// Exactly, and the old ones go before the new ones come: growing in
    /// place can hold both at once, which is this buffer's whole cost in
    /// peak RSS again.
    #[cfg(target_arch = "x86_64")]
    fn lay_out_dirs(&mut self, m_max: usize, n_max: usize, lanes: usize, run: usize) {
        (self.stride, self.lanes, self.run) = (n_max, lanes, run);
        let words = m_max * n_max * PLANES * lanes / 32;
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
    fn load_bytes32(src: &[u8]) -> __m256i {
        assert!(src.len() >= 32);
        // SAFETY: the assertion leaves 32 readable bytes at `src`; `loadu`
        // has no alignment requirement.
        unsafe { _mm256_loadu_si256(src.as_ptr().cast()) }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn store_bytes32(dst: &mut [u8], v: __m256i) {
        assert!(dst.len() >= 32);
        // SAFETY: the assertion leaves 32 writable bytes at `dst`, which
        // this function borrows exclusively; `storeu` needs no alignment.
        unsafe { _mm256_storeu_si256(dst.as_mut_ptr().cast(), v) }
    }

    /// Build the batch's query profiles into `prof` (see [`BatchBuf`]) for
    /// blocks of `block` columns: row 0 is the pad row, row
    /// `1 + k·A + r` holds s(r, y_k[j]) — looked up 32 columns at a time
    /// in r's two byte tables, pad codes right of column n_k — with
    /// the columns of each block in the transpose's order (module docs).
    #[target_feature(enable = "avx2")]
    fn profiles(
        pairs: &[(&[u8], &[u8])],
        lut: &[[u8; 32]; ALPHABET_SIZE],
        (np, block): (usize, usize),
        prof: &mut Vec<u8>,
        y_pad: &mut Vec<u8>,
    ) {
        let chunks = block / 16;
        prof.resize(np * (1 + pairs.len() * ALPHABET_SIZE), 0);
        prof[..np].fill(PAD_SCORE as u8);
        let fifteen = _mm256_set1_epi8(15);
        let lane_profiles = prof[np..].chunks_exact_mut(np * ALPHABET_SIZE);
        for ((_, y), profile) in pairs.iter().zip(lane_profiles) {
            y_pad.clear();
            y_pad.resize(np, PAD_CODE);
            for (j, &code) in y.iter().enumerate() {
                y_pad[j / block * block + j % chunks * 16 + j % block / chunks] = code;
            }
            for (row, tables) in profile.chunks_exact_mut(np).zip(lut) {
                let table = |half: &[u8]| _mm256_broadcastsi128_si256(load_bytes(half));
                let (lo, hi) = (table(&tables[..16]), table(&tables[16..]));
                for (codes, out) in y_pad.chunks_exact(32).zip(row.chunks_exact_mut(32)) {
                    let c = load_bytes32(codes);
                    let s = _mm256_blendv_epi8(
                        _mm256_shuffle_epi8(lo, c),
                        _mm256_shuffle_epi8(hi, c),
                        _mm256_cmpgt_epi8(c, fifteen),
                    );
                    store_bytes32(out, s);
                }
            }
        }
    }

    /// The batch fill, once for each width (see the module docs). The
    /// module it is instantiated in supplies `LANES`, `BLOCK`, `RUN`, the
    /// lane vector `V`, the mask `Mask`, the lane operations and
    /// `turn_block`; `$features` are the CPU features they need. The caller
    /// guarantees those features, at most `LANES` pairs, each inside the
    /// scheme's `i16` guard (`vector_max_short`), and `fits` for their
    /// largest sides; every length the loads and stores rely on is
    /// established here, by slicing the freshly sized buffers into exact
    /// lane vectors.
    macro_rules! batch_kernel {
        ($features:literal) => {
            /// The batch fill at this module's width: one pair per lane,
            /// each lane's answer at its index, the lanes past the last
            /// pair `(0, (0, 0))`.
            #[target_feature(enable = $features)]
            pub(crate) fn fill(
                pairs: &[(&[u8], &[u8])],
                scheme: &ScoringScheme,
                lut: &[[u8; 32]; ALPHABET_SIZE],
                buf: &mut BatchBuf,
            ) -> [LaneEnd; WIDE_LANES] {
                assert!(pairs.len() <= LANES);
                let (m_max, n_max) = sides(pairs);
                assert!(fits(m_max, n_max), "batch over the side limit");
                if m_max == 0 || n_max == 0 {
                    return [(0, (0, 0)); WIDE_LANES];
                }
                let residues = pairs.iter().flat_map(|(x, y)| x.iter().chain(y.iter()));
                assert!(
                    residues.into_iter().all(|&c| (c as usize) < ALPHABET_SIZE),
                    "residue code"
                );
                buf.lay_out_dirs(m_max, n_max, LANES, RUN);
                let np = n_max.div_ceil(BLOCK) * BLOCK;
                profiles(pairs, lut, (np, BLOCK), &mut buf.prof, &mut buf.y_pad);
                let BatchBuf { prof, scores, h, f, dirs, .. } = buf;
                scores.resize(np * LANES, 0);
                h.clear();
                h.resize(n_max * LANES, 0);
                f.clear();
                f.resize(n_max * LANES, FLOOR16);

                let open = splat(scheme.gap_open as i16);
                let ext = splat(scheme.gap_extend as i16);
                let (zero, one, floor) = (splat(0), splat(1), splat(FLOOR16));
                let cell_words = PLANES * LANES / 32;

                // Per lane: the running maximum and the cell that first held it.
                let (mut best, mut best_i, mut best_j) = (zero, zero, zero);
                let mut starts = [0usize; LANES]; // each lane's profile row for this DP row
                for (i, drow) in dirs.chunks_exact_mut(n_max * cell_words).take(m_max).enumerate() {
                    for (k, (start, (x, _))) in starts.iter_mut().zip(pairs).enumerate() {
                        *start = x.get(i).map_or(0, |&r| np * (1 + k * ALPHABET_SIZE + r as usize));
                    }
                    for (c, out) in scores.chunks_exact_mut(BLOCK * LANES).enumerate() {
                        turn_block(prof, &starts, c * BLOCK, out);
                    }

                    let best_before = best;
                    let (mut diag, mut h_left, mut e, mut jv) = (zero, zero, floor, zero);
                    let cells = h
                        .chunks_exact_mut(LANES)
                        .zip(f.chunks_exact_mut(LANES))
                        .zip(scores.chunks_exact(LANES))
                        .zip(drow.chunks_exact_mut(cell_words));
                    for (((h_io, f_io), s), d_out) in cells {
                        let h_up = load(h_io);
                        let f_ext = subs(load(f_io), ext);
                        let fv = max(sub(h_up, open), f_ext);
                        store(f_io, fv);
                        let e_ext = subs(e, ext);
                        e = max(sub(h_left, open), e_ext);
                        let sv = add(diag, widen(s));
                        let hv = max(max(sv, fv), max(e, zero));
                        store(h_io, hv);
                        diag = h_up;
                        h_left = hv;
                        // First best cell of the lane: strict `>`, in scan order.
                        jv = add(jv, one);
                        best_j = select(gt(hv, best), jv, best_j);
                        best = max(best, hv);
                        // Direction bits, in the traceback's precedence:
                        // stop where H = 0 (H ≥ 0), else diagonal, else E,
                        // else F — so bit 1 is "not diagonal" and bit 0 is
                        // "not E" of the live cells.
                        let live = gt(hv, zero);
                        let off_diag = andnot(eq(hv, sv), live);
                        let from_e = and(off_diag, eq(hv, e));
                        let planes = [xor(live, from_e), off_diag, eq(e, e_ext), eq(fv, f_ext)];
                        store_planes(d_out, planes);
                    }
                    let raised = gt(best, best_before);
                    best_i = select(raised, splat(i as i16 + 1), best_i);
                }

                let (best, best_i, best_j) = (lanes(best), lanes(best_i), lanes(best_j));
                std::array::from_fn(|k| match k < LANES {
                    true => (best[k] as i32, (best_i[k] as usize, best_j[k] as usize)),
                    false => (0, (0, 0)),
                })
            }

            /// The lanes of `v`.
            #[inline]
            #[target_feature(enable = $features)]
            fn lanes(v: V) -> [i16; LANES] {
                let mut out = [0i16; LANES];
                store(&mut out, v);
                out
            }
        };
    }

    /// The 16-lane body: AVX2, a mask is a vector of all-ones lanes.
    pub(crate) mod w16 {
        use super::*;

        pub(crate) const LANES: usize = NARROW_LANES;
        /// Columns one block turns: the bytes of a 256-bit load.
        const BLOCK: usize = 32;
        /// Lanes of a plane's run: what `packs` leaves together.
        const RUN: usize = 8;
        type V = __m256i;
        type Mask = __m256i;

        pub(crate) fn fits(m_max: usize, n_max: usize) -> bool {
            batch_fits(m_max, n_max)
        }

        batch_kernel!("avx2");

        #[inline]
        #[target_feature(enable = "avx2")]
        fn load(src: &[i16]) -> V {
            assert!(src.len() >= LANES);
            // SAFETY: the assertion leaves 32 readable bytes at `src`;
            // `loadu` has no alignment requirement.
            unsafe { _mm256_loadu_si256(src.as_ptr().cast()) }
        }

        #[inline]
        #[target_feature(enable = "avx2")]
        fn store(dst: &mut [i16], v: V) {
            assert!(dst.len() >= LANES);
            // SAFETY: the assertion leaves 32 writable bytes at `dst`, which
            // this function borrows exclusively; `storeu` needs no alignment.
            unsafe { _mm256_storeu_si256(dst.as_mut_ptr().cast(), v) }
        }

        /// One column's lane scores, sign-extended.
        #[inline]
        #[target_feature(enable = "avx2")]
        fn widen(scores: &[u8]) -> V {
            _mm256_cvtepi8_epi16(load_bytes(scores))
        }

        #[inline]
        #[target_feature(enable = "avx2")]
        fn splat(v: i16) -> V {
            _mm256_set1_epi16(v)
        }

        #[inline]
        #[target_feature(enable = "avx2")]
        fn add(a: V, b: V) -> V {
            _mm256_add_epi16(a, b)
        }

        #[inline]
        #[target_feature(enable = "avx2")]
        fn sub(a: V, b: V) -> V {
            _mm256_sub_epi16(a, b)
        }

        #[inline]
        #[target_feature(enable = "avx2")]
        fn subs(a: V, b: V) -> V {
            _mm256_subs_epi16(a, b)
        }

        #[inline]
        #[target_feature(enable = "avx2")]
        fn max(a: V, b: V) -> V {
            _mm256_max_epi16(a, b)
        }

        #[inline]
        #[target_feature(enable = "avx2")]
        fn eq(a: V, b: V) -> Mask {
            _mm256_cmpeq_epi16(a, b)
        }

        #[inline]
        #[target_feature(enable = "avx2")]
        fn gt(a: V, b: V) -> Mask {
            _mm256_cmpgt_epi16(a, b)
        }

        /// `a` in the lanes of `m`, `b` in the others.
        #[inline]
        #[target_feature(enable = "avx2")]
        fn select(m: Mask, a: V, b: V) -> V {
            _mm256_blendv_epi8(b, a, m)
        }

        #[inline]
        #[target_feature(enable = "avx2")]
        fn and(a: Mask, b: Mask) -> Mask {
            _mm256_and_si256(a, b)
        }

        /// `b` without `a`.
        #[inline]
        #[target_feature(enable = "avx2")]
        fn andnot(a: Mask, b: Mask) -> Mask {
            _mm256_andnot_si256(a, b)
        }

        #[inline]
        #[target_feature(enable = "avx2")]
        fn xor(a: Mask, b: Mask) -> Mask {
            _mm256_xor_si256(a, b)
        }

        /// A cell-vector's four planes: two planes' masks to bytes a pack —
        /// runs of eight lanes, one plane's then the other's — and one byte
        /// mask of it a word.
        #[inline]
        #[target_feature(enable = "avx2")]
        fn store_planes(out: &mut [u32], [p0, p1, p2, p3]: [Mask; PLANES]) {
            let two = |a, b| _mm256_movemask_epi8(_mm256_packs_epi16(a, b)) as u32;
            out.copy_from_slice(&[two(p0, p1), two(p2, p3)]);
        }

        /// Turn the column block at `at` of this DP row: each lane's
        /// profile row (`starts`) from `at` into a register, then two
        /// 16 × 16 byte transposes at once — register `r` holds row `r` of
        /// one matrix in its low half and row `r` of the other in its high
        /// half, before and after. Each round interleaves the bytes of rows
        /// `i` and `i + 8` into rows `2i` and `2i + 1`, which rotates the
        /// 8-bit string (row, column) of every element left by one; four
        /// rounds swap row and column. Register `r` is then columns `2r`
        /// and `2r + 1`, stored to `out` at `2r·LANES`.
        #[inline]
        #[target_feature(enable = "avx2")]
        pub(crate) fn turn_block(prof: &[u8], starts: &[usize; LANES], at: usize, out: &mut [u8]) {
            let mut rows = [_mm256_setzero_si256(); TILE];
            for (row, &start) in rows.iter_mut().zip(starts) {
                *row = load_bytes32(&prof[start + at..]);
            }
            let rows = round(round(round(round(rows))));
            for (cols, out) in rows.into_iter().zip(out.chunks_exact_mut(2 * LANES)) {
                store_bytes32(out, cols);
            }
        }

        /// One round of the transpose: rows `i` and `i + 8` interleaved
        /// byte by byte into rows `2i` and `2i + 1`, written out so that
        /// the rows stay in registers.
        #[inline]
        #[target_feature(enable = "avx2")]
        fn round(rows: [V; TILE]) -> [V; TILE] {
            let [r0, r1, r2, r3, r4, r5, r6, r7, r8, r9, r10, r11, r12, r13, r14, r15] = rows;
            let (lo, hi) = (_mm256_unpacklo_epi8, _mm256_unpackhi_epi8);
            [
                lo(r0, r8),
                hi(r0, r8),
                lo(r1, r9),
                hi(r1, r9),
                lo(r2, r10),
                hi(r2, r10),
                lo(r3, r11),
                hi(r3, r11),
                lo(r4, r12),
                hi(r4, r12),
                lo(r5, r13),
                hi(r5, r13),
                lo(r6, r14),
                hi(r6, r14),
                lo(r7, r15),
                hi(r7, r15),
            ]
        }
    }

    /// The 32-lane body: AVX-512BW, a mask is a `k` register.
    pub(crate) mod w32 {
        use super::*;

        pub(crate) const LANES: usize = WIDE_LANES;
        /// Columns one block turns: the bytes of a 512-bit load.
        const BLOCK: usize = 64;
        /// Lanes of a plane's run: the whole mask.
        const RUN: usize = LANES;
        type V = __m512i;
        type Mask = __mmask32;

        pub(crate) fn fits(m_max: usize, n_max: usize) -> bool {
            wide_batch_fits(m_max, n_max)
        }

        batch_kernel!("avx2,avx512f,avx512bw");

        #[inline]
        #[target_feature(enable = "avx512f")]
        fn load(src: &[i16]) -> V {
            assert!(src.len() >= LANES);
            // SAFETY: the assertion leaves 64 readable bytes at `src`;
            // `loadu` has no alignment requirement.
            unsafe { _mm512_loadu_si512(src.as_ptr().cast()) }
        }

        #[inline]
        #[target_feature(enable = "avx512f")]
        fn store(dst: &mut [i16], v: V) {
            assert!(dst.len() >= LANES);
            // SAFETY: the assertion leaves 64 writable bytes at `dst`, which
            // this function borrows exclusively; `storeu` needs no alignment.
            unsafe { _mm512_storeu_si512(dst.as_mut_ptr().cast(), v) }
        }

        #[inline]
        #[target_feature(enable = "avx512f")]
        fn load_block(src: &[u8]) -> V {
            assert!(src.len() >= BLOCK);
            // SAFETY: the assertion leaves 64 readable bytes at `src`;
            // `loadu` has no alignment requirement.
            unsafe { _mm512_loadu_si512(src.as_ptr().cast()) }
        }

        #[inline]
        #[target_feature(enable = "avx512f")]
        fn store_block(dst: &mut [u8], v: V) {
            assert!(dst.len() >= BLOCK);
            // SAFETY: the assertion leaves 64 writable bytes at `dst`, which
            // this function borrows exclusively; `storeu` needs no alignment.
            unsafe { _mm512_storeu_si512(dst.as_mut_ptr().cast(), v) }
        }

        /// One column's lane scores, sign-extended.
        #[inline]
        #[target_feature(enable = "avx512bw")]
        fn widen(scores: &[u8]) -> V {
            assert!(scores.len() >= LANES);
            // SAFETY: the assertion leaves 32 readable bytes at `scores`;
            // `loadu` has no alignment requirement.
            let bytes = unsafe { _mm256_loadu_si256(scores.as_ptr().cast()) };
            _mm512_cvtepi8_epi16(bytes)
        }

        #[inline]
        #[target_feature(enable = "avx512f")]
        fn splat(v: i16) -> V {
            _mm512_set1_epi16(v)
        }

        #[inline]
        #[target_feature(enable = "avx512bw")]
        fn add(a: V, b: V) -> V {
            _mm512_add_epi16(a, b)
        }

        #[inline]
        #[target_feature(enable = "avx512bw")]
        fn sub(a: V, b: V) -> V {
            _mm512_sub_epi16(a, b)
        }

        #[inline]
        #[target_feature(enable = "avx512bw")]
        fn subs(a: V, b: V) -> V {
            _mm512_subs_epi16(a, b)
        }

        #[inline]
        #[target_feature(enable = "avx512bw")]
        fn max(a: V, b: V) -> V {
            _mm512_max_epi16(a, b)
        }

        #[inline]
        #[target_feature(enable = "avx512bw")]
        fn eq(a: V, b: V) -> Mask {
            _mm512_cmpeq_epi16_mask(a, b)
        }

        #[inline]
        #[target_feature(enable = "avx512bw")]
        fn gt(a: V, b: V) -> Mask {
            _mm512_cmpgt_epi16_mask(a, b)
        }

        /// `a` in the lanes of `m`, `b` in the others: a mask move.
        #[inline]
        #[target_feature(enable = "avx512bw")]
        fn select(m: Mask, a: V, b: V) -> V {
            _mm512_mask_mov_epi16(b, m, a)
        }

        #[inline]
        fn and(a: Mask, b: Mask) -> Mask {
            a & b
        }

        /// `b` without `a`.
        #[inline]
        fn andnot(a: Mask, b: Mask) -> Mask {
            !a & b
        }

        #[inline]
        fn xor(a: Mask, b: Mask) -> Mask {
            a ^ b
        }

        /// A cell-vector's four planes: each mask as it is, a word each.
        #[inline]
        fn store_planes(out: &mut [u32], planes: [Mask; PLANES]) {
            out.copy_from_slice(&planes);
        }

        /// Turn the column block at `at` of this DP row: each lane's
        /// profile row (`starts`) from `at` into a register, sixteen lanes
        /// at a time, and four 16 × 16 byte transposes in the 128-bit
        /// lanes, as in the 16-lane body. Register `t` of a half then holds
        /// byte `t` of each of its rows' four 16-byte chunks — columns `4t`
        /// to `4t + 3` of those sixteen lanes — and one two-source permute
        /// per output puts the halves' chunks side by side: columns `4t`
        /// and `4t + 1` of all 32 lanes into one register, `4t + 2` and
        /// `4t + 3` into the next, stored to `out` at `LANES·4t`.
        #[inline]
        #[target_feature(enable = "avx512f,avx512bw")]
        pub(crate) fn turn_block(prof: &[u8], starts: &[usize; LANES], at: usize, out: &mut [u8]) {
            let turn = |starts: &[usize]| {
                let mut rows = [_mm512_setzero_si512(); TILE];
                for (row, &start) in rows.iter_mut().zip(starts) {
                    *row = load_block(&prof[start + at..]);
                }
                round(round(round(round(rows))))
            };
            let (top, bottom) = (turn(&starts[..TILE]), turn(&starts[TILE..]));
            // 128-bit chunks q of top then bottom, for q = 0, 1 and for 2, 3.
            let first = _mm512_set_epi64(11, 10, 3, 2, 9, 8, 1, 0);
            let second = _mm512_set_epi64(15, 14, 7, 6, 13, 12, 5, 4);
            for ((t, b), out) in top.into_iter().zip(bottom).zip(out.chunks_exact_mut(4 * LANES)) {
                let (lo, hi) = out.split_at_mut(2 * LANES);
                store_block(lo, _mm512_permutex2var_epi64(t, first, b));
                store_block(hi, _mm512_permutex2var_epi64(t, second, b));
            }
        }

        /// One round of the transpose: rows `i` and `i + 8` interleaved
        /// byte by byte into rows `2i` and `2i + 1`, written out so that
        /// the rows stay in registers.
        #[inline]
        #[target_feature(enable = "avx512bw")]
        fn round(rows: [V; TILE]) -> [V; TILE] {
            let [r0, r1, r2, r3, r4, r5, r6, r7, r8, r9, r10, r11, r12, r13, r14, r15] = rows;
            let (lo, hi) = (_mm512_unpacklo_epi8, _mm512_unpackhi_epi8);
            [
                lo(r0, r8),
                hi(r0, r8),
                lo(r1, r9),
                hi(r1, r9),
                lo(r2, r10),
                hi(r2, r10),
                lo(r3, r11),
                hi(r3, r11),
                lo(r4, r12),
                hi(r4, r12),
                lo(r5, r13),
                hi(r5, r13),
                lo(r6, r14),
                hi(r6, r14),
                lo(r7, r15),
                hi(r7, r15),
            ]
        }
    }
}

#[cfg(all(test, target_arch = "x86_64"))]
mod tests {
    use super::*;

    /// Lane `k`'s profile row holds column `j` of a block at byte
    /// `16·(j mod c) + ⌊j / c⌋`, `c` the block's 16-byte chunks; turned, the
    /// block must hold column `j` at `LANES·j`, lane by lane.
    #[test]
    fn a_turned_block_holds_each_column_of_every_lane() {
        let element = |lane: usize, col: usize| (lane * 7 + col * 3) as u8;
        let profile = |lanes: usize, block: usize| {
            let chunks = block / 16;
            let mut prof = vec![0u8; lanes * block];
            for (lane, row) in prof.chunks_exact_mut(block).enumerate() {
                for col in 0..block {
                    row[16 * (col % chunks) + col / chunks] = element(lane, col);
                }
            }
            prof
        };
        let check = |out: &[u8], lanes: usize| {
            for (b, &byte) in out.iter().enumerate() {
                assert_eq!(byte, element(b % lanes, b / lanes), "{lanes} lanes, byte {b}");
            }
        };
        if std::arch::is_x86_feature_detected!("avx2") {
            let prof = profile(NARROW_LANES, 32);
            let starts = std::array::from_fn(|k| 32 * k);
            let mut out = vec![0u8; 32 * NARROW_LANES];
            // SAFETY: AVX2 was detected above.
            unsafe { x86::w16::turn_block(&prof, &starts, 0, &mut out) };
            check(&out, NARROW_LANES);
        }
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512bw")
        {
            let prof = profile(WIDE_LANES, 64);
            let starts = std::array::from_fn(|k| 64 * k);
            let mut out = vec![0u8; 64 * WIDE_LANES];
            // SAFETY: AVX-512F and BW were detected above.
            unsafe { x86::w32::turn_block(&prof, &starts, 0, &mut out) };
            check(&out, WIDE_LANES);
        }
    }

    /// Each width keeps its directions under 32 MiB: 8 B a cell-vector to
    /// 2 048 residues a side, 16 B to 1 448.
    #[test]
    fn a_batch_is_bounded_in_sides_only() {
        assert!(batch_fits(2048, 2048) && batch_fits(1, 2048) && batch_fits(2048, 1));
        assert!(!batch_fits(1, 2049) && !batch_fits(2049, 1) && !batch_fits(2049, 2049));
        assert!(wide_batch_fits(1448, 1448) && wide_batch_fits(1, 1448));
        assert!(!wide_batch_fits(1, 1449) && !wide_batch_fits(1449, 1));
        let bytes = |side: usize, lanes: usize| side * side * PLANES * lanes / 8;
        assert!(bytes(MAX_SIDE, NARROW_LANES) <= 32 << 20);
        assert!(bytes(WIDE_MAX_SIDE, WIDE_LANES) <= 32 << 20);
        assert!(bytes(WIDE_MAX_SIDE + 1, WIDE_LANES) > 32 << 20);
    }
}
