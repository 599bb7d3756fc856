//! Needleman–Wunsch global alignment, linear and affine (Gotoh) gaps.
//!
//! The affine engine here is shared with [`crate::semiglobal`]: semi-global
//! alignment is global alignment with free end gaps on one or both
//! sequences, so the DP fill and traceback are parameterised by which ends
//! are free rather than duplicated.

use pfam_seq::ScoringScheme;

use crate::alignment::{AlignOp, Alignment};
use crate::scratch::AlignScratch;

/// Sentinel for "unreachable" DP states; far enough from `i32::MIN` that
/// subtracting a gap penalty cannot overflow.
pub(crate) const NEG_INF: i32 = i32::MIN / 4;

/// Cost of a gap of length `k >= 1`: `gap_open` for the first column,
/// `gap_extend` for each additional one.
#[inline]
pub(crate) fn gap_cost(scheme: &ScoringScheme, k: usize) -> i32 {
    debug_assert!(k >= 1);
    scheme.gap_open + (k as i32 - 1) * scheme.gap_extend
}

/// The three Gotoh DP layers, stored flat in row-major order.
pub(crate) struct AffineMatrices {
    /// Row width (`n + 1`).
    pub w: usize,
    /// Best score of any alignment of prefixes.
    pub h: Vec<i32>,
    /// Best score ending with a gap consuming `y` (horizontal move).
    pub e: Vec<i32>,
    /// Best score ending with a gap consuming `x` (vertical move).
    pub f: Vec<i32>,
}

impl AffineMatrices {
    #[inline]
    pub fn idx(&self, i: usize, j: usize) -> usize {
        i * self.w + j
    }
}

/// Fill Gotoh matrices for `x` against `y`. `x_free` / `y_free` make the
/// leading gap of the respective sequence free (semi-global variants).
pub(crate) fn fill_affine(
    x: &[u8],
    y: &[u8],
    scheme: &ScoringScheme,
    x_free: bool,
    y_free: bool,
) -> AffineMatrices {
    let mut mat = AffineMatrices { w: 1, h: Vec::new(), e: Vec::new(), f: Vec::new() };
    fill_affine_into(x, y, scheme, x_free, y_free, &mut mat);
    mat
}

/// [`fill_affine`] into a caller-owned matrix arena. Only the borders are
/// re-initialised; every interior cell is overwritten by the fill loop, so
/// stale values from a previous (possibly larger) pair are harmless.
pub(crate) fn fill_affine_into(
    x: &[u8],
    y: &[u8],
    scheme: &ScoringScheme,
    x_free: bool,
    y_free: bool,
    mat: &mut AffineMatrices,
) {
    let (m, n) = (x.len(), y.len());
    let w = n + 1;
    let len = (m + 1) * w;
    mat.w = w;
    if mat.h.len() < len {
        mat.h.resize(len, NEG_INF);
        mat.e.resize(len, NEG_INF);
        mat.f.resize(len, NEG_INF);
    }
    mat.h[0] = 0;
    mat.e[0] = NEG_INF;
    mat.f[0] = NEG_INF;
    for j in 1..=n {
        let v = if y_free { 0 } else { -gap_cost(scheme, j) };
        mat.h[j] = v;
        mat.e[j] = if y_free { NEG_INF } else { v };
        mat.f[j] = NEG_INF;
    }
    for i in 1..=m {
        let v = if x_free { 0 } else { -gap_cost(scheme, i) };
        let at = mat.idx(i, 0);
        mat.h[at] = v;
        mat.e[at] = NEG_INF;
        mat.f[at] = if x_free { NEG_INF } else { v };
    }
    for i in 1..=m {
        let xi = x[i - 1];
        for j in 1..=n {
            let at = mat.idx(i, j);
            let up = mat.idx(i - 1, j);
            let left = at - 1;
            let diag = mat.idx(i - 1, j - 1);
            let e = (mat.h[left] - scheme.gap_open).max(mat.e[left] - scheme.gap_extend);
            let f = (mat.h[up] - scheme.gap_open).max(mat.f[up] - scheme.gap_extend);
            let s = mat.h[diag] + scheme.matrix.score_codes(xi, y[j - 1]);
            mat.e[at] = e;
            mat.f[at] = f;
            mat.h[at] = s.max(e).max(f);
        }
    }
}

/// Which DP layer the traceback is currently in.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Layer {
    H,
    E,
    F,
}

/// Trace back from `(i, j)` in layer `H` until `stop(i, j)` holds,
/// reconstructing the operation list by re-deriving each decision from the
/// stored layer values (no separate traceback matrix needed).
pub(crate) fn traceback_affine(
    mat: &AffineMatrices,
    x: &[u8],
    y: &[u8],
    scheme: &ScoringScheme,
    start: (usize, usize),
    stop: impl Fn(usize, usize) -> bool,
) -> (Vec<AlignOp>, (usize, usize)) {
    let (mut i, mut j) = start;
    let mut ops = Vec::new();
    let mut layer = Layer::H;
    while !(layer == Layer::H && stop(i, j)) {
        let at = mat.idx(i, j);
        match layer {
            Layer::H => {
                let h = mat.h[at];
                if i > 0 && j > 0 {
                    let diag = mat.idx(i - 1, j - 1);
                    if mat.h[diag] != NEG_INF
                        && h == mat.h[diag] + scheme.matrix.score_codes(x[i - 1], y[j - 1])
                    {
                        ops.push(AlignOp::Subst);
                        i -= 1;
                        j -= 1;
                        continue;
                    }
                }
                if j > 0 && h == mat.e[at] {
                    layer = Layer::E;
                } else if i > 0 && h == mat.f[at] {
                    layer = Layer::F;
                } else if j > 0 && i == 0 {
                    // Boundary gap row (global init without E seeded).
                    ops.push(AlignOp::InsertY);
                    j -= 1;
                } else if i > 0 && j == 0 {
                    ops.push(AlignOp::InsertX);
                    i -= 1;
                } else {
                    unreachable!("traceback stuck at ({i},{j}) in H");
                }
            }
            Layer::E => {
                let left = mat.idx(i, j - 1);
                ops.push(AlignOp::InsertY);
                let e = mat.e[at];
                if mat.e[left] != NEG_INF && e == mat.e[left] - scheme.gap_extend {
                    // stay in E
                } else {
                    debug_assert_eq!(e, mat.h[left] - scheme.gap_open);
                    layer = Layer::H;
                }
                j -= 1;
            }
            Layer::F => {
                let up = mat.idx(i - 1, j);
                ops.push(AlignOp::InsertX);
                let f = mat.f[at];
                if mat.f[up] != NEG_INF && f == mat.f[up] - scheme.gap_extend {
                    // stay in F
                } else {
                    debug_assert_eq!(f, mat.h[up] - scheme.gap_open);
                    layer = Layer::H;
                }
                i -= 1;
            }
        }
    }
    ops.reverse();
    (ops, (i, j))
}

/// Global alignment with affine gaps (Gotoh), full traceback.
pub fn global_affine(x: &[u8], y: &[u8], scheme: &ScoringScheme) -> Alignment {
    global_affine_with(x, y, scheme, &mut AlignScratch::new())
}

/// [`global_affine`] reusing a caller-owned [`AlignScratch`] arena, so hot
/// loops pay no per-call matrix allocation.
pub fn global_affine_with(
    x: &[u8],
    y: &[u8],
    scheme: &ScoringScheme,
    scratch: &mut AlignScratch,
) -> Alignment {
    let (m, n) = (x.len(), y.len());
    fill_affine_into(x, y, scheme, false, false, &mut scratch.mat);
    let mat = &scratch.mat;
    let score = mat.h[mat.idx(m, n)];
    let (ops, origin) = traceback_affine(mat, x, y, scheme, (m, n), |i, j| i == 0 && j == 0);
    debug_assert_eq!(origin, (0, 0));
    Alignment { score, ops, x_range: (0, m), y_range: (0, n) }
}

/// Global alignment with linear gaps and full traceback — the classic
/// Needleman–Wunsch formulation, kept as an independent implementation for
/// cross-validation against the affine engine.
#[allow(clippy::needless_range_loop)] // index arithmetic over the flat DP row is clearer here
pub fn global_linear(x: &[u8], y: &[u8], gap: i32, scheme: &ScoringScheme) -> Alignment {
    let gap = gap.abs();
    let (m, n) = (x.len(), y.len());
    let w = n + 1;
    let mut h = vec![0i32; (m + 1) * w];
    for j in 1..=n {
        h[j] = -(j as i32) * gap;
    }
    for i in 1..=m {
        h[i * w] = -(i as i32) * gap;
        for j in 1..=n {
            let s = h[(i - 1) * w + j - 1] + scheme.matrix.score_codes(x[i - 1], y[j - 1]);
            let del = h[(i - 1) * w + j] - gap;
            let ins = h[i * w + j - 1] - gap;
            h[i * w + j] = s.max(del).max(ins);
        }
    }
    // Traceback.
    let (mut i, mut j) = (m, n);
    let mut ops = Vec::new();
    while i > 0 || j > 0 {
        let cur = h[i * w + j];
        if i > 0
            && j > 0
            && cur == h[(i - 1) * w + j - 1] + scheme.matrix.score_codes(x[i - 1], y[j - 1])
        {
            ops.push(AlignOp::Subst);
            i -= 1;
            j -= 1;
        } else if i > 0 && cur == h[(i - 1) * w + j] - gap {
            ops.push(AlignOp::InsertX);
            i -= 1;
        } else {
            debug_assert!(j > 0);
            ops.push(AlignOp::InsertY);
            j -= 1;
        }
    }
    ops.reverse();
    Alignment { score: h[m * w + n], ops, x_range: (0, m), y_range: (0, n) }
}

/// Score-only global affine alignment in O(min(m,n)) space — used where the
/// alignment path is not needed (e.g. quick cutoff pre-checks).
pub fn global_score(x: &[u8], y: &[u8], scheme: &ScoringScheme) -> i32 {
    global_score_with(x, y, scheme, &mut AlignScratch::new())
}

/// [`global_score`] reusing a caller-owned [`AlignScratch`] arena.
#[allow(clippy::needless_range_loop)] // rolling-row DP indexes three arrays in lockstep
pub fn global_score_with(
    x: &[u8],
    y: &[u8],
    scheme: &ScoringScheme,
    scratch: &mut AlignScratch,
) -> i32 {
    // Keep the shorter sequence along the row to minimise memory.
    let (a, b) = if y.len() <= x.len() { (x, y) } else { (y, x) };
    let n = b.len();
    let h = &mut scratch.row_h;
    h.clear();
    h.resize(n + 1, 0);
    // F depends on the cell above (previous row, same column) → carried per
    // column; E depends on the cell to the left (same row) → a scalar.
    let f = &mut scratch.row_f;
    f.clear();
    f.resize(n + 1, NEG_INF);
    for j in 1..=n {
        h[j] = -gap_cost(scheme, j);
    }
    for i in 1..=a.len() {
        let mut diag = h[0];
        h[0] = -gap_cost(scheme, i);
        let mut e = NEG_INF;
        for j in 1..=n {
            // h[j - 1] is already this row's value; h[j] still holds row i-1.
            e = (h[j - 1] - scheme.gap_open).max(e - scheme.gap_extend);
            f[j] = (h[j] - scheme.gap_open).max(f[j] - scheme.gap_extend);
            let s = diag + scheme.matrix.score_codes(a[i - 1], b[j - 1]);
            diag = h[j];
            h[j] = s.max(e).max(f[j]);
        }
    }
    h[n]
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfam_seq::alphabet::encode;
    use pfam_seq::SubstMatrix;

    fn codes(s: &str) -> Vec<u8> {
        encode(s.as_bytes()).unwrap()
    }

    fn scheme_linear() -> ScoringScheme {
        ScoringScheme::linear(SubstMatrix::uniform(2, -1), -2)
    }

    #[test]
    fn identical_sequences_score_full_match() {
        let x = codes("MKVLW");
        let s = ScoringScheme::blosum62_default();
        let aln = global_affine(&x, &x, &s);
        let expect: i32 = x.iter().map(|&c| s.matrix.score_codes(c, c)).sum();
        assert_eq!(aln.score, expect);
        assert!(aln.ops.iter().all(|&op| op == AlignOp::Subst));
    }

    #[test]
    fn empty_vs_sequence_is_all_gaps() {
        let y = codes("ACDE");
        let s = ScoringScheme::blosum62_default();
        let aln = global_affine(&[], &y, &s);
        assert_eq!(aln.score, -gap_cost(&s, 4));
        assert_eq!(aln.ops.len(), 4);
        assert!(aln.ops.iter().all(|&op| op == AlignOp::InsertY));
    }

    #[test]
    fn both_empty() {
        let s = ScoringScheme::blosum62_default();
        let aln = global_affine(&[], &[], &s);
        assert_eq!(aln.score, 0);
        assert!(aln.is_empty());
    }

    #[test]
    fn affine_prefers_one_long_gap() {
        // With open=5, extend=1, deleting "DD" as one gap (cost 6) beats two
        // separate gaps (cost 10); alignment should group the gap columns.
        let x = codes("AADDAA");
        let y = codes("AAAA");
        let scheme =
            ScoringScheme { matrix: SubstMatrix::uniform(2, -4), gap_open: 5, gap_extend: 1 };
        let aln = global_affine(&x, &y, &scheme);
        assert_eq!(aln.score, 4 * 2 - 6);
        let gap_positions: Vec<usize> = aln
            .ops
            .iter()
            .enumerate()
            .filter(|(_, &op)| op == AlignOp::InsertX)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(gap_positions.len(), 2);
        assert_eq!(gap_positions[1], gap_positions[0] + 1, "gap should be contiguous");
    }

    #[test]
    fn linear_and_affine_agree_when_open_equals_extend() {
        let xs = ["MKVLW", "ACDEFGH", "WWWW", "A"];
        let ys = ["MKVW", "ACDFGH", "WW", "ACDEFG"];
        let s = ScoringScheme::linear(SubstMatrix::blosum62().clone(), -3);
        for (xs, ys) in xs.iter().zip(ys.iter()) {
            let (x, y) = (codes(xs), codes(ys));
            let lin = global_linear(&x, &y, 3, &s);
            let aff = global_affine(&x, &y, &s);
            assert_eq!(lin.score, aff.score, "{xs} vs {ys}");
        }
    }

    #[test]
    fn score_only_matches_full_dp() {
        let pairs = [
            ("MKVLWAAK", "MKVWAK"),
            ("ACDEFGHIKLMN", "ACDFGIKLMN"),
            ("WWWWWWWW", "W"),
            ("A", "ACDEFGHIK"),
        ];
        let s = ScoringScheme::blosum62_default();
        for (a, b) in pairs {
            let (x, y) = (codes(a), codes(b));
            assert_eq!(global_score(&x, &y, &s), global_affine(&x, &y, &s).score, "{a} vs {b}");
            // Symmetric inputs (swap) must agree too.
            assert_eq!(global_score(&y, &x, &s), global_affine(&y, &x, &s).score);
        }
    }

    #[test]
    fn traceback_is_consistent_with_score() {
        let x = codes("MKVLWAARND");
        let y = codes("MKVWAAND");
        let s = ScoringScheme::blosum62_default();
        let aln = global_affine(&x, &y, &s);
        // Recompute the score from the ops.
        let mut score = 0i32;
        let (mut xi, mut yi) = (0usize, 0usize);
        let mut run: Option<AlignOp> = None;
        for &op in &aln.ops {
            match op {
                AlignOp::Subst => {
                    score += s.matrix.score_codes(x[xi], y[yi]);
                    xi += 1;
                    yi += 1;
                    run = None;
                }
                gap => {
                    score -= if run == Some(gap) { s.gap_extend } else { s.gap_open };
                    run = Some(gap);
                    if gap == AlignOp::InsertX {
                        xi += 1;
                    } else {
                        yi += 1;
                    }
                }
            }
        }
        assert_eq!((xi, yi), (x.len(), y.len()));
        assert_eq!(score, aln.score);
    }

    #[test]
    fn substitution_chosen_over_double_gap() {
        let x = codes("AC");
        let y = codes("AD");
        let aln = global_affine(&x, &y, &scheme_linear());
        assert_eq!(aln.ops, vec![AlignOp::Subst, AlignOp::Subst]);
        assert_eq!(aln.score, 2 - 1);
    }
}
