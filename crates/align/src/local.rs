//! Smith–Waterman local alignment with affine gaps.
//!
//! This is the kernel behind both acceptance tests of the paper: the
//! containment test of Definition 1 and the overlap test of Definition 2
//! are evaluated over the optimal *local* alignment of a candidate pair.

use pfam_seq::ScoringScheme;

use crate::alignment::{AlignOp, Alignment};
use crate::scratch::AlignScratch;

/// Sentinel for "unreachable" DP states; far enough from `i32::MIN` that
/// subtracting a gap penalty cannot overflow.
pub(crate) const NEG_INF: i32 = i32::MIN / 4;

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

/// Optimal local alignment (affine gaps) with full traceback.
///
/// Returns an empty alignment (score 0) when no positively-scoring region
/// exists.
pub fn local_affine(x: &[u8], y: &[u8], scheme: &ScoringScheme) -> Alignment {
    local_affine_with(x, y, scheme, &mut AlignScratch::new())
}

/// [`local_affine`] reusing a caller-owned [`AlignScratch`] arena, so hot
/// loops pay no per-call matrix allocation. Only the DP borders are
/// re-initialised; the interior is fully overwritten by the fill loop.
pub fn local_affine_with(
    x: &[u8],
    y: &[u8],
    scheme: &ScoringScheme,
    scratch: &mut AlignScratch,
) -> Alignment {
    let (m, n) = (x.len(), y.len());
    let w = n + 1;
    let len = (m + 1) * w;
    let mat = &mut scratch.mat;
    mat.w = w;
    if mat.h.len() < len {
        mat.h.resize(len, 0);
        mat.e.resize(len, NEG_INF);
        mat.f.resize(len, NEG_INF);
    }
    let (h, e, f) = (&mut mat.h, &mut mat.e, &mut mat.f);
    for j in 0..=n {
        h[j] = 0;
        e[j] = NEG_INF;
        f[j] = NEG_INF;
    }
    for i in 1..=m {
        let at = i * w;
        h[at] = 0;
        e[at] = NEG_INF;
        f[at] = NEG_INF;
    }
    let mut best = 0i32;
    let mut best_at = (0usize, 0usize);
    for i in 1..=m {
        let xi = x[i - 1];
        for j in 1..=n {
            let at = i * w + j;
            let ev = (h[at - 1] - scheme.gap_open).max(e[at - 1] - scheme.gap_extend);
            let fv = (h[at - w] - scheme.gap_open).max(f[at - w] - scheme.gap_extend);
            let sv = h[at - w - 1] + scheme.matrix.score_codes(xi, y[j - 1]);
            let hv = sv.max(ev).max(fv).max(0);
            e[at] = ev;
            f[at] = fv;
            h[at] = hv;
            if hv > best {
                best = hv;
                best_at = (i, j);
            }
        }
    }
    if best == 0 {
        return Alignment { score: 0, ops: Vec::new(), x_range: (0, 0), y_range: (0, 0) };
    }
    traceback_local(x, y, scheme, &scratch.mat, best, best_at)
}

/// Traceback of the filled matrices, from `best_at` back to the first zero
/// cell in layer H. The order of its tests — zero, diagonal, `E`, else `F`;
/// stay in a gap layer before re-opening — is the precedence the one-pass
/// fill's direction bytes ([`crate::onepass`]) record.
fn traceback_local(
    x: &[u8],
    y: &[u8],
    scheme: &ScoringScheme,
    mat: &AffineMatrices,
    best: i32,
    best_at: (usize, usize),
) -> Alignment {
    let w = mat.w;
    let (h, e, f) = (&mat.h, &mat.e, &mat.f);
    #[derive(PartialEq, Clone, Copy)]
    enum Layer {
        H,
        E,
        F,
    }
    let (mut i, mut j) = best_at;
    let mut ops = Vec::new();
    let mut layer = Layer::H;
    loop {
        let at = i * w + j;
        match layer {
            Layer::H => {
                let hv = h[at];
                if hv == 0 {
                    break;
                }
                let diag = at - w - 1;
                if i > 0 && j > 0 && hv == h[diag] + scheme.matrix.score_codes(x[i - 1], y[j - 1]) {
                    ops.push(AlignOp::Subst);
                    i -= 1;
                    j -= 1;
                } else if hv == e[at] {
                    layer = Layer::E;
                } else {
                    debug_assert_eq!(hv, f[at]);
                    layer = Layer::F;
                }
            }
            Layer::E => {
                ops.push(AlignOp::InsertY);
                let left = at - 1;
                if e[left] != NEG_INF && e[at] == e[left] - scheme.gap_extend {
                    // stay in E
                } else {
                    debug_assert_eq!(e[at], h[left] - scheme.gap_open);
                    layer = Layer::H;
                }
                j -= 1;
            }
            Layer::F => {
                ops.push(AlignOp::InsertX);
                let up = at - w;
                if f[up] != NEG_INF && f[at] == f[up] - scheme.gap_extend {
                    // stay in F
                } else {
                    debug_assert_eq!(f[at], h[up] - scheme.gap_open);
                    layer = Layer::H;
                }
                i -= 1;
            }
        }
    }
    ops.reverse();
    Alignment { score: best, ops, x_range: (i, best_at.0), y_range: (j, best_at.1) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfam_seq::alphabet::encode;
    use pfam_seq::SubstMatrix;

    fn codes(s: &str) -> Vec<u8> {
        encode(s.as_bytes()).unwrap()
    }

    fn blosum() -> ScoringScheme {
        ScoringScheme::blosum62_default()
    }

    #[test]
    fn finds_embedded_common_region() {
        // Shared core "MKVLWAAK" embedded in different flanks.
        let x = codes("PPPPMKVLWAAKPPPP");
        let y = codes("GGMKVLWAAKGG");
        let aln = local_affine(&x, &y, &blosum());
        let core = codes("MKVLWAAK");
        let expect: i32 = core.iter().map(|&c| blosum().matrix.score_codes(c, c)).sum();
        assert_eq!(aln.score, expect);
        assert_eq!(aln.x_range, (4, 12));
        assert_eq!(aln.y_range, (2, 10));
        assert!(aln.ops.iter().all(|&op| op == AlignOp::Subst));
    }

    #[test]
    fn unrelated_sequences_score_low() {
        // P-vs-W rich strings with no positive pairs.
        let x = codes("PPPPPPPP");
        let y = codes("WWWWWWWW");
        let aln = local_affine(&x, &y, &blosum());
        assert_eq!(aln.score, 0);
        assert!(aln.is_empty());
    }

    #[test]
    fn local_never_negative_and_at_least_best_pair() {
        let x = codes("ACDEFGHIKLMNPQRSTVWY");
        let y = codes("YWVTSRQPNMLKIHGFEDCA");
        let s = blosum();
        let score = local_affine(&x, &y, &s).score;
        assert!(score >= 0);
        // Any single identical residue pair gives at least min diagonal score (4).
        assert!(score >= 4);
    }

    #[test]
    fn local_handles_gap_in_middle() {
        let x = codes("MKVLWAAK");
        let y = codes("MKVLWGGGAAK"); // GGG inserted
                                      // Cheap gaps so bridging the insert strictly beats stopping early.
        let s =
            ScoringScheme { matrix: SubstMatrix::blosum62().clone(), gap_open: 4, gap_extend: 1 };
        let aln = local_affine(&x, &y, &s);
        let gap_cols = aln.ops.iter().filter(|&&op| op == AlignOp::InsertY).count();
        assert_eq!(gap_cols, 3);
        let st = aln.stats(&x, &y, &s.matrix);
        assert_eq!(st.matches, 8);
    }

    #[test]
    fn empty_inputs() {
        let s = blosum();
        assert_eq!(local_affine(&[], &codes("ACD"), &s).score, 0);
        assert_eq!(local_affine(&codes("ACD"), &[], &s).score, 0);
        assert_eq!(local_affine(&[], &[], &s).score, 0);
    }

    #[test]
    fn local_at_least_best_ungapped_segment() {
        // A gap-free stretch of one diagonal is a local alignment, so the
        // best of them — every start, every length — bounds the optimum
        // from below; where the optimum has no gap the bound is tight.
        let pairs =
            [("MKVLW", "MKW"), ("ACDEF", "WWWWW"), ("AAAA", "AAAAGGGG"), ("PPMKVLW", "MKVLWGG")];
        let s = blosum();
        for (a, b) in pairs {
            let (x, y) = (codes(a), codes(b));
            let mut floor = 0;
            for i in 0..x.len() {
                for j in 0..y.len() {
                    let mut run = 0;
                    for (&p, &q) in x[i..].iter().zip(&y[j..]) {
                        run += s.matrix.score_codes(p, q);
                        floor = floor.max(run);
                    }
                }
            }
            let aln = local_affine(&x, &y, &s);
            assert!(aln.score >= floor, "{a} vs {b}: {} under {floor}", aln.score);
            if aln.ops.iter().all(|&op| op == AlignOp::Subst) {
                assert_eq!(aln.score, floor, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn traceback_ranges_consistent_with_ops() {
        let x = codes("GGMKVLWAAKGG");
        let y = codes("TTTMKVLWAAKTTT");
        let aln = local_affine(&x, &y, &blosum());
        let subst = aln.ops.iter().filter(|&&o| o == AlignOp::Subst).count();
        let ins_x = aln.ops.iter().filter(|&&o| o == AlignOp::InsertX).count();
        let ins_y = aln.ops.iter().filter(|&&o| o == AlignOp::InsertY).count();
        assert_eq!(aln.x_span(), subst + ins_x);
        assert_eq!(aln.y_span(), subst + ins_y);
    }
}
