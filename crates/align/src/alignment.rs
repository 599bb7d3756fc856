//! Alignment representation and derived statistics.

use pfam_seq::SubstMatrix;

/// One column of a pairwise alignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlignOp {
    /// Residues aligned (match or substitution).
    Subst,
    /// Gap in the first sequence (`x`): a residue of `y` is inserted.
    InsertY,
    /// Gap in the second sequence (`y`): a residue of `x` is deleted.
    InsertX,
}

/// A pairwise alignment between a region of `x` and a region of `y`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alignment {
    /// Total alignment score under the scheme it was computed with.
    pub score: i32,
    /// Columns from the start of the aligned region to its end.
    pub ops: Vec<AlignOp>,
    /// Half-open residue range of `x` covered by the alignment.
    pub x_range: (usize, usize),
    /// Half-open residue range of `y` covered by the alignment.
    pub y_range: (usize, usize),
}

impl Alignment {
    /// Whether the alignment is empty (score 0, no columns).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Residues of `x` covered.
    pub fn x_span(&self) -> usize {
        self.x_range.1 - self.x_range.0
    }

    /// Residues of `y` covered.
    pub fn y_span(&self) -> usize {
        self.y_range.1 - self.y_range.0
    }

    /// Compute identity / similarity statistics against the original
    /// residue strings (internal codes).
    pub fn stats(&self, x: &[u8], y: &[u8], matrix: &SubstMatrix) -> AlignStats {
        let (mut xi, mut yi) = (self.x_range.0, self.y_range.0);
        let mut st = AlignStats::default();
        for &op in &self.ops {
            match op {
                AlignOp::Subst => {
                    st.push_subst(x[xi], y[yi], matrix);
                    xi += 1;
                    yi += 1;
                }
                AlignOp::InsertY => {
                    st.push_gap();
                    yi += 1;
                }
                AlignOp::InsertX => {
                    st.push_gap();
                    xi += 1;
                }
            }
        }
        debug_assert_eq!(xi, self.x_range.1, "ops inconsistent with x_range");
        debug_assert_eq!(yi, self.y_range.1, "ops inconsistent with y_range");
        st.x_span = self.x_span();
        st.y_span = self.y_span();
        st
    }
}

/// Derived per-alignment counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AlignStats {
    /// Total alignment columns.
    pub columns: usize,
    /// Exact residue matches (X never counts as a match).
    pub matches: usize,
    /// Columns with a positive substitution score (includes matches).
    pub positives: usize,
    /// Gapped columns.
    pub gap_cols: usize,
    /// Residues of `x` inside the aligned region.
    pub x_span: usize,
    /// Residues of `y` inside the aligned region.
    pub y_span: usize,
}

impl AlignStats {
    /// Count one substitution column aligning residue codes `a` and `b`.
    /// The spans are the caller's to set.
    #[inline]
    pub(crate) fn push_subst(&mut self, a: u8, b: u8, matrix: &SubstMatrix) {
        self.columns += 1;
        if a == b && a != pfam_seq::ALPHABET_SIZE as u8 - 1 {
            self.matches += 1;
            self.positives += 1;
        } else if matrix.is_positive(a, b) {
            self.positives += 1;
        }
    }

    /// Count one gapped column.
    #[inline]
    pub(crate) fn push_gap(&mut self) {
        self.columns += 1;
        self.gap_cols += 1;
    }

    /// Fraction of columns that are exact matches, in `[0, 1]`.
    pub fn identity(&self) -> f64 {
        if self.columns == 0 {
            0.0
        } else {
            self.matches as f64 / self.columns as f64
        }
    }

    /// Fraction of columns with positive substitution score — the
    /// "similarity" the paper's percentage cutoffs refer to.
    pub fn similarity(&self) -> f64 {
        if self.columns == 0 {
            0.0
        } else {
            self.positives as f64 / self.columns as f64
        }
    }

    /// Fraction of a sequence of length `len` covered by the aligned span.
    pub fn coverage_of(&self, span: usize, len: usize) -> f64 {
        if len == 0 {
            0.0
        } else {
            span as f64 / len as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfam_seq::alphabet::encode;

    fn codes(s: &str) -> Vec<u8> {
        encode(s.as_bytes()).unwrap()
    }

    #[test]
    fn stats_counts_matches_and_gaps() {
        // x: ACD-F   (x covers 0..4 "ACDF")
        // y: ACDEF   (y covers 0..5)
        let x = codes("ACDF");
        let y = codes("ACDEF");
        let aln = Alignment {
            score: 0,
            ops: vec![
                AlignOp::Subst,
                AlignOp::Subst,
                AlignOp::Subst,
                AlignOp::InsertY,
                AlignOp::Subst,
            ],
            x_range: (0, 4),
            y_range: (0, 5),
        };
        let st = aln.stats(&x, &y, pfam_seq::SubstMatrix::blosum62());
        assert_eq!(st.columns, 5);
        assert_eq!(st.matches, 4);
        assert_eq!(st.gap_cols, 1);
        assert!((st.identity() - 0.8).abs() < 1e-12);
        assert_eq!(st.x_span, 4);
        assert_eq!(st.y_span, 5);
    }

    #[test]
    fn positives_include_conservative_substitutions() {
        // I vs V scores +3 in BLOSUM62: a positive but not a match.
        let x = codes("I");
        let y = codes("V");
        let aln =
            Alignment { score: 3, ops: vec![AlignOp::Subst], x_range: (0, 1), y_range: (0, 1) };
        let st = aln.stats(&x, &y, pfam_seq::SubstMatrix::blosum62());
        assert_eq!(st.matches, 0);
        assert_eq!(st.positives, 1);
        assert_eq!(st.identity(), 0.0);
        assert_eq!(st.similarity(), 1.0);
    }

    #[test]
    fn x_residues_never_match() {
        let x = codes("X");
        let y = codes("X");
        let aln =
            Alignment { score: -1, ops: vec![AlignOp::Subst], x_range: (0, 1), y_range: (0, 1) };
        let st = aln.stats(&x, &y, pfam_seq::SubstMatrix::blosum62());
        assert_eq!(st.matches, 0);
        assert_eq!(st.positives, 0);
    }

    #[test]
    fn empty_alignment_stats() {
        let aln = Alignment { score: 0, ops: vec![], x_range: (3, 3), y_range: (5, 5) };
        let st = aln.stats(&codes("ACDEF"), &codes("ACDEF"), pfam_seq::SubstMatrix::blosum62());
        assert_eq!(st.identity(), 0.0);
        assert_eq!(st.similarity(), 0.0);
        assert!(aln.is_empty());
    }

    #[test]
    fn coverage_helper() {
        let st = AlignStats {
            columns: 10,
            matches: 9,
            positives: 9,
            gap_cols: 0,
            x_span: 10,
            y_span: 10,
        };
        assert!((st.coverage_of(st.x_span, 20) - 0.5).abs() < 1e-12);
        assert_eq!(st.coverage_of(st.x_span, 0), 0.0);
    }
}
