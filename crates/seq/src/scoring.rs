//! Substitution matrices and gap-penalty schemes for peptide alignment.
//!
//! The workspace ships the standard BLOSUM62 matrix (the default for
//! protein comparison tools such as BLASTP, which the GOS baseline used),
//! an identity matrix, and a parametric match/mismatch matrix for tests.
//! Scores are `i32` in half-bit units, matching the published tables.

use crate::alphabet::ALPHABET_SIZE;

/// A dense 21×21 substitution score lookup (20 residues + `X`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubstMatrix {
    /// Human-readable name, e.g. `"BLOSUM62"`.
    pub name: &'static str,
    scores: [[i32; ALPHABET_SIZE]; ALPHABET_SIZE],
}

impl SubstMatrix {
    /// Score lookup by raw residue codes (hot path in DP loops).
    #[inline]
    pub fn score_codes(&self, a: u8, b: u8) -> i32 {
        self.scores[a as usize][b as usize]
    }

    /// The largest score in the matrix (used for band sizing / bounds).
    pub fn max_score(&self) -> i32 {
        self.scores.iter().flatten().copied().max().expect("matrix is non-empty")
    }

    /// The smallest score in the matrix.
    pub fn min_score(&self) -> i32 {
        self.scores.iter().flatten().copied().min().expect("matrix is non-empty")
    }

    /// Whether aligning `a` with `b` counts as a "positive" (conservative)
    /// substitution, i.e. scores greater than zero. Percent-similarity
    /// cutoffs in the paper (95 % containment, 30 % overlap) are evaluated
    /// over positives.
    #[inline]
    pub fn is_positive(&self, a: u8, b: u8) -> bool {
        self.score_codes(a, b) > 0
    }

    /// The standard BLOSUM62 matrix, with a uniform −1 for the ambiguity
    /// residue `X` (a simplification of NCBI's per-column X scores that
    /// never makes `X` pairs positive).
    pub fn blosum62() -> &'static SubstMatrix {
        &BLOSUM62
    }

    /// Fully parametric match/mismatch matrix (diagonal = `matched`,
    /// off-diagonal = `mismatched`), `X` treated as any other residue.
    pub fn uniform(matched: i32, mismatched: i32) -> SubstMatrix {
        let mut scores = [[mismatched; ALPHABET_SIZE]; ALPHABET_SIZE];
        for (i, row) in scores.iter_mut().enumerate() {
            row[i] = matched;
        }
        SubstMatrix { name: "UNIFORM", scores }
    }
}

/// Gap model + substitution matrix: everything an aligner needs.
#[derive(Debug, Clone)]
pub struct ScoringScheme {
    /// Substitution scores.
    pub matrix: SubstMatrix,
    /// Cost of opening a gap (charged on the first gapped position),
    /// as a non-negative penalty.
    pub gap_open: i32,
    /// Cost of each additional gapped position, non-negative.
    pub gap_extend: i32,
}

impl ScoringScheme {
    /// BLOSUM62 with the BLASTP-default affine penalties (11, 1).
    pub fn blosum62_default() -> ScoringScheme {
        ScoringScheme { matrix: SubstMatrix::blosum62().clone(), gap_open: 11, gap_extend: 1 }
    }
}

// Row order: A R N D C Q E G H I L K M F P S T W Y V (+ X appended).
// Values are the canonical published BLOSUM62 half-bit scores.
const B62: [[i32; 20]; 20] = [
    [4, -1, -2, -2, 0, -1, -1, 0, -2, -1, -1, -1, -1, -2, -1, 1, 0, -3, -2, 0],
    [-1, 5, 0, -2, -3, 1, 0, -2, 0, -3, -2, 2, -1, -3, -2, -1, -1, -3, -2, -3],
    [-2, 0, 6, 1, -3, 0, 0, 0, 1, -3, -3, 0, -2, -3, -2, 1, 0, -4, -2, -3],
    [-2, -2, 1, 6, -3, 0, 2, -1, -1, -3, -4, -1, -3, -3, -1, 0, -1, -4, -3, -3],
    [0, -3, -3, -3, 9, -3, -4, -3, -3, -1, -1, -3, -1, -2, -3, -1, -1, -2, -2, -1],
    [-1, 1, 0, 0, -3, 5, 2, -2, 0, -3, -2, 1, 0, -3, -1, 0, -1, -2, -1, -2],
    [-1, 0, 0, 2, -4, 2, 5, -2, 0, -3, -3, 1, -2, -3, -1, 0, -1, -3, -2, -2],
    [0, -2, 0, -1, -3, -2, -2, 6, -2, -4, -4, -2, -3, -3, -2, 0, -2, -2, -3, -3],
    [-2, 0, 1, -1, -3, 0, 0, -2, 8, -3, -3, -1, -2, -1, -2, -1, -2, -2, 2, -3],
    [-1, -3, -3, -3, -1, -3, -3, -4, -3, 4, 2, -3, 1, 0, -3, -2, -1, -3, -1, 3],
    [-1, -2, -3, -4, -1, -2, -3, -4, -3, 2, 4, -2, 2, 0, -3, -2, -1, -2, -1, 1],
    [-1, 2, 0, -1, -3, 1, 1, -2, -1, -3, -2, 5, -1, -3, -1, 0, -1, -3, -2, -2],
    [-1, -1, -2, -3, -1, 0, -2, -3, -2, 1, 2, -1, 5, 0, -2, -1, -1, -1, -1, 1],
    [-2, -3, -3, -3, -2, -3, -3, -3, -1, 0, 0, -3, 0, 6, -4, -2, -2, 1, 3, -1],
    [-1, -2, -2, -1, -3, -1, -1, -2, -2, -3, -3, -1, -2, -4, 7, -1, -1, -4, -3, -2],
    [1, -1, 1, 0, -1, 0, 0, 0, -1, -2, -2, 0, -1, -2, -1, 4, 1, -3, -2, -2],
    [0, -1, 0, -1, -1, -1, -1, -2, -2, -1, -1, -1, -1, -2, -1, 1, 5, -2, -2, 0],
    [-3, -3, -4, -4, -2, -2, -3, -2, -2, -3, -2, -3, -1, 1, -4, -3, -2, 11, 2, -3],
    [-2, -2, -2, -3, -2, -1, -2, -3, 2, -1, -1, -2, -1, 3, -3, -2, -2, 2, 7, -1],
    [0, -3, -3, -3, -1, -2, -2, -3, -3, 3, 1, -2, 1, -1, -2, -2, 0, -3, -1, 4],
];

static BLOSUM62: SubstMatrix = {
    let mut scores = [[-1i32; ALPHABET_SIZE]; ALPHABET_SIZE];
    let mut i = 0;
    while i < 20 {
        let mut j = 0;
        while j < 20 {
            scores[i][j] = B62[i][j];
            j += 1;
        }
        i += 1;
    }
    SubstMatrix { name: "BLOSUM62", scores }
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::AminoAcid;

    fn aa(letter: u8) -> u8 {
        AminoAcid::from_letter(letter).unwrap().code()
    }

    #[test]
    fn blosum62_is_symmetric() {
        let m = SubstMatrix::blosum62();
        for a in 0..ALPHABET_SIZE as u8 {
            for b in 0..ALPHABET_SIZE as u8 {
                assert_eq!(m.score_codes(a, b), m.score_codes(b, a), "asymmetry at ({a},{b})");
            }
        }
    }

    #[test]
    fn blosum62_known_values() {
        let m = SubstMatrix::blosum62();
        assert_eq!(m.score_codes(aa(b'W'), aa(b'W')), 11);
        assert_eq!(m.score_codes(aa(b'A'), aa(b'A')), 4);
        assert_eq!(m.score_codes(aa(b'C'), aa(b'C')), 9);
        assert_eq!(m.score_codes(aa(b'I'), aa(b'L')), 2);
        assert_eq!(m.score_codes(aa(b'W'), aa(b'P')), -4);
        assert_eq!(m.score_codes(aa(b'E'), aa(b'D')), 2);
    }

    #[test]
    fn blosum62_diagonal_dominates_row() {
        // Every residue scores at least as high against itself as against
        // any other residue — a sanity property of log-odds matrices.
        let m = SubstMatrix::blosum62();
        for a in 0..20u8 {
            let diag = m.score_codes(a, a);
            for b in 0..20u8 {
                assert!(m.score_codes(a, b) <= diag, "({a},{b}) beats diagonal");
            }
        }
    }

    #[test]
    fn x_is_uniformly_negative() {
        let m = SubstMatrix::blosum62();
        let x = AminoAcid::UNKNOWN.code();
        for b in 0..20 {
            assert_eq!(m.score_codes(x, b), -1);
        }
        assert_eq!(m.score_codes(x, x), -1);
        assert!(!m.is_positive(x, x));
    }

    #[test]
    fn extrema() {
        let m = SubstMatrix::blosum62();
        assert_eq!(m.max_score(), 11);
        assert_eq!(m.min_score(), -4);
    }

    #[test]
    fn uniform_matrix() {
        let m = SubstMatrix::uniform(5, -3);
        assert_eq!(m.score_codes(aa(b'G'), aa(b'G')), 5);
        assert_eq!(m.score_codes(aa(b'G'), aa(b'H')), -3);
        assert_eq!(m.max_score(), 5);
        assert_eq!(m.min_score(), -3);
    }

    #[test]
    fn default_scheme_is_blastp_affine() {
        let s = ScoringScheme::blosum62_default();
        assert_eq!(s.gap_open, 11);
        assert_eq!(s.gap_extend, 1);
    }

    #[test]
    fn positives_follow_sign() {
        let m = SubstMatrix::blosum62();
        assert!(m.is_positive(aa(b'I'), aa(b'V'))); // +3
        assert!(!m.is_positive(aa(b'A'), aa(b'T'))); // 0
    }
}
