//! The paper's pair-acceptance tests (Definitions 1 and 2).
//!
//! * **Definition 1 (containment)** — sequence `sᵢ` is *contained* in `sⱼ`
//!   if an optimal alignment has (i) ≥ 95 % similarity over the overlapping
//!   region and (ii) ≥ 95 % of `sᵢ` inside the overlapping region. Used by
//!   the redundancy-removal phase.
//! * **Definition 2 (overlap)** — two sequences *overlap* if they share a
//!   local alignment with ≥ 30 % similarity covering ≥ 80 % of the longer
//!   sequence. Used by the connected-component-detection phase.
//!
//! Both cutoffs are soft parameters (footnote 3 of the paper); the structs
//! here carry the defaults but let callers override them.

use pfam_seq::ScoringScheme;

use crate::alignment::AlignStats;
use crate::local::local_affine;

/// Parameters for the Definition-1 containment test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContainmentParams {
    /// Minimum similarity over the overlapping region (default 0.95).
    pub min_similarity: f64,
    /// Minimum fraction of the contained sequence inside the overlap
    /// (default 0.95).
    pub min_coverage: f64,
}

impl Default for ContainmentParams {
    fn default() -> Self {
        ContainmentParams { min_similarity: 0.95, min_coverage: 0.95 }
    }
}

impl ContainmentParams {
    /// Definition 1 over the statistics of the optimal local alignment of
    /// an `x` of length `x_len` (the candidate) against its container.
    pub fn accepts(&self, st: &AlignStats, x_len: usize) -> bool {
        self.accepts_span(st, st.x_span, x_len)
    }

    /// Definition 1 for the *second* sequence of the same alignment: is
    /// the `y` of length `y_len` contained in `x`? Read off the statistics
    /// of `(x, y)` as aligned — not of the transposed pair, whose optimal
    /// alignment may break ties differently.
    pub fn accepts_y(&self, st: &AlignStats, y_len: usize) -> bool {
        self.accepts_span(st, st.y_span, y_len)
    }

    fn accepts_span(&self, st: &AlignStats, span: usize, len: usize) -> bool {
        st.similarity() >= self.min_similarity && st.coverage_of(span, len) >= self.min_coverage
    }
}

/// Parameters for the Definition-2 overlap test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverlapParams {
    /// Minimum similarity over the aligned region (default 0.30).
    pub min_similarity: f64,
    /// Minimum fraction of the *longer* sequence covered (default 0.80).
    pub min_longer_coverage: f64,
}

impl Default for OverlapParams {
    fn default() -> Self {
        OverlapParams { min_similarity: 0.30, min_longer_coverage: 0.80 }
    }
}

impl OverlapParams {
    /// Definition 2 over the statistics of the optimal local alignment of
    /// sequences of lengths `x_len` and `y_len`; coverage is measured on
    /// the longer one (`x` on a tie).
    pub fn accepts(&self, st: &AlignStats, x_len: usize, y_len: usize) -> bool {
        let (long_span, long_len) =
            if x_len >= y_len { (st.x_span, x_len) } else { (st.y_span, y_len) };
        st.similarity() >= self.min_similarity
            && st.coverage_of(long_span, long_len) >= self.min_longer_coverage
    }
}

/// Definition 1: is `x` contained in `y`?
///
/// Evaluated over the optimal local alignment: the aligned region must be
/// similar enough and must cover nearly all of `x`. Asymmetric — containment
/// of the shorter in the longer is the biologically meaningful direction,
/// but the function itself imposes no length ordering.
pub fn is_contained(x: &[u8], y: &[u8], scheme: &ScoringScheme, p: &ContainmentParams) -> bool {
    local_stats(x, y, scheme).is_some_and(|st| p.accepts(&st, x.len()))
}

/// Statistics of the optimal local alignment of `x` against `y` — what
/// every criterion of the pair is read off. `None` when either sequence is
/// empty or nothing aligns.
pub(crate) fn local_stats(x: &[u8], y: &[u8], scheme: &ScoringScheme) -> Option<AlignStats> {
    if x.is_empty() || y.is_empty() {
        return None;
    }
    let aln = local_affine(x, y, scheme);
    (!aln.is_empty()).then(|| aln.stats(x, y, &scheme.matrix))
}

/// Definition 2: do `x` and `y` overlap?
///
/// Symmetric: the coverage condition is evaluated against the longer of the
/// two sequences.
pub fn overlaps(x: &[u8], y: &[u8], scheme: &ScoringScheme, p: &OverlapParams) -> bool {
    local_stats(x, y, scheme).is_some_and(|st| p.accepts(&st, x.len(), y.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfam_seq::alphabet::encode;

    fn codes(s: &str) -> Vec<u8> {
        encode(s.as_bytes()).unwrap()
    }

    fn blosum() -> ScoringScheme {
        ScoringScheme::blosum62_default()
    }

    const CORE: &str = "MKVLWAAKNDCQEGHILKMFPSTWYV";

    #[test]
    fn exact_substring_is_contained() {
        let x = codes(CORE);
        let y = codes(&format!("GGGG{CORE}TTTT"));
        assert!(is_contained(&x, &y, &blosum(), &ContainmentParams::default()));
        // The container is NOT contained in the fragment.
        assert!(!is_contained(&y, &x, &blosum(), &ContainmentParams::default()));
    }

    #[test]
    fn identical_sequences_contain_each_other() {
        let x = codes(CORE);
        let p = ContainmentParams::default();
        assert!(is_contained(&x, &x, &blosum(), &p));
    }

    #[test]
    fn one_mismatch_in_26_still_contained() {
        // 25/26 ≈ 96 % identity — above the 95 % default.
        let x = codes(CORE);
        let mut mutated = CORE.to_owned().into_bytes();
        mutated[10] = b'P'; // L -> P, a negative substitution
        let y = codes(&format!("GG{}GG", String::from_utf8(mutated).unwrap()));
        assert!(is_contained(&x, &y, &blosum(), &ContainmentParams::default()));
    }

    #[test]
    fn two_mismatches_in_26_not_contained() {
        // 24/26 ≈ 92 % — below the default cutoff... unless the local
        // alignment trims them; put mismatches mid-sequence so trimming
        // would sacrifice coverage instead.
        let mut mutated = CORE.to_owned().into_bytes();
        mutated[10] = b'P';
        mutated[14] = b'G'; // F -> G, negative
        let x = codes(CORE);
        let y = codes(&format!("GG{}GG", String::from_utf8(mutated).unwrap()));
        assert!(!is_contained(&x, &y, &blosum(), &ContainmentParams::default()));
    }

    #[test]
    fn unrelated_not_contained() {
        let x = codes("PPPPPPPPPP");
        let y = codes("WWWWWWWWWWWWWW");
        assert!(!is_contained(&x, &y, &blosum(), &ContainmentParams::default()));
    }

    #[test]
    fn empty_never_contained() {
        assert!(!is_contained(&[], &codes("ACD"), &blosum(), &ContainmentParams::default()));
    }

    #[test]
    fn full_length_homologs_overlap() {
        // ~77 % identical over full length: passes the 30 %/80 % test.
        let x = codes(CORE);
        let mut mutated = CORE.to_owned().into_bytes();
        for i in [2usize, 7, 12, 17, 20, 24] {
            mutated[i] = b'A';
        }
        let y = codes(std::str::from_utf8(&mutated).unwrap());
        assert!(overlaps(&x, &y, &blosum(), &OverlapParams::default()));
        assert!(overlaps(&y, &x, &blosum(), &OverlapParams::default()));
    }

    #[test]
    fn short_shared_region_fails_coverage() {
        // Only a quarter of the longer sequence aligns.
        let x = codes(&format!("{CORE}{CORE}{CORE}{CORE}"));
        let y = codes(CORE);
        assert!(!overlaps(&x, &y, &blosum(), &OverlapParams::default()));
    }

    #[test]
    fn coverage_measured_on_longer_sequence() {
        // y is a near-full-length piece of x (80 % of it) — should pass;
        // a 50 % piece should fail.
        let long = format!("{CORE}{CORE}");
        let x = codes(&long);
        let pass_len = (long.len() as f64 * 0.85) as usize;
        let y_pass = codes(&long[..pass_len]);
        let y_fail = codes(&long[..long.len() / 2]);
        let p = OverlapParams::default();
        assert!(overlaps(&x, &y_pass, &blosum(), &p));
        assert!(!overlaps(&x, &y_fail, &blosum(), &p));
    }

    #[test]
    fn custom_params_respected() {
        let x = codes(CORE);
        let y = codes(&format!("GG{CORE}GG"));
        let strict = ContainmentParams { min_similarity: 1.0, min_coverage: 1.0 };
        assert!(is_contained(&x, &y, &blosum(), &strict));
        let impossible = ContainmentParams { min_similarity: 1.1, min_coverage: 1.0 };
        assert!(!is_contained(&x, &y, &blosum(), &impossible));
    }
}
