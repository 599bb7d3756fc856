//! Property tests over the alignment substrate.

use proptest::prelude::*;

use pfam_align::local_affine;
use pfam_seq::ScoringScheme;

fn residues(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..20, 0..max_len)
}

fn blosum() -> ScoringScheme {
    ScoringScheme::blosum62_default()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The optimum sits between two bounds that need no aligner: the best
    /// gap-free stretch of any diagonal (it is a local alignment) from
    /// below, and what the cheaper of the two sequences scores against
    /// itself from above (BLOSUM62's diagonal dominates its rows, and
    /// gaps only cost).
    #[test]
    fn local_score_is_bracketed(x in residues(25), y in residues(25)) {
        let s = blosum();
        let l = local_affine(&x, &y, &s).score;
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
        let self_score = |z: &[u8]| z.iter().map(|&a| s.matrix.score_codes(a, a)).sum::<i32>();
        prop_assert!(l >= floor, "local {l} under the ungapped bound {floor}");
        prop_assert!(l <= self_score(&x).min(self_score(&y)));
    }

    #[test]
    fn stats_columns_account_for_spans(x in residues(30), y in residues(30)) {
        let s = blosum();
        let aln = local_affine(&x, &y, &s);
        let st = aln.stats(&x, &y, &s.matrix);
        prop_assert_eq!(st.columns, aln.ops.len());
        prop_assert!(st.matches <= st.positives);
        prop_assert!(st.positives + st.gap_cols <= st.columns);
        prop_assert!(st.x_span <= x.len());
        prop_assert!(st.y_span <= y.len());
    }
}
