//! Property tests over the alignment substrate.

use proptest::prelude::*;

use pfam_align::{
    banded_global_affine, global_affine, global_linear, global_score, local_affine, local_score,
    semiglobal_affine,
};
use pfam_seq::{ScoringScheme, SubstMatrix};

fn residues(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..20, 0..max_len)
}

fn blosum() -> ScoringScheme {
    ScoringScheme::blosum62_default()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn score_only_engines_match_traceback_engines(x in residues(35), y in residues(35)) {
        let s = blosum();
        prop_assert_eq!(global_score(&x, &y, &s), global_affine(&x, &y, &s).score);
        prop_assert_eq!(local_score(&x, &y, &s), local_affine(&x, &y, &s).score);
    }

    #[test]
    fn linear_affine_equivalence_when_open_equals_extend(
        x in residues(30),
        y in residues(30),
        gap in 1i32..6,
    ) {
        let s = ScoringScheme::linear(SubstMatrix::blosum62().clone(), -gap);
        prop_assert_eq!(
            global_linear(&x, &y, gap, &s).score,
            global_affine(&x, &y, &s).score
        );
    }

    #[test]
    fn banded_with_full_band_equals_unbanded(x in residues(25), y in residues(25)) {
        let s = blosum();
        let full = global_affine(&x, &y, &s).score;
        let band = banded_global_affine(&x, &y, &s, 0, x.len().max(y.len()).max(1))
            .expect("band covers everything");
        prop_assert_eq!(band.score, full);
    }

    #[test]
    fn narrower_band_never_scores_higher(x in residues(25), y in residues(25)) {
        let s = blosum();
        let wide = x.len().max(y.len()).max(1);
        let full = banded_global_affine(&x, &y, &s, 0, wide).unwrap().score;
        for hw in [wide / 2, wide / 4] {
            if let Some(b) = banded_global_affine(&x, &y, &s, 0, hw.max(1)) {
                prop_assert!(b.score <= full);
            }
        }
    }

    #[test]
    fn semiglobal_dominates_global(x in residues(25), y in residues(25)) {
        let s = blosum();
        let g = global_affine(&x, &y, &s).score;
        for (fx, fy) in [(true, false), (false, true), (true, true)] {
            let sg = semiglobal_affine(&x, &y, &s, fx, fy).score;
            prop_assert!(sg >= g, "free ends can only help: {sg} < {g}");
        }
    }

    #[test]
    fn local_dominates_everything(x in residues(25), y in residues(25)) {
        let s = blosum();
        let l = local_affine(&x, &y, &s).score;
        prop_assert!(l >= 0);
        let overlap = semiglobal_affine(&x, &y, &s, true, true).score;
        prop_assert!(l >= overlap.min(0).max(overlap.min(l)));
        // Local ≥ any clipped-both-sides alignment; overlap is one of them
        // when non-negative.
        if overlap >= 0 {
            prop_assert!(l >= overlap);
        }
    }

    #[test]
    fn stats_columns_account_for_spans(x in residues(30), y in residues(30)) {
        let s = blosum();
        let aln = local_affine(&x, &y, &s);
        let st = aln.stats(&x, &y, &s.matrix);
        prop_assert_eq!(st.columns, aln.len());
        prop_assert!(st.matches <= st.positives);
        prop_assert!(st.positives + st.gap_cols <= st.columns);
        prop_assert!(st.x_span <= x.len());
        prop_assert!(st.y_span <= y.len());
    }
}
