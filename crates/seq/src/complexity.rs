//! Low-complexity region detection and masking (SEG-style).
//!
//! Compositionally biased peptide stretches (poly-A linkers, proline-rich
//! regions, …) generate enormous numbers of spurious exact matches: a run
//! of 40 alanines in two unrelated sequences produces hundreds of maximal
//! matches and can flood the promising-pair generator. Production
//! pipelines mask such regions before indexing; this module provides a
//! Shannon-entropy sliding-window masker whose output replaces masked
//! residues with `X` — which the maximal-match generator already treats
//! as a hard separator.

use crate::alphabet::ALPHABET_SIZE;

/// Parameters of the entropy masker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaskParams {
    /// Window length over which entropy is measured.
    pub window: usize,
    /// Entropy threshold in bits; windows strictly below are masked.
    /// Random protein is ~4.1 bits; SEG's default trigger is ≈ 2.2.
    pub min_entropy_bits: f64,
}

impl Default for MaskParams {
    fn default() -> Self {
        MaskParams { window: 12, min_entropy_bits: 2.2 }
    }
}

/// Return a copy of `codes` with every residue covered by a low-entropy
/// window replaced by `X`.
///
/// The scan is O(n·σ) worst case but maintained incrementally, so in
/// practice O(n) with a small constant.
pub fn mask_low_complexity(codes: &[u8], params: &MaskParams) -> Vec<u8> {
    let n = codes.len();
    let w = params.window;
    if n < w || w == 0 {
        return codes.to_vec();
    }
    let x = (ALPHABET_SIZE - 1) as u8;

    // Incremental entropy over the sliding window.
    let mut counts = [0u32; ALPHABET_SIZE];
    for &c in &codes[..w] {
        counts[c as usize] += 1;
    }
    let entropy_of = |counts: &[u32; ALPHABET_SIZE]| -> f64 {
        let nf = w as f64;
        counts
            .iter()
            .filter(|&&c| c > 0)
            .map(|&c| {
                let p = c as f64 / nf;
                -p * p.log2()
            })
            .sum()
    };

    let mut masked = vec![false; n];
    let mut e = entropy_of(&counts);
    if e < params.min_entropy_bits {
        masked[..w].iter_mut().for_each(|m| *m = true);
    }
    for start in 1..=n - w {
        counts[codes[start - 1] as usize] -= 1;
        counts[codes[start + w - 1] as usize] += 1;
        e = entropy_of(&counts);
        if e < params.min_entropy_bits {
            masked[start..start + w].iter_mut().for_each(|m| *m = true);
        }
    }
    let _ = e;
    codes.iter().zip(&masked).map(|(&c, &m)| if m { x } else { c }).collect()
}

/// Fraction of residues a masking pass would hide, without allocating the
/// masked copy — handy for data-quality reporting.
pub fn masked_fraction(codes: &[u8], params: &MaskParams) -> f64 {
    if codes.is_empty() {
        return 0.0;
    }
    let masked = mask_low_complexity(codes, params);
    let x = (ALPHABET_SIZE - 1) as u8;
    let originally_x = codes.iter().filter(|&&c| c == x).count();
    let now_x = masked.iter().filter(|&&c| c == x).count();
    (now_x - originally_x) as f64 / codes.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::encode;

    fn codes(s: &str) -> Vec<u8> {
        encode(s.as_bytes()).unwrap()
    }

    #[test]
    fn homopolymer_masked() {
        let c = codes("MKVLWDEAAAAAAAAAAAAAAAAAAQRNDCEGHI");
        let masked = mask_low_complexity(&c, &MaskParams::default());
        let text = crate::alphabet::decode(&masked);
        assert!(text.contains("XXXXXXXXXX"), "poly-A not masked: {text}");
        // The far flanks survive; some erosion of residues adjacent to the
        // repeat is expected (any window containing mostly A's is masked).
        assert!(text.starts_with("MK"), "prefix eroded entirely: {text}");
        assert!(text.ends_with("HI"), "suffix eroded entirely: {text}");
        let masked_count = text.chars().filter(|&ch| ch == 'X').count();
        assert!(masked_count < text.len(), "everything masked");
    }

    #[test]
    fn diverse_sequence_untouched() {
        let c = codes("MKVLWDERAANDCQEGHILKMFPSTWYVRNDC");
        let masked = mask_low_complexity(&c, &MaskParams::default());
        assert_eq!(masked, c);
    }

    #[test]
    fn short_input_untouched() {
        let c = codes("AAAA"); // shorter than the window
        assert_eq!(mask_low_complexity(&c, &MaskParams::default()), c);
    }

    #[test]
    fn two_letter_repeat_masked() {
        let c = codes("MKVLWDERANPAPAPAPAPAPAPAPAPAMKVLWDERAN");
        let masked = mask_low_complexity(&c, &MaskParams::default());
        let text = crate::alphabet::decode(&masked);
        assert!(text.contains('X'), "PA-repeat not masked: {text}");
    }

    #[test]
    fn masked_fraction_reports() {
        let clean = codes("MKVLWDERAANDCQEGHILKMFPSTWYV");
        assert_eq!(masked_fraction(&clean, &MaskParams::default()), 0.0);
        let dirty = codes("AAAAAAAAAAAAAAAAAAAAAAAA");
        assert!(masked_fraction(&dirty, &MaskParams::default()) > 0.9);
        assert_eq!(masked_fraction(&[], &MaskParams::default()), 0.0);
    }

    #[test]
    fn stricter_threshold_masks_more() {
        let c = codes("MKMKMKMKMKMKVLWDERANDCQE");
        let lax = MaskParams { window: 12, min_entropy_bits: 0.5 };
        let strict = MaskParams { window: 12, min_entropy_bits: 3.5 };
        let f_lax = masked_fraction(&c, &lax);
        let f_strict = masked_fraction(&c, &strict);
        assert!(f_strict >= f_lax);
    }
}
