//! Human-readable rendering of pairwise alignments (BLAST-style blocks).

use pfam_seq::alphabet::RESIDUE_LETTERS;
use pfam_seq::SubstMatrix;

use crate::alignment::{AlignOp, Alignment};

/// Render `aln` over `x` and `y` as aligned text blocks of `width`
/// columns: query line, match line (`|` identity, `+` positive, space
/// otherwise), subject line — the familiar BLAST output format.
pub fn render_alignment(
    aln: &Alignment,
    x: &[u8],
    y: &[u8],
    matrix: &SubstMatrix,
    width: usize,
) -> String {
    let width = width.max(10);
    let mut x_line = String::new();
    let mut m_line = String::new();
    let mut y_line = String::new();
    let (mut xi, mut yi) = (aln.x_range.0, aln.y_range.0);
    for &op in &aln.ops {
        match op {
            AlignOp::Subst => {
                let (a, b) = (x[xi], y[yi]);
                x_line.push(RESIDUE_LETTERS[a as usize] as char);
                y_line.push(RESIDUE_LETTERS[b as usize] as char);
                m_line.push(if a == b && a != 20 {
                    '|'
                } else if matrix.is_positive(a, b) {
                    '+'
                } else {
                    ' '
                });
                xi += 1;
                yi += 1;
            }
            AlignOp::InsertX => {
                x_line.push(RESIDUE_LETTERS[x[xi] as usize] as char);
                y_line.push('-');
                m_line.push(' ');
                xi += 1;
            }
            AlignOp::InsertY => {
                x_line.push('-');
                y_line.push(RESIDUE_LETTERS[y[yi] as usize] as char);
                m_line.push(' ');
                yi += 1;
            }
        }
    }
    let mut out = String::new();
    let mut xpos = aln.x_range.0;
    let mut ypos = aln.y_range.0;
    let chars_x: Vec<char> = x_line.chars().collect();
    let chars_m: Vec<char> = m_line.chars().collect();
    let chars_y: Vec<char> = y_line.chars().collect();
    let mut at = 0usize;
    while at < chars_x.len() {
        let end = (at + width).min(chars_x.len());
        let seg_x: String = chars_x[at..end].iter().collect();
        let seg_m: String = chars_m[at..end].iter().collect();
        let seg_y: String = chars_y[at..end].iter().collect();
        let adv_x = seg_x.chars().filter(|&c| c != '-').count();
        let adv_y = seg_y.chars().filter(|&c| c != '-').count();
        out.push_str(&format!("query  {:>5} {seg_x}\n", xpos + 1));
        out.push_str(&format!("             {seg_m}\n"));
        out.push_str(&format!("sbjct  {:>5} {seg_y}\n\n", ypos + 1));
        xpos += adv_x;
        ypos += adv_y;
        at = end;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local::local_affine;
    use pfam_seq::alphabet::encode;
    use pfam_seq::ScoringScheme;

    fn codes(s: &str) -> Vec<u8> {
        encode(s.as_bytes()).unwrap()
    }

    #[test]
    fn identical_regions_render_pipes() {
        let x = codes("GGMKVLWAAKGG");
        let y = codes("TTMKVLWAAKTT");
        let s = ScoringScheme::blosum62_default();
        let aln = local_affine(&x, &y, &s);
        let text = render_alignment(&aln, &x, &y, &s.matrix, 60);
        assert!(text.contains("MKVLWAAK"));
        assert!(text.contains("||||||||"));
        assert!(text.contains("query      3"), "1-based start position: {text}");
    }

    #[test]
    fn substitutions_render_plus_or_space() {
        // I vs V is a positive (+3); W vs P is negative, and cheaper to
        // substitute than to gap around between the identical flanks.
        let x = codes("MKIWLW");
        let y = codes("MKVPLW");
        let s = ScoringScheme::blosum62_default();
        let aln = local_affine(&x, &y, &s);
        let text = render_alignment(&aln, &x, &y, &s.matrix, 60);
        let match_line = text.lines().nth(1).expect("match line");
        assert!(match_line.ends_with("||+ ||"), "{text}");
    }

    #[test]
    fn gaps_render_dashes() {
        // Both flanks outscore the three-residue gap between them.
        let x = codes("MKVLWAAKNDCQEG");
        let y = codes("MKVLWNDCQEG");
        let s = ScoringScheme::blosum62_default();
        let aln = local_affine(&x, &y, &s);
        let text = render_alignment(&aln, &x, &y, &s.matrix, 60);
        assert!(text.contains("MKVLW---NDCQEG"), "deletion must appear as dashes:\n{text}");
    }

    #[test]
    fn wrapping_produces_multiple_blocks() {
        let core = "MKVLWAAKNDCQEGHILKMF";
        let x = codes(&core.repeat(4));
        let s = ScoringScheme::blosum62_default();
        let aln = local_affine(&x, &x, &s);
        let text = render_alignment(&aln, &x, &x, &s.matrix, 30);
        let blocks = text.matches("query").count();
        assert_eq!(blocks, 80usize.div_ceil(30));
        // Second block starts at position 31.
        assert!(text.contains("query     31"), "{text}");
    }

    #[test]
    fn empty_alignment_renders_empty() {
        let aln = Alignment { score: 0, ops: vec![], x_range: (0, 0), y_range: (0, 0) };
        let s = ScoringScheme::blosum62_default();
        assert_eq!(render_alignment(&aln, &[], &[], &s.matrix, 60), "");
    }
}
