//! Generalized suffix array over a [`SequenceSet`].
//!
//! All sequences are concatenated with *distinct* per-sequence sentinels,
//! so no common prefix of two suffixes can cross a sequence boundary — LCP
//! values are therefore always lengths of genuine intra-sequence matches,
//! which the maximal-match generator depends on.
//!
//! Text encoding: residue code `c` of any sequence maps to `c + n_seqs`;
//! the sentinel of sequence `i` maps to `i + 1`, except the last sequence's
//! sentinel which is `0` so the text ends with the unique smallest
//! character SA-IS requires.
//!
//! The ambiguity residue `X` carries no exact-match evidence — two `X`s do
//! *not* match (they stand for unknown, possibly different, residues), and
//! low-complexity masking relies on `X` acting as a separator. Each `X`
//! occurrence is therefore encoded as its own unique character above the
//! residue range, so no common prefix can include one.

use pfam_seq::{SeqId, SequenceSet, ALPHABET_SIZE};

use crate::lcp::lcp_array;
use crate::parallel::{bucket_sort_index, lcp_array_parallel, resolve_threads};
use crate::sais::suffix_array;

/// Estimated resident bytes of a [`GeneralizedSuffixArray`] over
/// `n_residues` residues in `n_seqs` sequences: the text, suffix array,
/// LCP array and seq-of table are one `u32` per text position (residues
/// plus one sentinel per sequence), plus the per-sequence start table.
///
/// This is the figure the chunk planner and [`pfam_seq::MemoryBudget`] account
/// with; construction scratch (the bucket sort's 16-byte entry per text
/// position, freed before the index is returned) is transient and not
/// counted.
pub fn estimated_index_bytes(n_residues: usize, n_seqs: usize) -> u64 {
    let text_len = n_residues as u64 + n_seqs as u64;
    16 * text_len + 4 * n_seqs as u64
}

/// Encoded concatenation of a sequence set, ready for suffix sorting.
struct EncodedText {
    text: Vec<u32>,
    seq_of: Vec<u32>,
    starts: Vec<u32>,
    n_unknown: u32,
}

/// Encode `set` per the module-level scheme. Capacities are exact (one
/// character per residue plus one sentinel per sequence), and sequences
/// without any `X` take a branch-free table-lookup path.
fn encode_text(set: &SequenceSet) -> EncodedText {
    let n_seqs = set.len() as u32;
    let total = set.total_residues() + set.len();
    let mut text = Vec::with_capacity(total);
    let mut seq_of = Vec::with_capacity(total);
    let mut starts = Vec::with_capacity(set.len());
    const X_CODE: u8 = (ALPHABET_SIZE - 1) as u8;
    // Unique values for `X` occurrences start just above the residues.
    let x_base = n_seqs + ALPHABET_SIZE as u32;
    // Residue translation table: code `c` ↦ `c + n_seqs`. The `X` entry is
    // never read on the fast path (X-bearing sequences take the slow loop).
    let mut table = [0u32; ALPHABET_SIZE];
    for (c, slot) in table.iter_mut().enumerate() {
        *slot = c as u32 + n_seqs;
    }
    let mut n_unknown = 0u32;
    for seq in set.iter() {
        starts.push(text.len() as u32);
        if seq.codes.contains(&X_CODE) {
            for &c in seq.codes {
                if c == X_CODE {
                    text.push(x_base + n_unknown);
                    n_unknown += 1;
                } else {
                    text.push(table[c as usize]);
                }
            }
        } else {
            text.extend(seq.codes.iter().map(|&c| table[c as usize]));
        }
        let sentinel = if seq.id.0 == n_seqs - 1 { 0 } else { seq.id.0 + 1 };
        text.push(sentinel);
        seq_of.extend(std::iter::repeat_n(seq.id.0, seq.codes.len() + 1));
    }
    debug_assert_eq!(text.len(), total, "encoding must fill exactly the reserved capacity");
    EncodedText { text, seq_of, starts, n_unknown }
}

/// Suffix array + LCP array over the concatenation of a sequence set.
///
/// ```
/// use pfam_seq::{alphabet, SequenceSetBuilder};
/// use pfam_suffix::GeneralizedSuffixArray;
///
/// let mut b = SequenceSetBuilder::new();
/// b.push_letters("a".into(), b"MKVLW").unwrap();
/// b.push_letters("b".into(), b"AAMKVAA").unwrap();
/// let gsa = GeneralizedSuffixArray::build(&b.finish());
/// let hits = gsa.find(&alphabet::encode(b"MKV").unwrap());
/// assert_eq!(hits.len(), 2); // once in each sequence
/// ```
#[derive(Debug, Clone)]
pub struct GeneralizedSuffixArray {
    text: Vec<u32>,
    sa: Vec<u32>,
    lcp: Vec<u32>,
    /// Owning sequence of each text position (sentinels belong to their
    /// sequence).
    seq_of: Vec<u32>,
    /// Start position of each sequence within `text`.
    starts: Vec<u32>,
    n_seqs: u32,
    /// Number of `X` residues (each gets a unique character).
    n_unknown: u32,
}

impl GeneralizedSuffixArray {
    /// Build the generalized suffix array of `set`.
    ///
    /// Panics on an empty set (there is no meaningful index for it).
    pub fn build(set: &SequenceSet) -> GeneralizedSuffixArray {
        assert!(!set.is_empty(), "cannot index an empty sequence set");
        let n_seqs = set.len() as u32;
        let EncodedText { text, seq_of, starts, n_unknown } = encode_text(set);
        let k = (n_seqs + ALPHABET_SIZE as u32 + n_unknown.max(1)) as usize;
        let sa = suffix_array(&text, k);
        let lcp = lcp_array(&text, &sa);
        GeneralizedSuffixArray { text, sa, lcp, seq_of, starts, n_seqs, n_unknown }
    }

    /// Build the generalized suffix array of `set` with up to `threads`
    /// workers (`0` = all available cores).
    ///
    /// Bit-identical to [`build`](Self::build) for every input — the
    /// suffixes of the encoded text are all distinct (unique sentinels,
    /// unique `X` characters), so the suffix order is unique and both
    /// construction strategies must produce it. Every thread count,
    /// `1` included, runs [`bucket_sort_index`]; a text too repetitive
    /// for it is indexed by SA-IS as in [`build`](Self::build).
    pub fn build_parallel(set: &SequenceSet, threads: usize) -> GeneralizedSuffixArray {
        assert!(!set.is_empty(), "cannot index an empty sequence set");
        let threads = resolve_threads(threads);
        let n_seqs = set.len() as u32;
        let EncodedText { text, seq_of, starts, n_unknown } = encode_text(set);
        let (sa, lcp) = bucket_sort_index(&text, n_seqs, threads).unwrap_or_else(|| {
            let k = (n_seqs + ALPHABET_SIZE as u32 + n_unknown.max(1)) as usize;
            let sa = suffix_array(&text, k);
            let lcp = lcp_array_parallel(&text, &sa, threads);
            (sa, lcp)
        });
        GeneralizedSuffixArray { text, sa, lcp, seq_of, starts, n_seqs, n_unknown }
    }

    /// Number of sequences indexed.
    #[inline]
    pub fn n_seqs(&self) -> u32 {
        self.n_seqs
    }

    /// Total text length (residues + sentinels).
    #[inline]
    pub fn text_len(&self) -> usize {
        self.text.len()
    }

    /// The encoded text (see module docs for the value scheme).
    #[inline]
    pub fn text(&self) -> &[u32] {
        &self.text
    }

    /// Alphabet size of the encoded text (sentinels + residues + unique
    /// `X` characters).
    #[inline]
    pub fn alphabet_size(&self) -> usize {
        self.n_seqs as usize + ALPHABET_SIZE + self.n_unknown as usize
    }

    /// The suffix array (ranks → text positions).
    #[inline]
    pub fn sa(&self) -> &[u32] {
        &self.sa
    }

    /// The LCP array (`lcp[r]` = LCP of ranks `r−1` and `r`).
    #[inline]
    pub fn lcp(&self) -> &[u32] {
        &self.lcp
    }

    /// Owning sequence of text position `pos`.
    #[inline]
    pub fn seq_at(&self, pos: usize) -> SeqId {
        SeqId(self.seq_of[pos])
    }

    /// Residue offset of text position `pos` within its sequence
    /// (the sentinel position maps to the sequence length).
    #[inline]
    pub fn offset_at(&self, pos: usize) -> u32 {
        pos as u32 - self.starts[self.seq_of[pos] as usize]
    }

    /// Text positions of the residues of sequence `id`; its sentinel is
    /// the position after them.
    pub fn seq_span(&self, id: SeqId) -> std::ops::Range<usize> {
        let end = self.starts.get(id.index() + 1).map_or(self.text.len(), |&next| next as usize);
        self.starts[id.index()] as usize..end - 1
    }

    /// Original residue code at `pos`, or `None` on a sentinel. Unique
    /// `X` characters map back to the `X` code.
    #[inline]
    pub fn residue_at(&self, pos: usize) -> Option<u8> {
        let v = self.text[pos];
        if (v as usize) < self.n_seqs as usize {
            None
        } else if v >= self.n_seqs + ALPHABET_SIZE as u32 {
            Some((ALPHABET_SIZE - 1) as u8)
        } else {
            Some((v - self.n_seqs) as u8)
        }
    }

    /// Residue immediately to the left of `pos`, or `None` when `pos` is
    /// the first residue of its sequence, is preceded by a sentinel, or is
    /// preceded by an `X` (an unknown residue can never witness a left
    /// extension, so matches bounded by `X` count as left-maximal).
    #[inline]
    pub fn left_residue(&self, pos: usize) -> Option<u8> {
        if pos == 0 || self.offset_at(pos) == 0 {
            None
        } else {
            match self.residue_at(pos - 1) {
                Some(c) if c == (ALPHABET_SIZE - 1) as u8 => None,
                other => other,
            }
        }
    }

    /// Locate all occurrences of `pattern` (residue codes) across the set,
    /// as `(sequence, offset)` pairs, via binary search on the suffix array.
    pub fn find(&self, pattern: &[u8]) -> Vec<(SeqId, u32)> {
        if pattern.is_empty() {
            return Vec::new();
        }
        let encoded: Vec<u32> = pattern.iter().map(|&c| c as u32 + self.n_seqs).collect();
        let lo = self.sa.partition_point(|&p| self.suffix_cmp(p as usize, &encoded).is_lt());
        let hi = self.sa.partition_point(|&p| {
            !matches!(self.suffix_cmp(p as usize, &encoded), std::cmp::Ordering::Greater)
        });
        let mut out: Vec<(SeqId, u32)> = self.sa[lo..hi]
            .iter()
            .map(|&p| (self.seq_at(p as usize), self.offset_at(p as usize)))
            .collect();
        out.sort_unstable();
        out
    }

    /// Compare the suffix at `pos` against `pattern`: `Less`/`Greater` for
    /// lexicographic order, `Equal` when `pattern` is a prefix of the suffix.
    fn suffix_cmp(&self, pos: usize, pattern: &[u32]) -> std::cmp::Ordering {
        let suffix = &self.text[pos..];
        let k = suffix.len().min(pattern.len());
        match suffix[..k].cmp(&pattern[..k]) {
            std::cmp::Ordering::Equal => {
                if suffix.len() >= pattern.len() {
                    std::cmp::Ordering::Equal
                } else {
                    std::cmp::Ordering::Less
                }
            }
            other => other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfam_seq::alphabet::encode;
    use pfam_seq::SequenceSetBuilder;

    fn set_of(seqs: &[&str]) -> SequenceSet {
        let mut b = SequenceSetBuilder::new();
        for (i, s) in seqs.iter().enumerate() {
            b.push_letters(format!("s{i}"), s.as_bytes()).unwrap();
        }
        b.finish()
    }

    #[test]
    fn builds_and_is_sorted() {
        let set = set_of(&["MKVLW", "KVLWA", "ACDEF"]);
        let g = GeneralizedSuffixArray::build(&set);
        assert_eq!(g.text_len(), 15 + 3);
        for r in 1..g.sa().len() {
            let a = &g.text()[g.sa()[r - 1] as usize..];
            let b = &g.text()[g.sa()[r] as usize..];
            assert!(a < b, "suffixes out of order at rank {r}");
        }
    }

    #[test]
    fn seq_and_offset_mapping() {
        let set = set_of(&["ACD", "EF"]);
        let g = GeneralizedSuffixArray::build(&set);
        assert_eq!(g.seq_at(0), SeqId(0));
        assert_eq!(g.seq_at(3), SeqId(0)); // sentinel of seq 0
        assert_eq!(g.seq_at(4), SeqId(1));
        assert_eq!(g.offset_at(0), 0);
        assert_eq!(g.offset_at(2), 2);
        assert_eq!(g.offset_at(3), 3); // sentinel offset == len
        assert_eq!(g.offset_at(5), 1);
    }

    #[test]
    fn sentinels_detected() {
        let set = set_of(&["AC", "GT"]);
        let g = GeneralizedSuffixArray::build(&set);
        assert_eq!(g.residue_at(2), None);
        assert_eq!(g.residue_at(5), None);
        assert_eq!(g.residue_at(0), Some(encode(b"A").unwrap()[0]));
    }

    #[test]
    fn lcp_never_crosses_sentinels() {
        // Two identical sequences: the LCP between their full suffixes must
        // stop at the sequence length (distinct sentinels).
        let set = set_of(&["MKVLW", "MKVLW"]);
        let g = GeneralizedSuffixArray::build(&set);
        let max_lcp = g.lcp().iter().copied().max().unwrap();
        assert_eq!(max_lcp, 5);
    }

    #[test]
    fn left_residue_boundaries() {
        let set = set_of(&["ACD", "EF"]);
        let g = GeneralizedSuffixArray::build(&set);
        assert_eq!(g.left_residue(0), None); // start of text
        assert!(g.left_residue(1).is_some());
        assert_eq!(g.left_residue(4), None); // first residue of seq 1
    }

    #[test]
    fn find_locates_all_occurrences() {
        let set = set_of(&["MKVLWMKV", "AAMKVAA", "WWWWW"]);
        let g = GeneralizedSuffixArray::build(&set);
        let pat = encode(b"MKV").unwrap();
        let hits = g.find(&pat);
        assert_eq!(hits, vec![(SeqId(0), 0), (SeqId(0), 5), (SeqId(1), 2)]);
    }

    #[test]
    fn find_missing_pattern() {
        let set = set_of(&["ACDEF"]);
        let g = GeneralizedSuffixArray::build(&set);
        assert!(g.find(&encode(b"WW").unwrap()).is_empty());
        assert!(g.find(&[]).is_empty());
    }

    #[test]
    fn find_pattern_longer_than_any_sequence() {
        let set = set_of(&["AC"]);
        let g = GeneralizedSuffixArray::build(&set);
        assert!(g.find(&encode(b"ACDEF").unwrap()).is_empty());
    }

    #[test]
    fn single_sequence_set() {
        let set = set_of(&["A"]);
        let g = GeneralizedSuffixArray::build(&set);
        assert_eq!(g.text_len(), 2);
        assert_eq!(g.n_seqs(), 1);
        assert_eq!(g.find(&encode(b"A").unwrap()), vec![(SeqId(0), 0)]);
    }

    #[test]
    #[should_panic(expected = "empty sequence set")]
    fn empty_set_panics() {
        let _ = GeneralizedSuffixArray::build(&SequenceSet::new());
    }

    #[test]
    fn x_residues_never_match_each_other() {
        // Identical X runs in two sequences: the only common prefixes are
        // the real residues around them, never the X characters.
        let set = set_of(&["MKXXXXXMK", "WVXXXXXWV"]);
        let g = GeneralizedSuffixArray::build(&set);
        let max_cross_lcp = (1..g.sa().len())
            .filter(|&r| g.seq_at(g.sa()[r - 1] as usize) != g.seq_at(g.sa()[r] as usize))
            .map(|r| g.lcp()[r])
            .max()
            .unwrap_or(0);
        assert_eq!(max_cross_lcp, 0, "X runs must not produce cross-sequence matches");
        // Pattern search with X finds nothing either.
        assert!(g.find(&encode(b"XX").unwrap()).is_empty());
        assert!(g.find(&encode(b"X").unwrap()).is_empty());
    }

    #[test]
    fn build_parallel_matches_build() {
        // Mixed X-bearing and X-free sequences exercise both encoding
        // paths; repeats exercise the sort tie-break.
        let set = set_of(&["MKVLWMKV", "AAMKVAA", "WXXWMKVXW", "AAAAAAAA", "MKVLWMKV"]);
        let serial = GeneralizedSuffixArray::build(&set);
        for threads in [1usize, 2, 3, 8] {
            let par = GeneralizedSuffixArray::build_parallel(&set, threads);
            assert_eq!(par.text(), serial.text(), "threads={threads}");
            assert_eq!(par.sa(), serial.sa(), "threads={threads}");
            assert_eq!(par.lcp(), serial.lcp(), "threads={threads}");
            assert_eq!(par.alphabet_size(), serial.alphabet_size());
        }
    }

    #[test]
    fn x_is_left_maximality_boundary() {
        let set = set_of(&["AXMKVLW", "CXMKVLW"]);
        let g = GeneralizedSuffixArray::build(&set);
        // Position of 'M' in each sequence is offset 2; left residue is X
        // → treated as a boundary (None).
        let (arena, offsets) = set.arena();
        let _ = (arena, offsets);
        for pos in [2usize, 10] {
            assert_eq!(g.residue_at(pos - 1), Some(20), "left char is X");
            assert_eq!(g.left_residue(pos), None, "X must not witness extension");
        }
    }
}
