//! Generalized suffix array over a [`SequenceSet`].
//!
//! All sequences are concatenated with *distinct* per-sequence sentinels,
//! so no common prefix of two suffixes can cross a sequence boundary — LCP
//! values are therefore always lengths of genuine intra-sequence matches,
//! which the maximal-match miner depends on.
//!
//! The ambiguity residue `X` carries no exact-match evidence — two `X`s do
//! *not* match (they stand for unknown, possibly different, residues), and
//! low-complexity masking relies on `X` acting as a separator. Each `X`
//! occurrence is therefore its own unique character too, so no common
//! prefix can include one.
//!
//! ## Layout: 7 bytes per text position, or the text and the kept suffixes
//!
//! The resident text is one byte per position holding a 5-bit *symbol
//! class*: [`SENTINEL_CLASS`] (0) for a sentinel, `c + 1` for residue code
//! `c`, [`X_CLASS`] (22) for an `X`. Sentinels and `X`s are *terminators*:
//! every occurrence is a character of its own, and which one is read off
//! its position (`terminator_rank`): terminators of one class order as
//! they lie in the text, except that the last sequence's sentinel — the
//! last character — is the smallest, the unique minimum SA-IS requires.
//! The suffix array is a `u32` per position, the LCP array a `u16` that
//! saturates into a sorted overflow list ([`CompactLcp`]), and the owning
//! sequence of a position is found from one sampled id per `SEQ_BLOCK`
//! (64) positions and a short walk of the start table — there is no
//! per-position sequence table. That is the full index
//! ([`GeneralizedSuffixArray::build`], [`GeneralizedSuffixArray::build_parallel`]).
//!
//! An index cut at a mining cut-off ψ ≥ 3
//! ([`GeneralizedSuffixArray::build_cut`]) holds the same text and tables,
//! but its suffix and LCP arrays only the suffixes whose first `min(ψ, 12)`
//! symbols another suffix shares — every suffix a tree node of depth ≥ ψ
//! holds — and those of the leading buckets of the sort
//! ([`crate::parallel`]), in suffix order, each LCP against the kept suffix
//! before it. On metagenomic input that is a few per cent of the
//! positions, so the index is little more than its text: ≈ 1.2 bytes per
//! position on the `sparse` corpus at ψ = 10.
//!
//! The integer text SA-IS sorts — sentinel of sequence `i` ↦ `i + 1` (the
//! last one ↦ 0), residue code `c` ↦ `c + n_seqs`, the `k`-th `X` ↦
//! `n_seqs + 21 + k` — is the same order spelt out; it is materialised
//! only while SA-IS runs ([`GeneralizedSuffixArray::encoded_text`]).

use std::cmp::Ordering;

use pfam_seq::{SeqId, SequenceSet, ALPHABET_SIZE};

use crate::lcp::lcp_array;
use crate::parallel::{bucket_sort_index, bucket_sort_index_staged, kept_depth, SaLcp};
use crate::sais::suffix_array;

/// Symbol class of a sentinel.
pub const SENTINEL_CLASS: u8 = 0;
/// Symbol class of an `X`. Residue code `c` is class `c + 1`, so class
/// order is the order of the integer text.
pub const X_CLASS: u8 = ALPHABET_SIZE as u8 + 1;
/// Text positions per sampled owning-sequence id.
const SEQ_BLOCK: usize = 64;

/// Whether `class` is a character that occurs once in the text.
#[inline]
pub(crate) fn is_terminator(class: u8) -> bool {
    class == SENTINEL_CLASS || class == X_CLASS
}

/// Order of the suffixes at `a` and `b` of `text` (the symbol classes of an
/// index), and the residues they share.
pub(crate) fn compare_suffixes(text: &[u8], a: usize, b: usize) -> (Ordering, usize) {
    let shared = text[a..]
        .iter()
        .zip(&text[b..])
        .take_while(|&(&x, &y)| x == y && !is_terminator(x))
        .count();
    let (x, y) = (text[a + shared], text[b + shared]);
    let order = if x == y {
        terminator_rank(text.len(), a + shared).cmp(&terminator_rank(text.len(), b + shared))
    } else {
        x.cmp(&y)
    };
    (order, shared)
}

/// Order of the terminator at `pos` among the terminators of its class —
/// which unique character it is — in a text of `text_len` positions.
/// Sentinels order by sequence id with the last sequence's first, `X`s by
/// text order; both are position order once the text's last character is
/// moved to the front.
#[inline]
pub(crate) fn terminator_rank(text_len: usize, pos: usize) -> u32 {
    if pos + 1 == text_len {
        0
    } else {
        pos as u32 + 1
    }
}

/// Estimated resident bytes of a [`GeneralizedSuffixArray`] over
/// `n_residues` residues in `n_seqs` sequences — ≈ 7.06 bytes per text
/// position (residues plus one sentinel per sequence): one for the text,
/// four for the suffix array, two for the LCP array, a sixteenth for the
/// sampled sequence ids, plus the per-sequence start table. A test holds
/// it within 1 % of [`GeneralizedSuffixArray::heap_bytes`].
///
/// This is the figure [`pfam_seq::MemoryBudget`] accounts a monolithic
/// index with: what the full index holds, and an upper bound on what an
/// index cut at a mining cut-off holds
/// ([`GeneralizedSuffixArray::build_cut`]). Construction is transiently a
/// little larger: the bucket sort adds one bucket's `(key, position)`
/// records per worker (and, cut, a 64 KiB fingerprint table) and its
/// bucket tables, a peak of ≈ 7.3 bytes per position on 3 M positions;
/// a text handed back to SA-IS holds its four-byte encoding and SA-IS's
/// own arrays on top of the index.
pub fn estimated_index_bytes(n_residues: usize, n_seqs: usize) -> u64 {
    estimated_text_bytes(n_residues, n_seqs) + 6 * (n_residues as u64 + n_seqs as u64)
}

/// Estimated resident bytes of the text half of a
/// [`GeneralizedSuffixArray`] — the symbol classes, the sampled sequence
/// ids and the start table, ≈ 1.06 bytes per text position: what a
/// windowed mine ([`crate::PartitionedMiner`]) holds for the whole phase
/// while it sorts the suffixes window by window.
pub fn estimated_text_bytes(n_residues: usize, n_seqs: usize) -> u64 {
    let text_len = n_residues as u64 + n_seqs as u64;
    text_len + 4 * text_len.div_ceil(SEQ_BLOCK as u64) + 4 * n_seqs as u64
}

/// An LCP array indexed by rank, two bytes a value: values below
/// `u16::MAX` are stored as they are, the others — matches of 65 535
/// residues and more — as `u16::MAX` with the value in a list sorted by
/// rank.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompactLcp {
    values: Vec<u16>,
    /// `(rank, value)` of every saturated entry, ascending.
    overflow: Vec<(u32, u32)>,
}

impl CompactLcp {
    /// `value` as the array stores it, or `None` when it goes on the
    /// overflow list and the array holds `u16::MAX`.
    #[inline]
    pub(crate) fn narrow(value: u32) -> Option<u16> {
        u16::try_from(value).ok().filter(|&v| v != u16::MAX)
    }

    /// Assemble from the saturated array and its overflow entries in any
    /// order.
    pub(crate) fn from_parts(values: Vec<u16>, mut overflow: Vec<(u32, u32)>) -> CompactLcp {
        overflow.sort_unstable();
        overflow.shrink_to_fit();
        CompactLcp { values, overflow }
    }

    /// Narrow a full-width LCP array.
    pub fn from_values(lcp: &[u32]) -> CompactLcp {
        let mut overflow = Vec::new();
        let values = lcp
            .iter()
            .enumerate()
            .map(|(rank, &value)| {
                Self::narrow(value).unwrap_or_else(|| {
                    overflow.push((rank as u32, value));
                    u16::MAX
                })
            })
            .collect();
        CompactLcp { values, overflow }
    }

    /// LCP of ranks `rank − 1` and `rank`.
    #[inline]
    pub fn get(&self, rank: usize) -> u32 {
        match self.values[rank] {
            u16::MAX => self.wide(rank),
            v => v as u32,
        }
    }

    #[cold]
    fn wide(&self, rank: usize) -> u32 {
        let at = self
            .overflow
            .binary_search_by_key(&(rank as u32), |&(r, _)| r)
            .expect("every saturated entry is on the overflow list");
        self.overflow[at].1
    }

    fn heap_bytes(&self) -> usize {
        2 * self.values.capacity() + 8 * self.overflow.capacity()
    }
}

/// Suffix array + LCP array over the concatenation of a sequence set.
#[derive(Debug, Clone)]
pub struct GeneralizedSuffixArray {
    /// Symbol class of every text position (see the module docs).
    text: Vec<u8>,
    sa: Vec<u32>,
    lcp: CompactLcp,
    /// Start position of each sequence within `text`.
    starts: Vec<u32>,
    /// Owning sequence of every [`SEQ_BLOCK`]-th text position.
    block_seq: Vec<u32>,
    /// The cut-off the arrays were sorted at: `0`, every suffix.
    cutoff: u32,
}

impl GeneralizedSuffixArray {
    /// An index of no reads yet, with room for exactly `n_residues`
    /// residues in `n_seqs` reads ([`push_reads`](Self::push_reads)).
    pub(crate) fn with_capacity(n_residues: usize, n_seqs: usize) -> GeneralizedSuffixArray {
        let total = n_residues + n_seqs;
        assert!(u32::try_from(total).is_ok(), "text positions must fit in u32");
        GeneralizedSuffixArray {
            text: Vec::with_capacity(total),
            sa: Vec::new(),
            lcp: CompactLcp::default(),
            starts: Vec::with_capacity(n_seqs),
            block_seq: Vec::with_capacity(total.div_ceil(SEQ_BLOCK)),
            cutoff: 0,
        }
    }

    /// Append the reads of `set` to the text, numbered on from the reads
    /// already held. Suffixes are not sorted.
    pub(crate) fn push_reads(&mut self, set: &SequenceSet) {
        // Residue code `c` ↦ class `c + 1`, the `X` code ↦ `X_CLASS`.
        let class_of: [u8; ALPHABET_SIZE] =
            std::array::from_fn(|c| if c == ALPHABET_SIZE - 1 { X_CLASS } else { c as u8 + 1 });
        for seq in set.iter() {
            let id = self.starts.len() as u32;
            self.starts.push(self.text.len() as u32);
            self.text.extend(seq.codes.iter().map(|&c| class_of[c as usize]));
            self.text.push(SENTINEL_CLASS);
            while self.block_seq.len() * SEQ_BLOCK < self.text.len() {
                self.block_seq.push(id);
            }
        }
        assert!(u32::try_from(self.text.len()).is_ok(), "text positions must fit in u32");
    }

    /// The text, start table and sampled ids of `set`, suffixes not yet
    /// sorted. Capacities are exact.
    fn unsorted(set: &SequenceSet) -> GeneralizedSuffixArray {
        assert!(!set.is_empty(), "cannot index an empty sequence set");
        let mut index = Self::with_capacity(set.total_residues(), set.len());
        index.push_reads(set);
        debug_assert_eq!(index.text.len(), index.text.capacity(), "capacity must be exact");
        index
    }

    /// Suffix and LCP arrays of the whole text by SA-IS and Kasai's
    /// algorithm over the integer text.
    pub(crate) fn sais_arrays(&self) -> SaLcp {
        let text = self.encoded_text();
        let sa = suffix_array(&text, self.alphabet_size());
        let lcp = CompactLcp::from_values(&lcp_array(&text, &sa));
        (sa, lcp)
    }

    /// Hold `arrays` — the whole text's or one window's ranks of them,
    /// sorted at `cutoff` (`0`: every suffix) — as this index's suffix and
    /// LCP arrays.
    pub(crate) fn set_arrays(&mut self, (sa, lcp): SaLcp, cutoff: u32) {
        (self.sa, self.lcp, self.cutoff) = (sa, lcp, cutoff);
    }

    /// Build the generalized suffix array of `set` by SA-IS and Kasai's
    /// algorithm over the integer text — the serial reference.
    ///
    /// Panics on an empty set (there is no meaningful index for it).
    pub fn build(set: &SequenceSet) -> GeneralizedSuffixArray {
        let mut index = Self::unsorted(set);
        index.set_arrays(index.sais_arrays(), 0);
        index
    }

    /// Build the generalized suffix array of `set` with up to `threads`
    /// workers (`0` = all available cores).
    ///
    /// Bit-identical to [`build`](Self::build) for every input — the
    /// suffixes of the text are all distinct (unique sentinels, unique
    /// `X` characters), so the suffix order is unique and both
    /// construction strategies must produce it. Every thread count,
    /// `1` included, runs [`bucket_sort_index`]; a text too repetitive
    /// for it is indexed by SA-IS as in [`build`](Self::build).
    pub fn build_parallel(set: &SequenceSet, threads: usize) -> GeneralizedSuffixArray {
        Self::sorted_by(set, 0, |text| bucket_sort_index(text, threads))
    }

    /// The index of `set` a miner at cut-off `psi` needs, with up to
    /// `threads` workers: the suffixes whose first `min(psi, 12)` symbols
    /// another suffix shares — every suffix a tree node of depth ≥ `psi`
    /// holds — and those of the sort's leading buckets (see the module
    /// docs). A tree pruned at `psi` or deeper
    /// ([`SuffixTree::build_pruned`](crate::SuffixTree::build_pruned)) is
    /// node for node the one the full index gives, and mines the same
    /// pairs. Every suffix is kept — [`build_parallel`](Self::build_parallel),
    /// the full index — when `psi < 3`, and when the text is too
    /// repetitive for the bucket sort and SA-IS indexes it.
    pub fn build_cut(set: &SequenceSet, threads: usize, psi: u32) -> GeneralizedSuffixArray {
        let cutoff = if kept_depth(psi) > 0 { psi } else { 0 };
        Self::sorted_by(set, cutoff, |text| bucket_sort_index_staged(text, threads, psi).0)
    }

    /// The index of `set`, its arrays sorted at `cutoff` by `sort`, or by
    /// SA-IS — every suffix — when `sort` hands the text back.
    fn sorted_by(
        set: &SequenceSet,
        cutoff: u32,
        sort: impl FnOnce(&[u8]) -> Option<SaLcp>,
    ) -> GeneralizedSuffixArray {
        let mut index = Self::unsorted(set);
        match sort(&index.text) {
            Some(arrays) => index.set_arrays(arrays, cutoff),
            None => index.set_arrays(index.sais_arrays(), 0),
        }
        index
    }

    /// The cut-off the index was sorted at ([`build_cut`](Self::build_cut)):
    /// it holds every suffix that shares this many symbols with another,
    /// and every suffix when it is `0`.
    #[inline]
    pub fn cutoff(&self) -> u32 {
        self.cutoff
    }

    /// Number of sequences indexed.
    #[inline]
    pub fn n_seqs(&self) -> u32 {
        self.starts.len() as u32
    }

    /// Total text length (residues + sentinels).
    #[inline]
    pub fn text_len(&self) -> usize {
        self.text.len()
    }

    /// The symbol class of every text position (see the module docs).
    #[inline]
    pub fn text(&self) -> &[u8] {
        &self.text
    }

    /// The text as the integers SA-IS sorts, every terminator spelt out as
    /// the unique character it is (see the module docs): four bytes per
    /// position, held only while the caller holds it.
    pub fn encoded_text(&self) -> Vec<u32> {
        let n_seqs = self.n_seqs();
        let mut sentinels = 0u32;
        let mut next_x = n_seqs + ALPHABET_SIZE as u32;
        self.text
            .iter()
            .map(|&class| match class {
                SENTINEL_CLASS => {
                    sentinels += 1;
                    sentinels % n_seqs
                }
                X_CLASS => {
                    next_x += 1;
                    next_x - 1
                }
                class => class as u32 - 1 + n_seqs,
            })
            .collect()
    }

    /// Alphabet size of [`encoded_text`](Self::encoded_text) (sentinels +
    /// residues + unique `X` characters), counted off the text.
    pub fn alphabet_size(&self) -> usize {
        let n_unknown = self.text.iter().filter(|&&class| class == X_CLASS).count();
        self.n_seqs() as usize + ALPHABET_SIZE + n_unknown
    }

    /// Bytes of heap the index holds: the capacities of its arrays.
    pub fn heap_bytes(&self) -> usize {
        self.text.capacity()
            + 4 * (self.sa.capacity() + self.starts.capacity() + self.block_seq.capacity())
            + self.lcp.heap_bytes()
    }

    /// The suffix array (ranks → text positions).
    #[inline]
    pub fn sa(&self) -> &[u32] {
        &self.sa
    }

    /// LCP of the suffixes of ranks `rank − 1` and `rank` (`0` at rank 0).
    #[inline]
    pub fn lcp_at(&self, rank: usize) -> u32 {
        self.lcp.get(rank)
    }

    /// Owning sequence of text position `pos` (a sentinel belongs to its
    /// sequence) and the offset of `pos` within it (the sentinel's is the
    /// sequence length): the sampled id of the position's block, walked
    /// forward through the start table.
    #[inline]
    pub fn locate(&self, pos: usize) -> (SeqId, u32) {
        let mut seq = self.block_seq[pos / SEQ_BLOCK] as usize;
        while self.starts.get(seq + 1).is_some_and(|&next| next as usize <= pos) {
            seq += 1;
        }
        (SeqId(seq as u32), pos as u32 - self.starts[seq])
    }

    /// Owning sequence of text position `pos`.
    #[inline]
    pub fn seq_at(&self, pos: usize) -> SeqId {
        self.locate(pos).0
    }

    /// Text positions of the residues of sequence `id`; its sentinel is
    /// the position after them.
    pub fn seq_span(&self, id: SeqId) -> std::ops::Range<usize> {
        let end = self.starts.get(id.index() + 1).map_or(self.text.len(), |&next| next as usize);
        self.starts[id.index()] as usize..end - 1
    }

    /// Residue immediately to the left of `pos`, or `None` when `pos` is
    /// the first residue of its sequence (the start of the text, or after
    /// a sentinel) or is preceded by an `X` (an unknown residue can never
    /// witness a left extension, so matches bounded by `X` count as
    /// left-maximal).
    #[inline]
    pub fn left_residue(&self, pos: usize) -> Option<u8> {
        match self.text[pos.checked_sub(1)?] {
            class if is_terminator(class) => None,
            class => Some(class - 1),
        }
    }

    /// Rank of the suffix at `pos`, by binary search — suffixes are
    /// distinct, so the search lands on it — or `None` when an index cut at
    /// a mining cut-off does not hold it.
    pub(crate) fn rank_of(&self, pos: usize) -> Option<usize> {
        let rank =
            self.sa.partition_point(|&p| compare_suffixes(&self.text, p as usize, pos).0.is_lt());
        (self.sa.get(rank) == Some(&(pos as u32))).then_some(rank)
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

    fn lcp_of(g: &GeneralizedSuffixArray) -> Vec<u32> {
        (0..g.sa().len()).map(|r| g.lcp_at(r)).collect()
    }

    #[test]
    fn builds_and_is_sorted() {
        let set = set_of(&["MKVLW", "KVLWA", "ACDEF"]);
        let g = GeneralizedSuffixArray::build(&set);
        assert_eq!(g.text_len(), 15 + 3);
        let text = g.encoded_text();
        for r in 1..g.sa().len() {
            let a = &text[g.sa()[r - 1] as usize..];
            let b = &text[g.sa()[r] as usize..];
            assert!(a < b, "suffixes out of order at rank {r}");
        }
    }

    #[test]
    fn encoded_text_spells_out_every_terminator() {
        // Sentinel of sequence i is i + 1, the last one 0; residue code c
        // is c + n_seqs; the k-th X is n_seqs + 21 + k.
        let set = set_of(&["AX", "XR", "A"]);
        let g = GeneralizedSuffixArray::build(&set);
        assert_eq!(g.text(), &[1, X_CLASS, 0, X_CLASS, 2, 0, 1, 0]);
        assert_eq!(g.encoded_text(), vec![3, 24, 1, 25, 4, 2, 3, 0]);
        assert_eq!(g.alphabet_size(), 3 + 21 + 2);
    }

    #[test]
    fn seq_and_offset_mapping() {
        let set = set_of(&["ACD", "EF"]);
        let g = GeneralizedSuffixArray::build(&set);
        assert_eq!(g.seq_at(0), SeqId(0));
        assert_eq!(g.seq_at(3), SeqId(0)); // sentinel of seq 0
        assert_eq!(g.seq_at(4), SeqId(1));
        assert_eq!(g.locate(0).1, 0);
        assert_eq!(g.locate(2).1, 2);
        assert_eq!(g.locate(3).1, 3); // sentinel offset == len
        assert_eq!(g.locate(5), (SeqId(1), 1));
    }

    #[test]
    fn locate_agrees_with_a_naive_table_at_every_position() {
        // 1-residue reads (up to 32 reads in one block of 64 positions),
        // reads spanning several blocks, and a read of 63 residues first:
        // its sentinel is position 63 and the next read starts a block,
        // then a 127-residue read whose sentinel (position 64 + 127) is
        // the last position of a block, and one whose sentinel starts one.
        let lens = [63usize, 127, 64, 1, 1, 1, 200, 1, 62, 1, 1, 300, 1];
        let mut b = SequenceSetBuilder::new();
        for (i, &len) in lens.iter().enumerate() {
            b.push_codes(format!("s{i}"), vec![(i % 20) as u8; len]).unwrap();
        }
        let g = GeneralizedSuffixArray::build_parallel(&b.finish(), 1);
        let mut pos = 0;
        let mut sentinel_on_a_block_start = false;
        for (id, &len) in lens.iter().enumerate() {
            for offset in 0..=len {
                assert_eq!(g.locate(pos), (SeqId(id as u32), offset as u32), "pos {pos}");
                assert_eq!(g.seq_at(pos), SeqId(id as u32));
                sentinel_on_a_block_start |= offset == len && pos % SEQ_BLOCK == 0;
                pos += 1;
            }
        }
        assert_eq!(pos, g.text_len());
        assert!(sentinel_on_a_block_start, "the corpus must put a sentinel on a block boundary");
    }

    #[test]
    fn sentinels_detected() {
        let set = set_of(&["AC", "GT"]);
        let g = GeneralizedSuffixArray::build(&set);
        assert_eq!(g.text()[2], SENTINEL_CLASS);
        assert_eq!(g.text()[5], SENTINEL_CLASS);
        assert_eq!(g.text()[0], encode(b"A").unwrap()[0] + 1);
    }

    #[test]
    fn lcp_never_crosses_sentinels() {
        // Two identical sequences: the LCP between their full suffixes must
        // stop at the sequence length (distinct sentinels).
        let set = set_of(&["MKVLW", "MKVLW"]);
        let g = GeneralizedSuffixArray::build(&set);
        assert_eq!(lcp_of(&g).into_iter().max(), Some(5));
    }

    #[test]
    fn compact_lcp_is_exact_on_both_sides_of_saturation() {
        let wide = [0u32, 7, 65_534, 65_535, 65_536, 3, 4_000_000_000, 65_535];
        let lcp = CompactLcp::from_values(&wide);
        assert_eq!((0..wide.len()).map(|r| lcp.get(r)).collect::<Vec<_>>(), wide);
        assert_eq!(lcp.overflow.len(), 4, "65 535 itself is stored wide: {:?}", lcp.overflow);
        // Overflow entries arrive in any order from the sort jobs.
        let values = vec![u16::MAX, 1, u16::MAX];
        let lcp = CompactLcp::from_parts(values, vec![(2, 70_000), (0, 65_535)]);
        assert_eq!((lcp.get(0), lcp.get(1), lcp.get(2)), (65_535, 1, 70_000));
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
    fn single_sequence_set() {
        let set = set_of(&["A"]);
        let g = GeneralizedSuffixArray::build(&set);
        assert_eq!(g.text_len(), 2);
        assert_eq!(g.n_seqs(), 1);
    }

    #[test]
    #[should_panic(expected = "empty sequence set")]
    fn empty_set_panics() {
        let _ = GeneralizedSuffixArray::build(&SequenceSet::default());
    }

    #[test]
    fn x_residues_never_match_each_other() {
        // Identical X runs in two sequences: the only common prefixes are
        // the real residues around them, never the X characters.
        let set = set_of(&["MKXXXXXMK", "WVXXXXXWV"]);
        let g = GeneralizedSuffixArray::build(&set);
        let max_cross_lcp = (1..g.sa().len())
            .filter(|&r| g.seq_at(g.sa()[r - 1] as usize) != g.seq_at(g.sa()[r] as usize))
            .map(|r| g.lcp_at(r))
            .max()
            .unwrap_or(0);
        assert_eq!(max_cross_lcp, 0, "X runs must not produce cross-sequence matches");
    }

    #[test]
    fn rank_of_inverts_the_suffix_array() {
        // Equal reads, equal tails and equal flanks around `X`s: most
        // comparisons run into a terminator and fall to its rank.
        let set = set_of(&["MKVLW", "AXMKVLW", "MKVLW", "CXMKVLW", "W", "XW", "MKVLW"]);
        for g in
            [GeneralizedSuffixArray::build(&set), GeneralizedSuffixArray::build_parallel(&set, 2)]
        {
            for (rank, &pos) in g.sa().iter().enumerate() {
                assert_eq!(g.rank_of(pos as usize), Some(rank), "suffix at {pos}");
            }
        }
        // Cut at 5, the index holds the suffixes that share five symbols
        // with another and those of its leading buckets; the others have
        // no rank.
        let cut = GeneralizedSuffixArray::build_cut(&set, 2, 5);
        assert_eq!(cut.cutoff(), 5);
        assert!(cut.sa().len() < cut.text_len());
        for pos in 0..cut.text_len() {
            let rank = cut.rank_of(pos);
            assert_eq!(rank.map(|r| cut.sa()[r] as usize), rank.map(|_| pos));
            assert_eq!(rank.is_some(), cut.sa().contains(&(pos as u32)), "suffix at {pos}");
        }
    }

    #[test]
    fn build_parallel_matches_build() {
        // Mixed X-bearing and X-free sequences; repeats exercise the sort
        // tie-break.
        let set = set_of(&["MKVLWMKV", "AAMKVAA", "WXXWMKVXW", "AAAAAAAA", "MKVLWMKV"]);
        let serial = GeneralizedSuffixArray::build(&set);
        for threads in [1usize, 2, 3, 8] {
            let par = GeneralizedSuffixArray::build_parallel(&set, threads);
            assert_eq!(par.text(), serial.text(), "threads={threads}");
            assert_eq!(par.sa(), serial.sa(), "threads={threads}");
            assert_eq!(lcp_of(&par), lcp_of(&serial), "threads={threads}");
            assert_eq!(par.alphabet_size(), serial.alphabet_size());
        }
    }

    #[test]
    fn x_is_left_maximality_boundary() {
        let set = set_of(&["AXMKVLW", "CXMKVLW"]);
        let g = GeneralizedSuffixArray::build(&set);
        // Position of 'M' in each sequence is offset 2; left residue is X
        // → treated as a boundary (None).
        for pos in [2usize, 10] {
            assert_eq!(g.text()[pos - 1], X_CLASS, "left char is X");
            assert_eq!(g.left_residue(pos), None, "X must not witness extension");
        }
    }

    #[test]
    fn estimate_is_the_heap_the_index_holds() {
        // Three shapes: long reads, many short reads, X-bearing reads.
        let long: Vec<String> = (0..40).map(|i| "ACDEFGHIKLMNPQRSTVWY".repeat(20 + i)).collect();
        let short: Vec<String> =
            (0..3_000).map(|i| "MKVLWAAKND"[i % 7..].repeat(1 + i % 3)).collect();
        let unknown: Vec<String> =
            (0..500).map(|i| format!("AXC{}XXW", "DE".repeat(i % 40))).collect();
        for corpus in [long, short, unknown] {
            let refs: Vec<&str> = corpus.iter().map(String::as_str).collect();
            let set = set_of(&refs);
            let estimate = estimated_index_bytes(set.total_residues(), set.len()) as f64;
            for g in [
                GeneralizedSuffixArray::build(&set),
                GeneralizedSuffixArray::build_parallel(&set, 2),
            ] {
                let held = g.heap_bytes() as f64;
                assert!(
                    (held - estimate).abs() <= 0.01 * held,
                    "estimate {estimate} against {held} bytes held"
                );
            }
            // An index cut at a mining cut-off holds fewer suffixes: the
            // estimate is its ceiling.
            let cut = GeneralizedSuffixArray::build_cut(&set, 2, 10).heap_bytes() as f64;
            assert!(cut <= estimate, "estimate {estimate} against {cut} bytes held, cut at 10");
        }
    }
}
