//! Arena-backed storage for large sequence collections.
//!
//! A metagenomic run holds 10⁵–10⁷ short peptide sequences. Storing each in
//! its own `Vec<u8>` would cost one allocation per record and scatter the
//! residues across the heap; suffix-index construction would then need a
//! copy anyway. [`SequenceSet`] instead keeps every residue of the data set
//! in one contiguous arena with an offset table, so that (a) iteration is
//! cache-friendly, (b) the generalized suffix array can be built over the
//! arena directly, and (c) a whole data set is two allocations.

use crate::alphabet;
use crate::SeqError;

/// Index of a sequence within a [`SequenceSet`] (dense, 0-based).
///
/// Stored as `u32`: the paper's largest target (28.6 M ORFs) fits with room
/// to spare, and halving index size matters for pair lists that hold
/// hundreds of millions of entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SeqId(pub u32);

impl SeqId {
    /// The index as a `usize` for slice addressing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for SeqId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Borrowed view of a single sequence within a set.
#[derive(Debug, Clone, Copy)]
pub struct Sequence<'a> {
    /// Position of this record in the owning set.
    pub id: SeqId,
    /// FASTA header (without the leading `>`).
    pub header: &'a str,
    /// Residues as internal codes (see [`crate::alphabet`]).
    pub codes: &'a [u8],
}

impl<'a> Sequence<'a> {
    /// ASCII rendering of the residues.
    pub fn to_letters(&self) -> String {
        alphabet::decode(self.codes)
    }
}

/// An immutable collection of amino-acid sequences stored in one arena.
///
/// ```
/// use pfam_seq::SequenceSetBuilder;
///
/// let mut b = SequenceSetBuilder::new();
/// let id = b.push_letters("my protein".into(), b"MKVLW").unwrap();
/// let set = b.finish();
/// assert_eq!(set.get(id).to_letters(), "MKVLW");
/// assert_eq!(set.header(id), "my protein");
/// ```
#[derive(Debug, Clone, Default)]
pub struct SequenceSet {
    arena: Vec<u8>,
    /// `offsets[i]..offsets[i+1]` is the residue range of sequence `i`.
    offsets: Vec<usize>,
    headers: Vec<String>,
}

impl SequenceSet {
    /// Number of sequences.
    #[inline]
    pub fn len(&self) -> usize {
        self.headers.len()
    }

    /// Whether the set holds no sequences.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.headers.is_empty()
    }

    /// Total number of residues across all sequences.
    #[inline]
    pub fn total_residues(&self) -> usize {
        self.arena.len()
    }

    /// Residues of sequence `id` as internal codes.
    #[inline]
    pub fn codes(&self, id: SeqId) -> &[u8] {
        let i = id.index();
        &self.arena[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Length of sequence `id` in residues.
    #[inline]
    pub fn seq_len(&self, id: SeqId) -> usize {
        let i = id.index();
        self.offsets[i + 1] - self.offsets[i]
    }

    /// Header of sequence `id`.
    #[inline]
    pub fn header(&self, id: SeqId) -> &str {
        &self.headers[id.index()]
    }

    /// Borrowed view of sequence `id`.
    #[inline]
    pub fn get(&self, id: SeqId) -> Sequence<'_> {
        Sequence { id, header: self.header(id), codes: self.codes(id) }
    }

    /// Iterate over all sequences in id order.
    pub fn iter(&self) -> impl Iterator<Item = Sequence<'_>> + '_ {
        (0..self.len() as u32).map(move |i| self.get(SeqId(i)))
    }

    /// All valid ids, in order.
    pub fn ids(&self) -> impl Iterator<Item = SeqId> + 'static {
        (0..self.len() as u32).map(SeqId)
    }

    /// Build a new set containing only `keep` (in the given order).
    ///
    /// Headers are carried over; ids are renumbered densely. The returned
    /// mapping gives, for each new id, the old id it came from.
    pub fn subset(&self, keep: &[SeqId]) -> (SequenceSet, Vec<SeqId>) {
        let mut b = SequenceSetBuilder::with_capacity(
            keep.len(),
            keep.iter().map(|&id| self.seq_len(id)).sum(),
        );
        for &id in keep {
            b.push_codes(self.header(id).to_owned(), self.codes(id).to_vec())
                .expect("subset of a valid set stays valid");
        }
        (b.finish(), keep.to_vec())
    }

    /// Mean sequence length (0.0 for an empty set).
    pub fn mean_len(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.total_residues() as f64 / self.len() as f64
        }
    }
}

impl<'a> IntoIterator for &'a SequenceSet {
    type Item = Sequence<'a>;
    type IntoIter = Box<dyn Iterator<Item = Sequence<'a>> + 'a>;
    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

/// Incremental constructor for [`SequenceSet`].
#[derive(Debug, Default)]
pub struct SequenceSetBuilder {
    arena: Vec<u8>,
    offsets: Vec<usize>,
    headers: Vec<String>,
}

impl SequenceSetBuilder {
    /// Empty builder.
    pub fn new() -> SequenceSetBuilder {
        SequenceSetBuilder { arena: Vec::new(), offsets: vec![0], headers: Vec::new() }
    }

    /// Builder with pre-reserved space for `n_seqs` sequences and
    /// `n_residues` total residues.
    pub fn with_capacity(n_seqs: usize, n_residues: usize) -> SequenceSetBuilder {
        let mut offsets = Vec::with_capacity(n_seqs + 1);
        offsets.push(0);
        SequenceSetBuilder {
            arena: Vec::with_capacity(n_residues),
            offsets,
            headers: Vec::with_capacity(n_seqs),
        }
    }

    /// Append a sequence given as an ASCII residue string.
    pub fn push_letters(&mut self, header: String, letters: &[u8]) -> Result<SeqId, SeqError> {
        let codes = alphabet::encode(letters)?;
        self.push_codes(header, codes)
    }

    /// Append a sequence given as internal residue codes.
    pub fn push_codes(&mut self, header: String, codes: Vec<u8>) -> Result<SeqId, SeqError> {
        if codes.is_empty() {
            return Err(SeqError::EmptySequence { id: header });
        }
        debug_assert!(
            codes.iter().all(|&c| (c as usize) < crate::ALPHABET_SIZE),
            "push_codes given out-of-range residue codes"
        );
        let id = SeqId(self.headers.len() as u32);
        self.arena.extend_from_slice(&codes);
        self.offsets.push(self.arena.len());
        self.headers.push(header);
        Ok(id)
    }

    /// Finalise into an immutable [`SequenceSet`].
    pub fn finish(self) -> SequenceSet {
        SequenceSet { arena: self.arena, offsets: self.offsets, headers: self.headers }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SequenceSet {
        let mut b = SequenceSetBuilder::new();
        b.push_letters("one".into(), b"ACDEF").unwrap();
        b.push_letters("two".into(), b"MKV").unwrap();
        b.push_letters("three".into(), b"WWWWWWW").unwrap();
        b.finish()
    }

    #[test]
    fn basic_accessors() {
        let s = sample();
        assert_eq!(s.len(), 3);
        assert_eq!(s.total_residues(), 15);
        assert_eq!(s.seq_len(SeqId(0)), 5);
        assert_eq!(s.seq_len(SeqId(1)), 3);
        assert_eq!(s.header(SeqId(2)), "three");
        assert_eq!(s.get(SeqId(1)).to_letters(), "MKV");
        assert!((s.mean_len() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn empty_set() {
        let s = SequenceSet::default();
        assert!(s.is_empty());
        assert_eq!(s.total_residues(), 0);
        assert_eq!(s.mean_len(), 0.0);
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    fn arena_is_contiguous() {
        let s = sample();
        assert_eq!(s.arena.len(), 15);
        assert_eq!(s.offsets, [0, 5, 8, 15]);
    }

    #[test]
    fn rejects_empty_sequence() {
        let mut b = SequenceSetBuilder::new();
        let err = b.push_letters("bad".into(), b"").unwrap_err();
        assert!(matches!(err, SeqError::EmptySequence { .. }));
    }

    #[test]
    fn subset_renumbers_densely() {
        let s = sample();
        let (sub, mapping) = s.subset(&[SeqId(2), SeqId(0)]);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.get(SeqId(0)).to_letters(), "WWWWWWW");
        assert_eq!(sub.get(SeqId(1)).to_letters(), "ACDEF");
        assert_eq!(mapping, vec![SeqId(2), SeqId(0)]);
        assert_eq!(sub.header(SeqId(0)), "three");
    }

    #[test]
    fn iteration_matches_ids() {
        let s = sample();
        let via_iter: Vec<_> = s.iter().map(|q| q.id).collect();
        let via_ids: Vec<_> = s.ids().collect();
        assert_eq!(via_iter, via_ids);
    }

    #[test]
    fn builder_capacity_hint_irrelevant_to_result() {
        let mut a = SequenceSetBuilder::new();
        let mut b = SequenceSetBuilder::with_capacity(10, 1000);
        a.push_letters("h".into(), b"ACD").unwrap();
        b.push_letters("h".into(), b"ACD").unwrap();
        let (sa, sb) = (a.finish(), b.finish());
        assert_eq!(sa.codes(SeqId(0)), sb.codes(SeqId(0)));
    }

    #[test]
    fn seqid_display() {
        assert_eq!(SeqId(42).to_string(), "s42");
    }
}
