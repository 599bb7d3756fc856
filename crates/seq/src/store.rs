//! The sequence-storage interface the clustering phases read through.
//!
//! Index construction, alignment-batch fetch and the windowed miner's
//! chunk loads all go through [`SeqStore`], and two in-memory stores
//! implement it —
//!
//! * [`SequenceSet`] itself (every accessor a borrow of its arena), and
//! * [`SubsetStore`] — a view that re-numbers a kept subset of another
//!   store densely without copying it (the non-redundant set CCD runs
//!   over). Over an in-memory set the view says so
//!   ([`SeqStore::as_subset_view`]), which lets the index of that set
//!   serve the view through a mask.
//!
//! The reads are resident either way: what bounds memory under a budget
//! is the windowed miner of `pfam-suffix`, which holds one text and sorts
//! its suffixes a window at a time.

use std::ops::Range;

use crate::sequence::{SeqId, SequenceSet, SequenceSetBuilder};

/// Read-only access to a collection of encoded sequences held in memory.
///
/// Implementations are `Send + Sync`: worker threads fetch verification
/// batches concurrently.
pub trait SeqStore: Send + Sync {
    /// Number of sequences.
    fn len(&self) -> usize;

    /// Whether the store holds no sequences.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total residues across all sequences.
    fn total_residues(&self) -> usize;

    /// Length of sequence `id` in residues. Must be O(1): the clustering
    /// filter calls this per pair.
    fn seq_len(&self, id: SeqId) -> usize;

    /// Residue codes of sequence `id`.
    fn codes(&self, id: SeqId) -> &[u8];

    /// Header of sequence `id`.
    fn header(&self, id: SeqId) -> &str;

    /// Copy the contiguous id range `range` out as a [`SequenceSet`] (ids
    /// renumbered densely from 0) — the chunk-load primitive of
    /// partitioned index construction.
    fn load_range(&self, range: Range<u32>) -> SequenceSet {
        copy_out(self, range.map(SeqId))
    }

    /// The backing [`SequenceSet`] when this store is one — lets
    /// monolithic index construction borrow the arena instead of copying.
    fn as_sequence_set(&self) -> Option<&SequenceSet> {
        None
    }

    /// The in-memory [`SequenceSet`] this store is a subset view of, and
    /// the ids it keeps of it in dense order — lets an index built over
    /// that set serve this store through a mask instead of a copy of the
    /// kept reads. `None` for every store that is not such a view.
    fn as_subset_view(&self) -> Option<(&SequenceSet, &[SeqId])> {
        None
    }

    /// Mean sequence length (0.0 when empty).
    fn mean_len(&self) -> f64 {
        if self.len() == 0 {
            0.0
        } else {
            self.total_residues() as f64 / self.len() as f64
        }
    }
}

/// The reads `ids` of `store`, in that order, as a new set.
fn copy_out<S, I>(store: &S, ids: I) -> SequenceSet
where
    S: SeqStore + ?Sized,
    I: ExactSizeIterator<Item = SeqId> + Clone,
{
    let residues = ids.clone().map(|id| store.seq_len(id)).sum();
    let mut b = SequenceSetBuilder::with_capacity(ids.len(), residues);
    for id in ids {
        b.push_codes(store.header(id).to_owned(), store.codes(id).to_vec())
            .expect("a valid store holds no empty sequences");
    }
    b.finish()
}

impl SeqStore for SequenceSet {
    fn len(&self) -> usize {
        SequenceSet::len(self)
    }

    fn total_residues(&self) -> usize {
        SequenceSet::total_residues(self)
    }

    fn seq_len(&self, id: SeqId) -> usize {
        SequenceSet::seq_len(self, id)
    }

    fn codes(&self, id: SeqId) -> &[u8] {
        SequenceSet::codes(self, id)
    }

    fn header(&self, id: SeqId) -> &str {
        SequenceSet::header(self, id)
    }

    fn as_sequence_set(&self) -> Option<&SequenceSet> {
        Some(self)
    }
}

/// Materialise an arbitrary (not necessarily contiguous) id list from any
/// store as an in-memory set, preserving `keep` order — the store-generic
/// analogue of [`SequenceSet::subset`].
pub fn materialize_subset(store: &dyn SeqStore, keep: &[SeqId]) -> SequenceSet {
    match store.as_sequence_set() {
        Some(set) => set.subset(keep).0,
        None => copy_out(store, keep.iter().copied()),
    }
}

/// A dense re-numbering view over a kept subset of another store.
///
/// `SubsetStore` presents ids `0..keep.len()` mapping to `keep[i]` in the
/// base store — the non-redundant set of a pipeline run, without
/// materialising it. Lengths are cached eagerly (4 B/sequence) so the
/// per-pair filter stays O(1).
pub struct SubsetStore<'a> {
    base: &'a dyn SeqStore,
    keep: Vec<SeqId>,
    lens: Vec<u32>,
    total: usize,
}

impl<'a> SubsetStore<'a> {
    /// View `keep` (in order) as a dense store over `base`.
    pub fn new(base: &'a dyn SeqStore, keep: Vec<SeqId>) -> SubsetStore<'a> {
        let lens: Vec<u32> = keep.iter().map(|&id| base.seq_len(id) as u32).collect();
        let total = lens.iter().map(|&l| l as usize).sum();
        SubsetStore { base, keep, lens, total }
    }

    /// The base-store id behind dense id `i`.
    pub fn original_id(&self, i: SeqId) -> SeqId {
        self.keep[i.index()]
    }
}

impl SeqStore for SubsetStore<'_> {
    fn len(&self) -> usize {
        self.keep.len()
    }

    fn total_residues(&self) -> usize {
        self.total
    }

    fn seq_len(&self, id: SeqId) -> usize {
        self.lens[id.index()] as usize
    }

    fn codes(&self, id: SeqId) -> &[u8] {
        self.base.codes(self.keep[id.index()])
    }

    fn header(&self, id: SeqId) -> &str {
        self.base.header(self.keep[id.index()])
    }

    fn as_subset_view(&self) -> Option<(&SequenceSet, &[SeqId])> {
        self.base.as_sequence_set().map(|set| (set, self.keep.as_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize) -> SequenceSet {
        let mut b = SequenceSetBuilder::new();
        for i in 0..n {
            let letters = match i % 3 {
                0 => "MKVLWAAKND".to_owned(),
                1 => "ACDEFGHIKLMNPQRSTVWY".repeat(1 + i % 5),
                _ => format!("{}W", "GG".repeat(1 + i % 7)),
            };
            b.push_letters(format!("seq{i}"), letters.as_bytes()).unwrap();
        }
        b.finish()
    }

    #[test]
    fn sequence_set_is_a_zero_copy_store() {
        let set = sample(7);
        let store: &dyn SeqStore = &set;
        assert_eq!(store.len(), set.len());
        assert_eq!(store.total_residues(), set.total_residues());
        for id in set.ids() {
            assert_eq!(store.seq_len(id), set.seq_len(id), "len of {id}");
            assert!(std::ptr::eq(store.codes(id), set.codes(id)), "codes of {id}");
            assert!(std::ptr::eq(store.header(id), set.header(id)), "header of {id}");
        }
        assert!(store.as_sequence_set().is_some());
    }

    #[test]
    fn load_range_matches_subset() {
        let set = sample(10);
        let store: &dyn SeqStore = &set;
        let chunk = store.load_range(3..7);
        assert_eq!(chunk.len(), 4);
        for (local, global) in (3u32..7).enumerate() {
            assert_eq!(chunk.codes(SeqId(local as u32)), set.codes(SeqId(global)));
            assert_eq!(chunk.header(SeqId(local as u32)), set.header(SeqId(global)));
        }
    }

    #[test]
    fn subset_store_renumbers_densely() {
        let set = sample(12);
        let keep = vec![SeqId(9), SeqId(2), SeqId(5)];
        let sub = SubsetStore::new(&set, keep.clone());
        assert_eq!(SeqStore::len(&sub), 3);
        for (i, &orig) in keep.iter().enumerate() {
            let id = SeqId(i as u32);
            assert_eq!(sub.original_id(id), orig);
            assert_eq!(sub.codes(id), set.codes(orig));
            assert_eq!(sub.seq_len(id), set.seq_len(orig));
            assert_eq!(sub.header(id), set.header(orig));
        }
        // It says what it is a view of; a plain set and a view of a view
        // are not views of an in-memory set.
        let (base, kept) = sub.as_subset_view().expect("in-memory base");
        assert!(std::ptr::eq(base, &set));
        assert_eq!(kept, keep.as_slice());
        assert!(set.as_subset_view().is_none());
        assert!(SubsetStore::new(&sub, vec![SeqId(1)]).as_subset_view().is_none());
        // The materialised view, and a range of it, equal SequenceSet::subset.
        let via_store = materialize_subset(&sub, &[SeqId(0), SeqId(1), SeqId(2)]);
        let via_range = sub.load_range(0..3);
        let (via_set, _) = set.subset(&keep);
        for id in via_set.ids() {
            assert_eq!(via_store.codes(id), via_set.codes(id));
            assert_eq!(via_range.codes(id), via_set.codes(id));
            assert_eq!(via_range.header(id), via_set.header(id));
        }
        std::mem::drop(sub);
    }
}
