//! The sequence-storage abstraction of the out-of-core index plane.
//!
//! Everything above this crate used to consume `&SequenceSet` — an
//! implicit "the whole data set is in RAM" assumption that caps the
//! pipeline far below the paper's 28.6 M-ORF scale. [`SeqStore`] is the
//! seam that removes it: index construction, alignment-batch fetch,
//! shingle passes and checkpointing all go through this trait, and two
//! stores implement it —
//!
//! * [`SequenceSet`] itself (the in-memory store; every accessor is the
//!   zero-copy borrow it always was), and
//! * [`PagedSeqStore`] — a chunked, file-paged store whose resident
//!   footprint is a bounded page cache, written through by
//!   [`PagedStoreWriter`] (the streaming `pfam-datagen` sink).
//!
//! A [`SubsetStore`] view re-numbers a kept subset densely without
//! materialising it — the non-redundant set of a store-backed pipeline
//! run stays on disk, and over an in-memory set the view says so
//! ([`SeqStore::as_subset_view`]), which lets the index of that set serve
//! the view through a mask.

use std::borrow::Cow;
use std::fs::File;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use crate::budget::MemoryBudget;
use crate::sequence::{SeqId, SequenceSet, SequenceSetBuilder};
use crate::SeqError;

/// Read-only access to a collection of encoded sequences, independent of
/// whether the residues live in RAM or on disk.
///
/// Implementations are `Send + Sync`: worker threads fetch verification
/// batches concurrently. Accessors return owned or borrowed data via
/// [`Cow`] so the in-memory store stays zero-copy while paged stores can
/// serve decoded copies out of a bounded cache.
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

    /// Residue codes of sequence `id` — borrowed for in-memory stores,
    /// an owned copy for paged ones.
    fn codes_cow(&self, id: SeqId) -> Cow<'_, [u8]>;

    /// Header of sequence `id`, owned (paged stores decode it from disk).
    fn header_owned(&self, id: SeqId) -> String;

    /// Materialise the contiguous id range `range` as an in-memory
    /// [`SequenceSet`] (ids renumbered densely from 0) — the chunk-load
    /// primitive of partitioned index construction.
    fn load_range(&self, range: Range<u32>) -> SequenceSet;

    /// The backing [`SequenceSet`] when this store is (a view of) one —
    /// lets monolithic index construction borrow the arena instead of
    /// copying. Paged stores return `None`.
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

    fn codes_cow(&self, id: SeqId) -> Cow<'_, [u8]> {
        Cow::Borrowed(self.codes(id))
    }

    fn header_owned(&self, id: SeqId) -> String {
        self.header(id).to_owned()
    }

    fn load_range(&self, range: Range<u32>) -> SequenceSet {
        let mut b = SequenceSetBuilder::with_capacity(
            range.len(),
            range.clone().map(|i| self.seq_len(SeqId(i))).sum(),
        );
        for i in range {
            b.push_codes(self.header(SeqId(i)).to_owned(), self.codes(SeqId(i)).to_vec())
                .expect("a valid set holds no empty sequences");
        }
        b.finish()
    }

    fn as_sequence_set(&self) -> Option<&SequenceSet> {
        Some(self)
    }
}

/// Materialise an arbitrary (not necessarily contiguous) id list from any
/// store as an in-memory set, preserving `keep` order — the store-generic
/// analogue of [`SequenceSet::subset`].
pub fn materialize_subset(store: &dyn SeqStore, keep: &[SeqId]) -> SequenceSet {
    if let Some(set) = store.as_sequence_set() {
        return set.subset(keep).0;
    }
    let mut b = SequenceSetBuilder::with_capacity(
        keep.len(),
        keep.iter().map(|&id| store.seq_len(id)).sum(),
    );
    for &id in keep {
        b.push_codes(store.header_owned(id), store.codes_cow(id).into_owned())
            .expect("a valid store holds no empty sequences");
    }
    b.finish()
}

/// A dense re-numbering view over a kept subset of another store.
///
/// `SubsetStore` presents ids `0..keep.len()` mapping to `keep[i]` in the
/// base store — the non-redundant set of a store-backed pipeline run,
/// without materialising it. Lengths are cached eagerly (4 B/sequence) so
/// the per-pair filter stays O(1).
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

    fn codes_cow(&self, id: SeqId) -> Cow<'_, [u8]> {
        self.base.codes_cow(self.keep[id.index()])
    }

    fn header_owned(&self, id: SeqId) -> String {
        self.base.header_owned(self.keep[id.index()])
    }

    fn load_range(&self, range: Range<u32>) -> SequenceSet {
        let mut b = SequenceSetBuilder::with_capacity(
            range.len(),
            range.clone().map(|i| self.seq_len(SeqId(i))).sum(),
        );
        for i in range {
            let base_id = self.keep[i as usize];
            b.push_codes(
                self.base.header_owned(base_id),
                self.base.codes_cow(base_id).into_owned(),
            )
            .expect("a valid store holds no empty sequences");
        }
        b.finish()
    }

    fn as_subset_view(&self) -> Option<(&SequenceSet, &[SeqId])> {
        self.base.as_sequence_set().map(|set| (set, self.keep.as_slice()))
    }
}

// ---------------------------------------------------------------------------
// The paged on-disk store.
// ---------------------------------------------------------------------------

/// File magic + version for the paged store format.
const MAGIC: [u8; 8] = *b"PFSS0001";
/// Footer: index_off, n_pages, n_seqs, total_residues (u64 each) + magic.
const FOOTER_LEN: u64 = 8 * 4 + 8;
/// Default resident page-cache budget (bytes of decoded pages).
const DEFAULT_CACHE_BYTES: u64 = 64 << 20;

fn io_err(path: &Path, e: std::io::Error) -> SeqError {
    SeqError::Io(format!("{}: {e}", path.display()))
}

fn read_u64(buf: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(buf[at..at + 8].try_into().expect("8 bytes"))
}

fn read_u32(buf: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(buf[at..at + 4].try_into().expect("4 bytes"))
}

/// One page's entry in the page table.
#[derive(Debug, Clone, Copy)]
struct PageEntry {
    /// Global id of the first sequence in the page.
    seq_start: u32,
    /// One past the last sequence in the page.
    seq_end: u32,
    /// Byte offset of the page payload in the file.
    file_off: u64,
    /// Payload length in bytes.
    byte_len: u64,
}

/// Streaming writer for the paged store format — the write-through sink
/// `pfam-datagen` uses to generate million-ORF sets without materialising
/// a `Vec<Sequence>`.
///
/// Pages are flushed to disk as soon as they reach `page_bytes` of
/// payload; the page table and length table are appended at `finish`,
/// followed by a fixed-size footer (an append-only layout — no seeking
/// back, so the writer composes with plain buffered output).
pub struct PagedStoreWriter {
    path: PathBuf,
    out: BufWriter<File>,
    page_bytes: usize,
    /// Current page payload being accumulated.
    page: Vec<u8>,
    page_first_seq: u32,
    pages: Vec<PageEntry>,
    lens: Vec<u32>,
    written: u64,
    total_residues: u64,
}

impl PagedStoreWriter {
    /// Create (truncate) `path` with a target page payload of
    /// `page_bytes` (clamped to ≥ 64 B; tiny pages are useful in tests,
    /// production callers pass MiB-scale pages).
    pub fn create(
        path: impl Into<PathBuf>,
        page_bytes: usize,
    ) -> Result<PagedStoreWriter, SeqError> {
        let path = path.into();
        let file = File::create(&path).map_err(|e| io_err(&path, e))?;
        Ok(PagedStoreWriter {
            path,
            out: BufWriter::new(file),
            page_bytes: page_bytes.max(64),
            page: Vec::new(),
            page_first_seq: 0,
            pages: Vec::new(),
            lens: Vec::new(),
            written: 0,
            total_residues: 0,
        })
    }

    /// Number of sequences pushed so far.
    pub fn len(&self) -> usize {
        self.lens.len()
    }

    /// Whether nothing has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.lens.is_empty()
    }

    /// Append one sequence (residue codes, see [`crate::alphabet`]).
    pub fn push_codes(&mut self, header: &str, codes: &[u8]) -> Result<SeqId, SeqError> {
        if codes.is_empty() {
            return Err(SeqError::EmptySequence { id: header.to_owned() });
        }
        if self.lens.len() >= u32::MAX as usize {
            return Err(SeqError::Format("paged store is limited to u32::MAX sequences".into()));
        }
        let id = SeqId(self.lens.len() as u32);
        self.page.extend_from_slice(&(header.len() as u32).to_le_bytes());
        self.page.extend_from_slice(header.as_bytes());
        self.page.extend_from_slice(&(codes.len() as u32).to_le_bytes());
        self.page.extend_from_slice(codes);
        self.lens.push(codes.len() as u32);
        self.total_residues += codes.len() as u64;
        if self.page.len() >= self.page_bytes {
            self.flush_page()?;
        }
        Ok(id)
    }

    fn flush_page(&mut self) -> Result<(), SeqError> {
        if self.page.is_empty() {
            return Ok(());
        }
        self.out.write_all(&self.page).map_err(|e| io_err(&self.path, e))?;
        self.pages.push(PageEntry {
            seq_start: self.page_first_seq,
            seq_end: self.lens.len() as u32,
            file_off: self.written,
            byte_len: self.page.len() as u64,
        });
        self.written += self.page.len() as u64;
        self.page_first_seq = self.lens.len() as u32;
        self.page.clear();
        Ok(())
    }

    /// Flush the tail page, append the index + footer, and return the
    /// finished path (reopen with [`PagedSeqStore::open`]).
    pub fn finish(mut self) -> Result<PathBuf, SeqError> {
        self.flush_page()?;
        let index_off = self.written;
        let mut index = Vec::with_capacity(self.pages.len() * 24 + self.lens.len() * 4);
        for p in &self.pages {
            index.extend_from_slice(&(p.seq_start as u64).to_le_bytes());
            index.extend_from_slice(&p.file_off.to_le_bytes());
            index.extend_from_slice(&p.byte_len.to_le_bytes());
        }
        for &l in &self.lens {
            index.extend_from_slice(&l.to_le_bytes());
        }
        self.out.write_all(&index).map_err(|e| io_err(&self.path, e))?;
        let mut footer = Vec::with_capacity(FOOTER_LEN as usize);
        footer.extend_from_slice(&index_off.to_le_bytes());
        footer.extend_from_slice(&(self.pages.len() as u64).to_le_bytes());
        footer.extend_from_slice(&(self.lens.len() as u64).to_le_bytes());
        footer.extend_from_slice(&self.total_residues.to_le_bytes());
        footer.extend_from_slice(&MAGIC);
        self.out.write_all(&footer).map_err(|e| io_err(&self.path, e))?;
        self.out.flush().map_err(|e| io_err(&self.path, e))?;
        Ok(self.path)
    }
}

/// Decoded pages held resident, evicted least-recently-used under a byte
/// budget.
struct PageCache {
    /// `(page index, decoded page)` in LRU order (front = oldest).
    entries: Vec<(usize, Arc<SequenceSet>)>,
    resident_bytes: u64,
    max_bytes: u64,
}

impl PageCache {
    fn get(&mut self, page: usize) -> Option<Arc<SequenceSet>> {
        let at = self.entries.iter().position(|(p, _)| *p == page)?;
        let entry = self.entries.remove(at);
        let set = entry.1.clone();
        self.entries.push(entry); // move to most-recent
        Some(set)
    }

    fn insert(&mut self, page: usize, set: Arc<SequenceSet>) {
        let bytes = page_resident_bytes(&set);
        self.resident_bytes += bytes;
        self.entries.push((page, set));
        while self.resident_bytes > self.max_bytes && self.entries.len() > 1 {
            let (_, evicted) = self.entries.remove(0);
            self.resident_bytes -= page_resident_bytes(&evicted);
        }
    }
}

fn page_resident_bytes(set: &SequenceSet) -> u64 {
    // Arena + offset table; headers are small relative to residues.
    (set.total_residues() + (set.len() + 1) * 8) as u64
}

/// A chunked, file-paged sequence store: the on-disk [`SeqStore`].
///
/// The file holds sequences grouped into pages (written by
/// [`PagedStoreWriter`]); opening a store reads only the page table and
/// the global length table (4 B/sequence), so a million-ORF set opens
/// with a few MiB resident. Residue access decodes whole pages into a
/// bounded LRU cache whose byte ceiling registers against the store's
/// [`MemoryBudget`].
pub struct PagedSeqStore {
    file: Mutex<File>,
    pages: Vec<PageEntry>,
    lens: Vec<u32>,
    total_residues: u64,
    cache: Mutex<PageCache>,
    /// Budget bytes held for the cache ceiling + resident tables,
    /// released when the store drops.
    _cache_reservation: crate::budget::Reservation,
}

impl PagedSeqStore {
    /// Open a finished paged store file.
    pub fn open(path: impl Into<PathBuf>) -> Result<PagedSeqStore, SeqError> {
        PagedSeqStore::open_with_cache(path, MemoryBudget::unlimited(), DEFAULT_CACHE_BYTES)
    }

    /// Open with an explicit page-cache ceiling, registered against
    /// `budget` (the reservation is held for the store's lifetime).
    pub fn open_with_cache(
        path: impl Into<PathBuf>,
        budget: MemoryBudget,
        cache_bytes: u64,
    ) -> Result<PagedSeqStore, SeqError> {
        let path = path.into();
        let mut file = File::open(&path).map_err(|e| io_err(&path, e))?;
        let file_len = file.metadata().map_err(|e| io_err(&path, e))?.len();
        if file_len < FOOTER_LEN {
            return Err(SeqError::Format(format!("{}: not a paged store file", path.display())));
        }
        file.seek(SeekFrom::End(-(FOOTER_LEN as i64))).map_err(|e| io_err(&path, e))?;
        let mut footer = [0u8; FOOTER_LEN as usize];
        file.read_exact(&mut footer).map_err(|e| io_err(&path, e))?;
        if footer[32..40] != MAGIC {
            return Err(SeqError::Format(format!("{}: bad magic", path.display())));
        }
        let index_off = read_u64(&footer, 0);
        let (n_pages, n_seqs) = (read_u64(&footer, 8), read_u64(&footer, 16));
        let total_residues = read_u64(&footer, 24);
        let damaged = |what: String| SeqError::Format(format!("{}: {what}", path.display()));
        // The page table is input: every size and offset it gives is
        // checked before anything is allocated or read by it.
        let index_len = n_pages
            .checked_mul(24)
            .zip(n_seqs.checked_mul(4))
            .and_then(|(pages, lens)| pages.checked_add(lens));
        let end = index_len.and_then(|len| index_off.checked_add(len)?.checked_add(FOOTER_LEN));
        if end != Some(file_len) || n_seqs > u32::MAX as u64 {
            return Err(damaged("truncated index".into()));
        }
        // Both fit: the index lies inside the file.
        let (n_pages, n_seqs) = (n_pages as usize, n_seqs as usize);
        file.seek(SeekFrom::Start(index_off)).map_err(|e| io_err(&path, e))?;
        let mut index = vec![0u8; n_pages * 24 + n_seqs * 4];
        file.read_exact(&mut index).map_err(|e| io_err(&path, e))?;
        let lens: Vec<u32> = (0..n_seqs).map(|i| read_u32(&index, n_pages * 24 + i * 4)).collect();
        // Pages tile the reads `0..n_seqs` and the payload `0..index_off`,
        // in order, and each holds at least its reads' length words and
        // residues, none of them empty.
        let mut pages = Vec::with_capacity(n_pages);
        let (mut next_id, mut next_off) = (0u64, 0u64);
        for p in 0..n_pages {
            let at = p * 24;
            let seq_start = read_u64(&index, at);
            let seq_end = if p + 1 < n_pages { read_u64(&index, at + 24) } else { n_seqs as u64 };
            let (file_off, byte_len) = (read_u64(&index, at + 8), read_u64(&index, at + 16));
            if seq_start != next_id || seq_end <= seq_start || seq_end > n_seqs as u64 {
                return Err(damaged(format!("page {p} does not continue the read ids")));
            }
            next_off = Some(file_off)
                .filter(|&off| off == next_off)
                .and_then(|off| off.checked_add(byte_len))
                .filter(|&end| end <= index_off)
                .ok_or_else(|| damaged(format!("page {p} does not continue the payload")))?;
            let reads = &lens[seq_start as usize..seq_end as usize];
            let least = reads.iter().fold(0u64, |sum, &len| sum.saturating_add(8 + len as u64));
            if byte_len < least || reads.contains(&0) {
                return Err(damaged(format!("page {p} does not hold its reads")));
            }
            next_id = seq_end;
            // Both inside `0..=n_seqs`, which fits `u32`.
            pages.push(PageEntry {
                seq_start: seq_start as u32,
                seq_end: seq_end as u32,
                file_off,
                byte_len,
            });
        }
        if next_id != n_seqs as u64 || next_off != index_off {
            return Err(damaged("pages do not cover the reads and the payload".into()));
        }
        // The cache ceiling plus the length/page tables are this store's
        // resident footprint; register it so the budget sees the store.
        let table_bytes = (lens.len() * 4 + pages.len() * 24) as u64;
        let reservation = budget
            .try_reserve("paged-store-cache", cache_bytes + table_bytes)
            .map_err(|e| SeqError::Format(format!("paged store cache over budget: {e}")))?;
        let cache = PageCache { entries: Vec::new(), resident_bytes: 0, max_bytes: cache_bytes };
        Ok(PagedSeqStore {
            file: Mutex::new(file),
            pages,
            lens,
            total_residues,
            cache: Mutex::new(cache),
            _cache_reservation: reservation,
        })
    }

    /// Write an in-memory set out as a paged store file (test/CLI helper).
    pub fn write_set(
        path: impl Into<PathBuf>,
        set: &SequenceSet,
        page_bytes: usize,
    ) -> Result<PathBuf, SeqError> {
        let mut w = PagedStoreWriter::create(path, page_bytes)?;
        for seq in set.iter() {
            w.push_codes(seq.header, seq.codes)?;
        }
        w.finish()
    }

    /// The page index holding sequence `id`.
    fn page_of(&self, id: SeqId) -> usize {
        match self.pages.binary_search_by(|p| {
            if id.0 < p.seq_start {
                std::cmp::Ordering::Greater
            } else if id.0 >= p.seq_end {
                std::cmp::Ordering::Less
            } else {
                std::cmp::Ordering::Equal
            }
        }) {
            Ok(p) => p,
            Err(_) => panic!("sequence id {id} out of range for paged store"),
        }
    }

    /// Fetch (decode or cache-hit) page `p`.
    fn page(&self, p: usize) -> Arc<SequenceSet> {
        if let Some(hit) = self.cache.lock().expect("cache lock").get(p) {
            return hit;
        }
        let entry = self.pages[p];
        let mut raw = vec![0u8; entry.byte_len as usize];
        {
            let mut file = self.file.lock().expect("file lock");
            file.seek(SeekFrom::Start(entry.file_off)).expect("seek within store file");
            file.read_exact(&mut raw).expect("read page payload");
        }
        let n = (entry.seq_end - entry.seq_start) as usize;
        let residues: usize = self.lens[entry.seq_start as usize..entry.seq_end as usize]
            .iter()
            .map(|&l| l as usize)
            .sum();
        let mut b = SequenceSetBuilder::with_capacity(n, residues);
        let mut at = 0usize;
        for _ in 0..n {
            let hlen = read_u32(&raw, at) as usize;
            at += 4;
            let header = String::from_utf8_lossy(&raw[at..at + hlen]).into_owned();
            at += hlen;
            let clen = read_u32(&raw, at) as usize;
            at += 4;
            let codes = raw[at..at + clen].to_vec();
            at += clen;
            b.push_codes(header, codes).expect("stored sequences are non-empty");
        }
        debug_assert_eq!(at, raw.len(), "page payload fully consumed");
        let set = Arc::new(b.finish());
        self.cache.lock().expect("cache lock").insert(p, set.clone());
        set
    }
}

impl SeqStore for PagedSeqStore {
    fn len(&self) -> usize {
        self.lens.len()
    }

    fn total_residues(&self) -> usize {
        self.total_residues as usize
    }

    fn seq_len(&self, id: SeqId) -> usize {
        self.lens[id.index()] as usize
    }

    fn codes_cow(&self, id: SeqId) -> Cow<'_, [u8]> {
        let p = self.page_of(id);
        let page = self.page(p);
        let local = SeqId(id.0 - self.pages[p].seq_start);
        Cow::Owned(page.codes(local).to_vec())
    }

    fn header_owned(&self, id: SeqId) -> String {
        let p = self.page_of(id);
        let page = self.page(p);
        let local = SeqId(id.0 - self.pages[p].seq_start);
        page.header(local).to_owned()
    }

    fn load_range(&self, range: Range<u32>) -> SequenceSet {
        let residues: usize = range.clone().map(|i| self.lens[i as usize] as usize).sum();
        let mut b = SequenceSetBuilder::with_capacity(range.len(), residues);
        let mut i = range.start;
        while i < range.end {
            let p = self.page_of(SeqId(i));
            let page = self.page(p);
            let page_start = self.pages[p].seq_start;
            let stop = range.end.min(self.pages[p].seq_end);
            for g in i..stop {
                let local = SeqId(g - page_start);
                b.push_codes(page.header(local).to_owned(), page.codes(local).to_vec())
                    .expect("stored sequences are non-empty");
            }
            i = stop;
        }
        b.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequence::SequenceSetBuilder;

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

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("pfam-seq-store-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}", std::process::id()))
    }

    fn assert_store_equals_set(store: &dyn SeqStore, set: &SequenceSet) {
        assert_eq!(store.len(), set.len());
        assert_eq!(store.total_residues(), set.total_residues());
        for id in set.ids() {
            assert_eq!(store.seq_len(id), set.seq_len(id), "len of {id}");
            assert_eq!(store.codes_cow(id).as_ref(), set.codes(id), "codes of {id}");
            assert_eq!(store.header_owned(id), set.header(id), "header of {id}");
        }
    }

    #[test]
    fn sequence_set_is_a_zero_copy_store() {
        let set = sample(7);
        let store: &dyn SeqStore = &set;
        assert!(matches!(store.codes_cow(SeqId(0)), Cow::Borrowed(_)));
        assert_store_equals_set(store, &set);
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
    fn paged_roundtrip_small_pages() {
        let set = sample(23);
        let path = tmp("roundtrip.pfss");
        // 64-byte pages force many pages (and exercise page boundaries).
        PagedSeqStore::write_set(&path, &set, 64).unwrap();
        let store = PagedSeqStore::open(&path).unwrap();
        assert!(store.pages.len() > 1, "tiny pages must split the file");
        assert_store_equals_set(&store, &set);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn paged_load_range_across_page_boundaries() {
        let set = sample(31);
        let path = tmp("range.pfss");
        PagedSeqStore::write_set(&path, &set, 100).unwrap();
        let store = PagedSeqStore::open(&path).unwrap();
        let chunk = store.load_range(5..29);
        let expect = SeqStore::load_range(&set, 5..29);
        assert_eq!(chunk.len(), expect.len());
        for id in chunk.ids() {
            assert_eq!(chunk.codes(id), expect.codes(id));
            assert_eq!(chunk.header(id), expect.header(id));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn paged_cache_eviction_keeps_answers_right() {
        let set = sample(40);
        let path = tmp("evict.pfss");
        PagedSeqStore::write_set(&path, &set, 64).unwrap();
        // A cache that fits roughly one page: every access pattern still
        // returns the right residues (just slower).
        let store = PagedSeqStore::open_with_cache(&path, MemoryBudget::unlimited(), 256).unwrap();
        for round in 0..3 {
            for id in (0..set.len() as u32).rev().map(SeqId) {
                assert_eq!(store.codes_cow(id).as_ref(), set.codes(id), "round {round} {id}");
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn paged_open_refuses_garbage() {
        let path = tmp("garbage.pfss");
        std::fs::write(&path, b"not a store at all, far too short?x").unwrap();
        assert!(PagedSeqStore::open(&path).is_err());
        std::fs::write(&path, vec![0u8; 200]).unwrap();
        assert!(PagedSeqStore::open(&path).is_err(), "bad magic must be rejected");
        std::fs::remove_file(&path).ok();
    }

    /// `sample(23)` written in 64-byte pages, damaged by `damage(bytes,
    /// index_off, n_pages)`, then opened.
    fn planted(name: &str, damage: impl FnOnce(&mut [u8], usize, usize)) -> SeqError {
        let path = tmp(name);
        PagedSeqStore::write_set(&path, &sample(23), 64).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let footer = bytes.len() - FOOTER_LEN as usize;
        let (index_off, n_pages) = (read_u64(&bytes, footer), read_u64(&bytes, footer + 8));
        assert!(n_pages > 2, "the damage needs three pages");
        damage(&mut bytes, index_off as usize, n_pages as usize);
        std::fs::write(&path, &bytes).unwrap();
        let opened = PagedSeqStore::open(&path);
        std::fs::remove_file(&path).ok();
        match opened {
            Err(e @ SeqError::Format(_)) => e,
            Err(e) => panic!("not a format error: {e}"),
            Ok(_) => panic!("a damaged store opened"),
        }
    }

    fn put_u64(bytes: &mut [u8], at: usize, v: u64) {
        bytes[at..at + 8].copy_from_slice(&v.to_le_bytes());
    }

    #[test]
    fn a_page_running_past_the_payload_is_a_format_error() {
        let err = planted("overrun.pfss", |b, index, n_pages| {
            let len = b.len() as u64;
            put_u64(b, index + (n_pages - 1) * 24 + 16, len); // the last page's byte_len
        });
        assert!(err.to_string().contains("payload"), "{err}");
    }

    #[test]
    fn page_ids_that_do_not_ascend_are_a_format_error() {
        let err = planted("descend.pfss", |b, index, _| {
            let second = read_u64(b, index + 24);
            put_u64(b, index + 2 * 24, second - 1); // page 2 starts before page 1
        });
        assert!(err.to_string().contains("read ids"), "{err}");
    }

    #[test]
    fn an_index_size_that_overflows_is_a_format_error() {
        let err = planted("overflow.pfss", |b, _, n_pages| {
            // 24·2⁶¹ wraps to 0: the wrapped index length still matches the file.
            let footer = b.len() - FOOTER_LEN as usize;
            put_u64(b, footer + 8, n_pages as u64 + (1 << 61));
        });
        assert!(err.to_string().contains("truncated index"), "{err}");
    }

    #[test]
    fn a_page_shorter_than_its_reads_is_a_format_error() {
        let err = planted("short.pfss", |b, index, _| {
            // Page 0 gives all but 8 of its bytes to page 1; the tiling holds.
            let (len0, len1) = (read_u64(b, index + 16), read_u64(b, index + 24 + 16));
            put_u64(b, index + 16, 8);
            put_u64(b, index + 24 + 8, 8);
            put_u64(b, index + 24 + 16, len0 + len1 - 8);
        });
        assert!(err.to_string().contains("does not hold its reads"), "{err}");
    }

    #[test]
    fn paged_cache_over_budget_is_typed_error() {
        let set = sample(5);
        let path = tmp("budget.pfss");
        PagedSeqStore::write_set(&path, &set, 4096).unwrap();
        let tight = MemoryBudget::limited(10);
        let err = match PagedSeqStore::open_with_cache(&path, tight, 1 << 20) {
            Err(e) => e,
            Ok(_) => panic!("tight budget must refuse the cache"),
        };
        assert!(err.to_string().contains("over budget"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn writer_rejects_empty_sequences() {
        let path = tmp("empty.pfss");
        let mut w = PagedStoreWriter::create(&path, 4096).unwrap();
        assert!(w.push_codes("bad", &[]).is_err());
        assert!(w.is_empty());
        w.push_codes("ok", &[1, 2, 3]).unwrap();
        assert_eq!(w.len(), 1);
        w.finish().unwrap();
        std::fs::remove_file(&path).ok();
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
            assert_eq!(sub.codes_cow(id).as_ref(), set.codes(orig));
            assert_eq!(sub.seq_len(id), set.seq_len(orig));
            assert_eq!(sub.header_owned(id), set.header(orig));
        }
        // It says what it is a view of; a plain set and a view of a view
        // are not views of an in-memory set.
        let (base, kept) = sub.as_subset_view().expect("in-memory base");
        assert!(std::ptr::eq(base, &set));
        assert_eq!(kept, keep.as_slice());
        assert!(set.as_subset_view().is_none());
        assert!(SubsetStore::new(&sub, vec![SeqId(1)]).as_subset_view().is_none());
        // The materialised view equals SequenceSet::subset.
        let via_store = materialize_subset(&sub, &[SeqId(0), SeqId(1), SeqId(2)]);
        let (via_set, _) = set.subset(&keep);
        for id in via_set.ids() {
            assert_eq!(via_store.codes(id), via_set.codes(id));
        }
        std::mem::drop(sub);
    }

    #[test]
    fn materialize_subset_over_paged_store() {
        let set = sample(15);
        let path = tmp("matsub.pfss");
        PagedSeqStore::write_set(&path, &set, 128).unwrap();
        let store = PagedSeqStore::open(&path).unwrap();
        let keep = vec![SeqId(14), SeqId(0), SeqId(7)];
        let a = materialize_subset(&store, &keep);
        let (b, _) = set.subset(&keep);
        assert_eq!(a.len(), b.len());
        for id in a.ids() {
            assert_eq!(a.codes(id), b.codes(id));
            assert_eq!(a.header(id), b.header(id));
        }
        std::fs::remove_file(&path).ok();
    }
}
