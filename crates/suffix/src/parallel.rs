//! Multithreaded construction of the suffix-index hot path: suffix array,
//! LCP array, and maximal-match pair generation.
//!
//! Every routine here gives the same output at every thread count —
//! parallelism changes wall-clock time, never output:
//!
//! * [`bucket_sort_index`] scatters the suffixes' positions straight into
//!   the suffix array, into 2¹⁵ buckets by their leading three residues,
//!   and sorts each bucket independently on one integer key per suffix —
//!   its leading twelve residues, packed from the text as the bucket is
//!   sorted, so no key outlives its bucket; the LCP array falls out of
//!   adjacent keys. All suffixes of the indexed text
//!   are distinct (each sequence carries a unique sentinel), so the sorted
//!   order is *unique* and must equal what SA-IS produces. Texts whose
//!   key ties run too deep (long exact repeats) are handed back to SA-IS
//!   and Kasai's serial LCP pass — a parallel Φ/PLCP pass lost to it in
//!   every timed run at 2 threads (EXPERIMENTS.md, "SA-IS fallback LCP —
//!   verdict (PR 25)"). It is the one-window case of the sort the
//!   budgeted miner runs a contiguous range of buckets at a time
//!   ([`crate::partitioned`]).
//! * A window pays for the suffixes it holds. Its scatter is a membership
//!   pass over the text: eight positions at a time are tested on their
//!   leading class, the bucket id's top symbol, and only those a bucket
//!   of the window leads have their bucket read; only the window's own
//!   suffixes are placed and fingerprinted. The count pass, which rolls
//!   every position's bucket, runs once per text.
//! * The same sort at a mining cut-off ψ ≥ 3 (`bucket_sort_cut`,
//!   [`GeneralizedSuffixArray::build_cut`]) keeps only the suffixes a node
//!   of depth ≥ ψ can hold: those whose first `min(ψ, 12)` symbols another
//!   suffix shares. The scatter writes a 16-bit fingerprint of that prefix
//!   into each suffix's LCP slot, a bucket keys and sorts only the
//!   suffixes whose fingerprint repeats in it, and keeps those a sorted
//!   neighbour shares the prefix with; the arrays are then compacted to
//!   them, each LCP taken against the kept suffix before it. The leading
//!   buckets, up to the first that spells three residues and holds two
//!   suffixes, are kept whole: the first LCP descent of the full array,
//!   which numbers the tree ([`crate::SuffixTree::build_pruned`]), lies
//!   among them. It runs as windows of about a quarter of the suffixes
//!   each, sorted one after another in one buffer, each window's kept
//!   suffixes moved down behind the last's: the buffer, a quarter longer
//!   than the longest window, is all the scatter holds, where one window
//!   of every suffix held six bytes a position.
//! * [`mine_pairs`] is the one miner of promising pairs: it partitions a
//!   depth-sorted node list into contiguous chunks, mines each chunk's
//!   nodes into its own emit buffer, then concatenates buffers in chunk
//!   order. Because the node list is depth-sorted and every pair of a
//!   node carries that node's depth, the concatenation *is* the
//!   decreasing-length merge; the stream-level dedup filter then runs over
//!   it in that same order, so every dedup decision is the one a walk of
//!   the nodes one by one would make. [`parallel_pairs`] is it over the
//!   whole tree.
//! * [`with_match_tree`] is the one place an index is built for mining:
//!   GSA cut at ψ, then the interval tree pruned at ψ, lent to the caller.
//!
//! Threading is explicit (scoped OS threads with an atomic work cursor)
//! rather than delegated to a global pool, so the `threads` knob in
//! `ClusterConfig` bounds worker count deterministically; `threads == 0`
//! means "all available cores" and `threads == 1` runs the same code on
//! the calling thread.

use std::ops::Range;
use std::sync::atomic::{AtomicU16, AtomicU32, AtomicUsize, Ordering as AtomicOrdering};
use std::sync::Mutex;

use pfam_seq::SequenceSet;

use crate::gsa::{
    compare_suffixes, is_terminator, terminator_rank, CompactLcp, GeneralizedSuffixArray,
    SENTINEL_CLASS, X_CLASS,
};
use crate::maximal::{
    collect_node_pairs, mining_queue, GenerationStats, KeepMask, MatchPair, MaximalMatchConfig,
};
use crate::tree::{NodeId, SuffixTree};

/// Resolve a thread-count knob: `0` means every available core.
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        threads
    }
}

// ---------------------------------------------------------------------------
// Scoped-thread work-sharing primitives
// ---------------------------------------------------------------------------

/// Run `f(job)` for every `job in 0..jobs` on up to `threads` workers,
/// returning results in job order. Jobs are handed out through an atomic
/// cursor, so skewed job costs balance.
fn parallel_jobs<R, F>(jobs: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let mut out: Vec<Option<R>> = (0..jobs).map(|_| None).collect();
    run_jobs(out.iter_mut().enumerate().collect(), threads, |(i, slot)| *slot = Some(f(i)));
    out.into_iter().map(|r| r.expect("every job produced a result")).collect()
}

/// Run `f(job)` for every job on up to `threads` workers. Each job is
/// claimed exactly once through the atomic cursor, so jobs may own
/// disjoint `&mut` slices and need no further synchronisation.
///
/// The calling thread is one of the workers: it starts on the first job
/// at once and spawns one thread fewer, so a helper that is slow to be
/// scheduled delays nothing while a job is left for the caller to claim.
/// A cut build runs two such calls a window.
fn run_jobs<J, F>(jobs: Vec<J>, threads: usize, f: F)
where
    J: Send,
    F: Fn(J) + Sync,
{
    let workers = threads.min(jobs.len());
    if workers <= 1 {
        jobs.into_iter().for_each(f);
        return;
    }
    let slots: Vec<Mutex<Option<J>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let cursor = AtomicUsize::new(0);
    let work = || {
        while let Some(slot) = slots.get(cursor.fetch_add(1, AtomicOrdering::Relaxed)) {
            let job = slot
                .lock()
                .expect("job slot poisoned")
                .take()
                .expect("each job is claimed exactly once");
            f(job);
        }
    };
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(work);
        }
        work();
    });
}

// ---------------------------------------------------------------------------
// Suffix array + LCP by residue-packed bucket sort
// ---------------------------------------------------------------------------

/// Symbols packed into one sort key.
const KEY_SYMBOLS: usize = 12;
/// Bits per packed symbol class.
const CLASS_BITS: u32 = 5;
/// Leading key symbols the counting scatter buckets on.
const BUCKET_SYMBOLS: u32 = 3;
const BUCKET_BITS: u32 = BUCKET_SYMBOLS * CLASS_BITS;
const N_BUCKETS: usize = 1 << BUCKET_BITS;
/// Low key bits holding the count of residues before the key's terminator.
const LEN_BITS: u32 = 4;
const LEN_MASK: u64 = (1 << LEN_BITS) - 1;
/// Key-tied suffixes are re-keyed [`KEY_SYMBOLS`] deeper, level by level.
/// A text may spend this many re-keyed symbols per position; past that the
/// ties are long repeats whose resolution is quadratic, and the bucket
/// sort is abandoned for SA-IS. A re-keyed symbol costs about 2 ns and
/// SA-IS with its LCP pass 120–180 ns per position, so giving up at 32
/// wastes at most about half of what the fallback then costs; the
/// benchmark's most redundant input (14 % contained copies) spends 17.
const TIE_BUDGET_PER_POSITION: usize = 32;

/// One suffix in the sort: its packed key, then its text position. The
/// derived order is key-major, which is all the bucket sort needs.
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
struct Entry {
    key: u64,
    pos: u32,
}

/// Residues before the terminator within the key ([`KEY_SYMBOLS`] when the
/// key holds no terminator).
#[inline]
fn key_len(key: u64) -> usize {
    (key & LEN_MASK) as usize
}

/// Whether all three symbols of bucket id `bucket` are residues.
fn spells_residues(bucket: usize) -> bool {
    (0..BUCKET_SYMBOLS).all(|k| !is_terminator((bucket >> (CLASS_BITS * k) & 0x1F) as u8))
}

/// Leading symbols a suffix must share with another to be kept at mining
/// cut-off `psi`: at most a key's twelve, and none — every suffix is kept
/// — below the bucket id's three, since a shorter shared prefix can span
/// buckets.
pub(crate) fn kept_depth(psi: u32) -> usize {
    if psi < BUCKET_SYMBOLS {
        0
    } else {
        psi.min(KEY_SYMBOLS as u32) as usize
    }
}

/// Leading symbols two *different* keys share. A terminator ends its key,
/// so the first differing symbol differs in the text too and this is the
/// exact common-prefix length of the two suffixes.
#[inline]
fn common_symbols(a: u64, b: u64) -> u32 {
    (a ^ b).leading_zeros() / CLASS_BITS
}

/// The text of a [`GeneralizedSuffixArray`] — one 5-bit symbol class per
/// position (see [`crate::gsa`]) — as sort keys. Sentinels and `X`s are
/// *terminators*: each occurrence is a character of its own, so a key
/// stops at the first one and two suffixes with equal keys ending in a
/// terminator are ordered by which terminator that is
/// ([`terminator_rank`]).
struct KeyedText<'a> {
    text: &'a [u8],
}

/// One in every byte of a word.
const BYTES_ONE: u64 = u64::MAX / 0xFF;

/// `0x80` in every byte of `word` that holds a terminator class, zero in
/// every other byte. Exact in every byte, not only the first: classes are
/// below `0x80`, so adding `0x7F` to a byte never carries into the next.
#[inline]
fn terminator_bytes(word: u64) -> u64 {
    let nonzero = |w: u64| w + 0x7F * BYTES_ONE;
    let sentinels = !nonzero(word);
    let unknowns = !nonzero(word ^ (X_CLASS as u64 * BYTES_ONE));
    (sentinels | unknowns) & (0x80 * BYTES_ONE)
}

/// `0x80` in every byte of `word` whose class lies in `classes`, zero in
/// every other byte; a byte of `0x7F` is in no range of classes. Exact in
/// every byte, as [`terminator_bytes`] is: a byte with its top bit set,
/// less at most `0x7F`, never borrows from the next, and keeps its top bit
/// exactly when the class was at least what was taken.
#[inline]
fn class_bytes(word: u64, classes: std::ops::RangeInclusive<u8>) -> u64 {
    let high = word | (0x80 * BYTES_ONE);
    let from = high - *classes.start() as u64 * BYTES_ONE;
    let past = high - (*classes.end() as u64 + 1) * BYTES_ONE;
    from & !past & (0x80 * BYTES_ONE)
}

/// The 5-bit classes of the bytes of `word`, first byte (the least
/// significant) in the top bits: 40 bits.
#[inline]
fn pack_classes8(word: u64) -> u64 {
    let w = word.swap_bytes();
    let w = (w & 0x001F_001F_001F_001F) | ((w & 0x1F00_1F00_1F00_1F00) >> 3);
    let w = (w & 0x0000_03FF_0000_03FF) | ((w & 0x03FF_0000_03FF_0000) >> 6);
    (w & 0x000F_FFFF) | ((w & 0x000F_FFFF_0000_0000) >> 12)
}

/// [`pack_classes8`] of a four-byte word: 20 bits.
#[inline]
fn pack_classes4(word: u32) -> u32 {
    let w = word.swap_bytes();
    let w = (w & 0x001F_001F) | ((w & 0x1F00_1F00) >> 3);
    (w & 0x03FF) | ((w & 0x03FF_0000) >> 6)
}

impl KeyedText<'_> {
    /// The twelve classes from `i` on, first byte least significant: the
    /// first eight in one word, the last four in another. Within the last
    /// eleven positions the text's tail is copied out first and padded with
    /// sentinels. Never reads past the text.
    #[inline]
    fn words_at(&self, i: usize) -> (u64, u32) {
        match self.text.get(i..i + KEY_SYMBOLS) {
            Some(w) => (
                u64::from_le_bytes(w[..8].try_into().expect("eight bytes")),
                u32::from_le_bytes(w[8..].try_into().expect("four bytes")),
            ),
            None => self.tail_words(i),
        }
    }

    /// [`words_at`](Self::words_at) of one of the last eleven positions.
    #[cold]
    fn tail_words(&self, i: usize) -> (u64, u32) {
        let mut bytes = [SENTINEL_CLASS; KEY_SYMBOLS];
        bytes[..self.text.len() - i].copy_from_slice(&self.text[i..]);
        (
            u64::from_le_bytes(bytes[..8].try_into().expect("eight bytes")),
            u32::from_le_bytes(bytes[8..].try_into().expect("four bytes")),
        )
    }

    /// Key of the suffix at `i`: up to [`KEY_SYMBOLS`] classes from the
    /// top bit down, zero-padded after a terminator, then the residue
    /// count in the low [`LEN_BITS`]. Reads the twelve bytes as two words
    /// and finds the first terminator in them at once. The text's last
    /// character is a sentinel, so every key ends within the text.
    #[inline]
    fn key_at(&self, i: usize) -> u64 {
        let (head, tail) = self.words_at(i);
        let marks = terminator_bytes(head) as u128 | (terminator_bytes(tail as u64) as u128) << 64;
        // Every bit up to the first terminator's mark: its byte and those
        // before it.
        let kept = marks ^ marks.wrapping_sub(1);
        let len = (marks.trailing_zeros() / 8).min(KEY_SYMBOLS as u32);
        let (head, tail) = (head & kept as u64, tail & (kept >> 64) as u32);
        pack_classes8(head) << (u64::BITS - 8 * CLASS_BITS)
            | (pack_classes4(tail) as u64) << LEN_BITS
            | len as u64
    }

    /// A fingerprint of the symbols of the suffix at `i` that `prefix`
    /// ([`prefix_masks`]) covers, read off the text's bytes: equal for
    /// equal symbols and never 0, or 0 when a terminator lies among them.
    #[inline]
    fn print_at(&self, i: usize, prefix: (u64, u64)) -> u16 {
        let (head, tail) = self.words_at(i);
        let tail = tail as u64;
        let ended = terminator_bytes(head) & prefix.0 | terminator_bytes(tail) & prefix.1;
        let print = (head & prefix.0).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (tail & prefix.1).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
        if ended == 0 {
            ((print >> 48) as u16).max(1)
        } else {
            0
        }
    }

    /// Call `f(i, bucket)` for every `i` in `range`, high to low, in O(1)
    /// per position. `bucket` is [`bucket_at`](Self::bucket_at)`(i)`: the
    /// class at `i` followed by the first two symbols of the bucket at
    /// `i + 1`, or that class alone when it is a terminator.
    #[inline]
    fn scan_suffixes(&self, range: Range<usize>, mut f: impl FnMut(usize, usize)) {
        let mut bucket = if range.end < self.text.len() { self.bucket_at(range.end) } else { 0 };
        let start = range.start;
        for (offset, &class) in self.text[range].iter().enumerate().rev() {
            let top = (class as usize) << (BUCKET_BITS - CLASS_BITS);
            bucket = if is_terminator(class) { top } else { top | bucket >> CLASS_BITS };
            f(start + offset, bucket);
        }
    }
}

/// Masks of the first `depth` symbols (`1..=12`) of a suffix over the two
/// words [`KeyedText::words_at`] reads: what [`KeyedText::print_at`]
/// fingerprints.
fn prefix_masks(depth: usize) -> (u64, u64) {
    let bytes = |n: usize| if n >= 8 { u64::MAX } else { (1 << (8 * n)) - 1 };
    (bytes(depth), bytes(depth.saturating_sub(8)))
}

/// The leading symbol class of the suffixes of bucket `bucket`.
#[inline]
fn lead_of(bucket: usize) -> u8 {
    (bucket >> (BUCKET_BITS - CLASS_BITS)) as u8
}

impl KeyedText<'_> {
    /// The bucket of the suffix at `i` — the top bits of
    /// [`key_at`](Self::key_at), its first three symbols up to the first
    /// terminator — read off one four-byte load. Never reads past the
    /// text.
    #[inline]
    fn bucket_at(&self, i: usize) -> usize {
        let word = match self.text.get(i..i + 4) {
            Some(word) => u32::from_le_bytes(word.try_into().expect("four bytes")),
            None => self.words_at(i).0 as u32,
        } as u64;
        let marks = terminator_bytes(word);
        // Every bit up to the first terminator's mark, and the three bytes
        // a bucket spells.
        let w = word & (marks ^ marks.wrapping_sub(1)) & 0xFF_FFFF;
        ((w & 0x1F) << (2 * CLASS_BITS) | (w >> 8 & 0x1F) << CLASS_BITS | w >> 16 & 0x1F) as usize
    }

    /// Call `f(i, bucket)` for every suffix starting in `range` whose
    /// bucket lies in `window`, high to low: the suffixes
    /// [`scan_suffixes`](Self::scan_suffixes) names with a bucket in
    /// `window`, in the same order, without rolling the others. A run of
    /// [`SCAN_RUN`] positions at a time, eight at a time are tested on their
    /// leading class, the bucket id's top symbol ([`class_bytes`]), and
    /// those a bucket of the window leads are gathered by a table lookup;
    /// only those have their bucket read, and only those in the window are
    /// handed out. No step branches on a position.
    fn scan_window(
        &self,
        range: Range<usize>,
        window: Range<usize>,
        mut f: impl FnMut(usize, usize),
    ) {
        if window.is_empty() {
            return;
        }
        let leads = lead_of(window.start)..=lead_of(window.end - 1);
        // Offsets into the run; eight more, so a word's gather may write
        // past the last one counted.
        let mut offsets = [0u8; SCAN_RUN + 8];
        let mut held = [(0u32, 0u16); SCAN_RUN];
        let mut end = range.end;
        while end > range.start {
            let run = end.saturating_sub(SCAN_RUN).max(range.start)..end;
            let mut n = 0;
            for start in (run.start..end).step_by(8).rev() {
                let word = match self.text.get(start..start + 8).filter(|_| start + 8 <= end) {
                    Some(word) => u64::from_le_bytes(word.try_into().expect("eight bytes")),
                    // A short word is padded with bytes no class spells.
                    None => {
                        let mut word = [0x7F; 8];
                        word[..end - start].copy_from_slice(&self.text[start..end]);
                        u64::from_le_bytes(word)
                    }
                };
                // One bit per byte: bit `k` for the byte at `start + k`.
                let marks = (class_bytes(word, leads.clone()) >> 7).wrapping_mul(GATHER_BITS) >> 56;
                let gathered = GATHER[marks as usize] + (start - run.start) as u64 * BYTES_ONE;
                offsets[n..n + 8].copy_from_slice(&gathered.to_le_bytes());
                n += marks.count_ones() as usize;
            }
            let mut m = 0;
            for &offset in &offsets[..n] {
                let i = run.start + offset as usize;
                let bucket = self.bucket_at(i);
                held[m] = (i as u32, bucket as u16);
                m += window.contains(&bucket) as usize;
            }
            for &(i, bucket) in &held[..m] {
                f(i as usize, bucket as usize);
            }
            end = run.start;
        }
    }
}

/// Positions [`KeyedText::scan_window`] gathers before it hands them out:
/// a multiple of eight, and an offset into it fits a byte.
const SCAN_RUN: usize = 256;

/// Multiplying the top bits of a word's bytes, shifted to bit 0 of each,
/// by this puts byte `k`'s in bit `56 + k`: bit `8k` lands at `56 + k` and
/// every other product bit lands apart from them, or past the word.
const GATHER_BITS: u64 = 0x0102_0408_1020_4080;

/// For each byte mask, the indices of its set bits, highest first, one a
/// byte from the lowest up.
const GATHER: [u64; 256] = {
    let mut table = [0u64; 256];
    let mut mask = 0;
    while mask < 256 {
        let (mut entry, mut n, mut k) = (0u64, 0, 8);
        while k > 0 {
            k -= 1;
            if mask >> k & 1 == 1 {
                entry |= (k as u64) << (8 * n);
                n += 1;
            }
        }
        table[mask] = entry;
        mask += 1;
    }
    table
};

/// Contiguous bucket ranges holding roughly `1 / parts` of the entries of
/// the buckets `window` each; together they cover the window. `starts[b]`
/// is the first rank of bucket `b`.
fn bucket_groups(starts: &[usize], window: Range<usize>, parts: usize) -> Vec<Range<usize>> {
    let first = starts[window.start];
    let n = starts[window.end] - first;
    let mut groups = Vec::with_capacity(parts);
    let mut lo = window.start;
    for g in 1..=parts {
        let hi = if g == parts {
            window.end
        } else {
            starts.partition_point(|&s| s < first + n * g / parts).clamp(lo, window.end)
        };
        if hi > lo {
            groups.push(lo..hi);
            lo = hi;
        }
    }
    groups
}

/// Cut `data` into consecutive slices of the lengths `lens`.
fn carve<T>(mut data: &mut [T], lens: impl Iterator<Item = usize>) -> Vec<&mut [T]> {
    lens.map(|len| {
        let (head, tail) = std::mem::take(&mut data).split_at_mut(len);
        data = tail;
        head
    })
    .collect()
}

/// The ranks of one sort job: their slices of the suffix array (positions
/// in, sorted positions out) and of the LCP array, and where the LCP
/// values too wide for the array go.
struct RankSlices<'a> {
    sa: &'a mut [u32],
    lcp: &'a mut [u16],
    /// `(position, value)` of every suffix whose entry of `lcp` is left at
    /// `u16::MAX`: by position, since compaction moves the ranks. While a
    /// bucket is sorted, its entries hold the rank within it instead.
    overflow: &'a mut Vec<(u32, u32)>,
}

impl RankSlices<'_> {
    /// The sub-range `ranks` (relative to this one) of every slice.
    fn narrow(&mut self, ranks: Range<usize>) -> RankSlices<'_> {
        RankSlices {
            sa: &mut self.sa[ranks.clone()],
            lcp: &mut self.lcp[ranks],
            overflow: &mut *self.overflow,
        }
    }

    /// Record `value` — a match length, so under the text's `u32` length —
    /// as the LCP of the ranks `ranks` (relative).
    fn set_lcp(&mut self, ranks: Range<usize>, value: usize) {
        let value = value as u32;
        match CompactLcp::narrow(value) {
            Some(v) => self.lcp[ranks].fill(v),
            None => {
                self.lcp[ranks.clone()].fill(u16::MAX);
                self.overflow.extend(ranks.map(|r| (r as u32, value)));
            }
        }
    }
}

/// A worker's scratch across the buckets of its jobs.
#[derive(Default)]
struct TieWork {
    /// The bucket being sorted: `(key, position)` records, co-sorted here
    /// so the arrays themselves hold four and eight bytes a rank.
    entries: Vec<Entry>,
    /// `(lo, hi, depth)`: entries `lo..hi` of the current bucket agree on
    /// their first `depth` symbols and still need ordering from there on.
    pending: Vec<(usize, usize, usize)>,
    /// Re-keyed symbols not yet added to [`BucketSorter::spent`].
    uncharged: usize,
    /// By fingerprint, the last bucket grouped that held it: `2 · serial`
    /// once, `2 · serial + 1` more than once. Cleared when `serial` wraps.
    prints: Vec<u8>,
    /// The bucket being grouped, `1..=`[`TieWork::SERIALS`].
    serial: u8,
}

impl TieWork {
    /// Buckets grouped between two clearings of `prints`.
    const SERIALS: u8 = 127;
}

/// Shared state of the sort jobs.
struct BucketSorter<'a> {
    keyed: KeyedText<'a>,
    /// Re-keyed symbols spent resolving ties, over all workers. Relaxed:
    /// it publishes nothing, and the verdict is read after the workers
    /// join.
    spent: AtomicUsize,
    limit: usize,
}

impl BucketSorter<'_> {
    /// Workers add to `spent` in batches of this many symbols: one
    /// contended atomic per tied pair would cost more than re-keying it.
    const CHARGE_BATCH: usize = 1 << 14;

    fn over_budget(&self) -> bool {
        self.spent.load(AtomicOrdering::Relaxed) > self.limit
    }

    fn charge(&self, uncharged: &mut usize) {
        self.spent.fetch_add(std::mem::take(uncharged), AtomicOrdering::Relaxed);
    }

    /// Sort one bucket's positions into suffix order and write the LCP of
    /// every rank but the bucket's first (that one spans two buckets).
    /// Returns `false` once the tie budget is spent.
    fn sort_bucket(&self, mut bucket: RankSlices<'_>, work: &mut TieWork) -> bool {
        if bucket.sa.len() < 2 {
            return true;
        }
        let text = self.keyed.text;
        let mark = bucket.overflow.len();
        let TieWork { entries, pending, uncharged, .. } = work;
        entries.clear();
        // Exactly the largest bucket so far: the records are part of a
        // window's estimated peak.
        entries.reserve_exact(bucket.sa.len());
        // The suffixes lie all over the text. Touching each one's first
        // byte before keying them issues the cache misses back to back, so
        // they overlap instead of stalling one key at a time.
        std::hint::black_box(bucket.sa.iter().fold(0, |acc, &pos| acc ^ text[pos as usize]));
        entries.extend(
            bucket.sa.iter().map(|&pos| Entry { key: self.keyed.key_at(pos as usize), pos }),
        );
        pending.push((0, entries.len(), 0));
        while let Some((lo, hi, depth)) = pending.pop() {
            let part = &mut entries[lo..hi];
            if depth > 0 {
                *uncharged += part.len() * KEY_SYMBOLS;
                if *uncharged >= Self::CHARGE_BATCH {
                    self.charge(uncharged);
                    if self.over_budget() {
                        pending.clear();
                        return false;
                    }
                }
                for e in part.iter_mut() {
                    e.key = self.keyed.key_at(e.pos as usize + depth);
                }
            }
            part.sort_unstable();
            let mut a = 0;
            while a < part.len() {
                let key = part[a].key;
                let b = a + part[a..].iter().take_while(|e| e.key == key).count();
                if a > 0 {
                    let shared = common_symbols(part[a - 1].key, key) as usize;
                    bucket.set_lcp(lo + a..lo + a + 1, depth + shared);
                }
                if b - a > 1 {
                    let len = key_len(key);
                    if len < KEY_SYMBOLS {
                        // Equal up to a terminator, which is unique.
                        part[a..b].sort_unstable_by_key(|e| {
                            terminator_rank(text.len(), e.pos as usize + depth + len)
                        });
                        bucket.set_lcp(lo + a + 1..lo + b, depth + len);
                    } else {
                        pending.push((lo + a, lo + b, depth + KEY_SYMBOLS));
                    }
                }
                a = b;
            }
        }
        for (slot, e) in bucket.sa.iter_mut().zip(entries.iter()) {
            *slot = e.pos;
        }
        for (at, _) in &mut bucket.overflow[mark..] {
            *at = entries[*at as usize].pos;
        }
        true
    }

    /// Sort the suffixes of one bucket that share their first `depth`
    /// symbols with another suffix, whose fingerprints its LCP slots hold,
    /// and move them to the front of its slices: positions in suffix order,
    /// each with its LCP against the one before it (the first's is left for
    /// the bucket boundary). Returns how many, or `None` once the tie
    /// budget is spent.
    fn sort_repeats(
        &self,
        mut bucket: RankSlices<'_>,
        work: &mut TieWork,
        depth: usize,
    ) -> Option<usize> {
        if bucket.sa.len() < 2 {
            return Some(0);
        }
        // A suffix whose fingerprint is unique in its bucket shares its
        // first `depth` symbols with no other suffix: only repeats are
        // keyed.
        work.serial = work.serial % TieWork::SERIALS + 1;
        if work.serial == 1 {
            work.prints.clear();
            work.prints.resize(1 << u16::BITS, 0);
        }
        let once = 2 * work.serial;
        for &print in bucket.lcp.iter() {
            let seen = &mut work.prints[print as usize];
            *seen = if *seen & !1 == once { once | 1 } else { once };
        }
        let mut repeats = 0;
        for j in 0..bucket.sa.len() {
            let print = bucket.lcp[j];
            if print != 0 && work.prints[print as usize] == once | 1 {
                bucket.sa[repeats] = bucket.sa[j];
                repeats += 1;
            }
        }
        if !self.sort_bucket(bucket.narrow(0..repeats), work) {
            return None;
        }
        // Keep a suffix when a sorted neighbour shares its first `depth`
        // symbols; its LCP with the kept suffix before it is the least LCP
        // between them. A saturated LCP is above `depth`, so its suffix and
        // the one before it are kept side by side and it stays with its
        // position.
        let mut kept = 0;
        let mut gap = u16::MAX;
        for j in 0..repeats {
            let before = if j > 0 { bucket.lcp[j] } else { 0 };
            let after = if j + 1 < repeats { bucket.lcp[j + 1] } else { 0 };
            gap = gap.min(before);
            if before as usize >= depth || after as usize >= depth {
                bucket.sa[kept] = bucket.sa[j];
                bucket.lcp[kept] = gap;
                kept += 1;
                gap = u16::MAX;
            }
        }
        Some(kept)
    }
}

/// A suffix array and its LCP array, both indexed by rank.
pub type SaLcp = (Vec<u32>, CompactLcp);

/// Suffix array and LCP array of `text` — the symbol classes of a
/// [`GeneralizedSuffixArray`] — with up to `threads` workers, or `None`
/// when the text is so repetitive that resolving key ties would cost more
/// than [`TIE_BUDGET_PER_POSITION`] symbols per position — the caller then
/// runs SA-IS, whose worst case is linear.
///
/// A counting scatter on the leading three symbols places every suffix's
/// position in the suffix array, in one of 2¹⁵ buckets; each bucket is
/// then sorted on its own, handed out through the work cursor, on a
/// 12-symbol key per suffix ([`KeyedText`]) built from the text as the
/// bucket's records are. Keys order suffixes exactly up to their first
/// difference, so the LCP of two neighbours with different keys is read
/// off the keys; only neighbours tied on all twelve symbols are re-keyed
/// deeper. The suffixes of the text are all distinct, so the result is the
/// one SA-IS produces. This is the sort of one window ([`WindowSort`])
/// that holds every bucket, at no cut-off.
///
/// Besides the text and the two arrays it returns — seven bytes per
/// position — the sort holds one bucket's `(key, position)` records per
/// worker and the bucket tables; at a cut-off, also a 64 KiB fingerprint
/// table per worker.
///
/// `text` must be what [`crate::gsa`] holds: classes `0..=22`, the last
/// one a sentinel.
pub fn bucket_sort_index(text: &[u8], threads: usize) -> Option<SaLcp> {
    bucket_sort_cut(text, threads, 0)
}

/// [`bucket_sort_index`] at mining cut-off `psi`: the arrays hold only
/// the suffixes that share their first `min(psi, 12)` symbols with another
/// suffix, and those of the leading buckets (see the module docs); every
/// suffix when `psi < 3`, or when the text is handed back (`None`). At `psi ≥ 3` the buckets are sorted in
/// windows of about a quarter of the suffixes ([`plan_windows`]), which
/// share the text's tie budget: the arrays are the same, and the scatter
/// holds one buffer a quarter longer than the longest window instead of
/// six bytes a position.
pub(crate) fn bucket_sort_cut(text: &[u8], threads: usize, psi: u32) -> Option<SaLcp> {
    let threads = resolve_threads(threads);
    let table = BucketTable::count(text, threads);
    let mut sort = WindowSort::new(&table, psi, whole_text_tie_limit(text.len()), threads);
    sort.sort(text, &cut_windows(&table, psi))
}

/// The windows of [`bucket_sort_cut`] at cut-off `psi` over a
/// text with bucket table `table`: one of every bucket below ψ = 3, where
/// every suffix is kept; else at most [`CUT_WINDOWS`] windows
/// ([`plan_windows`]), each scattering at most that share of the suffixes
/// and one bucket more. They are charged by the suffixes they scatter
/// alone: the workers' records are not the scatter buffer's.
fn cut_windows(table: &BucketTable, psi: u32) -> Vec<Range<usize>> {
    let starts = &table.starts;
    let largest = (0..N_BUCKETS).map(|b| starts[b + 1] - starts[b]).max().unwrap_or(0);
    let cap = match kept_depth(psi) {
        0 => u64::MAX,
        _ => estimated_window_bytes(starts[N_BUCKETS].div_ceil(CUT_WINDOWS) + largest, 0, 0),
    };
    plan_windows(starts, psi, cap, 0).into_iter().map(|(window, _)| window).collect()
}

/// How many windows a sort at a cut-off is cut into, at most.
const CUT_WINDOWS: usize = 4;

/// How many re-keyed symbols the sort of a whole text of `n` positions
/// may spend on ties before it hands the text back to SA-IS.
pub(crate) fn whole_text_tie_limit(n: usize) -> usize {
    n.saturating_mul(TIE_BUDGET_PER_POSITION)
}

/// Text positions every chunk of the count and scatter passes spans but
/// the one chunk of a shorter text, so that a kept histogram (128 KiB)
/// costs at most half a byte per position, and a text of one chunk keeps
/// none: its budget floor carries no table.
const MIN_CHUNK: usize = 1 << 18;

/// Text chunks of the count and scatter passes over `n` positions on
/// `threads` workers: at most one a worker, each of at least
/// [`MIN_CHUNK`] positions, and at least one.
fn n_chunks(n: usize, threads: usize) -> usize {
    threads.min(n / MIN_CHUNK).max(1)
}

/// The bucket table of a text: where each bucket's ranks begin, and where
/// among them each text chunk's suffixes go. Counted once per text; the
/// scatter of every window reads its buckets' columns.
pub(crate) struct BucketTable {
    /// `starts[b]` is the first rank of bucket `b`, `starts[N_BUCKETS]` the
    /// text length.
    pub(crate) starts: Vec<usize>,
    /// Text positions per chunk; the last chunk may be shorter.
    chunk: usize,
    /// `ends[c][b]`: one past the last rank of the suffixes of bucket `b`
    /// that start in chunk `c` — chunk `c`'s histogram, summed with the
    /// histograms of the chunks before it onto `starts[b]` — for every
    /// chunk but the last, whose ends are the next buckets' starts. Within
    /// a bucket the chunks' suffixes lie in text order.
    ends: Vec<Vec<u32>>,
    /// The buckets `0..whole` are sorted whole at every cut-off: all up to
    /// the first that spells three residues and holds two suffixes. Their
    /// LCP is at least 3 inside it and below 3 after it, so the first
    /// descent of the full LCP array lies there.
    whole: usize,
}

impl BucketTable {
    /// Count the buckets of `text` on up to `threads` workers, one
    /// histogram per text chunk ([`n_chunks`]).
    pub(crate) fn count(text: &[u8], threads: usize) -> BucketTable {
        Self::count_in_chunks(text, text.len().div_ceil(n_chunks(text.len(), threads)), threads)
    }

    /// [`count`](Self::count) over text chunks of `chunk` positions.
    pub(crate) fn count_in_chunks(text: &[u8], chunk: usize, threads: usize) -> BucketTable {
        let n = text.len();
        assert_eq!(text.last(), Some(&SENTINEL_CLASS), "text must end with a sentinel");
        assert!(u32::try_from(n).is_ok(), "text positions must fit in u32");
        let keyed = KeyedText { text };
        let mut ends = parallel_jobs(n.div_ceil(chunk), threads, |c| {
            let mut counts = vec![0u32; N_BUCKETS];
            keyed.scan_suffixes(c * chunk..((c + 1) * chunk).min(n), |_, b| counts[b] += 1);
            counts
        });
        let mut starts = vec![0usize; N_BUCKETS + 1];
        for b in 0..N_BUCKETS {
            let mut end = starts[b] as u32;
            for counts in &mut ends {
                end += counts[b];
                counts[b] = end;
            }
            starts[b + 1] = end as usize;
        }
        ends.pop();
        let whole = (0..N_BUCKETS)
            .find(|&b| spells_residues(b) && starts[b + 1] - starts[b] >= 2)
            .map_or(N_BUCKETS, |b| b + 1);
        BucketTable { starts, chunk, ends, whole }
    }

    fn n_chunks(&self) -> usize {
        self.ends.len() + 1
    }

    /// The text positions of chunk `c`.
    fn chunk_range(&self, c: usize) -> Range<usize> {
        c * self.chunk..((c + 1) * self.chunk).min(self.starts[N_BUCKETS])
    }

    /// Where the suffixes of chunk `c` in the buckets `window` end, as
    /// ranks: the scatter's cursors.
    fn chunk_ends(&self, c: usize, window: Range<usize>) -> Vec<u32> {
        match self.ends.get(c) {
            Some(ends) => ends[window].to_vec(),
            None => self.starts[window.start + 1..=window.end].iter().map(|&s| s as u32).collect(),
        }
    }
}

/// Bytes a [`BucketTable`] of a text of `n` positions, counted on
/// `threads` workers, holds beyond its bucket starts, for as long as it
/// lives: its chunks' histograms.
pub(crate) fn estimated_table_bytes(n: usize, threads: usize) -> u64 {
    ((n_chunks(n, threads) - 1) * N_BUCKETS * std::mem::size_of::<u32>()) as u64
}

/// The bucket sort of one text at one cut-off, a window of buckets at a
/// time, in bucket order. A window pays for the suffixes it holds: a
/// membership pass over the text places them ([`KeyedText::scan_window`]),
/// each of its buckets is sorted on its own, and its arrays are compacted
/// to the suffixes it keeps. Every window spends the one tie budget.
pub(crate) struct WindowSort<'a> {
    /// The text's ([`BucketTable::count`]).
    table: &'a BucketTable,
    /// [`kept_depth`] of the cut-off.
    depth: usize,
    threads: usize,
    /// Re-keyed symbols the windows may spend on ties, and have spent.
    tie_limit: usize,
    spent: usize,
    /// The bucket of the last suffix the windows sorted so far kept: the
    /// LCP at the next window's rank 0 is against it.
    before: Option<usize>,
}

impl<'a> WindowSort<'a> {
    /// A sort at cut-off `psi` on up to `threads` workers that hands the
    /// text back once its windows have spent `tie_limit` re-keyed symbols.
    pub(crate) fn new(
        table: &'a BucketTable,
        psi: u32,
        tie_limit: usize,
        threads: usize,
    ) -> WindowSort<'a> {
        WindowSort { table, depth: kept_depth(psi), threads, tie_limit, spent: 0, before: None }
    }

    /// The suffixes of the buckets `windows` of `text` — contiguous, in
    /// order, and after every window sorted before — sorted, with their
    /// LCP array: the ranks `starts[first]..starts[last]` of the whole
    /// text's arrays at `psi < 3`. `None` once the tie budget is spent.
    ///
    /// At `psi ≥ 3` a bucket past the table's leading ones keeps only the
    /// suffixes that share their first [`kept_depth`] symbols with another
    /// suffix: every suffix a node of depth ≥ `psi` holds. The scatter
    /// writes a fingerprint of that prefix ([`KeyedText::print_at`]) into
    /// each suffix's LCP slot; the bucket's fingerprints are grouped in one
    /// pass, only repeats are keyed and sorted, and a repeat is kept when a
    /// sorted neighbour shares the prefix. The arrays are then compacted to
    /// the kept suffixes, in order, the LCP of two neighbours their true
    /// LCP: windows concatenate to the whole text's arrays at the same
    /// cut-off.
    ///
    /// Several windows share one buffer, a quarter longer than the longest
    /// of them: each is scattered and sorted behind what the ones before it
    /// kept, and its own kept suffixes move down behind those. Once the
    /// next window no longer fits behind them, every window left is sorted
    /// as one, in the buffer grown to hold it. The buffer, cut to what was
    /// kept, is the result.
    pub(crate) fn sort(&mut self, text: &[u8], windows: &[Range<usize>]) -> Option<SaLcp> {
        let table = self.table;
        let starts = &table.starts;
        let ranks = |window: &Range<usize>| starts[window.end] - starts[window.start];
        let longest = windows.iter().map(ranks).max().unwrap_or(0);
        let room = if windows.len() > 1 { longest + longest / 4 } else { longest };
        let (mut sa, mut lcp) = (vec![0; room], vec![0; room]);
        let (mut kept, mut overflow) = (0, Vec::new());
        let mut left = windows.iter();
        while let Some(window) = left.next() {
            let mut window = window.clone();
            if kept + ranks(&window) > sa.len() {
                window.end = windows.last().map_or(window.end, |last| last.end);
                left = [].iter();
                let room = kept + ranks(&window);
                (sa, lcp) = (regrown(sa, kept, room), regrown(lcp, kept, room));
            }
            let (n, wide) = self.sort_into(text, window, &mut sa, &mut lcp, kept)?;
            overflow.extend(wide);
            kept += n;
        }
        Some((trimmed(sa, kept), CompactLcp::from_parts(trimmed(lcp, kept), overflow)))
    }

    /// Sort the buckets `window` of `text` in `sa` and `lcp` from rank `at`
    /// on, and compact them to the suffixes kept: how many, and the
    /// `(rank, value)` of each LCP too wide for `lcp`, or `None` once the
    /// tie budget is spent. The ranks before `at` are left as they are.
    fn sort_into(
        &mut self,
        text: &[u8],
        window: Range<usize>,
        sa: &mut Vec<u32>,
        lcp: &mut Vec<u16>,
        at: usize,
    ) -> Option<(usize, Vec<(u32, u32)>)> {
        let (table, depth, threads) = (self.table, self.depth, self.threads);
        let starts = &table.starts[..];
        let (base, len) = (starts[window.start], starts[window.end] - starts[window.start]);
        if len == 0 {
            return Some((0, Vec::new()));
        }
        let sorter = BucketSorter {
            keyed: KeyedText { text },
            spent: AtomicUsize::new(self.spent),
            limit: self.tie_limit,
        };
        let keyed = &sorter.keyed;
        let ranks_of = |g: &Range<usize>| starts[g.end] - starts[g.start];

        // Scatter: each text chunk's membership pass places every suffix of
        // the window's buckets just below the last of its own offsets there,
        // so no two chunks write the same slot and each bucket comes out in
        // text order; at a cut-off, the suffix's fingerprint goes to the
        // same slot of the LCP array. Only the window's own suffixes are
        // keyed. A slot is a relaxed atomic store — a plain store on common
        // hardware; the workers' join orders every store before the slots
        // are read — and the arrays become slots and back in place.
        let prefix = prefix_masks(depth);
        let slots: Vec<AtomicU32> = std::mem::take(sa).into_iter().map(AtomicU32::new).collect();
        let prints: Vec<AtomicU16> = std::mem::take(lcp).into_iter().map(AtomicU16::new).collect();
        run_jobs((0..table.n_chunks()).collect(), threads, |c| {
            let mut ends = table.chunk_ends(c, window.clone());
            let place = |i: usize, b: usize| {
                let end = &mut ends[b - window.start];
                *end -= 1;
                let slot = at + *end as usize - base;
                slots[slot].store(i as u32, AtomicOrdering::Relaxed);
                if depth > 0 {
                    prints[slot].store(keyed.print_at(i, prefix), AtomicOrdering::Relaxed);
                }
            };
            // A window of every bucket holds every suffix: the roll is the
            // cheaper pass over them.
            if window.len() == N_BUCKETS {
                keyed.scan_suffixes(table.chunk_range(c), place);
            } else {
                keyed.scan_window(table.chunk_range(c), window.clone(), place);
            }
        });
        *sa = slots.into_iter().map(AtomicU32::into_inner).collect();
        *lcp = prints.into_iter().map(AtomicU16::into_inner).collect();
        let (sa, lcp) = (&mut sa[at..at + len], &mut lcp[at..at + len]);

        // Sort each bucket on its own; LCP values inside a bucket fall out of
        // the sort. `kept[b]`: the suffixes bucket `b` keeps, sorted at the
        // front of its ranks.
        let mut kept = vec![0u32; window.len()];
        let groups = bucket_groups(starts, window.clone(), threads * 16);
        let mut overflows: Vec<Vec<(u32, u32)>> = vec![Vec::new(); groups.len()];
        let jobs: Vec<_> = groups
            .iter()
            .zip(carve(&mut *sa, groups.iter().map(ranks_of)))
            .zip(carve(&mut *lcp, groups.iter().map(ranks_of)))
            .zip(carve(&mut kept, groups.iter().map(Range::len)))
            .zip(&mut overflows)
            .map(|((((group, sa), lcp), kept), overflow)| {
                (group.clone(), RankSlices { sa, lcp, overflow }, kept)
            })
            .collect();
        run_jobs(jobs, threads, |(group, mut ranks, kept)| {
            let first = starts[group.start];
            let mut work = TieWork::default();
            for (b, kept) in group.zip(kept) {
                if sorter.over_budget() {
                    break;
                }
                let bucket = ranks.narrow(starts[b] - first..starts[b + 1] - first);
                let held = if depth == 0 || b < table.whole {
                    let n = bucket.sa.len();
                    sorter.sort_bucket(bucket, &mut work).then_some(n)
                } else {
                    sorter.sort_repeats(bucket, &mut work, depth)
                };
                match held {
                    Some(n) => *kept = n as u32,
                    None => break,
                }
            }
            sorter.charge(&mut work.uncharged);
        });
        self.spent = sorter.spent.load(AtomicOrdering::Relaxed);
        if sorter.over_budget() {
            return None;
        }

        // Each bucket's kept suffixes move down behind the previous bucket's.
        // The first one's LCP is against the last kept suffix before it, in
        // this window or before it: their leading three symbols differ, and
        // those are the bucket ids.
        let mut to = 0;
        for (b, &n) in window.zip(&kept) {
            let (from, n) = (starts[b] - base, n as usize);
            if n == 0 {
                continue;
            }
            if from != to {
                sa.copy_within(from..from + n, to);
                lcp.copy_within(from..from + n, to);
            }
            lcp[to] = self.before.map_or(0, |prev| bucket_lcp(prev, b) as u16);
            self.before = Some(b);
            to += n;
        }
        // Saturated LCPs were listed by position: list them by rank.
        let mut overflow = overflows.concat();
        if !overflow.is_empty() {
            overflow.sort_unstable();
            let value_of = |pos: &u32| {
                let i = overflow.binary_search_by_key(pos, |&(p, _)| p).ok()?;
                Some(overflow[i].1)
            };
            overflow = sa[..to]
                .iter()
                .enumerate()
                .filter_map(|(rank, pos)| Some(((at + rank) as u32, value_of(pos)?)))
                .collect();
        }
        Some((to, overflow))
    }
}

/// `data` cut to its first `len` values, and its capacity with it.
fn trimmed<T>(mut data: Vec<T>, len: usize) -> Vec<T> {
    data.truncate(len);
    data.shrink_to_fit();
    data
}

/// `len` values, zero past the first `kept` of `data`, which they begin
/// with. `data` is cut to those first, so only they are held twice.
fn regrown<T: Copy + Default>(data: Vec<T>, kept: usize, len: usize) -> Vec<T> {
    let front = trimmed(data, kept);
    let mut grown = vec![T::default(); len];
    grown[..kept].copy_from_slice(&front);
    grown
}

/// The leading ranks of `gsa` that hold every suffix of the text ranked
/// there: all of them in a full index; in one cut at a mining cut-off, the
/// buckets its sort kept whole ([`BucketTable`]), which end with the first
/// run of ranks that share three residues.
pub(crate) fn whole_ranks(gsa: &GeneralizedSuffixArray) -> usize {
    let n = gsa.sa().len();
    if gsa.cutoff() == 0 {
        return n;
    }
    match (1..n).find(|&r| gsa.lcp_at(r) >= BUCKET_SYMBOLS) {
        Some(first) => (first + 1..n).find(|&r| gsa.lcp_at(r) < BUCKET_SYMBOLS).unwrap_or(n),
        None => n,
    }
}

/// The suffixes starting in `reads` — text ranges, each ending at its
/// read's sentinel — that an index over those reads alone ranks in its
/// leading buckets: every bucket up to the first that spells three
/// residues and holds two of them. In suffix order, each with its LCP
/// against the one before it (0 for the first).
pub(crate) fn leading_suffixes(text: &[u8], reads: &[Range<usize>]) -> Vec<(u32, u32)> {
    let keyed = KeyedText { text };
    let mut counts = vec![0u32; N_BUCKETS];
    for read in reads {
        keyed.scan_suffixes(read.clone(), |_, b| counts[b] += 1);
    }
    let last = (0..N_BUCKETS).find(|&b| spells_residues(b) && counts[b] >= 2);
    let last = last.unwrap_or(N_BUCKETS - 1);
    let mut positions = Vec::new();
    for read in reads {
        keyed.scan_suffixes(read.clone(), |i, b| {
            if b <= last {
                positions.push(i);
            }
        });
    }
    positions.sort_unstable_by(|&a, &b| compare_suffixes(text, a, b).0);
    let mut prev = None;
    positions
        .into_iter()
        .map(|pos| {
            let lcp = prev.map_or(0, |prev| compare_suffixes(text, prev, pos).1);
            prev = Some(pos);
            (pos as u32, lcp as u32)
        })
        .collect()
}

/// The leading symbols the suffixes of two different buckets share.
fn bucket_lcp(a: usize, b: usize) -> u32 {
    let shift = u64::BITS - BUCKET_BITS;
    common_symbols((a as u64) << shift, (b as u64) << shift)
}

/// The LCP at the first rank of the buckets from `b` on, against the
/// suffix before it, in the arrays of every suffix: `0` when no bucket on
/// either side holds one.
pub(crate) fn first_rank_lcp(starts: &[usize], b: usize) -> u32 {
    let occupied = |b: &usize| starts[b + 1] > starts[*b];
    match ((0..b).rev().find(occupied), (b..N_BUCKETS).find(occupied)) {
        (Some(prev), Some(next)) => bucket_lcp(prev, next),
        _ => 0,
    }
}

/// Estimated peak bytes of one window of `suffixes` suffixes, the largest
/// of its buckets holding `largest_bucket`, sorted ([`WindowSort`]) on
/// `threads` workers, treed and mined: 8 bytes per suffix it scatters, and
/// one bucket's 16-byte `(key, position)` records per worker. Of the 8, 6
/// are the scatter's slots (4 of suffix array, 2 of LCP, holding the
/// fingerprints until the sort). The other 2 cover what the later stages
/// add, as the counting allocator measured them at the end of each stage
/// (EXPERIMENTS.md, "A window is charged what it holds"): while
/// the buckets are sorted, the workers' 64 KiB fingerprint tables and job
/// lists, 6.1–7.6 bytes a scattered suffix in all; once the arrays are
/// compacted to the suffixes kept, the tree pruned at ψ beside them (about
/// 44 bytes a node) and the window's stream, 3–8.2 bytes a scattered
/// suffix where at most a third are kept. Where half are kept, the tree
/// peaks at up to 13, which this does not cover. The bucket tables, which do
/// not grow with the text, are not in it.
pub(crate) fn estimated_window_bytes(
    suffixes: usize,
    largest_bucket: usize,
    threads: usize,
) -> u64 {
    8 * suffixes as u64 + 16 * (threads * largest_bucket) as u64
}

/// Cut the buckets of a text (`starts`, [`BucketTable`]) into windows
/// — contiguous bucket ranges, in order, covering all of them — whose
/// estimated peak ([`estimated_window_bytes`], charged by the suffixes a
/// window scatters, not those it keeps) stays within `cap`, each with that
/// peak. A window is cut only where the leading `min(psi, 3)` symbols of
/// the bucket ids change, so no tree node of depth ≥ `psi` straddles two
/// windows; a run of buckets that cannot be cut and alone exceeds `cap` is
/// a window of its own, over it.
pub(crate) fn plan_windows(
    starts: &[usize],
    psi: u32,
    cap: u64,
    threads: usize,
) -> Vec<(Range<usize>, u64)> {
    let shift = CLASS_BITS * (BUCKET_SYMBOLS - psi.min(BUCKET_SYMBOLS));
    let size = |b: usize| starts[b + 1] - starts[b];
    let bytes =
        |(suffixes, largest): (usize, usize)| estimated_window_bytes(suffixes, largest, threads);
    let mut windows = Vec::new();
    // The window being filled: its buckets, suffixes and largest bucket.
    let (mut open, mut held) = (0..0, (0, 0));
    let mut b = 0;
    while b < N_BUCKETS {
        // The run of buckets sharing bucket `b`'s leading symbols.
        let end = (b + 1..N_BUCKETS).find(|&e| e >> shift != b >> shift).unwrap_or(N_BUCKETS);
        let run = (starts[end] - starts[b], (b..end).map(size).max().unwrap_or(0));
        let joined = (held.0 + run.0, held.1.max(run.1));
        if held.0 > 0 && run.0 > 0 && bytes(joined) > cap {
            windows.push((open, bytes(held)));
            (open, held) = (b..end, run);
        } else {
            (open.end, held) = (end, joined);
        }
        b = end;
    }
    windows.push((open, bytes(held)));
    windows
}

// ---------------------------------------------------------------------------
// Pair generation
// ---------------------------------------------------------------------------

/// The nodes [`mine_pairs`] visits.
#[derive(Clone, Copy)]
pub enum MineNodes<'a> {
    /// Every node of depth ≥ ψ. With a [`KeepMask`], only the reads it
    /// keeps, under their dense ids: the stream of an index built over
    /// those reads alone.
    Whole(Option<&'a KeepMask>),
    /// These nodes, deepest first and none shallower than ψ — one SPMD
    /// rank's slice of the suffix space, say.
    Slice(&'a [NodeId]),
}

/// Mine the promising pairs of `tree` under `config` on up to `threads`
/// workers (`0` = every core) — the one walk of tree nodes for pairs.
///
/// The node list is cut into contiguous chunks, each chunk mined into its
/// own buffer, and the buffers concatenated in chunk order. Every pair of a
/// node carries that node's depth, so the concatenation *is* the
/// decreasing-length merge, and the dedup filter runs over it in that
/// order: pairs, order and statistics are the same at every thread count.
/// At one thread the list is one chunk, mined on the calling thread and
/// deduplicated in place, so the buffer is the result.
pub fn mine_pairs(
    tree: &SuffixTree<'_>,
    config: MaximalMatchConfig,
    threads: usize,
    nodes: MineNodes<'_>,
) -> (Vec<MatchPair>, GenerationStats) {
    assert!(tree.min_depth() <= config.min_len, "tree is pruned above the mining cut-off");
    let (queue, keep);
    let nodes = match nodes {
        MineNodes::Slice(nodes) => {
            keep = None;
            nodes
        }
        MineNodes::Whole(mask) => {
            keep = mask;
            queue = mining_queue(tree, config.min_len, keep);
            &queue[..]
        }
    };
    debug_assert!(nodes.windows(2).all(|w| tree.depth(w[0]) >= tree.depth(w[1])));
    debug_assert!(nodes.iter().all(|&n| tree.depth(n) >= config.min_len));
    let threads = resolve_threads(threads);

    // Contiguous chunks of the depth-sorted node list → per-thread emit
    // buffers that concatenate back in node order.
    let n_chunks = if threads > 1 { threads * 8 } else { 1 }.min(nodes.len().max(1));
    let chunk_size = nodes.len().div_ceil(n_chunks).max(1);
    let chunks: Vec<&[NodeId]> = nodes.chunks(chunk_size).collect();
    let mut mined: Vec<(Vec<MatchPair>, usize, usize)> =
        parallel_jobs(chunks.len(), threads, |ci| {
            let mut pairs = Vec::new();
            let (mut capped, mut visited) = (0usize, 0usize);
            for &node in chunks[ci] {
                let (node_capped, branches) =
                    collect_node_pairs(tree, node, config.max_pairs_per_node, keep, &mut pairs);
                capped += node_capped;
                visited += usize::from(branches);
            }
            (pairs, capped, visited)
        });

    let candidates: usize = mined.iter().map(|(pairs, ..)| pairs.len()).sum();
    let mut stats = GenerationStats {
        pairs_capped: mined.iter().map(|&(_, capped, _)| capped).sum(),
        nodes_visited: mined.iter().map(|&(.., visited)| visited).sum(),
        ..GenerationStats::default()
    };
    let mut seen = crate::maximal::PairKeySet::default();
    let mut first_sight = |pair: &MatchPair| !config.dedup || seen.insert(pair.key());
    let out = match &mut mined[..] {
        // One chunk: deduplicated in place, and trimmed, since the caller
        // holds the result while it works through it.
        [(only, ..)] => {
            only.retain(|pair| first_sight(pair));
            only.shrink_to_fit();
            std::mem::take(only)
        }
        // Buffers are drained in chunk order, each freed once drained.
        all => {
            let mut out = Vec::with_capacity(candidates);
            for (pairs, ..) in all {
                out.extend(std::mem::take(pairs).into_iter().filter(|pair| first_sight(pair)));
            }
            out
        }
    };
    stats.pairs_emitted = out.len();
    stats.pairs_deduped = candidates - out.len();
    (out, stats)
}

/// Every promising pair of `tree` under `config`, mined on up to `threads`
/// workers: [`mine_pairs`] over the whole tree.
pub fn parallel_pairs(
    tree: &SuffixTree<'_>,
    config: MaximalMatchConfig,
    threads: usize,
) -> (Vec<MatchPair>, GenerationStats) {
    mine_pairs(tree, config, threads, MineNodes::Whole(None))
}

/// Index `set` for mining at cut-off `psi` and lend the result to `f`:
/// the generalized suffix array cut at `psi`
/// ([`GeneralizedSuffixArray::build_cut`]) on up to `threads` workers, the interval
/// tree pruned at `psi` (no miner visits a shallower node), and the
/// miner configuration that goes with them. Every production miner
/// builds its index here; one that mines at two cut-offs passes the
/// smaller and raises `min_len` for the other.
pub fn with_match_tree<R>(
    set: &SequenceSet,
    psi: u32,
    max_pairs_per_node: usize,
    threads: usize,
    f: impl FnOnce(&SuffixTree<'_>, MaximalMatchConfig) -> R,
) -> R {
    let gsa = GeneralizedSuffixArray::build_cut(set, threads, psi);
    let tree = SuffixTree::build_pruned(&gsa, psi);
    f(&tree, MaximalMatchConfig { min_len: psi, max_pairs_per_node, dedup: true })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lcp::lcp_array;

    fn bucket_of(key: u64) -> usize {
        (key >> (u64::BITS - BUCKET_BITS)) as usize
    }
    use crate::sais;
    use pfam_seq::SequenceSetBuilder;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn set_of(seqs: &[&str]) -> SequenceSet {
        let mut b = SequenceSetBuilder::new();
        for (i, s) in seqs.iter().enumerate() {
            b.push_letters(format!("s{i}"), s.as_bytes()).unwrap();
        }
        b.finish()
    }

    /// A one-sequence integer text: residues `1..=sigma`, a share
    /// `x_share` of them `X`s — the `k`-th spelt `X_CLASS + k`, the unique
    /// character it is — and the sentinel 0.
    fn random_text(rng: &mut StdRng, n: usize, sigma: u32, x_share: f64) -> Vec<u32> {
        let mut xs = X_CLASS as u32..;
        (0..n)
            .map(|_| {
                if rng.gen_bool(x_share) {
                    xs.next().expect("unbounded")
                } else {
                    rng.gen_range(0..sigma) + 1
                }
            })
            .chain(std::iter::once(0))
            .collect()
    }

    /// A one-sequence integer text (residues `1..`, unique `X`s from
    /// `X_CLASS` up, sentinel 0) as symbol classes.
    fn classes(text: &[u32]) -> Vec<u8> {
        text.iter().map(|&c| c.min(X_CLASS as u32) as u8).collect()
    }

    /// SA-IS + Kasai over the same text: the oracle.
    fn reference_index(text: &[u32]) -> SaLcp {
        let k = *text.iter().max().expect("non-empty") as usize + 1;
        let sa = sais::suffix_array(text, k);
        let lcp = CompactLcp::from_values(&lcp_array(text, &sa));
        (sa, lcp)
    }

    #[test]
    fn bucket_sort_matches_sais_on_random_texts() {
        // One sequence, residues 1..=sigma, sentinel 0; `X`s in half the
        // texts.
        let mut rng = StdRng::seed_from_u64(5);
        for round in 0..50 {
            let n = rng.gen_range(1..400);
            let sigma = rng.gen_range(2..8u32);
            let x_share = if round % 2 == 0 { 0.0 } else { rng.gen_range(0.01..0.2) };
            let text = random_text(&mut rng, n, sigma, x_share);
            let expect = reference_index(&text);
            for threads in [1, 2, 3, 8] {
                assert_eq!(bucket_sort_index(&classes(&text), threads), Some(expect.clone()));
            }
        }
    }

    /// The key of the suffix at `i`, symbol by symbol: the oracle of
    /// [`KeyedText::key_at`].
    fn key_by_symbols(text: &[u8], i: usize) -> u64 {
        let mut key = 0u64;
        for j in 0..KEY_SYMBOLS {
            let class = text[i + j];
            key |= (class as u64) << (u64::BITS - CLASS_BITS * (j as u32 + 1));
            if is_terminator(class) {
                return key | j as u64;
            }
        }
        key | KEY_SYMBOLS as u64
    }

    #[test]
    fn word_keys_equal_symbol_keys() {
        let mut rng = StdRng::seed_from_u64(9);
        let residue = |rng: &mut StdRng| rng.gen_range(1..X_CLASS);
        let mut texts = Vec::new();
        // A sentinel or an `X` at each of the twelve key positions of the
        // suffix at 10.
        for at in 0..KEY_SYMBOLS {
            for terminator in [SENTINEL_CLASS, X_CLASS] {
                let mut text: Vec<u8> = (0..30).map(|_| residue(&mut rng)).collect();
                text[10 + at] = terminator;
                text.push(SENTINEL_CLASS);
                texts.push(text);
            }
        }
        // Random texts, shorter and longer than a key, terminators from
        // none to dense.
        for _ in 0..200 {
            let share = rng.gen_range(0.0..0.5);
            let mut text: Vec<u8> = (0..rng.gen_range(0..60))
                .map(|_| {
                    if rng.gen_bool(share) {
                        [SENTINEL_CLASS, X_CLASS][rng.gen_range(0..2)]
                    } else {
                        residue(&mut rng)
                    }
                })
                .collect();
            text.push(SENTINEL_CLASS);
            texts.push(text);
        }
        for text in &texts {
            // Every offset, the last eleven (the tail path) included.
            let keyed = KeyedText { text };
            for i in 0..text.len() {
                assert_eq!(keyed.key_at(i), key_by_symbols(text, i), "{text:?} at {i}");
            }
        }
    }

    #[test]
    fn bucket_sort_handles_degenerate_texts() {
        // All-equal symbols, short enough to stay inside the tie budget:
        // every key collides and the deeper levels do all the work.
        let mut text = vec![3u32; 64];
        text.push(0);
        assert_eq!(bucket_sort_index(&classes(&text), 4), Some(reference_index(&text)));
        // Tiny texts.
        for text in [vec![0u32], vec![1, 0], vec![2, 1, 0]] {
            assert_eq!(bucket_sort_index(&classes(&text), 4), Some(reference_index(&text)));
        }
    }

    #[test]
    fn long_repeats_are_handed_back() {
        let mut text = vec![3u32; 5_000];
        text.push(0);
        assert_eq!(bucket_sort_index(&classes(&text), 2), None);
    }

    #[test]
    fn a_repeat_heavy_text_cut_in_windows_is_still_handed_back() {
        // The homopolymer's ties fall in one window; the windows share the
        // text's tie budget, so the cut build hands the text to SA-IS as
        // the sort of one window of every bucket does.
        let mut rng = StdRng::seed_from_u64(11);
        let mut b = SequenceSetBuilder::new();
        for i in 0..40 {
            let codes = if i == 20 { vec![7; 5_000] } else { random_codes(&mut rng, 60) };
            b.push_codes(format!("r{i}"), codes).expect("non-empty");
        }
        let set = b.finish();
        let full = GeneralizedSuffixArray::build(&set);
        let text = full.text();
        for threads in [1, 2] {
            let table = BucketTable::count(text, threads);
            assert!(cut_windows(&table, 10).len() > 1);
            let one = WindowSort::new(&table, 10, whole_text_tie_limit(text.len()), threads)
                .sort(text, std::slice::from_ref(&(0..N_BUCKETS)));
            assert_eq!(one, None, "one window of every bucket spends the budget");
            assert_eq!(bucket_sort_cut(text, threads, 10), None);
            let cut = GeneralizedSuffixArray::build_cut(&set, threads, 10);
            assert_eq!((cut.cutoff(), cut.sa()), (0, full.sa()), "SA-IS indexed it whole");
        }
    }

    /// Residue codes `0..20`, uniform.
    fn random_codes(rng: &mut StdRng, len: usize) -> Vec<u8> {
        (0..len).map(|_| rng.gen_range(0..20)).collect()
    }

    /// Up to 24 reads over four residues and `X` (code 20), up to 128
    /// residues long: short shared words are common, long ones rare.
    fn repeat_prone_reads() -> impl Strategy<Value = Vec<Vec<u8>>> {
        let residue = (0u8..9).prop_map(|c| if c == 8 { 20 } else { c % 4 });
        prop::collection::vec(prop::collection::vec(residue, 1..128), 1..24)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// On any text, range and window, the membership pass hands out the
        /// suffixes, with their buckets, that the roll names in the window,
        /// in the roll's order.
        #[test]
        fn a_window_scan_is_the_roll_filtered(
            reads in repeat_prone_reads(),
            ends in (0.0..1.0f64, 0.0..1.0f64),
            window in (0..N_BUCKETS, 0..N_BUCKETS),
        ) {
            let mut b = SequenceSetBuilder::new();
            for (i, codes) in reads.into_iter().enumerate() {
                b.push_codes(format!("s{i}"), codes).expect("non-empty");
            }
            let text = GeneralizedSuffixArray::build(&b.finish()).text().to_vec();
            let keyed = KeyedText { text: &text };
            let at = |share: f64| (share * text.len() as f64) as usize;
            let range = at(ends.0.min(ends.1))..at(ends.0.max(ends.1));
            let window = window.0.min(window.1)..window.0.max(window.1);
            let mut want = Vec::new();
            keyed.scan_suffixes(range.clone(), |i, b| {
                if window.contains(&b) {
                    want.push((i, b));
                }
            });
            let mut seen = Vec::new();
            keyed.scan_window(range, window, |i, b| seen.push((i, b)));
            prop_assert_eq!(seen, want);
        }

        /// Every plan, from one window of every bucket down to one bucket
        /// a window, sorts a text cut at ψ into the arrays the sort of one
        /// window of every bucket gives, and the cut index holds them at
        /// cut-off ψ.
        #[test]
        fn windowed_cut_sorts_equal_the_whole_text_sort(
            reads in repeat_prone_reads(),
            threads in 1usize..3,
        ) {
            let mut b = SequenceSetBuilder::new();
            for (i, codes) in reads.into_iter().enumerate() {
                b.push_codes(format!("s{i}"), codes).expect("non-empty");
            }
            let set = b.finish();
            let text = GeneralizedSuffixArray::build(&set).text().to_vec();
            let table = BucketTable::count(&text, threads);
            let limit = whole_text_tie_limit(text.len());
            for psi in [3, 5, 10, 12, 14] {
                let Some(whole) =
                    WindowSort::new(&table, psi, limit, threads).sort(&text, std::slice::from_ref(&(0..N_BUCKETS)))
                else {
                    continue;
                };
                let planned = cut_windows(&table, psi);
                for cap in [u64::MAX, 4_000, 600, 0] {
                    let windows: Vec<_> = plan_windows(&table.starts, psi, cap, threads)
                        .into_iter()
                        .map(|(window, _)| window)
                        .collect();
                    let got = WindowSort::new(&table, psi, limit, threads).sort(&text, &windows);
                    prop_assert_eq!(got.as_ref(), Some(&whole), "psi {} cap {}", psi, cap);
                }
                let got = WindowSort::new(&table, psi, limit, threads).sort(&text, &planned);
                prop_assert_eq!(got.as_ref(), Some(&whole), "psi {}: {:?}", psi, planned);
                let cut = GeneralizedSuffixArray::build_cut(&set, threads, psi);
                let lcp: Vec<u32> = (0..cut.sa().len()).map(|r| cut.lcp_at(r)).collect();
                prop_assert_eq!(cut.cutoff(), psi);
                prop_assert_eq!(cut.sa(), &whole.0[..]);
                prop_assert_eq!(CompactLcp::from_values(&lcp), whole.1.clone());
            }
        }
    }

    #[test]
    fn a_bucket_of_two_suffixes_tied_past_a_u16_lcp() {
        // Two copies of one 70 000-residue read: their whole-read suffixes
        // tie for 5 834 key widths and part at the sentinels, the last
        // sequence's being the smaller. Sorting every suffix of this text
        // is the SA-IS hand-back (70 000² re-keyed symbols); the one
        // bucket of two is what a text 10⁸ positions long could afford.
        let mut rng = StdRng::seed_from_u64(7);
        let read: Vec<u8> = (0..70_000).map(|_| rng.gen_range(1..=20)).collect();
        let text = [&read[..], &[SENTINEL_CLASS], &read[..], &[SENTINEL_CLASS]].concat();
        let sorter = BucketSorter {
            keyed: KeyedText { text: &text },
            spent: AtomicUsize::new(0),
            limit: usize::MAX,
        };
        let mut sa = [0u32, 70_001];
        assert_eq!(sorter.keyed.key_at(0), sorter.keyed.key_at(70_001));
        let mut lcp = [0u16; 2];
        let mut overflow = Vec::new();
        let bucket = RankSlices { sa: &mut sa, lcp: &mut lcp, overflow: &mut overflow };
        assert!(sorter.sort_bucket(bucket, &mut TieWork::default()));
        assert_eq!(sa, [70_001, 0]);
        assert_eq!(lcp, [0, u16::MAX]);
        // Listed by the suffix it belongs to, the one at rank 1.
        assert_eq!(overflow, vec![(0, 70_000)]);
    }

    #[test]
    fn equal_keys_ending_in_a_sentinel_fall_to_its_rank() {
        // Reads that are suffixes of one another end in equal keys; the
        // last read's sentinel is the smallest, the others follow ids.
        let set = set_of(&["KVLW", "MKVLW", "W", "LW", "VLW"]);
        let oracle = GeneralizedSuffixArray::build(&set);
        let (sa, lcp) = bucket_sort_index(oracle.text(), 2).expect("no long repeat");
        assert_eq!(sa, oracle.sa());
        assert!((0..sa.len()).all(|r| lcp.get(r) == oracle.lcp_at(r)));
        // "W$": read 4 (the last), then reads 0, 1, 2, 3.
        let owners: Vec<u32> = sa
            .iter()
            .filter(|&&p| oracle.text()[p as usize..].starts_with(&[18, SENTINEL_CLASS]))
            .map(|&p| oracle.seq_at(p as usize).0)
            .collect();
        assert_eq!(owners, vec![4, 0, 1, 2, 3]);
    }

    #[test]
    fn rolling_buckets_equal_direct_buckets() {
        let set = set_of(&["MKVLWAAKNDCQEGHMKVLW", "A", "WXXWMKVXW", "MKVLWAAKNDCQEGHMKVLW"]);
        let gsa = GeneralizedSuffixArray::build(&set);
        let keyed = KeyedText { text: gsa.text() };
        for range in [0..gsa.text_len(), 3..17, 20..21, 22..22] {
            let mut seen = Vec::new();
            keyed.scan_suffixes(range.clone(), |i, bucket| seen.push((i, bucket)));
            let direct: Vec<_> = range.clone().rev().map(|i| (i, keyed.bucket_at(i))).collect();
            assert_eq!(seen, direct);
            assert!(direct.iter().all(|&(i, bucket)| bucket == bucket_of(keyed.key_at(i))));
        }
    }

    #[test]
    fn prints_are_equal_for_equal_prefixes_and_zero_across_a_terminator() {
        let set =
            set_of(&["MKVLWAAKNDCQEGHMKVLW", "A", "WXXWMKVXW", "MKVLWAAKNDCQEGHMKVLW", "MKV"]);
        let gsa = GeneralizedSuffixArray::build(&set);
        let text = gsa.text();
        let keyed = KeyedText { text };
        for depth in 1..=KEY_SYMBOLS {
            for i in 0..text.len() {
                let print = keyed.print_at(i, prefix_masks(depth));
                assert_eq!(print == 0, key_len(keyed.key_at(i)) < depth, "at {i}, depth {depth}");
                for j in 0..text.len() {
                    if print != 0 && compare_suffixes(text, i, j).1 >= depth {
                        let other = keyed.print_at(j, prefix_masks(depth));
                        assert_eq!(other, print, "{i} and {j}, depth {depth}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_window_scan_is_the_scan_filtered() {
        // Over 256 suffixes, so runs fill, with the range's ends off the
        // word and run edges.
        let reads: Vec<String> = (0..40)
            .map(|r| "MKVLWAAKNDCQEGHX".chars().cycle().skip(r).take(9 + r % 12).collect())
            .collect();
        let set = set_of(&reads.iter().map(String::as_str).collect::<Vec<_>>());
        let gsa = GeneralizedSuffixArray::build(&set);
        let keyed = KeyedText { text: gsa.text() };
        assert!(gsa.text_len() > 2 * SCAN_RUN);
        let windows = [
            0..1,
            0..N_BUCKETS / 2,
            5 << 10..9 << 10,
            (5 << 10) + 17..(9 << 10) + 3,
            (X_CLASS as usize) << 10..N_BUCKETS,
            N_BUCKETS - 1..N_BUCKETS,
            0..N_BUCKETS,
            7..7,
        ];
        let n = gsa.text_len();
        for range in [0..n, 1..n - 1, 5..69, 3..SCAN_RUN + 13, 7..8, 9..9] {
            let mut all = Vec::new();
            keyed.scan_suffixes(range.clone(), |i, b| all.push((i, b)));
            for window in windows.clone() {
                let mut seen = Vec::new();
                keyed.scan_window(range.clone(), window.clone(), |i, b| seen.push((i, b)));
                let want: Vec<_> =
                    all.iter().copied().filter(|(_, b)| window.contains(b)).collect();
                assert_eq!(seen, want, "range {range:?} window {window:?}");
            }
        }
    }

    #[test]
    fn class_bytes_marks_exactly_the_classes_in_range() {
        let classes = |word: [u8; 8], range| {
            let marks = class_bytes(u64::from_le_bytes(word), range);
            (0..8).map(|k| marks >> (8 * k) & 0xFF).collect::<Vec<_>>()
        };
        for lo in 0..=X_CLASS {
            for hi in lo..=X_CLASS {
                for word in [[0, 1, 2, 3, 4, 5, 6, 7], [22, 21, 20, 19, 18, 17, 0x7F, 0], [lo; 8]] {
                    let want: Vec<u64> = word
                        .iter()
                        .map(|&c| if (lo..=hi).contains(&c) { 0x80 } else { 0 })
                        .collect();
                    assert_eq!(classes(word, lo..=hi), want, "{word:?} in {lo}..={hi}");
                }
            }
        }
    }

    #[test]
    fn mining_is_thread_count_invariant() {
        let set = set_of(&[
            "MKVLWAAKNDCQEGH",
            "MKVLWAAKNDCQEGH",
            "GGMKVLWAAKNDGG",
            "WYVFPSTWYVFPST",
            "AAWYVFPSTWYVAA",
            "HILKMFHILKMF",
        ]);
        let gsa = GeneralizedSuffixArray::build(&set);
        let tree = SuffixTree::build(&gsa);
        for dedup in [true, false] {
            let config = MaximalMatchConfig { min_len: 4, dedup, ..Default::default() };
            let (one, one_stats) = parallel_pairs(&tree, config, 1);
            assert!(one_stats.nodes_visited >= 1);
            assert_eq!(one_stats.pairs_emitted, one.len());
            for threads in [2, 4, 8] {
                let (many, stats) = parallel_pairs(&tree, config, threads);
                assert_eq!(many, one, "dedup={dedup} threads={threads}");
                assert_eq!(stats, one_stats, "dedup={dedup} threads={threads}");
            }
        }
    }

    #[test]
    fn resolve_threads_semantics() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(1), 1);
        assert_eq!(resolve_threads(7), 7);
    }
}
