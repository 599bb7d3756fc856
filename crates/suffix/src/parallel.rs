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
//! * The same sort at a mining cut-off ψ ≥ 3 ([`bucket_sort_index_staged`],
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
//!   among them.
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
use std::time::Instant;

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
    let (f, slots, cursor) = (&f, &slots, &cursor);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(move || {
                while let Some(slot) = slots.get(cursor.fetch_add(1, AtomicOrdering::Relaxed)) {
                    let job = slot
                        .lock()
                        .expect("job slot poisoned")
                        .take()
                        .expect("each job is claimed exactly once");
                    f(job);
                }
            });
        }
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

#[inline]
fn bucket_of(key: u64) -> usize {
    (key >> (u64::BITS - BUCKET_BITS)) as usize
}

/// Residues before the terminator within the key ([`KEY_SYMBOLS`] when the
/// key holds no terminator).
#[inline]
fn key_len(key: u64) -> usize {
    (key & LEN_MASK) as usize
}

/// A fingerprint of the first `depth` symbols of `key` (`1..=12`), none of
/// them a terminator: equal for equal symbols, and never 0.
#[inline]
fn fingerprint(key: u64, depth: usize) -> u16 {
    let prefix = key & !(u64::MAX >> (CLASS_BITS * depth as u32));
    ((prefix.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 48) as u16).max(1)
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
    /// Key of the suffix at `i`: up to [`KEY_SYMBOLS`] classes from the
    /// top bit down, zero-padded after a terminator, then the residue
    /// count in the low [`LEN_BITS`]. Reads the twelve bytes as two words
    /// and finds the first terminator in them at once; within the last
    /// eleven positions the text's tail is copied out first. Never reads
    /// past the text: its last character is a sentinel.
    #[inline]
    fn key_at(&self, i: usize) -> u64 {
        let (head, tail) = match self.text.get(i..i + KEY_SYMBOLS) {
            Some(w) => (&w[..8], &w[8..]),
            None => return self.tail_key(i),
        };
        let head = u64::from_le_bytes(head.try_into().expect("eight bytes"));
        let tail = u32::from_le_bytes(tail.try_into().expect("four bytes"));
        Self::pack_key(head, tail)
    }

    /// [`key_at`](Self::key_at) of one of the last eleven positions.
    #[cold]
    fn tail_key(&self, i: usize) -> u64 {
        let mut bytes = [SENTINEL_CLASS; KEY_SYMBOLS];
        bytes[..self.text.len() - i].copy_from_slice(&self.text[i..]);
        let head = u64::from_le_bytes(bytes[..8].try_into().expect("eight bytes"));
        let tail = u32::from_le_bytes(bytes[8..].try_into().expect("four bytes"));
        Self::pack_key(head, tail)
    }

    /// The key of twelve classes, the first eight in `head` and the last
    /// four in `tail`, first byte least significant.
    #[inline]
    fn pack_key(head: u64, tail: u32) -> u64 {
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

    /// Call `f(i, bucket, print)` for every `i` in `range`, high to low, in
    /// O(1) per position. `bucket` is `bucket_of(key_at(i))`: the class at
    /// `i` followed by the first two symbols of the bucket at `i + 1`, or
    /// that class alone when it is a terminator. `print` is the
    /// [`fingerprint`] of the first `depth` symbols of the suffix, rolled
    /// the same way from the twelve at `i + 1`, or 0 when `depth` is 0 or a
    /// terminator lies among them.
    fn scan_suffixes(
        &self,
        range: Range<usize>,
        depth: usize,
        mut f: impl FnMut(usize, usize, u16),
    ) {
        let key = if range.end < self.text.len() { self.key_at(range.end) } else { 0 };
        // The key's symbols, and the residues before its first terminator.
        let (mut bucket, mut prefix, mut run) = (bucket_of(key), key & !LEN_MASK, key_len(key));
        let start = range.start;
        for (offset, &class) in self.text[range].iter().enumerate().rev() {
            let top = (class as usize) << (BUCKET_BITS - CLASS_BITS);
            (bucket, run) = if is_terminator(class) {
                (top, 0)
            } else {
                (top | bucket >> CLASS_BITS, (run + 1).min(KEY_SYMBOLS))
            };
            prefix =
                (class as u64) << (u64::BITS - CLASS_BITS) | (prefix >> CLASS_BITS) & !LEN_MASK;
            let print = if depth > 0 && run >= depth { fingerprint(prefix, depth) } else { 0 };
            f(start + offset, bucket, print);
        }
    }
}

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
/// one SA-IS produces. This is the sort of one window ([`sort_window`])
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
    bucket_sort_index_staged(text, threads, 0).0
}

/// Wall-clock seconds of the passes of [`bucket_sort_index`], in order:
/// bucket counts, scatter, and per-bucket sort with LCP (`index_bench`
/// rows).
#[derive(Debug, Clone, Copy, Default)]
pub struct SortStages {
    /// Rolling bucket ids over text chunks into per-chunk histograms.
    pub count_s: f64,
    /// Rolling bucket ids — and, at a cut-off, prefix fingerprints — over
    /// the same chunks again, each placing its suffixes at the offsets its
    /// histogram gives it.
    pub scatter_s: f64,
    /// Grouping each bucket by fingerprint at a cut-off, keying what is
    /// sorted from the text, sorting it, tie resolution and LCP, bucket
    /// boundaries and compaction included.
    pub sort_lcp_s: f64,
}

/// [`bucket_sort_index`] at mining cut-off `psi`, plus how long each pass
/// took: the arrays hold only the suffixes that share their first
/// `min(psi, 12)` symbols with another suffix, and those of the leading
/// buckets (see the module docs); every suffix when `psi < 3`, or when the
/// text is handed back (`None`).
pub fn bucket_sort_index_staged(
    text: &[u8],
    threads: usize,
    psi: u32,
) -> (Option<SaLcp>, SortStages) {
    let threads = resolve_threads(threads);
    let clock = Instant::now();
    let table = BucketTable::count(text, threads);
    let count_s = clock.elapsed().as_secs_f64();
    let limit = whole_text_tie_limit(text.len());
    let (index, stages) = sort_window(text, &table, 0..N_BUCKETS, None, psi, limit, threads);
    (index, SortStages { count_s, ..stages })
}

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
        let n = text.len();
        assert_eq!(text.last(), Some(&SENTINEL_CLASS), "text must end with a sentinel");
        assert!(u32::try_from(n).is_ok(), "text positions must fit in u32");
        let keyed = KeyedText { text };
        let chunk = n.div_ceil(n_chunks(n, threads));
        let mut ends = parallel_jobs(n.div_ceil(chunk), threads, |c| {
            let mut counts = vec![0u32; N_BUCKETS];
            keyed.scan_suffixes(c * chunk..((c + 1) * chunk).min(n), 0, |_, b, _| counts[b] += 1);
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

/// The suffixes of the buckets `window` of `text`, sorted, with their LCP
/// array — the ranks `starts[window.start]..starts[window.end]` of the
/// whole text's arrays at `psi < 3` — on up to `threads` workers, or
/// `None` once resolving key ties has cost more than `tie_limit` re-keyed
/// symbols; and how long each pass took (`count_s` is the caller's).
/// `table` is the text's ([`BucketTable::count`]); `before` is the bucket
/// of the last suffix ranked before the window, whose LCP with the
/// window's first is the one at rank 0.
///
/// At `psi ≥ 3` a bucket past the table's leading ones keeps only the
/// suffixes that share their first [`kept_depth`] symbols with another
/// suffix: every suffix a node of depth ≥ `psi` holds. The scatter writes a
/// [`fingerprint`] of that prefix into each suffix's LCP slot; the bucket's
/// fingerprints are grouped in one pass, only repeats are keyed and sorted,
/// and a repeat is kept when a sorted neighbour shares the prefix. The
/// arrays are then compacted to the kept suffixes, in order, the LCP of
/// two neighbours their true LCP: windows concatenate to the whole text's
/// arrays at the same cut-off.
pub(crate) fn sort_window(
    text: &[u8],
    table: &BucketTable,
    window: Range<usize>,
    before: Option<usize>,
    psi: u32,
    tie_limit: usize,
    threads: usize,
) -> (Option<SaLcp>, SortStages) {
    let mut stages = SortStages::default();
    let mut clock = Instant::now();
    let mut lap = || std::mem::replace(&mut clock, Instant::now()).elapsed().as_secs_f64();
    let depth = kept_depth(psi);
    let sorter =
        BucketSorter { keyed: KeyedText { text }, spent: AtomicUsize::new(0), limit: tie_limit };
    let keyed = &sorter.keyed;
    let starts = &table.starts[..];
    let base = starts[window.start];
    let len = starts[window.end] - base;

    // Scatter: each text chunk rolls its buckets once and places every suffix
    // of the window's buckets just below the last of its own offsets
    // there, so no two chunks write the same slot and each bucket comes
    // out in text order; at a cut-off, the suffix's fingerprint goes to
    // the same slot of the LCP array. A slot is a relaxed atomic store — a
    // plain store on common hardware; the workers' join orders every
    // store before the slots are read — and the slots become the arrays
    // in place.
    let slots: Vec<AtomicU32> = (0..len).map(|_| AtomicU32::new(0)).collect();
    let prints: Vec<AtomicU16> = (0..len).map(|_| AtomicU16::new(0)).collect();
    run_jobs((0..table.n_chunks()).collect(), threads, |c| {
        let mut ends = table.chunk_ends(c, window.clone());
        keyed.scan_suffixes(table.chunk_range(c), depth, |i, b, print| {
            if let Some(end) = b.checked_sub(window.start).and_then(|b| ends.get_mut(b)) {
                *end -= 1;
                let slot = *end as usize - base;
                slots[slot].store(i as u32, AtomicOrdering::Relaxed);
                if depth > 0 {
                    prints[slot].store(print, AtomicOrdering::Relaxed);
                }
            }
        });
    });
    let mut sa: Vec<u32> = slots.into_iter().map(AtomicU32::into_inner).collect();
    let mut lcp: Vec<u16> = prints.into_iter().map(AtomicU16::into_inner).collect();
    stages.scatter_s += lap();

    // Sort each bucket on its own; LCP values inside a bucket fall out of
    // the sort. `kept[b]`: the suffixes bucket `b` keeps, sorted at the
    // front of its ranks.
    let mut kept = vec![0u32; window.len()];
    let groups = bucket_groups(starts, window.clone(), threads * 16);
    let mut overflows: Vec<Vec<(u32, u32)>> = vec![Vec::new(); groups.len()];
    let ranks_of = |g: &Range<usize>| starts[g.end] - starts[g.start];
    let jobs: Vec<_> = groups
        .iter()
        .zip(carve(&mut sa, groups.iter().map(ranks_of)))
        .zip(carve(&mut lcp, groups.iter().map(ranks_of)))
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
    if sorter.over_budget() {
        stages.sort_lcp_s += lap();
        return (None, stages);
    }

    // Each bucket's kept suffixes move down behind the previous bucket's.
    // The first one's LCP is against the last kept suffix before it, in
    // this window or before it: their leading three symbols differ, and
    // those are the bucket ids.
    let mut at = 0;
    let mut prev = before;
    for (b, &n) in window.zip(&kept) {
        let (from, n) = (starts[b] - base, n as usize);
        if n == 0 {
            continue;
        }
        if from != at {
            sa.copy_within(from..from + n, at);
            lcp.copy_within(from..from + n, at);
        }
        lcp[at] = prev.map_or(0, |prev| bucket_lcp(prev, b) as u16);
        prev = Some(b);
        at += n;
    }
    if at < len {
        sa.truncate(at);
        sa.shrink_to_fit();
        lcp.truncate(at);
        lcp.shrink_to_fit();
    }
    // Saturated LCPs were listed by position: list them by rank.
    let mut overflow = overflows.concat();
    if !overflow.is_empty() {
        overflow.sort_unstable();
        let value_of = |pos: &u32| {
            let i = overflow.binary_search_by_key(pos, |&(p, _)| p).ok()?;
            Some(overflow[i].1)
        };
        overflow = sa
            .iter()
            .enumerate()
            .filter_map(|(rank, pos)| Some((rank as u32, value_of(pos)?)))
            .collect();
    }
    let lcp = CompactLcp::from_parts(lcp, overflow);
    stages.sort_lcp_s += lap();
    (Some((sa, lcp)), stages)
}

/// The bucket of the suffix at `pos` of `text`.
pub(crate) fn bucket_at(text: &[u8], pos: usize) -> usize {
    bucket_of(KeyedText { text }.key_at(pos))
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
        keyed.scan_suffixes(read.clone(), 0, |_, b, _| counts[b] += 1);
    }
    let last = (0..N_BUCKETS).find(|&b| spells_residues(b) && counts[b] >= 2);
    let last = last.unwrap_or(N_BUCKETS - 1);
    let mut positions = Vec::new();
    for read in reads {
        keyed.scan_suffixes(read.clone(), 0, |i, b, _| {
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
/// of its buckets holding `largest_bucket`, sorted ([`sort_window`]) on
/// `threads` workers and mined: 14 bytes per suffix — 6 of sort arrays (4
/// of suffix array, 2 of LCP), and 8 for the window's tree pruned at ψ and
/// its mined stream, built beside the arrays once they are sorted — and
/// one bucket's 16-byte `(key, position)` records per worker. The bucket
/// tables, which do not grow with the text, are not in it. The sort of a
/// window cut at ψ holds this while it scatters and keeps fewer
/// suffixes, so the tree and stream parts are upper bounds.
pub(crate) fn estimated_window_bytes(
    suffixes: usize,
    largest_bucket: usize,
    threads: usize,
) -> u64 {
    14 * suffixes as u64 + 16 * (threads * largest_bucket) as u64
}

/// Cut the buckets of a text (`starts`, [`BucketTable`]) into windows
/// — contiguous bucket ranges, in order, covering all of them — whose
/// estimated sort peak ([`estimated_window_bytes`]) stays within `cap`,
/// each with that peak. A window is cut only where the leading
/// `min(psi, 3)` symbols of the bucket ids change, so no tree node of
/// depth ≥ `psi` straddles two windows; a run of buckets that cannot be
/// cut and alone exceeds `cap` is a window of its own, over it.
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
    use crate::sais;
    use pfam_seq::SequenceSetBuilder;
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
    fn rolling_keys_equal_direct_keys() {
        let set = set_of(&["MKVLWAAKNDCQEGHMKVLW", "A", "WXXWMKVXW", "MKVLWAAKNDCQEGHMKVLW"]);
        let gsa = GeneralizedSuffixArray::build(&set);
        let keyed = KeyedText { text: gsa.text() };
        for range in [0..gsa.text_len(), 3..17, 20..21, 22..22] {
            for depth in [0, 3, 5, 12] {
                let mut seen = Vec::new();
                keyed.scan_suffixes(range.clone(), depth, |i, bucket, print| {
                    seen.push((i, bucket, print))
                });
                let direct: Vec<_> = range
                    .clone()
                    .rev()
                    .map(|i| {
                        let key = keyed.key_at(i);
                        let print = match depth {
                            0 => 0,
                            _ if key_len(key) < depth => 0,
                            _ => fingerprint(key, depth),
                        };
                        (i, bucket_of(key), print)
                    })
                    .collect();
                assert_eq!(seen, direct, "depth {depth}");
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
