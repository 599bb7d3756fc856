//! Multithreaded construction of the suffix-index hot path: suffix array,
//! LCP array, and maximal-match pair generation.
//!
//! Every routine here gives the same output at every thread count —
//! parallelism changes wall-clock time, never output:
//!
//! * [`bucket_sort_index`] packs the leading twelve residues of every
//!   suffix into one integer key, scatters the suffixes — positions
//!   straight into the suffix array, keys beside them — into 2¹⁵ buckets
//!   by their leading three, and sorts each bucket independently; the LCP
//!   array falls out of adjacent keys. All suffixes of the indexed text
//!   are distinct (each sequence carries a unique sentinel), so the sorted
//!   order is *unique* and must equal what SA-IS produces. Texts whose
//!   key ties run too deep (long exact repeats) are handed back to SA-IS
//!   and Kasai's serial LCP pass — a parallel Φ/PLCP pass lost to it in
//!   every timed run at 2 threads (EXPERIMENTS.md, "SA-IS fallback LCP —
//!   verdict (PR 25)"). It is the one-window case of the sort the
//!   budgeted miner runs a contiguous range of buckets at a time
//!   ([`crate::partitioned`]).
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
//!   GSA, then the interval tree pruned at ψ, lent to the caller.
//!
//! Threading is explicit (scoped OS threads with an atomic work cursor)
//! rather than delegated to a global pool, so the `threads` knob in
//! `ClusterConfig` bounds worker count deterministically; `threads == 0`
//! means "all available cores" and `threads == 1` runs the same code on
//! the calling thread.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
use std::sync::Mutex;
use std::time::Instant;

use pfam_seq::SequenceSet;

use crate::gsa::{
    is_terminator, terminator_rank, CompactLcp, GeneralizedSuffixArray, SENTINEL_CLASS,
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
    (key & ((1 << LEN_BITS) - 1)) as usize
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

impl KeyedText<'_> {
    /// Key of the suffix at `i`: up to [`KEY_SYMBOLS`] classes from the
    /// top bit down, zero-padded after a terminator, then the residue
    /// count in the low [`LEN_BITS`]. Never reads past the text: its last
    /// character is a sentinel.
    fn key_at(&self, i: usize) -> u64 {
        let mut key = 0u64;
        for j in 0..KEY_SYMBOLS {
            let class = self.text[i + j];
            key |= (class as u64) << (u64::BITS - CLASS_BITS * (j as u32 + 1));
            if is_terminator(class) {
                return key | j as u64;
            }
        }
        key | KEY_SYMBOLS as u64
    }

    /// Call `f(i, key_at(i))` for every `i` in `range`, high to low, in
    /// O(1) per position: the key at `i` is its own class followed by the
    /// first eleven symbols of the key at `i + 1`.
    fn scan_keys(&self, range: Range<usize>, mut f: impl FnMut(usize, u64)) {
        let mut key = if range.end < self.text.len() { self.key_at(range.end) } else { 0 };
        for i in range.rev() {
            let class = self.text[i];
            let top = (class as u64) << (u64::BITS - CLASS_BITS);
            key = if is_terminator(class) {
                top
            } else {
                let symbols = (key >> (LEN_BITS + CLASS_BITS)) << LEN_BITS;
                top | symbols | (key_len(key) + 1).min(KEY_SYMBOLS) as u64
            };
            f(i, key);
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

/// Cut `data` (one element per rank) into the rank ranges of `groups`.
fn carve<'a, T>(
    mut data: &'a mut [T],
    starts: &[usize],
    groups: &[Range<usize>],
) -> Vec<&'a mut [T]> {
    groups
        .iter()
        .map(|g| {
            let (head, tail) =
                std::mem::take(&mut data).split_at_mut(starts[g.end] - starts[g.start]);
            data = tail;
            head
        })
        .collect()
}

/// The ranks of one sort job: their slices of the suffix array (positions
/// in, sorted positions out), of the keys and of the LCP array, and where
/// the LCP values too wide for the array go.
struct RankSlices<'a> {
    /// Rank of the first element of each slice.
    first_rank: usize,
    sa: &'a mut [u32],
    keys: &'a [u64],
    lcp: &'a mut [u16],
    /// `(rank, value)` of every entry of `lcp` left at `u16::MAX`.
    overflow: &'a mut Vec<(u32, u32)>,
}

impl RankSlices<'_> {
    /// The sub-range `ranks` (relative to this one) of every slice.
    fn narrow(&mut self, ranks: Range<usize>) -> RankSlices<'_> {
        RankSlices {
            first_rank: self.first_rank + ranks.start,
            sa: &mut self.sa[ranks.clone()],
            keys: &self.keys[ranks.clone()],
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
                let first = self.first_rank;
                self.overflow.extend(ranks.map(|r| ((first + r) as u32, value)));
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
        let TieWork { entries, pending, uncharged } = work;
        entries.clear();
        // Exactly the largest bucket so far: the records are part of a
        // window's estimated peak.
        entries.reserve_exact(bucket.sa.len());
        entries.extend(bucket.keys.iter().zip(&*bucket.sa).map(|(&key, &pos)| Entry { key, pos }));
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
        true
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
/// Every suffix gets a 12-symbol key ([`KeyedText`]); a counting scatter
/// on the leading three symbols places its position in the suffix array,
/// in one of 2¹⁵ buckets, and its key beside it; each bucket is sorted on
/// its own, handed out through the work cursor. Keys order suffixes
/// exactly up to their first difference, so the LCP of two neighbours
/// with different keys is read off the keys; only neighbours tied on all
/// twelve symbols are re-keyed deeper. The suffixes of the text are all
/// distinct, so the result is the one SA-IS produces. This is the sort of
/// one window ([`sort_window`]) that holds every bucket.
///
/// Besides the two arrays it returns, the sort holds eight bytes of key
/// per position until the buckets are sorted, one bucket's `(key,
/// position)` records per worker, and the bucket tables.
///
/// `text` must be what [`crate::gsa`] holds: classes `0..=22`, the last
/// one a sentinel.
pub fn bucket_sort_index(text: &[u8], threads: usize) -> Option<SaLcp> {
    bucket_sort_index_staged(text, threads).0
}

/// Wall-clock seconds of the passes of [`bucket_sort_index`], in order:
/// keys + bucket counts, keys + scatter, and per-bucket sort with LCP
/// (`index_bench` rows).
#[derive(Debug, Clone, Copy, Default)]
pub struct SortStages {
    /// Rolling keys over text chunks into per-chunk bucket histograms.
    pub count_s: f64,
    /// Rolling keys again, each worker placing its own buckets' suffixes.
    pub scatter_s: f64,
    /// Independent bucket sorts, tie resolution and LCP, bucket
    /// boundaries included.
    pub sort_lcp_s: f64,
}

/// [`bucket_sort_index`] plus how long each pass took.
pub fn bucket_sort_index_staged(text: &[u8], threads: usize) -> (Option<SaLcp>, SortStages) {
    let threads = resolve_threads(threads);
    let mut stages = SortStages::default();
    let clock = Instant::now();
    let starts = bucket_starts(text, threads);
    stages.count_s = clock.elapsed().as_secs_f64();
    let limit = whole_text_tie_limit(text.len());
    let index = sort_window(text, &starts, 0..N_BUCKETS, limit, threads, &mut stages);
    (index, stages)
}

/// How many re-keyed symbols the sort of a whole text of `n` positions
/// may spend on ties before it hands the text back to SA-IS.
pub(crate) fn whole_text_tie_limit(n: usize) -> usize {
    n.saturating_mul(TIE_BUDGET_PER_POSITION)
}

/// The bucket table of `text`: `starts[b]` is the first rank of bucket
/// `b`, `starts[N_BUCKETS]` the text length. Counted on up to `threads`
/// workers, one histogram per text chunk.
pub(crate) fn bucket_starts(text: &[u8], threads: usize) -> Vec<usize> {
    let n = text.len();
    assert_eq!(text.last(), Some(&SENTINEL_CLASS), "text must end with a sentinel");
    assert!(u32::try_from(n).is_ok(), "text positions must fit in u32");
    let keyed = KeyedText { text };
    let chunk = n.div_ceil(threads * 4);
    let counts = parallel_jobs(n.div_ceil(chunk), threads, |c| {
        let mut counts = vec![0u32; N_BUCKETS];
        keyed.scan_keys(c * chunk..((c + 1) * chunk).min(n), |_, key| counts[bucket_of(key)] += 1);
        counts
    });
    let mut starts = vec![0usize; N_BUCKETS + 1];
    for b in 0..N_BUCKETS {
        starts[b + 1] = starts[b] + counts.iter().map(|c| c[b] as usize).sum::<usize>();
    }
    starts
}

/// The ranks `starts[window.start]..starts[window.end]` of the suffix
/// array of `text` and of its LCP array — the suffixes of the buckets
/// `window`, sorted — on up to `threads` workers, or `None` once
/// resolving key ties has cost more than `tie_limit` re-keyed symbols.
/// The LCP at the window's first rank is the one against the last suffix
/// of the buckets before it: the arrays are exactly the whole text's,
/// sliced. Adds its passes' seconds to `stages`.
pub(crate) fn sort_window(
    text: &[u8],
    starts: &[usize],
    window: Range<usize>,
    tie_limit: usize,
    threads: usize,
    stages: &mut SortStages,
) -> Option<SaLcp> {
    let mut clock = Instant::now();
    let mut lap = || std::mem::replace(&mut clock, Instant::now()).elapsed().as_secs_f64();
    let sorter =
        BucketSorter { keyed: KeyedText { text }, spent: AtomicUsize::new(0), limit: tie_limit };
    let keyed = &sorter.keyed;
    let base = starts[window.start];
    let len = starts[window.end] - base;

    // Scatter: every worker owns a contiguous run of buckets — a disjoint
    // slice of the suffix array and of the keys — and picks its suffixes
    // out of one pass over the text, so no two workers ever write the
    // same slot. Each worker rolls the keys of the whole text, so a window
    // gets one worker per text's worth of suffixes it places, and at
    // least one: splitting a small window's writes saves less than the
    // extra passes cost (EXPERIMENTS.md, "Prefix windows").
    let mut sa = vec![0u32; len];
    let mut keys = vec![0u64; len];
    let scatter_workers = (threads * len).div_ceil(text.len()).clamp(1, threads);
    let groups = bucket_groups(starts, window.clone(), scatter_workers);
    let jobs: Vec<_> = groups
        .iter()
        .cloned()
        .zip(carve(&mut sa, starts, &groups).into_iter().zip(carve(&mut keys, starts, &groups)))
        .collect();
    run_jobs(jobs, threads, |(group, (sa, keys))| {
        let first = starts[group.start];
        let mut next: Vec<usize> = starts[group.clone()].iter().map(|&s| s - first).collect();
        keyed.scan_keys(0..text.len(), |i, key| {
            if let Some(slot) =
                bucket_of(key).checked_sub(group.start).and_then(|b| next.get_mut(b))
            {
                sa[*slot] = i as u32;
                keys[*slot] = key;
                *slot += 1;
            }
        });
    });
    stages.scatter_s += lap();

    // Sort each bucket on its own; LCP values inside a bucket fall out of
    // the sort.
    let mut lcp = vec![0u16; len];
    let groups = bucket_groups(starts, window.clone(), threads * 16);
    let mut overflows: Vec<Vec<(u32, u32)>> = vec![Vec::new(); groups.len()];
    let jobs: Vec<_> = groups
        .iter()
        .zip(carve(&mut sa, starts, &groups))
        .zip(carve(&mut lcp, starts, &groups))
        .zip(&mut overflows)
        .map(|(((group, sa), lcp), overflow)| {
            let first_rank = starts[group.start] - base;
            let keys = &keys[first_rank..starts[group.end] - base];
            (group.clone(), RankSlices { first_rank, sa, keys, lcp, overflow })
        })
        .collect();
    run_jobs(jobs, threads, |(group, mut ranks)| {
        let first = starts[group.start];
        let mut work = TieWork::default();
        for b in group {
            let bucket = ranks.narrow(starts[b] - first..starts[b + 1] - first);
            if sorter.over_budget() || !sorter.sort_bucket(bucket, &mut work) {
                break;
            }
        }
        sorter.charge(&mut work.uncharged);
    });
    drop(keys);
    if sorter.over_budget() {
        stages.sort_lcp_s += lap();
        return None;
    }

    // The first rank of a bucket against the last of the previous one —
    // in this window or before it: their leading three symbols differ, and
    // those are the bucket ids.
    let occupied = |b: &usize| starts[b + 1] > starts[*b];
    let mut prev = (0..window.start).rev().find(occupied);
    for b in window.filter(occupied) {
        if let Some(prev) = prev {
            lcp[starts[b] - base] = bucket_lcp(prev, b) as u16;
        }
        prev = Some(b);
    }
    let lcp = CompactLcp::from_parts(lcp, overflows.concat());
    stages.sort_lcp_s += lap();
    Some((sa, lcp))
}

/// The leading symbols the suffixes of two different buckets share.
fn bucket_lcp(a: usize, b: usize) -> u32 {
    let shift = u64::BITS - BUCKET_BITS;
    common_symbols((a as u64) << shift, (b as u64) << shift)
}

/// The LCP at the first rank of the buckets from `b` on, against the
/// suffix before it: `0` when no bucket on either side holds one.
pub(crate) fn first_rank_lcp(starts: &[usize], b: usize) -> u32 {
    let occupied = |b: &usize| starts[b + 1] > starts[*b];
    match ((0..b).rev().find(occupied), (b..N_BUCKETS).find(occupied)) {
        (Some(prev), Some(next)) => bucket_lcp(prev, next),
        _ => 0,
    }
}

/// Estimated peak bytes of sorting one window ([`sort_window`]) of
/// `suffixes` suffixes, the largest of its buckets holding
/// `largest_bucket`, on `threads` workers: 4 bytes of suffix array, 8 of
/// key and 2 of LCP per suffix, and one bucket's 16-byte `(key, position)`
/// records per worker. The bucket tables, which do not grow with the
/// text, are not in it.
pub(crate) fn estimated_window_bytes(
    suffixes: usize,
    largest_bucket: usize,
    threads: usize,
) -> u64 {
    14 * suffixes as u64 + 16 * (threads * largest_bucket) as u64
}

/// Cut the buckets of a text (`starts`, [`bucket_starts`]) into windows
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
/// the generalized suffix array on up to `threads` workers, the interval
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
    let gsa = GeneralizedSuffixArray::build_parallel(set, threads);
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

    fn random_text(rng: &mut StdRng, n: usize, sigma: u32) -> Vec<u32> {
        (0..n).map(|_| rng.gen_range(0..sigma) + 1).chain(std::iter::once(0)).collect()
    }

    /// A one-sequence integer text (residues `1..`, sentinel 0) as symbol
    /// classes: the same numbers.
    fn classes(text: &[u32]) -> Vec<u8> {
        text.iter().map(|&c| c as u8).collect()
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
        // One sequence, residues 1..=sigma, sentinel 0.
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..25 {
            let n = rng.gen_range(1..400);
            let sigma = rng.gen_range(2..8u32);
            let text = random_text(&mut rng, n, sigma);
            let expect = reference_index(&text);
            for threads in [1, 2, 3, 8] {
                assert_eq!(bucket_sort_index(&classes(&text), threads), Some(expect.clone()));
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
        let keys = [sorter.keyed.key_at(0), sorter.keyed.key_at(70_001)];
        assert_eq!(keys[0], keys[1]);
        let mut lcp = [0u16; 2];
        let mut overflow = Vec::new();
        let bucket = RankSlices {
            first_rank: 40,
            sa: &mut sa,
            keys: &keys,
            lcp: &mut lcp,
            overflow: &mut overflow,
        };
        assert!(sorter.sort_bucket(bucket, &mut TieWork::default()));
        assert_eq!(sa, [70_001, 0]);
        assert_eq!(lcp, [0, u16::MAX]);
        assert_eq!(overflow, vec![(41, 70_000)]);
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
        for range in [0..gsa.text_len(), 3..17, 20..21] {
            let mut seen = Vec::new();
            keyed.scan_keys(range.clone(), |i, key| seen.push((i, key)));
            let direct: Vec<_> = range.rev().map(|i| (i, keyed.key_at(i))).collect();
            assert_eq!(seen, direct);
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
