//! The LSH sketch plane: banded min-hash candidate generation behind the
//! [`PairSource`] seam.
//!
//! The exact front half mines *every* promising pair from a generalized
//! suffix index; at metagenomic scale that index is the memory- and
//! time-dominant structure even when PR 9's partitioned plane pays for it
//! chunk by chunk. [`SketchSource`] trades exactness for footprint
//! instead: each sequence's k-mer set is sketched with the vectorized
//! min-wise machinery ([`pfam_shingle::sketch`]), banded `b × r`, and
//! bucketed by band key; bucket collisions stream out as deduplicated
//! candidate pairs. Memory is O(n·b) band keys — no index over the text at
//! all — and the recall/cost point is the classic `1 − (1 − j^r)^b`
//! banding curve.
//!
//! The source drops into every `ClusterCore` driver and lease policy
//! unchanged: candidate generation is the pluggable axis, and verdicts
//! still come from the same alignment engine (a candidate is the two ids
//! alone, so a sketch pair's fabricated match positions can never change a
//! verdict). For a fixed [`SketchParams`] the candidate stream is a
//! deterministic function of the store — never of thread count, batch
//! size or driver.

use std::collections::{HashSet, VecDeque};
use std::hash::BuildHasherDefault;
use std::ops::Range;

use pfam_seq::complexity::{mask_low_complexity, MaskParams};
use pfam_seq::{Reservation, SeqId, SeqStore};
use pfam_shingle::sketch::{SketchScratch, Sketcher, MAX_SKETCH_K};
use pfam_suffix::maximal::PairKeyHasher;
use pfam_suffix::parallel::resolve_threads;
use pfam_suffix::MatchPair;

use crate::config::ClusterConfig;
use crate::source::PairSource;

/// Which candidate generator the front half runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SketchMode {
    /// The exact suffix-index miner (monolithic or partitioned) — the
    /// reference path; every sketch knob is inert.
    #[default]
    Exact,
    /// LSH candidates verified directly: approximate pair set, smallest
    /// footprint. Components may differ from exact mode (missed pairs
    /// can split a component) but are identical across drivers and
    /// thread counts for a fixed seed.
    Approx,
}

/// Knobs for the sketch plane, carried on
/// [`ClusterConfig::sketch`](crate::config::ClusterConfig).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SketchParams {
    /// Candidate-generation mode.
    pub mode: SketchMode,
    /// Sketch k-mer length (`1..=`[`MAX_SKETCH_K`]; the rank kernel
    /// hashes `u32` elements, so base-21 packing caps k at 7).
    pub k: usize,
    /// Bands `b`.
    pub bands: usize,
    /// Rows `r` per band.
    pub rows: usize,
    /// Signature width (permutation count). `0` = auto (`bands·rows`,
    /// exactly consumed by the banding); a positive value must admit
    /// `bands·rows` rows.
    pub width: usize,
    /// Permutation-family and band-hash seed.
    pub seed: u64,
    /// Candidate pairs emitted per bucket before the rest of the bucket
    /// is dropped (counted in [`SketchStats::capped`]) — the sketch-plane
    /// analogue of `max_pairs_per_node`, guarding low-complexity
    /// mega-buckets.
    pub max_bucket_pairs: usize,
}

impl Default for SketchParams {
    fn default() -> Self {
        SketchParams {
            mode: SketchMode::Exact,
            k: 5,
            bands: 16,
            rows: 2,
            width: 0,
            seed: 0x005E_7C11,
            max_bucket_pairs: 1 << 20,
        }
    }
}

/// A degenerate sketch configuration, rejected at config-validation time
/// (the drivers themselves never panic: mid-run they clamp to the nearest
/// well-defined limit instead — see [`SketchParams::validate`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SketchParamError {
    /// `bands · rows == 0`: a banding with no rows selects nothing.
    DegenerateBanding {
        /// Configured band count.
        bands: usize,
        /// Configured rows per band.
        rows: usize,
    },
    /// `bands · rows` exceeds the explicit signature width.
    BandsExceedWidth {
        /// Configured band count.
        bands: usize,
        /// Configured rows per band.
        rows: usize,
        /// Explicit signature width the banding must fit in.
        width: usize,
    },
    /// `k` outside `1..=`[`MAX_SKETCH_K`] (u32 packing limit).
    KmerOutOfRange {
        /// Configured k-mer length.
        k: usize,
    },
    /// `k` longer than the shortest sequence in the store: that sequence
    /// can never sketch, so no banding setting can reach it.
    KmerExceedsShortest {
        /// Configured k-mer length.
        k: usize,
        /// Shortest sequence length in the store.
        shortest: usize,
    },
}

impl std::fmt::Display for SketchParamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SketchParamError::DegenerateBanding { bands, rows } => {
                write!(f, "degenerate banding: bands ({bands}) x rows ({rows}) = 0")
            }
            SketchParamError::BandsExceedWidth { bands, rows, width } => write!(
                f,
                "bands ({bands}) x rows ({rows}) = {} exceeds sketch width {width}",
                bands * rows
            ),
            SketchParamError::KmerOutOfRange { k } => {
                write!(f, "sketch k {k} outside 1..={MAX_SKETCH_K} (u32 packing limit)")
            }
            SketchParamError::KmerExceedsShortest { k, shortest } => write!(
                f,
                "sketch k {k} exceeds the shortest sequence ({shortest} residues): \
                 that sequence can never be sketched"
            ),
        }
    }
}

impl std::error::Error for SketchParamError {}

impl SketchParams {
    /// Whether the sketch plane is engaged at all.
    pub fn enabled(&self) -> bool {
        self.mode != SketchMode::Exact
    }

    /// The signature width with `0` resolved to `bands·rows`.
    pub fn effective_width(&self) -> usize {
        if self.width > 0 {
            self.width
        } else {
            self.bands.saturating_mul(self.rows)
        }
    }

    /// Store-independent shape validation: every degenerate combination
    /// is a typed error here, at config time, never a mid-run panic.
    pub fn validate_shape(&self) -> Result<(), SketchParamError> {
        if !self.enabled() {
            return Ok(());
        }
        if self.k == 0 || self.k > MAX_SKETCH_K {
            return Err(SketchParamError::KmerOutOfRange { k: self.k });
        }
        let cells = self.bands.saturating_mul(self.rows);
        if cells == 0 {
            return Err(SketchParamError::DegenerateBanding { bands: self.bands, rows: self.rows });
        }
        if self.width > 0 && cells > self.width {
            return Err(SketchParamError::BandsExceedWidth {
                bands: self.bands,
                rows: self.rows,
                width: self.width,
            });
        }
        Ok(())
    }

    /// Full validation against a store: [`SketchParams::validate_shape`]
    /// plus the shortest-sequence check.
    pub fn validate(&self, store: &dyn SeqStore) -> Result<(), SketchParamError> {
        self.validate_shape()?;
        if !self.enabled() {
            return Ok(());
        }
        let shortest = (0..store.len()).map(|i| store.seq_len(SeqId(i as u32))).min();
        if let Some(shortest) = shortest {
            if self.k > shortest {
                return Err(SketchParamError::KmerExceedsShortest { k: self.k, shortest });
            }
        }
        Ok(())
    }
}

/// The fallible, store-dependent sketch check the pipeline entry makes
/// before phase 1: a no-op for exact mode.
pub fn check_sketch_params(
    store: &dyn SeqStore,
    config: &ClusterConfig,
) -> Result<(), SketchParamError> {
    config.sketch.validate(store)
}

/// Counters the bench and smoke tests read off a drained source.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SketchStats {
    /// Sequences in the store.
    pub sequences: usize,
    /// Sequences with at least one X-free k-window (sketchable).
    pub sketched: usize,
    /// Bands bucketed so far.
    pub bands_done: usize,
    /// Candidate pairs considered across all buckets (before dedup).
    pub candidates: u64,
    /// Candidates dropped as duplicates of an earlier band/bucket.
    pub deduped: u64,
    /// Candidates dropped by the per-bucket cap.
    pub capped: u64,
}

/// Mid-run parameter resolution: the never-panic clamps backing the
/// "surfaced at config time, no panic mid-run" contract. Degenerate
/// settings resolve to their nearest well-defined limit (0 usable bands
/// ⇒ an empty candidate stream), so a driver handed an unvalidated
/// config still terminates cleanly.
#[derive(Debug, Clone, Copy)]
struct Resolved {
    k: usize,
    bands: usize,
    rows: usize,
    width: usize,
    seed: u64,
    max_bucket_pairs: usize,
}

fn resolve(p: &SketchParams) -> Resolved {
    let k = p.k.clamp(1, MAX_SKETCH_K);
    let rows = p.rows.max(1);
    let width = p.effective_width();
    let bands = p.bands.min(width / rows);
    Resolved { k, bands, rows, width, seed: p.seed, max_bucket_pairs: p.max_bucket_pairs.max(1) }
}

type PairKeySet = HashSet<u64, BuildHasherDefault<PairKeyHasher>>;

/// LSH candidate pairs as a [`PairSource`] — see the module docs.
///
/// Construction computes band keys (one parallel pass over the store,
/// batched through the rank kernel); candidates then stream out band by
/// band. When the per-store key matrix (`n · b · 8` bytes) does not fit
/// the memory budget the source degrades to per-band recomputation —
/// `n · 8` resident bytes, the same kernel work, b k-mer passes instead
/// of one — rather than aborting; the budget is the same ledger the
/// index plane reserves against.
pub struct SketchSource<'a> {
    store: &'a dyn SeqStore,
    mask: Option<MaskParams>,
    psi: u32,
    threads: usize,
    r: Resolved,
    sketcher: Option<Sketcher>,
    /// Seq-major `n × bands` band-key matrix (None ⇒ per-band mode).
    keys_all: Option<Vec<u64>>,
    _keys_reservation: Option<Reservation>,
    /// `nonempty[i]` ⇔ sequence i produced a sketch.
    nonempty: Vec<bool>,
    /// Next band to bucket.
    band: usize,
    buf: VecDeque<MatchPair>,
    seen: PairKeySet,
    stats: SketchStats,
}

impl<'a> SketchSource<'a> {
    /// Build the sketch source for `store` under `config.sketch`,
    /// emitting pairs tagged with match cutoff `psi`. Infallible by
    /// contract: degenerate params were rejected at config time; here
    /// they clamp (see [`SketchParams::validate`]).
    pub fn new(
        store: &'a dyn SeqStore,
        config: &ClusterConfig,
        psi: u32,
        threads: usize,
    ) -> SketchSource<'a> {
        let r = resolve(&config.sketch);
        let n = store.len();
        let mut src = SketchSource {
            store,
            mask: config.mask,
            psi,
            threads,
            r,
            sketcher: None,
            keys_all: None,
            _keys_reservation: None,
            nonempty: vec![false; n],
            band: 0,
            buf: VecDeque::new(),
            seen: PairKeySet::default(),
            stats: SketchStats { sequences: n, ..SketchStats::default() },
        };
        if r.bands == 0 {
            return src; // zero usable bands ⇒ empty stream
        }
        let sketcher = Sketcher::new(r.k, r.width, r.rows, r.seed);
        let matrix_bytes = (n as u64) * (r.bands as u64) * 8;
        // When the budget refuses the full matrix, fall through to
        // per-band mode (recompute each band's keys on demand).
        if let Ok(held) = config.mem.budget.try_reserve("lsh-band-keys", matrix_bytes) {
            let keys = src.compute_band_keys(&sketcher, 0..r.bands);
            src.keys_all = Some(keys);
            src._keys_reservation = Some(held);
        }
        src.sketcher = Some(sketcher);
        src
    }

    /// Stats so far (fully populated once the stream is drained).
    pub fn stats(&self) -> SketchStats {
        self.stats
    }

    /// Compute band keys for `bands` across every sequence, seq-major
    /// (`out[seq · bands.len() + i]`), filling `self.nonempty` along the
    /// way. One scratch per worker; masking mirrors the exact miner's
    /// index view (masked residues are X, and X-windows never sketch).
    fn compute_band_keys(&mut self, sketcher: &Sketcher, bands: Range<usize>) -> Vec<u64> {
        let n = self.store.len();
        let w = bands.len();
        let mut keys = vec![0u64; n * w];
        let mut nonempty = std::mem::take(&mut self.nonempty);
        let workers = resolve_threads(self.threads).min(n.max(1));
        let chunk = n.div_ceil(workers.max(1)).max(1);
        let (store, mask) = (self.store, &self.mask);
        std::thread::scope(|scope| {
            for ((ci, kchunk), nchunk) in
                keys.chunks_mut(chunk * w).enumerate().zip(nonempty.chunks_mut(chunk))
            {
                let bands = bands.clone();
                scope.spawn(move || {
                    let mut scratch = SketchScratch::new();
                    for (j, (kslice, ne)) in kchunk.chunks_mut(w).zip(nchunk.iter_mut()).enumerate()
                    {
                        let id = SeqId((ci * chunk + j) as u32);
                        let codes = store.codes_cow(id);
                        let masked;
                        let view: &[u8] = match mask {
                            None => &codes,
                            Some(p) => {
                                masked = mask_low_complexity(&codes, p);
                                &masked
                            }
                        };
                        *ne = sketcher.band_keys(view, bands.clone(), &mut scratch, kslice);
                    }
                });
            }
        });
        self.nonempty = nonempty;
        self.stats.sketched = self.nonempty.iter().filter(|&&b| b).count();
        keys
    }

    /// Bucket the next band; `false` when the stream is complete.
    fn advance(&mut self) -> bool {
        if self.band >= self.r.bands {
            return false;
        }
        let band = self.band;
        self.band += 1;
        self.stats.bands_done += 1;
        let n = self.store.len();
        let keys: Vec<(u64, u32)> = match &self.keys_all {
            Some(all) => {
                let bands = self.r.bands;
                (0..n)
                    .filter(|&i| self.nonempty[i])
                    .map(|i| (all[i * bands + band], i as u32))
                    .collect()
            }
            None => {
                let sketcher = self.sketcher.clone().expect("a banded source has a sketcher");
                let keys = self.compute_band_keys(&sketcher, band..band + 1);
                (0..n).filter(|&i| self.nonempty[i]).map(|i| (keys[i], i as u32)).collect()
            }
        };
        self.bucket(keys);
        true
    }

    /// Bucket one band's worth of `(key, seq)` items into candidate
    /// pairs: equal keys collide; pairs stream in (key, a, b) order,
    /// globally deduplicated, capped per bucket.
    fn bucket(&mut self, mut items: Vec<(u64, u32)>) {
        items.sort_unstable();
        let mut i = 0;
        while i < items.len() {
            let key = items[i].0;
            let mut j = i + 1;
            while j < items.len() && items[j].0 == key {
                j += 1;
            }
            let run = &items[i..j];
            if run.len() > 1 {
                let total = (run.len() * (run.len() - 1) / 2) as u64;
                let mut considered = 0u64;
                let mut emitted = 0usize;
                'bucket: for (x, &(_, a)) in run.iter().enumerate() {
                    for &(_, b) in &run[x + 1..] {
                        if emitted >= self.r.max_bucket_pairs {
                            // The rest of the bucket is dropped wholesale;
                            // account it arithmetically rather than walking
                            // the O(m²) tail of a capped mega-bucket.
                            let rest = total - considered;
                            self.stats.candidates += rest;
                            self.stats.capped += rest;
                            break 'bucket;
                        }
                        considered += 1;
                        self.stats.candidates += 1;
                        let pair = MatchPair::new(SeqId(a), SeqId(b), self.psi);
                        if self.seen.insert(pair.key()) {
                            self.buf.push_back(pair);
                            emitted += 1;
                        } else {
                            self.stats.deduped += 1;
                        }
                    }
                }
            }
            i = j;
        }
    }
}

impl PairSource for SketchSource<'_> {
    fn next_batch(&mut self, max: usize) -> Vec<MatchPair> {
        // Fill the whole batch (bucketing further bands as needed): a
        // short batch tells pull/push protocols the stream is exhausted.
        while self.buf.len() < max && self.advance() {}
        let take = self.buf.len().min(max);
        self.buf.drain(..take).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfam_seq::{SequenceSet, SequenceSetBuilder};

    fn set_of(seqs: &[&str]) -> SequenceSet {
        let mut b = SequenceSetBuilder::new();
        for (i, s) in seqs.iter().enumerate() {
            b.push_letters(format!("s{i}"), s.as_bytes()).unwrap();
        }
        b.finish()
    }

    fn approx_config(k: usize, bands: usize, rows: usize) -> ClusterConfig {
        let mut c = ClusterConfig::for_short_sequences();
        c.sketch =
            SketchParams { mode: SketchMode::Approx, k, bands, rows, ..SketchParams::default() };
        c
    }

    fn drain(source: &mut dyn PairSource) -> Vec<MatchPair> {
        let mut out = Vec::new();
        loop {
            let batch = source.next_batch(64);
            if batch.is_empty() {
                return out;
            }
            out.extend(batch);
        }
    }

    // ---- SketchParamError: one typed error per degenerate case. ----

    #[test]
    fn zero_band_row_product_is_degenerate() {
        let mut p = SketchParams { mode: SketchMode::Approx, bands: 0, ..Default::default() };
        assert_eq!(
            p.validate_shape(),
            Err(SketchParamError::DegenerateBanding { bands: 0, rows: p.rows })
        );
        p.bands = 4;
        p.rows = 0;
        assert_eq!(
            p.validate_shape(),
            Err(SketchParamError::DegenerateBanding { bands: 4, rows: 0 })
        );
    }

    #[test]
    fn banding_wider_than_signature_is_rejected() {
        let p = SketchParams {
            mode: SketchMode::Approx,
            bands: 8,
            rows: 4,
            width: 16,
            ..Default::default()
        };
        assert_eq!(
            p.validate_shape(),
            Err(SketchParamError::BandsExceedWidth { bands: 8, rows: 4, width: 16 })
        );
        // Auto width (0) always fits the banding exactly.
        let auto = SketchParams { width: 0, ..p };
        assert_eq!(auto.validate_shape(), Ok(()));
    }

    #[test]
    fn k_out_of_packing_range_is_rejected() {
        for k in [0usize, MAX_SKETCH_K + 1, 14] {
            let p = SketchParams { mode: SketchMode::Approx, k, ..Default::default() };
            assert_eq!(p.validate_shape(), Err(SketchParamError::KmerOutOfRange { k }));
        }
    }

    #[test]
    fn k_longer_than_shortest_sequence_is_rejected() {
        let set = set_of(&["MKVLWAARND", "MKV"]);
        let p = SketchParams { mode: SketchMode::Approx, k: 5, ..Default::default() };
        assert_eq!(
            p.validate(&set),
            Err(SketchParamError::KmerExceedsShortest { k: 5, shortest: 3 })
        );
        let ok = SketchParams { k: 3, ..p };
        assert_eq!(ok.validate(&set), Ok(()));
    }

    #[test]
    fn exact_mode_ignores_degenerate_knobs() {
        let p = SketchParams { mode: SketchMode::Exact, k: 0, bands: 0, ..Default::default() };
        assert_eq!(p.validate_shape(), Ok(()));
        let set = set_of(&["MK"]);
        assert_eq!(p.validate(&set), Ok(()));
    }

    // ---- Degenerate params mid-run: clamp, never panic. ----

    #[test]
    fn degenerate_params_mid_run_yield_empty_stream() {
        let set = set_of(&["MKVLWAARNDCQEGH", "MKVLWAARNDCQEGH"]);
        let mut config = approx_config(5, 0, 0); // would be rejected at config time
        config.sketch.width = 0;
        let mut s = SketchSource::new(&set, &config, 5, 1);
        assert!(drain(&mut s).is_empty(), "0 usable bands = empty stream, no panic");
        let mut config2 = approx_config(0, 4, 2); // k clamps to 1
        config2.sketch.mode = SketchMode::Approx;
        let mut s2 = SketchSource::new(&set, &config2, 5, 1);
        let _ = drain(&mut s2); // must not panic
    }

    // ---- Candidate semantics. ----

    #[test]
    fn identical_sequences_always_collide() {
        let set = set_of(&["MKVLWAARNDCQEGHILKMF", "MKVLWAARNDCQEGHILKMF", "GGGGGGGGGGGGGGGGGGGG"]);
        let config = approx_config(4, 8, 2);
        let mut s = SketchSource::new(&set, &config, 5, 1);
        let pairs = drain(&mut s);
        assert!(
            pairs.iter().any(|p| p.a == SeqId(0) && p.b == SeqId(1)),
            "identical k-mer sets share every band key"
        );
        assert!(
            !pairs.iter().any(|p| (p.a, p.b) == (SeqId(0), SeqId(2))),
            "k-mer-disjoint sequences never collide"
        );
    }

    #[test]
    fn stream_is_deduplicated_and_deterministic() {
        let seqs: Vec<String> = (0..12)
            .map(|i| {
                if i % 3 == 0 {
                    "MKVLWAARNDCQEGHILKMF".to_owned()
                } else {
                    format!("PSTWYVMKVLWAARND{}", ["CQ", "EG", "HI"][i % 3 - 1].repeat(2))
                }
            })
            .collect();
        let refs: Vec<&str> = seqs.iter().map(String::as_str).collect();
        let set = set_of(&refs);
        let config = approx_config(4, 8, 2);
        let a = drain(&mut SketchSource::new(&set, &config, 5, 1));
        let b = drain(&mut SketchSource::new(&set, &config, 5, 4));
        assert_eq!(a, b, "stream is thread-count invariant");
        let mut keys: Vec<u64> = a.iter().map(MatchPair::key).collect();
        keys.sort_unstable();
        let before = keys.len();
        keys.dedup();
        assert_eq!(before, keys.len(), "no duplicate (a, b) in the stream");
    }

    #[test]
    fn batch_contract_holds() {
        let set = set_of(&["MKVLWAARNDCQEGHILKMF", "MKVLWAARNDCQEGHILKMF", "MKVLWAARNDCQEGHILKMF"]);
        let config = approx_config(4, 4, 1);
        let mut s = SketchSource::new(&set, &config, 5, 1);
        let mut total = 0;
        loop {
            let batch = s.next_batch(1);
            if batch.is_empty() {
                break;
            }
            assert_eq!(batch.len(), 1);
            total += 1;
        }
        assert_eq!(total, 3, "3 identical sequences = 3 pairs");
        assert!(s.next_batch(8).is_empty(), "exhausted stays exhausted");
        assert_eq!(s.stats().sketched, 3);
    }

    #[test]
    fn bucket_cap_counts_dropped_pairs() {
        let seqs: Vec<&str> = vec!["MKVLWAARNDCQEGHILKMF"; 6];
        let set = set_of(&seqs);
        let mut config = approx_config(4, 1, 1);
        config.sketch.max_bucket_pairs = 3; // 6 identical seqs ⇒ 15 pairs in one bucket
        let mut s = SketchSource::new(&set, &config, 5, 1);
        let pairs = drain(&mut s);
        assert_eq!(pairs.len(), 3);
        let stats = s.stats();
        assert_eq!(stats.capped, 12);
        assert_eq!(stats.candidates, 15);
    }

    #[test]
    fn budget_refusal_degrades_to_per_band_mode() {
        let set = set_of(&["MKVLWAARNDCQEGHILKMF", "MKVLWAARNDCQEGHILKMF", "PSTWYVPSTWYVPSTWYV"]);
        let mut config = approx_config(4, 8, 2);
        let roomy = drain(&mut SketchSource::new(&set, &config, 5, 1));
        // A 1-byte budget refuses the key matrix; the stream must be
        // identical (same keys, recomputed band by band).
        config.mem = crate::config::MemParams::limited(1);
        let mut tight_src = SketchSource::new(&set, &config, 5, 1);
        assert!(tight_src.keys_all.is_none(), "matrix reservation must be refused");
        let tight = drain(&mut tight_src);
        assert_eq!(roomy, tight, "per-band degradation is output-identical");
    }

    #[test]
    fn sketch_pairs_carry_psi_len_and_zero_anchor() {
        let set = set_of(&["MKVLWAARNDCQEGHILKMF", "MKVLWAARNDCQEGHILKMF"]);
        let config = approx_config(4, 4, 2);
        let pairs = drain(&mut SketchSource::new(&set, &config, 7, 1));
        assert!(pairs.iter().all(|p| p.len == 7 && p.a_pos == 0 && p.b_pos == 0));
    }
}
