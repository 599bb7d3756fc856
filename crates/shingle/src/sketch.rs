//! Per-sequence banded min-hash sketches over k-mer sets — the hashing
//! half of the LSH candidate generator (`pfam_cluster::lsh`).
//!
//! A sequence is viewed as its set of base-21-packed k-mers (X-free
//! windows only, so index-side masking transparently removes masked
//! regions from the sketch). Each of the `width` min-wise permutations —
//! the same [`HashFamily`] machinery the Shingle passes use — maps the set to its minimum rank; `rows` consecutive minima fold
//! into one SplitMix64 band key. Two sequences collide in a band exactly
//! when all `rows` minima agree, which happens with probability `j^rows`
//! for Jaccard similarity `j` — the classic `1 − (1 − j^r)^b` banding
//! curve.
//!
//! All hashing runs through [`crate::kernel::fill_ranks`], so the sketch
//! is a deterministic function of `(k, width, rows, seed)` alone — never
//! of thread count or batch size.

use pfam_seq::kmer::KmerIter;

use crate::kernel::fill_ranks;
use crate::minwise::HashFamily;

/// Largest sketch k-mer length: the rank loop hashes `u32` elements,
/// and base-21 packing stays below 2³² only through 21⁷.
pub const MAX_SKETCH_K: usize = 7;

/// SplitMix64 finalizer — the band-key mixer (and the same generator the
/// [`HashFamily`] seeds its permutations from).
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Reusable per-worker buffers: the packed k-mer block and the rank block
/// (the `ShingleScratch` pattern). Grow to the high-water mark and stay.
#[derive(Debug, Default)]
pub struct SketchScratch {
    kmers: Vec<u32>,
    ranks: Vec<u64>,
}

impl SketchScratch {
    /// Fresh, empty scratch.
    pub fn new() -> SketchScratch {
        SketchScratch::default()
    }
}

/// A configured sketcher: `width` permutations over the k-mer universe,
/// grouped `rows` at a time into bands.
#[derive(Debug, Clone)]
pub struct Sketcher {
    family: HashFamily,
    k: usize,
    rows: usize,
}

impl Sketcher {
    /// Build a sketcher.
    ///
    /// Panics if `k` is outside `1..=`[`MAX_SKETCH_K`] or `rows == 0`;
    /// callers validate/clamp upstream (`pfam_cluster::lsh` surfaces the
    /// typed `SketchParamError` at config time).
    pub fn new(k: usize, width: usize, rows: usize, seed: u64) -> Sketcher {
        assert!(
            (1..=MAX_SKETCH_K).contains(&k),
            "sketch k {k} outside 1..={MAX_SKETCH_K} (u32 packing limit)"
        );
        assert!(rows >= 1, "rows per band must be positive");
        Sketcher { family: HashFamily::new(width, seed), k, rows }
    }

    /// Rows (permutations) per band.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// How many full bands the permutation family supports.
    pub fn bands(&self) -> usize {
        self.family.len() / self.rows
    }

    /// Collect the packed k-mers of `codes` into `scratch.kmers`; returns
    /// `false` when the sequence has no X-free k-window (too short or
    /// fully masked) — such a sequence sketches to nothing and can never
    /// collide.
    fn collect_kmers(&self, codes: &[u8], scratch: &mut SketchScratch) -> bool {
        scratch.kmers.clear();
        // Minima are multiset-invariant, so duplicates need no dedup here.
        scratch.kmers.extend(KmerIter::new(codes, self.k).map(|(_, w)| w as u32));
        !scratch.kmers.is_empty()
    }

    /// Fill `out[i]` with the band key of band `bands.start + i` for
    /// `codes`, one key per band in `bands`. Returns `false` (leaving
    /// `out` untouched) when the sequence has no k-mers.
    ///
    /// The key of band `t` mixes the band index and the `rows` minima of
    /// permutations `t·rows ..< (t+1)·rows` through [`splitmix64`]; it
    /// depends only on the sketch parameters and the k-mer *set*.
    pub fn band_keys(
        &self,
        codes: &[u8],
        bands: std::ops::Range<usize>,
        scratch: &mut SketchScratch,
        out: &mut [u64],
    ) -> bool {
        debug_assert_eq!(out.len(), bands.len());
        debug_assert!(bands.end <= self.bands());
        if !self.collect_kmers(codes, scratch) {
            return false;
        }
        let kmers = std::mem::take(&mut scratch.kmers);
        for (slot, band) in out.iter_mut().zip(bands) {
            let mut h = splitmix64(band as u64);
            for row in 0..self.rows {
                fill_ranks(&self.family, band * self.rows + row, &kmers, &mut scratch.ranks);
                let min = scratch.ranks.iter().copied().min().expect("kmers is non-empty");
                h = splitmix64(h ^ min);
            }
            *slot = h;
        }
        scratch.kmers = kmers;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfam_seq::alphabet::encode;

    fn codes(s: &str) -> Vec<u8> {
        encode(s.as_bytes()).unwrap()
    }

    #[test]
    fn band_keys_deterministic() {
        let c = codes("MKVLWAARNDCQEGHILKMFPSTWYVMKVLW");
        let sk = Sketcher::new(4, 16, 2, 0xFEED);
        assert_eq!(sk.bands(), 8);
        let mut scratch = SketchScratch::new();
        let mut out = vec![0u64; 8];
        assert!(sk.band_keys(&c, 0..8, &mut scratch, &mut out));
        // A second call over the same scratch is identical.
        let mut again = vec![0u64; 8];
        assert!(sk.band_keys(&c, 0..8, &mut scratch, &mut again));
        assert_eq!(again, out);
    }

    #[test]
    fn band_subrange_matches_full_computation() {
        let c = codes("ACDEFGHIKLMNPQRSTVWYACDEFG");
        let sk = Sketcher::new(3, 12, 3, 7);
        let mut scratch = SketchScratch::new();
        let mut full = vec![0u64; sk.bands()];
        assert!(sk.band_keys(&c, 0..sk.bands(), &mut scratch, &mut full));
        for (t, &expected) in full.iter().enumerate() {
            let mut one = [0u64];
            assert!(sk.band_keys(&c, t..t + 1, &mut scratch, &mut one));
            assert_eq!(one[0], expected, "band {t} recomputed differently");
        }
    }

    #[test]
    fn identical_kmer_sets_identical_keys() {
        // Same k-mer multiset in different arrangements still sketches
        // identically when the windows coincide; duplicated content is a
        // no-op for minima.
        let a = codes("MKVLWMKVLW");
        let b = codes("MKVLWMKVLWMKVLW");
        let sk = Sketcher::new(5, 8, 2, 1);
        let mut scratch = SketchScratch::new();
        let (mut ka, mut kb) = (vec![0u64; 4], vec![0u64; 4]);
        assert!(sk.band_keys(&a, 0..4, &mut scratch, &mut ka));
        assert!(sk.band_keys(&b, 0..4, &mut scratch, &mut kb));
        assert_eq!(ka, kb, "equal k-mer sets must share every band key");
    }

    #[test]
    fn disjoint_sequences_do_not_collide() {
        let a = codes("MKVLWAARND");
        let b = codes("GHIPSTFQEC");
        let sk = Sketcher::new(4, 32, 1, 3);
        let mut scratch = SketchScratch::new();
        let (mut ka, mut kb) = (vec![0u64; 32], vec![0u64; 32]);
        assert!(sk.band_keys(&a, 0..32, &mut scratch, &mut ka));
        assert!(sk.band_keys(&b, 0..32, &mut scratch, &mut kb));
        assert!(
            ka.iter().zip(&kb).all(|(x, y)| x != y),
            "k-mer-disjoint sequences should share no band key"
        );
    }

    #[test]
    fn short_or_masked_sequences_sketch_to_nothing() {
        let sk = Sketcher::new(5, 8, 2, 0);
        let mut scratch = SketchScratch::new();
        let mut out = vec![0u64; 4];
        assert!(!sk.band_keys(&codes("MKV"), 0..4, &mut scratch, &mut out), "shorter than k");
        assert!(!sk.band_keys(&codes("XXXXXXXX"), 0..4, &mut scratch, &mut out), "all masked");
    }

    #[test]
    fn seed_changes_every_key() {
        let c = codes("ACDEFGHIKLMNPQRSTVWY");
        let (s1, s2) = (Sketcher::new(3, 8, 2, 1), Sketcher::new(3, 8, 2, 2));
        let mut scratch = SketchScratch::new();
        let (mut k1, mut k2) = (vec![0u64; 4], vec![0u64; 4]);
        assert!(s1.band_keys(&c, 0..4, &mut scratch, &mut k1));
        assert!(s2.band_keys(&c, 0..4, &mut scratch, &mut k2));
        assert_ne!(k1, k2);
    }

    #[test]
    #[should_panic(expected = "packing limit")]
    fn oversized_k_is_rejected_at_construction() {
        let _ = Sketcher::new(MAX_SKETCH_K + 1, 8, 2, 0);
    }
}
