//! Fixed-length word (k-mer) extraction over residue codes.
//!
//! The domain-based bipartite reduction `Bm` of the paper uses the set of
//! all `w`-length strings (w ≈ 10) that occur in at least two sequences.
//! Words are packed into a `u64` in base-21, which supports `w ≤ 14`
//! (21¹⁴ < 2⁶⁴). Windows containing the ambiguity residue `X` are skipped:
//! an unknown residue cannot serve as exact-match evidence.

use crate::alphabet::ALPHABET_SIZE;

/// Largest word length a packed `u64` can hold in base-21.
pub const MAX_PACKED_K: usize = 14;

const BASE: u64 = ALPHABET_SIZE as u64;
const X_CODE: u8 = (ALPHABET_SIZE - 1) as u8;

/// Iterator over `(start, packed_word)` for every X-free window of length
/// `k` in a residue-code slice. Uses a rolling base-21 encoding, so the
/// whole scan is O(len).
pub struct KmerIter<'a> {
    codes: &'a [u8],
    k: usize,
    /// Next window start to consider.
    pos: usize,
    /// Rolling value of the current window `[pos, pos+k)` once primed.
    value: u64,
    /// Number of leading positions of the current window already folded in.
    primed: usize,
    /// `BASE.pow(k-1)`, for removing the outgoing residue.
    high: u64,
}

impl<'a> KmerIter<'a> {
    /// Create an iterator over all X-free `k`-windows of `codes`.
    ///
    /// Panics if `k == 0` or `k > MAX_PACKED_K`.
    pub fn new(codes: &'a [u8], k: usize) -> KmerIter<'a> {
        assert!(k > 0, "k-mer length must be positive");
        assert!(k <= MAX_PACKED_K, "k-mer length {k} exceeds packed maximum {MAX_PACKED_K}");
        KmerIter { codes, k, pos: 0, value: 0, primed: 0, high: BASE.pow(k as u32 - 1) }
    }
}

impl<'a> Iterator for KmerIter<'a> {
    type Item = (usize, u64);

    fn next(&mut self) -> Option<(usize, u64)> {
        if self.pos + self.k > self.codes.len() {
            return None;
        }
        // Extend the primed prefix one residue at a time; the loop restarts
        // the window past any X it encounters.
        while self.primed < self.k {
            let c = self.codes[self.pos + self.primed];
            if c == X_CODE {
                // Skip past the X entirely: no window covering it is valid.
                self.pos += self.primed + 1;
                self.primed = 0;
                self.value = 0;
                if self.pos + self.k > self.codes.len() {
                    return None;
                }
                continue;
            }
            self.value = self.value * BASE + c as u64;
            self.primed += 1;
        }
        let result = (self.pos, self.value);
        // Slide: drop codes[pos]; the next call folds in the new tail.
        let outgoing = self.codes[self.pos] as u64;
        self.value -= outgoing * self.high;
        self.pos += 1;
        self.primed = self.k - 1;
        Some(result)
    }
}

/// Pack an X-free word directly (non-rolling); `None` if it contains `X`
/// or violates the length limit.
pub fn pack_word(codes: &[u8]) -> Option<u64> {
    if codes.is_empty() || codes.len() > MAX_PACKED_K {
        return None;
    }
    let mut v = 0u64;
    for &c in codes {
        if c == X_CODE {
            return None;
        }
        v = v * BASE + c as u64;
    }
    Some(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::encode;

    fn codes(s: &str) -> Vec<u8> {
        encode(s.as_bytes()).unwrap()
    }

    #[test]
    fn rolling_matches_direct_packing() {
        let c = codes("MKVLWAARNDCQEGH");
        for k in 1..=6 {
            let rolled: Vec<_> = KmerIter::new(&c, k).collect();
            let direct: Vec<_> =
                (0..=c.len() - k).filter_map(|i| pack_word(&c[i..i + k]).map(|v| (i, v))).collect();
            assert_eq!(rolled, direct, "k={k}");
        }
    }

    #[test]
    fn skips_windows_containing_x() {
        let c = codes("AAXAAA");
        let hits: Vec<_> = KmerIter::new(&c, 3).map(|(i, _)| i).collect();
        // Windows at 0 and 1 contain the X at index 2; valid: 3.
        assert_eq!(hits, vec![3]);
    }

    #[test]
    fn consecutive_xs() {
        let c = codes("AXXAA");
        let hits: Vec<_> = KmerIter::new(&c, 2).map(|(i, _)| i).collect();
        assert_eq!(hits, vec![3]);
    }

    #[test]
    fn too_short_input_yields_nothing() {
        let c = codes("AC");
        assert_eq!(KmerIter::new(&c, 3).count(), 0);
        assert_eq!(KmerIter::new(&[], 1).count(), 0);
    }

    #[test]
    fn pack_rejects_x_and_oversize() {
        assert!(pack_word(&codes("AXA")).is_none());
        assert!(pack_word(&[0u8; MAX_PACKED_K + 1]).is_none());
        assert!(pack_word(&[]).is_none());
    }

    #[test]
    fn distinct_words_distinct_codes() {
        let a = pack_word(&codes("ACDEF")).unwrap();
        let b = pack_word(&codes("ACDEG")).unwrap();
        let cc = pack_word(&codes("CACDE")).unwrap();
        assert_ne!(a, b);
        assert_ne!(a, cc);
    }

    #[test]
    fn window_equality_iff_same_word() {
        // Identical windows at different positions produce identical codes.
        let c = codes("MKVLWMKVLW");
        let words: Vec<_> = KmerIter::new(&c, 5).collect();
        assert_eq!(words[0].1, words[5].1);
        assert_ne!(words[0].1, words[1].1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_k_panics() {
        let _ = KmerIter::new(&[], 0);
    }

    #[test]
    fn max_k_supported() {
        let c = vec![20u8 - 1; MAX_PACKED_K]; // all 'V'
        let packed = pack_word(&c).unwrap();
        assert_eq!(KmerIter::new(&c, MAX_PACKED_K).collect::<Vec<_>>(), vec![(0, packed)]);
    }
}
