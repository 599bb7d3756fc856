//! LCP array construction: Kasai's linear-time algorithm, plus the
//! Φ-array (PLCP) formulation whose main loop runs over *text* positions
//! instead of ranks — the form [`crate::parallel`] chunks across threads.

/// Compute the LCP array for `text` and its suffix array `sa`.
///
/// `lcp[r]` is the length of the longest common prefix of the suffixes of
/// rank `r − 1` and `r`; `lcp[0] == 0` by convention.
pub fn lcp_array(text: &[u32], sa: &[u32]) -> Vec<u32> {
    let n = text.len();
    assert_eq!(sa.len(), n, "suffix array length mismatch");
    let mut rank = vec![0u32; n];
    for (r, &p) in sa.iter().enumerate() {
        rank[p as usize] = r as u32;
    }
    let mut lcp = vec![0u32; n];
    let mut h = 0usize;
    for i in 0..n {
        let r = rank[i] as usize;
        if r > 0 {
            let j = sa[r - 1] as usize;
            while i + h < n && j + h < n && text[i + h] == text[j + h] {
                h += 1;
            }
            lcp[r] = h as u32;
            h = h.saturating_sub(1);
        } else {
            h = 0;
        }
    }
    lcp
}

/// Compute the Φ array: `phi[sa[r]] = sa[r − 1]` for `r > 0`, and the
/// rank-0 suffix gets the sentinel `u32::MAX` (it has no predecessor).
///
/// Φ turns the rank-ordered LCP recurrence into a text-ordered one: the
/// predecessor of position `i` in suffix order is `phi[i]`, so
/// `plcp[i] = lcp(i, phi[i])` can be computed by scanning text positions
/// left to right with the usual `h ≥ plcp[i−1] − 1` acceleration.
pub fn phi_array(sa: &[u32]) -> Vec<u32> {
    let mut phi = vec![0u32; sa.len()];
    if sa.is_empty() {
        return phi;
    }
    phi[sa[0] as usize] = u32::MAX;
    for r in 1..sa.len() {
        phi[sa[r] as usize] = sa[r - 1];
    }
    phi
}

/// Fill `out` with PLCP values for text positions `lo..lo + out.len()`.
///
/// Restarting with `h = 0` at an arbitrary `lo` is always correct — the
/// `h` carried between positions is only a lower bound that accelerates
/// the scan (`plcp[i] ≥ plcp[i−1] − 1`), never an input to the result —
/// so disjoint chunks of the text can be filled independently. A chunk
/// merely re-derives the bound from scratch at its first few positions.
pub(crate) fn plcp_fill(text: &[u32], phi: &[u32], lo: usize, out: &mut [u32]) {
    let n = text.len();
    let mut h = 0usize;
    for (d, slot) in out.iter_mut().enumerate() {
        let i = lo + d;
        let j = phi[i];
        if j == u32::MAX {
            *slot = 0;
            h = 0;
            continue;
        }
        let j = j as usize;
        while i + h < n && j + h < n && text[i + h] == text[j + h] {
            h += 1;
        }
        *slot = h as u32;
        h = h.saturating_sub(1);
    }
}

/// Reference O(n²) LCP for cross-validation in tests.
pub fn lcp_array_naive(text: &[u32], sa: &[u32]) -> Vec<u32> {
    let mut lcp = vec![0u32; sa.len()];
    for r in 1..sa.len() {
        let a = &text[sa[r - 1] as usize..];
        let b = &text[sa[r] as usize..];
        lcp[r] = a.iter().zip(b).take_while(|(x, y)| x == y).count() as u32;
    }
    lcp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sais::{suffix_array, suffix_array_naive};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn with_sentinel(codes: &[u8]) -> Vec<u32> {
        codes.iter().map(|&c| c as u32 + 1).chain(std::iter::once(0)).collect()
    }

    #[test]
    fn banana_lcp() {
        let text = with_sentinel(b"banana");
        let sa = suffix_array(&text, 257);
        let lcp = lcp_array(&text, &sa);
        // suffixes: $ a$ ana$ anana$ banana$ na$ nana$
        assert_eq!(lcp, vec![0, 0, 1, 3, 0, 0, 2]);
    }

    #[test]
    fn matches_naive_on_random_texts() {
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..40 {
            let n = rng.gen_range(1..300);
            let sigma = rng.gen_range(1..6u8);
            let codes: Vec<u8> = (0..n).map(|_| rng.gen_range(0..=sigma)).collect();
            let text = with_sentinel(&codes);
            let sa = suffix_array_naive(&text);
            assert_eq!(lcp_array(&text, &sa), lcp_array_naive(&text, &sa));
        }
    }

    #[test]
    fn all_equal_text() {
        let text = with_sentinel(&[3u8; 20]);
        let sa = suffix_array(&text, 5);
        let lcp = lcp_array(&text, &sa);
        // sa = [20, 19, 18, ..., 0]; lcp[r] = r - 1 for r >= 1.
        for (r, &v) in lcp.iter().enumerate() {
            assert_eq!(v as usize, r.saturating_sub(1));
        }
    }

    #[test]
    fn lcp_zero_at_rank_zero() {
        let text = with_sentinel(b"xyzzy");
        let sa = suffix_array(&text, 257);
        assert_eq!(lcp_array(&text, &sa)[0], 0);
    }

    #[test]
    fn phi_inverts_rank_predecessors() {
        let text = with_sentinel(b"banana");
        let sa = suffix_array(&text, 257);
        let phi = phi_array(&sa);
        assert_eq!(phi[sa[0] as usize], u32::MAX);
        for r in 1..sa.len() {
            assert_eq!(phi[sa[r] as usize], sa[r - 1]);
        }
    }

    #[test]
    fn plcp_chunks_restart_anywhere() {
        // Filling the PLCP in arbitrary chunks must match the single scan.
        let text = with_sentinel(b"abracadabraabracadabra");
        let sa = suffix_array(&text, 257);
        let phi = phi_array(&sa);
        let mut whole = vec![0u32; text.len()];
        plcp_fill(&text, &phi, 0, &mut whole);
        for chunk_len in [1usize, 3, 5, 7, 100] {
            let mut chunked = vec![0u32; text.len()];
            let mut lo = 0;
            for chunk in chunked.chunks_mut(chunk_len) {
                plcp_fill(&text, &phi, lo, chunk);
                lo += chunk.len();
            }
            assert_eq!(chunked, whole, "chunk_len {chunk_len}");
        }
    }
}
