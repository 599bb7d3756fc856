//! LCP array construction: Kasai's linear-time algorithm.

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
}
