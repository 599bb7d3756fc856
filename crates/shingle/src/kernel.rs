//! Block-at-a-time min-wise ranks.
//!
//! [`HashFamily::rank`] is one 64-bit wrapping multiply-add per
//! (permutation, element) pair. The Shingle passes and the rank-table
//! builder want a whole block of ranks per call in a structure-of-arrays
//! layout (elements in one slice, ranks in another); this module is that
//! loop. It is the plain scalar loop on purpose: SWAR, SSE2 and AVX2
//! renderings of the same multiply-add measured 0.97–1.07× it on the DSD
//! workload (`BENCH_bgg_dsd.json` history, ROADMAP "Rank-kernel verdict")
//! and were removed.

use crate::minwise::HashFamily;

/// Fill `out[j]` with the rank of `xs[j]` under permutation `i` of
/// `family` — `family.rank(i, xs[j])`.
///
/// `out` is cleared and resized to `xs.len()`.
pub fn fill_ranks(family: &HashFamily, i: usize, xs: &[u32], out: &mut Vec<u64>) {
    out.clear();
    out.resize(xs.len(), 0);
    let (mult, add) = family.coeffs(i);
    fill_ranks_into(mult, add, xs, out);
}

/// [`fill_ranks`] on raw coefficients into a pre-sized slice
/// (`out.len() == xs.len()`); the entry point the rank-table builder uses
/// to fill table rows in place.
pub fn fill_ranks_into(mult: u64, add: u64, xs: &[u32], out: &mut [u64]) {
    assert_eq!(xs.len(), out.len(), "rank output block must match the element block");
    for (o, &x) in out.iter_mut().zip(xs) {
        *o = mult.wrapping_mul(x as u64 + 1).wrapping_add(add);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_match_rank_on_edge_values() {
        let family = HashFamily::new(7, 0xfeed);
        let xs: Vec<u32> =
            vec![0, 1, 2, 3, 4, 5, 6, 7, 8, 100, 1000, u32::MAX, u32::MAX - 1, 1 << 31, 12345];
        let mut out = Vec::new();
        for block in [&xs[..], &[], &[u32::MAX], &xs[..3]] {
            for i in 0..family.len() {
                fill_ranks(&family, i, block, &mut out);
                let want: Vec<u64> = block.iter().map(|&x| family.rank(i, x)).collect();
                assert_eq!(out, want, "perm {i}");
            }
        }
    }
}
