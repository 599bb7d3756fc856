//! Min-wise independent permutations and (s, c)-shingle sets.
//!
//! Following Broder et al., a random permutation of the universe is
//! simulated by a strongly-universal hash `h_i(x) = a_i·x + b_i` over
//! `u64`; the `s` elements of a set with the smallest hashed values are a
//! min-wise sample. Two sets sharing many elements are likely to produce
//! identical samples under the same permutation, which is exactly the
//! grouping signal the Shingle algorithm uses.

/// SplitMix64's state increment.
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// One SplitMix64 step: the output for generator state `z`. The
/// [`HashFamily`] draws its coefficients from this stream, and the
/// checkpoint fingerprint folds its words through it.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(GOLDEN_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// A family of `c` pseudo-random permutations, deterministic in the seed.
#[derive(Debug, Clone)]
pub struct HashFamily {
    mults: Vec<u64>,
    adds: Vec<u64>,
}

impl HashFamily {
    /// Create `c` permutations from `seed` (SplitMix64-expanded).
    pub fn new(c: usize, seed: u64) -> HashFamily {
        let mut state = seed;
        let mut next = move || {
            let out = splitmix64(state);
            state = state.wrapping_add(GOLDEN_GAMMA);
            out
        };
        let mults = (0..c).map(|_| next() | 1).collect(); // odd ⇒ bijective mod 2⁶⁴
        let adds = (0..c).map(|_| next()).collect();
        HashFamily { mults, adds }
    }

    /// Number of permutations in the family.
    pub fn len(&self) -> usize {
        self.mults.len()
    }

    /// Whether the family is empty.
    pub fn is_empty(&self) -> bool {
        self.mults.is_empty()
    }

    /// The position of `x` under permutation `i`.
    #[inline]
    pub fn rank(&self, i: usize, x: u32) -> u64 {
        self.mults[i].wrapping_mul(x as u64 + 1).wrapping_add(self.adds[i])
    }
}

/// Hash a sorted element subset to a 64-bit shingle identifier (FNV-1a).
pub fn shingle_id(elements: &[u32]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &e in elements {
        for byte in e.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

/// One shingle: its identifier plus the (sorted) elements it stands for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shingle {
    /// Hash identifying the element subset.
    pub id: u64,
    /// The subset itself (sorted ascending).
    pub elements: Vec<u32>,
}

/// Compute the (s, c)-shingle set of `links` under `family`.
///
/// For each permutation the `s` min-wise elements form one shingle; when
/// `links` has at most `s` elements, the whole set is the only shingle
/// (matching Gibson et al.'s handling of low-degree vertices). Duplicate
/// shingles are collapsed.
pub fn shingle_set(links: &[u32], family: &HashFamily, s: usize) -> Vec<Shingle> {
    assert!(s >= 1, "shingle size must be positive");
    if links.is_empty() {
        return Vec::new();
    }
    if links.len() <= s {
        let mut elements = links.to_vec();
        elements.sort_unstable();
        elements.dedup();
        return vec![Shingle { id: shingle_id(&elements), elements }];
    }
    let mut out: Vec<Shingle> = Vec::with_capacity(family.len());
    let mut scratch: Vec<(u64, u32)> = Vec::with_capacity(links.len());
    for i in 0..family.len() {
        scratch.clear();
        scratch.extend(links.iter().map(|&x| (family.rank(i, x), x)));
        scratch.select_nth_unstable(s - 1);
        let mut elements: Vec<u32> = scratch[..s].iter().map(|&(_, x)| x).collect();
        elements.sort_unstable();
        let id = shingle_id(&elements);
        if !out.iter().any(|sh| sh.id == id) {
            out.push(Shingle { id, elements });
        }
    }
    out
}

/// Reusable buffers of [`shingle_set_with`]: the `(rank, element)`
/// selection pairs and the element staging area. One scratch per Shingle
/// run keeps the per-set buffers out of the allocator; they grow to the
/// high-water mark and stay there.
#[derive(Debug, Default)]
pub struct ShingleScratch {
    sel: Vec<(u64, u32)>,
    elems: Vec<u32>,
}

impl ShingleScratch {
    /// Fresh, empty scratch.
    pub fn new() -> ShingleScratch {
        ShingleScratch::default()
    }
}

/// [`shingle_set`] into caller-owned scratch — bit-identical output, no
/// per-call buffer allocation. The production kernel of both Shingle
/// passes.
pub fn shingle_set_with(
    links: &[u32],
    family: &HashFamily,
    s: usize,
    scratch: &mut ShingleScratch,
) -> Vec<Shingle> {
    assert!(s >= 1, "shingle size must be positive");
    if links.is_empty() {
        return Vec::new();
    }
    if links.len() <= s {
        let mut elements = links.to_vec();
        elements.sort_unstable();
        elements.dedup();
        return vec![Shingle { id: shingle_id(&elements), elements }];
    }
    let ShingleScratch { sel, elems } = scratch;
    let mut out: Vec<Shingle> = Vec::with_capacity(family.len());
    for i in 0..family.len() {
        sel.clear();
        sel.extend(links.iter().map(|&x| (family.rank(i, x), x)));
        sel.select_nth_unstable(s - 1);
        elems.clear();
        elems.extend(sel[..s].iter().map(|&(_, x)| x));
        elems.sort_unstable();
        let id = shingle_id(elems);
        if !out.iter().any(|sh| sh.id == id) {
            out.push(Shingle { id, elements: elems.clone() });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_is_deterministic() {
        let a = HashFamily::new(8, 42);
        let b = HashFamily::new(8, 42);
        for i in 0..8 {
            for x in [0u32, 1, 99, u32::MAX] {
                assert_eq!(a.rank(i, x), b.rank(i, x));
            }
        }
        let c = HashFamily::new(8, 43);
        assert_ne!(a.rank(0, 7), c.rank(0, 7), "different seeds differ");
    }

    #[test]
    fn permutations_are_injective_on_samples() {
        let fam = HashFamily::new(4, 1);
        for i in 0..4 {
            let mut seen = std::collections::HashSet::new();
            for x in 0..10_000u32 {
                assert!(seen.insert(fam.rank(i, x)), "collision at {x}");
            }
        }
    }

    #[test]
    fn identical_sets_identical_shingles() {
        let fam = HashFamily::new(10, 7);
        let links: Vec<u32> = (0..50).collect();
        let a = shingle_set(&links, &fam, 4);
        let b = shingle_set(&links, &fam, 4);
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn small_sets_yield_whole_set_shingle() {
        let fam = HashFamily::new(5, 3);
        let links = [9u32, 3, 7];
        let sh = shingle_set(&links, &fam, 5);
        assert_eq!(sh.len(), 1);
        assert_eq!(sh[0].elements, vec![3, 7, 9]);
    }

    #[test]
    fn empty_links_no_shingles() {
        let fam = HashFamily::new(5, 3);
        assert!(shingle_set(&[], &fam, 2).is_empty());
    }

    #[test]
    fn overlapping_sets_share_shingles() {
        // Two sets with 90 % overlap should share at least one shingle
        // under a generous permutation count.
        let fam = HashFamily::new(50, 11);
        let a: Vec<u32> = (0..100).collect();
        let b: Vec<u32> = (10..110).collect();
        let sa = shingle_set(&a, &fam, 2);
        let sb = shingle_set(&b, &fam, 2);
        let ids_a: std::collections::HashSet<u64> = sa.iter().map(|s| s.id).collect();
        assert!(
            sb.iter().any(|s| ids_a.contains(&s.id)),
            "90%-overlapping sets should share a 2-shingle within 50 permutations"
        );
    }

    #[test]
    fn disjoint_sets_share_nothing() {
        let fam = HashFamily::new(30, 13);
        let a: Vec<u32> = (0..50).collect();
        let b: Vec<u32> = (1000..1050).collect();
        let ids_a: std::collections::HashSet<u64> =
            shingle_set(&a, &fam, 3).iter().map(|s| s.id).collect();
        assert!(shingle_set(&b, &fam, 3).iter().all(|s| !ids_a.contains(&s.id)));
    }

    #[test]
    fn shingle_elements_come_from_links() {
        let fam = HashFamily::new(20, 17);
        let links = [5u32, 10, 15, 20, 25, 30, 35, 40];
        for sh in shingle_set(&links, &fam, 3) {
            assert_eq!(sh.elements.len(), 3);
            assert!(sh.elements.iter().all(|e| links.contains(e)));
            assert!(sh.elements.windows(2).all(|w| w[0] < w[1]), "sorted");
        }
    }

    #[test]
    fn shingle_id_order_independent_input_sorted() {
        assert_eq!(shingle_id(&[1, 2, 3]), shingle_id(&[1, 2, 3]));
        assert_ne!(shingle_id(&[1, 2, 3]), shingle_id(&[1, 2, 4]));
        assert_ne!(shingle_id(&[1, 2]), shingle_id(&[1, 2, 3]));
    }

    #[test]
    fn larger_s_means_fewer_or_equal_shared() {
        // Sanity on the paper's parameter intuition: larger s ⇒ stricter.
        let fam = HashFamily::new(40, 19);
        let a: Vec<u32> = (0..60).collect();
        let b: Vec<u32> = (20..80).collect();
        let share = |s: usize| {
            let ia: std::collections::HashSet<u64> =
                shingle_set(&a, &fam, s).iter().map(|x| x.id).collect();
            shingle_set(&b, &fam, s).iter().filter(|x| ia.contains(&x.id)).count()
        };
        assert!(share(1) >= share(8), "s=1 shares {} vs s=8 shares {}", share(1), share(8));
    }

    #[test]
    fn scratch_kernel_matches_scalar_shingle_set() {
        let fam = HashFamily::new(25, 0xabc);
        let cases: Vec<Vec<u32>> = vec![
            vec![],
            vec![7],
            vec![3, 3, 3],
            vec![9, 3, 7],
            (0..50).collect(),
            (0..50).map(|v| v * 17 % 61).collect(), // shuffled with repeats
            vec![0, u32::MAX - 3, 5, 1 << 20, 2],
        ];
        let mut scratch = ShingleScratch::new();
        for links in &cases {
            for s in [1usize, 2, 3, 10, 100] {
                let want = shingle_set(links, &fam, s);
                let got = shingle_set_with(links, &fam, s, &mut scratch);
                assert_eq!(got, want, "s {s} links {links:?}");
            }
        }
    }

    #[test]
    fn zero_permutation_family_yields_no_shingles_on_large_sets() {
        let fam = HashFamily::new(0, 3);
        let links: Vec<u32> = (0..20).collect();
        assert!(shingle_set(&links, &fam, 2).is_empty());
        assert!(shingle_set_with(&links, &fam, 2, &mut ShingleScratch::new()).is_empty());
        // Whole-set branch is independent of c.
        assert_eq!(shingle_set(&[4, 2], &fam, 5).len(), 1);
    }
}
