//! Min-wise independent permutations and (s, c)-shingle sets.
//!
//! Following Broder et al., a random permutation of the universe is
//! simulated by a strongly-universal hash `h_i(x) = a_i·x + b_i` over
//! `u64`; the `s` elements of a set with the smallest hashed values are a
//! min-wise sample. Two sets sharing many elements are likely to produce
//! identical samples under the same permutation, which is exactly the
//! grouping signal the Shingle algorithm uses.
//!
//! [`ShingleKernel`] computes a set's shingle ids into reused buffers, one
//! of two ways per set: rank every element under every permutation and
//! select the `s` smallest, or — for a set dense in its universe — scan a
//! [`PermutationOrder`] for its first `s` members; it recomputes the
//! elements of given permutations on demand. [`shingle_set`] is the scalar
//! oracle both are held to.

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

/// For each permutation of a family, the universe `0..n` in rank order:
/// row `i` is `0..n` sorted by `rank(i, ·)`. With it, a set's `s` min-wise
/// elements under permutation `i` are the first `s` members met while
/// scanning row `i` — about `s·n/|set|` steps instead of `|set|` rank
/// evaluations and a selection. Ranks are injective, so the scan and the
/// selection pick the same elements.
#[derive(Debug, Clone)]
pub struct PermutationOrder {
    n: usize,
    order: Vec<u32>,
}

impl PermutationOrder {
    /// The `family.len() × n` order table of the universe `0..n`.
    pub fn new(family: &HashFamily, n: usize) -> PermutationOrder {
        let mut order = Vec::with_capacity(family.len() * n);
        let mut keyed: Vec<(u64, u32)> = Vec::with_capacity(n);
        for i in 0..family.len() {
            keyed.clear();
            keyed.extend((0..n as u32).map(|x| (family.rank(i, x), x)));
            keyed.sort_unstable();
            order.extend(keyed.iter().map(|&(_, x)| x));
        }
        PermutationOrder { n, order }
    }

    fn row(&self, i: usize) -> &[u32] {
        &self.order[i * self.n..(i + 1) * self.n]
    }
}

/// The per-set kernel of both Shingle passes: [`shingle_set`] without a
/// per-shingle allocation. [`ShingleKernel::run`] leaves a set's distinct
/// shingle ids in a buffer the next call reuses, [`ShingleKernel::shingles`]
/// reads them back in id order, and [`ShingleKernel::select`] recomputes
/// given permutations' elements when a caller needs them.
#[derive(Debug, Default)]
pub struct ShingleKernel {
    /// The rank path's `s` lowest `(rank, element)` so far, by rank.
    sel: Vec<(u64, u32)>,
    /// Membership bitset over the universe, for the order scan; all clear
    /// between calls.
    member: Vec<u64>,
    /// One permutation's elements, sorted once selected.
    elems: Vec<u32>,
    /// `(id, permutation)`, sorted by id, each id once with the first
    /// permutation that produced it.
    ids: Vec<(u64, u32)>,
}

impl ShingleKernel {
    /// The (s, c)-shingle set of `links` (sorted ascending, distinct) under
    /// `family`: the ids of [`shingle_set`], computed by scanning `order`
    /// when given (`links` must then lie in its universe), else by ranking
    /// every element under every permutation.
    pub fn run(
        &mut self,
        links: &[u32],
        family: &HashFamily,
        s: usize,
        order: Option<&PermutationOrder>,
    ) {
        assert!(s >= 1, "shingle size must be positive");
        debug_assert!(links.windows(2).all(|w| w[0] < w[1]), "links sorted and distinct");
        self.ids.clear();
        if links.is_empty() {
            return;
        }
        if links.len() <= s {
            self.ids.push((shingle_id(links), 0));
            return;
        }
        self.mark(links, order);
        for i in 0..family.len() {
            self.select_into(links, family, s, order, i);
            self.ids.push((shingle_id(&self.elems), i as u32));
        }
        self.unmark(links, order);
        self.ids.sort_unstable();
        self.ids.dedup_by_key(|&mut (id, _)| id);
    }

    /// The last [`ShingleKernel::run`]'s distinct shingles as `(id,
    /// permutation)`, ascending by id; an id's permutation is the first
    /// that produced it.
    pub fn shingles(&self) -> impl ExactSizeIterator<Item = (u64, u32)> + '_ {
        self.ids.iter().copied()
    }

    /// Append to `out`, for each permutation of `perms` in turn, the sorted
    /// elements of `links`' shingle under it — the whole set when it has at
    /// most `s` elements — by the path [`ShingleKernel::run`] takes with the
    /// same `order`, marking `links` once for all of them. Leaves the ids of
    /// the last run as they were.
    pub fn select(
        &mut self,
        links: &[u32],
        family: &HashFamily,
        s: usize,
        order: Option<&PermutationOrder>,
        perms: impl IntoIterator<Item = u32>,
        out: &mut Vec<u32>,
    ) {
        assert!(s >= 1, "shingle size must be positive");
        if links.len() <= s {
            perms.into_iter().for_each(|_| out.extend_from_slice(links));
            return;
        }
        self.mark(links, order);
        for perm in perms {
            self.select_into(links, family, s, order, perm as usize);
            out.extend_from_slice(&self.elems);
        }
        self.unmark(links, order);
    }

    /// Set `links`' bits in the membership bitset when the order scan
    /// will read it.
    fn mark(&mut self, links: &[u32], order: Option<&PermutationOrder>) {
        let Some(order) = order else { return };
        debug_assert!(links.iter().all(|&x| (x as usize) < order.n), "links in the universe");
        self.member.resize(order.n.div_ceil(64), 0);
        for &x in links {
            self.member[x as usize / 64] |= 1 << (x % 64);
        }
    }

    /// Clear what [`ShingleKernel::mark`] set.
    fn unmark(&mut self, links: &[u32], order: Option<&PermutationOrder>) {
        if order.is_some() {
            for &x in links {
                self.member[x as usize / 64] = 0;
            }
        }
    }

    /// Leave permutation `i`'s `s` min-wise elements of `links` (longer
    /// than `s`, marked when `order` is given), sorted, in `elems`: the
    /// first `s` members of the order's row, or the `s` smallest ranks.
    fn select_into(
        &mut self,
        links: &[u32],
        family: &HashFamily,
        s: usize,
        order: Option<&PermutationOrder>,
        i: usize,
    ) {
        self.elems.clear();
        match order {
            Some(order) => {
                for &x in order.row(i) {
                    if self.member[x as usize / 64] & (1 << (x % 64)) != 0 {
                        self.elems.push(x);
                        if self.elems.len() == s {
                            break;
                        }
                    }
                }
            }
            None => {
                // The `s` smallest ranks so far, in rank order: once `s` are
                // held, an element costs one comparison unless it ranks lower.
                self.sel.clear();
                for &x in links {
                    let r = family.rank(i, x);
                    if self.sel.len() == s {
                        if r > self.sel[s - 1].0 {
                            continue;
                        }
                        self.sel.pop();
                    }
                    let at = self.sel.partition_point(|&(q, _)| q < r);
                    self.sel.insert(at, (r, x));
                }
                self.elems.extend(self.sel.iter().map(|&(_, x)| x));
            }
        }
        self.elems.sort_unstable();
    }
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
            let mut seen = std::collections::BTreeSet::new();
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
        let ids_a: std::collections::BTreeSet<u64> = sa.iter().map(|s| s.id).collect();
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
        let ids_a: std::collections::BTreeSet<u64> =
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
            let ia: std::collections::BTreeSet<u64> =
                shingle_set(&a, &fam, s).iter().map(|x| x.id).collect();
            shingle_set(&b, &fam, s).iter().filter(|x| ia.contains(&x.id)).count()
        };
        assert!(share(1) >= share(8), "s=1 shares {} vs s=8 shares {}", share(1), share(8));
    }

    /// The kernel's shingles as the oracle's `Shingle`s, in id order.
    fn kernel_set(
        kernel: &mut ShingleKernel,
        links: &[u32],
        fam: &HashFamily,
        s: usize,
        order: Option<&PermutationOrder>,
    ) -> Vec<Shingle> {
        kernel.run(links, fam, s, order);
        let (ids, perms): (Vec<u64>, Vec<u32>) = kernel.shingles().unzip();
        let mut elements = Vec::new();
        kernel.select(links, fam, s, order, perms, &mut elements);
        ids.into_iter()
            .zip(elements.chunks(links.len().min(s).max(1)))
            .map(|(id, e)| Shingle { id, elements: e.to_vec() })
            .collect()
    }

    #[test]
    fn kernel_matches_scalar_shingle_set_on_both_paths() {
        let fam = HashFamily::new(25, 0xabc);
        let order = PermutationOrder::new(&fam, 1 << 11);
        let with_table = [None, Some(&order)];
        // Ids beyond any order table: the rank path only.
        let large = vec![0, u32::MAX - 3, 5, 1 << 20, 2];
        let cases: Vec<(Vec<u32>, &[Option<&PermutationOrder>])> = vec![
            (vec![], &with_table),
            (vec![7], &with_table),
            (vec![3, 7, 9], &with_table),
            ((0..50).collect(), &with_table),
            ((0..50).map(|v| v * 17 % 61).collect(), &with_table),
            (vec![0, 5, 2, 1 << 10, 1000], &with_table),
            (large, &[None]),
        ];
        let mut kernel = ShingleKernel::default();
        for (links, tables) in cases {
            let mut links = links;
            links.sort_unstable();
            links.dedup();
            for s in [1usize, 2, 3, 10, 100] {
                let mut want = shingle_set(&links, &fam, s);
                want.sort_unstable_by_key(|sh| sh.id);
                for &table in tables {
                    let got = kernel_set(&mut kernel, &links, &fam, s, table);
                    assert_eq!(got, want, "s {s} table {} links {links:?}", table.is_some());
                }
            }
        }
    }

    #[test]
    fn order_rows_are_the_universe_in_rank_order() {
        let fam = HashFamily::new(6, 21);
        let order = PermutationOrder::new(&fam, 40);
        for i in 0..6 {
            let row = order.row(i);
            let mut sorted = row.to_vec();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..40).collect::<Vec<u32>>());
            assert!(row.windows(2).all(|w| fam.rank(i, w[0]) < fam.rank(i, w[1])));
        }
    }

    #[test]
    fn zero_permutation_family_yields_no_shingles_on_large_sets() {
        let fam = HashFamily::new(0, 3);
        let links: Vec<u32> = (0..20).collect();
        assert!(shingle_set(&links, &fam, 2).is_empty());
        let order = PermutationOrder::new(&fam, 20);
        let mut kernel = ShingleKernel::default();
        for table in [None, Some(&order)] {
            assert!(kernel_set(&mut kernel, &links, &fam, 2, table).is_empty());
        }
        // Whole-set branch is independent of c.
        assert_eq!(shingle_set(&[4, 2], &fam, 5).len(), 1);
        assert_eq!(kernel_set(&mut kernel, &[2, 4], &fam, 5, None).len(), 1);
    }
}
