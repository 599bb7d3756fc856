//! Union-find (disjoint-set) structures.
//!
//! The paper uses Tarjan's union-find twice: the CCD master maintains the
//! evolving clustering with near-constant-time `find`/`union`, and the
//! Shingle reporting step enumerates connected components of the
//! second-level-shingle graph. [`UnionFind`] is that structure, with
//! union-by-rank and path halving.

/// Sequential disjoint-set forest with union by rank and path halving.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<u32>,
    rank: Vec<u8>,
}

impl UnionFind {
    /// `n` singleton sets `0..n`.
    pub fn new(n: usize) -> UnionFind {
        UnionFind { parent: (0..n as u32).collect(), rank: vec![0; n] }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the structure is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Representative of `x`'s set (with path halving).
    pub fn find(&mut self, mut x: u32) -> u32 {
        loop {
            let p = self.parent[x as usize];
            if p == x {
                return x;
            }
            let gp = self.parent[p as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
    }

    /// Representative of `x`'s set, found without path halving: the
    /// forest is left exactly as it was.
    pub fn root(&self, mut x: u32) -> u32 {
        loop {
            let p = self.parent[x as usize];
            if p == x {
                return x;
            }
            x = p;
        }
    }

    /// Merge the sets of `a` and `b`; returns `true` if they were distinct.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (hi, lo) =
            if self.rank[ra as usize] >= self.rank[rb as usize] { (ra, rb) } else { (rb, ra) };
        self.parent[lo as usize] = hi;
        if self.rank[hi as usize] == self.rank[lo as usize] {
            self.rank[hi as usize] += 1;
        }
        true
    }

    /// Whether `a` and `b` are in the same set.
    pub fn same(&mut self, a: u32, b: u32) -> bool {
        self.find(a) == self.find(b)
    }

    /// Group all elements by representative, returning the members of each
    /// set (sets ordered by smallest member; members ascending): one `find`
    /// pass, then a counting sort by root.
    pub fn groups(&mut self) -> Vec<Vec<u32>> {
        let n = self.len();
        let roots: Vec<u32> = (0..n as u32).map(|x| self.find(x)).collect();
        let mut size = vec![0u32; n];
        for &r in &roots {
            size[r as usize] += 1;
        }
        // A root's group is opened at its smallest member, so groups come
        // out ordered by it.
        let mut slot = vec![u32::MAX; n];
        let n_groups = roots.iter().enumerate().filter(|&(x, &r)| x == r as usize).count();
        let mut out: Vec<Vec<u32>> = Vec::with_capacity(n_groups);
        for (x, &r) in roots.iter().enumerate() {
            let r = r as usize;
            if slot[r] == u32::MAX {
                slot[r] = out.len() as u32;
                out.push(Vec::with_capacity(size[r] as usize));
            }
            out[slot[r] as usize].push(x as u32);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_initially() {
        let mut uf = UnionFind::new(5);
        assert_eq!(uf.groups().len(), 5);
        for i in 0..5 {
            assert_eq!(uf.find(i), i);
        }
    }

    #[test]
    fn union_merges_and_counts() {
        let mut uf = UnionFind::new(6);
        assert!(uf.union(0, 1));
        assert!(uf.union(2, 3));
        assert!(!uf.union(1, 0), "already merged");
        assert!(uf.union(0, 2));
        assert_eq!(uf.groups().len(), 3);
        assert!(uf.same(1, 3));
        assert!(!uf.same(0, 4));
    }

    #[test]
    fn groups_ordered_and_complete() {
        let mut uf = UnionFind::new(7);
        uf.union(5, 2);
        uf.union(6, 0);
        let groups = uf.groups();
        assert_eq!(groups.len(), 5);
        let flat: Vec<u32> = groups.iter().flatten().copied().collect();
        let mut sorted = flat.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..7).collect::<Vec<_>>());
        assert_eq!(groups[0], vec![0, 6]);
        assert_eq!(groups[2], vec![2, 5]);
    }

    #[test]
    fn long_chain_compresses() {
        let n = 10_000;
        let mut uf = UnionFind::new(n);
        for i in 1..n as u32 {
            uf.union(i - 1, i);
        }
        assert_eq!(uf.groups().len(), 1);
        let root = uf.find(0);
        for i in 0..n as u32 {
            assert_eq!(uf.find(i), root);
        }
    }

    #[test]
    fn root_agrees_with_find_and_leaves_the_forest_alone() {
        // A chain 0 → 1 → … → 63, which `find` would halve.
        let parent: Vec<u32> = (0..64u32).map(|x| (x + 1).min(63)).collect();
        let mut uf = UnionFind { parent: parent.clone(), rank: vec![0; 64] };
        let roots: Vec<u32> = (0..64).map(|x| uf.root(x)).collect();
        assert_eq!(uf.parent, parent, "no path halving");
        for x in 0..64u32 {
            assert_eq!(uf.find(x), roots[x as usize]);
        }
        assert_ne!(uf.parent, parent, "find does halve");
    }

    #[test]
    fn empty_structures() {
        assert!(UnionFind::new(0).is_empty());
        assert_eq!(UnionFind::new(0).groups(), Vec::<Vec<u32>>::new());
    }
}
