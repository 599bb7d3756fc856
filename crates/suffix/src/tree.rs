//! The generalized suffix tree, built in linear time from the suffix and
//! LCP arrays (the lcp-interval tree of Abouelhoda, Kurtz & Ohlebusch).
//!
//! Internal nodes correspond exactly to right-branching repeats: a node of
//! string depth `d` whose SA range is `[l, r)` means the `d`-length prefix
//! shared by the suffixes of ranks `l..r` occurs in at least two right-
//! extensions. The maximal-match miner walks these nodes in decreasing
//! depth order.

use crate::gsa::GeneralizedSuffixArray;

/// Identifier of an internal node. The root is always node `0`.
pub type NodeId = u32;

/// Generalized suffix tree over a [`GeneralizedSuffixArray`].
#[derive(Debug)]
pub struct SuffixTree<'a> {
    gsa: &'a GeneralizedSuffixArray,
    /// Nodes shallower than this (other than the root) are not held.
    min_depth: u32,
    /// String depth of each internal node.
    depths: Vec<u32>,
    /// SA rank range `[l, r)` of each internal node.
    ranges: Vec<(u32, u32)>,
    /// Internal-node children of every node, one run per node.
    child_ids: Vec<NodeId>,
    /// Where in `child_ids` each node's children lie.
    child_runs: Vec<(u32, u32)>,
}

impl<'a> SuffixTree<'a> {
    /// Build the lcp-interval tree of `gsa`, a full index (cut-off 0).
    pub fn build(gsa: &'a GeneralizedSuffixArray) -> SuffixTree<'a> {
        SuffixTree::build_pruned(gsa, 0)
    }

    /// Build the lcp-interval tree of `gsa` without the intervals shallower
    /// than `min_depth`: the root, then exactly the nodes of depth
    /// ≥ `min_depth` the full tree has — same ranges, same children, same
    /// relative order in [`nodes_by_depth_desc`](Self::nodes_by_depth_desc)
    /// — each hanging off its nearest kept ancestor. Mining at ψ visits no
    /// other node, and on metagenomic input they are a few per cent of the
    /// tree. `min_depth == 0` is the full tree.
    ///
    /// An index cut at a mining cut-off
    /// ([`GeneralizedSuffixArray::build_cut`]) gives the same tree at any
    /// `min_depth` at or above its cut-off, and no tree below it: every
    /// node of depth ≥ the cut-off holds exactly the suffixes it kept, and
    /// its leading ranks, where the first interval closes, are whole.
    pub fn build_pruned(gsa: &'a GeneralizedSuffixArray, min_depth: u32) -> SuffixTree<'a> {
        assert!(
            min_depth >= gsa.cutoff(),
            "an index cut at {} trees no shallower than that, not at {min_depth}",
            gsa.cutoff()
        );
        let (mut tree, first_closed_depth) = SuffixTree::build_window(gsa, min_depth, 0);
        // Pair order is pipeline output (redundancy removal is order-
        // sensitive) and depth ties in `nodes_by_depth_desc` fall to the
        // id, so ids must rank the kept nodes the same way at every
        // `min_depth`: in closing order, except that the first interval
        // the unpruned scan closes carries the last id. When that interval
        // is kept it is node 1; move it to the end.
        if first_closed_depth.is_some_and(|d| d >= min_depth) {
            tree.move_first_closed_last();
        }
        tree
    }

    /// The tree of `gsa` pruned at `min_depth` as
    /// [`build_pruned`](Self::build_pruned) builds it, but with every node
    /// numbered in closing order, when `gsa` holds one window of a larger
    /// text's suffix array (at a cut-off no deeper than `min_depth`): a run
    /// of ranks no node of depth ≥ `min_depth` crosses, its LCP at rank 0
    /// taken against the suffix before it, and `trail` the LCP of its last
    /// suffix against the one after it in the arrays of every suffix (`0`
    /// past the end). Also returns the depth of the interval the first
    /// descent of the unpruned scan closes between the window's first rank
    /// and `trail`, if there is one.
    pub(crate) fn build_window(
        gsa: &'a GeneralizedSuffixArray,
        min_depth: u32,
        trail: u32,
    ) -> (SuffixTree<'a>, Option<u32>) {
        let n = gsa.sa().len();

        /// An interval still open on the stack; its children so far are
        /// `kids[first_kid..]`, above those of the intervals beneath it.
        struct Open {
            depth: u32,
            lb: u32,
            first_kid: usize,
        }
        // Node 0 is the root; the others are numbered as their intervals
        // close.
        let mut depths: Vec<u32> = vec![0];
        let mut ranges: Vec<(u32, u32)> = vec![(0, n as u32)];
        let mut child_runs: Vec<(u32, u32)> = vec![(0, 0)];
        let mut child_ids: Vec<NodeId> = Vec::new();
        let mut kids: Vec<NodeId> = Vec::new();
        let mut stack: Vec<Open> = vec![Open { depth: 0, lb: 0, first_kid: 0 }];
        // Depth of the first interval the unpruned scan closes: the LCP
        // value before the array's first descent.
        let mut first_closed_depth: Option<u32> = None;
        let mut prev_lcp = if n > 0 { gsa.lcp_at(0) } else { 0 };

        for i in 1..=n {
            let full = if i < n { gsa.lcp_at(i) } else { trail };
            if first_closed_depth.is_none() && full < prev_lcp {
                first_closed_depth = Some(prev_lcp);
            }
            prev_lcp = full;
            // A boundary below the cut separates top-level kept intervals
            // exactly as a boundary at the root's depth does.
            let l = if full >= min_depth { full } else { 0 };
            // A newly opened interval always includes the previous rank.
            let mut lb = (i - 1) as u32;
            let mut first_kid = kids.len();
            while l < stack.last().expect("root never popped").depth {
                let top = stack.pop().expect("checked non-empty");
                lb = top.lb;
                let id = depths.len() as NodeId;
                depths.push(top.depth);
                ranges.push((top.lb, i as u32));
                child_runs.push((child_ids.len() as u32, (kids.len() - top.first_kid) as u32));
                child_ids.extend(kids.drain(top.first_kid..));
                // The closed node is a child of the interval beneath it, or
                // the first child of the one about to open around it.
                first_kid = kids.len();
                kids.push(id);
            }
            if l > stack.last().expect("root remains").depth {
                stack.push(Open { depth: l, lb, first_kid });
            }
        }
        debug_assert_eq!(stack.len(), 1);
        child_runs[0] = (child_ids.len() as u32, kids.len() as u32);
        child_ids.append(&mut kids);

        let tree = SuffixTree { gsa, min_depth, depths, ranges, child_ids, child_runs };
        (tree, first_closed_depth)
    }

    /// Renumber so that node 1, the first to close, carries the last id.
    fn move_first_closed_last(&mut self) {
        let last = (self.depths.len() - 1) as NodeId;
        if last > 1 {
            self.depths[1..].rotate_left(1);
            self.ranges[1..].rotate_left(1);
            self.child_runs[1..].rotate_left(1);
            // The root is nobody's child.
            let renumber = |k: &mut NodeId| {
                *k = match *k {
                    0 => 0,
                    1 => last,
                    k => k - 1,
                }
            };
            self.child_ids.iter_mut().for_each(renumber);
        }
    }

    /// Depth below which this tree holds no node but the root (`0` for
    /// the full tree).
    pub fn min_depth(&self) -> u32 {
        self.min_depth
    }

    /// The underlying generalized suffix array.
    pub fn gsa(&self) -> &GeneralizedSuffixArray {
        self.gsa
    }

    /// Number of internal nodes (including the root).
    pub fn n_nodes(&self) -> usize {
        self.depths.len()
    }

    /// String depth of `node`.
    #[inline]
    pub fn depth(&self, node: NodeId) -> u32 {
        self.depths[node as usize]
    }

    /// SA rank range `[l, r)` of `node`.
    #[inline]
    pub fn range(&self, node: NodeId) -> (u32, u32) {
        self.ranges[node as usize]
    }

    /// Internal-node children of `node`.
    #[inline]
    pub fn children(&self, node: NodeId) -> &[NodeId] {
        let (start, len) = self.child_runs[node as usize];
        &self.child_ids[start as usize..(start + len) as usize]
    }

    /// Child groups of `node`: each internal child contributes its rank
    /// range; every rank not covered by an internal child is a singleton
    /// leaf group. Groups are returned in rank order and partition the
    /// node's range.
    pub fn child_groups(&self, node: NodeId) -> Vec<(u32, u32)> {
        let (l, r) = self.range(node);
        let mut kid_ranges: Vec<(u32, u32)> =
            self.children(node).iter().map(|&k| self.range(k)).collect();
        kid_ranges.sort_unstable();
        let mut groups = Vec::with_capacity(kid_ranges.len() + 2);
        let mut cursor = l;
        for (kl, kr) in kid_ranges {
            while cursor < kl {
                groups.push((cursor, cursor + 1));
                cursor += 1;
            }
            groups.push((kl, kr));
            cursor = kr;
        }
        while cursor < r {
            groups.push((cursor, cursor + 1));
            cursor += 1;
        }
        groups
    }

    /// Node ids ordered by decreasing string depth (root last).
    pub fn nodes_by_depth_desc(&self) -> Vec<NodeId> {
        let mut ids: Vec<NodeId> = (0..self.n_nodes() as NodeId).collect();
        ids.sort_by_key(|&a| std::cmp::Reverse(self.depth(a)));
        ids
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

    #[test]
    fn root_covers_everything() {
        let set = set_of(&["MKVLW", "ACD"]);
        let g = GeneralizedSuffixArray::build(&set);
        let t = SuffixTree::build(&g);
        assert_eq!(t.depth(0), 0);
        assert_eq!(t.range(0), (0, g.sa().len() as u32));
    }

    #[test]
    fn child_groups_partition_parent_range() {
        let set = set_of(&["MKVLWMKV", "AAMKVAA"]);
        let g = GeneralizedSuffixArray::build(&set);
        let t = SuffixTree::build(&g);
        for node in 0..t.n_nodes() as NodeId {
            let (l, r) = t.range(node);
            let groups = t.child_groups(node);
            let mut cursor = l;
            for (gl, gr) in &groups {
                assert_eq!(*gl, cursor, "gap in groups of node {node}");
                assert!(gr > gl);
                cursor = *gr;
            }
            assert_eq!(cursor, r, "groups must cover node {node}");
        }
    }

    #[test]
    fn internal_nodes_have_at_least_two_groups() {
        let set = set_of(&["MKVLWMKV", "AAMKVAA", "MKWW"]);
        let g = GeneralizedSuffixArray::build(&set);
        let t = SuffixTree::build(&g);
        for node in 0..t.n_nodes() as NodeId {
            assert!(
                t.child_groups(node).len() >= 2,
                "internal node {node} (depth {}) must branch",
                t.depth(node)
            );
        }
    }

    #[test]
    fn depths_increase_downward() {
        let set = set_of(&["MKVLWMKVLW", "KVLWMK"]);
        let g = GeneralizedSuffixArray::build(&set);
        let t = SuffixTree::build(&g);
        let mut n_children = 0;
        for p in 0..t.n_nodes() as NodeId {
            for &node in t.children(p) {
                assert!(t.depth(node) > t.depth(p), "node {node} depth vs parent");
                let (pl, pr) = t.range(p);
                let (l, r) = t.range(node);
                assert!(pl <= l && r <= pr, "child range not nested");
                n_children += 1;
            }
        }
        assert_eq!(n_children, t.n_nodes() - 1, "every node but the root is a child once");
    }

    #[test]
    fn node_depth_is_true_lcp_of_its_range() {
        let set = set_of(&["MKVLWMKV", "AAMKVAA"]);
        let g = GeneralizedSuffixArray::build(&set);
        let t = SuffixTree::build(&g);
        for node in 0..t.n_nodes() as NodeId {
            let (l, r) = t.range(node);
            // min of lcp[l+1..r] equals the node depth.
            let min_lcp = (l + 1..r).map(|i| g.lcp_at(i as usize)).min();
            if let Some(m) = min_lcp {
                assert_eq!(m, t.depth(node), "node {node}");
            }
        }
    }

    #[test]
    fn repeated_sequence_creates_deep_node() {
        let set = set_of(&["MKVLWAAK", "MKVLWAAK"]);
        let g = GeneralizedSuffixArray::build(&set);
        let t = SuffixTree::build(&g);
        let max_depth = (0..t.n_nodes() as NodeId).map(|n| t.depth(n)).max().unwrap();
        assert_eq!(max_depth, 8, "full-length repeat must form a depth-8 node");
    }

    #[test]
    fn nodes_by_depth_desc_is_sorted() {
        let set = set_of(&["MKVLWMKV", "AAMKVAA"]);
        let g = GeneralizedSuffixArray::build(&set);
        let t = SuffixTree::build(&g);
        let order = t.nodes_by_depth_desc();
        for w in order.windows(2) {
            assert!(t.depth(w[0]) >= t.depth(w[1]));
        }
        assert_eq!(*order.last().unwrap(), 0, "root (depth 0) sorts last");
    }
}
