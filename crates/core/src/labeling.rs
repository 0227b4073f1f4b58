//! The label-space arena of a rooted tree.
//!
//! The paper's algorithms never mention original vertex ids: after the DFS
//! relabeling, every rule is stated in terms of a vertex's label `i`, its
//! subtree range `[i, j]`, its level `k`, and its parent's label `i'` and
//! range end `j'`. [`FlatLabels`], the one label arena every generator
//! reads, packs those quantities into flat arrays indexed by label, plus
//! the mapping back to the original vertex ids that emitted schedules use.

use gossip_graph::{RootedTree, NO_PARENT};

/// Per-label scheduling parameters (the paper's `i`, `j`, `k`, `i'`, `j'`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VertexParams {
    /// The vertex's DFS label `i` (also its message's id).
    pub i: u32,
    /// The largest label `j` in the vertex's subtree.
    pub j: u32,
    /// The vertex's level `k` (root = 0).
    pub k: u32,
    /// The parent's label `i'`; `u32::MAX` for the root.
    pub parent_i: u32,
    /// The parent's range end `j'`; `u32::MAX` for the root.
    pub parent_j: u32,
}

impl VertexParams {
    /// Whether this vertex is the root.
    #[inline]
    pub fn is_root(&self) -> bool {
        self.parent_i == u32::MAX
    }

    /// Whether this vertex is a leaf (`i == j`: its subtree is itself).
    #[inline]
    pub fn is_leaf(&self) -> bool {
        self.i == self.j
    }

    /// Whether this vertex's own message is the *lookahead-in-parent*
    /// message: `i = i' + 1`, i.e. this is its parent's first child in DFS
    /// order. The paper's `w` (number of lip-messages) is 1 here, else 0.
    #[inline]
    pub fn has_lip(&self) -> bool {
        !self.is_root() && self.i == self.parent_i + 1
    }

    /// The paper's `w`: the number of lip-messages at this vertex (0 or 1).
    #[inline]
    pub fn w(&self) -> u32 {
        self.has_lip() as u32
    }

    /// The first *remaining-in-parent* message, `max(i, i' + 2)`; rip
    /// messages are `rip_start()..=j` (empty when `rip_start() > j`).
    #[inline]
    pub fn rip_start(&self) -> u32 {
        debug_assert!(!self.is_root());
        self.i.max(self.parent_i + 2)
    }
}

/// The per-label arena: a rooted tree re-indexed by DFS label, packed into
/// flat arrays (children as CSR), with the label → vertex translation used
/// to emit schedules in vertex space.
#[derive(Debug, Clone)]
pub struct FlatLabels {
    /// Subtree range end `j` per label (`i..=j` is the subtree).
    j: Vec<u32>,
    /// Level `k` per label (root = 0).
    k: Vec<u32>,
    /// Parent label per label; [`NO_PARENT`] for the root.
    parent: Vec<u32>,
    /// Original vertex id per label.
    vertex: Vec<u32>,
    /// CSR offsets into `child_labels`, length n + 1.
    child_offsets: Vec<u32>,
    /// Children as labels, ascending within each vertex (DFS order).
    child_labels: Vec<u32>,
    /// Tree height (max level).
    height: u32,
}

impl FlatLabels {
    /// Packs `tree` into the flat label-space arena (the `label_flat`
    /// profiler phase).
    pub fn new(tree: &RootedTree) -> Self {
        let _phase = gossip_telemetry::profile::phase("label_flat");
        Self::build(tree)
    }

    /// [`FlatLabels::new`] without a profiler phase of its own, for callers
    /// that attribute the packing to theirs.
    pub(crate) fn build(tree: &RootedTree) -> Self {
        let n = tree.n();
        let mut j = Vec::with_capacity(n);
        let mut k = Vec::with_capacity(n);
        let mut parent = Vec::with_capacity(n);
        let mut vertex = Vec::with_capacity(n);
        let mut child_offsets = Vec::with_capacity(n + 1);
        let mut child_labels = Vec::with_capacity(n.saturating_sub(1));
        child_offsets.push(0u32);
        for label in 0..n as u32 {
            let v = tree.vertex_of_label(label);
            let (i0, j0) = tree.subtree_range(v);
            debug_assert_eq!(i0, label);
            j.push(j0);
            k.push(tree.level(v));
            parent.push(match tree.parent(v) {
                Some(p) => tree.label(p),
                None => NO_PARENT,
            });
            vertex.push(v as u32);
            for &c in tree.children(v) {
                child_labels.push(tree.label(c as usize));
            }
            child_offsets.push(child_labels.len() as u32);
        }
        debug_assert!(
            child_offsets
                .windows(2)
                .all(|w| child_labels[w[0] as usize..w[1] as usize].is_sorted()),
            "DFS child labels must ascend within each vertex"
        );
        FlatLabels {
            j,
            k,
            parent,
            vertex,
            child_offsets,
            child_labels,
            height: tree.height(),
        }
    }

    /// Number of vertices (= messages).
    #[inline]
    pub fn n(&self) -> usize {
        self.vertex.len()
    }

    /// Tree height (the `r` in the `n + r` bound when the tree is a
    /// minimum-depth spanning tree).
    #[inline]
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Labels in `0..n` (ascending label = DFS preorder).
    pub fn labels(&self) -> std::ops::Range<u32> {
        0..self.n() as u32
    }

    /// Scheduling parameters of the vertex with label `label`.
    #[inline]
    pub fn params(&self, label: u32) -> VertexParams {
        let parent_i = self.parent(label);
        let parent_j = if parent_i == NO_PARENT {
            u32::MAX
        } else {
            self.j(parent_i)
        };
        VertexParams {
            i: label,
            j: self.j(label),
            k: self.k(label),
            parent_i,
            parent_j,
        }
    }

    /// Subtree range end `j` of `label`.
    #[inline]
    pub(crate) fn j(&self, label: u32) -> u32 {
        self.j[label as usize]
    }

    /// Level `k` of `label`.
    #[inline]
    pub(crate) fn k(&self, label: u32) -> u32 {
        self.k[label as usize]
    }

    /// Parent label of `label` ([`NO_PARENT`] for the root).
    #[inline]
    pub fn parent(&self, label: u32) -> u32 {
        self.parent[label as usize]
    }

    /// Original vertex id of `label`.
    #[inline]
    pub fn vertex(&self, label: u32) -> u32 {
        self.vertex[label as usize]
    }

    /// Children of `label` as labels, in DFS order (which in label space
    /// is simply ascending).
    #[inline]
    pub fn children(&self, label: u32) -> &[u32] {
        let lo = self.child_offsets[label as usize] as usize;
        let hi = self.child_offsets[label as usize + 1] as usize;
        &self.child_labels[lo..hi]
    }

    /// The origin table for the simulator: message `m` originates at
    /// `origins()[m]` (the original vertex whose label is `m`; same as
    /// [`tree_origins`](crate::tree_origins)).
    pub fn origins(&self) -> Vec<usize> {
        self.vertex.iter().map(|&v| v as usize).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reconstructed Fig 5 tree (vertex id == label by construction).
    fn fig5() -> RootedTree {
        let mut p = vec![0u32; 16];
        for (v, par) in [
            (1, 0),
            (2, 1),
            (3, 1),
            (4, 0),
            (5, 4),
            (6, 5),
            (7, 5),
            (8, 4),
            (9, 8),
            (10, 8),
            (11, 0),
            (12, 11),
            (13, 12),
            (14, 12),
            (15, 11),
        ] {
            p[v] = par;
        }
        p[0] = NO_PARENT;
        RootedTree::from_parents(0, &p).unwrap()
    }

    #[test]
    fn params_of_fig5_vertices() {
        let lv = FlatLabels::new(&fig5());
        let p0 = lv.params(0);
        assert!(p0.is_root());
        assert_eq!((p0.i, p0.j, p0.k), (0, 15, 0));

        let p4 = lv.params(4);
        assert_eq!((p4.i, p4.j, p4.k), (4, 10, 1));
        assert_eq!((p4.parent_i, p4.parent_j), (0, 15));
        assert!(!p4.has_lip()); // 4 != 0 + 1
        assert_eq!(p4.rip_start(), 4);

        let p1 = lv.params(1);
        assert!(p1.has_lip()); // 1 == 0 + 1
        assert_eq!(p1.w(), 1);
        assert_eq!(p1.rip_start(), 2);

        let p8 = lv.params(8);
        assert_eq!((p8.i, p8.j, p8.k), (8, 10, 2));
        assert!(!p8.has_lip()); // parent 4's first child is 5
        assert_eq!(p8.rip_start(), 8);

        let p5 = lv.params(5);
        assert!(p5.has_lip()); // 5 == 4 + 1
    }

    #[test]
    fn children_in_label_space() {
        let lv = FlatLabels::new(&fig5());
        assert_eq!(lv.children(0), &[1, 4, 11]);
        assert_eq!(lv.children(4), &[5, 8]);
        assert_eq!(lv.children(3), &[] as &[u32]);
    }

    #[test]
    fn origins_identity_when_ids_equal_labels() {
        let lv = FlatLabels::new(&fig5());
        assert_eq!(lv.origins(), (0..16).collect::<Vec<usize>>());
    }

    #[test]
    fn label_view_with_permuted_ids() {
        // A path 2 - 0 - 1 rooted at 2: labels 2->0, 0->1, 1->2.
        let t = RootedTree::from_parents(2, &[2, 0, NO_PARENT]).unwrap();
        let lv = FlatLabels::new(&t);
        assert_eq!(lv.vertex(0), 2);
        assert_eq!(lv.vertex(1), 0);
        assert_eq!(lv.vertex(2), 1);
        assert_eq!(lv.origins(), vec![2, 0, 1]);
        let p1 = lv.params(1);
        assert_eq!((p1.i, p1.j, p1.k), (1, 2, 1));
    }

    #[test]
    fn leaf_detection() {
        let lv = FlatLabels::new(&fig5());
        assert!(lv.params(3).is_leaf());
        assert!(lv.params(15).is_leaf());
        assert!(!lv.params(12).is_leaf());
    }
}
