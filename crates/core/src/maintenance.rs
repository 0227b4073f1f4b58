//! Lazy spanning-tree maintenance under topology changes (the paper's §4
//! operating assumption, made concrete).
//!
//! "The construction of the tree is performed only when there is a change
//! in the network, which we assume remains constant for long periods of
//! time." This module implements the bookkeeping a long-running deployment
//! needs: hold the current plan, apply edge insertions/removals, and
//! recompute the minimum-depth tree — with its `O(mn)` cost — only when the
//! change actually invalidates or degrades the plan:
//!
//! - removing a **non-tree** edge never invalidates the tree, and can only
//!   increase the radius, so the current tree (height = old radius ≤ new
//!   radius) stays optimal — no recompute;
//! - removing a **tree** edge forces a rebuild (the tree no longer spans);
//! - inserting an edge keeps the tree valid but may shrink the radius; the
//!   maintainer recomputes lazily and keeps the old plan when the radius is
//!   unchanged.
//!
//! Every commit leaves the tree's height equal to the radius of `graph()`:
//! a rebuilt tree is the new graph's, and a kept tree still spans the new
//! graph (so its radius is at most the tree's height) while the rebuild
//! rule guarantees it did not shrink. So only a batch that inserts needs a
//! radius at all.
//!
//! The rule reads the tree alone, so a rebuild constructs only the tree.
//! The schedule is generated from it on the first [`TreeMaintainer::plan`]
//! after each rebuild; a caller that only reads the tree, like the churn
//! executor between batches, never pays for one.

use crate::pipeline::{GossipPlan, GossipPlanner};
use gossip_graph::{min_depth_spanning_tree, ChildOrder, Graph, GraphError, RootedTree};
use std::sync::OnceLock;

/// What a topology change did to the maintained plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaintenanceOutcome {
    /// The existing tree and schedule remain in force.
    Kept,
    /// The tree was rebuilt; the next [`TreeMaintainer::plan`] generates
    /// the schedule on it.
    Rebuilt,
}

/// One edge operation in a [`TreeMaintainer::batch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeOp {
    /// Insert edge `(u, v)`.
    Insert(usize, usize),
    /// Remove edge `(u, v)`.
    Remove(usize, usize),
}

/// A long-lived planner that owns the evolving network, its minimum-depth
/// spanning tree and, once read, the gossip plan on that tree.
#[derive(Debug, Clone)]
pub struct TreeMaintainer {
    graph: Graph,
    tree: RootedTree,
    /// The plan on `tree`, generated on the first [`TreeMaintainer::plan`]
    /// since the tree was built.
    plan: OnceLock<GossipPlan>,
    rebuilds: usize,
    #[cfg(test)]
    fail_next_rebuild: bool,
}

// The lazy plan keeps the maintainer shareable across threads.
const _: () = {
    const fn send_sync_clone<T: Send + Sync + Clone>() {}
    send_sync_clone::<TreeMaintainer>();
};

impl TreeMaintainer {
    /// Builds the minimum-depth spanning tree of the initial network.
    pub fn new(graph: Graph) -> Result<Self, GraphError> {
        let tree = min_depth_spanning_tree(&graph, ChildOrder::default())?;
        Ok(TreeMaintainer {
            graph,
            tree,
            plan: OnceLock::new(),
            rebuilds: 1,
            #[cfg(test)]
            fail_next_rebuild: false,
        })
    }

    /// The current network.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The current minimum-depth spanning tree; its height is the radius
    /// of [`TreeMaintainer::graph`].
    pub fn tree(&self) -> &RootedTree {
        &self.tree
    }

    /// The current plan: the default planner's schedule on
    /// [`TreeMaintainer::tree`], generated on the first call after each
    /// rebuild.
    pub fn plan(&self) -> &GossipPlan {
        self.plan.get_or_init(|| {
            GossipPlanner::new(&self.graph)
                .expect("the maintainer holds a connected network")
                .plan_on_tree(self.tree.clone())
        })
    }

    /// How many times the `O(mn)` tree construction has run (including
    /// the initial build).
    pub fn rebuilds(&self) -> usize {
        self.rebuilds
    }

    /// Applies an edge insertion: a one-op [`TreeMaintainer::batch`], so
    /// it keeps the plan when the radius is unchanged and rebuilds when
    /// the new chord shrinks it.
    ///
    /// Atomic: on any error (including a failed rebuild) the maintainer's
    /// graph and plan are both unchanged, so they never disagree.
    pub fn insert_edge(&mut self, u: usize, v: usize) -> Result<MaintenanceOutcome, GraphError> {
        self.batch(&[EdgeOp::Insert(u, v)])
    }

    /// Applies an edge removal: a one-op [`TreeMaintainer::batch`], so it
    /// errors with [`GraphError::Disconnected`] if the removal would
    /// disconnect the network and otherwise rebuilds only when a tree edge
    /// was lost.
    ///
    /// Atomic: on any error (including a failed rebuild) the maintainer's
    /// graph and plan are both unchanged, so they never disagree.
    pub fn remove_edge(&mut self, u: usize, v: usize) -> Result<MaintenanceOutcome, GraphError> {
        self.batch(&[EdgeOp::Remove(u, v)])
    }

    /// Applies several edge operations atomically, in order, with one
    /// rebuild decision at the end — at most one `O(mn)` construction no
    /// matter how many operations the batch carries.
    ///
    /// All-or-nothing: if any operation is invalid (duplicate insert,
    /// missing removal), the batch disconnects the network, or the rebuild
    /// itself fails, the maintainer's graph and plan are both unchanged —
    /// callers never observe a torn intermediate state, which a loop of
    /// single ops cannot promise under panic or mid-loop error.
    pub fn batch(&mut self, ops: &[EdgeOp]) -> Result<MaintenanceOutcome, GraphError> {
        let mut candidate = self.graph.clone();
        let mut tree_edge_lost = false;
        let mut inserts = false;
        for op in ops {
            match *op {
                EdgeOp::Insert(u, v) => {
                    candidate = candidate.with_edge(u, v)?;
                    inserts = true;
                }
                EdgeOp::Remove(u, v) => {
                    candidate = candidate.without_edge(u, v)?;
                    tree_edge_lost |=
                        self.tree.parent(u) == Some(v) || self.tree.parent(v) == Some(u);
                }
            }
        }
        if !gossip_graph::is_connected(&candidate) {
            return Err(GraphError::Disconnected);
        }
        // One decision for the whole batch: rebuild if the tree no longer
        // spans (a tree edge was removed) or is no longer optimal (the net
        // effect shrank the radius below the tree's height). Only an
        // insertion can shrink it: a removal never shortens a distance, and
        // the tree's height is the current graph's radius after every
        // commit.
        let rebuild =
            tree_edge_lost || (inserts && gossip_graph::radius(&candidate)? < self.tree.height());
        if rebuild {
            let tree = self.build_tree(&candidate)?;
            self.commit(candidate, Some(tree));
            Ok(MaintenanceOutcome::Rebuilt)
        } else {
            self.commit(candidate, None);
            Ok(MaintenanceOutcome::Kept)
        }
    }

    /// Runs the `O(mn)` construction against a candidate graph without
    /// touching the maintainer's state.
    fn build_tree(&mut self, graph: &Graph) -> Result<RootedTree, GraphError> {
        #[cfg(test)]
        if self.fail_next_rebuild {
            self.fail_next_rebuild = false;
            return Err(GraphError::Disconnected);
        }
        min_depth_spanning_tree(graph, ChildOrder::default())
    }

    /// Commits a validated candidate graph (and rebuilt tree, if any) in
    /// one step — the only place maintainer state changes. A new tree
    /// drops the plan generated on the old one.
    fn commit(&mut self, graph: Graph, tree: Option<RootedTree>) {
        self.graph = graph;
        if let Some(tree) = tree {
            self.tree = tree;
            self.plan = OnceLock::new();
            self.rebuilds += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_model::simulate_gossip;

    fn ring(n: usize) -> Graph {
        Graph::from_edges(n, &(0..n).map(|i| (i, (i + 1) % n)).collect::<Vec<_>>()).unwrap()
    }

    fn assert_plan_valid(m: &TreeMaintainer) {
        let o =
            simulate_gossip(m.graph(), &m.plan().schedule, &m.plan().origin_of_message).unwrap();
        assert!(o.complete);
        assert!(m.plan().tree.is_spanning_tree_of(m.graph()));
        // Optimality: tree height == current radius.
        assert_eq!(
            m.plan().tree.height(),
            gossip_graph::radius(m.graph()).unwrap()
        );
    }

    #[test]
    fn non_tree_removal_keeps_plan() {
        let mut m = TreeMaintainer::new(ring(8)).unwrap();
        assert_plan_valid(&m);
        // A ring's minimum-depth tree omits exactly one edge; find it.
        let (u, v) = (0..8)
            .map(|i| (i, (i + 1) % 8))
            .find(|&(u, v)| {
                m.plan().tree.parent(u) != Some(v) && m.plan().tree.parent(v) != Some(u)
            })
            .expect("one ring edge is a chord");
        assert_eq!(m.remove_edge(u, v).unwrap(), MaintenanceOutcome::Kept);
        assert_eq!(m.rebuilds(), 1);
        assert_plan_valid(&m);
    }

    #[test]
    fn tree_edge_removal_rebuilds() {
        let mut m = TreeMaintainer::new(ring(8)).unwrap();
        let root = m.plan().tree.root();
        let child = m.plan().tree.children(root)[0] as usize;
        assert_eq!(
            m.remove_edge(root, child).unwrap(),
            MaintenanceOutcome::Rebuilt
        );
        assert_eq!(m.rebuilds(), 2);
        assert_plan_valid(&m);
    }

    #[test]
    fn disconnecting_removal_rejected_and_state_preserved() {
        let path = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let mut m = TreeMaintainer::new(path).unwrap();
        assert_eq!(m.remove_edge(1, 2).unwrap_err(), GraphError::Disconnected);
        assert!(m.graph().has_edge(1, 2), "removal must be rolled back");
        assert_plan_valid(&m);
    }

    #[test]
    fn radius_shrinking_insert_rebuilds() {
        // A path rooted at its center: adding a long chord shrinks the radius.
        let path = Graph::from_edges(7, &(0..6).map(|i| (i, i + 1)).collect::<Vec<_>>()).unwrap();
        let mut m = TreeMaintainer::new(path).unwrap();
        assert_eq!(m.plan().radius, 3);
        // Chord (1, 5) puts vertex 1 within 2 hops of everything.
        assert_eq!(m.insert_edge(1, 5).unwrap(), MaintenanceOutcome::Rebuilt);
        assert_eq!(m.plan().radius, 2);
        assert_plan_valid(&m);
    }

    #[test]
    fn radius_preserving_insert_keeps_plan() {
        let mut m = TreeMaintainer::new(ring(9)).unwrap();
        // A short chord does not change the radius of C9 (4).
        assert_eq!(m.insert_edge(0, 2).unwrap(), MaintenanceOutcome::Kept);
        assert_eq!(m.rebuilds(), 1);
        assert_plan_valid(&m);
    }

    #[test]
    fn failed_rebuild_rolls_back_insert() {
        // A path whose radius shrinks when a chord is added, forcing the
        // rebuild path; the injected rebuild failure must leave both the
        // graph and the plan exactly as they were.
        let path = Graph::from_edges(7, &(0..6).map(|i| (i, i + 1)).collect::<Vec<_>>()).unwrap();
        let mut m = TreeMaintainer::new(path).unwrap();
        let before_graph = m.graph().clone();
        let before_plan = m.plan().clone();
        m.fail_next_rebuild = true;
        assert!(m.insert_edge(1, 5).is_err());
        assert!(
            !m.graph().has_edge(1, 5),
            "graph change must be rolled back"
        );
        assert_eq!(m.graph().m(), before_graph.m());
        assert_eq!(m.plan().schedule, before_plan.schedule);
        assert_eq!(m.rebuilds(), 1);
        assert_plan_valid(&m);
        // The maintainer still works after the failed attempt.
        assert_eq!(m.insert_edge(1, 5).unwrap(), MaintenanceOutcome::Rebuilt);
        assert_plan_valid(&m);
    }

    #[test]
    fn failed_rebuild_rolls_back_remove() {
        let mut m = TreeMaintainer::new(ring(8)).unwrap();
        let root = m.plan().tree.root();
        let child = m.plan().tree.children(root)[0] as usize;
        let before_plan = m.plan().clone();
        m.fail_next_rebuild = true;
        assert!(m.remove_edge(root, child).is_err());
        assert!(
            m.graph().has_edge(root, child),
            "graph change must be rolled back"
        );
        assert_eq!(m.plan().schedule, before_plan.schedule);
        assert_eq!(m.rebuilds(), 1);
        assert_plan_valid(&m);
        assert_eq!(
            m.remove_edge(root, child).unwrap(),
            MaintenanceOutcome::Rebuilt
        );
        assert_plan_valid(&m);
    }

    #[test]
    fn batch_applies_all_ops_with_one_rebuild() {
        let mut m = TreeMaintainer::new(ring(8)).unwrap();
        let root = m.plan().tree.root();
        let child = m.plan().tree.children(root)[0] as usize;
        // Remove a tree edge and add two chords in one batch: exactly one
        // rebuild, not three.
        let ops = [
            EdgeOp::Remove(root, child),
            EdgeOp::Insert(0, 4),
            EdgeOp::Insert(1, 5),
        ];
        assert_eq!(m.batch(&ops).unwrap(), MaintenanceOutcome::Rebuilt);
        assert_eq!(m.rebuilds(), 2);
        assert!(!m.graph().has_edge(root, child));
        assert!(m.graph().has_edge(0, 4) && m.graph().has_edge(1, 5));
        assert_plan_valid(&m);
    }

    #[test]
    fn batch_keeps_plan_when_tree_unaffected() {
        let mut m = TreeMaintainer::new(ring(9)).unwrap();
        // Two short chords on the same arc: the tree still spans and C9's
        // radius (4) is unchanged — chords this local shortcut nothing far.
        let ops = [EdgeOp::Insert(0, 2), EdgeOp::Insert(1, 3)];
        assert_eq!(m.batch(&ops).unwrap(), MaintenanceOutcome::Kept);
        assert_eq!(m.rebuilds(), 1);
        assert_plan_valid(&m);
    }

    #[test]
    fn batch_is_all_or_nothing_on_invalid_op() {
        let mut m = TreeMaintainer::new(ring(8)).unwrap();
        let before = m.graph().clone();
        // The first op is fine, the second inserts a duplicate: nothing
        // may land.
        let ops = [EdgeOp::Insert(0, 3), EdgeOp::Insert(1, 2)];
        assert!(m.batch(&ops).is_err());
        assert!(!m.graph().has_edge(0, 3), "first op must be rolled back");
        assert_eq!(m.graph().m(), before.m());
        assert_eq!(m.rebuilds(), 1);
        assert_plan_valid(&m);
    }

    #[test]
    fn batch_rejects_net_disconnection() {
        let path = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let mut m = TreeMaintainer::new(path).unwrap();
        let ops = [EdgeOp::Insert(0, 2), EdgeOp::Remove(2, 3)];
        assert_eq!(m.batch(&ops).unwrap_err(), GraphError::Disconnected);
        assert!(!m.graph().has_edge(0, 2), "batch must be rolled back");
        assert!(m.graph().has_edge(2, 3));
        assert_plan_valid(&m);
    }

    #[test]
    fn batch_survives_mid_batch_disconnection_if_net_connected() {
        // Removing a path edge disconnects transiently; the insert in the
        // same batch restores connectivity, so the batch must succeed.
        let path = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let mut m = TreeMaintainer::new(path).unwrap();
        let ops = [EdgeOp::Remove(1, 2), EdgeOp::Insert(0, 2)];
        assert_eq!(m.batch(&ops).unwrap(), MaintenanceOutcome::Rebuilt);
        assert!(!m.graph().has_edge(1, 2));
        assert!(m.graph().has_edge(0, 2));
        assert_plan_valid(&m);
    }

    #[test]
    fn batch_failed_rebuild_rolls_back_everything() {
        let mut m = TreeMaintainer::new(ring(8)).unwrap();
        let root = m.plan().tree.root();
        let child = m.plan().tree.children(root)[0] as usize;
        let before_plan = m.plan().clone();
        m.fail_next_rebuild = true;
        assert!(m
            .batch(&[EdgeOp::Remove(root, child), EdgeOp::Insert(0, 4)])
            .is_err());
        assert!(m.graph().has_edge(root, child));
        assert!(!m.graph().has_edge(0, 4));
        assert_eq!(m.plan().schedule, before_plan.schedule);
        assert_eq!(m.rebuilds(), 1);
        assert_plan_valid(&m);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let mut m = TreeMaintainer::new(ring(6)).unwrap();
        assert_eq!(m.batch(&[]).unwrap(), MaintenanceOutcome::Kept);
        assert_eq!(m.rebuilds(), 1);
        assert_plan_valid(&m);
    }

    #[test]
    fn duplicate_insert_rejected() {
        let mut m = TreeMaintainer::new(ring(5)).unwrap();
        assert!(m.insert_edge(0, 1).is_err());
    }

    #[test]
    fn missing_removal_rejected() {
        let mut m = TreeMaintainer::new(ring(5)).unwrap();
        assert!(m.remove_edge(0, 2).is_err());
    }
}
