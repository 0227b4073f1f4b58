//! Minimum-depth spanning tree construction (the paper's §3.1).
//!
//! "Such a tree can be easily constructed by performing n breadth-first
//! search (BFS) traversals of the graph starting at each vertex and then
//! selecting the tree with least height (or depth). This procedure takes
//! O(mn) time."
//!
//! The height of the winning tree equals the graph radius `r`, and its root
//! is a center vertex: the BFS tree from `v` has height = eccentricity(`v`),
//! minimized over center vertices; ties go to the smallest root id. The
//! sweep evaluates 64 roots per bitset BFS ([`fast::eval_batch`]) with the
//! scalar decision rule, and [`fast`] adds a pruned variant for large n.

use crate::bfs::{bfs, bfs_into};
use crate::error::GraphError;
use crate::graph::Graph;
use crate::tree::{RootedTree, NO_PARENT};
use gossip_telemetry::{NoopRecorder, Recorder, RecorderExt};
use std::time::Instant;

pub mod fast;

/// How child order is fixed when a BFS parent forest is turned into a
/// [`RootedTree`].
///
/// The paper allows "any arbitrary order"; the schedule length is `n + r`
/// regardless, but the concrete schedule differs, so reproducible builds fix
/// the order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChildOrder {
    /// Children sorted by ascending vertex id (deterministic, the default).
    #[default]
    ById,
    /// Children sorted by descending subtree size (largest subtree first).
    /// Exposed for schedule-shape experiments; still deterministic.
    LargestSubtreeFirst,
}

/// Builds the BFS spanning tree of `g` rooted at `root`.
///
/// Errors with [`GraphError::Disconnected`] if `g` is not connected and
/// [`GraphError::EmptyGraph`] on zero vertices.
pub fn bfs_tree(g: &Graph, root: usize, order: ChildOrder) -> Result<RootedTree, GraphError> {
    if g.n() == 0 {
        return Err(GraphError::EmptyGraph);
    }
    let r = bfs(g, root);
    if !r.all_reached() {
        return Err(GraphError::Disconnected);
    }
    parents_to_tree(root, &r.parent, order)
}

/// Finds a spanning tree of minimum possible height: the eccentricity of
/// every vertex up to an early exit, keep the shallowest (ties to the
/// smallest root id).
///
/// The returned tree's height equals the radius of `g`.
pub fn min_depth_spanning_tree(g: &Graph, order: ChildOrder) -> Result<RootedTree, GraphError> {
    min_depth_spanning_tree_recorded(g, order, &NoopRecorder)
}

/// [`min_depth_spanning_tree`] with telemetry: one `spanning_tree` span,
/// a `spanning/bfs_sweep_ns` histogram sample per examined root, sweep /
/// early-exit counters, and a `spanning/radius` gauge.
///
/// The paper's n traversals run as 64-source bitset batches
/// ([`fast::eval_batch`]) in ascending root order, one `bfs_sweep` profiler
/// phase per batch. The decision is the scalar sweep's: the first root
/// strictly below the incumbent eccentricity wins, and the sweep stops at
/// the first root that reaches `ceil(ecc(0) / 2)`. Unlike
/// [`fast::min_depth_spanning_tree_fast`] nothing is pruned, so the root is
/// always the smallest-id center. Counters and samples cover the roots up
/// to that decision (n, or the early-exit root's id + 1); each sample is
/// its batch's time divided by the batch size.
pub fn min_depth_spanning_tree_recorded(
    g: &Graph,
    order: ChildOrder,
    recorder: &dyn Recorder,
) -> Result<RootedTree, GraphError> {
    if g.n() == 0 {
        return Err(GraphError::EmptyGraph);
    }
    let _span = recorder.span("spanning_tree");
    // A cheap lower bound for early exit: any eccentricity lower-bounds the
    // diameter, and `r >= ceil(d / 2)`. Its BFS is also the connectivity
    // check the batches assume.
    let (mut scratch, radius_floor) = {
        let _p = gossip_telemetry::profile::phase("radius_bound");
        let r0 = bfs(g, 0);
        let ecc0 = r0.eccentricity().ok_or(GraphError::Disconnected)?;
        (r0, ecc0.div_ceil(2))
    };
    let n = g.n();
    let mut best: Option<(u32, usize)> = None;
    let mut sweeps = 0u64;
    let mut sources: Vec<u32> = Vec::with_capacity(fast::BATCH);
    'sweep: for start in (0..n).step_by(fast::BATCH) {
        sources.clear();
        sources.extend(start as u32..(start + fast::BATCH).min(n) as u32);
        let t0 = recorder.enabled().then(Instant::now);
        let eccs = {
            let _sweep = gossip_telemetry::profile::phase("bfs_sweep");
            let eccs = fast::eval_batch(g, &sources);
            fast::count_frontier_popped(&eccs);
            eccs
        };
        let per_root_ns = t0.map(|t0| t0.elapsed().as_nanos() as f64 / sources.len() as f64);
        for (ecc, v) in eccs {
            if let Some(ns) = per_root_ns {
                recorder.observe("spanning/bfs_sweep_ns", ns);
            }
            sweeps += 1;
            if best.is_none_or(|(best_ecc, _)| ecc < best_ecc) {
                best = Some((ecc, v as usize));
                if ecc == radius_floor {
                    // Cannot do better than a known lower bound; stop early.
                    recorder.counter("spanning/early_exit", 1);
                    break 'sweep;
                }
            }
        }
    }
    let (radius, root) = best.expect("n > 0");
    gossip_telemetry::profile::count("bfs_sweeps", sweeps);
    if recorder.enabled() {
        recorder.counter("spanning/sweeps", sweeps);
        recorder.gauge("spanning/radius", f64::from(radius));
        recorder.event(
            "spanning_tree",
            &[
                (
                    "mode",
                    gossip_telemetry::Value::String("sequential".to_string()),
                ),
                ("sweeps", gossip_telemetry::Value::from_u64(sweeps)),
                (
                    "radius",
                    gossip_telemetry::Value::from_u64(u64::from(radius)),
                ),
                ("root", gossip_telemetry::Value::from_u64(root as u64)),
            ],
        );
    }
    // One scalar sweep from the winner gives the parent array: the same BFS
    // a one-root-at-a-time sweep keeps, so the tree is the same too.
    bfs_into(g, root, &mut scratch);
    debug_assert_eq!(scratch.eccentricity(), Some(radius));
    parents_to_tree(root, &scratch.parent, order)
}

pub(crate) fn parents_to_tree(
    root: usize,
    parent: &[u32],
    order: ChildOrder,
) -> Result<RootedTree, GraphError> {
    let _phase = gossip_telemetry::profile::phase("build_tree");
    gossip_telemetry::profile::count("tree_edges", parent.len().saturating_sub(1) as u64);
    let mut parent = parent.to_vec();
    parent[root] = NO_PARENT;
    match order {
        ChildOrder::ById => RootedTree::from_parents(root, &parent),
        ChildOrder::LargestSubtreeFirst => {
            let n = parent.len();
            // Subtree sizes via reverse-level accumulation.
            let tmp = RootedTree::from_parents(root, &parent)?;
            let mut size = vec![1u32; n];
            let mut bfs_order = tmp.bfs_order();
            bfs_order.reverse();
            for v in bfs_order {
                if let Some(p) = tmp.parent(v) {
                    size[p] += size[v];
                }
            }
            let mut children: Vec<Vec<u32>> = (0..n).map(|v| tmp.children(v).to_vec()).collect();
            for kids in &mut children {
                kids.sort_by_key(|&c| (std::cmp::Reverse(size[c as usize]), c));
            }
            RootedTree::from_parents_with_child_order(root, &parent, children)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::distance_metrics;

    fn path(n: usize) -> Graph {
        Graph::from_edges(n, &(0..n - 1).map(|i| (i, i + 1)).collect::<Vec<_>>()).unwrap()
    }

    fn cycle(n: usize) -> Graph {
        Graph::from_edges(n, &(0..n).map(|i| (i, (i + 1) % n)).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn path_tree_rooted_at_center() {
        let g = path(7);
        let t = min_depth_spanning_tree(&g, ChildOrder::ById).unwrap();
        assert_eq!(t.root(), 3);
        assert_eq!(t.height(), 3);
        assert!(t.is_spanning_tree_of(&g));
    }

    #[test]
    fn tree_height_equals_radius() {
        for g in [path(9), cycle(8), cycle(9), path(2)] {
            let r = distance_metrics(&g).unwrap().radius;
            let t = min_depth_spanning_tree(&g, ChildOrder::ById).unwrap();
            assert_eq!(t.height(), r);
        }
    }

    #[test]
    fn complete_graph_star_tree() {
        let mut edges = Vec::new();
        for u in 0..6 {
            for v in (u + 1)..6 {
                edges.push((u, v));
            }
        }
        let g = Graph::from_edges(6, &edges).unwrap();
        let t = min_depth_spanning_tree(&g, ChildOrder::ById).unwrap();
        assert_eq!(t.height(), 1);
        assert_eq!(t.children(t.root()).len(), 5);
    }

    #[test]
    fn bfs_tree_specific_root() {
        let g = path(5);
        let t = bfs_tree(&g, 0, ChildOrder::ById).unwrap();
        assert_eq!(t.root(), 0);
        assert_eq!(t.height(), 4); // not minimum depth: rooted at an end
    }

    #[test]
    fn disconnected_errors() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert_eq!(
            min_depth_spanning_tree(&g, ChildOrder::ById).unwrap_err(),
            GraphError::Disconnected
        );
        assert_eq!(
            bfs_tree(&g, 0, ChildOrder::ById).unwrap_err(),
            GraphError::Disconnected
        );
    }

    #[test]
    fn empty_errors() {
        let g = Graph::from_edges(0, &[]).unwrap();
        assert_eq!(
            min_depth_spanning_tree(&g, ChildOrder::ById).unwrap_err(),
            GraphError::EmptyGraph
        );
    }

    #[test]
    fn singleton_tree() {
        let g = Graph::from_edges(1, &[]).unwrap();
        let t = min_depth_spanning_tree(&g, ChildOrder::ById).unwrap();
        assert_eq!(t.n(), 1);
        assert_eq!(t.height(), 0);
    }

    #[test]
    fn largest_subtree_first_order() {
        // Path rooted at center: both subtrees are chains; with a lopsided
        // tree the bigger side must come first.
        let g = path(6); // centers 2 and 3; root 2 has sides {0,1} and {3,4,5}
        let t = min_depth_spanning_tree(&g, ChildOrder::LargestSubtreeFirst).unwrap();
        assert_eq!(t.root(), 2);
        let kids = t.children(2);
        assert_eq!(kids[0], 3); // subtree of size 3 before size 2
        assert_eq!(kids[1], 1);
    }

    #[test]
    fn child_order_preserves_height() {
        let g = cycle(10);
        let a = min_depth_spanning_tree(&g, ChildOrder::ById).unwrap();
        let b = min_depth_spanning_tree(&g, ChildOrder::LargestSubtreeFirst).unwrap();
        assert_eq!(a.height(), b.height());
    }
}
