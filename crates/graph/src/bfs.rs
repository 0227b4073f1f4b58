//! Breadth-first search: distances, parents, traversal orders.
//!
//! BFS is the workhorse of the paper's §3.1: the minimum-depth spanning tree
//! is found by one BFS per vertex. The result type here records everything a
//! single sweep learns — hop distances, BFS-tree parents, and the visit
//! order — so callers never re-run a sweep for a second quantity.

use crate::graph::Graph;

/// Sentinel distance for vertices unreachable from the BFS source.
pub const UNREACHABLE: u32 = u32::MAX;

/// The result of one BFS sweep from a source vertex.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BfsResult {
    /// The source vertex of the sweep.
    pub source: usize,
    /// `dist[v]` = hop distance from the source, or [`UNREACHABLE`].
    pub dist: Vec<u32>,
    /// `parent[v]` = predecessor of `v` in the BFS tree; `parent[source]`
    /// and parents of unreachable vertices are `u32::MAX`.
    pub parent: Vec<u32>,
    /// Vertices in visit order (the source first). Unreachable vertices do
    /// not appear.
    pub order: Vec<u32>,
}

impl BfsResult {
    /// The eccentricity of the source: the largest finite distance.
    ///
    /// Returns `None` if some vertex is unreachable (eccentricity is then
    /// infinite, and the graph cannot gossip at all).
    pub fn eccentricity(&self) -> Option<u32> {
        let mut max = 0;
        for &d in &self.dist {
            if d == UNREACHABLE {
                return None;
            }
            max = max.max(d);
        }
        Some(max)
    }

    /// Whether every vertex was reached.
    pub fn all_reached(&self) -> bool {
        self.order.len() == self.dist.len()
    }

    /// Reconstructs the path from the source to `v` (inclusive of both), or
    /// `None` if `v` was not reached.
    pub fn path_to(&self, v: usize) -> Option<Vec<usize>> {
        if self.dist[v] == UNREACHABLE {
            return None;
        }
        let mut path = Vec::with_capacity(self.dist[v] as usize + 1);
        let mut cur = v;
        path.push(cur);
        while cur != self.source {
            cur = self.parent[cur] as usize;
            path.push(cur);
        }
        path.reverse();
        Some(path)
    }
}

/// Runs BFS from `source`, allocating fresh result buffers.
///
/// # Panics
///
/// Panics if `source >= g.n()`.
///
/// # Examples
///
/// ```
/// use gossip_graph::{Graph, bfs};
///
/// let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
/// let r = bfs(&g, 0);
/// assert_eq!(r.dist, vec![0, 1, 2, 3]);
/// assert_eq!(r.eccentricity(), Some(3));
/// assert_eq!(r.path_to(3), Some(vec![0, 1, 2, 3]));
/// ```
pub fn bfs(g: &Graph, source: usize) -> BfsResult {
    assert!(
        source < g.n(),
        "BFS source {source} out of range (n = {})",
        g.n()
    );
    let n = g.n();
    let mut result = BfsResult {
        source,
        dist: vec![UNREACHABLE; n],
        parent: vec![u32::MAX; n],
        order: Vec::with_capacity(n),
    };
    bfs_into(g, source, &mut result);
    result
}

/// Runs BFS from `source`, reusing the buffers inside `out`.
///
/// The allocation-free kernel behind every scalar sweep, such as the
/// winner's tree in [`crate::spanning`]: buffers are cleared and refilled
/// rather than reallocated, per the "reuse workhorse collections" guidance
/// for hot loops.
pub fn bfs_into(g: &Graph, source: usize, out: &mut BfsResult) {
    let n = g.n();
    out.source = source;
    out.dist.clear();
    out.dist.resize(n, UNREACHABLE);
    out.parent.clear();
    out.parent.resize(n, u32::MAX);
    out.order.clear();
    out.order.reserve(n);

    out.dist[source] = 0;
    out.order.push(source as u32);
    // `order` doubles as the FIFO queue: `head` chases the push cursor.
    let mut head = 0;
    while head < out.order.len() {
        let u = out.order[head] as usize;
        head += 1;
        let du = out.dist[u];
        for &w in g.neighbors_raw(u) {
            let w_us = w as usize;
            if out.dist[w_us] == UNREACHABLE {
                out.dist[w_us] = du + 1;
                out.parent[w_us] = u as u32;
                out.order.push(w);
            }
        }
    }
    // One counter update per sweep (not per vertex): attributes the whole
    // frontier to whatever profiler phase is active, a no-op otherwise.
    gossip_telemetry::profile::count("frontier_popped", out.order.len() as u64);
}

/// Hop distance between two vertices, or `None` if disconnected.
pub fn distance(g: &Graph, u: usize, v: usize) -> Option<u32> {
    let r = bfs(g, u);
    match r.dist[v] {
        UNREACHABLE => None,
        d => Some(d),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path5() -> Graph {
        Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap()
    }

    #[test]
    fn distances_on_path() {
        let r = bfs(&path5(), 2);
        assert_eq!(r.dist, vec![2, 1, 0, 1, 2]);
        assert_eq!(r.eccentricity(), Some(2));
    }

    #[test]
    fn parents_form_tree() {
        let r = bfs(&path5(), 0);
        assert_eq!(r.parent[0], u32::MAX);
        for v in 1..5 {
            assert_eq!(r.parent[v], (v - 1) as u32);
        }
    }

    #[test]
    fn order_is_level_monotone() {
        let g = Graph::from_edges(6, &[(0, 1), (0, 2), (1, 3), (2, 4), (4, 5)]).unwrap();
        let r = bfs(&g, 0);
        for w in r.order.windows(2) {
            assert!(r.dist[w[0] as usize] <= r.dist[w[1] as usize]);
        }
    }

    #[test]
    fn disconnected_unreachable() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let r = bfs(&g, 0);
        assert_eq!(r.dist[2], UNREACHABLE);
        assert_eq!(r.eccentricity(), None);
        assert!(!r.all_reached());
        assert_eq!(r.path_to(3), None);
    }

    #[test]
    fn bfs_into_reuses_buffers() {
        let g = path5();
        let mut r = bfs(&g, 0);
        bfs_into(&g, 4, &mut r);
        assert_eq!(r.source, 4);
        assert_eq!(r.dist, vec![4, 3, 2, 1, 0]);
    }

    #[test]
    fn pairwise_distance() {
        let g = path5();
        assert_eq!(distance(&g, 0, 4), Some(4));
        assert_eq!(distance(&g, 3, 3), Some(0));
    }

    #[test]
    fn path_reconstruction_on_cycle() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]).unwrap();
        let r = bfs(&g, 0);
        let p = r.path_to(3).unwrap();
        assert_eq!(p.len(), 4); // distance 3 either way round
        assert_eq!(p[0], 0);
        assert_eq!(*p.last().unwrap(), 3);
        for w in p.windows(2) {
            assert!(g.has_edge(w[0], w[1]));
        }
    }
}
