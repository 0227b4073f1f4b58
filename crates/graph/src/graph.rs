//! Compact undirected graph in compressed sparse row (CSR) form.
//!
//! The communication networks of the paper are simple undirected graphs: a
//! vertex per processor, an edge per bidirectional link. Algorithms in this
//! workspace iterate neighbourhoods in hot loops (n-source BFS sweeps for the
//! minimum-depth spanning tree), so the representation is a flat CSR layout:
//! one `offsets` array of length `n + 1` and one `targets` array of length
//! `2m`, which keeps every neighbourhood contiguous in memory.

use crate::error::GraphError;
use serde::value::{DeError, Value};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// The most vertices a [`Graph`] holds. CSR ids are `u32`, and `u32::MAX`
/// is reserved for the `NO_PARENT` / `UNREACHABLE` sentinels, so ids run
/// `0..u32::MAX`.
pub const MAX_VERTICES: usize = u32::MAX as usize;

/// An immutable simple undirected graph in CSR form.
///
/// Vertices are `0..n`. Construct with [`GraphBuilder`] or
/// [`Graph::from_edges`].
///
/// # Examples
///
/// ```
/// use gossip_graph::Graph;
///
/// // A triangle with a pendant vertex: 0-1, 1-2, 2-0, 2-3.
/// let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]).unwrap();
/// assert_eq!(g.n(), 4);
/// assert_eq!(g.m(), 4);
/// assert_eq!(g.degree(2), 3);
/// assert!(g.has_edge(0, 1));
/// assert!(!g.has_edge(0, 3));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Graph {
    n: usize,
    /// `offsets[v]..offsets[v + 1]` indexes `targets` for `v`'s neighbours.
    offsets: Vec<u32>,
    /// Concatenated sorted neighbour lists.
    targets: Vec<u32>,
    /// Number of undirected edges.
    m: usize,
}

impl Graph {
    /// Builds a graph with `n` vertices from an undirected edge list.
    ///
    /// Each `(u, v)` pair is one undirected edge. Rejects out-of-range
    /// endpoints, self-loops, and duplicate edges (in either orientation).
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Result<Self, GraphError> {
        let mut b = GraphBuilder::new(n);
        for &(u, v) in edges {
            b.add_edge(u, v)?;
        }
        Ok(b.build())
    }

    /// Checks the CSR invariants every query relies on: at most
    /// [`MAX_VERTICES`] vertices; `n + 1` monotone offsets from 0 to
    /// `targets.len()`; sorted, loop-free, duplicate-free, symmetric
    /// neighbour lists of in-range ids; and `m = targets.len() / 2`.
    /// Allocates nothing, so it is safe on untrusted input.
    fn check_csr(&self) -> Result<(), GraphError> {
        let invalid = |reason: String| Err(GraphError::InvalidCsr { reason });
        let n = self.n;
        if n > MAX_VERTICES {
            return Err(GraphError::TooManyVertices { n });
        }
        if self.offsets.len() != n + 1 || self.offsets[0] != 0 {
            return invalid(format!(
                "{} offsets for {n} vertices (need n + 1, starting at 0)",
                self.offsets.len()
            ));
        }
        if let Some(v) = self.offsets.windows(2).position(|w| w[0] > w[1]) {
            return invalid(format!("offsets decrease after vertex {v}"));
        }
        if self.offsets[n] as usize != self.targets.len() {
            return invalid(format!(
                "offsets end at {} but there are {} targets",
                self.offsets[n],
                self.targets.len()
            ));
        }
        if self.m.checked_mul(2) != Some(self.targets.len()) {
            return invalid(format!(
                "m = {} but there are {} targets",
                self.m,
                self.targets.len()
            ));
        }
        for u in 0..n {
            let list = self.neighbors_raw(u);
            for (idx, &w) in list.iter().enumerate() {
                let v = w as usize;
                if v >= n {
                    return Err(GraphError::VertexOutOfRange { vertex: v, n });
                }
                if v == u {
                    return Err(GraphError::SelfLoop { vertex: u });
                }
                if idx > 0 && list[idx - 1] == w {
                    return Err(GraphError::DuplicateEdge { u, v });
                }
                if idx > 0 && list[idx - 1] > w {
                    return invalid(format!("neighbours of {u} are not sorted"));
                }
                // `Ok` only if `u` is really there, even in a list not yet
                // checked for order; a missed match there fails that list.
                if self.neighbors_raw(v).binary_search(&(u as u32)).is_err() {
                    return invalid(format!("edge ({u}, {v}) has no reverse entry"));
                }
            }
        }
        Ok(())
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of undirected edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Degree of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    #[inline]
    pub fn degree(&self, v: usize) -> usize {
        (self.offsets[v + 1] - self.offsets[v]) as usize
    }

    /// The sorted neighbour list of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    #[inline]
    pub fn neighbors(&self, v: usize) -> impl Iterator<Item = usize> + '_ {
        self.targets[self.offsets[v] as usize..self.offsets[v + 1] as usize]
            .iter()
            .map(|&t| t as usize)
    }

    /// The sorted neighbour list of `v` as a raw slice of `u32` ids.
    ///
    /// Hot-loop variant of [`Graph::neighbors`] that avoids per-element
    /// widening when the caller works in `u32` indices.
    #[inline]
    pub fn neighbors_raw(&self, v: usize) -> &[u32] {
        &self.targets[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// Whether the undirected edge `(u, v)` exists.
    ///
    /// Binary search over the sorted neighbour list: `O(log deg(u))`.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        if u >= self.n || v >= self.n {
            return false;
        }
        self.neighbors_raw(u).binary_search(&(v as u32)).is_ok()
    }

    /// Iterates every undirected edge once, as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.n).flat_map(move |u| {
            self.neighbors(u)
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Maximum degree over all vertices; 0 for the empty graph.
    pub fn max_degree(&self) -> usize {
        (0..self.n).map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Minimum degree over all vertices; 0 for the empty graph.
    pub fn min_degree(&self) -> usize {
        (0..self.n).map(|v| self.degree(v)).min().unwrap_or(0)
    }

    /// A copy of this graph with one extra edge.
    ///
    /// Fails on the same conditions as [`GraphBuilder::add_edge`]
    /// (duplicate, self-loop, out of range).
    pub fn with_edge(&self, u: usize, v: usize) -> Result<Graph, GraphError> {
        // The other edges are copied in unchecked, so the builder cannot
        // see a duplicate of them.
        if self.has_edge(u, v) {
            return Err(GraphError::DuplicateEdge { u, v });
        }
        let mut b = GraphBuilder::with_capacity(self.n, self.m + 1);
        for (x, y) in self.edges() {
            b.add_edge_unchecked(x, y)?;
        }
        b.add_edge_unchecked(u, v)?;
        Ok(b.build())
    }

    /// A copy of this graph with one edge removed.
    ///
    /// Fails with [`GraphError::DuplicateEdge`]'s sibling semantics
    /// inverted: an error if the edge is absent.
    pub fn without_edge(&self, u: usize, v: usize) -> Result<Graph, GraphError> {
        if !self.has_edge(u, v) {
            return Err(GraphError::NotATree {
                reason: format!("edge ({u}, {v}) not present"),
            });
        }
        let key = (u.min(v), u.max(v));
        let mut b = GraphBuilder::with_capacity(self.n, self.m - 1);
        for (x, y) in self.edges() {
            if (x, y) != key {
                b.add_edge_unchecked(x, y)?;
            }
        }
        Ok(b.build())
    }

    /// The induced subgraph on `keep` (vertices renumbered by their order
    /// in `keep`). Duplicate entries in `keep` are rejected.
    pub fn induced_subgraph(&self, keep: &[usize]) -> Result<Graph, GraphError> {
        let mut index = vec![usize::MAX; self.n];
        for (new, &old) in keep.iter().enumerate() {
            if old >= self.n {
                return Err(GraphError::VertexOutOfRange {
                    vertex: old,
                    n: self.n,
                });
            }
            if index[old] != usize::MAX {
                return Err(GraphError::NotATree {
                    reason: format!("vertex {old} listed twice"),
                });
            }
            index[old] = new;
        }
        let mut b = GraphBuilder::new(keep.len());
        for (x, y) in self.edges() {
            if index[x] != usize::MAX && index[y] != usize::MAX {
                b.add_edge_unchecked(index[x], index[y])?;
            }
        }
        Ok(b.build())
    }

    /// The complement graph (same vertices, exactly the missing edges).
    pub fn complement(&self) -> Graph {
        let mut b = GraphBuilder::with_capacity(self.n, self.n * (self.n - 1) / 2 - self.m);
        for u in 0..self.n {
            for v in (u + 1)..self.n {
                if !self.has_edge(u, v) {
                    b.add_edge_unchecked(u, v).expect("valid");
                }
            }
        }
        b.build()
    }

    /// The sorted (descending) degree sequence.
    pub fn degree_sequence(&self) -> Vec<usize> {
        let mut d: Vec<usize> = (0..self.n).map(|v| self.degree(v)).collect();
        d.sort_unstable_by(|a, b| b.cmp(a));
        d
    }

    /// Whether the graph is a tree (connected with exactly `n - 1` edges).
    pub fn is_tree(&self) -> bool {
        self.n > 0 && self.m == self.n - 1 && crate::connectivity::is_connected(self)
    }

    /// A DOT-format rendering, handy for eyeballing reconstructed paper
    /// figures with Graphviz.
    pub fn to_dot(&self, name: &str) -> String {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(32 + 12 * self.m);
        let _ = writeln!(s, "graph {name} {{");
        for v in 0..self.n {
            let _ = writeln!(s, "  {v};");
        }
        for (u, v) in self.edges() {
            let _ = writeln!(s, "  {u} -- {v};");
        }
        s.push_str("}\n");
        s
    }
}

/// Decodes the derive-shaped object `{n, offsets, targets, m}`, then
/// [`Graph::check_csr`]s it: no decoded graph can panic a later query.
impl Deserialize for Graph {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let obj = v
            .as_object()
            .ok_or_else(|| DeError::new("expected object for Graph"))?;
        let field = |name: &str| {
            obj.iter()
                .find(|(k, _)| k == name)
                .map_or(&Value::Null, |(_, v)| v)
        };
        let g = Graph {
            n: Deserialize::from_value(field("n")).map_err(|e| e.context("n"))?,
            offsets: Deserialize::from_value(field("offsets")).map_err(|e| e.context("offsets"))?,
            targets: Deserialize::from_value(field("targets")).map_err(|e| e.context("targets"))?,
            m: Deserialize::from_value(field("m")).map_err(|e| e.context("m"))?,
        };
        g.check_csr().map_err(|e| DeError::new(&e.to_string()))?;
        Ok(g)
    }
}

/// Incremental builder for [`Graph`].
///
/// Collects edges with validation, then lays them out in CSR form on
/// [`GraphBuilder::build`].
///
/// # Examples
///
/// ```
/// use gossip_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1).unwrap();
/// b.add_edge(1, 2).unwrap();
/// assert!(b.add_edge(1, 0).is_err()); // duplicate
/// let g = b.build();
/// assert_eq!(g.m(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(u32, u32)>,
    /// The edges [`GraphBuilder::add_edge`] accepted, for its duplicate
    /// check.
    checked: HashSet<(u32, u32)>,
}

impl GraphBuilder {
    /// Starts a builder for a graph with `n` vertices and no edges.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::new(),
            checked: HashSet::new(),
        }
    }

    /// Starts a builder with room for `m` edges pre-reserved.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::with_capacity(m),
            checked: HashSet::new(),
        }
    }

    /// Number of vertices the built graph will have.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Adds the undirected edge `(u, v)`.
    ///
    /// Fails with [`GraphError::DuplicateEdge`] when an earlier `add_edge`
    /// call added the same edge (in either orientation); the check is one
    /// hash lookup. Edges from [`GraphBuilder::add_edge_unchecked`] are not
    /// in it.
    pub fn add_edge(&mut self, u: usize, v: usize) -> Result<(), GraphError> {
        self.validate_endpoints(u, v)?;
        let key = Self::canonical(u, v);
        if !self.checked.insert(key) {
            return Err(GraphError::DuplicateEdge { u, v });
        }
        self.edges.push(key);
        Ok(())
    }

    /// Adds the undirected edge `(u, v)` without the duplicate check.
    ///
    /// Endpoint range and self-loop checks still apply; a duplicate is not
    /// an error: [`GraphBuilder::build`]'s sort-and-dedup pass drops it
    /// silently, in every build.
    pub fn add_edge_unchecked(&mut self, u: usize, v: usize) -> Result<(), GraphError> {
        self.validate_endpoints(u, v)?;
        self.edges.push(Self::canonical(u, v));
        Ok(())
    }

    fn validate_endpoints(&self, u: usize, v: usize) -> Result<(), GraphError> {
        // Ids at or past `MAX_VERTICES` do not fit the CSR's `u32`s, even
        // when the builder was (wrongly) sized for them.
        let limit = self.n.min(MAX_VERTICES);
        if u >= limit {
            return Err(GraphError::VertexOutOfRange {
                vertex: u,
                n: self.n,
            });
        }
        if v >= limit {
            return Err(GraphError::VertexOutOfRange {
                vertex: v,
                n: self.n,
            });
        }
        if u == v {
            return Err(GraphError::SelfLoop { vertex: u });
        }
        Ok(())
    }

    #[inline]
    fn canonical(u: usize, v: usize) -> (u32, u32) {
        if u < v {
            (u as u32, v as u32)
        } else {
            (v as u32, u as u32)
        }
    }

    /// Finalizes the CSR layout.
    pub fn build(mut self) -> Graph {
        self.edges.sort_unstable();
        self.edges.dedup();
        let n = self.n;
        let m = self.edges.len();
        let mut degree = vec![0u32; n];
        for &(u, v) in &self.edges {
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0u32;
        offsets.push(0);
        for &d in degree.iter().take(n) {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut targets = vec![0u32; 2 * m];
        for &(u, v) in &self.edges {
            targets[cursor[u as usize] as usize] = v;
            cursor[u as usize] += 1;
            targets[cursor[v as usize] as usize] = u;
            cursor[v as usize] += 1;
        }
        // Edge list was sorted by (min, max); per-vertex target runs need an
        // explicit sort because a vertex appears on both sides of edges.
        for v in 0..n {
            targets[offsets[v] as usize..offsets[v + 1] as usize].sort_unstable();
        }
        Graph {
            n,
            offsets,
            targets,
            m,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = Graph::from_edges(0, &[]).unwrap();
        assert_eq!(g.n(), 0);
        assert_eq!(g.m(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn single_vertex() {
        let g = Graph::from_edges(1, &[]).unwrap();
        assert_eq!(g.n(), 1);
        assert_eq!(g.degree(0), 0);
    }

    #[test]
    fn triangle_degrees_and_edges() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]).unwrap();
        assert_eq!(g.m(), 3);
        for v in 0..3 {
            assert_eq!(g.degree(v), 2);
        }
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn neighbors_sorted() {
        let g = Graph::from_edges(5, &[(3, 0), (3, 4), (3, 1), (3, 2)]).unwrap();
        let nb: Vec<_> = g.neighbors(3).collect();
        assert_eq!(nb, vec![0, 1, 2, 4]);
    }

    #[test]
    fn has_edge_both_orientations() {
        let g = Graph::from_edges(4, &[(0, 3)]).unwrap();
        assert!(g.has_edge(0, 3));
        assert!(g.has_edge(3, 0));
        assert!(!g.has_edge(1, 2));
        assert!(!g.has_edge(0, 4)); // out of range is just "no edge"
    }

    #[test]
    fn rejects_self_loop() {
        assert_eq!(
            Graph::from_edges(2, &[(1, 1)]),
            Err(GraphError::SelfLoop { vertex: 1 })
        );
    }

    #[test]
    fn rejects_out_of_range() {
        assert_eq!(
            Graph::from_edges(2, &[(0, 2)]),
            Err(GraphError::VertexOutOfRange { vertex: 2, n: 2 })
        );
    }

    #[test]
    fn rejects_duplicate_even_reversed() {
        assert_eq!(
            Graph::from_edges(3, &[(0, 1), (1, 0)]),
            Err(GraphError::DuplicateEdge { u: 1, v: 0 })
        );
    }

    fn complete_edges(n: usize) -> Vec<(usize, usize)> {
        (0..n)
            .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
            .collect()
    }

    /// K_512 (130,816 edges) through the duplicate-checked path equals the
    /// unchecked build of the same edges.
    #[test]
    fn checked_build_of_a_dense_graph_matches_unchecked() {
        let edges = complete_edges(512);
        let mut b = GraphBuilder::new(512);
        for &(u, v) in &edges {
            b.add_edge_unchecked(u, v).unwrap();
        }
        assert_eq!(Graph::from_edges(512, &edges).unwrap(), b.build());
    }

    /// A repeat after K_448's 100,128 edges is named as given.
    #[test]
    fn duplicate_deep_in_a_long_list_is_rejected() {
        let mut edges = complete_edges(448);
        edges.push((447, 0));
        assert_eq!(
            Graph::from_edges(448, &edges),
            Err(GraphError::DuplicateEdge { u: 447, v: 0 })
        );
    }

    /// `with_edge` copies the present edges in unchecked, so it must reject
    /// a present edge itself, named as given.
    #[test]
    fn with_edge_rejects_a_present_edge() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2)]).unwrap();
        assert_eq!(
            g.with_edge(2, 1),
            Err(GraphError::DuplicateEdge { u: 2, v: 1 })
        );
    }

    #[test]
    fn unchecked_builder_dedups_on_build() {
        let mut b = GraphBuilder::new(3);
        b.add_edge_unchecked(0, 1).unwrap();
        b.add_edge_unchecked(1, 0).unwrap();
        let g = b.build();
        assert_eq!(g.m(), 1);
    }

    #[test]
    fn to_dot_contains_all_edges() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let dot = g.to_dot("g");
        assert!(dot.contains("0 -- 1"));
        assert!(dot.contains("1 -- 2"));
    }

    #[test]
    fn neighbors_raw_matches_neighbors() {
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]).unwrap();
        let a: Vec<usize> = g.neighbors(0).collect();
        let b: Vec<usize> = g.neighbors_raw(0).iter().map(|&x| x as usize).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn with_and_without_edge() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2)]).unwrap();
        let bigger = g.with_edge(2, 3).unwrap();
        assert_eq!(bigger.m(), 3);
        assert!(bigger.has_edge(2, 3));
        assert!(g.with_edge(0, 1).is_err());
        let smaller = bigger.without_edge(0, 1).unwrap();
        assert_eq!(smaller.m(), 2);
        assert!(!smaller.has_edge(0, 1));
        assert!(smaller.without_edge(0, 1).is_err());
    }

    #[test]
    fn induced_subgraph_renumbers() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        let sub = g.induced_subgraph(&[1, 2, 3]).unwrap();
        assert_eq!(sub.n(), 3);
        assert_eq!(sub.m(), 2);
        assert!(sub.has_edge(0, 1)); // old (1, 2)
        assert!(sub.has_edge(1, 2)); // old (2, 3)
        assert!(g.induced_subgraph(&[0, 0]).is_err());
        assert!(g.induced_subgraph(&[9]).is_err());
    }

    #[test]
    fn complement_and_degree_sequence() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2)]).unwrap();
        let c = g.complement();
        assert_eq!(c.m(), 6 - 2);
        assert!(c.has_edge(0, 2));
        assert!(!c.has_edge(0, 1));
        assert_eq!(g.degree_sequence(), vec![2, 1, 1, 0]);
        // Complementing twice is the identity.
        assert_eq!(c.complement(), g);
    }

    #[test]
    fn is_tree_detection() {
        assert!(Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)])
            .unwrap()
            .is_tree());
        assert!(!Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)])
            .unwrap()
            .is_tree());
        assert!(!Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap().is_tree()); // forest
        assert!(Graph::from_edges(1, &[]).unwrap().is_tree());
        assert!(!Graph::from_edges(0, &[]).unwrap().is_tree());
    }

    #[test]
    fn min_max_degree() {
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]).unwrap();
        assert_eq!(g.max_degree(), 3);
        assert_eq!(g.min_degree(), 1);
    }
}
