//! Distance metrics: eccentricities, radius, diameter, center.
//!
//! The paper's schedule length is `n + r` with `r` the network *radius*: the
//! least `r` such that some vertex is within `r` hops of every other vertex.
//! [`distance_metrics`] and [`diameter`] need the eccentricity of every
//! vertex — an n-source BFS sweep, `O(mn)` total, run sequentially with one
//! reused scratch buffer. [`radius`] needs only the least one, and runs the
//! fast spanning tree's pruned search instead (`spanning::fast`).

use crate::bfs::{bfs, bfs_into};
use crate::error::GraphError;
use crate::graph::Graph;
use crate::spanning::fast::center_search;
use rayon::prelude::*;

/// Global distance summary of a connected graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistanceMetrics {
    /// `ecc[v]` = eccentricity of vertex `v`.
    pub ecc: Vec<u32>,
    /// Minimum eccentricity.
    pub radius: u32,
    /// Maximum eccentricity.
    pub diameter: u32,
    /// All vertices whose eccentricity equals the radius, ascending.
    pub center: Vec<usize>,
}

impl DistanceMetrics {
    fn from_eccentricities(ecc: Vec<u32>) -> Self {
        let radius = *ecc.iter().min().expect("nonempty");
        let diameter = *ecc.iter().max().expect("nonempty");
        let center = ecc
            .iter()
            .enumerate()
            .filter(|&(_, &e)| e == radius)
            .map(|(v, _)| v)
            .collect();
        DistanceMetrics {
            ecc,
            radius,
            diameter,
            center,
        }
    }
}

/// Computes all eccentricities with a sequential n-source BFS sweep.
///
/// Errors with [`GraphError::EmptyGraph`] on zero vertices and
/// [`GraphError::Disconnected`] if any sweep fails to reach every vertex.
pub fn distance_metrics(g: &Graph) -> Result<DistanceMetrics, GraphError> {
    if g.n() == 0 {
        return Err(GraphError::EmptyGraph);
    }
    let mut scratch = bfs(g, 0);
    let mut ecc = Vec::with_capacity(g.n());
    for v in 0..g.n() {
        bfs_into(g, v, &mut scratch);
        ecc.push(scratch.eccentricity().ok_or(GraphError::Disconnected)?);
    }
    Ok(DistanceMetrics::from_eccentricities(ecc))
}

/// The radius of a connected graph, by the pruned multi-source search of
/// [`crate::min_depth_spanning_tree_fast`]: double-sweep lower bounds,
/// then 64-source waves over the vertices whose bound is below the
/// incumbent. It builds no tree, records nothing and opens no profiler
/// phase.
///
/// Errors like [`distance_metrics`]: [`GraphError::EmptyGraph`] on zero
/// vertices, [`GraphError::Disconnected`] if some vertex is unreachable.
pub fn radius(g: &Graph) -> Result<u32, GraphError> {
    if g.n() == 0 {
        return Err(GraphError::EmptyGraph);
    }
    Ok(center_search(g, false)?.best.0)
}

/// The diameter of a connected graph (sequential sweep).
pub fn diameter(g: &Graph) -> Result<u32, GraphError> {
    Ok(distance_metrics(g)?.diameter)
}

/// Full all-pairs shortest-path table, one BFS row per source, in parallel.
///
/// `O(n^2)` memory; intended for exact-search paths on small inputs and for
/// tests. Errors on empty input; rows of a disconnected graph contain
/// [`crate::bfs::UNREACHABLE`].
pub fn all_pairs_distances(g: &Graph) -> Result<Vec<Vec<u32>>, GraphError> {
    if g.n() == 0 {
        return Err(GraphError::EmptyGraph);
    }
    Ok((0..g.n()).into_par_iter().map(|v| bfs(g, v).dist).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> Graph {
        Graph::from_edges(n, &(0..n - 1).map(|i| (i, i + 1)).collect::<Vec<_>>()).unwrap()
    }

    fn cycle(n: usize) -> Graph {
        Graph::from_edges(n, &(0..n).map(|i| (i, (i + 1) % n)).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn path_metrics() {
        let m = distance_metrics(&path(7)).unwrap();
        assert_eq!(m.radius, 3);
        assert_eq!(m.diameter, 6);
        assert_eq!(m.center, vec![3]);
        assert_eq!(m.ecc[0], 6);
        assert_eq!(m.ecc[3], 3);
    }

    #[test]
    fn even_path_two_centers() {
        let m = distance_metrics(&path(6)).unwrap();
        assert_eq!(m.radius, 3);
        assert_eq!(m.center, vec![2, 3]);
    }

    #[test]
    fn cycle_metrics() {
        let m = distance_metrics(&cycle(8)).unwrap();
        assert_eq!(m.radius, 4);
        assert_eq!(m.diameter, 4);
        assert_eq!(m.center.len(), 8);
    }

    #[test]
    fn star_radius_one() {
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]).unwrap();
        let m = distance_metrics(&g).unwrap();
        assert_eq!(m.radius, 1);
        assert_eq!(m.diameter, 2);
        assert_eq!(m.center, vec![0]);
    }

    #[test]
    fn singleton_metrics() {
        let m = distance_metrics(&Graph::from_edges(1, &[]).unwrap()).unwrap();
        assert_eq!(m.radius, 0);
        assert_eq!(m.diameter, 0);
        assert_eq!(m.center, vec![0]);
    }

    #[test]
    fn empty_graph_errors() {
        assert_eq!(
            distance_metrics(&Graph::from_edges(0, &[]).unwrap()),
            Err(GraphError::EmptyGraph)
        );
    }

    #[test]
    fn disconnected_errors() {
        let g = Graph::from_edges(3, &[(0, 1)]).unwrap();
        assert_eq!(distance_metrics(&g), Err(GraphError::Disconnected));
    }

    #[test]
    fn all_pairs_symmetric() {
        let g = cycle(6);
        let d = all_pairs_distances(&g).unwrap();
        for (u, row) in d.iter().enumerate() {
            assert_eq!(row[u], 0);
            for (v, &duv) in row.iter().enumerate() {
                assert_eq!(duv, d[v][u]);
            }
        }
    }

    #[test]
    fn radius_diameter_helpers() {
        let g = path(5);
        assert_eq!(radius(&g).unwrap(), 2);
        assert_eq!(diameter(&g).unwrap(), 4);
    }
}
