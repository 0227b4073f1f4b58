//! # gossip-graph
//!
//! Graph substrate for the `multigossip` workspace — the structures and
//! traversals required by Gonzalez's gossiping algorithm (IPPS 2001 /
//! TPDS 2004):
//!
//! - [`Graph`]: compact CSR simple undirected graphs;
//! - [`bfs()`](bfs()) / [`BfsResult`]: breadth-first sweeps with reusable buffers;
//! - [`DistanceMetrics`]: eccentricities, radius `r`, diameter, center;
//! - [`RootedTree`]: rooted trees with levels `k`, DFS preorder labels `i`,
//!   and subtree ranges `[i, j]` — the exact quantities the scheduling
//!   algorithms consume;
//! - [`min_depth_spanning_tree`]: the paper's §3.1 construction (n BFS
//!   sweeps, keep the shallowest; evaluated 64 roots per bitset BFS);
//! - [`min_depth_spanning_tree_fast`]: the pruned multi-source bitset sweep
//!   (double-sweep eccentricity bounds + 64-source `u64` frontiers) that
//!   reaches the same radius with far fewer than n sweeps;
//! - [`find_hamiltonian_circuit`]: exact search backing the Fig 1 / Fig 2
//!   discussion.
//!
//! ```
//! use gossip_graph::{Graph, min_depth_spanning_tree, ChildOrder};
//!
//! // A 6-cycle: radius 3, so the minimum-depth spanning tree has height 3.
//! let g = Graph::from_edges(6, &[(0,1),(1,2),(2,3),(3,4),(4,5),(5,0)]).unwrap();
//! let t = min_depth_spanning_tree(&g, ChildOrder::ById).unwrap();
//! assert_eq!(t.height(), 3);
//! assert!(t.is_spanning_tree_of(&g));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod articulation;
pub mod bfs;
pub mod bipartite;
pub mod connectivity;
pub mod error;
pub mod graph;
pub mod hamiltonian;
pub mod io;
pub mod metrics;
pub mod render;
pub mod spanning;
pub mod tree;

pub use articulation::articulation_points;
pub use bfs::{bfs, bfs_into, distance, BfsResult, UNREACHABLE};
pub use bipartite::{bipartiteness, is_bipartite, Bipartiteness};
pub use connectivity::{components, is_connected, reachable_count};
pub use error::GraphError;
pub use graph::{Graph, GraphBuilder, MAX_VERTICES};
pub use hamiltonian::{find_hamiltonian_circuit, is_hamiltonian, verify_circuit};
pub use io::{parse_edge_list, write_edge_list};
pub use metrics::{all_pairs_distances, diameter, distance_metrics, radius, DistanceMetrics};
pub use render::render_tree;
pub use spanning::fast::{min_depth_spanning_tree_fast, min_depth_spanning_tree_fast_recorded};
pub use spanning::{
    bfs_tree, min_depth_spanning_tree, min_depth_spanning_tree_recorded, ChildOrder,
};
pub use tree::{RootedTree, NO_PARENT};
