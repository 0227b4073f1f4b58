//! Error types for graph construction and queries.

use std::fmt;

/// Errors produced by graph construction and graph algorithms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge endpoint referenced a vertex id `>= n`.
    VertexOutOfRange {
        /// The offending vertex id.
        vertex: usize,
        /// The number of vertices in the graph.
        n: usize,
    },
    /// A self-loop `(v, v)` was supplied; the communication model has no use
    /// for a processor linked to itself.
    SelfLoop {
        /// The vertex with the self-loop.
        vertex: usize,
    },
    /// The same undirected edge was supplied more than once.
    DuplicateEdge {
        /// One endpoint.
        u: usize,
        /// The other endpoint.
        v: usize,
    },
    /// An operation that requires a connected graph was invoked on a
    /// disconnected one (gossiping is impossible across components).
    Disconnected,
    /// An operation that requires at least one vertex was invoked on an
    /// empty graph.
    EmptyGraph,
    /// A tree operation was given a structure that is not a tree
    /// (wrong edge count or a cycle).
    NotATree {
        /// Human-readable description of the violation.
        reason: String,
    },
    /// A vertex count above [`crate::MAX_VERTICES`]: the ids would not fit
    /// the CSR's `u32`s.
    TooManyVertices {
        /// The requested vertex count.
        n: usize,
    },
    /// A decoded CSR layout is inconsistent (offsets, target order or
    /// symmetry, edge count).
    InvalidCsr {
        /// Human-readable description of the violation.
        reason: String,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::VertexOutOfRange { vertex, n } => {
                write!(
                    f,
                    "vertex {vertex} out of range for graph with {n} vertices"
                )
            }
            GraphError::SelfLoop { vertex } => write!(f, "self-loop at vertex {vertex}"),
            GraphError::DuplicateEdge { u, v } => write!(f, "duplicate edge ({u}, {v})"),
            GraphError::Disconnected => write!(f, "graph is not connected"),
            GraphError::EmptyGraph => write!(f, "graph has no vertices"),
            GraphError::NotATree { reason } => write!(f, "not a tree: {reason}"),
            GraphError::TooManyVertices { n } => write!(
                f,
                "{n} vertices exceed the limit of {}",
                crate::MAX_VERTICES
            ),
            GraphError::InvalidCsr { reason } => write!(f, "invalid CSR graph: {reason}"),
        }
    }
}

impl std::error::Error for GraphError {}
