//! Plain-text graph I/O: the ubiquitous edge-list format.
//!
//! Format: an optional header line `n <count>`, then one `u v` pair per
//! line. `#`-prefixed lines and blank lines are comments. Without a header
//! the vertex count is `max id + 1`. This lets the CLI and experiments
//! ingest graphs from any external tool without a JSON round trip.

use crate::error::GraphError;
use crate::graph::{Graph, GraphBuilder, MAX_VERTICES};
use std::fmt;

/// Errors from parsing the edge-list text format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// A line failed to parse.
    BadLine {
        /// 1-based line number.
        line: usize,
        /// The offending content: the whole line when it is at most 64
        /// bytes long, else its longest prefix of at most 64 bytes that
        /// ends on a char boundary.
        content: String,
        /// The line's length in bytes.
        bytes: usize,
    },
    /// The edges violated graph validity (self-loop, duplicate, range).
    Graph(GraphError),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::BadLine {
                line,
                content,
                bytes,
            } => {
                write!(f, "line {line}: cannot parse {content:?}")?;
                if content.len() < *bytes {
                    write!(f, "... ({bytes} bytes)")?;
                }
                Ok(())
            }
            ParseError::Graph(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ParseError {}

/// The longest line a [`ParseError::BadLine`] quotes whole.
const QUOTED_BYTES: usize = 64;

impl From<GraphError> for ParseError {
    fn from(e: GraphError) -> Self {
        ParseError::Graph(e)
    }
}

/// Parses the edge-list text format.
///
/// # Examples
///
/// ```
/// use gossip_graph::io::parse_edge_list;
///
/// let g = parse_edge_list("n 4\n# a square\n0 1\n1 2\n2 3\n3 0\n").unwrap();
/// assert_eq!(g.n(), 4);
/// assert_eq!(g.m(), 4);
/// ```
pub fn parse_edge_list(text: &str) -> Result<Graph, ParseError> {
    let mut declared_n: Option<usize> = None;
    let mut edges: Vec<(usize, usize)> = Vec::new();
    let mut max_id = 0usize;
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let bad = || ParseError::BadLine {
            line: idx + 1,
            content: raw[..raw.floor_char_boundary(QUOTED_BYTES)].to_string(),
            bytes: raw.len(),
        };
        let mut parts = line.split_whitespace();
        let first = parts.next().ok_or_else(bad)?;
        if first == "n" {
            let v = parts.next().ok_or_else(bad)?;
            declared_n = Some(v.parse().map_err(|_| bad())?);
            if parts.next().is_some() {
                return Err(bad());
            }
            continue;
        }
        let u: usize = first.parse().map_err(|_| bad())?;
        let v: usize = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        if parts.next().is_some() {
            return Err(bad());
        }
        max_id = max_id.max(u).max(v);
        edges.push((u, v));
    }
    let n = match declared_n {
        Some(n) => n,
        None if edges.is_empty() => 0,
        None => max_id
            .checked_add(1)
            .ok_or(GraphError::TooManyVertices { n: max_id })?,
    };
    // Reject before the builder sizes anything by `n`.
    if n > MAX_VERTICES {
        return Err(GraphError::TooManyVertices { n }.into());
    }
    let mut b = GraphBuilder::with_capacity(n, edges.len());
    for (u, v) in edges {
        b.add_edge(u, v)?;
    }
    Ok(b.build())
}

/// Writes the edge-list text format (with an `n` header, so isolated
/// vertices survive a round trip).
pub fn write_edge_list(g: &Graph) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(16 + 8 * g.m());
    let _ = writeln!(out, "n {}", g.n());
    for (u, v) in g.edges() {
        let _ = writeln!(out, "{u} {v}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (3, 4)]).unwrap();
        let text = write_edge_list(&g);
        let back = parse_edge_list(&text).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn header_preserves_isolated_vertices() {
        let g = parse_edge_list("n 5\n0 1\n").unwrap();
        assert_eq!(g.n(), 5);
        assert_eq!(g.m(), 1);
    }

    #[test]
    fn infers_n_without_header() {
        let g = parse_edge_list("0 3\n1 2\n").unwrap();
        assert_eq!(g.n(), 4);
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let g = parse_edge_list("# hi\n\n  \n0 1\n# bye\n").unwrap();
        assert_eq!(g.m(), 1);
    }

    #[test]
    fn empty_input_is_empty_graph() {
        let g = parse_edge_list("").unwrap();
        assert_eq!(g.n(), 0);
    }

    #[test]
    fn rejects_garbage() {
        assert!(matches!(
            parse_edge_list("0 x\n"),
            Err(ParseError::BadLine { line: 1, .. })
        ));
        assert!(matches!(
            parse_edge_list("0 1 2\n"),
            Err(ParseError::BadLine { .. })
        ));
        assert!(matches!(
            parse_edge_list("n\n"),
            Err(ParseError::BadLine { .. })
        ));
    }

    #[test]
    fn rejects_invalid_graphs() {
        assert!(matches!(
            parse_edge_list("1 1\n"),
            Err(ParseError::Graph(_))
        ));
        assert!(matches!(
            parse_edge_list("n 2\n0 5\n"),
            Err(ParseError::Graph(_))
        ));
        assert!(matches!(
            parse_edge_list("0 1\n1 0\n"),
            Err(ParseError::Graph(_))
        ));
    }
}
