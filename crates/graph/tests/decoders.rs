//! Graph decoders on hostile input: the edge-list parser and the JSON
//! `Graph` decoder return typed errors, never panic, and never size an
//! allocation by a vertex count the CSR cannot hold. Every graph they do
//! return answers every query.

use gossip_graph::io::{parse_edge_list, ParseError};
use gossip_graph::{Graph, GraphBuilder, GraphError, MAX_VERTICES};
use proptest::prelude::*;
use serde_json::Value;

fn json_error(text: &str) -> String {
    match serde_json::from_str::<Graph>(text) {
        Ok(g) => panic!("{text} decoded to {g:?}"),
        Err(e) => e.to_string(),
    }
}

/// A decoded graph is exactly the canonical CSR of its own edge list, so
/// every query on it is in bounds.
fn assert_canonical(g: &Graph) {
    let edges: Vec<(usize, usize)> = g.edges().collect();
    assert_eq!(edges.len(), g.m());
    assert_eq!(&Graph::from_edges(g.n(), &edges).unwrap(), g);
    for v in 0..g.n() {
        assert_eq!(g.neighbors(v).count(), g.degree(v));
    }
}

#[test]
fn edge_list_max_id_overflow_is_a_typed_error() {
    assert_eq!(
        parse_edge_list("0 18446744073709551615\n"),
        Err(ParseError::Graph(GraphError::TooManyVertices {
            n: usize::MAX
        }))
    );
}

#[test]
fn edge_list_oversized_header_is_rejected_before_allocating() {
    assert_eq!(
        parse_edge_list("n 100000000000\n"),
        Err(ParseError::Graph(GraphError::TooManyVertices {
            n: 100_000_000_000
        }))
    );
}

#[test]
fn edge_list_ids_past_u32_do_not_wrap_into_self_loops() {
    // 4294967296 as u32 is 0: the pair used to become the loop (0, 0).
    assert_eq!(
        parse_edge_list("n 4294967297\n0 4294967296\n"),
        Err(ParseError::Graph(GraphError::TooManyVertices {
            n: 4_294_967_297
        }))
    );
    assert_eq!(
        parse_edge_list("0 4294967296\n"),
        Err(ParseError::Graph(GraphError::TooManyVertices {
            n: 4_294_967_297
        }))
    );
    // The builder refuses such ids even when sized for them.
    let mut b = GraphBuilder::new(MAX_VERTICES + 2);
    assert_eq!(
        b.add_edge(0, 4_294_967_296),
        Err(GraphError::VertexOutOfRange {
            vertex: 4_294_967_296,
            n: MAX_VERTICES + 2
        })
    );
}

#[test]
fn edge_list_error_quotes_a_short_bad_line_whole() {
    let err = parse_edge_list("0 1\n2 x\n").unwrap_err();
    assert_eq!(err.to_string(), "line 2: cannot parse \"2 x\"");
}

#[test]
fn edge_list_error_on_a_huge_line_stays_short() {
    for line in ["[".repeat(1 << 20), format!("0 x{}", "é".repeat(1 << 19))] {
        let msg = parse_edge_list(&line).unwrap_err().to_string();
        assert!(msg.len() < 200, "{} bytes: {msg}", msg.len());
        assert!(
            msg.ends_with(&format!("... ({} bytes)", line.len())),
            "{msg}"
        );
    }
}

#[test]
fn json_offsets_past_targets_are_rejected() {
    let e = json_error(r#"{"n":2,"offsets":[0,4,4],"targets":[1],"m":1}"#);
    assert!(
        e.contains("offsets end at 4 but there are 1 targets"),
        "{e}"
    );
}

#[test]
fn json_offsets_shorter_than_n_are_rejected() {
    let e = json_error(r#"{"n":5,"offsets":[0,1,2],"targets":[1,0],"m":1}"#);
    assert!(e.contains("3 offsets for 5 vertices"), "{e}");
}

#[test]
fn json_inconsistent_csr_is_rejected() {
    for (text, want) in [
        (
            r#"{"n":4294967296,"offsets":[0],"targets":[],"m":0}"#,
            "exceed the limit",
        ),
        (r#"{"n":1,"offsets":[1,1],"targets":[],"m":0}"#, "offsets"),
        (
            r#"{"n":3,"offsets":[0,2,1,2],"targets":[1,0],"m":1}"#,
            "offsets decrease",
        ),
        (
            r#"{"n":2,"offsets":[0,1,2],"targets":[1,0],"m":2}"#,
            "m = 2",
        ),
        (
            r#"{"n":2,"offsets":[0,1,2],"targets":[5,0],"m":1}"#,
            "out of range",
        ),
        (r#"{"n":2,"offsets":[0,1,1],"targets":[0],"m":0}"#, "m = 0"),
        (
            r#"{"n":2,"offsets":[0,1,2],"targets":[0,0],"m":1}"#,
            "self-loop",
        ),
        (
            r#"{"n":2,"offsets":[0,2,4],"targets":[1,1,0,0],"m":2}"#,
            "duplicate edge",
        ),
        (
            r#"{"n":3,"offsets":[0,2,3,4],"targets":[2,1,0,0],"m":2}"#,
            "not sorted",
        ),
        (
            r#"{"n":3,"offsets":[0,1,2,2],"targets":[1,2],"m":1}"#,
            "no reverse entry",
        ),
        (r#"{"n":2,"offsets":[0,1,2],"targets":[1,0]}"#, "m"),
        (r#"[0,1]"#, "expected object"),
    ] {
        let e = json_error(text);
        assert!(e.contains(want), "{text}: {e}");
    }
}

#[test]
fn json_round_trip_still_decodes() {
    let g = Graph::from_edges(5, &[(0, 1), (1, 2), (3, 4), (4, 0)]).unwrap();
    let back: Graph = serde_json::from_str(&serde_json::to_string(&g).unwrap()).unwrap();
    assert_eq!(back, g);
    let empty: Graph = serde_json::from_str(r#"{"n":0,"offsets":[0],"targets":[],"m":0}"#).unwrap();
    assert_eq!(empty.n(), 0);
}

/// Edge-list fragments: small ids, ids past the `u32` range, and the
/// format's other tokens. Numbers end in a space so adjacent fragments
/// never join into a large id the CSR could hold: every accepted input
/// stays small.
const TOKENS: &[&str] = &[
    "0 ",
    "1 ",
    "2 ",
    "3 ",
    "7 ",
    "n ",
    "n",
    " ",
    "\n",
    "\n",
    "\t",
    "#",
    "-1 ",
    "x",
    "4294967296 ",
    "18446744073709551615 ",
    "99999999999999999999 ",
    "100000000000 ",
];

/// JSON fragments around the `Graph` fields, out-of-range numbers included.
const JSON_TOKENS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ",",
    ":",
    "\"n\"",
    "\"offsets\"",
    "\"targets\"",
    "\"m\"",
    "0",
    "1",
    "2",
    "-1",
    "1e3",
    "null",
    "\"x\"",
    "4294967296",
    "18446744073709551615",
];

fn join(tokens: &[usize]) -> String {
    tokens.iter().map(|&t| TOKENS[t]).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn edge_list_never_panics_on_token_soup(
        tokens in proptest::collection::vec(0usize..TOKENS.len(), 0..40),
    ) {
        if let Ok(g) = parse_edge_list(&join(&tokens)) {
            assert_canonical(&g);
        }
    }

    #[test]
    fn edge_list_never_panics_on_arbitrary_bytes(
        bytes in proptest::collection::vec(0u8..=255, 0..64),
    ) {
        let text = String::from_utf8_lossy(&bytes);
        if let Ok(g) = parse_edge_list(&text) {
            assert_canonical(&g);
        }
    }

    #[test]
    fn json_never_panics_on_arbitrary_csr_arrays(
        n in 0usize..6,
        offsets in proptest::collection::vec(0u32..8, 0..8),
        targets in proptest::collection::vec(0u32..7, 0..8),
        m in 0usize..5,
    ) {
        let text = format!(
            r#"{{"n":{n},"offsets":{offsets:?},"targets":{targets:?},"m":{m}}}"#
        );
        if let Ok(g) = serde_json::from_str::<Graph>(&text) {
            assert_canonical(&g);
        }
    }

    #[test]
    fn json_never_panics_on_one_corrupted_field(
        n in 2usize..8,
        mask in proptest::collection::vec(proptest::bool::weighted(0.4), 28),
        field in 0usize..4,
        slot in 0usize..64,
        value in 0u32..10,
    ) {
        let edges: Vec<(usize, usize)> = (0..n)
            .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
            .zip(&mask)
            .filter(|(_, &on)| on)
            .map(|(e, _)| e)
            .collect();
        let g = Graph::from_edges(n, &edges).unwrap();
        let Value::Object(mut fields) = serde_json::to_value(&g).unwrap() else {
            unreachable!("a Graph serializes as an object")
        };
        let (_, v) = &mut fields[field];
        match v {
            Value::Array(list) if !list.is_empty() => {
                let i = slot % list.len();
                list[i] = Value::from_u64(value.into());
            }
            _ => *v = Value::from_u64(value.into()),
        }
        let text = serde_json::to_string(&Value::Object(fields)).unwrap();
        if let Ok(back) = serde_json::from_str::<Graph>(&text) {
            assert_canonical(&back);
        }
    }

    #[test]
    fn json_never_panics_on_arbitrary_text(
        tokens in proptest::collection::vec(0usize..JSON_TOKENS.len(), 0..40),
    ) {
        let text: String = tokens.iter().map(|&t| JSON_TOKENS[t]).collect();
        if let Ok(g) = serde_json::from_str::<Graph>(&text) {
            assert_canonical(&g);
        }
    }
}
