//! Plan decoders on hostile input: `ChurnPlan`, `FaultPlan` and `RuleSet`
//! JSON return `Ok` or an error, and never panic, on arbitrary bytes, on
//! JSON token soup, and on valid documents with one field replaced. Every
//! plan that decodes is then run through its validation and the methods
//! the executors call on it.

use gossip_graph::Graph;
use gossip_model::{ChurnEvent, ChurnPlan, FaultPlan, MAX_CHURN_ROUND};
use gossip_telemetry::RuleSet;
use proptest::prelude::*;
use serde_json::Value;

/// The paper's Fig 4 network: the Fig 5 tree plus five chords.
fn fig4() -> Graph {
    let edges = [
        (0, 1),
        (1, 2),
        (1, 3),
        (0, 4),
        (4, 5),
        (5, 6),
        (5, 7),
        (4, 8),
        (8, 9),
        (8, 10),
        (0, 11),
        (11, 12),
        (12, 13),
        (12, 14),
        (11, 15),
        (3, 5),
        (7, 9),
        (10, 13),
        (14, 15),
        (2, 5),
    ];
    Graph::from_edges(16, &edges).unwrap()
}

/// Decodes `text` as a churn plan and, if it decodes, checks it against
/// Fig 4 and normalizes it, as `gossip churn --churn-plan` does.
fn churn(text: &str) -> Result<(), String> {
    let plan: ChurnPlan = serde_json::from_str(text).map_err(|e| e.to_string())?;
    let admissible = plan.validate_against(&fig4());
    let events = plan.normalized_events();
    assert!(events.windows(2).all(|w| w[0].round <= w[1].round));
    assert_eq!(plan.last_round(), events.last().map_or(0, |e| e.round));
    admissible
}

/// Decodes `text` as a fault plan and, if it decodes and validates on 16
/// processors, queries it the way the lossy executor does.
fn fault(text: &str) -> Result<(), String> {
    let plan: FaultPlan = serde_json::from_str(text).map_err(|e| e.to_string())?;
    plan.validate(16)?;
    for round in [0, 1, 7, usize::MAX] {
        assert_eq!(plan.alive_at(16, round).len(), 16);
        let _ = (plan.loses(round, 0, 1), plan.link_down(0, 1, round));
    }
    Ok(())
}

fn rules(text: &str) -> Result<(), String> {
    text.parse::<RuleSet>().map(drop)
}

/// One of the decoders above.
type Decoder = fn(&str) -> Result<(), String>;

fn churn_doc() -> Value {
    let plan = ChurnPlan::new(3)
        .with_event(ChurnEvent::link_flap(2, 0, 1, 3))
        .with_event(ChurnEvent::node_leave(4, 6))
        .with_event(ChurnEvent::node_join(9, 6))
        .with_event(ChurnEvent::edge_add(9, 5, 6))
        .with_event(ChurnEvent::edge_add(10, 6, 7));
    serde_json::to_value(&plan).unwrap()
}

fn fault_doc() -> Value {
    let plan = FaultPlan::new(5)
        .with_loss_rate(0.25)
        .with_outage(0, 1, 2, 6)
        .with_crash(3, 4);
    serde_json::to_value(&plan).unwrap()
}

fn rules_doc() -> Value {
    serde_json::from_str(
        r#"{"schema_version": 1, "rules": [
            {"rule": "stall", "severity": "critical", "budget_ms": 100},
            {"rule": "flatline", "rounds": 4},
            {"rule": "bound", "margin_pct": 10, "sustain": 2},
            {"rule": "loss_spike", "rate": 0.5, "min_count": 3},
            {"rule": "epoch_budget", "fraction": 0.5, "severity": "warn"},
            {"rule": "churn_storm", "invalidated": 8}]}"#,
    )
    .unwrap()
}

/// Values a mutated field takes: extremes of every integer width the
/// plans use, wrong types, and empty containers.
const REPLACEMENTS: &[&str] = &[
    "0",
    "1",
    "-1",
    "4294967294",
    "4294967295",
    "4294967296",
    "18446744073709551615",
    "1e300",
    "-0.5",
    "0.5",
    "null",
    "true",
    "\"x\"",
    "\"LinkFlap\"",
    "\"NodeJoin\"",
    "\"critical\"",
    "[]",
    "{}",
];

fn replacement(pick: usize) -> Value {
    serde_json::from_str(REPLACEMENTS[pick]).unwrap()
}

/// The fields below `v`, objects and arrays alike.
fn fields(v: &Value) -> usize {
    match v {
        Value::Array(items) => items.iter().map(|x| 1 + fields(x)).sum(),
        Value::Object(members) => members.iter().map(|(_, x)| 1 + fields(x)).sum(),
        _ => 0,
    }
}

/// `doc` with its `slot`-th field (depth first) replaced by `value`.
fn mutate(doc: &Value, slot: usize, value: Value) -> String {
    /// Replaces the `left`-th field below `v`, counting `left` down.
    fn visit(v: &mut Value, left: &mut usize, value: &Value) -> bool {
        let children: Vec<&mut Value> = match v {
            Value::Array(items) => items.iter_mut().collect(),
            Value::Object(members) => members.iter_mut().map(|(_, x)| x).collect(),
            _ => return false,
        };
        for child in children {
            if *left == 0 {
                *child = value.clone();
                return true;
            }
            *left -= 1;
            if visit(child, left, value) {
                return true;
            }
        }
        false
    }
    let mut doc = doc.clone();
    let mut left = slot;
    assert!(visit(&mut doc, &mut left, &value));
    serde_json::to_string(&doc).unwrap()
}

/// JSON fragments around the three documents' fields.
const JSON_TOKENS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ",",
    ":",
    "\"schema_version\"",
    "\"seed\"",
    "\"events\"",
    "\"round\"",
    "\"op\"",
    "\"u\"",
    "\"v\"",
    "\"down_for\"",
    "\"LinkFlap\"",
    "\"loss_rate\"",
    "\"outages\"",
    "\"crashes\"",
    "\"rules\"",
    "\"rule\"",
    "\"stall\"",
    "1",
    "0",
    "4294967295",
    "18446744073709551615",
    "-1",
    "0.5",
    "null",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn plan_decoders_never_panic_on_arbitrary_bytes(
        bytes in proptest::collection::vec(0u8..=255, 0..64),
    ) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = (churn(&text), fault(&text), rules(&text));
    }

    #[test]
    fn plan_decoders_never_panic_on_token_soup(
        tokens in proptest::collection::vec(0usize..JSON_TOKENS.len(), 0..48),
    ) {
        let text: String = tokens.iter().map(|&t| JSON_TOKENS[t]).collect();
        let _ = (churn(&text), fault(&text), rules(&text));
    }
}

/// Every field of each valid document, replaced by every value of
/// [`replacement`] in turn.
#[test]
fn plan_decoders_never_panic_on_one_field_mutations() {
    let decoders: [(Value, Decoder); 3] = [
        (churn_doc(), churn),
        (fault_doc(), fault),
        (rules_doc(), rules),
    ];
    for (doc, decode) in decoders {
        for slot in 0..fields(&doc) {
            for pick in 0..REPLACEMENTS.len() {
                let _ = decode(&mutate(&doc, slot, replacement(pick)));
            }
        }
    }
}

#[test]
fn valid_documents_decode() {
    churn(&serde_json::to_string(&churn_doc()).unwrap()).unwrap();
    fault(&serde_json::to_string(&fault_doc()).unwrap()).unwrap();
    rules(&serde_json::to_string(&rules_doc()).unwrap()).unwrap();
}

#[test]
fn flap_whose_return_overflows_is_rejected() {
    let text = r#"{"schema_version": 1, "seed": 0, "events": [
        {"round": 4294967295, "op": "LinkFlap", "u": 1, "v": 2, "down_for": 1}]}"#;
    let err = churn(text).unwrap_err();
    assert!(err.contains("link_flap at round 4294967295"), "{err}");
}

#[test]
fn rounds_past_the_churn_round_bound_are_rejected() {
    let encode = |plan: ChurnPlan| serde_json::to_string(&plan).unwrap();
    let leave = |round| encode(ChurnPlan::new(0).with_event(ChurnEvent::node_leave(round, 6)));
    churn(&leave(MAX_CHURN_ROUND)).unwrap();
    let err = churn(&leave(MAX_CHURN_ROUND + 1)).unwrap_err();
    assert!(
        err.contains(&format!("node_leave at round {}", MAX_CHURN_ROUND + 1)),
        "{err}"
    );
    // A link flap names its return round too.
    let flap = |down_for| {
        encode(ChurnPlan::new(0).with_event(ChurnEvent::link_flap(
            MAX_CHURN_ROUND - 1,
            0,
            1,
            down_for,
        )))
    };
    churn(&flap(1)).unwrap();
    let err = churn(&flap(2)).unwrap_err();
    assert!(
        err.contains(&format!(
            "link_flap at round {} names round {}",
            MAX_CHURN_ROUND - 1,
            MAX_CHURN_ROUND + 1
        )),
        "{err}"
    );
}
