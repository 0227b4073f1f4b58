//! Rule-annotated ConcurrentUpDown: every transmission tagged with the
//! paper step (U3, U4, D2, D3, or a merged U4+D3) that produced it.
//!
//! The plain [`crate::concurrent_updown`] emits an opaque schedule; this
//! variant preserves the derivation, which makes three things possible:
//! teaching material that shows the algorithm's anatomy round by round,
//! debugging of reconstructed rules against the paper's timing formulas,
//! and the structural assertions in this module's tests (each rule fires
//! only inside its published time window). The tags come from the same
//! lock-step engine that generates the schedule — each vertex machine's
//! step reports the rule of its send — so the two cannot drift apart.

use crate::fast_planner::Lockstep;
use crate::labeling::FlatLabels;
use gossip_graph::RootedTree;
use gossip_model::{Schedule, Transmission};
use std::collections::BTreeMap;

/// Which step of the paper's §3.2 algorithms produced a transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// (U3) the lip-message sent to the parent at time 0.
    U3Lip,
    /// (U4) a rip-message sent to the parent at time `m - k`.
    U4Rip,
    /// (U4)+(D3) merged: the same message simultaneously to the parent and
    /// to (some) children.
    U4D3Merged,
    /// (D3) an own-subtree message multicast to children at `m - k`.
    D3Down,
    /// (D3) the deferred own message (the `i = k` exception) at `j - k + 1`.
    D3DeferredOwn,
    /// (D2) an o-message forwarded the round it arrived.
    D2Forward,
    /// (D2) an o-message deferred to slot `j - k + 1` or `j - k + 2`.
    D2Deferred,
}

impl Rule {
    /// Short display tag, paper-style.
    pub fn tag(&self) -> &'static str {
        match self {
            Rule::U3Lip => "U3",
            Rule::U4Rip => "U4",
            Rule::U4D3Merged => "U4+D3",
            Rule::D3Down => "D3",
            Rule::D3DeferredOwn => "D3*",
            Rule::D2Forward => "D2",
            Rule::D2Deferred => "D2*",
        }
    }
}

/// One annotated transmission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnnotatedTransmission {
    /// Send time.
    pub time: usize,
    /// The transmission (vertex space).
    pub transmission: Transmission,
    /// The producing rule.
    pub rule: Rule,
}

/// Builds the ConcurrentUpDown schedule with per-transmission rule tags,
/// sorted by `(time, sender)`.
///
/// The underlying schedule (forgetting tags) equals
/// [`crate::concurrent_updown`] exactly — asserted in tests.
pub fn annotated_concurrent_updown(tree: &RootedTree) -> Vec<AnnotatedTransmission> {
    let fl = FlatLabels::build(tree);
    let mut out = Vec::new();
    let engine = Lockstep::new(&fl);
    engine.run(
        0..engine.horizon(),
        &mut |label, t, msg, to_parent, down, rule| {
            let dests = fl.dests(label, to_parent, down);
            out.push(AnnotatedTransmission {
                time: t as usize,
                transmission: Transmission::new(msg, fl.vertex(label) as usize, dests),
                rule,
            });
        },
    );
    // Round-major already; within a round, labels become vertex ids.
    out.sort_by_key(|a| (a.time, a.transmission.from));
    out
}

/// Lookup table from `(send_time, sender_vertex)` — the key shape
/// [`Schedule::iter`] yields — to the producing rule. The model enforces
/// one send per processor per round, so the key is unique; trace exporters
/// use this to label each multicast with the paper rule that caused it.
pub fn rule_tag_index(annotated: &[AnnotatedTransmission]) -> BTreeMap<(usize, usize), Rule> {
    annotated
        .iter()
        .map(|a| ((a.time, a.transmission.from), a.rule))
        .collect()
}

/// Drops the annotations, yielding a plain schedule.
pub fn annotated_to_schedule(annotated: &[AnnotatedTransmission], n: usize) -> Schedule {
    let mut s = Schedule::new(n);
    for a in annotated {
        s.add_transmission(a.time, a.transmission.clone());
    }
    s.trim();
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concurrent::concurrent_updown;
    use gossip_graph::{RootedTree, NO_PARENT};

    fn fig5() -> RootedTree {
        let mut p = vec![0u32; 16];
        for (v, par) in [
            (1, 0),
            (2, 1),
            (3, 1),
            (4, 0),
            (5, 4),
            (6, 5),
            (7, 5),
            (8, 4),
            (9, 8),
            (10, 8),
            (11, 0),
            (12, 11),
            (13, 12),
            (14, 12),
            (15, 11),
        ] {
            p[v] = par;
        }
        p[0] = NO_PARENT;
        RootedTree::from_parents(0, &p).unwrap()
    }

    #[test]
    fn annotations_forget_to_plain_schedule() {
        for tree in [
            fig5(),
            RootedTree::from_parents(0, &[NO_PARENT, 0, 0, 1, 1]).unwrap(),
            RootedTree::from_parents(3, &[1, 2, 3, NO_PARENT, 3, 4, 5]).unwrap(),
        ] {
            let ann = annotated_concurrent_updown(&tree);
            let mut plain = concurrent_updown(&tree);
            plain.normalize();
            let mut forgotten = annotated_to_schedule(&ann, tree.n());
            forgotten.normalize();
            assert_eq!(forgotten, plain);
        }
    }

    #[test]
    fn rules_fire_inside_their_paper_windows() {
        let tree = fig5();
        let fl = FlatLabels::new(&tree);
        for a in annotated_concurrent_updown(&tree) {
            let label = tree.label(a.transmission.from);
            let p = fl.params(label);
            let (i, j, k) = (p.i as usize, p.j as usize, p.k as usize);
            let t = a.time;
            match a.rule {
                Rule::U3Lip => assert_eq!(t, 0),
                Rule::U4Rip | Rule::U4D3Merged => {
                    assert!(t >= i.saturating_sub(k) && t <= j - k, "{a:?}")
                }
                Rule::D3Down => assert!(t >= i - k && t <= j - k, "{a:?}"),
                Rule::D3DeferredOwn => assert_eq!(t, j - k + 1, "{a:?}"),
                Rule::D2Forward => {
                    // D2's send windows: [2, i-k-1] and [j-k+3, n+k].
                    let early = t >= 2 && t < i.saturating_sub(k);
                    let late = t >= j - k + 3 && t <= fl.n() + k;
                    assert!(early || late, "{a:?} (i={i}, j={j}, k={k})");
                }
                Rule::D2Deferred => {
                    assert!(t == j - k + 1 || t == j - k + 2, "{a:?}")
                }
            }
        }
    }

    #[test]
    fn lip_count_equals_nonroot_first_children() {
        let tree = fig5();
        let ann = annotated_concurrent_updown(&tree);
        let lips = ann.iter().filter(|a| a.rule == Rule::U3Lip).count();
        // First children in Fig 5: 1, 2, 5, 6, 9, 12, 13 — one per
        // non-leaf... every vertex with children contributes exactly one.
        let expected = (0..16).filter(|&v| !tree.children(v).is_empty()).count();
        assert_eq!(lips, expected);
    }

    #[test]
    fn deferred_rules_exist_on_fig5() {
        let ann = annotated_concurrent_updown(&fig5());
        assert!(ann.iter().any(|a| a.rule == Rule::D2Deferred));
        assert!(ann.iter().any(|a| a.rule == Rule::D3DeferredOwn));
        assert!(ann.iter().any(|a| a.rule == Rule::U4D3Merged));
    }

    #[test]
    fn tags_are_short() {
        for r in [
            Rule::U3Lip,
            Rule::U4Rip,
            Rule::U4D3Merged,
            Rule::D3Down,
            Rule::D3DeferredOwn,
            Rule::D2Forward,
            Rule::D2Deferred,
        ] {
            assert!(r.tag().len() <= 5);
        }
    }
}
