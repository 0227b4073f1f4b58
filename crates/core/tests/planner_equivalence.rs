//! Planner equivalence. Both ConcurrentUpDown generators and the
//! rule-tagged one run one lock-step engine, so each is checked against an
//! independent oracle: the paper's rules overlaid per vertex in a
//! `BTreeMap`, with every label read straight off [`RootedTree`], so it
//! shares no code with the label arena it checks. On the same tree
//! both generators must equal it (`Schedule` `==` and flattened digest),
//! the tagged generator must equal its tagged list, and through the full
//! pipeline (fast tree sweep included) the fast plan must validate with
//! the same `n + r` makespan.

use gossip_core::{
    annotated_concurrent_updown, concurrent_updown, concurrent_updown_flat_on,
    AnnotatedTransmission, FlatLabels, GossipPlanner, Rule,
};
use gossip_graph::{bfs_tree, min_depth_spanning_tree, ChildOrder, Graph, RootedTree, NO_PARENT};
use gossip_model::{CommModel, FlatSchedule, Schedule, SimKernel, Transmission};
use gossip_telemetry::NoopRecorder;
use gossip_workloads::{fig5_tree, random_connected, random_tree};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A pending multicast by one vertex at one time, accumulated while the two
/// protocols are overlaid.
struct PendingSend {
    msg: u32,
    to_parent: bool,
    /// Destination children, as vertices.
    child_dests: Vec<usize>,
    /// The paper steps that fired at this time.
    rules: Vec<Rule>,
}

/// The oracle's overlay in both forms: the plain schedule, and every
/// transmission tagged with its rule, sorted by `(time, sender)`.
struct Oracle {
    schedule: Schedule,
    annotated: Vec<AnnotatedTransmission>,
}

/// The ConcurrentUpDown overlay written straight from the paper's rules
/// (U3/U4 up, D3/D2 down, the `i = k` and busy-window deferrals), one
/// `BTreeMap` of sends per vertex and a full table of parent arrivals. A
/// send is tagged with its one rule, or `U4D3Merged` when an up rule and a
/// down rule fire together.
fn overlay_oracle(tree: &RootedTree) -> Oracle {
    let n = tree.n();
    let mut schedule = Schedule::new(n);
    let mut annotated = Vec::new();
    if n <= 1 {
        return Oracle {
            schedule,
            annotated,
        };
    }
    // recv_from_parent[v] = (arrival time, message) pairs, filled while
    // v's parent (smaller label: DFS preorder) is processed.
    let mut recv_from_parent: Vec<Vec<(usize, u32)>> = vec![Vec::new(); n];
    for label in 0..n as u32 {
        let v = tree.vertex_of_label(label);
        let (i, j) = tree.subtree_range(v);
        let k = tree.level(v);
        let children: Vec<usize> = tree.children(v).iter().map(|&c| c as usize).collect();
        let mut sends: BTreeMap<usize, PendingSend> = BTreeMap::new();
        let mut add = |t: u32, msg: u32, to_parent: bool, child_dests: Vec<usize>, rule: Rule| {
            sends
                .entry(t as usize)
                .and_modify(|e| {
                    assert_eq!(
                        e.msg, msg,
                        "vertex {label} scheduled two messages at time {t}"
                    );
                    e.to_parent |= to_parent;
                    e.child_dests.extend_from_slice(&child_dests);
                    e.rules.push(rule);
                })
                .or_insert(PendingSend {
                    msg,
                    to_parent,
                    child_dests,
                    rules: vec![rule],
                });
        };
        if let Some(parent) = tree.parent(v) {
            let parent_i = tree.label(parent);
            // (U3): the lip-message (i = i' + 1) goes up at time 0.
            if i == parent_i + 1 {
                add(0, i, true, Vec::new(), Rule::U3Lip);
            }
            // (U4): rip-messages, m in [max(i, i' + 2), j], go up at time
            // m - k.
            for m in i.max(parent_i + 2)..=j {
                add(m - k, m, true, Vec::new(), Rule::U4Rip);
            }
        }
        if !children.is_empty() {
            // (D3): own-subtree messages go down at time m - k, skipping the
            // child that already has them; the i = k exception defers the own
            // message to time j - k + 1.
            for m in i..=j {
                let (t, rule) = if m == i && i == k {
                    (j - k + 1, Rule::D3DeferredOwn)
                } else {
                    (m - k, Rule::D3Down)
                };
                let owner = tree.child_containing_label(v, m);
                let dests: Vec<usize> = children
                    .iter()
                    .copied()
                    .filter(|&c| owner != Some(c))
                    .collect();
                if !dests.is_empty() {
                    add(t, m, false, dests, rule);
                }
            }
            // (D2): forward o-messages from the parent on arrival, with the
            // two deferred slots.
            for &(t_arrive, m) in &recv_from_parent[v] {
                assert!(
                    m < i || m > j,
                    "vertex {label} received own-subtree message {m} from its parent"
                );
                let t_arrive = t_arrive as u32;
                let (t_send, rule) = if t_arrive == i - k {
                    (j - k + 1, Rule::D2Deferred)
                } else if t_arrive == i - k + 1 {
                    (j - k + 2, Rule::D2Deferred)
                } else {
                    (t_arrive, Rule::D2Forward)
                };
                add(t_send, m, false, children.clone(), rule);
            }
        }
        for (t, ev) in sends {
            let mut dests: Vec<usize> = Vec::with_capacity(ev.child_dests.len() + 1);
            if ev.to_parent {
                dests.push(tree.parent(v).expect("only a non-root sends up"));
            }
            for &c in &ev.child_dests {
                recv_from_parent[c].push((t + 1, ev.msg));
                dests.push(c);
            }
            let tx = Transmission::new(ev.msg, v, dests);
            schedule.add_transmission(t, tx.clone());
            let rule = match ev.rules[..] {
                [rule] => rule,
                _ => {
                    assert!(ev.rules.contains(&Rule::U4Rip), "{:?}", ev.rules);
                    Rule::U4D3Merged
                }
            };
            annotated.push(AnnotatedTransmission {
                time: t,
                transmission: tx,
                rule,
            });
        }
    }
    schedule.trim();
    annotated.sort_by_key(|a| (a.time, a.transmission.from));
    Oracle {
        schedule,
        annotated,
    }
}

/// The rule-tagged generator against the oracle's tagged list,
/// transmission for transmission.
fn assert_annotated_matches_oracle(tree: &RootedTree, oracle: &Oracle) {
    let annotated = annotated_concurrent_updown(tree);
    assert_eq!(
        annotated.len(),
        oracle.annotated.len(),
        "annotated length on n = {}",
        tree.n()
    );
    for (a, o) in annotated.iter().zip(&oracle.annotated) {
        assert_eq!(a, o, "annotated mismatch on n = {}", tree.n());
    }
}

/// Both generators against [`overlay_oracle`] on `tree`: `Schedule` `==`
/// for the reference generator, CSR `==` and equal digests for both
/// flattened forms.
fn assert_generators_match_oracle(tree: &RootedTree) {
    let oracle = overlay_oracle(tree);
    assert_annotated_matches_oracle(tree, &oracle);
    let reference = concurrent_updown(tree);
    assert_eq!(reference, oracle.schedule, "Schedule mismatch on {tree:?}");
    let oracle_flat = FlatSchedule::from_schedule(&oracle.schedule);
    let fast = concurrent_updown_flat_on(&FlatLabels::new(tree), &NoopRecorder);
    if let Some(d) = diff_flat(&fast, &oracle_flat) {
        panic!("CSR mismatch on n = {}: {d}", tree.n());
    }
    assert_eq!(
        FlatSchedule::from_schedule(&reference).digest(),
        oracle_flat.digest()
    );
    assert_eq!(fast.digest(), oracle_flat.digest());
}

#[test]
fn generators_match_overlay_oracle_on_structured_trees() {
    assert_generators_match_oracle(&fig5_tree());
    for n in [1usize, 2, 3, 7, 16, 65] {
        // Path rooted at an end (the i = k exception at every level) and
        // at its center.
        let end: Vec<u32> = (0..n as u32).map(|v| v.wrapping_sub(1)).collect();
        assert_generators_match_oracle(&RootedTree::from_parents(0, &end).unwrap());
        let c = (n / 2) as u32;
        let center: Vec<u32> = (0..n as u32)
            .map(|v| match v.cmp(&c) {
                std::cmp::Ordering::Less => v + 1,
                std::cmp::Ordering::Equal => NO_PARENT,
                std::cmp::Ordering::Greater => v - 1,
            })
            .collect();
        assert_generators_match_oracle(&RootedTree::from_parents(c as usize, &center).unwrap());
        // Star: every non-root a leaf; the root multicasts everything.
        let mut star = vec![0u32; n];
        star[0] = NO_PARENT;
        assert_generators_match_oracle(&RootedTree::from_parents(0, &star).unwrap());
        // Caterpillar: a spine 0..n/2 with one leaf per spine vertex.
        let spine = n.div_ceil(2);
        let cat: Vec<u32> = (0..n)
            .map(|v| match v {
                0 => NO_PARENT,
                v if v < spine => (v - 1) as u32,
                v => (v - spine) as u32,
            })
            .collect();
        assert_generators_match_oracle(&RootedTree::from_parents(0, &cat).unwrap());
        // Complete binary tree (heap order).
        let mut heap: Vec<u32> = (0..n).map(|v| (v.saturating_sub(1) / 2) as u32).collect();
        heap[0] = NO_PARENT;
        assert_generators_match_oracle(&RootedTree::from_parents(0, &heap).unwrap());
    }
    // Permuted vertex ids: label space != vertex space.
    assert_generators_match_oracle(&RootedTree::from_parents(2, &[2, 0, NO_PARENT, 2, 3]).unwrap());
}

fn diff_flat(fast: &FlatSchedule, reference: &FlatSchedule) -> Option<String> {
    if fast == reference {
        return None;
    }
    if fast.rounds() != reference.rounds() {
        return Some(format!(
            "rounds differ: fast {} vs reference {}",
            fast.rounds(),
            reference.rounds()
        ));
    }
    for t in 0..fast.rounds() {
        let (fr, rr) = (fast.round_range(t), reference.round_range(t));
        if fr.len() != rr.len() {
            return Some(format!(
                "round {t}: {} vs {} transmissions",
                fr.len(),
                rr.len()
            ));
        }
        for (a, b) in fr.zip(rr) {
            if fast.msg_of(a) != reference.msg_of(b)
                || fast.from_of(a) != reference.from_of(b)
                || fast.dests_of(a) != reference.dests_of(b)
            {
                return Some(format!(
                    "round {t}: tx (msg {} from {} -> {:?}) vs (msg {} from {} -> {:?})",
                    fast.msg_of(a),
                    fast.from_of(a),
                    fast.dests_of(a),
                    reference.msg_of(b),
                    reference.from_of(b),
                    reference.dests_of(b),
                ));
            }
        }
    }
    Some("arrays differ outside per-round content (offsets/metadata)".to_string())
}

fn assert_equivalent_on(g: &Graph) {
    assert_generators_match_oracle(&min_depth_spanning_tree(g, ChildOrder::ById).unwrap());
}

#[test]
fn csr_direct_matches_reference_on_random_graphs() {
    for (n, p, seed) in [
        (64, 0.10, 7u64),
        (128, 0.05, 11),
        (256, 0.02, 13),
        (512, 0.05, 77),
        (512, 0.104, 77),
        (300, 0.01, 42),
    ] {
        assert_equivalent_on(&random_connected(n, p, seed));
    }
}

#[test]
fn fast_plan_validates_with_same_bound_on_random_graphs() {
    for (n, p, seed) in [(96usize, 0.08, 3u64), (200, 0.03, 9), (400, 0.015, 21)] {
        let g = random_connected(n, p, seed);
        let planner = GossipPlanner::new(&g).unwrap();
        let reference = planner.plan().unwrap();
        let fast = planner.plan_fast().unwrap();
        assert_eq!(fast.radius, reference.radius, "n = {n}");
        assert_eq!(fast.makespan(), reference.makespan(), "n = {n}");
        assert!(fast.makespan() <= fast.guarantee());
        fast.schedule.validate(&g, CommModel::Multicast, n).unwrap();
        let mut kernel =
            SimKernel::with_origins(&g, CommModel::Multicast, &fast.origin_of_message).unwrap();
        let outcome = kernel.run_prevalidated(&fast.schedule).unwrap();
        assert!(outcome.complete, "n = {n}");
        assert_annotated_matches_oracle(&fast.tree, &overlay_oracle(&fast.tree));
        if fast.tree == reference.tree {
            let ref_flat = FlatSchedule::from_schedule(&reference.schedule);
            if let Some(d) = diff_flat(&fast.schedule, &ref_flat) {
                panic!("pipeline CSR mismatch on n = {n}: {d}");
            }
        }
    }
}

proptest! {
    // 48 cases per CI run; the nightly property job raises this through
    // the global PROPTEST_CASES override (see vendor/proptest).
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// On arbitrary seeded connected G(n, p): both plans equal the overlay
    /// oracle on their own trees, the fast plan validates, meets the
    /// reference's exact makespan (n + r by Theorem 1), and — whenever the
    /// root tie-break picked the same tree — is byte-identical to the
    /// reference flatten.
    fn fast_and_reference_agree_on_random_connected(
        n in 4usize..72,
        p_mille in 20u64..250,
        seed in 0u64..1u64 << 48,
    ) {
        let g = random_connected(n, p_mille as f64 / 1000.0, seed);
        let planner = GossipPlanner::new(&g).unwrap();
        let reference = planner.plan().unwrap();
        let fast = planner.plan_fast().unwrap();
        let reference_oracle = overlay_oracle(&reference.tree);
        prop_assert_eq!(&reference.schedule, &reference_oracle.schedule);
        prop_assert_eq!(
            annotated_concurrent_updown(&reference.tree),
            reference_oracle.annotated
        );
        let fast_oracle = overlay_oracle(&fast.tree);
        prop_assert_eq!(
            &fast.schedule,
            &FlatSchedule::from_schedule(&fast_oracle.schedule)
        );
        prop_assert_eq!(annotated_concurrent_updown(&fast.tree), fast_oracle.annotated);
        prop_assert_eq!(fast.radius, reference.radius);
        prop_assert_eq!(fast.makespan(), reference.makespan());
        prop_assert!(fast.makespan() <= fast.guarantee());
        fast.schedule.validate(&g, CommModel::Multicast, n).unwrap();
        if fast.tree == reference.tree {
            let ref_flat = FlatSchedule::from_schedule(&reference.schedule);
            if let Some(d) = diff_flat(&fast.schedule, &ref_flat) {
                return Err(format!("CSR mismatch: {d}"));
            }
        }
    }

    /// Deep, irregular trees: a uniform random tree on up to 160
    /// vertices, rooted at a random vertex (heights far above a
    /// minimum-depth tree's, long D2 deferral chains) and at its center
    /// with the largest subtree first. Both generators and the tags must
    /// equal the overlay oracle on each.
    fn generators_match_oracle_on_random_trees(
        n in 2usize..=160,
        seed in 0u64..1u64 << 48,
        root_pick in 0usize..1 << 16,
    ) {
        let g = random_tree(n, seed);
        assert_generators_match_oracle(&bfs_tree(&g, root_pick % n, ChildOrder::ById).unwrap());
        assert_generators_match_oracle(
            &min_depth_spanning_tree(&g, ChildOrder::LargestSubtreeFirst).unwrap(),
        );
    }
}
