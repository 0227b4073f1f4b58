//! Property-based tests for gossip-core internals that the facade-level
//! suites do not reach: message classification, gather, the weighted
//! expansion, schedule analysis of generated schedules, and fault
//! robustness of the validator against mutated algorithm output.

use gossip_core::{
    classify, concurrent_updown, gather_schedule, is_lip, is_rip, tree_origins, weighted_gossip,
    FlatLabels, MessageClass,
};
use gossip_graph::{RootedTree, NO_PARENT};
use gossip_model::{analyze_schedule, inject_fault, simulate_gossip, Fault};
use proptest::prelude::*;

fn arb_tree(max_n: usize) -> impl Strategy<Value = RootedTree> {
    (2..=max_n).prop_flat_map(|n| {
        let parents: Vec<BoxedStrategy<u32>> = (1..n).map(|i| (0..i as u32).boxed()).collect();
        parents.prop_map(move |ps| {
            let mut parent = vec![NO_PARENT; n];
            for (i, p) in ps.into_iter().enumerate() {
                parent[i + 1] = p;
            }
            RootedTree::from_parents(0, &parent).expect("valid tree")
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The o/b/s/l/r classes partition messages at every vertex, with the
    /// cardinalities the paper's definitions imply.
    #[test]
    fn classification_partitions(tree in arb_tree(24)) {
        let fl = FlatLabels::new(&tree);
        let n = fl.n() as u32;
        for label in fl.labels() {
            let p = fl.params(label);
            let mut counts = [0usize; 4];
            for m in 0..n {
                match classify(&p, m) {
                    MessageClass::Other => counts[0] += 1,
                    MessageClass::Start => counts[1] += 1,
                    MessageClass::Lookahead => counts[2] += 1,
                    MessageClass::Remaining => counts[3] += 1,
                }
            }
            let body = (p.j - p.i + 1) as usize;
            prop_assert_eq!(counts[1], 1);
            prop_assert_eq!(counts[2], usize::from(body > 1));
            prop_assert_eq!(counts[3], body.saturating_sub(2));
            prop_assert_eq!(counts[0], n as usize - body);
            // lip/rip partition the b-messages seen from the parent.
            if !p.is_root() {
                for m in p.i..=p.j {
                    let l = is_lip(&p, m);
                    let r = is_rip(&p, m);
                    prop_assert!(l ^ r, "message {} must be lip xor rip", m);
                }
            }
        }
    }

    /// Gather delivers message m to the root at time exactly m and nothing
    /// anywhere else gains foreign messages beyond the root path.
    #[test]
    fn gather_is_optimal_everywhere(tree in arb_tree(24)) {
        let s = gather_schedule(&tree);
        prop_assert_eq!(s.makespan(), tree.n() - 1);
        let g = tree.to_graph();
        let a = analyze_schedule(&g, &s, &tree_origins(&tree)).unwrap();
        // No duplicate work in the up phase either.
        prop_assert_eq!(a.redundant_deliveries, 0);
        // Total deliveries = sum over non-root vertices of subtree size
        // (each message is relayed once per ancestor edge).
        let expected: usize = (0..tree.n())
            .filter(|&v| v != tree.root())
            .map(|v| tree.subtree_size(v))
            .sum();
        prop_assert_eq!(a.total_deliveries, expected);
    }

    /// Weighted gossip with all-ones weights is plain ConcurrentUpDown.
    #[test]
    fn weighted_unit_weights_reduce(tree in arb_tree(16)) {
        let plan = weighted_gossip(&tree, &vec![1; tree.n()]).unwrap();
        let direct = concurrent_updown(&tree);
        prop_assert_eq!(plan.schedule.makespan(), direct.makespan());
        prop_assert_eq!(plan.expanded_tree.height(), tree.height());
    }

    /// Weighted gossip completes at W + r' for arbitrary small weights.
    #[test]
    fn weighted_general(tree in arb_tree(8), seed in 0u64..50) {
        let n = tree.n();
        let weights: Vec<usize> = (0..n).map(|v| 1 + ((seed as usize + v * 7) % 3)).collect();
        let plan = weighted_gossip(&tree, &weights).unwrap();
        let g = plan.expanded_tree.to_graph();
        let o = simulate_gossip(&g, &plan.schedule, &plan.origins()).unwrap();
        prop_assert!(o.complete);
        prop_assert_eq!(
            plan.schedule.makespan(),
            plan.total_weight + plan.expanded_tree.height() as usize
        );
    }

    /// Mutating a ConcurrentUpDown schedule is always caught: either a rule
    /// violation or incompleteness (its schedules are redundancy-free, so
    /// any dropped delivery loses information).
    #[test]
    fn mutated_schedules_never_pass_silently(tree in arb_tree(10), seed in 0u64..60) {
        let s = concurrent_updown(&tree);
        let g = tree.to_graph();
        let origins = tree_origins(&tree);
        for &fault in Fault::all() {
            let Some(mutant) = inject_fault(&s, fault, &g, seed) else { continue };
            if mutant == s {
                continue;
            }
            let verdict = simulate_gossip(&g, &mutant, &origins);
            let silent_pass = matches!(&verdict, Ok(o) if o.complete);
            // ShiftEarlier of an origin's own first send can be harmless;
            // every other fault must be detected.
            if silent_pass {
                prop_assert_eq!(fault, Fault::ShiftEarlier, "undetected {:?}", fault);
            }
        }
    }

    /// The analysis of a ConcurrentUpDown schedule shows zero redundancy
    /// and per-message completion exactly when Theorem 1 predicts the last
    /// message lands.
    #[test]
    fn analysis_of_concurrent_updown(tree in arb_tree(20)) {
        let s = concurrent_updown(&tree);
        let g = tree.to_graph();
        let a = analyze_schedule(&g, &s, &tree_origins(&tree)).unwrap();
        prop_assert_eq!(a.redundant_deliveries, 0);
        prop_assert_eq!(a.last_completion(), Some(s.makespan()));
        // Message 0 (the root's) is always the last to finish.
        prop_assert_eq!(a.message_completion[0], Some(s.makespan()));
    }
}
