//! Property-based verification of the paper's Theorem 1 and its supporting
//! lemmas over randomly generated trees and graphs.

use gossip_core::{
    concurrent_updown, run_online, simple_gossip, tree_origins, updown_gossip, FlatLabels,
};
use gossip_graph::{RootedTree, NO_PARENT};
use gossip_model::simulate_gossip;
use proptest::prelude::*;

/// A uniformly-shaped random rooted tree: `parent[i] < i` guarantees a tree
/// rooted at 0 (vertex ids then get permuted by the labeling anyway).
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
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Theorem 1: ConcurrentUpDown completes gossip in exactly n + r rounds
    /// on every tree, and the schedule obeys every model rule.
    #[test]
    fn concurrent_updown_theorem1(tree in arb_tree(40)) {
        let s = concurrent_updown(&tree);
        let n = tree.n();
        let r = tree.height() as usize;
        prop_assert_eq!(s.makespan(), n + r);
        let g = tree.to_graph();
        let o = simulate_gossip(&g, &s, &tree_origins(&tree)).expect("model rules hold");
        prop_assert!(o.complete);
        prop_assert_eq!(o.completion_time, Some(n + r));
    }

    /// Lemma 1: Simple takes exactly 2n + r - 3 rounds, and completes.
    #[test]
    fn simple_lemma1(tree in arb_tree(32)) {
        let s = simple_gossip(&tree);
        let n = tree.n();
        let r = tree.height() as usize;
        prop_assert_eq!(s.makespan(), 2 * n + r - 3);
        let g = tree.to_graph();
        let o = simulate_gossip(&g, &s, &tree_origins(&tree)).expect("model rules hold");
        prop_assert!(o.complete);
    }

    /// UpDown completes within [n - 1, 2n + r - 3] and never beats the
    /// trivial bound.
    #[test]
    fn updown_between_bounds(tree in arb_tree(24)) {
        let s = updown_gossip(&tree);
        let n = tree.n();
        let r = tree.height() as usize;
        let g = tree.to_graph();
        let o = simulate_gossip(&g, &s, &tree_origins(&tree)).expect("model rules hold");
        prop_assert!(o.complete);
        prop_assert!(s.makespan() >= n - 1);
        prop_assert!(s.makespan() <= 2 * n + r - 3);
    }

    /// The online distributed protocol reproduces the offline schedule
    /// byte for byte on every tree.
    #[test]
    fn online_equals_offline(tree in arb_tree(28)) {
        let mut offline = concurrent_updown(&tree);
        offline.normalize();
        prop_assert_eq!(run_online(&tree), offline);
    }

    /// DFS-labeling invariants behind Lemma 2's induction: label >= level,
    /// contiguous subtree ranges, exactly one lip per non-first child set.
    #[test]
    fn labeling_invariants(tree in arb_tree(48)) {
        let fl = FlatLabels::new(&tree);
        for label in fl.labels() {
            let p = fl.params(label);
            prop_assert!(p.i >= p.k, "label {} < level {}", p.i, p.k);
            prop_assert!(p.j >= p.i);
            // Children ranges tile (i, j] exactly.
            let mut cursor = p.i + 1;
            for &c in fl.children(label) {
                let cp = fl.params(c);
                prop_assert_eq!(cp.i, cursor, "gap in subtree ranges");
                cursor = cp.j + 1;
            }
            prop_assert_eq!(cursor, p.j + 1, "ranges do not cover the subtree");
            // First child (and only it) carries the lip-message.
            for (idx, &c) in fl.children(label).iter().enumerate() {
                prop_assert_eq!(fl.params(c).has_lip(), idx == 0);
            }
        }
    }

    /// Message conservation: every (vertex, message) pair is delivered
    /// exactly once by ConcurrentUpDown — no duplicate work.
    #[test]
    fn no_duplicate_deliveries(tree in arb_tree(32)) {
        let s = concurrent_updown(&tree);
        let n = tree.n();
        let mut delivered = vec![vec![false; n]; n];
        for (_, tx) in s.iter() {
            for &d in &tx.to {
                prop_assert!(
                    !delivered[d][tx.msg as usize],
                    "vertex {} got message {} twice", d, tx.msg
                );
                delivered[d][tx.msg as usize] = true;
            }
        }
        // Exactly n * (n - 1) deliveries in total: the information-theoretic
        // minimum.
        let total: usize = delivered.iter().flatten().filter(|&&b| b).count();
        prop_assert_eq!(total, n * (n - 1));
    }
}
