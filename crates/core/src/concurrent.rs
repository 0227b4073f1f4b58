//! Algorithm **ConcurrentUpDown**: the paper's main result (§3.2,
//! Theorem 1) — a gossip schedule of total communication time `n + r` on any
//! tree with `n` vertices and height `r`.
//!
//! The schedule is the conflict-free overlay of two per-vertex protocols run
//! at every vertex `v` (label `i`, subtree range `[i, j]`, level `k`,
//! parent's label `i'`):
//!
//! **Propagate-Up** (gets every message to the root by time `n - 1`):
//! - (U3) at time 0, send the *lip-message* (own message `i`, when
//!   `i = i' + 1`) to the parent;
//! - (U4) send each *rip-message* `m ∈ [max(i, i'+2), j]` to the parent at
//!   time `m - k`.
//!
//! **Propagate-Down** (pushes everything to the leaves):
//! - (D3) for `m ∈ [i, j]`, at time `m - k` multicast `m` to all children
//!   except the one whose subtree contains `m`; exception: when `i = k`
//!   (leftmost-path vertices, including the root), the own message `i` is
//!   sent at time `j - k + 1` instead of `i - k` (sending at `i - k` would
//!   collide with lookahead receives one level down);
//! - (D2) forward each *o-message* received from the parent at the time it
//!   arrives — except arrivals at times `i - k` and `i - k + 1`, which are
//!   deferred to `j - k + 1` and `j - k + 2` (the vertex is busy multicasting
//!   its own subtree's messages during `[i - k, j - k]`).
//!
//! Steps (U1), (U2), and (D1) of the paper are the *receive* sides of the
//! above and are implied. When U4 and D3 fire at the same time they carry
//! the same message `m`, so they merge into a single multicast to
//! `{parent} ∪ children` — the observation the paper's Theorem 1 proof
//! hinges on.
//!
//! Every vertex's two protocols are one machine of the fast planner's
//! lock-step engine (`fast_planner.rs`), which steps all of them once per
//! round — the paper's §4 online execution — so the schedule is produced
//! round by round, each round's sends in ascending sender label.

use crate::fast_planner::Lockstep;
use crate::labeling::FlatLabels;
use gossip_graph::RootedTree;
use gossip_model::{CommRound, Schedule, Transmission};
use gossip_telemetry::{NoopRecorder, Recorder, RecorderExt};

/// Builds the ConcurrentUpDown schedule for `tree`.
///
/// The returned schedule is in *vertex space* (transmissions name original
/// vertex ids); message `m` is the one originating at the vertex with DFS
/// label `m`, i.e. the origin table is [`FlatLabels::origins`] /
/// [`tree_origins`].
///
/// The makespan is exactly `n + r` for `n >= 2` (and 0 for `n = 1`), where
/// `r` is the height of `tree`.
///
/// # Examples
///
/// ```
/// use gossip_graph::{Graph, min_depth_spanning_tree, ChildOrder};
/// use gossip_core::{concurrent_updown, tree_origins};
/// use gossip_model::simulate_gossip;
///
/// let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
/// let tree = min_depth_spanning_tree(&g, ChildOrder::ById).unwrap();
/// let schedule = concurrent_updown(&tree);
/// assert_eq!(schedule.makespan(), 5 + 2); // n + r
/// let outcome = simulate_gossip(&g, &schedule, &tree_origins(&tree)).unwrap();
/// assert!(outcome.complete);
/// ```
pub fn concurrent_updown(tree: &RootedTree) -> Schedule {
    concurrent_updown_recorded(tree, &NoopRecorder)
}

/// [`concurrent_updown`] with telemetry: a `concurrent_updown` span with
/// `labeling` / `overlay` child spans, and `generate/*` counters for the
/// transmissions, deliveries, and merged U4+D3 multicasts scheduled.
///
/// The overlay is the fast planner's lock-step engine over
/// [`FlatLabels`], the one label arena, so this schedule and
/// [`concurrent_updown_flat_on`](crate::concurrent_updown_flat_on)'s CSR
/// are one event sequence in two representations. The engine produces
/// the sends round by round, so each round is filled in turn.
///
/// # Panics
///
/// Panics if the overlay schedules a vertex to send two messages at one
/// time (Theorem 1 rules this out).
pub fn concurrent_updown_recorded(tree: &RootedTree, recorder: &dyn Recorder) -> Schedule {
    let span = recorder.span("concurrent_updown");
    let fl = {
        let _s = recorder.span("labeling");
        FlatLabels::build(tree)
    };
    let n = fl.n();
    let mut schedule = Schedule::new(n);
    if n <= 1 {
        return schedule;
    }
    let _overlay = recorder.span("overlay");
    let mut merged_multicasts = 0u64;
    // The makespan is n + height (Theorem 1); the engine's slack round,
    // trimmed below, keeps `add_transmission` from ever growing the round
    // list.
    let engine = Lockstep::new(&fl);
    schedule
        .rounds
        .resize_with(engine.horizon() as usize, CommRound::new);
    engine.run(
        0..engine.horizon(),
        &mut |label, t, msg, to_parent, down, _rule| {
            let dests = fl.dests(label, to_parent, down);
            if to_parent && dests.len() > 1 {
                merged_multicasts += 1;
            }
            schedule.add_transmission(
                t as usize,
                Transmission::new(msg, fl.vertex(label) as usize, dests),
            );
        },
    );

    schedule.trim();
    crate::pipeline::record_generated(&span, recorder, &schedule, Some(merged_multicasts));
    schedule
}

/// The origin table matching schedules built from `tree`: message `m`
/// originates at the vertex whose DFS label is `m`.
pub fn tree_origins(tree: &RootedTree) -> Vec<usize> {
    (0..tree.n() as u32)
        .map(|m| tree.vertex_of_label(m))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_graph::{RootedTree, NO_PARENT};
    use gossip_model::{simulate_gossip, vertex_trace};

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

    fn run_and_check(tree: &RootedTree) -> Schedule {
        let schedule = concurrent_updown(tree);
        let g = tree.to_graph();
        let outcome = simulate_gossip(&g, &schedule, &tree_origins(tree)).unwrap();
        assert!(outcome.complete, "gossip incomplete on {tree:?}");
        schedule
    }

    #[test]
    fn fig5_makespan_is_n_plus_r() {
        let tree = fig5();
        let s = run_and_check(&tree);
        assert_eq!(s.makespan(), 16 + 3);
    }

    /// Paper Table 1: the root's schedule. "Message i is received at time i
    /// and it is sent at time i" (for i >= 1), message 0 sent at time 16.
    #[test]
    fn paper_table_1() {
        let tree = fig5();
        let s = concurrent_updown(&tree);
        let tr = vertex_trace(&s, &tree, 0);
        for m in 1..=15u32 {
            assert_eq!(tr.recv_from_child[m as usize], Some(m), "recv {m}");
            assert_eq!(tr.send_to_children[m as usize], Some(m), "send {m}");
        }
        assert_eq!(tr.send_to_children[16], Some(0));
        assert_eq!(tr.recv_from_parent.iter().flatten().count(), 0);
        assert_eq!(tr.send_to_parent.iter().flatten().count(), 0);
        assert_eq!(tr.recv_from_child[16], None);
    }

    /// Paper Table 2: vertex with message 1 (i = 1, j = 3, k = 1).
    #[test]
    fn paper_table_2() {
        let tree = fig5();
        let s = concurrent_updown(&tree);
        let tr = vertex_trace(&s, &tree, 1);

        // Receive from Parent: 4..15 at times 5..16, then 0 at 17.
        let mut expected_rp = [None; 19];
        for m in 4..=15u32 {
            expected_rp[m as usize + 1] = Some(m);
        }
        expected_rp[17] = Some(0);
        assert_eq!(tr.recv_from_parent[..=17], expected_rp[..=17]);

        // Receive from Child: 2 at time 1, 3 at time 2.
        assert_eq!(tr.recv_from_child[1], Some(2));
        assert_eq!(tr.recv_from_child[2], Some(3));
        assert_eq!(tr.recv_from_child.iter().flatten().count(), 2);

        // Send to Parent: 1, 2, 3 at times 0, 1, 2.
        assert_eq!(tr.send_to_parent[0], Some(1));
        assert_eq!(tr.send_to_parent[1], Some(2));
        assert_eq!(tr.send_to_parent[2], Some(3));
        assert_eq!(tr.send_to_parent.iter().flatten().count(), 3);

        // Send to Child: 2 at 1, 3 at 2, 1 at 3, then 4..15 at 5..16, 0 at 17.
        assert_eq!(tr.send_to_children[1], Some(2));
        assert_eq!(tr.send_to_children[2], Some(3));
        assert_eq!(tr.send_to_children[3], Some(1));
        assert_eq!(tr.send_to_children[4], None);
        for m in 4..=15u32 {
            assert_eq!(tr.send_to_children[m as usize + 1], Some(m), "send {m}");
        }
        assert_eq!(tr.send_to_children[17], Some(0));
    }

    /// Paper Table 3: vertex with message 4 (i = 4, j = 10, k = 1);
    /// messages 2 and 3 are the delayed ones.
    #[test]
    fn paper_table_3() {
        let tree = fig5();
        let s = concurrent_updown(&tree);
        let tr = vertex_trace(&s, &tree, 4);

        // Receive from Parent: 1, 2, 3 at times 2, 3, 4; 11..15 at 12..16;
        // 0 at 17.
        assert_eq!(tr.recv_from_parent[2], Some(1));
        assert_eq!(tr.recv_from_parent[3], Some(2));
        assert_eq!(tr.recv_from_parent[4], Some(3));
        for m in 11..=15u32 {
            assert_eq!(tr.recv_from_parent[m as usize + 1], Some(m), "recv {m}");
        }
        assert_eq!(tr.recv_from_parent[17], Some(0));
        assert_eq!(tr.recv_from_parent.iter().flatten().count(), 9);

        // Receive from Child: 5 at time 1 (lookahead), 6..10 at 5..9.
        assert_eq!(tr.recv_from_child[1], Some(5));
        for m in 6..=10u32 {
            assert_eq!(tr.recv_from_child[m as usize - 1], Some(m), "recv {m}");
        }

        // Send to Parent: 4..10 at times 3..9.
        for m in 4..=10u32 {
            assert_eq!(tr.send_to_parent[m as usize - 1], Some(m), "send {m}");
        }
        assert_eq!(tr.send_to_parent.iter().flatten().count(), 7);

        // Send to Child: 1 at 2; 4..10 at 3..9; the delayed 2, 3 at 10, 11;
        // 11..15 at 12..16; 0 at 17.
        assert_eq!(tr.send_to_children[2], Some(1));
        for m in 4..=10u32 {
            assert_eq!(tr.send_to_children[m as usize - 1], Some(m), "send {m}");
        }
        assert_eq!(tr.send_to_children[10], Some(2));
        assert_eq!(tr.send_to_children[11], Some(3));
        for m in 11..=15u32 {
            assert_eq!(tr.send_to_children[m as usize + 1], Some(m), "send {m}");
        }
        assert_eq!(tr.send_to_children[17], Some(0));
    }

    /// Paper Table 4: vertex with message 8 (i = 8, j = 10, k = 2);
    /// messages 6 and 7 are the delayed ones.
    #[test]
    fn paper_table_4() {
        let tree = fig5();
        let s = concurrent_updown(&tree);
        let tr = vertex_trace(&s, &tree, 8);

        // Receive from Parent: 1 at 3; 4, 5 at 4, 5; 6, 7 at 6, 7;
        // 2, 3 at 11, 12; 11..15 at 13..17; 0 at 18.
        assert_eq!(tr.recv_from_parent[3], Some(1));
        assert_eq!(tr.recv_from_parent[4], Some(4));
        assert_eq!(tr.recv_from_parent[5], Some(5));
        assert_eq!(tr.recv_from_parent[6], Some(6));
        assert_eq!(tr.recv_from_parent[7], Some(7));
        assert_eq!(tr.recv_from_parent[11], Some(2));
        assert_eq!(tr.recv_from_parent[12], Some(3));
        for m in 11..=15u32 {
            assert_eq!(tr.recv_from_parent[m as usize + 2], Some(m), "recv {m}");
        }
        assert_eq!(tr.recv_from_parent[18], Some(0));

        // Receive from Child: 9 at time 1 (lookahead), 10 at time 8.
        assert_eq!(tr.recv_from_child[1], Some(9));
        assert_eq!(tr.recv_from_child[8], Some(10));
        assert_eq!(tr.recv_from_child.iter().flatten().count(), 2);

        // Send to Parent: 8, 9, 10 at times 6, 7, 8.
        assert_eq!(tr.send_to_parent[6], Some(8));
        assert_eq!(tr.send_to_parent[7], Some(9));
        assert_eq!(tr.send_to_parent[8], Some(10));
        assert_eq!(tr.send_to_parent.iter().flatten().count(), 3);

        // Send to Child: forwarded 1, 4, 5 at 3, 4, 5; own 8, 9, 10 at
        // 6, 7, 8; deferred 6, 7 at 9, 10; 2, 3 at 11, 12; 11..15 at
        // 13..17; 0 at 18.
        assert_eq!(tr.send_to_children[3], Some(1));
        assert_eq!(tr.send_to_children[4], Some(4));
        assert_eq!(tr.send_to_children[5], Some(5));
        assert_eq!(tr.send_to_children[6], Some(8));
        assert_eq!(tr.send_to_children[7], Some(9));
        assert_eq!(tr.send_to_children[8], Some(10));
        assert_eq!(tr.send_to_children[9], Some(6));
        assert_eq!(tr.send_to_children[10], Some(7));
        assert_eq!(tr.send_to_children[11], Some(2));
        assert_eq!(tr.send_to_children[12], Some(3));
        for m in 11..=15u32 {
            assert_eq!(tr.send_to_children[m as usize + 2], Some(m), "send {m}");
        }
        assert_eq!(tr.send_to_children[18], Some(0));
    }

    #[test]
    fn singleton_and_pair() {
        let t1 = RootedTree::from_parents(0, &[NO_PARENT]).unwrap();
        assert_eq!(concurrent_updown(&t1).makespan(), 0);

        let t2 = RootedTree::from_parents(0, &[NO_PARENT, 0]).unwrap();
        let s = run_and_check(&t2);
        assert_eq!(s.makespan(), 2 + 1);
    }

    #[test]
    fn paths_various_roots() {
        // Path of 7 rooted at the center: r = 3.
        let t = RootedTree::from_parents(3, &[1, 2, 3, NO_PARENT, 3, 4, 5]).unwrap();
        let s = run_and_check(&t);
        assert_eq!(s.makespan(), 7 + 3);

        // Path of 5 rooted at an end: r = 4 (not minimum depth; bound still
        // holds relative to tree height).
        let t = RootedTree::from_parents(0, &[NO_PARENT, 0, 1, 2, 3]).unwrap();
        let s = run_and_check(&t);
        assert_eq!(s.makespan(), 5 + 4);
    }

    #[test]
    fn star_makespan() {
        let n = 9;
        let mut p = vec![0u32; n];
        p[0] = NO_PARENT;
        let t = RootedTree::from_parents(0, &p).unwrap();
        let s = run_and_check(&t);
        assert_eq!(s.makespan(), n + 1);
    }

    #[test]
    fn deep_caterpillar_completes() {
        // Spine 0-1-2-3, one leaf per spine vertex.
        let t = RootedTree::from_parents(0, &[NO_PARENT, 0, 1, 2, 0, 1, 2, 3]).unwrap();
        let s = run_and_check(&t);
        assert_eq!(s.makespan(), 8 + t.height() as usize);
    }

    #[test]
    fn permuted_vertex_ids() {
        // Same shape as a 5-path rooted at center but with scrambled ids:
        // the schedule must still be valid on the tree's own graph.
        let t = RootedTree::from_parents(2, &[2, 0, NO_PARENT, 2, 3]).unwrap();
        let s = run_and_check(&t);
        assert_eq!(s.makespan(), 5 + 2);
    }

    #[test]
    fn every_processor_sends_at_most_once_per_round() {
        // The overlay property: U4 and D3 merge rather than double-send.
        let tree = fig5();
        let s = concurrent_updown(&tree);
        for (t, round) in s.rounds.iter().enumerate() {
            let mut senders: Vec<usize> = round.transmissions.iter().map(|x| x.from).collect();
            senders.sort_unstable();
            let before = senders.len();
            senders.dedup();
            assert_eq!(before, senders.len(), "duplicate sender in round {t}");
        }
    }

    #[test]
    fn completion_exactly_at_n_plus_r() {
        // Not earlier: the message 0 chain is the critical path.
        let tree = fig5();
        let s = concurrent_updown(&tree);
        let g = tree.to_graph();
        let outcome = simulate_gossip(&g, &s, &tree_origins(&tree)).unwrap();
        assert_eq!(outcome.completion_time, Some(19));
    }
}
