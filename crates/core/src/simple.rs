//! Algorithm **Simple** (the paper's §3.2 warm-up, Lemma 1): gossip in a
//! tree in exactly `2n + r - 3` rounds.
//!
//! Phase 1 (up): message `i >= 1`, originating at level `k_i`, is relayed
//! upward so that the vertex at level `l` on its root path sends it at time
//! `i - l`; the root receives message `i` at time `i`, so all messages are
//! in by time `n - 1`.
//!
//! Phase 2 (down): at time `n - 2 + m` the root multicasts message `m` to
//! all its children; every non-root vertex forwards each message to all its
//! children in the same round it arrives. The last delivery is message
//! `n - 1` reaching level `r` at time `2n + r - 3`.

use crate::fast_planner::Down;
use crate::labeling::FlatLabels;
use crate::pipeline::record_generated;
use gossip_graph::RootedTree;
use gossip_model::{Schedule, Transmission};
use gossip_telemetry::{NoopRecorder, Recorder, RecorderExt};

/// Builds the Simple schedule for `tree` (vertex space, origin table
/// [`crate::tree_origins`]).
///
/// Makespan: exactly `2n + r - 3` for `n >= 2` (0 for a single vertex).
///
/// # Examples
///
/// ```
/// use gossip_graph::{RootedTree, NO_PARENT};
/// use gossip_core::{simple_gossip, tree_origins};
/// use gossip_model::simulate_gossip;
///
/// // A 5-path rooted at its center: n = 5, r = 2.
/// let tree = RootedTree::from_parents(2, &[1, 2, NO_PARENT, 2, 3]).unwrap();
/// let s = simple_gossip(&tree);
/// assert_eq!(s.makespan(), 2 * 5 + 2 - 3);
/// let g = tree.to_graph();
/// assert!(simulate_gossip(&g, &s, &tree_origins(&tree)).unwrap().complete);
/// ```
pub fn simple_gossip(tree: &RootedTree) -> Schedule {
    simple_gossip_recorded(tree, &NoopRecorder)
}

/// [`simple_gossip`] with telemetry: a `simple` span with `phase_up` /
/// `phase_down` child spans and `generate/*` counters for the transmissions
/// and deliveries scheduled.
pub fn simple_gossip_recorded(tree: &RootedTree, recorder: &dyn Recorder) -> Schedule {
    let span = recorder.span("simple");
    let fl = FlatLabels::new(tree);
    let n = fl.n();
    let mut schedule = Schedule::new(n);
    if n <= 1 {
        return schedule;
    }

    {
        let _up = recorder.span("phase_up");
        up_phase(&fl, &mut schedule);
    }

    // Phase 2 — down. Vertex at level k multicasts message m to all its
    // children at time n - 2 + m + k (the root sends first; descendants
    // forward on arrival).
    {
        let _down = recorder.span("phase_down");
        for label in fl.labels() {
            let p = fl.params(label);
            if p.is_leaf() {
                continue;
            }
            let vertex = fl.vertex(label) as usize;
            let dests = fl.dests(label, false, Down::All);
            for m in 0..n as u32 {
                let t = n - 2 + m as usize + p.k as usize;
                schedule.add_transmission(t, Transmission::new(m, vertex, dests.clone()));
            }
        }
    }

    schedule.trim();
    record_generated(&span, recorder, &schedule, None);
    schedule
}

/// Phase 1 — up, shared with the eager-flood baselines: every non-root
/// vertex (label `i`, level `k`) sends each message `m` of its subtree
/// `[i, j]`, its own included, to its parent at time `m - k`.
pub(crate) fn up_phase(fl: &FlatLabels, schedule: &mut Schedule) {
    for label in fl.labels() {
        let p = fl.params(label);
        if p.is_root() {
            continue;
        }
        let vertex = fl.vertex(label) as usize;
        let parent = fl.vertex(p.parent_i) as usize;
        for m in p.i..=p.j {
            let t = (m - p.k) as usize;
            schedule.add_transmission(t, Transmission::unicast(m, vertex, parent));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concurrent::tree_origins;
    use gossip_graph::{RootedTree, NO_PARENT};
    use gossip_model::simulate_gossip;

    fn check(tree: &RootedTree) -> usize {
        let s = simple_gossip(tree);
        let g = tree.to_graph();
        let outcome = simulate_gossip(&g, &s, &tree_origins(tree)).unwrap();
        assert!(outcome.complete);
        s.makespan()
    }

    #[test]
    fn lemma_1_exact_makespan() {
        // 2n + r - 3 across assorted tree shapes.
        let fig5 = {
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
        };
        assert_eq!(check(&fig5), 2 * 16 + 3 - 3);

        let star = RootedTree::from_parents(0, &[NO_PARENT, 0, 0, 0, 0]).unwrap();
        assert_eq!(check(&star), 2 * 5 + 1 - 3);

        let path_end = RootedTree::from_parents(0, &[NO_PARENT, 0, 1, 2]).unwrap();
        assert_eq!(check(&path_end), 2 * 4 + 3 - 3);
    }

    #[test]
    fn pair() {
        let t = RootedTree::from_parents(0, &[NO_PARENT, 0]).unwrap();
        assert_eq!(check(&t), 2 * 2 + 1 - 3);
    }

    #[test]
    fn singleton_empty() {
        let t = RootedTree::from_parents(0, &[NO_PARENT]).unwrap();
        assert_eq!(simple_gossip(&t).makespan(), 0);
    }

    #[test]
    fn root_receives_message_m_at_time_m() {
        // The Phase 1 invariant the paper states directly.
        let t = RootedTree::from_parents(2, &[1, 2, NO_PARENT, 2, 3]).unwrap();
        let s = simple_gossip(&t);
        let g = t.to_graph();
        let mut sim =
            gossip_model::Simulator::new(&g, gossip_model::CommModel::Multicast, &tree_origins(&t))
                .unwrap();
        for (t_now, round) in s.rounds.iter().enumerate() {
            sim.step(round).unwrap();
            // After executing round t_now (receives land at t_now + 1), the
            // root holds messages 0..=t_now + 1 (clamped).
            let held = sim.holds(2);
            for m in 0..=(t_now + 1).min(4) {
                assert!(held.contains(m), "root missing {m} at time {}", t_now + 1);
            }
        }
    }
}
