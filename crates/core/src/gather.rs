//! Gather (all-to-one accumulation): algorithm Propagate-Up in isolation —
//! the paper's Lemma 2 as a standalone primitive.
//!
//! Many of the applications the paper cites (§2: numerical kernels) need
//! the *accumulation* pattern — every processor's message collected at one
//! root — rather than full gossip. Running only the Propagate-Up half of
//! ConcurrentUpDown does exactly that: the root receives message `m` at
//! time exactly `m`, so the gather completes at time `n - 1`, which is
//! optimal (the root receives at most one message per round).

use crate::fast_planner::UpSeq;
use crate::labeling::FlatLabels;
use gossip_graph::RootedTree;
use gossip_model::{Schedule, Transmission};

/// Builds the Propagate-Up-only schedule on `tree`: every message reaches
/// the root; message `m` arrives at time exactly `m` (Lemma 2's invariant).
///
/// Makespan: `n - 1` for `n >= 2`, 0 otherwise — optimal for gather.
///
/// # Examples
///
/// ```
/// use gossip_graph::{RootedTree, NO_PARENT};
/// use gossip_core::gather_schedule;
///
/// let tree = RootedTree::from_parents(0, &[NO_PARENT, 0, 0, 1]).unwrap();
/// let s = gather_schedule(&tree);
/// assert_eq!(s.makespan(), 3); // n - 1
/// ```
pub fn gather_schedule(tree: &RootedTree) -> Schedule {
    let fl = FlatLabels::new(tree);
    let mut schedule = Schedule::new(fl.n());
    for label in fl.labels() {
        let p = fl.params(label);
        if p.is_root() {
            continue;
        }
        let (vertex, parent) = (fl.vertex(label) as usize, fl.vertex(p.parent_i) as usize);
        // (U3) the lip-message at time 0, then (U4) the rip-messages.
        for (e, _) in UpSeq::new(p.i, p.j, p.k, p.parent_i) {
            let tx = Transmission::unicast(e.msg, vertex, parent);
            schedule.add_transmission(e.t as usize, tx);
        }
    }
    schedule.trim();
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concurrent::tree_origins;
    use gossip_graph::{RootedTree, NO_PARENT};
    use gossip_model::{CommModel, CommRound, Simulator};

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

    /// Lemma 2 verbatim: the root receives message m at time exactly m.
    #[test]
    fn root_receives_message_m_at_time_m() {
        for tree in [
            fig5(),
            RootedTree::from_parents(0, &[NO_PARENT, 0, 0, 0, 0]).unwrap(),
            RootedTree::from_parents(3, &[1, 2, 3, NO_PARENT, 3, 4, 5]).unwrap(),
        ] {
            let s = gather_schedule(&tree);
            let n = tree.n();
            assert_eq!(s.makespan(), n - 1);
            let g = tree.to_graph();
            let mut sim = Simulator::new(&g, CommModel::Multicast, &tree_origins(&tree)).unwrap();
            let root = tree.root();
            let empty = CommRound::new();
            for t in 0..s.makespan() {
                sim.step(s.rounds.get(t).unwrap_or(&empty)).unwrap();
                // After round t (time t + 1) the root holds messages 0..=t+1.
                for m in 0..=(t + 1).min(n - 1) {
                    assert!(sim.holds(root).contains(m), "root missing {m} at {}", t + 1);
                }
                for m in (t + 2)..n {
                    assert!(
                        !sim.holds(root).contains(m),
                        "root has {m} early at {}",
                        t + 1
                    );
                }
            }
        }
    }

    #[test]
    fn gather_is_a_sub_schedule_of_concurrent_updown() {
        // Every gather transmission appears (possibly widened by D3's
        // children) in the full schedule at the same time with the same
        // message.
        let tree = fig5();
        let gather = gather_schedule(&tree);
        let full = crate::concurrent::concurrent_updown(&tree);
        for (t, tx) in gather.iter() {
            let found = full.rounds[t]
                .transmissions
                .iter()
                .any(|f| f.from == tx.from && f.msg == tx.msg && f.to.contains(&tx.to[0]));
            assert!(
                found,
                "gather send {tx:?} at {t} missing from full schedule"
            );
        }
    }

    #[test]
    fn singleton() {
        let t = RootedTree::from_parents(0, &[NO_PARENT]).unwrap();
        assert_eq!(gather_schedule(&t).makespan(), 0);
    }
}
