//! Algorithm **UpDown** — reconstruction of the paper's two-phase baseline
//! (Gonzalez, PDCS 2000, cited as \[15\]).
//!
//! The journal text describes it as: "like in the algorithm Simple, all the
//! messages are propagated to the root, but, at the same time, it begins the
//! process of propagating messages to other parts of the tree. In the second
//! phase, the algorithm just propagates down some messages that got stuck in
//! the network." The original's exact schedule is not recoverable (PDCS
//! 2000 is unavailable); this reconstruction keeps the defining behaviour —
//! eager concurrent down-propagation *without* ConcurrentUpDown's lookahead
//! messages, so down-traffic stalls behind busy up-phase receivers — via a
//! greedy earliest-free-slot flood (the crate-private `flood` module).
//!
//! Its makespan always lies in `[n - 1, 2n + r - 3]`: eager flooding never
//! loses to algorithm Simple's wait-for-everything down phase, and `n - 1`
//! is the universal lower bound. On deep trees it trails ConcurrentUpDown
//! (messages stall behind busy up-phase receivers); on very shallow trees
//! the greedy can beat `n + r` by a round or two, because ConcurrentUpDown
//! pays a uniform `+1` for deferring the root's own message.

use gossip_graph::RootedTree;
use gossip_model::Schedule;
use gossip_telemetry::{NoopRecorder, Recorder, RecorderExt};

/// Builds the UpDown schedule for `tree` (vertex space, origin table
/// [`crate::tree_origins`]).
///
/// # Examples
///
/// ```
/// use gossip_graph::{RootedTree, NO_PARENT};
/// use gossip_core::{updown_gossip, concurrent_updown, simple_gossip};
///
/// let tree = RootedTree::from_parents(2, &[1, 2, NO_PARENT, 2, 3]).unwrap();
/// let ud = updown_gossip(&tree).makespan();
/// assert!(ud >= tree.n() - 1); // universal lower bound
/// assert!(ud <= simple_gossip(&tree).makespan());
/// ```
pub fn updown_gossip(tree: &RootedTree) -> Schedule {
    updown_gossip_recorded(tree, &NoopRecorder)
}

/// [`updown_gossip`] with telemetry: an `updown` span around the greedy
/// flood plus `generate/*` counters for the transmissions and deliveries
/// scheduled.
pub fn updown_gossip_recorded(tree: &RootedTree, recorder: &dyn Recorder) -> Schedule {
    let span = recorder.span("updown");
    let schedule = crate::flood::eager_flood_gossip(tree, true);
    crate::pipeline::record_generated(&span, recorder, &schedule, None);
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concurrent::{concurrent_updown, tree_origins};
    use crate::simple::simple_gossip;
    use gossip_graph::{RootedTree, NO_PARENT};
    use gossip_model::simulate_gossip;

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
    fn completes_and_sits_between_the_bounds() {
        for tree in [
            fig5(),
            RootedTree::from_parents(0, &[NO_PARENT, 0, 0, 0, 0, 0]).unwrap(),
            RootedTree::from_parents(3, &[1, 2, 3, NO_PARENT, 3, 4, 5]).unwrap(),
        ] {
            let s = updown_gossip(&tree);
            let g = tree.to_graph();
            let outcome = simulate_gossip(&g, &s, &tree_origins(&tree)).unwrap();
            assert!(outcome.complete);
            let n = tree.n();
            let r = tree.height() as usize;
            assert_eq!(concurrent_updown(&tree).makespan(), n + r);
            let hi = simple_gossip(&tree).makespan();
            assert_eq!(hi, 2 * n + r - 3);
            let mid = s.makespan();
            assert!(mid >= n - 1, "updown {mid} beat the universal bound");
            assert!(mid <= hi, "updown {mid} worse than Simple {hi}");
        }
    }

    #[test]
    fn singleton_and_pair() {
        let t1 = RootedTree::from_parents(0, &[NO_PARENT]).unwrap();
        assert_eq!(updown_gossip(&t1).makespan(), 0);
        let t2 = RootedTree::from_parents(0, &[NO_PARENT, 0]).unwrap();
        let s = updown_gossip(&t2);
        let g = t2.to_graph();
        assert!(
            simulate_gossip(&g, &s, &tree_origins(&t2))
                .unwrap()
                .complete
        );
    }
}
