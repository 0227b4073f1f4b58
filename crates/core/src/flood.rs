//! Greedy eager down-flooding: the engine behind the **UpDown** baseline
//! (reconstruction of Gonzalez's PDCS 2000 algorithm, cited as \[15\]) and the
//! **telephone-model** tree-gossip baseline.
//!
//! Both algorithms share the same shape: the up phase is algorithm Simple's
//! (message `m` relayed so the vertex at level `l` sends it at `m - l`;
//! the root holds everything by `n - 1`), and the down phase starts
//! *immediately* — each vertex forwards the messages it has acquired to
//! each child as soon as that child has a free receive slot. Without the
//! lookahead machinery of ConcurrentUpDown, messages "get stuck" waiting for
//! children that are still busy feeding the up phase, which is exactly the
//! behaviour the paper describes for UpDown and why its schedules are longer
//! than `n + r`.
//!
//! The multicast variant serves every currently-free child that still needs
//! the chosen message in one round; the telephone variant serves exactly one
//! child per round.

use crate::labeling::FlatLabels;
use crate::simple::up_phase;
use gossip_graph::{RootedTree, NO_PARENT};
use gossip_model::{Schedule, Transmission};
use std::collections::BTreeSet;

/// Safety margin multiplier for the round loop; no greedy run should ever
/// approach it (panic = algorithm bug, not input problem).
const ROUND_LIMIT_FACTOR: usize = 8;

/// Builds an "eager down-flood" schedule: Simple's up phase overlaid with a
/// greedy as-soon-as-possible down phase.
///
/// `multicast = true` gives the UpDown reconstruction; `false` restricts
/// every down transmission to a single destination (telephone-legal — and
/// the up phase is unicast by construction).
pub(crate) fn eager_flood_gossip(tree: &RootedTree, multicast: bool) -> Schedule {
    let fl = FlatLabels::new(tree);
    let n = fl.n();
    let mut schedule = Schedule::new(n);
    if n <= 1 {
        return schedule;
    }
    let r = fl.height() as usize;

    // --- Fixed up phase (algorithm Simple's phase 1). ---
    up_phase(&fl, &mut schedule);

    // The up phase keeps a non-root vertex (label `i`, subtree `[i, j]`,
    // level `k`) sending at `[i - k, j - k]`, and every vertex receiving
    // at `[i - k + 1, j - k]`. The down phase needs no calendar of its
    // own: a vertex sends at most once per round, and only its parent
    // sends down to it.
    let sends_up = |label: u32, t: usize| {
        let k = fl.k(label);
        fl.parent(label) != NO_PARENT
            && (label - k) as usize <= t
            && t <= (fl.j(label) - k) as usize
    };
    let receives_up = |label: u32, t: usize| {
        let k = fl.k(label);
        (label + 1 - k) as usize <= t && t <= (fl.j(label) - k) as usize
    };

    // undelivered[v][c_idx] = messages not yet pushed to child c, ordered
    // by acquisition time (oldest first).
    let mut undelivered: Vec<Vec<BTreeSet<(usize, u32)>>> = (0..n as u32)
        .map(|label| vec![BTreeSet::new(); fl.children(label).len()])
        .collect();

    // Seed: every vertex acquires its own message at 0 and its up-phase
    // receives at their fixed times; each acquisition is owed to every child
    // whose subtree does not contain it. Returns how many debts were added.
    fn owe(
        fl: &FlatLabels,
        und: &mut [Vec<BTreeSet<(usize, u32)>>],
        label: u32,
        t: usize,
        m: u32,
    ) -> usize {
        let mut added = 0;
        for (ci, &c) in fl.children(label).iter().enumerate() {
            // Child `c`'s subtree is the label range `[c, j(c)]`.
            if m < c || m > fl.j(c) {
                let fresh = und[label as usize][ci].insert((t, m));
                debug_assert!(fresh, "double acquisition of {m} at vertex {label}");
                added += 1;
            }
        }
        added
    }
    for label in fl.labels() {
        let p = fl.params(label);
        owe(&fl, &mut undelivered, label, 0, p.i);
        for m in (p.i + 1)..=p.j {
            owe(&fl, &mut undelivered, label, (m - p.k) as usize, m);
        }
    }

    // --- Greedy down phase. ---
    // Each round visits, in ascending label order, the vertices that owed
    // a child a message when it began: a debt gained mid-round dates from
    // round t + 1, so it could not be sent in this one anyway.
    let limit = ROUND_LIMIT_FACTOR * (n * n + n + r + 8);
    let owes = |und: &[Vec<BTreeSet<(usize, u32)>>], label: u32| {
        und[label as usize]
            .iter()
            .any(|per_child| !per_child.is_empty())
    };
    let mut active: BTreeSet<u32> = fl.labels().filter(|&l| owes(&undelivered, l)).collect();
    let mut visit: Vec<u32> = Vec::new();
    let mut t = 0usize;
    while !active.is_empty() {
        assert!(t < limit, "down flood failed to converge (bug)");
        visit.clear();
        visit.extend(&active);
        for &label in &visit {
            let v = label as usize;
            if sends_up(label, t) {
                continue;
            }
            let kids = fl.children(label);
            // Free children with something deliverable now, keyed by their
            // oldest owed acquisition.
            let mut best: Option<(usize, u32)> = None;
            for (ci, &c) in kids.iter().enumerate() {
                if receives_up(c, t + 1) {
                    continue;
                }
                if let Some(&(ta, m)) = undelivered[v][ci].first() {
                    if ta <= t && best.is_none_or(|b| (ta, m) < b) {
                        best = Some((ta, m));
                    }
                }
            }
            let Some((ta, msg)) = best else { continue };
            // Serve every free child owed this message (or just one under
            // the telephone restriction).
            let mut dests = Vec::new();
            for (ci, &c) in kids.iter().enumerate() {
                if receives_up(c, t + 1) || !undelivered[v][ci].remove(&(ta, msg)) {
                    continue;
                }
                dests.push(fl.vertex(c) as usize);
                // The child now owes this message to its own children.
                if owe(&fl, &mut undelivered, c, t + 1, msg) > 0 {
                    active.insert(c);
                }
                if !multicast {
                    break;
                }
            }
            debug_assert!(!dests.is_empty());
            if !owes(&undelivered, label) {
                active.remove(&label);
            }
            let from = fl.vertex(label) as usize;
            schedule.add_transmission(t, Transmission::new(msg, from, dests));
        }
        t += 1;
    }

    schedule.trim();
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concurrent::tree_origins;
    use gossip_graph::{RootedTree, NO_PARENT};
    use gossip_model::{validate_gossip_schedule, CommModel};

    fn star(n: usize) -> RootedTree {
        let mut p = vec![0u32; n];
        p[0] = NO_PARENT;
        RootedTree::from_parents(0, &p).unwrap()
    }

    #[test]
    fn multicast_flood_completes_and_validates() {
        let t = star(8);
        let s = eager_flood_gossip(&t, true);
        let g = t.to_graph();
        let o = validate_gossip_schedule(&g, &s, &tree_origins(&t), CommModel::Multicast).unwrap();
        assert!(o.complete);
    }

    #[test]
    fn unicast_flood_is_telephone_legal() {
        let t = star(6);
        let s = eager_flood_gossip(&t, false);
        let g = t.to_graph();
        let o = validate_gossip_schedule(&g, &s, &tree_origins(&t), CommModel::Telephone).unwrap();
        assert!(o.complete);
    }

    #[test]
    fn multicast_never_slower_than_unicast() {
        for tree in [
            star(9),
            RootedTree::from_parents(2, &[1, 2, NO_PARENT, 2, 3]).unwrap(),
        ] {
            let mc = eager_flood_gossip(&tree, true).makespan();
            let tp = eager_flood_gossip(&tree, false).makespan();
            assert!(mc <= tp, "multicast {mc} > telephone {tp}");
        }
    }
}
