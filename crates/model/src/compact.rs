//! Schedule compaction: a post-optimizer for any valid schedule.
//!
//! Two passes, iterated to a fixed point:
//!
//! 1. **Prune** — drop deliveries that hand a receiver a message it already
//!    holds (and whole transmissions that become empty);
//! 2. **Shift** — move a transmission one round earlier whenever the
//!    sender is free, every destination has a free receive slot, and the
//!    sender already holds the message at the earlier time.
//!
//! Compaction never increases the makespan and preserves completion: every
//! hold set at the final time is unchanged or larger. It quantifies how
//! much slack a scheduling algorithm leaves on the table — ConcurrentUpDown
//! schedules are already redundancy-free, while algorithm Simple's
//! wait-for-everything down phase compacts substantially.

use crate::error::ModelError;
use crate::schedule::Schedule;
use gossip_graph::Graph;

/// Result of a compaction run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactionReport {
    /// The compacted schedule.
    pub schedule: Schedule,
    /// Makespan before compaction.
    pub makespan_before: usize,
    /// Makespan after compaction.
    pub makespan_after: usize,
    /// Redundant deliveries removed.
    pub deliveries_pruned: usize,
    /// Transmissions moved earlier (counting repeated moves).
    pub shifts: usize,
}

/// Compacts `schedule` over `g` with the given origin table. The input
/// must already be valid (validate first); the output is guaranteed valid
/// and at least as complete.
pub fn compact_schedule(
    g: &Graph,
    schedule: &Schedule,
    origins: &[usize],
) -> Result<CompactionReport, ModelError> {
    let n = g.n();
    if schedule.n != n {
        return Err(ModelError::SizeMismatch {
            graph_n: n,
            schedule_n: schedule.n,
        });
    }
    let n_msgs = origins.len();
    let mut s = schedule.clone();
    let makespan_before = s.makespan();
    let mut deliveries_pruned = 0usize;
    let mut shifts = 0usize;

    loop {
        let mut changed = false;

        // --- Pass 1: prune redundant deliveries. ---
        let earliest = hold_times(&s, origins, n, n_msgs)?;
        for t in 0..s.rounds.len() {
            let round = &mut s.rounds[t];
            for tx in &mut round.transmissions {
                let before = tx.to.len();
                tx.to
                    .retain(|&d| earliest[d][tx.msg as usize] == Some(t + 1));
                // A destination whose hold time precedes this delivery was
                // getting a duplicate; one whose hold time IS t+1 keeps the
                // earliest delivery (ties: this one may be the duplicate of
                // a same-round delivery, impossible — receivers get one
                // message per round in a valid schedule).
                deliveries_pruned += before - tx.to.len();
            }
            let before_tx = round.transmissions.len();
            round.transmissions.retain(|tx| !tx.to.is_empty());
            if round.transmissions.len() != before_tx {
                changed = true;
            }
        }

        // --- Pass 2: shift transmissions earlier. ---
        // Occupancy tables for the current layout.
        let horizon = s.rounds.len();
        let mut send_busy = vec![vec![false; horizon]; n];
        let mut recv_busy = vec![vec![false; horizon + 1]; n];
        for (t, tx) in s.iter() {
            send_busy[tx.from][t] = true;
            for &d in &tx.to {
                recv_busy[d][t + 1] = true;
            }
        }
        let earliest = hold_times(&s, origins, n, n_msgs)?;
        for t in 1..s.rounds.len() {
            let round = std::mem::take(&mut s.rounds[t].transmissions);
            let mut kept = Vec::with_capacity(round.len());
            for tx in round {
                let movable = !send_busy[tx.from][t - 1]
                    && tx.to.iter().all(|&d| !recv_busy[d][t])
                    && earliest[tx.from][tx.msg as usize].is_some_and(|h| h < t);
                if movable {
                    send_busy[tx.from][t - 1] = true;
                    send_busy[tx.from][t] = false;
                    for &d in &tx.to {
                        recv_busy[d][t] = true;
                        recv_busy[d][t + 1] = false;
                    }
                    s.rounds[t - 1].transmissions.push(tx);
                    shifts += 1;
                    changed = true;
                } else {
                    kept.push(tx);
                }
            }
            s.rounds[t].transmissions = kept;
        }

        if !changed {
            break;
        }
    }

    s.trim();
    Ok(CompactionReport {
        makespan_after: s.makespan(),
        schedule: s,
        makespan_before,
        deliveries_pruned,
        shifts,
    })
}

/// `hold_times[p][m]` = earliest time processor `p` holds message `m`
/// under the schedule (0 for origins), or `None` if never.
fn hold_times(
    s: &Schedule,
    origins: &[usize],
    n: usize,
    n_msgs: usize,
) -> Result<Vec<Vec<Option<usize>>>, ModelError> {
    let mut hold = vec![vec![None; n_msgs]; n];
    for (m, &p) in origins.iter().enumerate() {
        if p >= n {
            return Err(ModelError::BadOriginTable {
                reason: format!("message {m} at out-of-range processor {p}"),
            });
        }
        hold[p][m] = Some(0);
    }
    for (t, tx) in s.iter() {
        if tx.msg as usize >= n_msgs {
            return Err(ModelError::MessageOutOfRange {
                round: t,
                msg: tx.msg,
                n: n_msgs,
            });
        }
        for &d in &tx.to {
            let slot = &mut hold[d][tx.msg as usize];
            if slot.is_none() || slot.is_some_and(|h| h > t + 1) {
                *slot = Some(t + 1);
            }
        }
    }
    Ok(hold)
}

/// Sanity check used by tests and callers that want belt-and-braces
/// verification: validates the compacted schedule and confirms gossip still
/// completes.
pub fn verify_compaction(
    g: &Graph,
    report: &CompactionReport,
    origins: &[usize],
) -> Result<bool, ModelError> {
    let mut sim = crate::SimKernel::with_origins(g, crate::models::CommModel::Multicast, origins)?;
    Ok(sim
        .run(&crate::FlatSchedule::from_schedule(&report.schedule))?
        .complete)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::round::Transmission;
    use crate::simulator::simulate_gossip;

    fn path(n: usize) -> Graph {
        Graph::from_edges(n, &(0..n - 1).map(|i| (i, i + 1)).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn prunes_redundant_deliveries() {
        let g = path(3);
        let mut s = Schedule::new(3);
        s.add_transmission(0, Transmission::unicast(0, 0, 1));
        s.add_transmission(1, Transmission::unicast(0, 0, 1)); // duplicate
        s.add_transmission(2, Transmission::unicast(0, 1, 2));
        s.add_transmission(3, Transmission::unicast(1, 1, 0));
        s.add_transmission(4, Transmission::unicast(2, 2, 1));
        s.add_transmission(5, Transmission::unicast(2, 1, 0));
        s.add_transmission(6, Transmission::unicast(1, 1, 2));
        let r = compact_schedule(&g, &s, &[0, 1, 2]).unwrap();
        assert!(r.deliveries_pruned >= 1);
        assert!(verify_compaction(&g, &r, &[0, 1, 2]).unwrap());
        assert!(r.makespan_after < r.makespan_before);
    }

    #[test]
    fn shifts_late_transmissions() {
        let g = path(2);
        let mut s = Schedule::new(2);
        // Needlessly late swap.
        s.add_transmission(3, Transmission::unicast(0, 0, 1));
        s.add_transmission(3, Transmission::unicast(1, 1, 0));
        let r = compact_schedule(&g, &s, &[0, 1]).unwrap();
        assert_eq!(r.makespan_after, 1);
        assert!(r.shifts >= 2);
        assert!(verify_compaction(&g, &r, &[0, 1]).unwrap());
    }

    #[test]
    fn respects_causality_when_shifting() {
        let g = path(3);
        let mut s = Schedule::new(3);
        s.add_transmission(0, Transmission::unicast(0, 0, 1));
        // Relay cannot move to round 0: vertex 1 holds msg 0 only at t=1.
        s.add_transmission(1, Transmission::unicast(0, 1, 2));
        s.add_transmission(2, Transmission::unicast(1, 1, 0));
        s.add_transmission(3, Transmission::unicast(2, 2, 1));
        s.add_transmission(4, Transmission::unicast(2, 1, 0));
        s.add_transmission(5, Transmission::unicast(1, 1, 2));
        let r = compact_schedule(&g, &s, &[0, 1, 2]).unwrap();
        assert!(verify_compaction(&g, &r, &[0, 1, 2]).unwrap());
        // The relay stayed strictly after the first hop.
        let relay_time = r
            .schedule
            .iter()
            .find(|(_, tx)| tx.msg == 0 && tx.from == 1)
            .map(|(t, _)| t)
            .unwrap();
        let first_hop = r
            .schedule
            .iter()
            .find(|(_, tx)| tx.msg == 0 && tx.from == 0)
            .map(|(t, _)| t)
            .unwrap();
        assert!(relay_time > first_hop);
    }

    #[test]
    fn idempotent_on_compact_input() {
        let g = path(4);
        let mut s = Schedule::new(4);
        // A tight hand schedule.
        s.add_transmission(0, Transmission::unicast(0, 0, 1));
        s.add_transmission(0, Transmission::unicast(2, 2, 3));
        let r1 = compact_schedule(&g, &s, &[0, 1, 2, 3]).unwrap();
        let r2 = compact_schedule(&g, &r1.schedule, &[0, 1, 2, 3]).unwrap();
        assert_eq!(r1.schedule, r2.schedule);
        assert_eq!(r2.shifts, 0);
        assert_eq!(r2.deliveries_pruned, 0);
    }

    #[test]
    fn preserves_completion_of_valid_gossip() {
        // Build a long-winded but valid gossip on a path and compact it.
        let g = path(4);
        let mut s = Schedule::new(4);
        let mut time = 0;
        for m in 0..4u32 {
            let o = m as usize;
            for v in o..3 {
                s.add_transmission(time, Transmission::unicast(m, v, v + 1));
                time += 1;
            }
            for v in (1..=o).rev() {
                s.add_transmission(time, Transmission::unicast(m, v, v - 1));
                time += 1;
            }
        }
        let before = simulate_gossip(&g, &s, &[0, 1, 2, 3]).unwrap();
        assert!(before.complete);
        let r = compact_schedule(&g, &s, &[0, 1, 2, 3]).unwrap();
        let after = simulate_gossip(&g, &r.schedule, &[0, 1, 2, 3]).unwrap();
        assert!(after.complete);
        assert!(
            r.makespan_after < r.makespan_before,
            "sequential schedule must compact"
        );
    }
}
