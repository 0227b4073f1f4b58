//! Communication schedules: sequences of rounds, with summary statistics.

use crate::round::{CommRound, Transmission};
use serde::{Deserialize, Serialize};

/// A communication schedule: round `t`'s transmissions are *sent* at time
/// `t` and *received* at time `t + 1` (the paper's timing convention).
///
/// The **total communication time** (makespan) of a schedule with `R`
/// nonempty trailing rounds is `R`: the last sends happen at time `R - 1`
/// and arrive at time `R`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schedule {
    /// Number of processors (and of messages) this schedule is built for.
    pub n: usize,
    /// The rounds; index = send time.
    pub rounds: Vec<CommRound>,
}

impl Schedule {
    /// An empty schedule for `n` processors.
    pub fn new(n: usize) -> Self {
        Schedule {
            n,
            rounds: Vec::new(),
        }
    }

    /// Appends a transmission at send time `t`, growing the round list as
    /// needed.
    pub fn add_transmission(&mut self, t: usize, tx: Transmission) {
        if self.rounds.len() <= t {
            self.rounds.resize_with(t + 1, CommRound::new);
        }
        self.rounds[t].push(tx);
    }

    /// Drops trailing empty rounds (they contribute nothing to the
    /// makespan).
    pub fn trim(&mut self) {
        while self.rounds.last().is_some_and(CommRound::is_empty) {
            self.rounds.pop();
        }
    }

    /// The total communication time: sends span times `0..makespan()-1`,
    /// the last receive lands at time `makespan()`.
    ///
    /// Trailing empty rounds are not counted.
    pub fn makespan(&self) -> usize {
        let mut len = self.rounds.len();
        while len > 0 && self.rounds[len - 1].is_empty() {
            len -= 1;
        }
        len
    }

    /// Summary statistics over the whole schedule.
    pub fn stats(&self) -> ScheduleStats {
        let makespan = self.makespan();
        let mut transmissions = 0;
        let mut deliveries = 0;
        let mut max_fanout = 0;
        let mut busiest_round = 0;
        for r in &self.rounds[..makespan] {
            transmissions += r.transmissions.len();
            deliveries += r.deliveries();
            max_fanout = max_fanout.max(r.max_fanout());
            busiest_round = busiest_round.max(r.transmissions.len());
        }
        ScheduleStats {
            n: self.n,
            makespan,
            transmissions,
            deliveries,
            max_fanout,
            busiest_round,
        }
    }

    /// A copy of this schedule with every round moved `offset` rounds
    /// later and every message id raised by `msg_offset` — the building
    /// block for overlaying repeated gossip batches.
    pub fn shifted(&self, offset: usize, msg_offset: u32) -> Schedule {
        let mut out = Schedule::new(self.n);
        for (t, tx) in self.iter() {
            out.add_transmission(
                t + offset,
                Transmission::new(tx.msg + msg_offset, tx.from, tx.to.clone()),
            );
        }
        out
    }

    /// Overlays `other` onto this schedule round by round (no validity
    /// checking — run the result through the simulator).
    pub fn merge(&mut self, other: &Schedule) {
        assert_eq!(self.n, other.n, "schedules for different processor counts");
        for (t, tx) in other.iter() {
            self.add_transmission(t, tx.clone());
        }
    }

    /// Overlays `other` onto this schedule with its rounds moved `offset`
    /// rounds later, taking its transmissions by move. Equal to
    /// `self.merge(&other.shifted(offset, 0))`, round list length
    /// included, without either copy.
    pub fn merge_at(&mut self, offset: usize, other: Schedule) {
        assert_eq!(self.n, other.n, "schedules for different processor counts");
        for (t, round) in other.rounds.into_iter().enumerate() {
            if round.is_empty() {
                continue;
            }
            let t = t + offset;
            if self.rounds.len() <= t {
                self.rounds.resize_with(t + 1, CommRound::new);
            }
            let txs = &mut self.rounds[t].transmissions;
            if txs.is_empty() {
                *txs = round.transmissions;
            } else {
                txs.extend(round.transmissions);
            }
        }
    }

    /// Sorts each round's transmissions by sender id, giving schedules a
    /// canonical form so that independently generated schedules (e.g. the
    /// offline algorithm vs. the online distributed executor) can be
    /// compared with `==`.
    pub fn normalize(&mut self) {
        for round in &mut self.rounds {
            round.transmissions.sort_by_key(|t| t.from);
        }
        self.trim();
    }

    /// Iterates `(send_time, transmission)` pairs in time order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &Transmission)> + '_ {
        self.rounds
            .iter()
            .enumerate()
            .flat_map(|(t, r)| r.transmissions.iter().map(move |tx| (t, tx)))
    }
}

/// Aggregate schedule statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScheduleStats {
    /// Number of processors.
    pub n: usize,
    /// Total communication time.
    pub makespan: usize,
    /// Number of `(m, l, D)` tuples across all rounds.
    pub transmissions: usize,
    /// Total deliveries (sum of `|D|`); gossiping needs at least
    /// `n * (n - 1)` of these.
    pub deliveries: usize,
    /// Largest multicast fan-out used anywhere.
    pub max_fanout: usize,
    /// Most transmissions in any single round.
    pub busiest_round: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn makespan_ignores_trailing_empties() {
        let mut s = Schedule::new(3);
        s.add_transmission(0, Transmission::unicast(0, 0, 1));
        s.rounds.resize_with(10, CommRound::new);
        assert_eq!(s.makespan(), 1);
        s.trim();
        assert_eq!(s.rounds.len(), 1);
    }

    #[test]
    fn add_transmission_grows() {
        let mut s = Schedule::new(4);
        s.add_transmission(5, Transmission::unicast(1, 1, 2));
        assert_eq!(s.rounds.len(), 6);
        assert_eq!(s.makespan(), 6);
        assert!(s.rounds[2].is_empty());
    }

    #[test]
    fn stats() {
        let mut s = Schedule::new(4);
        s.add_transmission(0, Transmission::new(0, 0, vec![1, 2, 3]));
        s.add_transmission(1, Transmission::unicast(1, 1, 0));
        s.add_transmission(1, Transmission::unicast(2, 2, 3));
        let st = s.stats();
        assert_eq!(st.makespan, 2);
        assert_eq!(st.transmissions, 3);
        assert_eq!(st.deliveries, 5);
        assert_eq!(st.max_fanout, 3);
        assert_eq!(st.busiest_round, 2);
    }

    #[test]
    fn iter_time_ordered() {
        let mut s = Schedule::new(3);
        s.add_transmission(1, Transmission::unicast(1, 1, 2));
        s.add_transmission(0, Transmission::unicast(0, 0, 1));
        let times: Vec<usize> = s.iter().map(|(t, _)| t).collect();
        assert_eq!(times, vec![0, 1]);
    }

    #[test]
    fn shifted_moves_rounds_and_messages() {
        let mut s = Schedule::new(3);
        s.add_transmission(0, Transmission::unicast(0, 0, 1));
        s.add_transmission(2, Transmission::unicast(1, 1, 2));
        let sh = s.shifted(5, 10);
        assert_eq!(sh.makespan(), 8);
        let first = sh.iter().next().unwrap();
        assert_eq!(first.0, 5);
        assert_eq!(first.1.msg, 10);
    }

    #[test]
    fn merge_overlays() {
        let mut a = Schedule::new(3);
        a.add_transmission(0, Transmission::unicast(0, 0, 1));
        let mut b = Schedule::new(3);
        b.add_transmission(0, Transmission::unicast(2, 2, 1));
        b.add_transmission(3, Transmission::unicast(1, 1, 0));
        a.merge(&b);
        assert_eq!(a.rounds[0].transmissions.len(), 2);
        assert_eq!(a.makespan(), 4);
    }

    #[test]
    fn merge_at_equals_merge_of_shifted() {
        // Base: rounds 0 and 2 busy, round 1 empty, two trailing empties.
        let mut base = Schedule::new(6);
        base.add_transmission(0, Transmission::new(0, 0, vec![1, 2]));
        base.add_transmission(2, Transmission::unicast(3, 3, 4));
        base.rounds.resize_with(5, CommRound::new);
        // Other: a leading empty, a busy round, an empty middle, a round
        // with two transmissions, and a trailing empty.
        let mut other = Schedule::new(6);
        other.add_transmission(1, Transmission::unicast(1, 1, 0));
        other.add_transmission(3, Transmission::new(4, 4, vec![3, 5]));
        other.add_transmission(3, Transmission::unicast(2, 2, 1));
        other.rounds.resize_with(5, CommRound::new);
        let mut blank = Schedule::new(6);
        blank.rounds.resize_with(3, CommRound::new);
        for left in [Schedule::new(6), base] {
            for right in [other.clone(), blank.clone(), Schedule::new(6)] {
                for offset in [0, 1, 2, 4, 9] {
                    let mut want = left.clone();
                    want.merge(&right.shifted(offset, 0));
                    let mut got = left.clone();
                    got.merge_at(offset, right.clone());
                    assert_eq!(got, want, "offset {offset}");
                    assert_eq!(got.rounds.len(), want.rounds.len());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "different processor counts")]
    fn merge_at_rejects_mismatched_sizes() {
        Schedule::new(3).merge_at(0, Schedule::new(4));
    }

    #[test]
    #[should_panic(expected = "different processor counts")]
    fn merge_rejects_mismatched_sizes() {
        let mut a = Schedule::new(3);
        a.merge(&Schedule::new(4));
    }

    #[test]
    fn empty_schedule() {
        let s = Schedule::new(5);
        assert_eq!(s.makespan(), 0);
        assert_eq!(s.stats().deliveries, 0);
    }
}
