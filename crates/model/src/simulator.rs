//! Execution of schedules under the communication model, with full rule
//! validation.
//!
//! The simulator is the reference semantics of the whole reproduction.
//! Production paths replay schedules through the bitset
//! [`crate::SimKernel`]; this tuple-by-tuple executor is the oracle the
//! differential suites check that kernel against (same hold sets after
//! every round, same outcome, same first [`ModelError`]). It enforces
//! each rule of the paper's §1 model on every round:
//!
//! 1. each processor receives at most one message per round;
//! 2. each processor sends at most one message per round;
//! 3. destinations are adjacent to the sender in the network;
//! 4. a sender holds the message at send time (receives land *before*
//!    sends within a time step, so a message received at `t` may be
//!    forwarded at `t`);
//! 5. the model-specific destination restriction
//!    ([`CommModel::check_destinations`]).

use crate::bitset::BitSet;
use crate::error::ModelError;
use crate::models::CommModel;
use crate::round::CommRound;
use crate::schedule::{Schedule, ScheduleStats};
use gossip_graph::Graph;

/// Stateful executor of communication rounds over a network.
///
/// # Examples
///
/// ```
/// use gossip_graph::Graph;
/// use gossip_model::{Simulator, CommModel, CommRound, Transmission};
///
/// let g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
/// // Message m originates at processor m.
/// let mut sim = Simulator::new(&g, CommModel::Multicast, &[0, 1, 2]).unwrap();
///
/// // Round at time 0: processor 1 multicasts its message to both neighbours.
/// let round = CommRound::from_transmissions(vec![Transmission::new(1, 1, vec![0, 2])]);
/// sim.step(&round).unwrap();
/// assert!(sim.holds(0).contains(1));
/// assert!(sim.holds(2).contains(1));
/// assert!(!sim.gossip_complete());
/// ```
#[derive(Debug, Clone)]
pub struct Simulator<'g> {
    // Fields are `pub(crate)` so the lossy execution mode (`crate::lossy`)
    // can extend stepping without widening the public API.
    pub(crate) g: &'g Graph,
    pub(crate) model: CommModel,
    pub(crate) hold: Vec<BitSet>,
    pub(crate) time: usize,
    // Round-stamped scratch tables: `x_stamp[p] == round_stamp` means p
    // already sent/received this round. Avoids clearing O(n) arrays per round.
    pub(crate) send_stamp: Vec<u64>,
    pub(crate) recv_stamp: Vec<u64>,
    pub(crate) round_stamp: u64,
    // Number of (processor, message) pairs currently known, maintained
    // incrementally so coverage probes are O(1).
    pub(crate) known_pairs: usize,
    pub(crate) n_msgs: usize,
}

impl<'g> Simulator<'g> {
    /// Creates a simulator where message `m` initially resides only at
    /// processor `origin_of_message[m]`.
    ///
    /// The origin table must be a permutation of `0..n` (gossiping: one
    /// message per processor). For generalized instances — weighted
    /// gossiping, pipelined batches — use [`Simulator::with_origins`].
    pub fn new(
        g: &'g Graph,
        model: CommModel,
        origin_of_message: &[usize],
    ) -> Result<Self, ModelError> {
        let n = g.n();
        if origin_of_message.len() != n {
            return Err(ModelError::BadOriginTable {
                reason: format!("{} origins for {n} processors", origin_of_message.len()),
            });
        }
        let mut seen = vec![false; n];
        for (m, &p) in origin_of_message.iter().enumerate() {
            if p < n && seen.get(p).copied().unwrap_or(false) {
                return Err(ModelError::BadOriginTable {
                    reason: format!("processor {p} originates two messages (message {m})"),
                });
            }
            if p < n {
                seen[p] = true;
            }
        }
        Self::with_origins(g, model, origin_of_message)
    }

    /// Creates a simulator over an arbitrary origin table: `origins.len()`
    /// messages, each starting at one processor (a processor may originate
    /// any number of messages — the weighted/pipelined setting).
    pub fn with_origins(
        g: &'g Graph,
        model: CommModel,
        origins: &[usize],
    ) -> Result<Self, ModelError> {
        let n = g.n();
        let n_msgs = origins.len();
        let mut hold = vec![BitSet::new(n_msgs); n];
        let mut known_pairs = 0;
        for (m, &p) in origins.iter().enumerate() {
            if p >= n {
                return Err(ModelError::BadOriginTable {
                    reason: format!("message {m} originates at out-of-range processor {p}"),
                });
            }
            if hold[p].insert(m) {
                known_pairs += 1;
            }
        }
        Ok(Simulator {
            g,
            model,
            hold,
            time: 0,
            send_stamp: vec![0; n],
            recv_stamp: vec![0; n],
            round_stamp: 0,
            known_pairs,
            n_msgs,
        })
    }

    /// The current time (number of rounds executed).
    pub fn time(&self) -> usize {
        self.time
    }

    /// The hold set of processor `p` at the current time.
    pub fn holds(&self, p: usize) -> &BitSet {
        &self.hold[p]
    }

    /// Whether every processor holds every message.
    pub fn gossip_complete(&self) -> bool {
        self.hold.iter().all(BitSet::is_full)
    }

    /// Whether every processor holds message `m` (broadcast completion).
    pub fn everyone_holds(&self, m: usize) -> bool {
        self.hold.iter().all(|h| h.contains(m))
    }

    /// Number of (processor, message) pairs currently known.
    pub fn known_pairs(&self) -> usize {
        self.known_pairs
    }

    /// Fraction of all (processor, message) pairs currently known, in
    /// `[0, 1]`; 1.0 means gossip is complete.
    pub fn coverage(&self) -> f64 {
        let total = self.g.n() * self.n_msgs;
        if total == 0 {
            1.0
        } else {
            self.known_pairs as f64 / total as f64
        }
    }

    /// Executes one round: validates every transmission against the current
    /// hold sets and model rules, then applies all receives.
    ///
    /// On error the simulator state is unchanged (validation happens before
    /// any mutation), so a caller can inspect the failing state.
    pub fn step(&mut self, round: &CommRound) -> Result<(), ModelError> {
        let n = self.g.n();
        let t = self.time;
        self.round_stamp += 1;
        let stamp = self.round_stamp;

        for tx in &round.transmissions {
            if tx.from >= n {
                return Err(ModelError::ProcessorOutOfRange {
                    round: t,
                    proc: tx.from,
                    n,
                });
            }
            let n_msgs = self.hold[0].capacity();
            if tx.msg as usize >= n_msgs {
                return Err(ModelError::MessageOutOfRange {
                    round: t,
                    msg: tx.msg,
                    n: n_msgs,
                });
            }
            if tx.to.is_empty() {
                return Err(ModelError::EmptyDestination {
                    round: t,
                    sender: tx.from,
                });
            }
            if self.send_stamp[tx.from] == stamp {
                return Err(ModelError::DuplicateSender {
                    round: t,
                    sender: tx.from,
                });
            }
            self.send_stamp[tx.from] = stamp;
            if !self.hold[tx.from].contains(tx.msg as usize) {
                return Err(ModelError::MessageNotHeld {
                    round: t,
                    sender: tx.from,
                    msg: tx.msg,
                });
            }
            self.model
                .check_destinations(self.g, tx)
                .map_err(|reason| ModelError::ModelViolation {
                    round: t,
                    sender: tx.from,
                    reason,
                })?;
            let mut prev: Option<usize> = None;
            for &d in &tx.to {
                if d >= n {
                    return Err(ModelError::ProcessorOutOfRange {
                        round: t,
                        proc: d,
                        n,
                    });
                }
                if prev == Some(d) {
                    return Err(ModelError::DuplicateDestination {
                        round: t,
                        sender: tx.from,
                        receiver: d,
                    });
                }
                prev = Some(d);
                if !self.g.has_edge(tx.from, d) {
                    return Err(ModelError::NotAdjacent {
                        round: t,
                        sender: tx.from,
                        receiver: d,
                    });
                }
                if self.recv_stamp[d] == stamp {
                    return Err(ModelError::DuplicateReceiver {
                        round: t,
                        receiver: d,
                    });
                }
                self.recv_stamp[d] = stamp;
            }
        }

        // All checks passed; apply receives (they land at time t + 1).
        for tx in &round.transmissions {
            for &d in &tx.to {
                if self.hold[d].insert(tx.msg as usize) {
                    self.known_pairs += 1;
                }
            }
        }
        self.time += 1;
        Ok(())
    }

    /// Runs a whole schedule, recording when gossip first completes.
    pub fn run(&mut self, schedule: &Schedule) -> Result<SimOutcome, ModelError> {
        if schedule.n != self.g.n() {
            return Err(ModelError::SizeMismatch {
                graph_n: self.g.n(),
                schedule_n: schedule.n,
            });
        }
        let mut completion_time = if self.gossip_complete() {
            Some(self.time)
        } else {
            None
        };
        let makespan = schedule.makespan();
        for round in &schedule.rounds[..makespan] {
            self.step(round)?;
            if completion_time.is_none() && self.gossip_complete() {
                completion_time = Some(self.time);
            }
        }
        Ok(SimOutcome {
            complete: self.gossip_complete(),
            rounds_executed: makespan,
            completion_time,
            stats: schedule.stats(),
        })
    }
}

/// What a full schedule run established.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimOutcome {
    /// Whether every processor ended holding every message.
    pub complete: bool,
    /// Rounds executed (the schedule makespan).
    pub rounds_executed: usize,
    /// The first time at which gossip was complete, if it ever was.
    pub completion_time: Option<usize>,
    /// Aggregate statistics of the executed schedule.
    pub stats: ScheduleStats,
}

/// Convenience: run `schedule` on `g` under the multicast model and report
/// the outcome. `origin_of_message[m]` is the processor where message `m`
/// starts.
pub fn simulate_gossip(
    g: &Graph,
    schedule: &Schedule,
    origin_of_message: &[usize],
) -> Result<SimOutcome, ModelError> {
    validate_gossip_schedule(g, schedule, origin_of_message, CommModel::Multicast)
}

/// Convenience: validate `schedule` under an arbitrary model and require
/// completion; returns the outcome, or an error describing the first rule
/// violation.
///
/// Backed by the bitset [`crate::SimKernel`] (the outcome and errors are
/// bit-identical to running the oracle [`Simulator`], which remains
/// available for differential checking).
pub fn validate_gossip_schedule(
    g: &Graph,
    schedule: &Schedule,
    origin_of_message: &[usize],
    model: CommModel,
) -> Result<SimOutcome, ModelError> {
    let mut kernel = crate::kernel::SimKernel::new(g, model, origin_of_message)?;
    if schedule.n != g.n() {
        return Err(ModelError::SizeMismatch {
            graph_n: g.n(),
            schedule_n: schedule.n,
        });
    }
    kernel.run(&crate::flat_schedule::FlatSchedule::from_schedule(schedule))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::round::Transmission;

    fn path3() -> Graph {
        Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap()
    }

    fn identity_origins(n: usize) -> Vec<usize> {
        (0..n).collect()
    }

    #[test]
    fn forwarding_within_same_round_is_legal() {
        // Message received at time t may be sent at time t: the receive at
        // t=1 (sent at t=0) can be forwarded in round 1.
        let g = path3();
        let mut sim = Simulator::new(&g, CommModel::Multicast, &identity_origins(3)).unwrap();
        sim.step(&CommRound::from_transmissions(vec![Transmission::unicast(
            0, 0, 1,
        )]))
        .unwrap();
        sim.step(&CommRound::from_transmissions(vec![Transmission::unicast(
            0, 1, 2,
        )]))
        .unwrap();
        assert!(sim.holds(2).contains(0));
    }

    #[test]
    fn cannot_send_unheld_message() {
        let g = path3();
        let mut sim = Simulator::new(&g, CommModel::Multicast, &identity_origins(3)).unwrap();
        let err = sim
            .step(&CommRound::from_transmissions(vec![Transmission::unicast(
                2, 0, 1,
            )]))
            .unwrap_err();
        assert_eq!(
            err,
            ModelError::MessageNotHeld {
                round: 0,
                sender: 0,
                msg: 2
            }
        );
    }

    #[test]
    fn duplicate_receiver_rejected() {
        let g = Graph::from_edges(3, &[(0, 2), (1, 2)]).unwrap();
        let mut sim = Simulator::new(&g, CommModel::Multicast, &identity_origins(3)).unwrap();
        let round = CommRound::from_transmissions(vec![
            Transmission::unicast(0, 0, 2),
            Transmission::unicast(1, 1, 2),
        ]);
        assert_eq!(
            sim.step(&round).unwrap_err(),
            ModelError::DuplicateReceiver {
                round: 0,
                receiver: 2
            }
        );
        // Validation precedes mutation: nothing was delivered.
        assert!(!sim.holds(2).contains(0));
        assert_eq!(sim.time(), 0);
    }

    #[test]
    fn duplicate_sender_rejected() {
        let g = path3();
        let mut sim = Simulator::new(&g, CommModel::Multicast, &identity_origins(3)).unwrap();
        let round = CommRound::from_transmissions(vec![
            Transmission::unicast(1, 1, 0),
            Transmission::unicast(1, 1, 2),
        ]);
        assert_eq!(
            sim.step(&round).unwrap_err(),
            ModelError::DuplicateSender {
                round: 0,
                sender: 1
            }
        );
    }

    #[test]
    fn non_adjacent_rejected() {
        let g = path3();
        let mut sim = Simulator::new(&g, CommModel::Multicast, &identity_origins(3)).unwrap();
        let round = CommRound::from_transmissions(vec![Transmission::unicast(0, 0, 2)]);
        assert_eq!(
            sim.step(&round).unwrap_err(),
            ModelError::NotAdjacent {
                round: 0,
                sender: 0,
                receiver: 2
            }
        );
    }

    #[test]
    fn telephone_rejects_multicast() {
        let g = Graph::from_edges(3, &[(0, 1), (0, 2)]).unwrap();
        let mut sim = Simulator::new(&g, CommModel::Telephone, &identity_origins(3)).unwrap();
        let round = CommRound::from_transmissions(vec![Transmission::new(0, 0, vec![1, 2])]);
        assert!(matches!(
            sim.step(&round).unwrap_err(),
            ModelError::ModelViolation { .. }
        ));
    }

    #[test]
    fn bad_origin_tables() {
        let g = path3();
        assert!(Simulator::new(&g, CommModel::Multicast, &[0, 0, 1]).is_err());
        assert!(Simulator::new(&g, CommModel::Multicast, &[0, 1]).is_err());
        assert!(Simulator::new(&g, CommModel::Multicast, &[0, 1, 3]).is_err());
    }

    #[test]
    fn ring_gossip_completes_in_n_minus_1() {
        // The paper's Fig 1 schedule: everyone forwards clockwise.
        let n = 6;
        let edges: Vec<_> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        let g = Graph::from_edges(n, &edges).unwrap();
        let mut schedule = Schedule::new(n);
        for t in 0..n - 1 {
            for p in 0..n {
                // At time t, processor p forwards the message that
                // originated n..p-t places back (mod n).
                let msg = ((p + n - t) % n) as u32;
                schedule.add_transmission(t, Transmission::unicast(msg, p, (p + 1) % n));
            }
        }
        let outcome = simulate_gossip(&g, &schedule, &identity_origins(n)).unwrap();
        assert!(outcome.complete);
        assert_eq!(outcome.completion_time, Some(n - 1));
    }

    #[test]
    fn incomplete_schedule_reports_incomplete() {
        let g = path3();
        let mut schedule = Schedule::new(3);
        schedule.add_transmission(0, Transmission::unicast(0, 0, 1));
        let outcome = simulate_gossip(&g, &schedule, &identity_origins(3)).unwrap();
        assert!(!outcome.complete);
        assert_eq!(outcome.completion_time, None);
    }

    #[test]
    fn size_mismatch_rejected() {
        let g = path3();
        let schedule = Schedule::new(4);
        assert!(matches!(
            simulate_gossip(&g, &schedule, &identity_origins(3)).unwrap_err(),
            ModelError::SizeMismatch { .. }
        ));
    }

    #[test]
    fn empty_destination_rejected() {
        let g = path3();
        let mut sim = Simulator::new(&g, CommModel::Multicast, &identity_origins(3)).unwrap();
        let round = CommRound::from_transmissions(vec![Transmission::new(0, 0, vec![])]);
        assert_eq!(
            sim.step(&round).unwrap_err(),
            ModelError::EmptyDestination {
                round: 0,
                sender: 0
            }
        );
    }

    #[test]
    fn duplicate_destination_rejected() {
        let g = path3();
        let mut sim = Simulator::new(&g, CommModel::Multicast, &identity_origins(3)).unwrap();
        let round = CommRound::from_transmissions(vec![Transmission::new(0, 0, vec![1, 1])]);
        assert_eq!(
            sim.step(&round).unwrap_err(),
            ModelError::DuplicateDestination {
                round: 0,
                sender: 0,
                receiver: 1
            }
        );
    }

    #[test]
    fn singleton_network_trivially_complete() {
        let g = Graph::from_edges(1, &[]).unwrap();
        let schedule = Schedule::new(1);
        let outcome = simulate_gossip(&g, &schedule, &[0]).unwrap();
        assert!(outcome.complete);
        assert_eq!(outcome.completion_time, Some(0));
    }
}
