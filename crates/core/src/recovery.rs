//! Self-healing recovery: residual planning and epoch-based repair.
//!
//! The paper's `n + r` schedule assumes every transmission lands. When it
//! doesn't — sampled loss, link outages, crash-stop failures (see
//! `gossip_model::fault_plan`) — a lossy run ends with a *residual*: the
//! (message, vertex) pairs the faults kept apart. This module closes that
//! gap in two layers:
//!
//! - [`plan_completion`] is the residual planner: given post-fault hold
//!   sets and the set of surviving processors, it greedily emits a
//!   conflict-free completion schedule (every round obeys the one-send /
//!   one-receive multicast rules) that spreads each missing message from
//!   its surviving holders outward. Pairs no surviving holder can reach —
//!   the message is extinct among survivors, or crashes disconnected them —
//!   are reported as abandoned rather than looped on forever.
//!   [`completion_deliveries`] counts that plan's deliveries in closed
//!   form, for callers that only report its size.
//! - [`ResilientExecutor`] wraps execution with epoch-based repair: run the
//!   base schedule lossily, detect the residual, replan, re-run — repair
//!   epochs execute under the *same* fault plan (faults keep firing at the
//!   continuing absolute round index), so repairs can themselves fail and
//!   trigger further epochs, up to a bounded retry budget. The outcome is a
//!   [`RecoveryReport`]: epochs, retransmissions, total rounds versus the
//!   baseline, the combined transcript, and any abandoned pairs.

use gossip_graph::Graph;
use gossip_model::{
    missing_pairs, BitSet, CommModel, CommRound, FaultPlan, FlatSchedule, LossyOutcome,
    LostDelivery, ModelError, Schedule, SimKernel, Transmission,
};
use gossip_telemetry::profile::phase;
use gossip_telemetry::{ChromeTrace, NoopRecorder, Recorder, RecorderExt, Value};

/// A conflict-free completion schedule for a residual, plus the pairs it
/// could not cover.
#[derive(Debug, Clone)]
pub struct ResidualPlan {
    /// The completion schedule (rounds indexed from 0; the executor shifts
    /// them to absolute time).
    pub schedule: Schedule,
    /// The (message, vertex) pairs the schedule delivers (assuming no
    /// further faults).
    pub covered: Vec<(u32, usize)>,
    /// The pairs no surviving holder can reach: the message is extinct
    /// among survivors or the survivors are disconnected from every holder.
    pub abandoned: Vec<(u32, usize)>,
}

/// Greedily plans a conflict-free schedule completing gossip among the
/// surviving processors.
///
/// `holds[v]` is the post-fault hold set of processor `v`; `alive[v]` says
/// whether `v` survives (dead processors neither send nor receive, and
/// their missing pairs are not planned for). Each round, every unused
/// surviving holder picks the held message that reaches the most surviving
/// not-yet-receiving neighbours still missing it — sender-centric multicast
/// maximization, ties going to the smallest message id. Rounds are emitted
/// until no transmission can make progress; whatever is still missing then
/// is abandoned.
///
/// A sender's choice is counted from what its free neighbours miss: each
/// free neighbour `d` adds `holds(v) & !holds(d)` into a bit-sliced
/// counter, plane `p` holding bit `p` of every held message's count, so a
/// round costs a few word operations per (sender, free neighbour, word)
/// however many messages are held or missing. A receiver that already
/// holds every message is never free: it would add no count and cannot be
/// a destination.
///
/// # Panics
///
/// Panics if `holds` or `alive` has a length other than `g.n()`, or if the
/// hold sets differ in capacity.
pub fn plan_completion(g: &Graph, holds: &[BitSet], alive: &[bool]) -> ResidualPlan {
    let _phase = phase("completion_planning");
    let n = g.n();
    assert_eq!(holds.len(), n, "hold sets for a different processor count");
    assert_eq!(alive.len(), n, "alive mask for a different processor count");
    let n_msgs = holds.first().map_or(0, BitSet::capacity);
    assert!(
        holds.iter().all(|h| h.capacity() == n_msgs),
        "hold sets have mixed capacities"
    );
    // Processor-major hold words: row v is `holds[v].words()`, whose bits
    // at or above `n_msgs` are zero, so row differences need no tail mask.
    let words = n_msgs.div_ceil(64);
    let mut arena: Vec<u64> = holds.iter().flat_map(BitSet::words).copied().collect();
    let initially_missing = missing_pairs(&arena, n_msgs, alive);
    // lacking[v]: the messages v misses, less each delivery as a round
    // commits. Only processors lacking something are free to receive.
    let mut lacking: Vec<usize> = holds.iter().map(|h| n_msgs - h.len()).collect();
    let bit_length = |k: usize| (usize::BITS - k.leading_zeros()) as usize;

    let mut schedule = Schedule::new(n);
    let mut free = vec![false; n];
    let mut nbrs = vec![0usize; g.max_degree()];
    // The counter: `planes[w * used + p]` is bit p of the counts of word
    // w's messages, `used` being the bit length of the sender's free
    // neighbour count, which bounds every count it can reach.
    let mut planes = vec![0u64; words * bit_length(g.max_degree())];
    let mut best = vec![0u64; words];
    loop {
        let mut round_txs: Vec<Transmission> = Vec::new();
        for (f, (&a, &l)) in free.iter_mut().zip(alive.iter().zip(&lacking)) {
            *f = a && l > 0;
        }
        for v in (0..n).filter(|&v| alive[v]) {
            let held = &arena[v * words..(v + 1) * words];
            // Branch-free compaction of v's free neighbours.
            let mut k = 0;
            for d in g.neighbors(v) {
                nbrs[k] = d;
                k += usize::from(free[d]);
            }
            if k == 0 {
                continue;
            }
            let free_nbrs = &nbrs[..k];
            let used = bit_length(k);
            let planes = &mut planes[..words * used];
            planes.fill(0);
            for &d in free_nbrs {
                let theirs = &arena[d * words..(d + 1) * words];
                let counters = planes.chunks_exact_mut(used);
                for ((&a, &b), counter) in held.iter().zip(theirs).zip(counters) {
                    // Ripple-carry add of one to each message of `a & !b`.
                    let mut carry = a & !b;
                    for plane in counter.iter_mut() {
                        if carry == 0 {
                            break;
                        }
                        let over = *plane & carry;
                        *plane ^= carry;
                        carry = over;
                    }
                }
            }
            // The largest count: from the messages with any count, keep
            // those with each plane's bit, top plane first, whenever some
            // have it. The lowest set bit left is the smallest id among
            // them, the greedy's tie rule.
            for (b, counter) in best.iter_mut().zip(planes.chunks_exact(used)) {
                *b = counter.iter().fold(0, |acc, &plane| acc | plane);
            }
            let counters = || planes.chunks_exact(used);
            for p in (0..used).rev() {
                if best.iter().zip(counters()).any(|(&b, c)| b & c[p] != 0) {
                    for (b, c) in best.iter_mut().zip(counters()) {
                        *b &= c[p];
                    }
                }
            }
            let Some(w) = best.iter().position(|&b| b != 0) else {
                continue;
            };
            let m = w * 64 + best[w].trailing_zeros() as usize;
            let bit = 1u64 << (m % 64);
            let dests: Vec<usize> = free_nbrs
                .iter()
                .copied()
                .filter(|&d| arena[d * words + w] & bit == 0)
                .collect();
            for &d in &dests {
                free[d] = false;
            }
            round_txs.push(Transmission::new(m as u32, v, dests));
        }
        if round_txs.is_empty() {
            break;
        }
        // Commit the round: deliveries land before the next round plans.
        for tx in &round_txs {
            let (w, bit) = (tx.msg as usize / 64, 1u64 << (tx.msg % 64));
            for &d in &tx.to {
                arena[d * words + w] |= bit;
                lacking[d] -= 1;
            }
        }
        schedule
            .rounds
            .push(CommRound::from_transmissions(round_txs));
    }

    let abandoned = missing_pairs(&arena, n_msgs, alive);
    let covered = without_sorted(initially_missing, &abandoned);
    ResidualPlan {
        schedule,
        covered,
        abandoned,
    }
}

/// The deliveries [`plan_completion`] would plan for the same input,
/// counted without planning it.
///
/// The greedy emits an empty round only when no alive holder has an alive
/// neighbour missing one of its messages. So it ends with every component
/// C of the alive subgraph knowing U_C, the union of its members' holds,
/// which no round can grow. Each delivery adds exactly one pair: a vertex
/// receives at most once per round, only a message it lacks, and a round
/// commits after it is planned. The count is therefore the sum over alive
/// `v` of |U_C \ holds(v)|, C being `v`'s component: one pass over the
/// alive subgraph's components and one over the hold words.
///
/// # Panics
///
/// Panics on the inputs [`plan_completion`] rejects.
pub fn completion_deliveries(g: &Graph, holds: &[BitSet], alive: &[bool]) -> usize {
    let _phase = phase("completion_planning");
    let n = g.n();
    assert_eq!(holds.len(), n, "hold sets for a different processor count");
    assert_eq!(alive.len(), n, "alive mask for a different processor count");
    let n_msgs = holds.first().map_or(0, BitSet::capacity);
    assert!(
        holds.iter().all(|h| h.capacity() == n_msgs),
        "hold sets have mixed capacities"
    );
    let mut seen = vec![false; n];
    let mut members: Vec<usize> = Vec::new();
    let mut union = vec![0u64; n_msgs.div_ceil(64)];
    let mut deliveries = 0usize;
    for s in 0..n {
        if !alive[s] || seen[s] {
            continue;
        }
        seen[s] = true;
        members.clear();
        members.push(s);
        let mut next = 0;
        while let Some(&v) = members.get(next) {
            next += 1;
            for d in g.neighbors(v) {
                if alive[d] && !seen[d] {
                    seen[d] = true;
                    members.push(d);
                }
            }
        }
        union.fill(0);
        for &v in &members {
            for (u, &w) in union.iter_mut().zip(holds[v].words()) {
                *u |= w;
            }
        }
        for &v in &members {
            let lacks = union.iter().zip(holds[v].words());
            deliveries += lacks
                .map(|(&u, &h)| (u & !h).count_ones() as usize)
                .sum::<usize>();
        }
    }
    deliveries
}

/// `pairs` without the pairs in `remove`, by one ordered merge walk: both
/// lists are vertex-major with messages ascending, the order
/// [`missing_pairs`] and [`SimKernel::residual`] produce.
fn without_sorted(pairs: Vec<(u32, usize)>, remove: &[(u32, usize)]) -> Vec<(u32, usize)> {
    let key = |&(m, v): &(u32, usize)| (v, m);
    let mut next = 0;
    pairs
        .into_iter()
        .filter(|p| {
            while next < remove.len() && key(&remove[next]) < key(p) {
                next += 1;
            }
            remove.get(next) != Some(p)
        })
        .collect()
}

/// What one epoch of execution (the base run, or one repair pass) did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochReport {
    /// Epoch index: 0 is the base schedule, 1.. are repair passes.
    pub epoch: usize,
    /// Absolute round at which the epoch started.
    pub start_round: usize,
    /// Rounds the epoch executed.
    pub rounds: usize,
    /// Deliveries the epoch's schedule attempted.
    pub attempted: usize,
    /// Deliveries that landed.
    pub delivered: usize,
    /// Deliveries lost to faults.
    pub lost: usize,
    /// Residual size after the epoch (missing pairs among survivors).
    pub residual_after: usize,
}

/// The outcome of a [`ResilientExecutor`] run.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Number of processors.
    pub n: usize,
    /// Rounds of the base schedule (its makespan).
    pub baseline_rounds: usize,
    /// Total rounds executed across all epochs.
    pub total_rounds: usize,
    /// Per-epoch accounting (epoch 0 is the base run).
    pub epochs: Vec<EpochReport>,
    /// Deliveries attempted by repair epochs (0 when nothing was lost).
    pub retransmissions: usize,
    /// Total deliveries lost across all epochs.
    pub lost_deliveries: usize,
    /// Whether every recoverable pair was completed (the residual among
    /// survivors is empty apart from [`RecoveryReport::unrecoverable`]).
    pub recovered: bool,
    /// Pairs the planner proved unreachable (survivors disconnected from
    /// every holder of the message).
    pub unrecoverable: Vec<(u32, usize)>,
    /// Recoverable pairs still missing when the epoch budget ran out.
    pub unresolved: Vec<(u32, usize)>,
    /// Processors alive at the end of the run.
    pub survivors: usize,
    /// The combined transcript: the base schedule plus every repair epoch,
    /// placed at absolute rounds. Replaying it lossily under the same
    /// fault plan reproduces this report's final hold sets.
    pub transcript: Schedule,
    /// Every lost delivery, in execution order.
    pub lost_log: Vec<LostDelivery>,
}

impl RecoveryReport {
    /// Rounds of overhead the faults cost over the baseline schedule.
    pub fn overhead_rounds(&self) -> usize {
        self.total_rounds - self.baseline_rounds
    }

    /// The structured recovery artifact (`schema_version` 1).
    pub fn to_value(&self) -> Value {
        let epochs: Vec<Value> = self
            .epochs
            .iter()
            .map(|e| {
                Value::Object(vec![
                    ("epoch".to_string(), Value::from_u64(e.epoch as u64)),
                    (
                        "start_round".to_string(),
                        Value::from_u64(e.start_round as u64),
                    ),
                    ("rounds".to_string(), Value::from_u64(e.rounds as u64)),
                    ("attempted".to_string(), Value::from_u64(e.attempted as u64)),
                    ("delivered".to_string(), Value::from_u64(e.delivered as u64)),
                    ("lost".to_string(), Value::from_u64(e.lost as u64)),
                    (
                        "residual_after".to_string(),
                        Value::from_u64(e.residual_after as u64),
                    ),
                ])
            })
            .collect();
        let pair = |&(m, v): &(u32, usize)| {
            Value::Array(vec![Value::from_u64(m as u64), Value::from_u64(v as u64)])
        };
        Value::Object(vec![
            ("schema_version".to_string(), Value::from_u64(1)),
            ("kind".to_string(), Value::String("recovery".to_string())),
            ("n".to_string(), Value::from_u64(self.n as u64)),
            (
                "baseline_rounds".to_string(),
                Value::from_u64(self.baseline_rounds as u64),
            ),
            (
                "total_rounds".to_string(),
                Value::from_u64(self.total_rounds as u64),
            ),
            (
                "overhead_rounds".to_string(),
                Value::from_u64(self.overhead_rounds() as u64),
            ),
            (
                "retransmissions".to_string(),
                Value::from_u64(self.retransmissions as u64),
            ),
            (
                "lost_deliveries".to_string(),
                Value::from_u64(self.lost_deliveries as u64),
            ),
            ("recovered".to_string(), Value::Bool(self.recovered)),
            (
                "survivors".to_string(),
                Value::from_u64(self.survivors as u64),
            ),
            (
                "unrecoverable".to_string(),
                Value::Array(self.unrecoverable.iter().map(pair).collect()),
            ),
            (
                "unresolved".to_string(),
                Value::Array(self.unresolved.iter().map(pair).collect()),
            ),
            ("epochs".to_string(), Value::Array(epochs)),
        ])
    }

    /// A Chrome-trace view of the run: one lane per epoch (the base run
    /// and each repair pass as a complete event spanning its rounds), with
    /// an instant per lost delivery on the epoch it occurred in.
    pub fn chrome_trace(&self) -> ChromeTrace {
        let mut trace = ChromeTrace::new();
        trace.process_name(0, "recovery (logical rounds)");
        for e in &self.epochs {
            let name = if e.epoch == 0 {
                "base schedule".to_string()
            } else {
                format!("repair epoch {}", e.epoch)
            };
            trace.thread_name(0, e.epoch as u64, &name);
            trace.complete(
                &name,
                "epoch",
                0,
                e.epoch as u64,
                e.start_round as f64 * ChromeTrace::ROUND_US,
                (e.rounds.max(1)) as f64 * ChromeTrace::ROUND_US,
                vec![
                    ("attempted".to_string(), Value::from_u64(e.attempted as u64)),
                    ("delivered".to_string(), Value::from_u64(e.delivered as u64)),
                    ("lost".to_string(), Value::from_u64(e.lost as u64)),
                    (
                        "residual_after".to_string(),
                        Value::from_u64(e.residual_after as u64),
                    ),
                ],
            );
        }
        for l in &self.lost_log {
            let epoch = self
                .epochs
                .iter()
                .rev()
                .find(|e| l.round >= e.start_round)
                .map_or(0, |e| e.epoch);
            trace.instant(
                &format!("lost m{} {}->{}", l.msg, l.from, l.to),
                "loss",
                0,
                epoch as u64,
                l.round as f64 * ChromeTrace::ROUND_US,
                vec![("cause".to_string(), Value::String(format!("{:?}", l.cause)))],
            );
        }
        trace
    }
}

/// Default repair-epoch budget of [`ResilientExecutor`].
pub const DEFAULT_MAX_EPOCHS: usize = 16;

/// Epoch-based self-healing execution of a gossip schedule under a fault
/// plan: run, detect the residual, replan with [`plan_completion`], re-run
/// — until the residual is gone or a bounded retry budget is spent.
///
/// # Examples
///
/// ```
/// use gossip_core::{GossipPlanner, ResilientExecutor};
/// use gossip_graph::Graph;
/// use gossip_model::FaultPlan;
///
/// let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
/// let plan = GossipPlanner::new(&g).unwrap().plan().unwrap();
/// let faults = FaultPlan::new(7).with_loss_rate(0.2);
/// let report = ResilientExecutor::new(&g, &plan.schedule, &plan.origin_of_message, &faults)
///     .run()
///     .unwrap();
/// assert!(report.recovered);
/// ```
pub struct ResilientExecutor<'a> {
    g: &'a Graph,
    schedule: &'a Schedule,
    origins: &'a [usize],
    plan: &'a FaultPlan,
    model: CommModel,
    max_epochs: usize,
    recorder: &'a dyn Recorder,
}

impl<'a> ResilientExecutor<'a> {
    /// A resilient executor for `schedule` on `g` under `plan`, with the
    /// multicast model and the default epoch budget.
    pub fn new(
        g: &'a Graph,
        schedule: &'a Schedule,
        origins: &'a [usize],
        plan: &'a FaultPlan,
    ) -> ResilientExecutor<'a> {
        ResilientExecutor {
            g,
            schedule,
            origins,
            plan,
            model: CommModel::Multicast,
            max_epochs: DEFAULT_MAX_EPOCHS,
            recorder: &NoopRecorder,
        }
    }

    /// Caps the number of repair epochs (0 = run the base schedule only).
    pub fn max_epochs(mut self, budget: usize) -> ResilientExecutor<'a> {
        self.max_epochs = budget;
        self
    }

    /// Streams counters and spans into `recorder` (`recovery/lost`,
    /// `recovery/retransmissions`, `recovery/epochs`).
    pub fn recorder(mut self, recorder: &'a dyn Recorder) -> ResilientExecutor<'a> {
        self.recorder = recorder;
        self
    }

    /// Executes the base schedule and up to `max_epochs` repair passes.
    ///
    /// Errors only on structural problems (bad origin table, schedule/graph
    /// size mismatch, invalid fault plan, or a schedule that breaks model
    /// rules) — faults themselves never error.
    pub fn run(&self) -> Result<RecoveryReport, ModelError> {
        self.plan
            .validate(self.g.n())
            .map_err(|reason| ModelError::InvalidFaultPlan { reason })?;
        let _span = self.recorder.span("recover");
        // Zero-delta touches so a live scrape sees the whole recovery
        // counter family from the first round, not only after something
        // was lost.
        self.recorder.counter("recovery/lost", 0);
        self.recorder.counter("recovery/retransmissions", 0);
        self.recorder.counter("recovery/epochs", 0);
        // Execution goes through the bitset kernel: flatten each epoch's
        // schedule once, replay word-parallel. The transcript-replay test
        // replays the whole transcript on the oracle `Simulator` and relies
        // on the two engines' parity.
        let mut sim = SimKernel::with_origins(self.g, self.model, self.origins)?;
        let mut lost_log: Vec<LostDelivery> = Vec::new();
        let baseline_rounds = self.schedule.makespan();

        let mut epochs = Vec::new();
        let mut retransmissions = 0usize;
        let mut unrecoverable: Vec<(u32, usize)> = Vec::new();

        // The transcript starts as a copy of the base schedule, made inside
        // the base epoch's span beside the flatten of the same schedule, so
        // a traced run books the copy to that epoch instead of to no span.
        let (base_attempted, base_out, mut transcript) = {
            let _e = self.recorder.span("epoch");
            self.epoch_start(0, 0);
            let flat = FlatSchedule::from_schedule(self.schedule);
            let mut transcript = self.schedule.clone();
            transcript.trim();
            let _replay = phase("kernel_replay");
            let out = sim.run_lossy(&flat, self.plan, &mut lost_log, self.recorder)?;
            (flat.deliveries(), out, transcript)
        };
        self.record_epoch(&mut epochs, 0, 0, base_attempted, &base_out, &sim);

        for epoch in 1..=self.max_epochs {
            if sim.residual_count(self.plan) == 0 {
                break;
            }
            let alive = self.plan.alive_at(self.g.n(), sim.time());
            let holds: Vec<BitSet> = sim.hold_bitsets();
            let completion = plan_completion(self.g, &holds, &alive);
            // The greedy stops at its fixed point: every alive component
            // knows its union of holds.
            debug_assert_eq!(
                completion.schedule.stats().deliveries,
                completion_deliveries(self.g, &holds, &alive)
            );
            if completion.schedule.makespan() == 0 {
                // Nothing can make progress: the rest is unreachable.
                unrecoverable = completion.abandoned;
                break;
            }
            let start = sim.time();
            let (attempted, out) = {
                let _e = self.recorder.span("epoch");
                self.epoch_start(epoch, start);
                let flat = FlatSchedule::from_schedule(&completion.schedule);
                let _replay = phase("kernel_replay");
                let out = sim.run_lossy(&flat, self.plan, &mut lost_log, self.recorder)?;
                (flat.deliveries(), out)
            };
            retransmissions += attempted;
            transcript.merge_at(start, completion.schedule);
            self.record_epoch(&mut epochs, epoch, start, attempted, &out, &sim);
        }

        let unresolved = without_sorted(sim.residual(self.plan), &unrecoverable);
        let survivors = self
            .plan
            .alive_at(self.g.n(), sim.time())
            .iter()
            .filter(|&&a| a)
            .count();

        self.recorder
            .gauge("recovery/total_rounds", sim.time() as f64);

        Ok(RecoveryReport {
            n: self.g.n(),
            baseline_rounds,
            total_rounds: sim.time(),
            epochs,
            retransmissions,
            lost_deliveries: lost_log.len(),
            recovered: unresolved.is_empty(),
            unrecoverable,
            unresolved,
            survivors,
            transcript,
            lost_log,
        })
    }

    /// Publishes the epoch-transition event before an epoch executes, so
    /// `/events` subscribers see the boundary ahead of its round stream.
    fn epoch_start(&self, epoch: usize, start_round: usize) {
        self.recorder.gauge("recovery/epoch_current", epoch as f64);
        self.recorder.event(
            "epoch_start",
            &[
                ("epoch", Value::from_u64(epoch as u64)),
                ("start_round", Value::from_u64(start_round as u64)),
            ],
        );
    }

    /// Books one finished epoch: the report row, the incremental
    /// `recovery/*` counters (per-epoch increments whose run totals equal
    /// the final report fields), the live `recovery/residual_pairs` gauge,
    /// and the `epoch_end` event.
    fn record_epoch(
        &self,
        epochs: &mut Vec<EpochReport>,
        epoch: usize,
        start_round: usize,
        attempted: usize,
        out: &LossyOutcome,
        sim: &SimKernel<'_>,
    ) {
        let residual_after = sim.residual_count(self.plan);
        self.recorder.counter("recovery/lost", out.lost as u64);
        self.recorder.counter("recovery/epochs", 1);
        if epoch > 0 {
            self.recorder
                .counter("recovery/retransmissions", attempted as u64);
        }
        self.recorder
            .gauge("recovery/residual_pairs", residual_after as f64);
        self.recorder.event(
            "epoch_end",
            &[
                ("epoch", Value::from_u64(epoch as u64)),
                ("start_round", Value::from_u64(start_round as u64)),
                ("rounds", Value::from_u64(out.rounds_executed as u64)),
                ("delivered", Value::from_u64(out.delivered as u64)),
                ("lost", Value::from_u64(out.lost as u64)),
                ("residual_after", Value::from_u64(residual_after as u64)),
            ],
        );
        epochs.push(EpochReport {
            epoch,
            start_round,
            rounds: out.rounds_executed,
            attempted,
            delivered: out.delivered,
            lost: out.lost,
            residual_after,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::GossipPlanner;
    use gossip_model::Simulator;

    fn petersen() -> Graph {
        let edges = [
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 4),
            (4, 0),
            (0, 5),
            (1, 6),
            (2, 7),
            (3, 8),
            (4, 9),
            (5, 7),
            (7, 9),
            (9, 6),
            (6, 8),
            (8, 5),
        ];
        Graph::from_edges(10, &edges).unwrap()
    }

    #[test]
    fn zero_fault_plan_adds_nothing() {
        let g = petersen();
        let plan = GossipPlanner::new(&g).unwrap().plan().unwrap();
        let faults = FaultPlan::none();
        let report = ResilientExecutor::new(&g, &plan.schedule, &plan.origin_of_message, &faults)
            .run()
            .unwrap();
        assert!(report.recovered);
        assert_eq!(report.total_rounds, plan.schedule.makespan());
        assert_eq!(report.overhead_rounds(), 0);
        assert_eq!(report.retransmissions, 0);
        assert_eq!(report.lost_deliveries, 0);
        assert_eq!(report.epochs.len(), 1);
        assert_eq!(report.transcript, {
            let mut s = plan.schedule.clone();
            s.trim();
            s
        });
    }

    #[test]
    fn heavy_loss_is_healed() {
        let g = petersen();
        let plan = GossipPlanner::new(&g).unwrap().plan().unwrap();
        let faults = FaultPlan::new(42).with_loss_rate(0.3);
        let report = ResilientExecutor::new(&g, &plan.schedule, &plan.origin_of_message, &faults)
            .run()
            .unwrap();
        assert!(report.recovered, "{report:?}");
        assert!(report.lost_deliveries > 0);
        assert!(report.retransmissions > 0);
        assert!(report.epochs.len() > 1);
        assert!(report.unrecoverable.is_empty());
    }

    #[test]
    fn crash_excludes_dead_and_completes_survivors() {
        let g = petersen();
        let plan = GossipPlanner::new(&g).unwrap().plan().unwrap();
        // Vertex 9 dies immediately: its message never spreads (it is the
        // only holder), so pairs (9, *) are unrecoverable; all other
        // messages must still complete among the 9 survivors.
        let dead = 9usize;
        let faults = FaultPlan::new(3).with_crash(dead, 0);
        let report = ResilientExecutor::new(&g, &plan.schedule, &plan.origin_of_message, &faults)
            .run()
            .unwrap();
        assert_eq!(report.survivors, 9);
        let dead_msg = plan
            .origin_of_message
            .iter()
            .position(|&o| o == dead)
            .unwrap() as u32;
        assert!(report.unresolved.is_empty());
        assert!(!report.unrecoverable.is_empty());
        assert!(report
            .unrecoverable
            .iter()
            .all(|&(m, v)| m == dead_msg && v != dead));
        assert_eq!(report.unrecoverable.len(), 9);
    }

    #[test]
    fn replaying_the_transcript_reproduces_the_outcome() {
        let g = petersen();
        let plan = GossipPlanner::new(&g).unwrap().plan().unwrap();
        let faults = FaultPlan::new(11).with_loss_rate(0.25).with_crash(4, 6);
        let report = ResilientExecutor::new(&g, &plan.schedule, &plan.origin_of_message, &faults)
            .run()
            .unwrap();
        // The combined transcript, replayed lossily under the same plan,
        // is accepted by the validating simulator and lands the same state.
        let mut sim =
            Simulator::with_origins(&g, CommModel::Multicast, &plan.origin_of_message).unwrap();
        let mut lost = Vec::new();
        let out = sim
            .run_lossy(&report.transcript, &faults, &mut lost)
            .unwrap();
        assert_eq!(lost, report.lost_log);
        assert_eq!(
            out.complete_among_alive,
            report.recovered && report.unrecoverable.is_empty()
        );
        assert_eq!(
            sim.residual(&faults).len(),
            report.unresolved.len() + report.unrecoverable.len()
        );
    }

    #[test]
    fn epoch_budget_zero_reports_unresolved() {
        let g = petersen();
        let plan = GossipPlanner::new(&g).unwrap().plan().unwrap();
        let faults = FaultPlan::new(42).with_loss_rate(0.5);
        let report = ResilientExecutor::new(&g, &plan.schedule, &plan.origin_of_message, &faults)
            .max_epochs(0)
            .run()
            .unwrap();
        assert!(!report.recovered);
        assert!(!report.unresolved.is_empty());
        assert_eq!(report.epochs.len(), 1);
        assert_eq!(report.retransmissions, 0);
    }

    #[test]
    fn planner_completes_a_simple_residual() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        // Vertex 0 holds everything; the rest hold only their own message.
        let n_msgs = 4;
        let mut holds: Vec<BitSet> = (0..4)
            .map(|v| {
                let mut b = BitSet::new(n_msgs);
                b.insert(v);
                b
            })
            .collect();
        for m in 0..n_msgs {
            holds[0].insert(m);
        }
        let alive = vec![true; 4];
        let rp = plan_completion(&g, &holds, &alive);
        assert!(rp.abandoned.is_empty());
        // Validated end to end: replay over a simulator seeded with the
        // same holds is impossible directly, but simulating from origins
        // through planner rounds must obey all rules; spot-check the
        // schedule is conflict-free per round instead.
        for round in &rp.schedule.rounds {
            let senders: Vec<usize> = round.transmissions.iter().map(|t| t.from).collect();
            let mut s = senders.clone();
            s.sort_unstable();
            s.dedup();
            assert_eq!(s.len(), senders.len(), "duplicate sender in a round");
            let mut receivers: Vec<usize> = round
                .transmissions
                .iter()
                .flat_map(|t| t.to.iter().copied())
                .collect();
            let before = receivers.len();
            receivers.sort_unstable();
            receivers.dedup();
            assert_eq!(receivers.len(), before, "duplicate receiver in a round");
        }
    }

    #[test]
    fn planner_abandons_extinct_messages() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let n_msgs = 3;
        // Nobody holds message 2 (its origin crashed before forwarding).
        let holds: Vec<BitSet> = (0..3)
            .map(|v| {
                let mut b = BitSet::new(n_msgs);
                if v < 2 {
                    b.insert(v);
                }
                b
            })
            .collect();
        let alive = vec![true, true, false];
        let rp = plan_completion(&g, &holds, &alive);
        // Survivors 0 and 1 can trade m0/m1 but m2 is extinct.
        assert!(rp.abandoned.iter().all(|&(m, _)| m == 2));
        assert_eq!(rp.abandoned.len(), 2);
        assert!(rp.covered.len() == 2);
    }

    #[test]
    fn report_artifact_and_trace_shape() {
        let g = petersen();
        let plan = GossipPlanner::new(&g).unwrap().plan().unwrap();
        let faults = FaultPlan::new(5).with_loss_rate(0.2);
        let report = ResilientExecutor::new(&g, &plan.schedule, &plan.origin_of_message, &faults)
            .run()
            .unwrap();
        let v = report.to_value();
        assert_eq!(v["schema_version"].as_u64(), Some(1));
        assert_eq!(v["kind"].as_str(), Some("recovery"));
        assert_eq!(
            v["epochs"].as_array().map(Vec::len),
            Some(report.epochs.len())
        );
        let trace = report.chrome_trace();
        assert!(!trace.is_empty());
        let tv = trace.to_value();
        let completes = tv
            .as_array()
            .unwrap()
            .iter()
            .filter(|e| e["ph"].as_str() == Some("X"))
            .count();
        assert_eq!(completes, report.epochs.len());
    }

    #[test]
    fn telemetry_counters_flow() {
        use gossip_telemetry::MetricsRecorder;
        let g = petersen();
        let plan = GossipPlanner::new(&g).unwrap().plan().unwrap();
        let faults = FaultPlan::new(42).with_loss_rate(0.3);
        let rec = MetricsRecorder::new();
        let report = ResilientExecutor::new(&g, &plan.schedule, &plan.origin_of_message, &faults)
            .recorder(&rec)
            .run()
            .unwrap();
        assert_eq!(
            rec.counter_value("recovery/lost"),
            report.lost_deliveries as u64
        );
        assert_eq!(
            rec.counter_value("recovery/retransmissions"),
            report.retransmissions as u64
        );
        assert_eq!(
            rec.counter_value("recovery/epochs"),
            report.epochs.len() as u64
        );
    }

    #[test]
    fn identity_origin_line_under_outage_heals_after_window() {
        // A 5-line with the middle link down for the base run: recovery
        // must route everything once the outage lifts.
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        let plan = GossipPlanner::new(&g).unwrap().plan().unwrap();
        let base = plan.schedule.makespan();
        let faults = FaultPlan::new(0).with_outage(1, 2, 0, base);
        let report = ResilientExecutor::new(&g, &plan.schedule, &plan.origin_of_message, &faults)
            .run()
            .unwrap();
        assert!(report.recovered, "{report:?}");
        assert!(report.overhead_rounds() > 0);
    }
}
