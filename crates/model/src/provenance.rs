//! Schedule provenance: the causal first-delivery DAG of a simulated run.
//!
//! The simulator verifies *that* a schedule completes; this module records
//! *why*: for every `(message, vertex)` pair, the transmission that first
//! delivered the message — sender, arrival round, and transmission id.
//! Per message these first-delivery edges form a tree rooted at the
//! message's origin (each vertex has exactly one first delivery), and
//! across all messages a DAG with exactly `n·(n-1)` edges for a complete
//! gossip run.
//!
//! From the DAG this module derives the quantities the paper's Theorem 1
//! argument reasons about informally:
//!
//! - **per-message latency**: origin round 0 → the round the last vertex
//!   first learned the message;
//! - **critical paths**: the longest causal chain per message (walk back
//!   from the latest first delivery through senders to the origin), whose
//!   length is what the `n + r` bound caps;
//! - **per-round utilization**: transmissions, deliveries, and *fresh*
//!   deliveries each round (fresh / total exposes redundancy over time);
//! - **per-vertex activity/slack**: sends, receives, idle rounds, and the
//!   round each vertex became fully informed (slack = makespan − that).
//!
//! [`schedule_chrome_trace`] exports any schedule as a Chrome Trace Event
//! Format / Perfetto-compatible JSON array (one lane per processor, one
//! complete event per multicast, one instant per arrival), optionally
//! labeled with the generator rule that caused each send.

use crate::error::ModelError;
use crate::fault_plan::FaultPlan;
use crate::flat_schedule::FlatSchedule;
use crate::kernel::SimKernel;
use crate::lossy::{LossyOutcome, LostDelivery};
use crate::models::CommModel;
use crate::schedule::Schedule;
use crate::simulator::SimOutcome;
use gossip_graph::Graph;
use gossip_telemetry::{ChromeTrace, NoopRecorder, Value};

/// How a vertex first obtained a message: the delivering transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// Arrival round (the transmission was sent at `round - 1`).
    pub round: usize,
    /// The processor that sent the delivering transmission.
    pub sender: usize,
    /// Schedule-order id of the delivering transmission (0-based over
    /// `Schedule::iter`).
    pub tx_id: usize,
}

/// One step of a causal chain: `vertex` first held the message at `round`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathStep {
    /// The vertex.
    pub vertex: usize,
    /// The round it first held the message (0 at the origin).
    pub round: usize,
}

/// Per-round utilization derived from the delivery record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundUtil {
    /// Send time of the round.
    pub round: usize,
    /// Transmissions sent.
    pub transmissions: usize,
    /// Total deliveries (receiver count).
    pub deliveries: usize,
    /// Deliveries that were a vertex's *first* copy of the message.
    pub first_deliveries: usize,
    /// Fraction of processors receiving this round, in `[0, 1]`.
    pub receiver_utilization: f64,
}

/// Per-vertex activity summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VertexActivity {
    /// The vertex.
    pub vertex: usize,
    /// Transmissions it sent.
    pub sends: usize,
    /// Deliveries it received (including redundant ones).
    pub receives: usize,
    /// First deliveries it received (`n_msgs - 1` when gossip completed
    /// and the vertex originated one message).
    pub first_receives: usize,
    /// Rounds (of `0..=makespan`) in which it neither sent nor received.
    pub idle_rounds: usize,
    /// The round it first held every message (0 if it started complete).
    pub informed_round: usize,
}

/// The causal delivery record of one simulated schedule.
#[derive(Debug, Clone)]
pub struct ProvenanceTrace {
    n: usize,
    n_msgs: usize,
    origins: Vec<usize>,
    makespan: usize,
    /// `first[msg][vertex]`; `None` at the origin (it never receives) and
    /// at vertices the message never reached.
    first: Vec<Vec<Option<Delivery>>>,
    rounds: Vec<RoundUtil>,
    sends: Vec<usize>,
    receives: Vec<usize>,
    first_receives: Vec<usize>,
    active_rounds: Vec<usize>,
}

impl ProvenanceTrace {
    /// Number of processors.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of messages.
    pub fn n_msgs(&self) -> usize {
        self.n_msgs
    }

    /// The executed makespan.
    pub fn makespan(&self) -> usize {
        self.makespan
    }

    /// The origin table the run used.
    pub fn origins(&self) -> &[usize] {
        &self.origins
    }

    /// The first delivery of `msg` to `vertex`, if any (`None` at the
    /// origin and at unreached vertices).
    pub fn first_delivery(&self, msg: usize, vertex: usize) -> Option<Delivery> {
        self.first[msg][vertex]
    }

    /// Total first-delivery edges in the DAG. A complete gossip run over a
    /// permutation origin table has exactly `n · (n - 1)`.
    pub fn edge_count(&self) -> usize {
        self.first
            .iter()
            .map(|per_vertex| per_vertex.iter().flatten().count())
            .sum()
    }

    /// The round at which the last vertex first learned `msg` (0 when the
    /// message reached nobody beyond its origin).
    pub fn message_latency(&self, msg: usize) -> usize {
        self.first[msg]
            .iter()
            .flatten()
            .map(|d| d.round)
            .max()
            .unwrap_or(0)
    }

    /// The longest causal chain of `msg`: origin first, each subsequent
    /// step the first delivery whose sender is the previous step's vertex.
    /// Among equally-late final deliveries the smallest vertex id wins, so
    /// the path is deterministic.
    pub fn critical_path(&self, msg: usize) -> Vec<PathStep> {
        let mut last: Option<(usize, Delivery)> = None;
        for (v, d) in self.first[msg].iter().enumerate() {
            if let Some(d) = d {
                let better = match last {
                    None => true,
                    Some((_, best)) => d.round > best.round,
                };
                if better {
                    last = Some((v, *d));
                }
            }
        }
        let mut chain = Vec::new();
        let Some((mut v, mut d)) = last else {
            // The message never moved: the path is the origin alone.
            return vec![PathStep {
                vertex: self.origins[msg],
                round: 0,
            }];
        };
        loop {
            chain.push(PathStep {
                vertex: v,
                round: d.round,
            });
            match self.first[msg][d.sender] {
                Some(prev) => {
                    v = d.sender;
                    d = prev;
                }
                None => {
                    // The sender is the origin (or the walk left the DAG,
                    // impossible for simulator-validated runs).
                    chain.push(PathStep {
                        vertex: d.sender,
                        round: 0,
                    });
                    break;
                }
            }
        }
        chain.reverse();
        chain
    }

    /// The message with the latest final first-delivery and that round —
    /// the critical path of the whole run, to compare against `n + r`.
    pub fn critical_message(&self) -> (usize, usize) {
        (0..self.n_msgs)
            .map(|m| (m, self.message_latency(m)))
            .max_by_key(|&(m, lat)| (lat, std::cmp::Reverse(m)))
            .unwrap_or((0, 0))
    }

    /// Per-round utilization, in round order.
    pub fn round_utilization(&self) -> &[RoundUtil] {
        &self.rounds
    }

    /// Per-vertex activity, indexed by vertex id.
    pub fn vertex_activity(&self) -> Vec<VertexActivity> {
        (0..self.n)
            .map(|v| {
                let informed_round = (0..self.n_msgs)
                    .filter_map(|m| self.first[m][v].map(|d| d.round))
                    .max()
                    .unwrap_or(0);
                VertexActivity {
                    vertex: v,
                    sends: self.sends[v],
                    receives: self.receives[v],
                    first_receives: self.first_receives[v],
                    idle_rounds: (self.makespan + 1).saturating_sub(self.active_rounds[v]),
                    informed_round,
                }
            })
            .collect()
    }

    /// Per-vertex slack against `bound` (usually `n + r`): how many rounds
    /// before the bound each vertex was fully informed.
    pub fn slack_against(&self, bound: usize) -> Vec<usize> {
        self.vertex_activity()
            .iter()
            .map(|a| bound.saturating_sub(a.informed_round))
            .collect()
    }

    /// The structured provenance artifact (`schema_version` 1): per-message
    /// critical paths and latencies, per-round utilization, and per-vertex
    /// activity/slack tables. `bound` is the guarantee to measure slack
    /// against (`n + r` for ConcurrentUpDown plans).
    pub fn to_value(&self, bound: Option<usize>) -> Value {
        let per_message: Vec<Value> = (0..self.n_msgs)
            .map(|m| {
                let path = self.critical_path(m);
                let latency = self.message_latency(m);
                let mut members = vec![
                    ("msg".to_string(), Value::from_u64(m as u64)),
                    (
                        "origin".to_string(),
                        Value::from_u64(self.origins[m] as u64),
                    ),
                    ("latency".to_string(), Value::from_u64(latency as u64)),
                    (
                        "critical_path".to_string(),
                        Value::Array(
                            path.iter()
                                .map(|s| Value::from_u64(s.vertex as u64))
                                .collect(),
                        ),
                    ),
                ];
                if let Some(b) = bound {
                    members.push((
                        "slack".to_string(),
                        Value::from_u64(b.saturating_sub(latency) as u64),
                    ));
                }
                Value::Object(members)
            })
            .collect();
        let rounds: Vec<Value> = self
            .rounds
            .iter()
            .map(|r| {
                Value::Object(vec![
                    ("round".to_string(), Value::from_u64(r.round as u64)),
                    (
                        "transmissions".to_string(),
                        Value::from_u64(r.transmissions as u64),
                    ),
                    (
                        "deliveries".to_string(),
                        Value::from_u64(r.deliveries as u64),
                    ),
                    (
                        "first_deliveries".to_string(),
                        Value::from_u64(r.first_deliveries as u64),
                    ),
                    (
                        "receiver_utilization".to_string(),
                        Value::from_f64(r.receiver_utilization),
                    ),
                ])
            })
            .collect();
        let vertices: Vec<Value> = self
            .vertex_activity()
            .iter()
            .map(|a| {
                let mut members = vec![
                    ("vertex".to_string(), Value::from_u64(a.vertex as u64)),
                    ("sends".to_string(), Value::from_u64(a.sends as u64)),
                    ("receives".to_string(), Value::from_u64(a.receives as u64)),
                    (
                        "first_receives".to_string(),
                        Value::from_u64(a.first_receives as u64),
                    ),
                    (
                        "idle_rounds".to_string(),
                        Value::from_u64(a.idle_rounds as u64),
                    ),
                    (
                        "informed_round".to_string(),
                        Value::from_u64(a.informed_round as u64),
                    ),
                ];
                if let Some(b) = bound {
                    members.push((
                        "slack".to_string(),
                        Value::from_u64(b.saturating_sub(a.informed_round) as u64),
                    ));
                }
                Value::Object(members)
            })
            .collect();
        let (crit_msg, crit_rounds) = self.critical_message();
        let mut members = vec![
            ("schema_version".to_string(), Value::from_u64(1)),
            ("kind".to_string(), Value::String("provenance".to_string())),
            ("n".to_string(), Value::from_u64(self.n as u64)),
            ("messages".to_string(), Value::from_u64(self.n_msgs as u64)),
            (
                "makespan".to_string(),
                Value::from_u64(self.makespan as u64),
            ),
            (
                "first_delivery_edges".to_string(),
                Value::from_u64(self.edge_count() as u64),
            ),
            (
                "critical_message".to_string(),
                Value::from_u64(crit_msg as u64),
            ),
            (
                "critical_path_rounds".to_string(),
                Value::from_u64(crit_rounds as u64),
            ),
        ];
        if let Some(b) = bound {
            members.push(("bound".to_string(), Value::from_u64(b as u64)));
        }
        members.push(("per_message".to_string(), Value::Array(per_message)));
        members.push(("rounds".to_string(), Value::Array(rounds)));
        members.push(("vertices".to_string(), Value::Array(vertices)));
        Value::Object(members)
    }
}

/// Runs `schedule` on `g` under `model`, validating every rule exactly as
/// [`crate::validate_gossip_schedule`] does, while recording the causal
/// first-delivery DAG. Returns the outcome plus the provenance record.
///
/// The replay itself goes through the bitset [`SimKernel`] over a
/// [`FlatSchedule`]; rule errors are bit-identical to the oracle
/// [`crate::Simulator`]'s.
pub fn trace_gossip(
    g: &Graph,
    schedule: &Schedule,
    origins: &[usize],
    model: CommModel,
) -> Result<(SimOutcome, ProvenanceTrace), ModelError> {
    let run = walk(g, schedule, origins, model, |sim, flat, t, _| {
        sim.step_round(flat, t)
    })?;
    let outcome = SimOutcome {
        complete: run.sim.gossip_complete(),
        rounds_executed: run.trace.makespan,
        completion_time: run.completion_time,
        stats: schedule.stats(),
    };
    Ok((outcome, run.trace))
}

/// Runs `schedule` on `g` under `model` and the fault plan, recording the
/// causal first-delivery DAG of what *actually arrived*. Lost deliveries
/// show up as gaps: [`ProvenanceTrace::first_delivery`] stays `None` for
/// every (message, vertex) pair the faults kept apart, so
/// [`ProvenanceTrace::edge_count`] falls short of `n · (n - 1)` by exactly
/// the unreached pairs. Returns the lossy outcome, the gap-bearing trace,
/// and the loss log.
pub fn trace_gossip_lossy(
    g: &Graph,
    schedule: &Schedule,
    origins: &[usize],
    model: CommModel,
    plan: &FaultPlan,
) -> Result<(LossyOutcome, ProvenanceTrace, Vec<LostDelivery>), ModelError> {
    let mut delivered = 0;
    let run = walk(g, schedule, origins, model, |sim, flat, t, lost| {
        delivered += sim.step_round_lossy(flat, t, plan, lost, &NoopRecorder)?;
        Ok(())
    })?;
    let outcome = LossyOutcome {
        rounds_executed: run.trace.makespan,
        delivered,
        lost: run.lost.len(),
        complete_among_alive: run.sim.residual_count(plan) == 0,
    };
    Ok((outcome, run.trace, run.lost))
}

/// What [`walk`] leaves behind: the kernel after the last round, the
/// provenance record, the loss log and the first complete time.
struct Walk<'g> {
    sim: SimKernel<'g>,
    trace: ProvenanceTrace,
    lost: Vec<LostDelivery>,
    completion_time: Option<usize>,
}

/// Replays `schedule` round by round through `step` — which executes one
/// round on the kernel and appends what it suppressed to the loss log —
/// while recording the causal first-delivery DAG. A delivery counts as
/// traffic unless this round lost it, and as a first delivery when its
/// destination lacked the message before the step and holds it after
/// (the model's one-receive-per-round rule means at most one
/// transmission can have landed it). On a step error nothing is recorded
/// past prior rounds.
fn walk<'g>(
    g: &'g Graph,
    schedule: &Schedule,
    origins: &[usize],
    model: CommModel,
    mut step: impl FnMut(
        &mut SimKernel<'g>,
        &FlatSchedule,
        usize,
        &mut Vec<LostDelivery>,
    ) -> Result<(), ModelError>,
) -> Result<Walk<'g>, ModelError> {
    let mut sim = SimKernel::with_origins(g, model, origins)?;
    if schedule.n != g.n() {
        return Err(ModelError::SizeMismatch {
            graph_n: g.n(),
            schedule_n: schedule.n,
        });
    }
    let flat = FlatSchedule::from_schedule(schedule);
    let n = g.n();
    let n_msgs = origins.len();
    let makespan = schedule.makespan();
    let mut first: Vec<Vec<Option<Delivery>>> = vec![vec![None; n]; n_msgs];
    let mut rounds = Vec::with_capacity(makespan);
    let mut sends = vec![0usize; n];
    let mut receives = vec![0usize; n];
    let mut first_receives = vec![0usize; n];
    let mut active_rounds = vec![0usize; n];
    // active_stamp[v] = last round slot (0..=makespan) in which v acted.
    let mut active_stamp = vec![usize::MAX; n];
    fn mark_active(v: usize, slot: usize, stamp: &mut [usize], count: &mut [usize]) {
        if stamp[v] != slot {
            stamp[v] = slot;
            count[v] += 1;
        }
    }

    let mut lost = Vec::new();
    let mut tx_id = 0usize;
    let mut completion_time = sim.gossip_complete().then_some(sim.time());
    for (t, round) in schedule.rounds[..makespan].iter().enumerate() {
        // (msg, dest, sender, tx_id) of would-be first deliveries, spotted
        // from the hold sets *before* the step.
        let mut pending: Vec<(usize, usize, usize, usize)> = Vec::new();
        for tx in &round.transmissions {
            for &d in &tx.to {
                if d < n && (tx.msg as usize) < n_msgs && !sim.contains(d, tx.msg as usize) {
                    pending.push((tx.msg as usize, d, tx.from, tx_id));
                }
            }
            tx_id += 1;
        }
        let lost_before = lost.len();
        step(&mut sim, &flat, t, &mut lost)?;
        let round_lost = &lost[lost_before..];
        let mut deliveries = 0usize;
        for tx in &round.transmissions {
            sends[tx.from] += 1;
            mark_active(tx.from, t, &mut active_stamp, &mut active_rounds);
            for &d in &tx.to {
                let arrived = !round_lost
                    .iter()
                    .any(|l| l.to == d && l.from == tx.from && l.msg == tx.msg);
                if arrived {
                    deliveries += 1;
                    receives[d] += 1;
                    mark_active(d, t + 1, &mut active_stamp, &mut active_rounds);
                }
            }
        }
        let mut fresh = 0usize;
        for (msg, d, sender, id) in pending {
            if sim.contains(d, msg) {
                first[msg][d] = Some(Delivery {
                    round: t + 1,
                    sender,
                    tx_id: id,
                });
                first_receives[d] += 1;
                fresh += 1;
            }
        }
        rounds.push(RoundUtil {
            round: t,
            transmissions: round.transmissions.len(),
            deliveries,
            first_deliveries: fresh,
            receiver_utilization: deliveries as f64 / n as f64,
        });
        if completion_time.is_none() && sim.gossip_complete() {
            completion_time = Some(sim.time());
        }
    }
    let trace = ProvenanceTrace {
        n,
        n_msgs,
        origins: origins.to_vec(),
        makespan,
        first,
        rounds,
        sends,
        receives,
        first_receives,
        active_rounds,
    };
    Ok(Walk {
        sim,
        trace,
        lost,
        completion_time,
    })
}

/// Exports `schedule` as a Chrome Trace Event Format array: one thread
/// lane per processor, a complete event per multicast (1 logical round =
/// 1 ms of trace time), and an instant event per arrival. `tag_of(time,
/// sender)` may supply a generator-rule label (e.g. `U4+D3`) shown on the
/// slice name so traces explain *which protocol rule* caused each send.
pub fn schedule_chrome_trace(
    schedule: &Schedule,
    tag_of: &dyn Fn(usize, usize) -> Option<String>,
) -> ChromeTrace {
    let mut trace = ChromeTrace::new();
    trace.process_name(0, "schedule (logical rounds)");
    for p in 0..schedule.n {
        trace.thread_name(0, p as u64, &format!("P{p}"));
    }
    for (t, tx) in schedule.iter() {
        let ts = t as f64 * ChromeTrace::ROUND_US;
        let name = match tag_of(t, tx.from) {
            Some(tag) => format!("m{} [{tag}]", tx.msg),
            None => format!("m{}", tx.msg),
        };
        let args = vec![
            ("msg".to_string(), Value::from_u64(tx.msg as u64)),
            ("round".to_string(), Value::from_u64(t as u64)),
            ("fanout".to_string(), Value::from_u64(tx.to.len() as u64)),
            (
                "dests".to_string(),
                Value::Array(tx.to.iter().map(|&d| Value::from_u64(d as u64)).collect()),
            ),
        ];
        trace.complete(
            &name,
            "multicast",
            0,
            tx.from as u64,
            ts,
            ChromeTrace::ROUND_US,
            args,
        );
        for &d in &tx.to {
            trace.instant(
                &format!("recv m{}", tx.msg),
                "delivery",
                0,
                d as u64,
                ts + ChromeTrace::ROUND_US,
                vec![("from".to_string(), Value::from_u64(tx.from as u64))],
            );
        }
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::round::Transmission;

    fn ring(n: usize) -> Graph {
        Graph::from_edges(n, &(0..n).map(|i| (i, (i + 1) % n)).collect::<Vec<_>>()).unwrap()
    }

    /// The Fig 1 clockwise ring schedule: message m forwarded around.
    fn ring_schedule(n: usize) -> Schedule {
        let mut s = Schedule::new(n);
        for t in 0..n - 1 {
            for p in 0..n {
                let msg = ((p + n - t) % n) as u32;
                s.add_transmission(t, Transmission::unicast(msg, p, (p + 1) % n));
            }
        }
        s
    }

    fn identity(n: usize) -> Vec<usize> {
        (0..n).collect()
    }

    #[test]
    fn ring_dag_has_n_times_n_minus_1_edges() {
        let n = 6;
        let g = ring(n);
        let s = ring_schedule(n);
        let (o, tr) = trace_gossip(&g, &s, &identity(n), CommModel::Multicast).unwrap();
        assert!(o.complete);
        assert_eq!(tr.edge_count(), n * (n - 1));
        // Message 0 travels the whole ring: latency n - 1, path 0,1,...,n-1.
        assert_eq!(tr.message_latency(0), n - 1);
        let path = tr.critical_path(0);
        assert_eq!(
            path.iter().map(|s| s.vertex).collect::<Vec<_>>(),
            (0..n).collect::<Vec<_>>()
        );
        assert_eq!(path[0].round, 0);
        assert_eq!(path.last().unwrap().round, n - 1);
        // Rounds are strictly increasing along a causal chain.
        assert!(path.windows(2).all(|w| w[1].round > w[0].round));
    }

    #[test]
    fn first_delivery_identifies_sender_and_round() {
        let n = 4;
        let g = ring(n);
        let s = ring_schedule(n);
        let (_, tr) = trace_gossip(&g, &s, &identity(n), CommModel::Multicast).unwrap();
        // Message 2 reaches vertex 3 at round 1 from vertex 2.
        let d = tr.first_delivery(2, 3).unwrap();
        assert_eq!(d.round, 1);
        assert_eq!(d.sender, 2);
        // The origin has no first delivery.
        assert_eq!(tr.first_delivery(2, 2), None);
    }

    #[test]
    fn redundant_deliveries_do_not_add_edges() {
        // 0 sends m0 to 1 twice; only the first counts.
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        let mut s = Schedule::new(2);
        s.add_transmission(0, Transmission::unicast(0, 0, 1));
        s.add_transmission(1, Transmission::unicast(0, 0, 1));
        s.add_transmission(2, Transmission::unicast(1, 1, 0));
        let (o, tr) = trace_gossip(&g, &s, &identity(2), CommModel::Multicast).unwrap();
        assert!(o.complete);
        assert_eq!(tr.edge_count(), 2);
        assert_eq!(tr.first_delivery(0, 1).unwrap().round, 1);
        let util = tr.round_utilization();
        assert_eq!(util[0].first_deliveries, 1);
        assert_eq!(util[1].first_deliveries, 0); // redundant
        assert_eq!(util[1].deliveries, 1);
    }

    #[test]
    fn vertex_activity_and_slack() {
        let n = 4;
        let g = ring(n);
        let s = ring_schedule(n);
        let (_, tr) = trace_gossip(&g, &s, &identity(n), CommModel::Multicast).unwrap();
        let act = tr.vertex_activity();
        for a in &act {
            // Every vertex sends n-1 times and receives n-1 fresh messages.
            assert_eq!(a.sends, n - 1);
            assert_eq!(a.first_receives, n - 1);
            assert_eq!(a.informed_round, n - 1);
        }
        let slack = tr.slack_against(n + n / 2);
        assert!(slack.iter().all(|&s| s == n / 2 + 1));
    }

    #[test]
    fn provenance_artifact_shape() {
        let n = 4;
        let g = ring(n);
        let s = ring_schedule(n);
        let (_, tr) = trace_gossip(&g, &s, &identity(n), CommModel::Multicast).unwrap();
        let v = tr.to_value(Some(n + 1));
        assert_eq!(v["schema_version"].as_u64(), Some(1));
        assert_eq!(v["kind"].as_str(), Some("provenance"));
        assert_eq!(
            v["first_delivery_edges"].as_u64(),
            Some((n * (n - 1)) as u64)
        );
        assert_eq!(v["per_message"].as_array().map(Vec::len), Some(n));
        assert_eq!(v["bound"].as_u64(), Some((n + 1) as u64));
        assert_eq!(v["critical_path_rounds"].as_u64(), Some((n - 1) as u64));
    }

    #[test]
    fn chrome_trace_covers_every_transmission() {
        let n = 4;
        let s = ring_schedule(n);
        let trace = schedule_chrome_trace(&s, &|_, _| None);
        let v = trace.to_value();
        let events = v.as_array().unwrap();
        let completes = events
            .iter()
            .filter(|e| e["ph"].as_str() == Some("X"))
            .count();
        assert_eq!(completes, s.stats().transmissions);
        let instants = events
            .iter()
            .filter(|e| e["ph"].as_str() == Some("i"))
            .count();
        assert_eq!(instants, s.stats().deliveries);
        for e in events {
            for f in ["ph", "ts", "pid", "tid"] {
                assert!(e.get(f).is_some(), "missing {f}");
            }
        }
    }

    #[test]
    fn chrome_trace_applies_rule_tags() {
        let mut s = Schedule::new(2);
        s.add_transmission(0, Transmission::unicast(0, 0, 1));
        let trace = schedule_chrome_trace(&s, &|t, from| {
            (t == 0 && from == 0).then(|| "U3".to_string())
        });
        let v = trace.to_value();
        let slice = v
            .as_array()
            .unwrap()
            .iter()
            .find(|e| e["ph"].as_str() == Some("X"))
            .unwrap()
            .clone();
        assert_eq!(slice["name"].as_str(), Some("m0 [U3]"));
    }

    #[test]
    fn lossy_trace_leaves_gaps_for_lost_deliveries() {
        let n = 6;
        let g = ring(n);
        let s = ring_schedule(n);
        // Kill the link 0-1 for the whole run: nothing crosses it, so every
        // first-delivery chain through it is cut.
        let plan = FaultPlan::new(0).with_outage(0, 1, 0, n);
        let (out, tr, lost) =
            trace_gossip_lossy(&g, &s, &identity(n), CommModel::Multicast, &plan).unwrap();
        assert!(!out.complete_among_alive);
        assert!(!lost.is_empty());
        // The DAG has gaps: strictly fewer than n(n-1) edges, and vertex 1
        // never hears message 0 (its only route in this schedule is 0 -> 1).
        assert!(tr.edge_count() < n * (n - 1));
        assert_eq!(tr.first_delivery(0, 1), None);
        // A zero-fault plan reproduces the strict trace exactly.
        let (out2, tr2, lost2) = trace_gossip_lossy(
            &g,
            &s,
            &identity(n),
            CommModel::Multicast,
            &FaultPlan::none(),
        )
        .unwrap();
        assert!(out2.complete_among_alive && lost2.is_empty());
        assert_eq!(tr2.edge_count(), n * (n - 1));
    }

    #[test]
    fn invalid_schedule_propagates_error() {
        let g = ring(3);
        let mut s = Schedule::new(3);
        s.add_transmission(0, Transmission::unicast(1, 0, 1)); // 0 doesn't hold m1
        assert!(trace_gossip(&g, &s, &identity(3), CommModel::Multicast).is_err());
    }
}
