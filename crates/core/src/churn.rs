//! Churn-resilient execution: topology changes mid-run with incremental
//! schedule repair.
//!
//! The paper's `n + r` schedule is computed once against a static graph.
//! [`ChurnExecutor`] lifts that assumption: a [`ChurnPlan`] scripts edge
//! adds/removes, node departures/rejoins, and link flaps at absolute
//! rounds, and the executor applies them *while the schedule runs* by
//! composing [`TreeMaintainer`] (atomic topology patches, lazy replans)
//! with the recovery loop's residual planner
//! ([`crate::recovery::plan_completion`]). On each churn batch it:
//!
//! 1. **advances** execution to the event round through the bitset kernel
//!    (resumed at the segment's round across topology patches via
//!    [`SimKernel::with_holds`] — knowledge persists, the graph does not);
//! 2. **patches** the live graph atomically — pure edge batches go through
//!    [`TreeMaintainer::batch`], all-or-nothing; node events are applied
//!    raw and drop the maintainer until the network is whole again;
//! 3. **classifies** which in-flight schedule entries the change
//!    invalidated: deliveries over now-dead edges and entries sent by or
//!    addressed to departed nodes (each surfaces as a `loss` telemetry
//!    event with cause `churn_invalidated`). Every pending delivery was
//!    carried by the topology before the batch, so only entries at a
//!    vertex the batch touched are re-checked. Entries whose *upstream*
//!    feed was invalidated degrade at execution time into recorded
//!    `not_held` losses — the cascade is observable, not fatal;
//! 4. **repairs incrementally**: the surviving schedule is projected
//!    forward against the patched graph and only the residual it no
//!    longer covers is replanned as an appended tail — unless the
//!    spanning tree's **root component changed** (the root departed, or
//!    the present subgraph disconnected), in which case the remainder is
//!    replanned from scratch. Both costs are reported per batch
//!    ([`ChurnEpoch::repaired_entries`] vs
//!    [`ChurnEpoch::scratch_entries`]), which is the evidence for the
//!    "strictly fewer replanned entries" acceptance check. The scratch
//!    cost is counted by [`completion_deliveries`], not planned.
//!
//! After the last event a **predictive bound guard** runs: if the
//! projected finish overruns `n + r` of the *final* graph, the remainder
//! is swapped for a fresh full plan, which meets the guarantee by
//! construction (Theorem 1 applied to the final topology). A bounded
//! greedy completion loop then mops up anything a cascade still left
//! missing. The whole run is summarized in a [`ChurnReport`].

use crate::maintenance::{EdgeOp, TreeMaintainer};
use crate::pipeline::{GossipPlan, GossipPlanner};
use crate::recovery::{completion_deliveries, plan_completion, DEFAULT_MAX_EPOCHS};
use gossip_graph::{Graph, GraphError};
use gossip_model::{
    BitSet, ChurnEvent, ChurnOp, ChurnPlan, CommModel, FaultPlan, FlatSchedule, LostDelivery,
    ModelError, Schedule, SimKernel, Transmission,
};
use gossip_telemetry::profile::phase;
use gossip_telemetry::{NoopRecorder, Recorder, RecorderExt, Value};

/// Why a [`ChurnExecutor`] run failed. Topology changes themselves never
/// error — only a malformed plan, an unusable starting network, or a
/// repaired schedule that breaks model rules (a bug, surfaced loudly).
#[derive(Debug)]
pub enum ChurnError {
    /// The churn plan is malformed or inadmissible for the starting graph.
    Plan(String),
    /// Planning failed: the starting network is empty or disconnected.
    Graph(GraphError),
    /// Execution rejected a schedule (model-rule violation).
    Model(ModelError),
}

impl std::fmt::Display for ChurnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChurnError::Plan(reason) => write!(f, "invalid churn plan: {reason}"),
            ChurnError::Graph(e) => write!(f, "churn planning failed: {e}"),
            ChurnError::Model(e) => write!(f, "churn execution failed: {e}"),
        }
    }
}

impl std::error::Error for ChurnError {}

impl From<GraphError> for ChurnError {
    fn from(e: GraphError) -> ChurnError {
        ChurnError::Graph(e)
    }
}

impl From<ModelError> for ChurnError {
    fn from(e: ModelError) -> ChurnError {
        ChurnError::Model(e)
    }
}

/// How one churn batch was repaired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairDecision {
    /// Only the residual the surviving schedule no longer covers was
    /// replanned, appended as a tail.
    Incremental,
    /// The root component changed; the remainder was replanned from
    /// scratch.
    FullReplan,
}

impl RepairDecision {
    /// Short display label.
    pub fn label(&self) -> &'static str {
        match self {
            RepairDecision::Incremental => "incremental",
            RepairDecision::FullReplan => "full-replan",
        }
    }
}

/// What one churn batch (all events sharing a round) did to the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChurnEpoch {
    /// Absolute round the batch fired at.
    pub round: usize,
    /// Events in the batch.
    pub events: usize,
    /// In-flight schedule entries the batch modified or dropped.
    pub invalidated_entries: usize,
    /// Individual deliveries invalidated (dest slots over dead edges or
    /// touching departed nodes).
    pub invalidated_deliveries: usize,
    /// Whether the repair was incremental or a full replan.
    pub decision: RepairDecision,
    /// Deliveries the chosen repair strategy actually planned.
    pub repaired_entries: usize,
    /// Deliveries a replan-from-scratch (discard the surviving schedule,
    /// replan everything still missing) would have planned at this
    /// instant — the comparison baseline for the incremental claim,
    /// counted by [`completion_deliveries`].
    pub scratch_entries: usize,
}

/// The outcome of a [`ChurnExecutor`] run.
#[derive(Debug, Clone)]
pub struct ChurnReport {
    /// Number of processors.
    pub n: usize,
    /// Rounds of the original (pre-churn) schedule.
    pub baseline_rounds: usize,
    /// Total rounds executed.
    pub total_rounds: usize,
    /// Churn events applied.
    pub events_applied: usize,
    /// Per-batch accounting, in firing order.
    pub batches: Vec<ChurnEpoch>,
    /// Total in-flight entries invalidated across all batches.
    pub entries_invalidated: usize,
    /// Total deliveries invalidated across all batches.
    pub deliveries_invalidated: usize,
    /// Total deliveries planned by the chosen repair strategies.
    pub repaired_entries: usize,
    /// Total deliveries replan-from-scratch would have planned.
    pub scratch_entries: usize,
    /// Batches repaired incrementally.
    pub incremental_repairs: usize,
    /// Batches that fell back to a full replan.
    pub full_replans: usize,
    /// Whether the post-churn bound guard swapped in a fresh full plan.
    pub bound_fallback: bool,
    /// Deliveries the bound-guard fallback planned (0 when it never fired).
    pub fallback_entries: usize,
    /// Greedy completion epochs run after the schedule finished.
    pub completion_epochs: usize,
    /// Deliveries attempted by completion epochs.
    pub retransmissions: usize,
    /// The round the last churn event fired at (0 for a trivial plan).
    pub last_event_round: usize,
    /// Rounds executed after the last churn event.
    pub rounds_after_last_event: usize,
    /// Nodes present at the end.
    pub final_present: usize,
    /// Radius of the final present subgraph (`None` when it is
    /// disconnected).
    pub final_radius: Option<u32>,
    /// The paper guarantee on the final graph: `n_present + r_final`
    /// (`None` when disconnected at the end).
    pub final_bound: Option<usize>,
    /// Whether the run completed within [`ChurnReport::final_bound`]
    /// rounds of the last event (the proof-by-simulation acceptance
    /// check; `false` whenever the bound is undefined or the run did not
    /// recover).
    pub within_final_bound: bool,
    /// Whether every recoverable pair was delivered.
    pub recovered: bool,
    /// (message, vertex) pairs proven unreachable: the message is extinct
    /// among present nodes or they are cut off from every holder.
    pub unrecoverable: Vec<(u32, usize)>,
    /// Every executed transmission at its absolute round — for a trivial
    /// churn plan this is byte-identical to a plain
    /// [`crate::ResilientExecutor`] transcript of the same graph.
    pub transcript: Schedule,
    /// Cascade losses recorded during execution (`not_held` senders whose
    /// upstream feed was invalidated).
    pub lost_log: Vec<LostDelivery>,
}

impl ChurnReport {
    /// The structured churn artifact (`schema_version` 1, `kind`
    /// `"churn"`).
    pub fn to_value(&self) -> Value {
        let batches: Vec<Value> = self
            .batches
            .iter()
            .map(|b| {
                Value::Object(vec![
                    ("round".to_string(), Value::from_u64(b.round as u64)),
                    ("events".to_string(), Value::from_u64(b.events as u64)),
                    (
                        "invalidated_entries".to_string(),
                        Value::from_u64(b.invalidated_entries as u64),
                    ),
                    (
                        "invalidated_deliveries".to_string(),
                        Value::from_u64(b.invalidated_deliveries as u64),
                    ),
                    (
                        "decision".to_string(),
                        Value::String(b.decision.label().to_string()),
                    ),
                    (
                        "repaired_entries".to_string(),
                        Value::from_u64(b.repaired_entries as u64),
                    ),
                    (
                        "scratch_entries".to_string(),
                        Value::from_u64(b.scratch_entries as u64),
                    ),
                ])
            })
            .collect();
        let pair = |&(m, v): &(u32, usize)| {
            Value::Array(vec![Value::from_u64(m as u64), Value::from_u64(v as u64)])
        };
        Value::Object(vec![
            ("schema_version".to_string(), Value::from_u64(1)),
            ("kind".to_string(), Value::String("churn".to_string())),
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
                "events_applied".to_string(),
                Value::from_u64(self.events_applied as u64),
            ),
            (
                "entries_invalidated".to_string(),
                Value::from_u64(self.entries_invalidated as u64),
            ),
            (
                "deliveries_invalidated".to_string(),
                Value::from_u64(self.deliveries_invalidated as u64),
            ),
            (
                "repaired_entries".to_string(),
                Value::from_u64(self.repaired_entries as u64),
            ),
            (
                "scratch_entries".to_string(),
                Value::from_u64(self.scratch_entries as u64),
            ),
            (
                "incremental_repairs".to_string(),
                Value::from_u64(self.incremental_repairs as u64),
            ),
            (
                "full_replans".to_string(),
                Value::from_u64(self.full_replans as u64),
            ),
            (
                "bound_fallback".to_string(),
                Value::Bool(self.bound_fallback),
            ),
            (
                "fallback_entries".to_string(),
                Value::from_u64(self.fallback_entries as u64),
            ),
            (
                "completion_epochs".to_string(),
                Value::from_u64(self.completion_epochs as u64),
            ),
            (
                "retransmissions".to_string(),
                Value::from_u64(self.retransmissions as u64),
            ),
            (
                "last_event_round".to_string(),
                Value::from_u64(self.last_event_round as u64),
            ),
            (
                "rounds_after_last_event".to_string(),
                Value::from_u64(self.rounds_after_last_event as u64),
            ),
            (
                "final_present".to_string(),
                Value::from_u64(self.final_present as u64),
            ),
            (
                "final_radius".to_string(),
                self.final_radius
                    .map_or(Value::Null, |r| Value::from_u64(r as u64)),
            ),
            (
                "final_bound".to_string(),
                self.final_bound
                    .map_or(Value::Null, |b| Value::from_u64(b as u64)),
            ),
            (
                "within_final_bound".to_string(),
                Value::Bool(self.within_final_bound),
            ),
            ("recovered".to_string(), Value::Bool(self.recovered)),
            (
                "unrecoverable".to_string(),
                Value::Array(self.unrecoverable.iter().map(pair).collect()),
            ),
            ("batches".to_string(), Value::Array(batches)),
        ])
    }
}

/// Whether the present vertices form one connected component (departed
/// vertices are isolated by construction, so plain connectivity would
/// always fail once anyone left).
fn present_connected(graph: &Graph, present: &[bool]) -> bool {
    let n = graph.n();
    let total = present.iter().filter(|&&p| p).count();
    if total <= 1 {
        return true;
    }
    let start = present.iter().position(|&p| p).expect("total >= 1");
    let mut seen = vec![false; n];
    seen[start] = true;
    let mut queue = std::collections::VecDeque::from([start]);
    let mut reached = 1usize;
    while let Some(v) = queue.pop_front() {
        for u in graph.neighbors(v) {
            if present[u] && !seen[u] {
                seen[u] = true;
                reached += 1;
                queue.push_back(u);
            }
        }
    }
    reached == total
}

/// Dry-runs the remaining schedule (rounds `from..`) over the patched
/// graph and returns the hold sets it would leave behind — a delivery
/// lands when its sender holds the message, mirroring lossy execution.
/// Every pending delivery has a present sender and receiver and a live
/// edge, since invalidation dropped the rest, so only the hold is
/// checked; test builds assert the rest.
fn project_holds(
    graph: &Graph,
    present: &[bool],
    holds: &[BitSet],
    pending: &Schedule,
    from: usize,
) -> Vec<BitSet> {
    let _phase = phase("projection");
    let mut projected = holds.to_vec();
    for round in pending.rounds.iter().skip(from) {
        for tx in &round.transmissions {
            debug_assert!(
                present[tx.from]
                    && tx
                        .to
                        .iter()
                        .all(|&d| present[d] && graph.has_edge(tx.from, d)),
                "pending entry {tx:?} is not carried by the live topology"
            );
            let m = tx.msg as usize;
            if !projected[tx.from].contains(m) {
                continue;
            }
            for &d in &tx.to {
                projected[d].insert(m);
            }
        }
    }
    projected
}

/// Missing (message, vertex) pairs among present vertices.
fn missing_among(present: &[bool], holds: &[BitSet], n_msgs: usize) -> usize {
    present
        .iter()
        .zip(holds)
        .filter(|(&p, _)| p)
        .map(|(_, h)| n_msgs - h.len())
        .sum()
}

/// Applies a churn batch to a raw graph + presence mask (the path for
/// batches the [`TreeMaintainer`] cannot hold: node events, or a network
/// churn has disconnected).
fn apply_batch_raw(
    graph: &Graph,
    present: &mut [bool],
    batch: &[ChurnEvent],
) -> Result<Graph, GraphError> {
    let n = graph.n();
    let mut edges: Vec<(usize, usize)> = graph.edges().collect();
    for e in batch {
        let (u, v) = (e.u as usize, e.v as usize);
        let key = (u.min(v), u.max(v));
        match e.op {
            ChurnOp::EdgeAdd => edges.push(key),
            ChurnOp::EdgeRemove => edges.retain(|&k| k != key),
            ChurnOp::NodeLeave => {
                present[u] = false;
                edges.retain(|&(a, b)| a != u && b != u);
            }
            ChurnOp::NodeJoin => present[u] = true,
            ChurnOp::LinkFlap => unreachable!("normalized events have no flaps"),
        }
    }
    Graph::from_edges(n, &edges)
}

/// Translates a fresh [`GossipPlan`]'s schedule (whose message labels
/// follow its own tree's origins) into the executor's original message
/// space, so the fallback full plan composes with accumulated knowledge.
fn remap_messages(fresh: &GossipPlan, origins: &[usize]) -> Schedule {
    let mut inv = vec![0u32; origins.len()];
    for (m, &p) in origins.iter().enumerate() {
        inv[p] = m as u32;
    }
    let mut out = Schedule::new(fresh.schedule.n);
    for (t, tx) in fresh.schedule.iter() {
        let ours = inv[fresh.origin_of_message[tx.msg as usize]];
        out.add_transmission(t, Transmission::new(ours, tx.from, tx.to.clone()));
    }
    out
}

/// Executes a gossip run while a [`ChurnPlan`] mutates the topology,
/// repairing the schedule incrementally (see the module docs for the
/// repair-vs-replan decision rule).
///
/// # Examples
///
/// ```
/// use gossip_core::ChurnExecutor;
/// use gossip_graph::Graph;
/// use gossip_model::{ChurnEvent, ChurnPlan};
///
/// let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]).unwrap();
/// // A chord appears at round 2; an original ring edge dies at round 4.
/// let churn = ChurnPlan::new(1)
///     .with_event(ChurnEvent::edge_add(2, 0, 3))
///     .with_event(ChurnEvent::edge_remove(4, 1, 2));
/// let report = ChurnExecutor::new(&g, &churn).run().unwrap();
/// assert!(report.recovered);
/// assert!(report.repaired_entries <= report.scratch_entries);
/// ```
pub struct ChurnExecutor<'a> {
    g: &'a Graph,
    churn: &'a ChurnPlan,
    model: CommModel,
    max_epochs: usize,
    recorder: &'a dyn Recorder,
}

impl<'a> ChurnExecutor<'a> {
    /// A churn executor for `churn` applied to a run on `g`, with the
    /// multicast model and the default completion-epoch budget.
    pub fn new(g: &'a Graph, churn: &'a ChurnPlan) -> ChurnExecutor<'a> {
        ChurnExecutor {
            g,
            churn,
            model: CommModel::Multicast,
            max_epochs: DEFAULT_MAX_EPOCHS,
            recorder: &NoopRecorder,
        }
    }

    /// Caps the number of greedy completion epochs run after the repaired
    /// schedule finishes.
    pub fn max_epochs(mut self, budget: usize) -> ChurnExecutor<'a> {
        self.max_epochs = budget;
        self
    }

    /// Streams telemetry into `recorder` (`churn/*` counters, `churn`
    /// events for every applied change, `loss` events with cause
    /// `churn_invalidated` for every invalidated delivery, and the usual
    /// per-round `exec/*` stream).
    pub fn recorder(mut self, recorder: &'a dyn Recorder) -> ChurnExecutor<'a> {
        self.recorder = recorder;
        self
    }

    /// Plans on the starting graph, then executes while applying the
    /// churn plan, repairing incrementally, and completing greedily.
    pub fn run(&self) -> Result<ChurnReport, ChurnError> {
        self.churn
            .validate_against(self.g)
            .map_err(ChurnError::Plan)?;
        let _span = self.recorder.span("churn");
        // Zero-delta touches so a live scrape sees the churn counter
        // family from round 0.
        self.recorder.counter("churn/events", 0);
        self.recorder.counter("churn/invalidated", 0);
        self.recorder.counter("churn/replanned", 0);

        let n = self.g.n();
        let setup = phase("setup");
        let mut maintainer = Some(TreeMaintainer::new(self.g.clone())?);
        let plan0 = maintainer.as_ref().expect("just built").plan();
        let origins = plan0.origin_of_message.clone();
        let mut pending = plan0.schedule.clone();
        let mut root = plan0.tree.root();
        let n_msgs = origins.len();
        let baseline_rounds = pending.makespan();
        pending.trim();

        let mut graph = self.g.clone();
        let mut present = vec![true; n];
        let mut holds: Vec<BitSet> = vec![BitSet::new(n_msgs); n];
        for (m, &p) in origins.iter().enumerate() {
            holds[p].insert(m);
        }
        let mut transcript = Schedule::new(n);
        let mut lost_log: Vec<LostDelivery> = Vec::new();
        let mut time = 0usize;

        // Group the normalized (flap-expanded, round-sorted) events into
        // per-round batches, applied atomically between rounds.
        let mut batches: Vec<(usize, Vec<ChurnEvent>)> = Vec::new();
        for e in self.churn.normalized_events() {
            match batches.last_mut() {
                Some((r, evs)) if *r == e.round as usize => evs.push(e),
                _ => batches.push((e.round as usize, vec![e])),
            }
        }

        drop(setup);

        let mut epochs: Vec<ChurnEpoch> = Vec::new();
        let mut entries_invalidated = 0usize;
        let mut deliveries_invalidated = 0usize;
        let mut repaired_total = 0usize;
        let mut scratch_total = 0usize;
        let mut incremental_repairs = 0usize;
        let mut full_replans = 0usize;

        for (te, batch) in &batches {
            let te = *te;
            time = self.advance(
                &graph,
                &mut holds,
                &mut pending,
                &mut transcript,
                &mut lost_log,
                time,
                te,
            )?;

            for e in batch {
                self.recorder.counter("churn/events", 1);
                self.recorder.event(
                    "churn",
                    &[
                        ("round", Value::from_u64(te as u64)),
                        ("op", Value::String(e.op.label().to_string())),
                        ("u", Value::from_u64(e.u as u64)),
                        ("v", Value::from_u64(e.v as u64)),
                    ],
                );
            }

            // --- patch the topology atomically
            let maintenance = phase("tree_maintenance");
            let edge_only = batch
                .iter()
                .all(|e| matches!(e.op, ChurnOp::EdgeAdd | ChurnOp::EdgeRemove));
            let mut root_departed = false;
            if edge_only && maintainer.is_some() {
                let ops: Vec<EdgeOp> = batch
                    .iter()
                    .map(|e| match e.op {
                        ChurnOp::EdgeAdd => EdgeOp::Insert(e.u as usize, e.v as usize),
                        ChurnOp::EdgeRemove => EdgeOp::Remove(e.u as usize, e.v as usize),
                        _ => unreachable!("edge_only batch"),
                    })
                    .collect();
                match maintainer.as_mut().expect("checked is_some").batch(&ops) {
                    Ok(_) => graph = maintainer.as_ref().expect("still some").graph().clone(),
                    Err(GraphError::Disconnected) => {
                        // The maintainer refuses to hold a disconnected
                        // network; track the graph raw until churn
                        // reconnects it.
                        maintainer = None;
                        graph = apply_batch_raw(&graph, &mut present, batch)?;
                    }
                    Err(e) => return Err(ChurnError::Graph(e)),
                }
            } else {
                maintainer = None;
                root_departed = batch
                    .iter()
                    .any(|e| e.op == ChurnOp::NodeLeave && e.u as usize == root);
                graph = apply_batch_raw(&graph, &mut present, batch)?;
            }
            let connected = present_connected(&graph, &present);
            drop(maintenance);

            // --- classify invalidated in-flight entries
            let (inv_e, inv_d) =
                self.invalidate_pending(&mut pending, time, &graph, &present, batch);
            entries_invalidated += inv_e;
            deliveries_invalidated += inv_d;

            // --- repair
            // The from-scratch baseline is counted, not planned; only a
            // full replan needs its schedule.
            let scratch = completion_deliveries(&graph, &holds, &present);
            let (decision, repaired) = if root_departed || !connected {
                // The root component changed: replan the world from
                // current knowledge, discarding the surviving schedule.
                let scratch_plan = plan_completion(&graph, &holds, &present);
                debug_assert_eq!(scratch_plan.schedule.stats().deliveries, scratch);
                for round in pending.rounds.iter_mut().skip(time) {
                    round.transmissions.clear();
                }
                #[cfg(debug_assertions)]
                self.check_splice(&graph, &holds, &scratch_plan.schedule, "full-replan");
                pending.merge_at(time, scratch_plan.schedule);
                full_replans += 1;
                if !present.iter().all(|&p| p) {
                    root = present.iter().position(|&p| p).unwrap_or(root);
                }
                if connected && present.iter().all(|&p| p) && maintainer.is_none() {
                    // The network is whole again: re-adopt lazy
                    // maintenance (and its root) for future batches.
                    let _phase = phase("tree_maintenance");
                    maintainer = TreeMaintainer::new(graph.clone()).ok();
                    if let Some(m) = &maintainer {
                        root = m.tree().root();
                    }
                }
                (RepairDecision::FullReplan, scratch)
            } else {
                // Incremental: keep every surviving entry, project what
                // they still deliver on the patched graph, and plan only
                // the uncovered residual as a tail.
                let projected = project_holds(&graph, &present, &holds, &pending, time);
                let completion = plan_completion(&graph, &projected, &present);
                let tail = completion.schedule.stats().deliveries;
                if tail > 0 {
                    #[cfg(debug_assertions)]
                    self.check_splice(&graph, &projected, &completion.schedule, "incremental");
                    let start = pending.makespan().max(time);
                    pending.merge_at(start, completion.schedule);
                }
                incremental_repairs += 1;
                (RepairDecision::Incremental, tail)
            };
            repaired_total += repaired;
            scratch_total += scratch;
            self.recorder.counter("churn/replanned", repaired as u64);
            self.recorder
                .gauge("churn/epoch_current", (epochs.len() + 1) as f64);
            epochs.push(ChurnEpoch {
                round: te,
                events: batch.len(),
                invalidated_entries: inv_e,
                invalidated_deliveries: inv_d,
                decision,
                repaired_entries: repaired,
                scratch_entries: scratch,
            });
        }

        // --- post-churn bound guard
        let guard = phase("bound_guard");
        let last_event_round = batches.last().map_or(0, |(r, _)| *r);
        let final_present = present.iter().filter(|&&p| p).count();
        let final_radius = match &maintainer {
            // The maintainer holds the final graph, whole, and its tree's
            // height is that graph's radius after every commit.
            Some(m) if final_present == n => Some(m.tree().height()),
            _ if !present_connected(&graph, &present) => None,
            _ if final_present == n => gossip_graph::radius(&graph).ok(),
            _ if final_present <= 1 => Some(0),
            _ => {
                let keep: Vec<usize> = (0..n).filter(|&v| present[v]).collect();
                graph
                    .induced_subgraph(&keep)
                    .ok()
                    .and_then(|sub| gossip_graph::radius(&sub).ok())
            }
        };
        let final_bound = final_radius.map(|r| {
            if final_present <= 1 {
                0
            } else {
                final_present + r as usize
            }
        });
        let mut bound_fallback = false;
        let mut fallback_entries = 0usize;
        if let (false, Some(bound), true) =
            (self.churn.is_trivial(), final_bound, final_present == n)
        {
            let projected = project_holds(&graph, &present, &holds, &pending, time);
            let projected_missing = missing_among(&present, &projected, n_msgs);
            let projected_end = pending.makespan().max(time);
            if projected_missing > 0 || projected_end.saturating_sub(last_event_round) > bound {
                // The repaired schedule would overrun (or undershoot) the
                // final graph's n + r guarantee; a fresh full plan meets
                // it by construction, because origins still hold their
                // own messages.
                let mut planned = None;
                let fresh = match &maintainer {
                    Some(m) => m.plan(),
                    None => planned.insert(GossipPlanner::new(&graph)?.plan()?),
                };
                let remapped = remap_messages(fresh, &origins);
                for round in pending.rounds.iter_mut().skip(time) {
                    round.transmissions.clear();
                }
                fallback_entries = remapped.stats().deliveries;
                #[cfg(debug_assertions)]
                self.check_splice(&graph, &holds, &remapped, "fallback");
                pending.merge_at(time, remapped);
                self.recorder
                    .counter("churn/replanned", fallback_entries as u64);
                bound_fallback = true;
            }
        }
        drop(guard);

        // --- run the remainder
        let end = pending.makespan().max(time);
        time = self.advance(
            &graph,
            &mut holds,
            &mut pending,
            &mut transcript,
            &mut lost_log,
            time,
            end,
        )?;

        // --- greedy completion epochs for anything a cascade left behind
        let mut completion_epochs = 0usize;
        let mut retransmissions = 0usize;
        let mut unrecoverable: Vec<(u32, usize)> = Vec::new();
        for _ in 0..self.max_epochs {
            if missing_among(&present, &holds, n_msgs) == 0 {
                break;
            }
            let completion = plan_completion(&graph, &holds, &present);
            if completion.schedule.makespan() == 0 {
                unrecoverable = completion.abandoned;
                break;
            }
            retransmissions += completion.schedule.stats().deliveries;
            #[cfg(debug_assertions)]
            self.check_splice(&graph, &holds, &completion.schedule, "completion");
            pending.merge_at(time, completion.schedule);
            let end = pending.makespan().max(time);
            time = self.advance(
                &graph,
                &mut holds,
                &mut pending,
                &mut transcript,
                &mut lost_log,
                time,
                end,
            )?;
            completion_epochs += 1;
        }

        let missing = missing_among(&present, &holds, n_msgs);
        let recovered = missing == unrecoverable.len();
        let rounds_after_last_event = time.saturating_sub(last_event_round);
        let within_final_bound =
            recovered && final_bound.is_some_and(|b| rounds_after_last_event <= b);
        self.recorder.gauge("churn/total_rounds", time as f64);

        Ok(ChurnReport {
            n,
            baseline_rounds,
            total_rounds: time,
            events_applied: batches.iter().map(|(_, b)| b.len()).sum(),
            batches: epochs,
            entries_invalidated,
            deliveries_invalidated,
            repaired_entries: repaired_total,
            scratch_entries: scratch_total,
            incremental_repairs,
            full_replans,
            bound_fallback,
            fallback_entries,
            completion_epochs,
            retransmissions,
            last_event_round,
            rounds_after_last_event,
            final_present,
            final_radius,
            final_bound,
            within_final_bound,
            recovered,
            unrecoverable,
            transcript,
            lost_log,
        })
    }

    /// Runs schedule rounds `[from, to)` on the current graph, with the
    /// same per-round telemetry stream as the kernel's recorded runners.
    /// The rounds move out of `pending` first and replay once, on a kernel
    /// rebuilt from the live hold sets (the graph may have changed) with
    /// its clock at `from`, so every event and flight record carries the
    /// **absolute** round index. Executed entries land in `transcript`.
    /// Returns the new absolute time (`to`), jumping any unscheduled
    /// stretch.
    #[allow(clippy::too_many_arguments)]
    fn advance(
        &self,
        graph: &Graph,
        holds: &mut Vec<BitSet>,
        pending: &mut Schedule,
        transcript: &mut Schedule,
        lost_log: &mut Vec<LostDelivery>,
        from: usize,
        to: usize,
    ) -> Result<usize, ChurnError> {
        let _phase = phase("kernel_replay");
        let exec_end = pending.makespan().min(to);
        if exec_end <= from {
            return Ok(to.max(from));
        }
        let mut executed = Schedule::new(pending.n);
        executed.rounds = pending.rounds[from..exec_end]
            .iter_mut()
            .map(std::mem::take)
            .collect();
        // The segment's trailing empty rounds stay in the flatten, which
        // `FlatSchedule::from_schedule` would trim: each still emits its
        // `round_start` / `round_end`.
        let flat = FlatSchedule::from_rounds(executed.n, &executed.rounds);
        let mut sim = SimKernel::with_holds(graph, self.model, holds, from)?;
        // Lossy stepping (under the empty fault plan) instead of strict:
        // entries whose upstream feed was invalidated by churn degrade
        // into recorded `not_held` losses the completion loop covers,
        // rather than aborting the run.
        sim.run_lossy(&flat, &FaultPlan::none(), lost_log, self.recorder)?;
        *holds = sim.hold_bitsets();
        transcript.merge_at(from, executed);
        Ok(to)
    }

    /// Replays `splice` strictly from `planned_from`, the holds it was
    /// planned from, before it merges into the pending schedule; panics
    /// naming the splice `kind` if any send is unheld or illegal. Execution
    /// itself is lossy and would only book such a send as a `not_held`
    /// loss, so this is what catches a splice planned wrongly. Test builds
    /// only: release builds compile it out.
    #[cfg(debug_assertions)]
    fn check_splice(&self, graph: &Graph, planned_from: &[BitSet], splice: &Schedule, kind: &str) {
        let replay = SimKernel::with_holds(graph, self.model, planned_from, 0)
            .and_then(|mut sim| sim.run(&FlatSchedule::from_schedule(splice)));
        if let Err(e) = replay {
            panic!("{kind} splice fails a strict replay: {e}");
        }
    }

    /// Drops every pending delivery the batch broke — dead edge, departed
    /// sender, departed receiver — emitting a `loss` event with cause
    /// `churn_invalidated` per delivery. Returns (entries touched,
    /// deliveries dropped).
    ///
    /// Every pending delivery was carried by the graph and present set
    /// from before the batch: each splice is planned on the live topology,
    /// and each batch drops what it breaks. So a delivery can break only
    /// at a vertex the batch touched — an end of an `EdgeRemove`, or a
    /// `NodeLeave` — and only a transmission whose sender is touched, or,
    /// when the batch has a leave, one of whose receivers is, is
    /// re-checked.
    fn invalidate_pending(
        &self,
        pending: &mut Schedule,
        time: usize,
        graph: &Graph,
        present: &[bool],
        batch: &[ChurnEvent],
    ) -> (usize, usize) {
        let _phase = phase("invalidation");
        // Both ends of a removal; a leave's node is its `u`.
        let mut touched = vec![false; graph.n()];
        let mut leaves = false;
        for e in batch {
            match e.op {
                ChurnOp::EdgeRemove => touched[e.v as usize] = true,
                ChurnOp::NodeLeave => leaves = true,
                _ => continue,
            }
            touched[e.u as usize] = true;
        }
        if !touched.contains(&true) {
            return (0, 0);
        }
        let mut entries = 0usize;
        let mut deliveries = 0usize;
        let mut dropped: Vec<usize> = Vec::new();
        for (r, round) in pending.rounds.iter_mut().enumerate().skip(time) {
            round.transmissions.retain_mut(|tx| {
                let from = tx.from;
                let hit = touched[from] || (leaves && tx.to.iter().any(|&d| touched[d]));
                if !hit {
                    return true;
                }
                dropped.clear();
                tx.to.retain(|&d| {
                    let ok = present[from] && present[d] && graph.has_edge(from, d);
                    if !ok {
                        dropped.push(d);
                    }
                    ok
                });
                if !dropped.is_empty() {
                    entries += 1;
                    deliveries += dropped.len();
                    self.record_invalidated(r, tx, &dropped);
                }
                !tx.to.is_empty()
            });
        }
        (entries, deliveries)
    }

    /// The telemetry of one entry's invalidated deliveries `dropped`: the
    /// `churn/invalidated` counter, then a `loss` event per delivery.
    fn record_invalidated(&self, round: usize, tx: &Transmission, dropped: &[usize]) {
        self.recorder
            .counter("churn/invalidated", dropped.len() as u64);
        for &d in dropped {
            self.recorder.event(
                "loss",
                &[
                    ("round", Value::from_u64(round as u64)),
                    ("msg", Value::from_u64(tx.msg as u64)),
                    ("from", Value::from_u64(tx.from as u64)),
                    ("to", Value::from_u64(d as u64)),
                    ("cause", Value::String("churn_invalidated".to_string())),
                ],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::ResilientExecutor;

    fn ring(n: usize) -> Graph {
        Graph::from_edges(n, &(0..n).map(|i| (i, (i + 1) % n)).collect::<Vec<_>>()).unwrap()
    }

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

    /// The full walk [`ChurnExecutor::invalidate_pending`] replaced, kept
    /// as its oracle: every pending delivery is re-checked against the
    /// patched topology, whatever the batch touched.
    fn invalidate_pending_full(
        exec: &ChurnExecutor,
        pending: &mut Schedule,
        time: usize,
        graph: &Graph,
        present: &[bool],
    ) -> (usize, usize) {
        let mut entries = 0usize;
        let mut deliveries = 0usize;
        for (r, round) in pending.rounds.iter_mut().enumerate().skip(time) {
            let txs = std::mem::take(&mut round.transmissions);
            for mut tx in txs {
                let from = tx.from;
                let mut dropped: Vec<usize> = Vec::new();
                if present[from] {
                    tx.to.retain(|&d| {
                        let ok = present[d] && graph.has_edge(from, d);
                        if !ok {
                            dropped.push(d);
                        }
                        ok
                    });
                } else {
                    dropped = std::mem::take(&mut tx.to);
                }
                if !dropped.is_empty() {
                    entries += 1;
                    deliveries += dropped.len();
                    exec.record_invalidated(r, &tx, &dropped);
                }
                if !tx.to.is_empty() {
                    round.transmissions.push(tx);
                }
            }
        }
        (entries, deliveries)
    }

    /// A random batch on `graph` with presence `present`, valid in order,
    /// of the kind `kind` picks: edge removals, edge adds, one edge removed
    /// and re-added, node leaves and joins (a join re-attaches with an
    /// add), or a mix, each op of a random kind.
    fn random_batch(
        graph: &Graph,
        present: &[bool],
        kind: usize,
        rng: &mut rand::rngs::SmallRng,
    ) -> Vec<ChurnEvent> {
        use rand::Rng;
        let n = graph.n();
        let mut edges: Vec<(usize, usize)> = graph.edges().collect();
        let mut present = present.to_vec();
        let mut batch = Vec::new();
        for _ in 0..rng.gen_range(1..4usize) {
            let kind = if kind == 4 {
                rng.gen_range(0..4usize)
            } else {
                kind
            };
            let absent: Vec<(usize, usize)> = (0..n)
                .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
                .filter(|&(u, v)| present[u] && present[v] && !edges.contains(&(u, v)))
                .collect();
            match kind {
                0 | 2 if !edges.is_empty() => {
                    let (u, v) = edges.swap_remove(rng.gen_range(0..edges.len()));
                    batch.push(ChurnEvent::edge_remove(0, u, v));
                    if kind == 2 {
                        edges.push((u, v));
                        batch.push(ChurnEvent::edge_add(0, v, u));
                    }
                }
                1 if !absent.is_empty() => {
                    let (u, v) = absent[rng.gen_range(0..absent.len())];
                    edges.push((u, v));
                    batch.push(ChurnEvent::edge_add(0, u, v));
                }
                3 => {
                    let v = rng.gen_range(0..n);
                    if present[v] {
                        present[v] = false;
                        edges.retain(|&(a, b)| a != v && b != v);
                        batch.push(ChurnEvent::node_leave(0, v));
                    } else {
                        present[v] = true;
                        batch.push(ChurnEvent::node_join(0, v));
                        if let Some(u) = (0..n).find(|&u| u != v && present[u]) {
                            edges.push((u.min(v), u.max(v)));
                            batch.push(ChurnEvent::edge_add(0, v, u));
                        }
                    }
                }
                _ => {}
            }
        }
        batch
    }

    #[test]
    fn targeted_invalidation_matches_the_full_walk() {
        use gossip_telemetry::{MetricsRecorder, SharedBuffer};
        use rand::{Rng, SeedableRng};
        let none = ChurnPlan::none();
        let mut dropped_by_kind = [0usize; 5];
        for seed in 0..400u64 {
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            let n = rng.gen_range(3..20usize);
            let p = [0.1, 0.25, 0.5][rng.gen_range(0..3usize)];
            let g = gossip_workloads::random_connected(n, p, rng.gen());
            // The topology before the batch, some vertices already gone.
            let mut present = vec![true; n];
            let gone: Vec<ChurnEvent> = (0..rng.gen_range(0..3usize))
                .map(|_| ChurnEvent::node_leave(0, rng.gen_range(0..n)))
                .collect();
            let mut before = g.clone();
            for e in gone {
                if present[e.u as usize] {
                    before = apply_batch_raw(&before, &mut present, &[e]).unwrap();
                }
            }
            // Pending entries at rounds `time..`, every delivery carried by
            // that topology; rounds before `time` have already run.
            let time = rng.gen_range(0..4usize);
            let mut pending = Schedule::new(n);
            for t in 0..time + rng.gen_range(1..8usize) {
                for from in 0..n {
                    if !present[from] || rng.gen_bool(0.5) {
                        continue;
                    }
                    let to: Vec<usize> = before
                        .neighbors(from)
                        .filter(|&d| present[d] && rng.gen_bool(0.6))
                        .collect();
                    if !to.is_empty() {
                        let msg = rng.gen_range(0..n as u32);
                        pending.add_transmission(t, Transmission::new(msg, from, to));
                    }
                }
            }
            let kind = rng.gen_range(0..5usize);
            let batch = random_batch(&before, &present, kind, &mut rng);
            let graph = apply_batch_raw(&before, &mut present, &batch).unwrap();

            let walk = |full: bool| {
                let events = SharedBuffer::new();
                let rec = MetricsRecorder::with_sink(Box::new(events.clone()));
                let exec = ChurnExecutor::new(&g, &none).recorder(&rec);
                let mut left = pending.clone();
                let counts = if full {
                    invalidate_pending_full(&exec, &mut left, time, &graph, &present)
                } else {
                    exec.invalidate_pending(&mut left, time, &graph, &present, &batch)
                };
                let losses: Vec<String> = events
                    .lines()
                    .iter()
                    .filter(|e| e["event"].as_str() == Some("loss"))
                    .map(|e| {
                        format!(
                            "{:?} {:?} {:?} {:?}",
                            e["round"], e["msg"], e["from"], e["to"]
                        )
                    })
                    .collect();
                (left, counts, rec.counter_value("churn/invalidated"), losses)
            };
            let (targeted, oracle) = (walk(false), walk(true));
            assert_eq!(targeted, oracle, "seed {seed}, batch {batch:?}");
            dropped_by_kind[kind] += oracle.1 .1;
        }
        // Every kind that can break a delivery did break some.
        let [removes, adds, readds, nodes, mixed] = dropped_by_kind;
        assert!(removes > 0 && nodes > 0 && mixed > 0, "{dropped_by_kind:?}");
        assert_eq!(adds + readds, 0, "adds and re-adds break nothing");
    }

    #[test]
    fn trivial_plan_matches_resilient_executor_byte_for_byte() {
        let g = petersen();
        let churn = ChurnPlan::none();
        let report = ChurnExecutor::new(&g, &churn).run().unwrap();
        let plan = GossipPlanner::new(&g).unwrap().plan().unwrap();
        let faults = FaultPlan::none();
        let baseline = ResilientExecutor::new(&g, &plan.schedule, &plan.origin_of_message, &faults)
            .run()
            .unwrap();
        assert!(report.recovered);
        assert_eq!(report.transcript, baseline.transcript);
        assert_eq!(report.total_rounds, baseline.total_rounds);
        assert_eq!(report.events_applied, 0);
        assert_eq!(report.entries_invalidated, 0);
        assert_eq!(report.repaired_entries, 0);
        assert!(report.within_final_bound);
        assert!(!report.bound_fallback);
    }

    #[test]
    fn mid_run_edge_removal_heals_incrementally() {
        let g = ring(8);
        // Kill a ring edge a third of the way in; the generator promises
        // connectivity, and the repair must be incremental (root intact).
        let churn = ChurnPlan::new(0).with_event(ChurnEvent::edge_remove(3, 2, 3));
        let report = ChurnExecutor::new(&g, &churn).run().unwrap();
        assert!(report.recovered, "{report:?}");
        assert!(report.unrecoverable.is_empty());
        assert_eq!(report.full_replans, 0);
        assert_eq!(report.incremental_repairs, 1);
        assert!(report.within_final_bound, "{report:?}");
    }

    #[test]
    fn generated_churn_heals_with_fewer_entries_than_scratch() {
        let g = petersen();
        let churn = ChurnPlan::generate(&g, 0.4, 11, 10);
        assert!(!churn.is_trivial());
        let report = ChurnExecutor::new(&g, &churn).run().unwrap();
        assert!(report.recovered, "{report:?}");
        assert!(report.unrecoverable.is_empty());
        assert!(
            report.repaired_entries < report.scratch_entries,
            "incremental {} vs scratch {}",
            report.repaired_entries,
            report.scratch_entries
        );
        assert!(report.within_final_bound, "{report:?}");
    }

    #[test]
    fn node_departure_of_root_forces_full_replan() {
        let g = petersen();
        let plan0 = GossipPlanner::new(&g).unwrap().plan().unwrap();
        let root = plan0.tree.root();
        let churn = ChurnPlan::new(0).with_event(ChurnEvent::node_leave(2, root));
        let report = ChurnExecutor::new(&g, &churn).run().unwrap();
        assert_eq!(report.full_replans, 1);
        assert_eq!(report.final_present, 9);
        // The root's own message survives only if it was relayed before
        // round 2; either way every recoverable pair completes.
        assert!(report.recovered, "{report:?}");
    }

    #[test]
    fn departed_nodes_orphan_their_unsent_messages() {
        // A star: the center departs immediately, before relaying
        // anything. Every leaf keeps only its own message; the center's
        // message (and everyone else's, for the leaves) is unreachable.
        let star = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]).unwrap();
        let churn = ChurnPlan::new(0).with_event(ChurnEvent::node_leave(1, 0));
        let report = ChurnExecutor::new(&star, &churn).run().unwrap();
        // Every *recoverable* pair completes (there are none left to
        // move), but a non-empty set is proven unreachable and the final
        // graph is disconnected, so the n + r bound is undefined.
        assert!(report.recovered);
        assert!(!report.unrecoverable.is_empty());
        assert_eq!(report.final_radius, None);
        assert_eq!(report.final_bound, None);
        assert!(!report.within_final_bound);
    }

    #[test]
    fn flap_heals_and_reports_batches() {
        let g = ring(6);
        let churn = ChurnPlan::new(0).with_event(ChurnEvent::link_flap(2, 1, 2, 2));
        let report = ChurnExecutor::new(&g, &churn).run().unwrap();
        assert!(report.recovered, "{report:?}");
        assert_eq!(report.events_applied, 2, "flap normalizes to remove+add");
        assert_eq!(report.batches.len(), 2);
        assert!(report.within_final_bound, "{report:?}");
    }

    #[test]
    fn leave_then_rejoin_completes_for_everyone_present_at_end() {
        let g = petersen();
        let plan0 = GossipPlanner::new(&g).unwrap().plan().unwrap();
        // A non-root leaf departs at round 1 and rejoins (same edges) at
        // round 4: it missed the early rounds, so the completion loop
        // must backfill it.
        let root = plan0.tree.root();
        let v = (0..10).find(|&v| v != root).unwrap();
        let nbrs: Vec<usize> = g.neighbors(v).collect();
        let mut churn = ChurnPlan::new(0)
            .with_event(ChurnEvent::node_leave(1, v))
            .with_event(ChurnEvent::node_join(4, v));
        for &u in &nbrs {
            churn = churn.with_event(ChurnEvent::edge_add(4, v, u));
        }
        let report = ChurnExecutor::new(&g, &churn).run().unwrap();
        assert!(report.recovered, "{report:?}");
        assert_eq!(report.final_present, 10);
    }

    #[test]
    fn transcript_replays_to_completion_on_final_graph_when_static_suffices() {
        // When churn only *adds* edges, the final graph carries every
        // transcript entry: replaying the transcript on it must complete.
        let g = ring(8);
        let churn = ChurnPlan::new(0)
            .with_event(ChurnEvent::edge_add(2, 0, 4))
            .with_event(ChurnEvent::edge_add(5, 1, 5));
        let report = ChurnExecutor::new(&g, &churn).run().unwrap();
        assert!(report.recovered);
        let final_graph = g.with_edge(0, 4).unwrap().with_edge(1, 5).unwrap();
        let plan0 = GossipPlanner::new(&g).unwrap().plan().unwrap();
        let mut sim =
            SimKernel::new(&final_graph, CommModel::Multicast, &plan0.origin_of_message).unwrap();
        let mut lost = Vec::new();
        sim.run_lossy(
            &FlatSchedule::from_schedule(&report.transcript),
            &FaultPlan::none(),
            &mut lost,
            &NoopRecorder,
        )
        .unwrap();
        assert!(sim.gossip_complete());
    }

    #[test]
    fn report_value_shape() {
        let g = ring(6);
        let churn = ChurnPlan::new(3).with_event(ChurnEvent::edge_remove(2, 0, 1));
        let report = ChurnExecutor::new(&g, &churn).run().unwrap();
        let v = report.to_value();
        let get = |key: &str| match &v {
            Value::Object(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.clone())
                .unwrap_or_else(|| panic!("missing {key}")),
            _ => panic!("not an object"),
        };
        assert_eq!(get("kind"), Value::String("churn".to_string()));
        assert_eq!(get("schema_version"), Value::from_u64(1));
        assert_eq!(get("events_applied"), Value::from_u64(1));
        assert!(matches!(get("batches"), Value::Array(b) if b.len() == 1));
        assert!(matches!(get("within_final_bound"), Value::Bool(_)));
    }

    #[test]
    fn telemetry_counters_flow() {
        use gossip_telemetry::MetricsRecorder;
        let g = ring(8);
        let churn = ChurnPlan::new(0).with_event(ChurnEvent::edge_remove(3, 2, 3));
        let rec = MetricsRecorder::new();
        let report = ChurnExecutor::new(&g, &churn).recorder(&rec).run().unwrap();
        assert!(report.recovered);
        assert_eq!(rec.counter_value("churn/events"), 1);
        assert_eq!(
            rec.counter_value("churn/invalidated"),
            report.deliveries_invalidated as u64
        );
        assert_eq!(
            rec.counter_value("churn/replanned"),
            (report.repaired_entries + report.fallback_entries) as u64
        );
        assert!(rec.events_emitted() > 0);
    }

    #[test]
    fn a_segment_ending_in_empty_rounds_still_steps_them() {
        use gossip_telemetry::{MetricsRecorder, SharedBuffer};
        // Vertex 0 leaves at round 1, which empties the later rounds that
        // only fed it, so the segment up to the chord at round 4 ends in
        // an empty round. That round still runs and emits its
        // `round_start` / `round_end`.
        let path = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let churn = ChurnPlan::new(0)
            .with_event(ChurnEvent::node_leave(1, 0))
            .with_event(ChurnEvent::edge_add(4, 1, 3));
        let events = SharedBuffer::new();
        let rec = MetricsRecorder::with_sink(Box::new(events.clone()));
        let report = ChurnExecutor::new(&path, &churn)
            .recorder(&rec)
            .run()
            .unwrap();
        assert!(report.recovered, "{report:?}");
        let rounds = |name: &str| -> Vec<u64> {
            let lines = events.lines();
            let named = lines.iter().filter(|e| e["event"].as_str() == Some(name));
            named.map(|e| e["round"].as_u64().unwrap()).collect()
        };
        assert!(report.transcript.rounds[3].transmissions.is_empty());
        let every: Vec<u64> = (0..report.total_rounds as u64).collect();
        assert_eq!(every.len(), 6);
        assert_eq!(rounds("round_start"), every);
        assert_eq!(rounds("round_end"), every);
    }
}
