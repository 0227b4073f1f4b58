//! Topology churn plans: seeded, schema-versioned scripts of mid-run
//! network changes.
//!
//! A [`ChurnPlan`] is the topology counterpart of [`crate::FaultPlan`]: a
//! deterministic, serializable description of *when the network itself
//! changes* — edges appearing and disappearing, nodes leaving and
//! rejoining, links flapping down and back up — each event stamped with
//! the **absolute round** it takes effect at (the event fires before that
//! round's sends). The plan is pure data; `gossip_core`'s `ChurnExecutor`
//! applies it mid-run, invalidates the schedule entries the change killed,
//! and repairs incrementally.
//!
//! Two ways to get a plan:
//!
//! - [`ChurnPlan::generate`] draws a seeded, **connectivity-preserving**
//!   event stream (edge adds, permanent removals of non-bridge edges, and
//!   link flaps) at a per-round rate — the `--churn-rate` path, and the
//!   regime the ad-hoc radio setting implies.
//! - Hand-written plans (builders or a JSON file via `--churn-plan`) may
//!   additionally script node departures and rejoins; admissibility
//!   against a concrete starting graph is checked by
//!   [`ChurnPlan::validate_against`].

use gossip_graph::{is_connected, Graph};
use serde::{Deserialize, Serialize};

/// Version stamp for serialized churn plans.
pub const CHURN_PLAN_SCHEMA_VERSION: u64 = 1;

/// The last round a churn plan may name, as an event's round or a link
/// flap's return. Churn transcripts take about 50 bytes a round up to the
/// last event, so this caps a plan's cost near 55 MiB (C_8 peaks there);
/// generated plans stay within the base makespan, far below it.
pub const MAX_CHURN_ROUND: u32 = 1 << 20;

/// What one churn event does to the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChurnOp {
    /// A new edge `u — v` appears.
    EdgeAdd,
    /// Edge `u — v` disappears permanently.
    EdgeRemove,
    /// Node `u` departs: every edge incident to it vanishes with it. The
    /// node keeps its state (it is the same processor) but neither sends
    /// nor receives while away.
    NodeLeave,
    /// Node `u` returns, initially isolated — re-attach it with
    /// [`ChurnOp::EdgeAdd`] events listed *after* the join in the same
    /// round.
    NodeJoin,
    /// Edge `u — v` goes down for `down_for` rounds, then comes back — a
    /// link flap, normalized into a remove/add pair by
    /// [`ChurnPlan::normalized_events`].
    LinkFlap,
}

impl ChurnOp {
    /// Short display label (also the event label threaded into telemetry
    /// and flight-recorder CHURN records).
    pub fn label(&self) -> &'static str {
        match self {
            ChurnOp::EdgeAdd => "edge_add",
            ChurnOp::EdgeRemove => "edge_remove",
            ChurnOp::NodeLeave => "node_leave",
            ChurnOp::NodeJoin => "node_join",
            ChurnOp::LinkFlap => "link_flap",
        }
    }
}

/// One topology change, stamped with the absolute round it fires at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChurnEvent {
    /// Absolute round the event takes effect at (before that round's
    /// sends).
    pub round: u32,
    /// What the event does.
    pub op: ChurnOp,
    /// First endpoint, or the node for [`ChurnOp::NodeLeave`] /
    /// [`ChurnOp::NodeJoin`].
    pub u: u32,
    /// Second endpoint (equals `u` for node events).
    pub v: u32,
    /// [`ChurnOp::LinkFlap`] only: how many rounds the link stays down
    /// (`>= 1`); 0 for every other op.
    pub down_for: u32,
}

impl ChurnEvent {
    /// An edge insertion at `round`.
    pub fn edge_add(round: u32, u: usize, v: usize) -> ChurnEvent {
        ChurnEvent {
            round,
            op: ChurnOp::EdgeAdd,
            u: u as u32,
            v: v as u32,
            down_for: 0,
        }
    }

    /// A permanent edge removal at `round`.
    pub fn edge_remove(round: u32, u: usize, v: usize) -> ChurnEvent {
        ChurnEvent {
            round,
            op: ChurnOp::EdgeRemove,
            u: u as u32,
            v: v as u32,
            down_for: 0,
        }
    }

    /// Node `v` departs at `round`.
    pub fn node_leave(round: u32, v: usize) -> ChurnEvent {
        ChurnEvent {
            round,
            op: ChurnOp::NodeLeave,
            u: v as u32,
            v: v as u32,
            down_for: 0,
        }
    }

    /// Node `v` rejoins at `round` (isolated; attach with same-round
    /// [`ChurnEvent::edge_add`] events listed after it).
    pub fn node_join(round: u32, v: usize) -> ChurnEvent {
        ChurnEvent {
            round,
            op: ChurnOp::NodeJoin,
            u: v as u32,
            v: v as u32,
            down_for: 0,
        }
    }

    /// Edge `u — v` flaps down at `round` for `down_for` rounds.
    pub fn link_flap(round: u32, u: usize, v: usize, down_for: u32) -> ChurnEvent {
        ChurnEvent {
            round,
            op: ChurnOp::LinkFlap,
            u: u as u32,
            v: v as u32,
            down_for,
        }
    }
}

/// A seeded, schema-versioned script of topology changes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChurnPlan {
    /// Layout version for serialized plans.
    pub schema_version: u64,
    /// The seed the plan was drawn from (informational for hand-written
    /// plans).
    pub seed: u64,
    /// The events, in firing order (ties within a round apply in listed
    /// order).
    pub events: Vec<ChurnEvent>,
}

/// The splitmix64 finalizer — the same deterministic mixer
/// `crate::FaultPlan` draws from, so churn plans are reproducible across
/// platforms and builds.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` keyed by `(seed, a, b)`.
fn unit(seed: u64, a: u64, b: u64) -> f64 {
    let x =
        mix(seed ^ a.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ b.wrapping_mul(0xff51_afd7_ed55_8ccd));
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// A uniform index draw in `[0, n)` keyed by `(seed, a, b)`.
fn index(seed: u64, a: u64, b: u64, n: usize) -> usize {
    (mix(seed ^ a.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ b.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        % n as u64) as usize
}

impl ChurnPlan {
    /// An empty plan with the given seed.
    pub fn new(seed: u64) -> ChurnPlan {
        ChurnPlan {
            schema_version: CHURN_PLAN_SCHEMA_VERSION,
            seed,
            events: Vec::new(),
        }
    }

    /// The empty plan (no topology changes at all).
    pub fn none() -> ChurnPlan {
        ChurnPlan::new(0)
    }

    /// Appends one event (builder style).
    pub fn with_event(mut self, event: ChurnEvent) -> ChurnPlan {
        self.events.push(event);
        self
    }

    /// Whether the plan changes nothing.
    pub fn is_trivial(&self) -> bool {
        self.events.is_empty()
    }

    /// The plan with every [`ChurnOp::LinkFlap`] expanded into its
    /// remove/add pair, stably sorted by round — the form executors apply.
    /// Ties within a round keep their listed order. A flap whose return
    /// round would pass `u32::MAX` (which [`ChurnPlan::validate`] rejects,
    /// like any round past [`MAX_CHURN_ROUND`]) returns at `u32::MAX`.
    pub fn normalized_events(&self) -> Vec<ChurnEvent> {
        let mut out = Vec::with_capacity(self.events.len());
        for e in &self.events {
            match e.op {
                ChurnOp::LinkFlap => {
                    out.push(ChurnEvent::edge_remove(e.round, e.u as usize, e.v as usize));
                    out.push(ChurnEvent::edge_add(
                        e.round.saturating_add(e.down_for.max(1)),
                        e.u as usize,
                        e.v as usize,
                    ));
                }
                _ => out.push(*e),
            }
        }
        out.sort_by_key(|e| e.round);
        out
    }

    /// The last round any (normalized) event fires at; 0 for a trivial
    /// plan.
    pub fn last_round(&self) -> u32 {
        self.normalized_events()
            .iter()
            .map(|e| e.round)
            .max()
            .unwrap_or(0)
    }

    /// Structural validation against a processor count: endpoints in
    /// range, no self-loop edges, flap durations nonzero, event and flap
    /// return rounds at most [`MAX_CHURN_ROUND`], and a matching schema
    /// version.
    pub fn validate(&self, n: usize) -> Result<(), String> {
        if self.schema_version != CHURN_PLAN_SCHEMA_VERSION {
            return Err(format!(
                "churn plan schema {} unsupported (this build reads {CHURN_PLAN_SCHEMA_VERSION})",
                self.schema_version
            ));
        }
        for e in &self.events {
            let last = match e.op {
                ChurnOp::LinkFlap => u64::from(e.round) + u64::from(e.down_for),
                _ => u64::from(e.round),
            };
            if last > u64::from(MAX_CHURN_ROUND) {
                return Err(format!(
                    "{} at round {} names round {last}, past the last round a plan \
                     may name ({MAX_CHURN_ROUND})",
                    e.op.label(),
                    e.round
                ));
            }
            let (u, v) = (e.u as usize, e.v as usize);
            if u >= n || v >= n {
                return Err(format!(
                    "{} at round {} touches vertex out of range (n = {n})",
                    e.op.label(),
                    e.round
                ));
            }
            match e.op {
                ChurnOp::EdgeAdd | ChurnOp::EdgeRemove | ChurnOp::LinkFlap => {
                    if u == v {
                        return Err(format!(
                            "{} at round {} is a self-loop ({u})",
                            e.op.label(),
                            e.round
                        ));
                    }
                    if e.op == ChurnOp::LinkFlap && e.down_for == 0 {
                        return Err(format!("link_flap at round {} has down_for = 0", e.round));
                    }
                }
                ChurnOp::NodeLeave | ChurnOp::NodeJoin => {}
            }
        }
        Ok(())
    }

    /// Admissibility against a concrete starting graph: dry-runs the
    /// normalized events and rejects adds of existing edges, removals of
    /// absent edges, edges touching a departed node, departures of absent
    /// nodes, and rejoins of present nodes. An admissible plan is exactly
    /// one an executor can apply without skipping anything.
    pub fn validate_against(&self, g: &Graph) -> Result<(), String> {
        let n = g.n();
        self.validate(n)?;
        let key = |u: usize, v: usize| (u.min(v), u.max(v));
        let mut edges: std::collections::HashSet<(usize, usize)> =
            g.edges().map(|(u, v)| key(u, v)).collect();
        let mut present = vec![true; n];
        for e in self.normalized_events() {
            let (u, v) = (e.u as usize, e.v as usize);
            let whine = |what: &str| {
                Err(format!(
                    "inadmissible {} at round {}: {what}",
                    e.op.label(),
                    e.round
                ))
            };
            match e.op {
                ChurnOp::EdgeAdd => {
                    if !present[u] || !present[v] {
                        return whine("an endpoint is departed");
                    }
                    if !edges.insert(key(u, v)) {
                        return whine("edge already present");
                    }
                }
                ChurnOp::EdgeRemove => {
                    if !edges.remove(&key(u, v)) {
                        return whine("edge not present");
                    }
                }
                ChurnOp::NodeLeave => {
                    if !present[u] {
                        return whine("node already departed");
                    }
                    present[u] = false;
                    edges.retain(|&(a, b)| a != u && b != u);
                }
                ChurnOp::NodeJoin => {
                    if present[u] {
                        return whine("node already present");
                    }
                    present[u] = true;
                }
                ChurnOp::LinkFlap => unreachable!("normalized events have no flaps"),
            }
        }
        Ok(())
    }

    /// Draws a seeded, connectivity-preserving churn stream over rounds
    /// `1..=horizon`: each round, with probability `rate`, one event fires
    /// — an edge add (30%), a permanent removal of a non-bridge edge
    /// (20%), or a link flap of a non-bridge edge down for 1–3 rounds
    /// (50%). The graph (with flapped links counted as down) stays
    /// connected at every instant, so the resulting plan always heals (the
    /// property the churn executor's acceptance test leans on). Node
    /// departures are never generated — script those explicitly.
    pub fn generate(g: &Graph, rate: f64, seed: u64, horizon: u32) -> ChurnPlan {
        let mut plan = ChurnPlan::new(seed);
        let n = g.n();
        if n < 2 || rate <= 0.0 {
            return plan;
        }
        let mut cur = g.clone();
        // Links a flap took down, with the round they come back at.
        let mut down: Vec<(usize, usize, u32)> = Vec::new();
        for round in 1..=horizon {
            let mut restored = Vec::new();
            down.retain(|&(u, v, back)| {
                let live = back > round;
                if !live {
                    restored.push((u, v));
                }
                live
            });
            for (u, v) in restored {
                cur = cur.with_edge(u, v).expect("flap restores a removed edge");
            }
            if unit(seed, round as u64, 1) >= rate {
                continue;
            }
            let pick = unit(seed, round as u64, 2);
            if pick < 0.3 {
                // Add a random absent edge (skipping links a flap owns).
                for attempt in 0..32u64 {
                    let u = index(seed, round as u64, 3 + 2 * attempt, n);
                    let v = index(seed, round as u64, 4 + 2 * attempt, n);
                    let flapped = down.iter().any(|&(a, b, _)| {
                        (a, b) == (u.min(v), u.max(v)) || (a, b) == (u, v) || (a, b) == (v, u)
                    });
                    if u != v && !cur.has_edge(u, v) && !flapped {
                        plan.events.push(ChurnEvent::edge_add(round, u, v));
                        cur = cur.with_edge(u, v).expect("edge checked absent");
                        break;
                    }
                }
            } else {
                // Remove (pick < 0.5) or flap a random non-bridge edge.
                let live: Vec<(usize, usize)> = cur.edges().collect();
                for attempt in 0..32u64 {
                    let (u, v) = live[index(seed, round as u64, 5 + attempt, live.len())];
                    let candidate = cur.without_edge(u, v).expect("edge is live");
                    if is_connected(&candidate) {
                        if pick < 0.5 {
                            plan.events.push(ChurnEvent::edge_remove(round, u, v));
                        } else {
                            let dur = 1 + index(seed, round as u64, 6, 3) as u32;
                            plan.events.push(ChurnEvent::link_flap(round, u, v, dur));
                            down.push((u, v, round + dur));
                        }
                        cur = candidate;
                        break;
                    }
                }
            }
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(n: usize) -> Graph {
        Graph::from_edges(n, &(0..n).map(|i| (i, (i + 1) % n)).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn serde_roundtrip() {
        let plan = ChurnPlan::new(7)
            .with_event(ChurnEvent::edge_add(2, 0, 3))
            .with_event(ChurnEvent::link_flap(4, 1, 2, 2))
            .with_event(ChurnEvent::node_leave(6, 5))
            .with_event(ChurnEvent::node_join(9, 5));
        let v = plan.to_value();
        let back = ChurnPlan::from_value(&v).unwrap();
        assert_eq!(back, plan);
        let json = serde_json::to_string(&plan).unwrap();
        let back: ChurnPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    fn normalization_expands_flaps_in_round_order() {
        let plan = ChurnPlan::new(0)
            .with_event(ChurnEvent::link_flap(3, 0, 1, 2))
            .with_event(ChurnEvent::edge_add(4, 2, 5));
        let norm = plan.normalized_events();
        assert_eq!(norm.len(), 3);
        assert_eq!(norm[0], ChurnEvent::edge_remove(3, 0, 1));
        assert_eq!(norm[1], ChurnEvent::edge_add(4, 2, 5));
        assert_eq!(norm[2], ChurnEvent::edge_add(5, 0, 1));
        assert_eq!(plan.last_round(), 5);
        assert!(!plan.is_trivial());
        assert!(ChurnPlan::none().is_trivial());
    }

    #[test]
    fn validate_rejects_malformed_events() {
        assert!(ChurnPlan::new(0)
            .with_event(ChurnEvent::edge_add(0, 0, 9))
            .validate(6)
            .is_err());
        assert!(ChurnPlan::new(0)
            .with_event(ChurnEvent::edge_add(0, 2, 2))
            .validate(6)
            .is_err());
        assert!(ChurnPlan::new(0)
            .with_event(ChurnEvent::link_flap(0, 0, 1, 0))
            .validate(6)
            .is_err());
        let mut wrong = ChurnPlan::none();
        wrong.schema_version = 99;
        assert!(wrong.validate(6).is_err());
    }

    #[test]
    fn admissibility_dry_runs_the_timeline() {
        let g = ring(6);
        // Remove a chord that was only just added: admissible.
        let ok = ChurnPlan::new(0)
            .with_event(ChurnEvent::edge_add(1, 0, 3))
            .with_event(ChurnEvent::edge_remove(2, 0, 3));
        assert!(ok.validate_against(&g).is_ok());
        // Removing it twice is not.
        let twice = ok.clone().with_event(ChurnEvent::edge_remove(3, 0, 3));
        assert!(twice.validate_against(&g).is_err());
        // Adding an existing edge is not.
        assert!(ChurnPlan::new(0)
            .with_event(ChurnEvent::edge_add(1, 0, 1))
            .validate_against(&g)
            .is_err());
        // A departed node cannot gain edges until it rejoins.
        let dead_attach = ChurnPlan::new(0)
            .with_event(ChurnEvent::node_leave(1, 2))
            .with_event(ChurnEvent::edge_add(2, 2, 4));
        assert!(dead_attach.validate_against(&g).is_err());
        let rejoin = ChurnPlan::new(0)
            .with_event(ChurnEvent::node_leave(1, 2))
            .with_event(ChurnEvent::node_join(3, 2))
            .with_event(ChurnEvent::edge_add(3, 2, 1))
            .with_event(ChurnEvent::edge_add(3, 2, 3));
        assert!(rejoin.validate_against(&g).is_ok());
    }

    #[test]
    fn generated_plans_are_deterministic_and_admissible() {
        let g = ring(10);
        let a = ChurnPlan::generate(&g, 0.5, 42, 20);
        let b = ChurnPlan::generate(&g, 0.5, 42, 20);
        assert_eq!(a, b, "same seed, same plan");
        assert!(!a.is_trivial(), "rate 0.5 over 20 rounds fires something");
        a.validate_against(&g)
            .expect("generated plan is admissible");
        let c = ChurnPlan::generate(&g, 0.5, 43, 20);
        assert_ne!(a, c, "different seed, different plan");
        assert!(ChurnPlan::generate(&g, 0.0, 42, 20).is_trivial());
    }

    #[test]
    fn generated_plans_preserve_connectivity_throughout() {
        let g = ring(8);
        let plan = ChurnPlan::generate(&g, 0.8, 7, 30);
        // Replay the normalized timeline and check connectivity after
        // every event.
        let mut cur = g.clone();
        for e in plan.normalized_events() {
            let (u, v) = (e.u as usize, e.v as usize);
            cur = match e.op {
                ChurnOp::EdgeAdd => cur.with_edge(u, v).unwrap(),
                ChurnOp::EdgeRemove => cur.without_edge(u, v).unwrap(),
                _ => unreachable!("generator emits edge events only"),
            };
            assert!(is_connected(&cur), "disconnected after round {}", e.round);
        }
    }
}
