//! The end-to-end planner: arbitrary network → minimum-depth spanning tree
//! → communication schedule, exactly the paper's two-step procedure (§3).

use crate::concurrent::{concurrent_updown_recorded, tree_origins};
use crate::fast_planner::{concurrent_updown_flat_on, FastGossipPlan};
use crate::labeling::FlatLabels;
use crate::simple::simple_gossip_recorded;
use crate::telephone::telephone_tree_gossip;
use crate::updown::updown_gossip_recorded;
use gossip_graph::{
    is_connected, min_depth_spanning_tree_fast_recorded, min_depth_spanning_tree_recorded,
    ChildOrder, Graph, GraphError, RootedTree,
};
use gossip_model::Schedule;
use gossip_telemetry::{NoopRecorder, Recorder, RecorderExt, SpanGuard};

/// Which scheduling algorithm the planner runs on the spanning tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Algorithm {
    /// ConcurrentUpDown — the paper's `n + r` result (default).
    #[default]
    ConcurrentUpDown,
    /// Simple — the `2n + r - 3` warm-up (Lemma 1).
    Simple,
    /// UpDown — the reconstructed two-phase baseline.
    UpDown,
    /// The telephone-model (unicast-only) baseline.
    Telephone,
}

impl Algorithm {
    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::ConcurrentUpDown => "concurrent-updown",
            Algorithm::Simple => "simple",
            Algorithm::UpDown => "updown",
            Algorithm::Telephone => "telephone",
        }
    }

    /// Runs the algorithm on a rooted tree.
    pub fn schedule(&self, tree: &RootedTree) -> Schedule {
        self.schedule_recorded(tree, &NoopRecorder)
    }

    /// [`Algorithm::schedule`] with telemetry: each algorithm opens its own
    /// span (with per-phase child spans where the algorithm has phases) and
    /// records `generate/*` counters for the work scheduled.
    pub fn schedule_recorded(&self, tree: &RootedTree, recorder: &dyn Recorder) -> Schedule {
        match self {
            Algorithm::ConcurrentUpDown => concurrent_updown_recorded(tree, recorder),
            Algorithm::Simple => simple_gossip_recorded(tree, recorder),
            Algorithm::UpDown => updown_gossip_recorded(tree, recorder),
            Algorithm::Telephone => {
                let span = recorder.span("telephone");
                let schedule = telephone_tree_gossip(tree);
                record_generated(&span, recorder, &schedule, None);
                schedule
            }
        }
    }
}

/// Records a generator's output under its `span`, unless nothing reads it:
/// the profiler's `transmissions` counter, and the `generate/*` counters
/// (`merged` adds `generate/merged_multicasts`) and makespan gauge.
pub(crate) fn record_generated(
    span: &SpanGuard<'_>,
    recorder: &dyn Recorder,
    schedule: &Schedule,
    merged: Option<u64>,
) {
    if !span.is_live() {
        return;
    }
    let stats = schedule.stats();
    gossip_telemetry::profile::count("transmissions", stats.transmissions as u64);
    recorder.counter("generate/transmissions", stats.transmissions as u64);
    recorder.counter("generate/deliveries", stats.deliveries as u64);
    if let Some(merged) = merged {
        recorder.counter("generate/merged_multicasts", merged);
    }
    recorder.gauge("generate/makespan", schedule.makespan() as f64);
}

/// A complete gossip plan for a network.
#[derive(Debug, Clone)]
pub struct GossipPlan {
    /// The minimum-depth spanning tree all communication runs on.
    pub tree: RootedTree,
    /// The communication schedule (vertex space).
    pub schedule: Schedule,
    /// `origin_of_message[m]` = the processor whose message is labeled `m`.
    pub origin_of_message: Vec<usize>,
    /// The network radius `r` (= tree height).
    pub radius: u32,
}

impl GossipPlan {
    /// The schedule's total communication time.
    pub fn makespan(&self) -> usize {
        self.schedule.makespan()
    }

    /// The paper's guarantee for this plan: `n + r`.
    pub fn guarantee(&self) -> usize {
        if self.tree.n() <= 1 {
            0
        } else {
            self.tree.n() + self.radius as usize
        }
    }
}

/// Builder for gossip plans over a network.
///
/// # Examples
///
/// ```
/// use gossip_graph::Graph;
/// use gossip_core::GossipPlanner;
/// use gossip_model::simulate_gossip;
///
/// let g = Graph::from_edges(6, &[(0,1),(1,2),(2,3),(3,4),(4,5),(5,0)]).unwrap();
/// let plan = GossipPlanner::new(&g).unwrap().plan().unwrap();
/// assert_eq!(plan.makespan(), 6 + 3);
/// assert!(plan.makespan() <= plan.guarantee());
/// let o = simulate_gossip(&g, &plan.schedule, &plan.origin_of_message).unwrap();
/// assert!(o.complete);
/// ```
#[derive(Clone)]
pub struct GossipPlanner<'g> {
    g: &'g Graph,
    algorithm: Algorithm,
    child_order: ChildOrder,
    recorder: &'g dyn Recorder,
}

impl std::fmt::Debug for GossipPlanner<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GossipPlanner")
            .field("g", &self.g)
            .field("algorithm", &self.algorithm)
            .field("child_order", &self.child_order)
            .field("recorder_enabled", &self.recorder.enabled())
            .finish()
    }
}

impl<'g> GossipPlanner<'g> {
    /// Starts a planner; fails fast on disconnected or empty networks
    /// (gossiping is impossible there).
    pub fn new(g: &'g Graph) -> Result<Self, GraphError> {
        if g.n() == 0 {
            return Err(GraphError::EmptyGraph);
        }
        if !is_connected(g) {
            return Err(GraphError::Disconnected);
        }
        Ok(GossipPlanner {
            g,
            algorithm: Algorithm::default(),
            child_order: ChildOrder::default(),
            recorder: &NoopRecorder,
        })
    }

    /// Selects the scheduling algorithm (default: ConcurrentUpDown).
    pub fn algorithm(mut self, a: Algorithm) -> Self {
        self.algorithm = a;
        self
    }

    /// Selects the DFS child ordering (default: by vertex id).
    pub fn child_order(mut self, o: ChildOrder) -> Self {
        self.child_order = o;
        self
    }

    /// Attaches a telemetry recorder; all planning stages report spans,
    /// counters, and gauges to it (default: [`NoopRecorder`], which costs
    /// nothing).
    pub fn recorder(mut self, r: &'g dyn Recorder) -> Self {
        self.recorder = r;
        self
    }

    /// Builds the minimum-depth spanning tree and the schedule.
    pub fn plan(&self) -> Result<GossipPlan, GraphError> {
        let _span = self.recorder.span("plan");
        let tree = min_depth_spanning_tree_recorded(self.g, self.child_order, self.recorder)?;
        Ok(self.plan_on_tree(tree))
    }

    /// The fast planning path: pruned multi-source bitset sweep for the
    /// tree ([`min_depth_spanning_tree_fast_recorded`]) followed by the
    /// CSR-direct ConcurrentUpDown generator
    /// ([`concurrent_updown_flat_on`]).
    /// On the same tree the resulting schedule is byte-identical to
    /// flattening [`plan`](GossipPlanner::plan)'s; the tree itself may
    /// differ from the reference construction only when root-candidate
    /// pruning drops an equal-depth tie.
    ///
    /// # Panics
    ///
    /// The fast path implements ConcurrentUpDown only; panics if another
    /// [`algorithm`](GossipPlanner::algorithm) was selected.
    pub fn plan_fast(&self) -> Result<FastGossipPlan, GraphError> {
        assert_eq!(
            self.algorithm,
            Algorithm::ConcurrentUpDown,
            "plan_fast implements ConcurrentUpDown only"
        );
        let _span = self.recorder.span("plan_fast");
        let tree = min_depth_spanning_tree_fast_recorded(self.g, self.child_order, self.recorder)?;
        Ok(self.plan_fast_on_tree(tree))
    }

    /// Builds a fast-path plan on a caller-supplied spanning tree.
    pub fn plan_fast_on_tree(&self, tree: RootedTree) -> FastGossipPlan {
        debug_assert!(tree.is_spanning_tree_of(self.g));
        let labels = {
            let _s = self.recorder.span("labeling");
            FlatLabels::new(&tree)
        };
        let plan = FastGossipPlan {
            schedule: concurrent_updown_flat_on(&labels, self.recorder),
            origin_of_message: labels.origins(),
            radius: tree.height(),
            tree,
        };
        if self.recorder.enabled() {
            self.recorder.gauge("plan/radius", plan.radius as f64);
            self.recorder.gauge("plan/makespan", plan.makespan() as f64);
        }
        plan
    }

    /// Builds a plan on a caller-supplied spanning tree (must span `g`; the
    /// paper reuses one tree across many gossip runs, re-planning only when
    /// the network changes).
    pub fn plan_on_tree(&self, tree: RootedTree) -> GossipPlan {
        debug_assert!(tree.is_spanning_tree_of(self.g));
        let schedule = self.algorithm.schedule_recorded(&tree, self.recorder);
        let plan = GossipPlan {
            origin_of_message: tree_origins(&tree),
            radius: tree.height(),
            tree,
            schedule,
        };
        if self.recorder.enabled() {
            self.recorder.gauge("plan/radius", plan.radius as f64);
            self.recorder.gauge("plan/makespan", plan.makespan() as f64);
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_model::simulate_gossip;

    fn ring(n: usize) -> Graph {
        Graph::from_edges(n, &(0..n).map(|i| (i, (i + 1) % n)).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn default_plan_meets_guarantee() {
        for n in [3, 6, 11] {
            let g = ring(n);
            let plan = GossipPlanner::new(&g).unwrap().plan().unwrap();
            assert_eq!(plan.makespan(), plan.guarantee());
            let o = simulate_gossip(&g, &plan.schedule, &plan.origin_of_message).unwrap();
            assert!(o.complete);
        }
    }

    #[test]
    fn all_algorithms_complete() {
        let g = ring(8);
        for a in [
            Algorithm::ConcurrentUpDown,
            Algorithm::Simple,
            Algorithm::UpDown,
            Algorithm::Telephone,
        ] {
            let plan = GossipPlanner::new(&g).unwrap().algorithm(a).plan().unwrap();
            let o = simulate_gossip(&g, &plan.schedule, &plan.origin_of_message).unwrap();
            assert!(o.complete, "{}", a.name());
        }
    }

    #[test]
    fn fast_plan_matches_reference() {
        use gossip_model::{CommModel, FlatSchedule};
        for n in [3, 6, 11, 24] {
            let g = ring(n);
            let planner = GossipPlanner::new(&g).unwrap();
            let reference = planner.plan().unwrap();
            let fast = planner.plan_fast().unwrap();
            assert_eq!(fast.radius, reference.radius);
            assert_eq!(fast.makespan(), reference.makespan());
            assert!(fast.makespan() <= fast.guarantee());
            fast.schedule.validate(&g, CommModel::Multicast, n).unwrap();
            // Equal roots imply byte-identical schedules; the fast sweep may
            // only diverge on equal-depth root ties.
            if fast.tree == reference.tree {
                assert_eq!(
                    fast.schedule,
                    FlatSchedule::from_schedule(&reference.schedule)
                );
            } else {
                assert_eq!(fast.tree.height(), reference.tree.height());
            }
        }
    }

    #[test]
    fn fast_plan_singleton() {
        let g = Graph::from_edges(1, &[]).unwrap();
        let plan = GossipPlanner::new(&g).unwrap().plan_fast().unwrap();
        assert_eq!(plan.makespan(), 0);
        assert_eq!(plan.guarantee(), 0);
    }

    #[test]
    fn rejects_disconnected_and_empty() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert_eq!(
            GossipPlanner::new(&g).unwrap_err(),
            GraphError::Disconnected
        );
        let e = Graph::from_edges(0, &[]).unwrap();
        assert_eq!(GossipPlanner::new(&e).unwrap_err(), GraphError::EmptyGraph);
    }

    #[test]
    fn child_order_preserves_makespan() {
        let g = ring(9);
        let a = GossipPlanner::new(&g).unwrap().plan().unwrap();
        let b = GossipPlanner::new(&g)
            .unwrap()
            .child_order(ChildOrder::LargestSubtreeFirst)
            .plan()
            .unwrap();
        assert_eq!(a.makespan(), b.makespan());
    }

    #[test]
    fn singleton_plan() {
        let g = Graph::from_edges(1, &[]).unwrap();
        let plan = GossipPlanner::new(&g).unwrap().plan().unwrap();
        assert_eq!(plan.makespan(), 0);
        assert_eq!(plan.guarantee(), 0);
    }
}
