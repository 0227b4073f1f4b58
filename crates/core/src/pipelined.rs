//! Pipelined repeated gossiping: the paper's §4 throughput scenario,
//! quantified.
//!
//! "In many applications, one has to execute the gossiping algorithms a
//! large number of times" (§4). Running `k` gossip batches back-to-back
//! costs `k (n + r)` rounds; but a new batch can start *before* the
//! previous one finishes, as long as the overlaid schedules never violate
//! the one-send/one-receive rules. This module overlays `k` copies of the
//! ConcurrentUpDown schedule at a fixed **period** `S` (batch `i` shifted
//! by `i·S`, its messages renumbered into `i·n..(i+1)·n`), verifies the
//! overlay against the full model, and finds the smallest feasible period.
//!
//! The steady-state throughput is one gossip per `S` rounds; `S` can be
//! substantially below `n + r` because ConcurrentUpDown leaves every
//! vertex's receive calendar idle outside `[1, n + k_v]`. The hard floor is
//! `n - 1`: each processor must receive `n - 1` fresh messages per batch,
//! one per round.

use crate::concurrent::{concurrent_updown, tree_origins};
use gossip_graph::RootedTree;
use gossip_model::{CommModel, FlatSchedule, Schedule, SimKernel};
use gossip_telemetry::{NoopRecorder, Recorder, RecorderExt};

/// A pipelined multi-batch gossip schedule.
#[derive(Debug, Clone)]
pub struct PipelinedPlan {
    /// The combined schedule; batch `i`'s message `m` has id `i*n + m`.
    pub schedule: Schedule,
    /// The period between consecutive batch starts.
    pub period: usize,
    /// Number of batches.
    pub batches: usize,
    /// Origin table for the combined message space.
    pub origins: Vec<usize>,
}

impl PipelinedPlan {
    /// Amortized rounds per gossip at steady state.
    pub fn amortized_rounds(&self) -> f64 {
        self.schedule.makespan() as f64 / self.batches as f64
    }
}

/// Overlays `k` ConcurrentUpDown batches at the given `period` and checks
/// the combined schedule against the full communication model. Returns
/// `None` if the overlay conflicts (or does not complete).
pub fn pipelined_gossip(tree: &RootedTree, k: usize, period: usize) -> Option<PipelinedPlan> {
    pipelined_gossip_recorded(tree, k, period, &NoopRecorder)
}

/// [`pipelined_gossip`] with telemetry: a `pipelined` span with
/// `base_schedule` / `overlay` / `verify` child spans, a `pipeline/batches`
/// counter, and `pipeline/period` / `pipeline/amortized_rounds` gauges for
/// feasible overlays.
pub fn pipelined_gossip_recorded(
    tree: &RootedTree,
    k: usize,
    period: usize,
    recorder: &dyn Recorder,
) -> Option<PipelinedPlan> {
    assert!(k >= 1, "need at least one batch");
    let _span = recorder.span("pipelined");
    let n = tree.n();
    let (base, base_origins) = {
        let _s = recorder.span("base_schedule");
        (concurrent_updown(tree), tree_origins(tree))
    };

    let (schedule, origins) = {
        let _s = recorder.span("overlay");
        let mut schedule = Schedule::new(n);
        for batch in 0..k {
            schedule.merge(&base.shifted(batch * period, (batch * n) as u32));
        }
        schedule.trim();

        let mut origins = Vec::with_capacity(k * n);
        for _ in 0..k {
            origins.extend_from_slice(&base_origins);
        }
        (schedule, origins)
    };

    let outcome = {
        let _s = recorder.span("verify");
        let g = tree.to_graph();
        let mut sim = SimKernel::with_origins(&g, CommModel::Multicast, &origins).ok()?;
        sim.run(&FlatSchedule::from_schedule(&schedule)).ok()?
    };
    let plan = outcome.complete.then_some(PipelinedPlan {
        schedule,
        period,
        batches: k,
        origins,
    });
    if recorder.enabled() {
        if let Some(p) = &plan {
            recorder.counter("pipeline/batches", p.batches as u64);
            recorder.gauge("pipeline/period", p.period as f64);
            recorder.gauge("pipeline/amortized_rounds", p.amortized_rounds());
        } else {
            recorder.counter("pipeline/infeasible_overlays", 1);
        }
    }
    plan
}

/// The smallest period at which `k` batches overlay conflict-free on
/// `tree`, found by linear scan from the information-theoretic floor
/// `n - 1` (0 for a single vertex).
///
/// The scan always terminates: at `period = n + r` the batches are fully
/// serialized.
pub fn min_pipeline_period(tree: &RootedTree, k: usize) -> usize {
    let n = tree.n();
    if n <= 1 {
        return 0;
    }
    let ceiling = n + tree.height() as usize;
    for period in (n - 1)..=ceiling {
        if pipelined_gossip(tree, k, period).is_some() {
            return period;
        }
    }
    ceiling
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_graph::NO_PARENT;

    fn star(n: usize) -> RootedTree {
        let mut p = vec![0u32; n];
        p[0] = NO_PARENT;
        RootedTree::from_parents(0, &p).unwrap()
    }

    fn chain(n: usize) -> RootedTree {
        let mut p: Vec<u32> = (0..n as u32).map(|v| v.saturating_sub(1)).collect();
        p[0] = NO_PARENT;
        RootedTree::from_parents(0, &p).unwrap()
    }

    #[test]
    fn serialized_period_always_works() {
        for tree in [star(6), chain(5)] {
            let full = tree.n() + tree.height() as usize;
            let plan = pipelined_gossip(&tree, 3, full).expect("serial overlay is trivially valid");
            assert_eq!(plan.schedule.makespan(), 2 * full + full);
        }
    }

    #[test]
    fn min_period_at_least_information_floor() {
        for tree in [star(5), chain(4)] {
            let p = min_pipeline_period(&tree, 3);
            assert!(p >= tree.n() - 1, "{p}");
            assert!(p <= tree.n() + tree.height() as usize);
        }
    }

    #[test]
    fn pipelining_beats_serialization_somewhere() {
        // On a star the receive calendars leave the early rounds idle for
        // the next batch: period < n + r.
        let tree = star(8);
        let p = min_pipeline_period(&tree, 2);
        assert!(
            p < tree.n() + tree.height() as usize,
            "no overlap found (period {p})"
        );
    }

    #[test]
    fn overlay_conflicts_detected() {
        // Period 1 cannot work for n > 2: batch 2's sends collide.
        let tree = chain(4);
        assert!(pipelined_gossip(&tree, 2, 1).is_none());
    }

    #[test]
    fn amortized_rounds_decrease_with_batches() {
        let tree = star(6);
        let p = min_pipeline_period(&tree, 4);
        let plan = pipelined_gossip(&tree, 4, p).unwrap();
        let single = tree.n() + tree.height() as usize;
        assert!(plan.amortized_rounds() < single as f64);
    }

    #[test]
    fn message_ids_partition_by_batch() {
        let tree = chain(3);
        let full = tree.n() + tree.height() as usize;
        let plan = pipelined_gossip(&tree, 2, full).unwrap();
        assert_eq!(plan.origins.len(), 6);
        let max_msg = plan.schedule.iter().map(|(_, tx)| tx.msg).max().unwrap();
        assert!(max_msg < 6);
    }
}
