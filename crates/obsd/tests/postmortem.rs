//! Post-mortem acceptance tests: flight captures of the same schedule taken
//! by the oracle simulator and the bitset kernel must diff as identical, and
//! a clean-vs-lossy diff must name exactly the round of the first suppressed
//! delivery as the first divergent round.

use gossip_core::{concurrent_updown, tree_origins};
use gossip_graph::{min_depth_spanning_tree, ChildOrder, Graph, GraphBuilder};
use gossip_model::{
    CommModel, FaultPlan, FlatSchedule, LostDelivery, Schedule, SimKernel, Simulator,
};
use gossip_obsd::diff;
use gossip_telemetry::flight::{FlightHeader, FlightLog, FlightRecorder};
use gossip_telemetry::{Recorder, RecorderExt, Value};
use gossip_workloads::fig4_graph;
use proptest::prelude::*;
use std::collections::HashSet;

fn header(engine: &str, n: usize, origins: &[usize]) -> FlightHeader {
    FlightHeader {
        n: n as u32,
        n_msgs: origins.len() as u32,
        radius: 0,
        engine: engine.to_string(),
        graph_digest: 0,
        schedule_digest: 0,
        fault_digest: 0,
        origins: origins.iter().map(|&o| o as u32).collect(),
    }
}

/// A capture written by hand from the oracle: one transmission record per
/// send, then one round end carrying the oracle's known pairs, per
/// [`Simulator::step`].
fn oracle_capture(g: &Graph, schedule: &Schedule, origins: &[usize]) -> FlightLog {
    let rec = FlightRecorder::new(header("oracle", g.n(), origins));
    let mut sim = Simulator::with_origins(g, CommModel::Multicast, origins).unwrap();
    for (t, round) in schedule.rounds[..schedule.makespan()].iter().enumerate() {
        for tx in &round.transmissions {
            let dests: Vec<u32> = tx.to.iter().map(|&d| d as u32).collect();
            rec.transmission(t, tx.msg, tx.from as u32, &dests);
        }
        sim.step(round).unwrap();
        rec.event(
            "round_end",
            &[
                ("round", Value::from_u64(t as u64)),
                ("known_pairs", Value::from_u64(sim.known_pairs() as u64)),
            ],
        );
    }
    FlightLog::decode(&rec.finish()).unwrap()
}

fn kernel_capture(g: &Graph, schedule: &Schedule, origins: &[usize]) -> FlightLog {
    let rec = FlightRecorder::new(header("kernel", g.n(), origins));
    let flat = FlatSchedule::from_schedule(schedule);
    let mut kernel = SimKernel::with_origins(g, CommModel::Multicast, origins).unwrap();
    kernel.run_recorded(&flat, &rec).unwrap();
    FlightLog::decode(&rec.finish()).unwrap()
}

/// Random connected graph: a random tree plus a sprinkle of extra edges.
fn arb_connected(max_n: usize) -> impl Strategy<Value = Graph> {
    (3..=max_n).prop_flat_map(|n| {
        let parents: Vec<BoxedStrategy<usize>> = (1..n).map(|i| (0..i).boxed()).collect();
        let pairs: Vec<(usize, usize)> = (0..n)
            .flat_map(|u| ((u + 1)..n).map(move |v| (u, v)))
            .collect();
        let len = pairs.len();
        (
            parents,
            proptest::collection::vec(proptest::bool::weighted(0.2), len),
        )
            .prop_map(move |(ps, mask)| {
                let mut b = GraphBuilder::new(n);
                let mut present = HashSet::new();
                for (i, p) in ps.into_iter().enumerate() {
                    b.add_edge_unchecked(p, i + 1).unwrap();
                    present.insert((p.min(i + 1), p.max(i + 1)));
                }
                for (on, &(u, v)) in mask.iter().zip(&pairs) {
                    if *on && !present.contains(&(u, v)) {
                        b.add_edge_unchecked(u, v).unwrap();
                    }
                }
                b.build()
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The oracle simulator and the bitset kernel record the same schedule
    /// as flight captures that diff as identical — same per-round delivery
    /// sets, same transmissions, zero divergence.
    #[test]
    fn oracle_and_kernel_captures_diff_identical(g in arb_connected(12)) {
        let tree = min_depth_spanning_tree(&g, ChildOrder::ById).unwrap();
        let schedule = concurrent_updown(&tree);
        let origins = tree_origins(&tree);
        let a = oracle_capture(&g, &schedule, &origins);
        let b = kernel_capture(&g, &schedule, &origins);
        let report = diff(&a, &b).unwrap();
        prop_assert!(report.comparable);
        prop_assert!(
            report.identical,
            "oracle/kernel captures diverge: first divergent round {:?}",
            report.first_divergent_round
        );
        prop_assert_eq!(report.first_divergent_round, None);
    }
}

#[test]
fn clean_vs_lossy_diff_names_the_first_suppressed_delivery_round() {
    let g = fig4_graph();
    let tree = min_depth_spanning_tree(&g, ChildOrder::ById).unwrap();
    let schedule = concurrent_updown(&tree);
    let origins = tree_origins(&tree);
    let flat = FlatSchedule::from_schedule(&schedule);

    let clean = kernel_capture(&g, &schedule, &origins);

    // Search seeds until the plan actually suppresses something.
    let mut found = None;
    for seed in 1..64 {
        let plan = FaultPlan::new(seed).with_loss_rate(0.1);
        let rec = FlightRecorder::new(header("lossy", g.n(), &origins));
        let mut kernel = SimKernel::with_origins(&g, CommModel::Multicast, &origins).unwrap();
        let mut lost: Vec<LostDelivery> = Vec::new();
        kernel.run_lossy(&flat, &plan, &mut lost, &rec).unwrap();
        if !lost.is_empty() {
            found = Some((FlightLog::decode(&rec.finish()).unwrap(), lost));
            break;
        }
    }
    let (lossy, lost) = found.expect("some seed under 10% loss suppresses a delivery");

    // The capture's loss records agree with the executor's lost log.
    let losses = lossy.losses();
    assert_eq!(losses.len(), lost.len());
    let first_loss_round = losses.iter().map(|l| l.round).min().unwrap() as usize;

    let report = diff(&clean, &lossy).unwrap();
    assert!(report.comparable);
    assert!(!report.identical);
    assert_eq!(
        report.first_divergent_round,
        Some(first_loss_round),
        "first divergence must be the round of the first suppressed delivery"
    );
}

#[test]
fn diffing_a_capture_against_itself_is_identical() {
    let g = fig4_graph();
    let tree = min_depth_spanning_tree(&g, ChildOrder::ById).unwrap();
    let schedule = concurrent_updown(&tree);
    let origins = tree_origins(&tree);
    let a = oracle_capture(&g, &schedule, &origins);
    let report = diff(&a, &a).unwrap();
    assert!(report.identical);
    assert_eq!(report.first_divergent_round, None);
    assert_eq!(report.only_in_a, 0);
    assert_eq!(report.only_in_b, 0);
}
