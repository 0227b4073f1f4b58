//! Spans and profiler phases are one tree: with a `MetricsRecorder` and a
//! `Profiler` both on, every span path the recorder saw is a PROF node
//! path entered exactly as many times. The runs cover both planners, on
//! the paper's Figure 4 network and on a seeded G(256, 18/n), plus one
//! recovery and one churn execution.

use std::collections::BTreeMap;

use gossip_core::{ChurnExecutor, GossipPlanner, ResilientExecutor};
use gossip_model::{ChurnPlan, FaultPlan};
use gossip_telemetry::profile::Profiler;
use gossip_telemetry::{MetricsRecorder, Value};
use gossip_workloads::{fig4_graph, random_connected};

/// Call counts of every node of a PROF forest, keyed by `/`-joined path.
fn node_calls(prefix: &str, phases: &Value, out: &mut BTreeMap<String, u64>) {
    for node in phases.as_array().into_iter().flatten() {
        let name = node["name"].as_str().expect("node name");
        let path = if prefix.is_empty() {
            name.to_string()
        } else {
            format!("{prefix}/{name}")
        };
        out.insert(path.clone(), node["calls"].as_u64().expect("calls"));
        node_calls(&path, &node["children"], out);
    }
}

#[test]
fn every_span_path_is_a_prof_node_with_its_call_count() {
    let rec = MetricsRecorder::new();
    let profiler = Profiler::begin();
    let fig4 = fig4_graph();
    for g in [&fig4, &random_connected(256, 18.0 / 256.0, 7)] {
        let planner = GossipPlanner::new(g).unwrap().recorder(&rec);
        planner.plan().unwrap();
        planner.plan_fast().unwrap();
    }
    let plan = GossipPlanner::new(&fig4)
        .unwrap()
        .recorder(&rec)
        .plan()
        .unwrap();
    let faults = FaultPlan::new(3).with_loss_rate(0.1);
    let recovery = ResilientExecutor::new(&fig4, &plan.schedule, &plan.origin_of_message, &faults)
        .recorder(&rec)
        .run()
        .unwrap();
    assert!(recovery.epochs.len() > 1, "the loss left nothing to repair");
    let churn = ChurnPlan::generate(&fig4, 0.3, 5, 16);
    assert!(!churn.is_trivial());
    ChurnExecutor::new(&fig4, &churn)
        .recorder(&rec)
        .run()
        .unwrap();
    let profile = profiler.finish();

    let mut nodes = BTreeMap::new();
    node_calls("", &profile.to_value(), &mut nodes);
    let snapshot = rec.snapshot();
    let spans = snapshot["spans"].as_object().expect("span summaries");
    for expected in [
        "plan/spanning_tree",
        "plan/concurrent_updown/labeling",
        "plan_fast/spanning_tree_fast",
        "plan_fast/labeling",
        "plan_fast/concurrent_updown_flat",
        "recover/epoch",
        "churn",
    ] {
        assert!(
            spans.iter().any(|(path, _)| path == expected),
            "no {expected} span"
        );
    }
    for (path, summary) in spans {
        assert_eq!(
            nodes.get(path),
            summary["count"].as_u64().as_ref(),
            "span {path} against the PROF tree {nodes:?}"
        );
    }
}
