//! Golden test for the planner cost profiler on the paper's Figure 4
//! instance. Wall-clock magnitudes vary run to run, so the golden facts
//! are the *structure*: the phase taxonomy is stable (plan →
//! spanning_tree/concurrent_updown with their sub-phases, then flatten and
//! validate), every node's self
//! time fits inside its total, the work counters agree with the schedule
//! the pipeline actually produced, and the collapsed-stack export parses
//! as flamegraph input.

use gossip_core::GossipPlanner;
use gossip_model::{CommModel, FlatSchedule};
use gossip_telemetry::profile::Profiler;
use gossip_telemetry::Value;
use gossip_workloads::fig4_graph;

/// Depth-first walk of the phase forest collecting `(path, node)` pairs.
fn walk<'a>(prefix: &str, phases: &'a Value, out: &mut Vec<(String, &'a Value)>) {
    let Some(list) = phases.as_array() else {
        return;
    };
    for p in list {
        let name = p["name"].as_str().expect("phase name");
        let path = if prefix.is_empty() {
            name.to_string()
        } else {
            format!("{prefix}/{name}")
        };
        out.push((path.clone(), p));
        walk(&path, &p["children"], out);
    }
}

#[test]
fn fig4_profile_phase_tree_is_stable_and_consistent() {
    let g = fig4_graph();
    let profiler = Profiler::begin();
    let plan = GossipPlanner::new(&g).unwrap().plan().unwrap();
    let flat = FlatSchedule::from_schedule(&plan.schedule);
    flat.validate(&g, CommModel::Multicast, plan.origin_of_message.len())
        .unwrap();
    let profile = profiler.finish();
    assert!(!profile.is_empty(), "profiler recorded nothing");

    let phases = profile.to_value();
    let mut nodes = Vec::new();
    walk("", &phases, &mut nodes);
    let paths: Vec<&str> = nodes.iter().map(|(p, _)| p.as_str()).collect();

    // Stable taxonomy: the construction pipeline always produces these
    // phase paths on a sequential single-threaded run.
    for expected in [
        "plan",
        "plan/spanning_tree",
        "plan/spanning_tree/bfs_sweep",
        "plan/spanning_tree/build_tree",
        "plan/concurrent_updown",
        "plan/concurrent_updown/labeling",
        "plan/concurrent_updown/overlay",
        "flatten",
        "validate",
    ] {
        assert!(paths.contains(&expected), "missing phase path {expected}");
    }

    // Structural invariants on every node: at least one call, self time
    // within total, children's totals within the parent's total.
    for (path, node) in &nodes {
        let calls = node["calls"].as_u64().unwrap();
        let total = node["total_ms"].as_f64().unwrap();
        let selfms = node["self_ms"].as_f64().unwrap();
        assert!(calls >= 1, "{path}: zero calls");
        assert!(selfms >= 0.0 && total >= 0.0, "{path}: negative time");
        assert!(
            selfms <= total + 1e-9,
            "{path}: self {selfms} > total {total}"
        );
        if let Some(children) = node["children"].as_array() {
            let child_sum: f64 = children
                .iter()
                .map(|c| c["total_ms"].as_f64().unwrap())
                .sum();
            assert!(
                child_sum <= total + 1e-6,
                "{path}: children sum {child_sum} exceeds total {total}"
            );
        }
    }

    // Work counters agree with the schedule the run produced.
    let stats = plan.schedule.stats();
    assert_eq!(
        profile.named_counter("transmissions") as usize,
        stats.transmissions,
        "transmissions counter must match the generated schedule"
    );
    assert!(
        profile.named_counter("bfs_sweeps") >= 1,
        "at least one BFS sweep must be counted"
    );
    assert!(
        profile.named_counter("frontier_popped") as usize >= g.n(),
        "each sweep pops at least n vertices"
    );
    assert!(
        profile.named_counter("csr_bytes") > 0,
        "flatten must report its CSR footprint"
    );

    // The profiler's own attribution covers the phases it recorded.
    let root_sum: f64 = phases
        .as_array()
        .unwrap()
        .iter()
        .map(|r| r["total_ms"].as_f64().unwrap())
        .sum();
    assert!((profile.attributed_ms() - root_sum).abs() < 1e-6);

    // Collapsed stacks parse as flamegraph input: `a;b;c <integer>` with
    // one line per phase path, matching the forest exactly.
    let flame = profile.collapsed_stacks();
    let mut flame_paths = Vec::new();
    for line in flame.lines() {
        let (path, count) = line.rsplit_once(' ').expect("`path count` shape");
        assert!(count.parse::<u64>().is_ok(), "bad count in {line:?}");
        assert!(!path.is_empty() && !path.contains(' '), "bad path {path:?}");
        flame_paths.push(path.replace(';', "/"));
    }
    let mut expected_paths: Vec<String> = nodes.iter().map(|(p, _)| p.clone()).collect();
    flame_paths.sort();
    expected_paths.sort();
    assert_eq!(flame_paths, expected_paths);
}

#[test]
fn uninstalled_profiler_guards_are_inert() {
    // Without a Profiler::begin in scope, phase guards and counters are
    // no-ops: planning still works and records nothing.
    let g = fig4_graph();
    let plan = GossipPlanner::new(&g).unwrap().plan().unwrap();
    assert!(plan.makespan() >= g.n());
    assert!(!gossip_telemetry::profile::active());
}
