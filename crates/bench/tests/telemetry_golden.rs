//! Golden test for the telemetry event stream of a full plan + simulate on
//! the C_8 ring. Wall-clock fields (`t_ms`, `elapsed_ns`) are masked; the
//! event sequence, span paths, per-round probe payloads, and the final
//! snapshot are all deterministic and checked exactly.

use gossip_core::GossipPlanner;
use gossip_graph::Graph;
use gossip_model::{CommModel, FlatSchedule, RoundProbe, SimKernel, Simulator};
use gossip_telemetry::{MetricsRecorder, NoopRecorder, Recorder, SharedBuffer, Value};
use gossip_workloads::ring;

/// One event line with the timing fields masked out, rendered as
/// `name key=value ...` for golden comparison.
fn masked(line: &Value) -> String {
    let mut out = line["event"].as_str().expect("event name").to_string();
    for (k, v) in line.as_object().expect("event object") {
        if k == "event" || k == "t_ms" || k == "elapsed_ns" || k == "done_ns" {
            continue;
        }
        let rendered = v
            .as_str()
            .map(str::to_string)
            .or_else(|| v.as_u64().map(|u| u.to_string()))
            .or_else(|| v.as_f64().map(|f| format!("{f:.4}")))
            .unwrap_or_else(|| format!("{v:?}"));
        out.push_str(&format!(" {k}={rendered}"));
    }
    out
}

/// Reference probes counted by hand from an independent oracle run, one
/// [`Simulator::step`] per round.
fn reference_probes(g: &Graph) -> Vec<RoundProbe> {
    let plan = GossipPlanner::new(g).unwrap().plan().unwrap();
    let mut sim =
        Simulator::with_origins(g, CommModel::Multicast, &plan.origin_of_message).unwrap();
    let makespan = plan.schedule.makespan();
    plan.schedule.rounds[..makespan]
        .iter()
        .map(|round| {
            sim.step(round).unwrap();
            let fanouts = round.transmissions.iter().map(|tx| tx.to.len());
            let deliveries: usize = fanouts.clone().sum();
            RoundProbe {
                round: sim.time() - 1,
                sent: round.transmissions.len(),
                deliveries,
                max_fanout: fanouts.max().unwrap_or(0),
                idle_receivers: g.n() - deliveries,
                coverage: sim.coverage(),
            }
        })
        .collect()
}

#[test]
fn c8_ring_event_stream_golden() {
    let g = ring(8);
    let events = SharedBuffer::new();
    let recorder = MetricsRecorder::with_sink(Box::new(events.clone()));

    let plan = GossipPlanner::new(&g)
        .unwrap()
        .recorder(&recorder)
        .plan()
        .unwrap();
    assert_eq!(plan.makespan(), 8 + 4); // n + r on the C_8 ring

    let mut sim =
        SimKernel::with_origins(&g, CommModel::Multicast, &plan.origin_of_message).unwrap();
    let flat = FlatSchedule::from_schedule(&plan.schedule);
    let (outcome, _) = sim.run_probed(&flat, &recorder).unwrap();
    assert!(outcome.complete);

    // Golden event sequence. The round payloads come from an independent
    // oracle run, so the recorded stream must agree with it
    // field-for-field.
    let probes = reference_probes(&g);
    assert_eq!(probes.len(), 12);
    let got: Vec<String> = events.lines().iter().map(masked).collect();
    let expected: Vec<String> = [
        // Planning: n BFS sweeps (no early exit on a ring: the tree height 4
        // never beats the degree-based radius floor), then the nested
        // generation spans closing inner-to-outer.
        "spanning_tree mode=sequential sweeps=8 radius=4 root=0",
        "span path=plan/spanning_tree",
        "span path=plan/concurrent_updown/labeling",
        "span path=plan/concurrent_updown/overlay",
        "span path=plan/concurrent_updown",
        "span path=plan",
    ]
    .into_iter()
    .map(str::to_string)
    .chain(probes.iter().map(|p| {
        // `known_pairs` (added for the flight recorder's knowledge curve) is
        // the coverage scaled back to absolute pairs: 8 × 8 = 64 on C_8.
        format!(
            "round round={} sent={} deliveries={} max_fanout={} idle_receivers={} \
             coverage={:.4} known_pairs={}",
            p.round,
            p.sent,
            p.deliveries,
            p.max_fanout,
            p.idle_receivers,
            p.coverage,
            (p.coverage * 64.0).round() as u64
        )
    }))
    .chain(std::iter::once("span path=simulate".to_string()))
    .collect();
    assert_eq!(got, expected);

    // The probes must sum to exactly n(n-1) fresh deliveries (the schedule
    // is redundancy-free) and end at full coverage.
    let lines = events.lines();
    let rounds: Vec<&Value> = lines
        .iter()
        .filter(|e| e["event"].as_str() == Some("round"))
        .collect();
    assert_eq!(rounds.len(), 12);
    let total: u64 = rounds
        .iter()
        .map(|e| e["deliveries"].as_u64().unwrap())
        .sum();
    assert_eq!(total, 8 * 7);
    let coverages: Vec<f64> = rounds
        .iter()
        .map(|e| e["coverage"].as_f64().unwrap())
        .collect();
    assert!(
        coverages.windows(2).all(|w| w[1] >= w[0]),
        "coverage must be monotone"
    );
    assert!((coverages.last().unwrap() - 1.0).abs() < 1e-9);

    // Snapshot: the aggregate view must agree with the event stream.
    let snapshot = recorder.snapshot();
    assert_eq!(snapshot["counters"]["sim/deliveries"].as_u64(), Some(56));
    assert_eq!(snapshot["counters"]["spanning/sweeps"].as_u64(), Some(8));
    assert_eq!(snapshot["gauges"]["plan/radius"].as_f64(), Some(4.0));
    assert_eq!(snapshot["gauges"]["plan/makespan"].as_f64(), Some(12.0));
    assert_eq!(
        snapshot["gauges"]["sim/completion_time"].as_f64(),
        Some(12.0)
    );
    assert_eq!(snapshot["gauges"]["sim/coverage"].as_f64(), Some(1.0));
    // Span timings present exactly once for every planning stage.
    for path in [
        "plan",
        "plan/spanning_tree",
        "plan/concurrent_updown",
        "simulate",
    ] {
        assert_eq!(snapshot["spans"][path]["count"].as_u64(), Some(1), "{path}");
    }
}

#[test]
fn noop_recorder_is_silent_end_to_end() {
    let g = ring(8);
    // The whole pipeline runs against NoopRecorder; equality with the
    // default plan proves the instrumented path is the same computation.
    let recorded = GossipPlanner::new(&g)
        .unwrap()
        .recorder(&NoopRecorder)
        .plan()
        .unwrap();
    let plain = GossipPlanner::new(&g).unwrap().plan().unwrap();
    assert_eq!(recorded.schedule, plain.schedule);
    assert!(!NoopRecorder.enabled());

    let flat = FlatSchedule::from_schedule(&plain.schedule);
    let mut sim =
        SimKernel::with_origins(&g, CommModel::Multicast, &plain.origin_of_message).unwrap();
    let (a, _) = sim.run_probed(&flat, &NoopRecorder).unwrap();
    let mut sim2 =
        Simulator::with_origins(&g, CommModel::Multicast, &plain.origin_of_message).unwrap();
    let b = sim2.run(&plain.schedule).unwrap();
    assert_eq!(a, b);
}
