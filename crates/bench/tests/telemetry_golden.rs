//! Golden tests for the telemetry event streams of a full plan + simulate
//! on the C_8 ring and of the churn and recovery executors. Wall-clock
//! fields (`t_ms`, `elapsed_ns`) are masked; the event sequence, span
//! paths, per-round payloads, and the final snapshot are all
//! deterministic and checked exactly.

use gossip_core::{ChurnExecutor, GossipPlanner, ResilientExecutor};
use gossip_graph::Graph;
use gossip_model::{
    ChurnPlan, CommModel, FaultPlan, FlatSchedule, RoundProbe, SimKernel, Simulator,
};
use gossip_telemetry::{MetricsRecorder, NoopRecorder, Recorder, SharedBuffer, Value};
use gossip_workloads::{fig4_graph, petersen, ring, unit_disk_connected};

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

/// A long masked stream reduced to what a golden can pin: the FNV-1a
/// digest of its lines (each ended by a newline), then the line count of
/// every event name in first-appearance order.
type StreamSummary = (u64, Vec<(String, usize)>);

fn stream_summary(lines: &[String]) -> StreamSummary {
    let mut digest = 0xcbf2_9ce4_8422_2325_u64;
    let mut counts: Vec<(String, usize)> = Vec::new();
    for line in lines {
        for &b in line.as_bytes().iter().chain(b"\n") {
            digest = (digest ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        let name = line.split(' ').next().unwrap_or_default();
        match counts.iter_mut().find(|(n, _)| n == name) {
            Some((_, c)) => *c += 1,
            None => counts.push((name.to_string(), 1)),
        }
    }
    (digest, counts)
}

/// The final snapshot's counters and gauges, one `name=value` line each
/// in the snapshot's order (gauges printed to four decimals).
fn counters_and_gauges(snapshot: &Value) -> Vec<String> {
    let mut out = Vec::new();
    for (k, v) in snapshot["counters"].as_object().expect("counters") {
        out.push(format!(
            "counter {k}={}",
            v.as_u64().expect("integer counter")
        ));
    }
    for (k, v) in snapshot["gauges"].as_object().expect("gauges") {
        out.push(format!(
            "gauge {k}={:.4}",
            v.as_f64().expect("numeric gauge")
        ));
    }
    out
}

/// Runs `run` against a fresh metrics recorder and returns the masked
/// stream's summary with the snapshot's counters and gauges.
fn recorded(run: impl FnOnce(&MetricsRecorder)) -> (StreamSummary, Vec<String>) {
    let events = SharedBuffer::new();
    let recorder = MetricsRecorder::with_sink(Box::new(events.clone()));
    run(&recorder);
    let lines: Vec<String> = events.lines().iter().map(masked).collect();
    (
        stream_summary(&lines),
        counters_and_gauges(&recorder.snapshot()),
    )
}

/// Expected event counts in the shape [`stream_summary`] returns.
fn owned(pairs: &[(&str, usize)]) -> Vec<(String, usize)> {
    pairs.iter().map(|&(n, c)| (n.to_string(), c)).collect()
}

/// The churn executor on fig4 under the plan `gossip churn --graph fig4
/// --churn-rate 0.2 --churn-seed 3` generates: every segment's
/// `round_start` / `round_end` pair at its absolute round, the churn and
/// `churn_invalidated` loss events, and the counters and gauges the
/// segment loop leaves behind.
#[test]
fn fig4_churn_event_stream_golden() {
    let g = fig4_graph();
    let plan = GossipPlanner::new(&g).unwrap().plan().unwrap();
    let horizon = plan.schedule.makespan().saturating_sub(2).max(1) as u32;
    let churn = ChurnPlan::generate(&g, 0.2, 3, horizon);
    let (stream, snapshot) = recorded(|rec| {
        let report = ChurnExecutor::new(&g, &churn).recorder(rec).run().unwrap();
        assert!(report.recovered);
    });
    let counts = [
        ("round_start", 33),
        ("round_end", 33),
        ("churn", 6),
        ("loss", 14),
        ("span", 1),
    ];
    assert_eq!(stream, (0xe931_2b76_e83e_6646, owned(&counts)));
    let want = [
        "counter churn/events=6",
        "counter churn/invalidated=14",
        "counter churn/replanned=14",
        "counter exec/deliveries=240",
        "counter exec/losses=0",
        "gauge churn/epoch_current=6.0000",
        "gauge churn/total_rounds=33.0000",
        "gauge known_pairs=256.0000",
        "gauge round_current=33.0000",
    ];
    assert_eq!(snapshot, want);
}

/// The churn executor on the `unit_disk_connected(72, 0.13, 7)` field of
/// the churn digest golden, churn seed 2.
#[test]
fn unit_disk_churn_event_stream_golden() {
    let (g, _, _) = unit_disk_connected(72, 0.13, 7);
    let churn = ChurnPlan::generate(&g, 0.05, 2, 75);
    let (stream, snapshot) = recorded(|rec| {
        let report = ChurnExecutor::new(&g, &churn).recorder(rec).run().unwrap();
        assert!(report.recovered);
    });
    let counts = [
        ("round_start", 82),
        ("round_end", 82),
        ("churn", 6),
        ("loss", 5),
        ("span", 1),
    ];
    assert_eq!(stream, (0x8d61_5ae5_e53d_96ee, owned(&counts)));
    let want = [
        "counter churn/events=6",
        "counter churn/invalidated=5",
        "counter churn/replanned=5",
        "counter exec/deliveries=5112",
        "counter exec/losses=0",
        "gauge churn/epoch_current=6.0000",
        "gauge churn/total_rounds=82.0000",
        "gauge known_pairs=5184.0000",
        "gauge round_current=82.0000",
    ];
    assert_eq!(snapshot, want);
}

/// The recovery executor on Petersen at 30% loss: every epoch's lossy
/// replay, with its `loss` events, under one recorder.
#[test]
fn petersen_recovery_event_stream_golden() {
    let g = petersen();
    let plan = GossipPlanner::new(&g).unwrap().plan().unwrap();
    let faults = FaultPlan::new(42).with_loss_rate(0.3);
    let (stream, snapshot) = recorded(|rec| {
        let report = ResilientExecutor::new(&g, &plan.schedule, &plan.origin_of_message, &faults)
            .recorder(rec)
            .run()
            .unwrap();
        assert!(report.recovered);
    });
    let counts = [
        ("epoch_start", 5),
        ("round_start", 28),
        ("loss", 100),
        ("round_end", 28),
        ("span", 6),
        ("epoch_end", 5),
    ];
    assert_eq!(stream, (0x1ae3_5cdc_e64c_c435, owned(&counts)));
    let want = [
        "counter exec/deliveries=90",
        "counter exec/losses=100",
        "counter exec/lost/not_held=55",
        "counter exec/lost/sampled=45",
        "counter recovery/epochs=5",
        "counter recovery/lost=100",
        "counter recovery/retransmissions=100",
        "gauge known_pairs=100.0000",
        "gauge recovery/epoch_current=4.0000",
        "gauge recovery/residual_pairs=0.0000",
        "gauge recovery/total_rounds=28.0000",
        "gauge round_current=28.0000",
    ];
    assert_eq!(snapshot, want);
}
