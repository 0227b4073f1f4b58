//! Golden test of the Prometheus `/metrics` exposition on a deterministic
//! C_8 run, plus an `/events` NDJSON schema test over the live HTTP
//! server.
//!
//! The exposition is rendered from a [`LiveRegistry`] fed by the full
//! pipeline — plan, probed kernel replay, resilient (fault-free) execution —
//! so every metric family the live layer publishes appears: counters,
//! knowledge-curve gauges, histogram buckets, span completion counts, and
//! the event counter. Span *durations* are deliberately excluded from
//! `/metrics`, and the tallies of wall-clock `*_ns` histograms are masked
//! here (their layout and counts are still pinned), so the rest of the
//! file is compared byte-for-byte against `tests/golden/metrics_c8.prom`.
//! Regenerate with `BLESS=1 cargo test -p gossip-bench --test obsd_golden`.

use gossip_core::{GossipPlanner, ResilientExecutor};
use gossip_model::{CommModel, FaultPlan, FlatSchedule, SimKernel};
use gossip_obsd::{prometheus, ObsdServer};
use gossip_telemetry::{LiveRegistry, Value};
use gossip_workloads::ring;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

/// Runs the deterministic C_8 pipeline against one registry.
fn run_c8(registry: &LiveRegistry) {
    let g = ring(8);
    let plan = GossipPlanner::new(&g)
        .unwrap()
        .recorder(registry)
        .plan()
        .unwrap();
    let mut sim =
        SimKernel::with_origins(&g, CommModel::Multicast, &plan.origin_of_message).unwrap();
    let flat = FlatSchedule::from_schedule(&plan.schedule);
    let (outcome, _) = sim.run_probed(&flat, registry).unwrap();
    assert!(outcome.complete);
    let faults = FaultPlan::none();
    let report = ResilientExecutor::new(&g, &plan.schedule, &plan.origin_of_message, &faults)
        .recorder(registry)
        .run()
        .unwrap();
    assert!(report.recovered);
}

#[test]
fn c8_metrics_exposition_golden() {
    let registry = LiveRegistry::new();
    run_c8(&registry);
    let got = prometheus::render(&registry);

    // Spot-check the contract the ISSUE names before the byte-level diff,
    // so a drift failure still says *what* broke.
    for needle in [
        "# TYPE gossip_known_pairs gauge\ngossip_known_pairs 64\n",
        "# TYPE gossip_round_current gauge\ngossip_round_current 12\n",
        "gossip_recovery_epochs 1\n",
        "gossip_recovery_retransmissions 0\n",
        "gossip_recovery_residual_pairs 0\n",
        "gossip_exec_deliveries 56\n",
        "gossip_sim_fanout_max_bucket{le=\"+Inf\"} 12\n",
        "gossip_span_completed_total{path=\"recover/epoch\"} 1\n",
    ] {
        assert!(got.contains(needle), "missing {needle:?} in:\n{got}");
    }

    let got = mask_wall_clock(&got);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/metrics_c8.prom");
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(path, &got).unwrap();
    }
    let want =
        std::fs::read_to_string(path).expect("golden file missing — regenerate with BLESS=1");
    assert_eq!(
        got, want,
        "exposition drifted from the golden; BLESS=1 to regenerate"
    );
}

/// Masks the sample values of wall-clock histograms (`*_ns_bucket` /
/// `*_ns_sum` lines): which bucket a nanosecond timing lands in varies run
/// to run. The family names, bucket layout (`le` labels), and `_count`
/// lines stay exact — only the nondeterministic tallies are masked.
fn mask_wall_clock(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for line in text.lines() {
        let family_is_wall_clock = line.starts_with("gossip_")
            && (line.contains("_ns_bucket{") || line.contains("_ns_sum "));
        if family_is_wall_clock {
            let prefix = line.rsplit_once(' ').expect("sample line").0;
            out.push_str(prefix);
            out.push_str(" MASKED\n");
        } else {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

#[test]
fn events_endpoint_streams_parseable_monotone_ndjson() {
    let registry = Arc::new(LiveRegistry::new());
    let server = ObsdServer::start("127.0.0.1:0", Arc::clone(&registry)).unwrap();

    // Subscribe before the run so the stream sees every event.
    let mut conn = TcpStream::connect(server.addr()).unwrap();
    write!(conn, "GET /events HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    std::thread::sleep(std::time::Duration::from_millis(150));

    run_c8(&registry);
    server.health().set_done();
    let mut response = String::new();
    conn.read_to_string(&mut response).unwrap();
    let body = response
        .split("\r\n\r\n")
        .nth(1)
        .expect("headers/body split");

    let mut seqs = Vec::new();
    let mut round_ends = Vec::new();
    let mut names = std::collections::BTreeSet::new();
    for line in body.lines() {
        let v: Value = serde_json::from_str(line)
            .unwrap_or_else(|e| panic!("unparseable NDJSON line {line:?}: {e:?}"));
        let name = v["event"].as_str().expect("event name").to_string();
        seqs.push(v["seq"].as_u64().expect("seq"));
        assert!(v["t_ms"].as_f64().is_some(), "t_ms missing in {line}");
        if name == "round_end" {
            round_ends.push(v["round"].as_u64().expect("round"));
        }
        names.insert(name);
    }
    assert_eq!(seqs.len(), registry.events_emitted() as usize);
    assert!(
        seqs.windows(2).all(|w| w[1] > w[0]),
        "event seq must be strictly increasing: {seqs:?}"
    );
    // The fault-free resilient run executes the 12-round base schedule
    // once; its round stream must be strictly monotone.
    assert_eq!(round_ends.len(), 12);
    assert!(round_ends.windows(2).all(|w| w[1] > w[0]));
    for required in ["round_start", "round_end", "epoch_start", "epoch_end"] {
        assert!(names.contains(required), "no {required} event in {names:?}");
    }
    server.stop();
}
