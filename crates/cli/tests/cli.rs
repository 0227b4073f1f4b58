//! End-to-end tests of the `gossip` binary.

use std::process::Command;

fn gossip(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_gossip"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn help_lists_commands() {
    let (ok, stdout, _) = gossip(&["help"]);
    assert!(ok);
    for cmd in [
        "generate", "plan", "trace", "bounds", "exact", "sweep", "analyze", "line",
    ] {
        assert!(stdout.contains(cmd), "missing {cmd}");
    }
}

#[test]
fn unknown_command_fails() {
    let (ok, _, stderr) = gossip(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));
}

#[test]
fn plan_reports_guarantee() {
    let (ok, stdout, _) = gossip(&["plan", "--family", "ring", "--n", "10"]);
    assert!(ok);
    assert!(stdout.contains("makespan: 15 rounds"));
    assert!(stdout.contains("n + r = 15"));
    assert!(stdout.contains("verified (bitset kernel): complete"));
}

#[test]
fn plan_rejects_unknown_algorithm() {
    let (ok, _, stderr) = gossip(&[
        "plan",
        "--family",
        "ring",
        "--n",
        "8",
        "--algorithm",
        "magic",
    ]);
    assert!(!ok);
    assert!(stderr.contains("unknown algorithm"));
}

#[test]
fn generate_plan_round_trip() {
    let dir = std::env::temp_dir().join(format!("gossip-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("g.json");
    let path_str = path.to_str().unwrap();

    let (ok, stdout, _) = gossip(&[
        "generate", "--family", "grid", "--n", "16", "--out", path_str,
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("wrote graph"));

    let (ok, stdout, _) = gossip(&["plan", "--graph", path_str]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("n = 16"));
    assert!(stdout.contains("verified (bitset kernel): complete"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_prints_paper_style_table() {
    let (ok, stdout, _) = gossip(&["trace", "--family", "path", "--n", "9", "--vertex", "4"]);
    assert!(ok);
    assert!(stdout.contains("Receive from Parent"));
    assert!(stdout.contains("Send to Children"));
}

#[test]
fn bounds_on_odd_line() {
    let (ok, stdout, _) = gossip(&["bounds", "--family", "path", "--n", "9"]);
    assert!(ok);
    assert!(stdout.contains("best lower bound:          12"));
    assert!(stdout.contains("achieved (n + r):          13"));
}

#[test]
fn exact_star_five() {
    let (ok, stdout, _) = gossip(&["exact", "--family", "star", "--n", "5"]);
    assert!(ok);
    assert!(stdout.contains("optimal multicast gossip time: 5 rounds"));
}

#[test]
fn exact_rejects_large_n() {
    let (ok, _, stderr) = gossip(&["exact", "--family", "star", "--n", "9"]);
    assert!(!ok);
    assert!(stderr.contains("n <= 8"));
}

#[test]
fn line_schedule_prints_rounds() {
    let (ok, stdout, _) = gossip(&["line", "--n", "5"]);
    assert!(ok);
    assert!(stdout.contains("6 rounds = n + r - 1"));
    assert!(stdout.contains("t0:"));
}

#[test]
fn line_rejects_oversize() {
    let (ok, _, stderr) = gossip(&["line", "--n", "12"]);
    assert!(!ok);
    assert!(stderr.contains("2 <= n <="));
}

#[test]
fn analyze_reports_zero_redundancy() {
    let (ok, stdout, _) = gossip(&["analyze", "--family", "binary-tree", "--n", "15"]);
    assert!(ok);
    assert!(stdout.contains("0 redundant"));
}

#[test]
fn duplicate_flag_rejected() {
    let (ok, _, stderr) = gossip(&["plan", "--n", "4", "--n", "5"]);
    assert!(!ok);
    assert!(stderr.contains("duplicate option"));
}

/// Like [`gossip`] but feeding `stdin` to the child process.
fn gossip_stdin_bytes(args: &[&str], stdin: &[u8]) -> (bool, String, String) {
    use std::io::Write as _;
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_gossip"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    // The child may exit without draining stdin (usage errors reject
    // `diff - -` before reading it), closing the pipe mid-write; a broken
    // pipe is not a test failure — callers assert on the output.
    match child.stdin.take().expect("piped stdin").write_all(stdin) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => {}
        Err(e) => panic!("write stdin: {e}"),
    }
    let out = child.wait_with_output().expect("binary exits");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn gossip_stdin(args: &[&str], stdin: &str) -> (bool, String, String) {
    gossip_stdin_bytes(args, stdin.as_bytes())
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("gossip-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Minimal structural check that a file is a Chrome Trace Event array:
/// a JSON array whose every element carries `ph`, `ts`, `pid`, `tid`.
/// (No JSON dependency in this test crate, so we lex the essentials.)
fn assert_chrome_trace(text: &str) {
    let text = text.trim();
    assert!(
        text.starts_with('[') && text.ends_with(']'),
        "not a JSON array"
    );
    // Split into top-level objects by brace depth.
    let mut depth = 0usize;
    let mut start = None;
    let mut objects = Vec::new();
    let mut in_str = false;
    let mut escape = false;
    for (i, c) in text.char_indices() {
        if escape {
            escape = false;
            continue;
        }
        match c {
            '\\' if in_str => escape = true,
            '"' => in_str = !in_str,
            '{' if !in_str => {
                if depth == 0 {
                    start = Some(i);
                }
                depth += 1;
            }
            '}' if !in_str => {
                depth -= 1;
                if depth == 0 {
                    objects.push(&text[start.unwrap()..=i]);
                }
            }
            _ => {}
        }
    }
    assert!(!objects.is_empty(), "trace has no events");
    for (i, obj) in objects.iter().enumerate() {
        for field in ["\"ph\"", "\"ts\"", "\"pid\"", "\"tid\""] {
            assert!(obj.contains(field), "event {i} missing {field}: {obj}");
        }
    }
}

#[test]
fn plan_trace_out_writes_chrome_trace() {
    let dir = temp_dir("trace");
    let path = dir.join("t.json");
    let path_str = path.to_str().unwrap();
    let (ok, stdout, stderr) = gossip(&[
        "plan",
        "--graph",
        "petersen",
        "--algo",
        "concurrent",
        "--trace-out",
        path_str,
    ]);
    assert!(ok, "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("wrote Chrome trace"));
    let text = std::fs::read_to_string(&path).unwrap();
    assert_chrome_trace(&text);
    // Rule tags from the annotated schedule label the slices.
    assert!(text.contains("[U3]") || text.contains("[U4"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn plan_trace_out_wall_adds_executor_lanes() {
    let dir = temp_dir("wall");
    let path = dir.join("tw.json");
    let path_str = path.to_str().unwrap();
    let (ok, stdout, stderr) = gossip(&[
        "plan",
        "--graph",
        "petersen",
        "--algo",
        "concurrent",
        "--trace-out",
        path_str,
        "--wall",
    ]);
    assert!(ok, "stdout: {stdout}\nstderr: {stderr}");
    let text = std::fs::read_to_string(&path).unwrap();
    assert_chrome_trace(&text);
    assert!(text.contains("online executor (wall clock)"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn provenance_reports_critical_path_within_bound() {
    let (ok, stdout, _) = gossip(&["provenance", "--graph", "petersen", "--algo", "concurrent"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("first-delivery DAG: 90 edges"));
    assert!(stdout.contains("bound n + r = 12"));
    assert!(stdout.contains("vertex slack"));
}

#[test]
fn provenance_artifact_has_schema_version() {
    let dir = temp_dir("prov");
    let path = dir.join("p.json");
    let path_str = path.to_str().unwrap();
    let (ok, _, stderr) = gossip(&[
        "provenance",
        "--family",
        "ring",
        "--n",
        "8",
        "--out",
        path_str,
    ]);
    assert!(ok, "{stderr}");
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.contains("\"schema_version\": 1"), "{text}");
    assert!(text.contains("\"kind\": \"provenance\""));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bench_diff_passes_identical_and_flags_regression() {
    let dir = temp_dir("diff");
    let old = dir.join("old.json");
    let new_ok = dir.join("new_ok.json");
    let new_bad = dir.join("new_bad.json");
    std::fs::write(
        &old,
        r#"{"schema_version": 1, "rows": [{"family": "ring", "n": 16, "makespan": 17, "plan_ms": 1.0}]}"#,
    )
    .unwrap();
    std::fs::copy(&old, &new_ok).unwrap();
    std::fs::write(
        &new_bad,
        r#"{"schema_version": 1, "rows": [{"family": "ring", "n": 16, "makespan": 22, "plan_ms": 1.0}]}"#,
    )
    .unwrap();

    let (ok, stdout, _) = gossip(&[
        "bench-diff",
        old.to_str().unwrap(),
        new_ok.to_str().unwrap(),
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("no regressions"));

    let (ok, stdout, stderr) = gossip(&[
        "bench-diff",
        old.to_str().unwrap(),
        new_bad.to_str().unwrap(),
    ]);
    assert!(!ok, "regression must exit nonzero");
    assert!(stdout.contains("REGRESSION ring/n=16 makespan"), "{stdout}");
    assert!(stderr.contains("regression(s)"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn metrics_stdout_pipes_into_stats_stdin() {
    let (ok, stdout, stderr) = gossip(&["plan", "--family", "ring", "--n", "8", "--metrics", "-"]);
    assert!(ok, "{stderr}");
    // Human output went to stderr; stdout is the pure JSON artifact.
    assert!(stdout.trim_start().starts_with('{'), "{stdout}");
    assert!(stderr.contains("makespan"), "{stderr}");

    let (ok, stats_out, stats_err) = gossip_stdin(&["stats", "-"], &stdout);
    assert!(ok, "{stats_err}");
    assert!(stats_out.contains("plan/makespan"), "{stats_out}");
}

#[test]
fn stats_rejects_unknown_schema_version() {
    let (ok, _, stderr) = gossip_stdin(
        &["stats", "-"],
        r#"{"schema_version": 99, "snapshot": {}, "events": []}"#,
    );
    assert!(!ok);
    assert!(stderr.contains("schema_version"), "{stderr}");
}

#[test]
fn deeply_nested_json_is_an_error_not_a_crash() {
    let dir = temp_dir("deep-json");
    let path = dir.join("deep.json");
    std::fs::write(&path, "[".repeat(1 << 20)).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_gossip"))
        .args(["stats", path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("nesting deeper than 128 at byte 128"),
        "{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stats_renders_recovery_report_epoch_table() {
    let dir = temp_dir("stats-recovery");
    let out = dir.join("rec.json");
    let (ok, _, stderr) = gossip(&[
        "recover",
        "--graph",
        "petersen",
        "--loss-rate",
        "0.3",
        "--fault-seed",
        "42",
        "--out",
        out.to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}");
    let (ok, stdout, stderr) = gossip(&["stats", out.to_str().unwrap()]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("recovery report: n = 10"), "{stdout}");
    assert!(stdout.contains("epoch"), "{stdout}");
    assert!(stdout.contains("base"), "{stdout}");
    assert!(stdout.contains("retransmissions"), "{stdout}");
    assert!(stdout.contains("— recovered"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Minimal HTTP GET over a raw socket (the test crate has no HTTP client);
/// returns the full response, headers included.
fn http_get(addr: &str, path: &str) -> String {
    use std::io::{Read as _, Write as _};
    let mut s = std::net::TcpStream::connect(addr).expect("connect");
    write!(s, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    let mut out = String::new();
    s.read_to_string(&mut out).unwrap();
    out
}

/// Extracts the value of a single-sample metric line (`name 42`).
fn metric_value(exposition: &str, name: &str) -> Option<f64> {
    exposition.lines().find_map(|l| {
        l.strip_prefix(name)
            .and_then(|rest| rest.strip_prefix(' '))
            .and_then(|v| v.trim().parse().ok())
    })
}

#[test]
fn serve_exposes_live_progress_on_random_port() {
    use std::process::Stdio;
    let dir = temp_dir("serve");
    let addr_file = dir.join("addr.txt");
    let child = Command::new(env!("CARGO_BIN_EXE_gossip"))
        .args([
            "serve",
            "--graph",
            "fig4",
            "--loss-rate",
            "0.1",
            "--fault-seed",
            "1",
            "--listen",
            "127.0.0.1:0",
            "--addr-file",
            addr_file.to_str().unwrap(),
            "--round-delay-ms",
            "150",
            "--linger-ms",
            "400",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");

    // The addr file appears once the server is listening.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let addr = loop {
        if let Ok(s) = std::fs::read_to_string(&addr_file) {
            if s.trim().contains(':') {
                break s.trim().to_string();
            }
        }
        assert!(
            std::time::Instant::now() < deadline,
            "addr file never appeared"
        );
        std::thread::sleep(std::time::Duration::from_millis(25));
    };

    let health = http_get(&addr, "/healthz");
    assert!(health.contains("\"status\":\"ok\""), "{health}");

    // First sighting of the round gauge, then a later scrape: the counter
    // must advance while the (paced) run is still going.
    let first = loop {
        let m = http_get(&addr, "/metrics");
        if let Some(v) = metric_value(&m, "gossip_round_current") {
            break v;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "round gauge never appeared"
        );
        std::thread::sleep(std::time::Duration::from_millis(25));
    };
    let last = loop {
        let m = http_get(&addr, "/metrics");
        let v = metric_value(&m, "gossip_round_current").expect("gauge persists");
        let done = http_get(&addr, "/healthz").contains("\"done\":true");
        if v > first || done {
            break v;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "round gauge never advanced"
        );
        std::thread::sleep(std::time::Duration::from_millis(50));
    };
    assert!(
        last > first,
        "gossip_round_current must advance during the run ({first} -> {last})"
    );

    let out = child.wait_with_output().expect("serve exits");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("serving on http://127.0.0.1:"), "{stdout}");
    assert!(stdout.contains("recovered: yes"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn dash_builds_self_contained_report_from_artifacts() {
    let dir = temp_dir("dash");
    let rec = dir.join("rec.json");
    let met = dir.join("met.json");
    let report = dir.join("report.html");
    let (ok, _, stderr) = gossip(&[
        "recover",
        "--graph",
        "petersen",
        "--loss-rate",
        "0.2",
        "--fault-seed",
        "5",
        "--out",
        rec.to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}");
    let (ok, _, stderr) = gossip(&[
        "plan",
        "--family",
        "ring",
        "--n",
        "8",
        "--metrics",
        met.to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}");

    let (ok, stdout, stderr) = gossip(&[
        "dash",
        rec.to_str().unwrap(),
        met.to_str().unwrap(),
        "--out",
        report.to_str().unwrap(),
    ]);
    assert!(ok, "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("(recovery)"), "{stdout}");
    assert!(stdout.contains("(metrics)"), "{stdout}");
    assert!(stdout.contains("wrote dashboard (2 runs"), "{stdout}");
    let html = std::fs::read_to_string(&report).unwrap();
    assert!(html.starts_with("<!doctype html>"), "{html}");
    assert!(html.contains("<svg"), "dashboard needs sparklines");
    for marker in ["http://", "https://", "src=", "href="] {
        assert!(!html.contains(marker), "external asset marker {marker:?}");
    }

    // A directory argument sweeps every artifact inside it.
    let (ok, stdout, _) = gossip(&[
        "dash",
        dir.to_str().unwrap(),
        "--out",
        report.to_str().unwrap(),
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("wrote dashboard (2 runs"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn dash_requires_artifacts() {
    let (ok, _, stderr) = gossip(&["dash"]);
    assert!(!ok);
    assert!(stderr.contains("usage: gossip dash"), "{stderr}");
}

#[test]
fn recover_heals_lossy_run_and_exits_zero() {
    let (ok, stdout, stderr) = gossip(&[
        "recover",
        "--graph",
        "petersen",
        "--loss-rate",
        "0.3",
        "--fault-seed",
        "42",
    ]);
    assert!(ok, "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("fault plan: seed 42, loss rate 0.3"));
    assert!(stdout.contains("recovered: every reachable"), "{stdout}");
    assert!(stdout.contains("retransmissions"));
}

#[test]
fn recover_zero_faults_reports_no_overhead() {
    let (ok, stdout, _) = gossip(&[
        "recover",
        "--family",
        "ring",
        "--n",
        "8",
        "--fault-seed",
        "0",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("overhead +0"), "{stdout}");
    assert!(stdout.contains("0 retransmissions"), "{stdout}");
}

#[test]
fn recover_exhausted_budget_exits_nonzero() {
    let (ok, _, stderr) = gossip(&[
        "recover",
        "--graph",
        "petersen",
        "--loss-rate",
        "0.5",
        "--fault-seed",
        "42",
        "--max-epochs",
        "0",
    ]);
    assert!(!ok, "budget 0 under heavy loss must fail");
    assert!(stderr.contains("recovery incomplete"), "{stderr}");
}

#[test]
fn recover_artifact_and_trace_files() {
    let dir = temp_dir("recover");
    let out = dir.join("report.json");
    let trace = dir.join("trace.json");
    let (ok, stdout, stderr) = gossip(&[
        "recover",
        "--graph",
        "petersen",
        "--loss-rate",
        "0.2",
        "--crash",
        "9@3",
        "--fault-seed",
        "5",
        "--out",
        out.to_str().unwrap(),
        "--trace-out",
        trace.to_str().unwrap(),
    ]);
    assert!(ok, "stdout: {stdout}\nstderr: {stderr}");
    let report = std::fs::read_to_string(&out).unwrap();
    assert!(report.contains("\"schema_version\": 1"), "{report}");
    assert!(report.contains("\"kind\": \"recovery\""));
    assert!(report.contains("\"epochs\""));
    assert_chrome_trace(&std::fs::read_to_string(&trace).unwrap());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recover_rejects_bad_fault_specs() {
    let (ok, _, stderr) = gossip(&[
        "recover", "--family", "ring", "--n", "8", "--crash", "banana",
    ]);
    assert!(!ok);
    assert!(stderr.contains("crash"), "{stderr}");

    let (ok, _, stderr) = gossip(&[
        "recover",
        "--family",
        "ring",
        "--n",
        "8",
        "--outage",
        "0-99@0..5",
    ]);
    assert!(!ok, "out-of-range outage must be rejected");
    assert!(!stderr.is_empty());
}

#[test]
fn plan_with_fault_flags_previews_losses() {
    let (ok, stdout, _) = gossip(&[
        "plan",
        "--family",
        "ring",
        "--n",
        "10",
        "--loss-rate",
        "0.2",
        "--fault-seed",
        "7",
    ]);
    assert!(ok, "{stdout}");
    assert!(
        stdout.contains("under faults (seed 7, loss rate 0.2)"),
        "{stdout}"
    );
    assert!(stdout.contains("gossip recover"), "{stdout}");
}

#[test]
fn plan_flight_out_inspect_and_diff_workflow() {
    let dir = temp_dir("flight");
    let clean = dir.join("clean.gfr");
    let lossy = dir.join("lossy.gfr");
    let clean = clean.to_str().unwrap();
    let lossy = lossy.to_str().unwrap();

    let (ok, stdout, _) = gossip(&["plan", "--graph", "fig4", "--flight-out", clean]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("wrote flight record"), "{stdout}");

    let (ok, stdout, _) = gossip(&[
        "plan",
        "--graph",
        "fig4",
        "--loss-rate",
        "0.1",
        "--fault-seed",
        "1",
        "--flight-out",
        lossy,
    ]);
    assert!(ok, "{stdout}");

    // Time-travel inspection of a mid-run round.
    let (ok, stdout, _) = gossip(&["inspect", clean, "--round", "5"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("flight record: engine"), "{stdout}");
    assert!(stdout.contains("state after round 5"), "{stdout}");

    // A capture diffed against itself is identical: exit 0.
    let (ok, stdout, _) = gossip(&["diff", clean, clean]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("runs are identical"), "{stdout}");

    // Clean vs lossy diverges: nonzero exit naming the first divergent round.
    let (ok, stdout, stderr) = gossip(&["diff", clean, lossy]);
    assert!(!ok, "{stdout}");
    assert!(stdout.contains("runs DIVERGE at round"), "{stdout}");
    assert!(stderr.contains("diverge"), "{stderr}");
}

#[test]
fn fast_planner_flight_capture_is_a_clean_kernel_run() {
    let dir = temp_dir("flight-fast");
    let fast = dir.join("fast.gfr");
    let reference = dir.join("reference.gfr");
    let (fast, reference) = (fast.to_str().unwrap(), reference.to_str().unwrap());
    let (ok, stdout, stderr) = gossip(&[
        "plan",
        "--graph",
        "petersen",
        "--planner",
        "fast",
        "--flight-out",
        fast,
    ]);
    assert!(ok, "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("wrote flight record"), "{stdout}");

    let log = gossip_telemetry::FlightLog::decode(&std::fs::read(fast).unwrap()).unwrap();
    assert_eq!(log.header.engine, "kernel");
    assert_eq!(log.dropped, 0);
    let plan = gossip_core::GossipPlanner::new(&gossip_workloads::petersen())
        .unwrap()
        .plan_fast()
        .unwrap();
    assert_eq!(log.header.schedule_digest, plan.schedule.digest());
    assert_eq!(log.txs().len(), plan.schedule.tx_count());
    let (ok, stdout, _) = gossip(&["inspect", fast]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("anomalies: none"), "{stdout}");

    // Where both planners pick the same tree, the fast capture is the
    // reference path's clean kernel capture, byte for byte.
    for (planner, path) in [("fast", fast), ("reference", reference)] {
        let (ok, stdout, _) = gossip(&[
            "plan",
            "--graph",
            "gnp:200,0.05",
            "--seed",
            "3",
            "--planner",
            planner,
            "--flight-out",
            path,
        ]);
        assert!(ok, "{stdout}");
    }
    assert_eq!(
        std::fs::read(fast).unwrap(),
        std::fs::read(reference).unwrap()
    );

    // Fault flags still need the reference schedule.
    let (ok, _, stderr) = gossip(&[
        "plan",
        "--graph",
        "petersen",
        "--planner",
        "fast",
        "--loss-rate",
        "0.1",
        "--flight-out",
        fast,
    ]);
    assert!(!ok);
    assert!(stderr.contains("needs the reference schedule"), "{stderr}");
}

#[test]
fn stats_classifies_flight_artifacts() {
    let dir = temp_dir("flight-stats");
    let run = dir.join("run.gfr");
    let run = run.to_str().unwrap();
    let (ok, stdout, _) = gossip(&["plan", "--family", "ring", "--n", "10", "--flight-out", run]);
    assert!(ok, "{stdout}");

    let (ok, stdout, _) = gossip(&["stats", run]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("flight record: engine kernel"), "{stdout}");
    assert!(stdout.contains("gossip inspect"), "{stdout}");
}

#[test]
fn profile_reports_phase_table_and_attribution() {
    let (ok, stdout, stderr) = gossip(&["profile", "petersen"]);
    assert!(ok, "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("network: n = 10"), "{stdout}");
    for phase in [
        "plan",
        "spanning_tree",
        "bfs_sweep",
        "concurrent_updown",
        "flatten",
        "validate",
    ] {
        assert!(stdout.contains(phase), "missing phase {phase}: {stdout}");
    }
    assert!(stdout.contains("attribution:"), "{stdout}");
    assert!(stdout.contains("ms in named phases"), "{stdout}");
    assert!(stdout.contains("allocation tracking:"), "{stdout}");
}

#[test]
fn profile_writes_artifact_and_collapsed_stacks() {
    let dir = temp_dir("profile");
    let prof = dir.join("PROF.json");
    let flame = dir.join("prof.flame");
    let (ok, stdout, stderr) = gossip(&[
        "profile",
        "fig4",
        "--out",
        prof.to_str().unwrap(),
        "--flame",
        flame.to_str().unwrap(),
    ]);
    assert!(ok, "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("wrote profile to"), "{stdout}");
    assert!(stdout.contains("collapsed stack line"), "{stdout}");

    let text = std::fs::read_to_string(&prof).unwrap();
    assert!(text.contains("\"schema_version\": 1"), "{text}");
    assert!(text.contains("\"kind\": \"profile\""), "{text}");
    assert!(text.contains("\"phases\""), "{text}");

    // Every flame line is `path;with;semicolons <integer>` — the collapsed
    // stack format flamegraph.pl and speedscope consume.
    let flame_text = std::fs::read_to_string(&flame).unwrap();
    assert!(!flame_text.trim().is_empty(), "flame file is empty");
    for line in flame_text.lines() {
        let (path, count) = line.rsplit_once(' ').expect("`path count` shape");
        assert!(!path.is_empty(), "empty path in {line:?}");
        assert!(count.parse::<u64>().is_ok(), "bad count in {line:?}");
    }
    assert!(
        flame_text
            .lines()
            .any(|l| l.starts_with("plan;spanning_tree")),
        "{flame_text}"
    );

    // The PROF artifact renders through stats and ingests into dash.
    let (ok, stdout, stderr) = gossip(&["stats", prof.to_str().unwrap()]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("planner profile:"), "{stdout}");
    assert!(stdout.contains("attributed"), "{stdout}");

    let report = dir.join("report.html");
    let (ok, stdout, _) = gossip(&[
        "dash",
        prof.to_str().unwrap(),
        "--out",
        report.to_str().unwrap(),
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("(profile)"), "{stdout}");
    let html = std::fs::read_to_string(&report).unwrap();
    assert!(html.contains("construction time by phase"), "{html}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `gossip profile` on the reference planner holds the plan past the
/// timed window. Its `Schedule` keeps one destination list per
/// transmission (hundreds of thousands on this graph), and dropping it
/// inside the window left about a tenth of `plan_ms` unattributed.
#[test]
fn profile_attributes_the_reference_plan_window() {
    let dir = temp_dir("profile-attribution");
    let prof = dir.join("PROF.json");
    let (ok, stdout, stderr) = gossip(&[
        "profile",
        "--graph",
        "gnp:2048,0.0087890625",
        "--seed",
        "51",
        "--out",
        prof.to_str().unwrap(),
    ]);
    assert!(ok, "stdout: {stdout}\nstderr: {stderr}");
    let text = std::fs::read_to_string(&prof).unwrap();
    let pct: f64 = text
        .split("\"attributed_pct\":")
        .nth(1)
        .and_then(|rest| rest.split([',', '\n']).next())
        .and_then(|value| value.trim().parse().ok())
        .unwrap_or_else(|| panic!("no attributed_pct in {text}"));
    assert!(pct >= 95.0, "attributed_pct {pct}: {stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn plan_profile_out_coexists_with_flight_out() {
    let dir = temp_dir("plan-profile");
    let prof = dir.join("PROF.json");
    let flight = dir.join("run.gfr");
    let (ok, stdout, stderr) = gossip(&[
        "plan",
        "--graph",
        "fig4",
        "--profile-out",
        prof.to_str().unwrap(),
        "--flight-out",
        flight.to_str().unwrap(),
    ]);
    assert!(ok, "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("wrote profile to"), "{stdout}");
    assert!(stdout.contains("wrote flight record"), "{stdout}");
    let text = std::fs::read_to_string(&prof).unwrap();
    assert!(text.contains("\"kind\": \"profile\""), "{text}");
    assert!(std::fs::metadata(&flight).unwrap().len() > 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn profile_requires_path_arguments_for_out_flags() {
    let (ok, _, stderr) = gossip(&["profile", "petersen", "--out"]);
    assert!(!ok);
    assert!(stderr.contains("--out requires a file path"), "{stderr}");
}

#[test]
fn stats_rejects_unknown_profile_schema_version() {
    let (ok, _, stderr) = gossip_stdin(
        &["stats", "-"],
        r#"{"schema_version": 99, "kind": "profile", "phases": []}"#,
    );
    assert!(!ok);
    assert!(stderr.contains("schema_version"), "{stderr}");
}

#[test]
fn inspect_rejects_non_flight_files() {
    let dir = temp_dir("flight-junk");
    let junk = dir.join("junk.gfr");
    std::fs::write(&junk, b"{\"not\": \"a flight record\"}").unwrap();
    let (ok, _, stderr) = gossip(&["inspect", junk.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("not a flight record"), "{stderr}");
}

#[test]
fn bench_diff_json_reports_per_field_verdicts() {
    let dir = temp_dir("diff-json");
    let old = dir.join("old.json");
    let new_bad = dir.join("new_bad.json");
    std::fs::write(
        &old,
        r#"{"schema_version": 1, "rows": [{"family": "ring", "n": 16, "makespan": 17, "plan_ms": 1.0}]}"#,
    )
    .unwrap();
    std::fs::write(
        &new_bad,
        r#"{"schema_version": 1, "rows": [{"family": "ring", "n": 16, "makespan": 22, "plan_ms": 1.0}]}"#,
    )
    .unwrap();
    let (ok, stdout, stderr) = gossip(&[
        "bench-diff",
        old.to_str().unwrap(),
        new_bad.to_str().unwrap(),
        "--json",
    ]);
    assert!(!ok, "regression must still exit nonzero under --json");
    assert!(stderr.contains("regression(s)"), "{stderr}");
    // Machine-readable body: overall verdict plus one check per field,
    // each carrying the threshold it was judged against.
    assert!(stdout.contains("\"kind\": \"bench-diff\""), "{stdout}");
    assert!(stdout.contains("\"ok\": false"), "{stdout}");
    assert!(stdout.contains("\"field\": \"makespan\""), "{stdout}");
    assert!(stdout.contains("\"regime\": \"deterministic\""), "{stdout}");
    assert!(stdout.contains("\"regime\": \"wall\""), "{stdout}");
    assert!(stdout.contains("\"threshold\""), "{stdout}");
    assert!(stdout.contains("\"delta_pct\""), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn plan_alerts_fire_render_and_gate() {
    let dir = temp_dir("alerts");
    let rules = dir.join("rules.json");
    let artifact = dir.join("alerts.json");
    // A hair-trigger loss-spike rule: any lost delivery fires it.
    std::fs::write(
        &rules,
        r#"{"schema_version": 1, "rules": [
            {"rule": "loss_spike", "rate": 0.01, "min_count": 1, "severity": "critical"}]}"#,
    )
    .unwrap();
    let lossy = [
        "plan",
        "--graph",
        "petersen",
        "--loss-rate",
        "0.9",
        "--fault-seed",
        "1",
        "--alerts",
        rules.to_str().unwrap(),
    ];
    let (ok, stdout, stderr) =
        gossip(&[&lossy[..], &["--alerts-out", artifact.to_str().unwrap()]].concat());
    assert!(ok, "{stderr}");
    assert!(stdout.contains("alerts:"), "{stdout}");
    assert!(stdout.contains("[critical] loss_spike"), "{stdout}");
    assert!(stdout.contains("wrote alerts artifact"), "{stdout}");

    let (ok, stats_out, stats_err) = gossip(&["stats", artifact.to_str().unwrap()]);
    assert!(ok, "{stats_err}");
    assert!(stats_out.contains("alerts artifact:"), "{stats_out}");
    assert!(stats_out.contains("loss_spike"), "{stats_out}");

    // --alerts-fatal turns the fired rule into a gate.
    let (ok, _, stderr) = gossip(&[&lossy[..], &["--alerts-fatal"]].concat());
    assert!(!ok, "--alerts-fatal must exit nonzero when a rule fired");
    assert!(stderr.contains("--alerts-fatal"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn plan_clean_run_fires_no_alerts() {
    // Bare --alerts enables the built-in rule set; a clean fast run must
    // end silent and pass even under --alerts-fatal.
    let (ok, stdout, stderr) = gossip(&[
        "plan",
        "--family",
        "ring",
        "--n",
        "8",
        "--alerts",
        "--alerts-fatal",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("alerts: none fired"), "{stdout}");
}

#[test]
fn dash_check_gates_on_doctored_regression() {
    let dir = temp_dir("dash-check");
    let profile = |makespan: u64| {
        format!(
            r#"{{"schema_version": 1, "kind": "profile", "n": 64, "m": 96,
                 "makespan": {makespan}, "plan_ms": 1.0}}"#
        )
    };
    for i in 0..5 {
        std::fs::write(dir.join(format!("PROF_{i}.json")), profile(130)).unwrap();
    }
    let report = dir.join("report.html");
    let (ok, stdout, stderr) = gossip(&[
        "dash",
        dir.to_str().unwrap(),
        "--out",
        report.to_str().unwrap(),
        "--check",
    ]);
    assert!(ok, "{stderr}");
    assert!(
        stdout.contains("check: no cross-run regressions detected"),
        "{stdout}"
    );

    // Doctor the newest run to a 2x makespan: --check must exit nonzero
    // and name the offender.
    std::fs::write(dir.join("PROF_4.json"), profile(260)).unwrap();
    let (ok, stdout, stderr) = gossip(&[
        "dash",
        dir.to_str().unwrap(),
        "--out",
        report.to_str().unwrap(),
        "--check",
    ]);
    assert!(!ok, "doctored set must fail --check");
    assert!(stdout.contains("regression:"), "{stdout}");
    assert!(stdout.contains("makespan"), "{stdout}");
    assert!(stderr.contains("regression(s) detected"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn inspect_and_diff_read_flight_records_from_stdin() {
    let dir = temp_dir("flight-stdin");
    let gfr = dir.join("run.gfr");
    let (ok, _, stderr) = gossip(&[
        "plan",
        "--family",
        "ring",
        "--n",
        "8",
        "--flight-out",
        gfr.to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}");
    let bytes = std::fs::read(&gfr).unwrap();

    let (ok, stdout, stderr) = gossip_stdin_bytes(&["inspect", "-"], &bytes);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("flight record:"), "{stdout}");

    let (ok, stdout, stderr) = gossip_stdin_bytes(&["diff", "-", gfr.to_str().unwrap()], &bytes);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("identical"), "{stdout}");

    // Junk on stdin gets the same magic-sniff rejection as a junk file.
    let (ok, _, stderr) = gossip_stdin_bytes(&["inspect", "-"], b"not a capture");
    assert!(!ok);
    assert!(stderr.contains("not a flight record"), "{stderr}");

    // Both sides of a diff cannot stream from one stdin.
    let (ok, _, stderr) = gossip_stdin_bytes(&["diff", "-", "-"], &bytes);
    assert!(!ok);
    assert!(stderr.contains("stdin"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Like [`gossip`] but run with `dir` as the working directory.
fn gossip_in(dir: &std::path::Path, args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_gossip"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Byte length and FNV-1a digest of an artifact `gossip_in` wrote.
fn artifact(dir: &std::path::Path, name: &str) -> (usize, u64) {
    let bytes = std::fs::read(dir.join(name)).unwrap();
    let mut d = gossip_telemetry::flight::Digest::new();
    d.write_bytes(&bytes);
    (bytes.len(), d.finish())
}

/// A ConcurrentUpDown `--trace-out`, pinned to the bytes it held when
/// the rule tags came from a per-vertex overlay of their own instead of
/// the generator's walk. Both traces carry all seven tag kinds.
#[test]
fn plan_trace_out_matches_goldens() {
    let dir = temp_dir("golden-trace");
    for (graph, golden) in [
        ("petersen", (16582, 0xe116_f391_8350_de87)),
        ("fig5", (43445, 0x41e4_06cb_b980_640c)),
    ] {
        let (ok, stdout, stderr) = gossip_in(
            &dir,
            &[
                "plan",
                "--graph",
                graph,
                "--algo",
                "concurrent",
                "--trace-out",
                "T",
            ],
        );
        assert!(ok, "stdout: {stdout}\nstderr: {stderr}");
        assert_eq!(artifact(&dir, "T"), golden, "{graph}");
        let text = std::fs::read_to_string(dir.join("T")).unwrap();
        for tag in ["[U3]", "[U4]", "[U4+D3]", "[D3]", "[D3*]", "[D2]", "[D2*]"] {
            assert!(text.contains(tag), "{graph}: no {tag} slice");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Every sink of a run at once, pinned to the bytes they held before
/// the recorder stacks moved behind one builder.
#[test]
fn recover_with_every_sink_matches_goldens() {
    let dir = temp_dir("golden-recover");
    let (ok, stdout, stderr) = gossip_in(
        &dir,
        &[
            "recover",
            "--graph",
            "petersen",
            "--loss-rate",
            "0.2",
            "--crash",
            "9@3",
            "--fault-seed",
            "5",
            "--out",
            "R",
            "--trace-out",
            "T",
            "--flight-out",
            "F",
            "--metrics",
            "M",
            "--alerts",
            "--alerts-out",
            "A",
        ],
    );
    assert!(ok, "stdout: {stdout}\nstderr: {stderr}");
    assert_eq!(artifact(&dir, "F"), (1508, 0x1c7d_a8c0_ce23_1c5a));
    assert_eq!(artifact(&dir, "R").1, 0x3e48_300a_937f_e7a1);
    assert_eq!(artifact(&dir, "A").1, 0x30f9_9ddf_035e_a3ea);
    let metrics = std::fs::read_to_string(dir.join("M")).unwrap();
    assert!(
        metrics.contains("\"alerts/bound/critical\": 1,"),
        "{metrics}"
    );
    assert!(
        metrics.contains("\"alerts/loss_spike/warn\": 1,"),
        "{metrics}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn churn_with_every_sink_matches_goldens() {
    let dir = temp_dir("golden-churn");
    let (ok, stdout, stderr) = gossip_in(
        &dir,
        &[
            "churn",
            "--graph",
            "fig4",
            "--churn-rate",
            "0.2",
            "--churn-seed",
            "3",
            "--flight-out",
            "F",
            "--metrics",
            "M",
            "--alerts",
            "--alerts-out",
            "A",
            "--out",
            "C",
            "--churn-out",
            "P",
        ],
    );
    assert!(ok, "stdout: {stdout}\nstderr: {stderr}");
    assert_eq!(artifact(&dir, "F"), (1244, 0x7357_f9fc_6bbf_eb52));
    assert_eq!(artifact(&dir, "C").1, 0x2a23_f595_6036_3602);
    assert_eq!(artifact(&dir, "A").1, 0xa4a1_af15_4618_fb69);
    assert_eq!(artifact(&dir, "P").1, 0x95a9_f70d_222c_7023);
    let metrics = std::fs::read_to_string(dir.join("M")).unwrap();
    assert!(
        metrics.contains("\"alerts/bound/critical\": 1,"),
        "{metrics}"
    );

    // Replaying the saved plan fingerprints it in the header's fault slot.
    let (ok, stdout, stderr) = gossip_in(
        &dir,
        &[
            "churn",
            "--graph",
            "fig4",
            "--churn-plan",
            "P",
            "--flight-out",
            "F2",
        ],
    );
    assert!(ok, "stdout: {stdout}\nstderr: {stderr}");
    assert_eq!(artifact(&dir, "F2"), (1224, 0x5204_865a_b6d1_4644));
    std::fs::remove_dir_all(&dir).ok();
}

/// The `attributed_pct` of a PROF artifact's text.
fn attributed_pct(text: &str) -> f64 {
    text.split("\"attributed_pct\":")
        .nth(1)
        .and_then(|rest| rest.split([',', '\n']).next())
        .and_then(|value| value.trim().parse().ok())
        .unwrap_or_else(|| panic!("no attributed_pct in {text}"))
}

/// Runs `args` with `--profile-out PROF.json` in a fresh directory and
/// checks the PROF artifact: at least 90% of the window in named phases,
/// and a node for each of `phases`.
fn assert_profiled(tag: &str, args: &[&str], phases: &[&str]) {
    let dir = temp_dir(tag);
    let args = [args, &["--profile-out", "PROF.json"]].concat();
    let (ok, stdout, stderr) = gossip_in(&dir, &args);
    assert!(ok, "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("ms in named phases"), "{stdout}");
    assert!(stdout.contains("wrote profile to PROF.json"), "{stdout}");
    let text = std::fs::read_to_string(dir.join("PROF.json")).unwrap();
    assert!(text.contains("\"kind\": \"profile\""), "{text}");
    let pct = attributed_pct(&text);
    assert!(pct >= 90.0, "attributed_pct {pct}: {text}");
    for phase in phases {
        let node = format!("\"name\": \"{phase}\"");
        assert!(text.contains(&node), "missing phase {phase}: {text}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn churn_profile_out_attributes_the_repair() {
    assert_profiled(
        "churn-profile",
        &[
            "churn",
            "--graph",
            "unit-disk:72,0.13",
            "--seed",
            "7",
            "--churn-rate",
            "0.05",
            "--churn-seed",
            "2",
        ],
        &[
            "churn",
            "setup",
            "kernel_replay",
            "tree_maintenance",
            "invalidation",
            "projection",
            "completion_planning",
            "bound_guard",
        ],
    );
}

#[test]
fn recover_profile_out_attributes_replay_and_repair() {
    assert_profiled(
        "recover-profile",
        &[
            "recover",
            "--graph",
            "unit-disk:72,0.13",
            "--seed",
            "7",
            "--loss-rate",
            "0.1",
            "--fault-seed",
            "1",
        ],
        &["recover", "epoch", "kernel_replay", "completion_planning"],
    );
}

#[test]
fn churn_rejects_a_plan_past_the_round_bound() {
    // Node 3 of C_8 leaves at round 1 and rejoins at round 2,000,000. If
    // accepted, the run's dense transcripts would take about 100 MiB.
    let dir = temp_dir("churn-far-round");
    std::fs::write(
        dir.join("P"),
        r#"{"schema_version": 1, "seed": 0, "events": [
            {"round": 1, "op": "NodeLeave", "u": 3, "v": 3, "down_for": 0},
            {"round": 2000000, "op": "NodeJoin", "u": 3, "v": 3, "down_for": 0},
            {"round": 2000000, "op": "EdgeAdd", "u": 2, "v": 3, "down_for": 0},
            {"round": 2000000, "op": "EdgeAdd", "u": 3, "v": 4, "down_for": 0}]}"#,
    )
    .unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_gossip"))
        .args(["churn", "--family", "ring", "--n", "8", "--churn-plan", "P"])
        .current_dir(&dir)
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains(
            "node_join at round 2000000 names round 2000000, past the last round \
             a plan may name (1048576)"
        ),
        "{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_with_flight_and_alerts_matches_goldens() {
    let dir = temp_dir("golden-serve");
    let (ok, stdout, stderr) = gossip_in(
        &dir,
        &[
            "serve",
            "--graph",
            "fig4",
            "--loss-rate",
            "0.1",
            "--fault-seed",
            "1",
            "--listen",
            "127.0.0.1:0",
            "--flight-out",
            "F",
            "--alerts",
            "--alerts-out",
            "A",
        ],
    );
    assert!(ok, "stdout: {stdout}\nstderr: {stderr}");
    assert_eq!(artifact(&dir, "F"), (2740, 0x9a7b_96ab_c755_f543));
    assert_eq!(artifact(&dir, "A").1, 0x48a0_3841_7bdd_8207);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn plan_lossy_alerts_and_capture_match_goldens() {
    let dir = temp_dir("golden-plan");
    let (ok, stdout, stderr) = gossip_in(
        &dir,
        &[
            "plan",
            "--graph",
            "fig4",
            "--loss-rate",
            "0.3",
            "--fault-seed",
            "1",
            "--alerts",
            "--alerts-out",
            "A",
            "--flight-out",
            "F",
            "--metrics",
            "M",
        ],
    );
    assert!(ok, "stdout: {stdout}\nstderr: {stderr}");
    assert_eq!(artifact(&dir, "F"), (1988, 0xeb37_9a77_4e7f_2a38));
    assert_eq!(artifact(&dir, "A").1, 0xa486_38e8_01f1_a82d);
    // The alert pass records into the watchdog alone, not the metrics.
    let metrics = std::fs::read_to_string(dir.join("M")).unwrap();
    assert!(!metrics.contains("\"alerts/"), "{metrics}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn value_less_out_is_rejected_before_any_write() {
    let dir = temp_dir("out-true");
    for args in [
        &["plan", "--family", "ring", "--n", "6", "--out"][..],
        &["generate", "--family", "ring", "--n", "6", "--out"],
        &["dash", ".", "--out"],
    ] {
        let (ok, _, stderr) = gossip_in(&dir, args);
        assert!(!ok, "{args:?} must exit nonzero");
        assert!(stderr.contains("--out requires a file path"), "{stderr}");
        assert!(!dir.join("true").exists(), "{args:?} wrote ./true");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fast_planner_honours_alert_flags() {
    let dir = temp_dir("fast-alerts");
    let (ok, stdout, stderr) = gossip_in(
        &dir,
        &[
            "plan",
            "--graph",
            "gnp:300,0.05",
            "--seed",
            "3",
            "--planner",
            "fast",
            "--alerts",
            "--alerts-out",
            "A",
            "--alerts-fatal",
        ],
    );
    assert!(ok, "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("alerts: none fired"), "{stdout}");
    let text = std::fs::read_to_string(dir.join("A")).unwrap();
    assert!(text.contains("\"kind\": \"alerts\""), "{text}");
    assert!(text.contains("\"alerts\": []"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}
