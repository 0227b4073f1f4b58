//! Commands that read artifacts back: `stats`, `inspect`, `diff`, `dash`
//! and `bench-diff`.

use super::path_option;
use super::profile::render_profile_phases;
use crate::args::Args;
use gossip_bench::{diff_bench, DiffConfig};
use gossip_obsd::{render_dashboard, History};
use gossip_telemetry::flight::FlightLog;
use gossip_telemetry::{check_schema_version, Value};

/// Reads and decodes one `.gfr` capture; `-` reads the capture from
/// stdin (same convention as `gossip stats -`), so a recording command
/// can pipe straight into `gossip inspect -`.
fn read_flight(path: &str) -> Result<FlightLog, String> {
    let bytes = if path == "-" {
        use std::io::Read as _;
        let mut buf = Vec::new();
        std::io::stdin()
            .read_to_end(&mut buf)
            .map_err(|e| format!("stdin: {e}"))?;
        buf
    } else {
        std::fs::read(path).map_err(|e| format!("{path}: {e}"))?
    };
    if !FlightLog::sniff(&bytes) {
        return Err(format!("{path}: not a flight record (bad magic)"));
    }
    FlightLog::decode(&bytes).map_err(|e| format!("{path}: {e}"))
}

/// `gossip stats`: human summary of a metrics file written via `--metrics`,
/// a recovery report, or a `.gfr` flight record (recognized by content,
/// not extension). The path `-` reads the artifact from stdin, so
/// `--metrics -` output can be piped straight in.
pub fn stats(args: &Args) -> Result<(), String> {
    let path = args
        .positional
        .first()
        .ok_or("usage: gossip stats METRICS.json|RUN.gfr  (or `-` for stdin)")?;
    let bytes = if path == "-" {
        use std::io::Read as _;
        let mut buf = Vec::new();
        std::io::stdin()
            .read_to_end(&mut buf)
            .map_err(|e| format!("stdin: {e}"))?;
        buf
    } else {
        std::fs::read(path).map_err(|e| format!("{path}: {e}"))?
    };
    if FlightLog::sniff(&bytes) {
        let log = FlightLog::decode(&bytes).map_err(|e| format!("{path}: {e}"))?;
        let report = gossip_obsd::inspect(&log, None)?;
        print!("{}", gossip_obsd::postmortem::render_inspect(&report));
        let losses = gossip_obsd::postmortem::loss_breakdown(&log);
        if !losses.is_empty() {
            println!("losses by cause: {losses}");
        }
        println!("(full time-travel view: `gossip inspect {path} --round R`)");
        return Ok(());
    }
    let text = std::str::from_utf8(&bytes)
        .map_err(|_| format!("{path}: neither a flight record nor UTF-8 JSON"))?;
    let doc: Value = serde_json::from_str(text).map_err(|e| format!("{path}: {e}"))?;
    check_schema_version(&doc).map_err(|e| format!("{path}: {e}"))?;
    // `gossip recover --out` reports are also schema-versioned artifacts;
    // summarize them with their own (epoch table) rendering.
    if doc.get("kind").and_then(Value::as_str) == Some("recovery") {
        return stats_recovery(&doc);
    }
    // `gossip churn --out` reports render as their per-batch repair table.
    if doc.get("kind").and_then(Value::as_str) == Some("churn") {
        return stats_churn(&doc);
    }
    // PROF artifacts (`gossip profile --out`, `gossip plan --profile-out`)
    // render as an indented phase table.
    if doc.get("kind").and_then(Value::as_str) == Some("profile") {
        return stats_profile(&doc);
    }
    // Watchdog artifacts (`--alerts-out`) render as an alert timeline.
    if doc.get("kind").and_then(Value::as_str) == Some("alerts") {
        return stats_alerts(&doc);
    }
    let snapshot = &doc["snapshot"];

    let section = |title: &str, key: &str, fmt: &dyn Fn(&Value) -> String| {
        if let Some(entries) = snapshot[key].as_object() {
            if !entries.is_empty() {
                println!("{title}:");
                for (name, v) in entries {
                    println!("  {name:<32} {}", fmt(v));
                }
            }
        }
    };
    let scalar = |v: &Value| {
        v.as_u64()
            .map(|u| u.to_string())
            .or_else(|| v.as_f64().map(|f| format!("{f:.3}")))
            .unwrap_or_else(|| "?".into())
    };
    let summary = |v: &Value| {
        format!(
            "n={} total={} p50={} p99={} max={}",
            scalar(&v["count"]),
            scalar(&v["total"]),
            scalar(&v["p50"]),
            scalar(&v["p99"]),
            scalar(&v["max"])
        )
    };
    section("spans (ms)", "spans", &summary);
    section("counters", "counters", &scalar);
    section("gauges", "gauges", &scalar);
    section("histograms", "histograms", &summary);

    let events = doc["events"].as_array().cloned().unwrap_or_default();
    let rounds: Vec<&Value> = events
        .iter()
        .filter(|e| e["event"].as_str() == Some("round"))
        .collect();
    println!(
        "events: {} total, {} per-round probes",
        events.len(),
        rounds.len()
    );
    if !rounds.is_empty() {
        let curve: Vec<f64> = rounds
            .iter()
            .filter_map(|e| e["coverage"].as_f64())
            .collect();
        println!(
            "coverage curve: |{}|",
            gossip_model::render_sparkline(&curve)
        );
        let last = rounds.last().unwrap();
        println!(
            "final round {}: coverage {}, {} idle receivers",
            scalar(&last["round"]),
            scalar(&last["coverage"]),
            scalar(&last["idle_receivers"])
        );
    }
    Ok(())
}

/// Renders a PROF artifact (`kind: "profile"`) for `gossip stats`: the
/// header scalars plus the indented phase table `gossip profile` prints.
fn stats_profile(doc: &Value) -> Result<(), String> {
    let int = |k: &str| {
        doc.get(k)
            .and_then(Value::as_u64)
            .map(|u| u.to_string())
            .unwrap_or_else(|| "?".into())
    };
    let ms = |k: &str| doc.get(k).and_then(Value::as_f64).unwrap_or(0.0);
    println!(
        "planner profile: {} on n = {}, m = {}, radius {} (makespan {})",
        doc.get("algorithm").and_then(Value::as_str).unwrap_or("?"),
        int("n"),
        int("m"),
        int("radius"),
        int("makespan")
    );
    println!(
        "construction {:.3} ms — attributed {:.3} ms ({:.1}%), unattributed {:.3} ms",
        ms("plan_ms"),
        ms("attributed_ms"),
        ms("attributed_pct"),
        ms("unattributed_ms")
    );
    print!("{}", render_profile_phases(&doc["phases"]));
    if doc.get("alloc_tracking").and_then(Value::as_bool) == Some(true) {
        println!("allocation stats recorded by the prof-alloc counting allocator (process-global attribution)");
    }
    Ok(())
}

/// Renders a watchdog artifact (`kind: "alerts"`, from `--alerts-out`)
/// for `gossip stats`: the alert timeline in firing order, mirroring
/// the epilogue the monitored command printed.
fn stats_alerts(doc: &Value) -> Result<(), String> {
    let alerts = doc["alerts"].as_array().cloned().unwrap_or_default();
    println!(
        "alerts artifact: {} alert(s){}",
        alerts.len(),
        if doc["critical"].as_bool() == Some(true) {
            " (critical)"
        } else {
            ""
        }
    );
    for a in &alerts {
        println!(
            "  round {:>3}: [{}] {} — {} (value {:.2}, threshold {:.2})",
            a["round"].as_u64().unwrap_or(0),
            a["severity"].as_str().unwrap_or("?"),
            a["rule"].as_str().unwrap_or("?"),
            a["message"].as_str().unwrap_or(""),
            a["value"].as_f64().unwrap_or(0.0),
            a["threshold"].as_f64().unwrap_or(0.0)
        );
    }
    if alerts.is_empty() {
        println!("  (clean run — every monitored invariant held)");
    }
    Ok(())
}

/// Renders a `ChurnReport` artifact (`kind: "churn"`) for `gossip stats`:
/// the per-batch repair table plus the final-bound verdict, mirroring
/// what `gossip churn` printed when it wrote the file.
fn stats_churn(doc: &Value) -> Result<(), String> {
    let int = |v: &Value| {
        v.as_u64()
            .map(|u| u.to_string())
            .unwrap_or_else(|| "?".into())
    };
    println!(
        "churn report: n = {}, {} event(s) applied, baseline {} rounds",
        int(&doc["n"]),
        int(&doc["events_applied"]),
        int(&doc["baseline_rounds"])
    );
    let batches = doc["batches"].as_array().cloned().unwrap_or_default();
    if !batches.is_empty() {
        println!(
            "{:>6} {:>7} {:>12} {:>12} {:>12} {:>9}",
            "round", "events", "invalidated", "repair", "replanned", "scratch"
        );
        for b in &batches {
            println!(
                "{:>6} {:>7} {:>12} {:>12} {:>12} {:>9}",
                int(&b["round"]),
                int(&b["events"]),
                int(&b["invalidated_deliveries"]),
                b["decision"].as_str().unwrap_or("?"),
                int(&b["repaired_entries"]),
                int(&b["scratch_entries"])
            );
        }
    }
    println!(
        "repair: {} incremental, {} full replan(s); {} entr(ies) replanned vs {} from scratch",
        int(&doc["incremental_repairs"]),
        int(&doc["full_replans"]),
        int(&doc["repaired_entries"]),
        int(&doc["scratch_entries"])
    );
    println!(
        "totals: {} round(s), {} completion epoch(s), {} delivery(ies) invalidated",
        int(&doc["total_rounds"]),
        int(&doc["completion_epochs"]),
        int(&doc["deliveries_invalidated"])
    );
    let unrecoverable = doc["unrecoverable"].as_array().map_or(0, Vec::len);
    let verdict = match (
        doc["recovered"].as_bool(),
        doc["within_final_bound"].as_bool(),
    ) {
        (Some(true), Some(true)) => "recovered WITHIN the final n + r bound",
        (Some(true), _) => "recovered (bound undefined or exceeded)",
        _ => "INCOMPLETE",
    };
    println!(
        "verdict: {verdict}; {} round(s) after the last event vs bound {}; {unrecoverable} unrecoverable pair(s)",
        int(&doc["rounds_after_last_event"]),
        int(&doc["final_bound"]),
    );
    Ok(())
}

/// Renders a `RecoveryReport` artifact (`kind: "recovery"`) for `gossip
/// stats`: the per-epoch table plus a residual summary, mirroring what
/// `gossip recover` printed when it wrote the file.
fn stats_recovery(doc: &Value) -> Result<(), String> {
    let int = |v: &Value| {
        v.as_u64()
            .map(|u| u.to_string())
            .unwrap_or_else(|| "?".into())
    };
    println!(
        "recovery report: n = {}, survivors {}, baseline {} rounds",
        int(&doc["n"]),
        int(&doc["survivors"]),
        int(&doc["baseline_rounds"])
    );
    let epochs = doc["epochs"].as_array().cloned().unwrap_or_default();
    println!(
        "{:>6} {:>6} {:>7} {:>10} {:>10} {:>6} {:>9}",
        "epoch", "start", "rounds", "attempted", "delivered", "lost", "residual"
    );
    for e in &epochs {
        println!(
            "{:>6} {:>6} {:>7} {:>10} {:>10} {:>6} {:>9}",
            if e["epoch"].as_u64() == Some(0) {
                "base".to_string()
            } else {
                int(&e["epoch"])
            },
            int(&e["start_round"]),
            int(&e["rounds"]),
            int(&e["attempted"]),
            int(&e["delivered"]),
            int(&e["lost"]),
            int(&e["residual_after"])
        );
    }
    println!(
        "totals: {} rounds (overhead +{}), {} retransmissions, {} deliveries lost",
        int(&doc["total_rounds"]),
        int(&doc["overhead_rounds"]),
        int(&doc["retransmissions"]),
        int(&doc["lost_deliveries"])
    );
    let residual = epochs
        .last()
        .map(|e| int(&e["residual_after"]))
        .unwrap_or_else(|| "?".into());
    let unrecoverable = doc["unrecoverable"].as_array().map_or(0, Vec::len);
    println!(
        "residual: {residual} pair(s) after {} epoch(s), {unrecoverable} unrecoverable — {}",
        epochs.len(),
        if doc["recovered"].as_bool() == Some(true) {
            "recovered"
        } else {
            "INCOMPLETE"
        }
    );
    Ok(())
}

/// `gossip dash`: aggregate schema-versioned run artifacts (metrics
/// documents, `BENCH_*` files, recovery reports, `.gfr` flight records)
/// into one self-contained HTML dashboard. Directory arguments ingest
/// every `*.json` and `*.gfr` inside (unrecognized files are skipped with
/// a warning); file arguments must parse.
pub fn dash(args: &Args) -> Result<(), String> {
    if args.positional.is_empty() {
        return Err("usage: gossip dash ARTIFACT.json|DIR [MORE...] [--out report.html]".into());
    }
    let out_path = path_option(args, "out")?.unwrap_or_else(|| "report.html".to_string());
    let mut history = History::new();
    for arg in &args.positional {
        let p = std::path::Path::new(arg);
        if p.is_dir() {
            let mut entries: Vec<std::path::PathBuf> = std::fs::read_dir(p)
                .map_err(|e| format!("{arg}: {e}"))?
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|q| q.extension().is_some_and(|x| x == "json" || x == "gfr"))
                .collect();
            entries.sort();
            for q in entries {
                match history.ingest_file(&q) {
                    Ok(kind) => println!("ingested {} ({})", q.display(), kind.label()),
                    Err(e) => eprintln!("skipping {e}"),
                }
            }
        } else {
            let kind = history.ingest_file(p)?;
            println!("ingested {arg} ({})", kind.label());
        }
    }
    if history.runs.is_empty() {
        return Err("no artifacts ingested".into());
    }
    let html = render_dashboard(&history);
    std::fs::write(&out_path, &html).map_err(|e| format!("{out_path}: {e}"))?;
    println!(
        "wrote dashboard ({} run{}, {} bytes) to {out_path}",
        history.runs.len(),
        if history.runs.len() == 1 { "" } else { "s" },
        html.len()
    );
    // Cross-run regression detection always reports; --check turns a
    // non-empty report into a nonzero exit so nightly jobs can gate on
    // it (the dashboard is still written first — that is the artifact
    // you want when the gate trips).
    let regressions = history.regressions();
    for r in &regressions {
        println!(
            "regression: [{}] {} — {} at {} vs baseline {} ({:+.1}%, robust z {})",
            r.group,
            r.metric,
            r.run,
            r.value,
            r.baseline,
            r.delta_pct,
            if r.z.is_finite() {
                format!("{:.1}", r.z)
            } else {
                "inf".to_string()
            }
        );
    }
    if args.flag("check") {
        if regressions.is_empty() {
            println!("check: no cross-run regressions detected");
        } else {
            return Err(format!(
                "{} cross-run regression(s) detected",
                regressions.len()
            ));
        }
    }
    Ok(())
}

/// `gossip inspect`: time-travel reconstruction of a `.gfr` flight
/// capture — hold-sets and coverage after any `--round` (default: final
/// state), plus the anomaly pass (stragglers, utilization dips, `n + r`
/// violations).
pub fn inspect(args: &Args) -> Result<(), String> {
    let path = args
        .positional
        .first()
        .ok_or("usage: gossip inspect RUN.gfr [--round R]  (or `-` for stdin)")?;
    let log = read_flight(path)?;
    let round = match args.options.get("round") {
        Some(_) => Some(args.get_usize("round", 0)?),
        None => None,
    };
    let report = gossip_obsd::inspect(&log, round)?;
    print!("{}", gossip_obsd::postmortem::render_inspect(&report));
    let losses = gossip_obsd::postmortem::loss_breakdown(&log);
    if !losses.is_empty() {
        println!("losses by cause: {losses}");
    }
    let anomalies = gossip_obsd::anomalies(&log)?;
    print!("{}", gossip_obsd::postmortem::render_anomalies(&anomalies));
    Ok(())
}

/// `gossip diff`: align two `.gfr` captures and report the first
/// divergent round plus per-pair delivery-time deltas. Exits 1 unless the
/// runs are identical, so scripts and CI can gate on determinism.
pub fn diff(args: &Args) -> Result<(), String> {
    let [a, b] = args.positional.as_slice() else {
        return Err("usage: gossip diff A.gfr B.gfr  (one side may be `-` for stdin)".into());
    };
    if a == "-" && b == "-" {
        return Err("only one side of a diff can read from stdin".into());
    }
    let (log_a, log_b) = (read_flight(a)?, read_flight(b)?);
    let report = gossip_obsd::diff(&log_a, &log_b)?;
    print!("{}", gossip_obsd::postmortem::render_diff(&report));
    if report.identical {
        Ok(())
    } else if let Some(t) = report.first_divergent_round {
        Err(format!("captures diverge at round {t}"))
    } else if !report.comparable {
        Err("captures are not comparable (different n or n_msgs)".into())
    } else {
        Err(format!(
            "captures differ in length ({} vs {} round(s))",
            report.rounds.0, report.rounds.1
        ))
    }
}

/// `gossip bench-diff OLD.json NEW.json`: the perf gate. Compares two
/// `BENCH_*` artifacts and exits nonzero when the new one regressed.
pub fn bench_diff(args: &Args) -> Result<(), String> {
    let [old_path, new_path] = match args.positional.as_slice() {
        [a, b] => [a, b],
        _ => return Err("usage: gossip bench-diff OLD.json NEW.json".into()),
    };
    let read = |path: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
    };
    let threshold_pct: f64 = args
        .get_or("threshold", "15")
        .parse()
        .map_err(|_| "--threshold expects a percentage".to_string())?;
    let wall_factor: f64 = args
        .get_or("wall-factor", "2")
        .parse()
        .map_err(|_| "--wall-factor expects a number".to_string())?;
    let cfg = DiffConfig {
        threshold_pct,
        wall_factor,
    };
    let report = diff_bench(&read(old_path)?, &read(new_path)?, &cfg)?;
    if args.flag("json") {
        // Machine-readable gate result: per-field verdicts with the
        // thresholds each value was judged against. Exit code unchanged.
        let json = serde_json::to_string_pretty(&report.to_json()).map_err(|e| e.to_string())?;
        println!("{json}");
    } else {
        print!("{}", report.render());
    }
    if report.ok() {
        Ok(())
    } else {
        Err(format!(
            "{} regression(s) vs {old_path} (threshold {threshold_pct}%, wall factor {wall_factor}x)",
            report.regressions.len()
        ))
    }
}
