//! Run-history aggregation: every schema-versioned artifact family the
//! workspace produces, ingested into one in-memory time-series index.
//!
//! Three artifact shapes exist (all JSON documents with `schema_version`):
//!
//! - **metrics** documents from `--metrics` runs:
//!   `{schema_version, snapshot: {counters, gauges, ...}, events: [...]}`;
//!   the per-round `round` / `round_end` events yield knowledge curves.
//! - **bench** artifacts (`BENCH_*.json`): `{schema_version, experiment,
//!   ...}`, optionally with a `rows` array of per-instance measurements
//!   (`exp_theorem1`'s family sweeps) — every numeric column becomes a
//!   series over the sweep.
//! - **recovery** reports (`kind: "recovery"`): the per-epoch table yields
//!   residual/loss/delivery trajectories.
//! - **profile** artifacts (`kind: "profile"`, from `gossip profile` /
//!   `gossip plan --profile-out`): headline construction numbers plus one
//!   `phase/<path>` scalar per planner phase (self time), which the
//!   dashboard renders as a per-phase stacked bar.
//!
//! A fourth, binary family also ingests: `.gfr` **flight records**
//! (recognized by their `GFR1` magic, not by JSON shape), yielding the
//! knowledge curve and per-round delivery counts.
//!
//! [`crate::dash::render_dashboard`] turns the index into a self-contained
//! HTML page.

use gossip_telemetry::{check_schema_version, FlightLog, Value};

/// Which artifact family a run came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunKind {
    /// A `--metrics` document (snapshot + event stream).
    Metrics,
    /// A `BENCH_*.json` experiment artifact.
    Bench,
    /// A `RecoveryReport` artifact.
    Recovery,
    /// A `.gfr` flight record (`--flight-out`).
    Flight,
    /// A planner profile (`gossip profile` / `plan --profile-out`).
    Profile,
}

impl RunKind {
    /// Human label used in the dashboard.
    pub fn label(&self) -> &'static str {
        match self {
            RunKind::Metrics => "metrics",
            RunKind::Bench => "bench",
            RunKind::Recovery => "recovery",
            RunKind::Flight => "flight",
            RunKind::Profile => "profile",
        }
    }
}

/// One named time series: `(x, y)` points in ascending `x`.
#[derive(Debug, Clone)]
pub struct Series {
    /// What the series measures (e.g. `known_pairs`, `plan_ms`).
    pub name: String,
    /// The points, in ingestion order.
    pub points: Vec<(f64, f64)>,
}

/// One ingested artifact: headline scalars plus its time series.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Label (usually the file stem).
    pub name: String,
    /// Artifact family.
    pub kind: RunKind,
    /// Sub-family discriminator (the bench `experiment` name) so
    /// regression groups never mix measurements from different
    /// experiments that happen to share instance sizes.
    pub variant: Option<String>,
    /// Headline numbers, in artifact order.
    pub scalars: Vec<(String, f64)>,
    /// Extracted time series.
    pub series: Vec<Series>,
}

/// One flagged cross-run regression: the newest point of a judged
/// metric clears both the robust noise band and the metric's
/// directional gate relative to the prior runs in its group.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Comparison group: run kind, variant, and instance-size scalars
    /// (e.g. `profile n=64 m=96`) — runs are only judged against runs
    /// of the same shape.
    pub group: String,
    /// The judged scalar (e.g. `plan_ms`, `phase/plan/tree`).
    pub metric: String,
    /// Label of the offending (latest) run.
    pub run: String,
    /// The latest value.
    pub value: f64,
    /// Median of the prior runs.
    pub baseline: f64,
    /// Signed percentage change of the latest value vs the baseline.
    pub delta_pct: f64,
    /// Robust z-score (`0.6745 * dev / MAD`); infinite when the priors
    /// are exactly stable and the latest value moved at all.
    pub z: f64,
    /// EWMA (alpha 0.3) of the prior runs — the smoothed trend shown
    /// next to the baseline in the dashboard panel.
    pub ewma: f64,
}

/// The in-memory index of every ingested run.
#[derive(Debug, Clone, Default)]
pub struct History {
    /// Ingested runs, in ingestion order.
    pub runs: Vec<RunRecord>,
}

fn num(v: &Value) -> Option<f64> {
    v.as_f64()
        .or_else(|| v.as_bool().map(|b| if b { 1.0 } else { 0.0 }))
}

impl History {
    /// An empty index.
    pub fn new() -> History {
        History::default()
    }

    /// Parses and classifies one artifact document. Returns the detected
    /// kind, or an error naming what made the document unreadable.
    pub fn ingest(&mut self, label: &str, content: &str) -> Result<RunKind, String> {
        let doc: Value =
            serde_json::from_str(content).map_err(|e| format!("{label}: not JSON: {e}"))?;
        check_schema_version(&doc).map_err(|e| format!("{label}: {e}"))?;
        let record = if doc.get("kind").and_then(Value::as_str) == Some("recovery") {
            ingest_recovery(label, &doc)
        } else if doc.get("kind").and_then(Value::as_str) == Some("profile") {
            ingest_profile(label, &doc)
        } else if doc.get("experiment").is_some() {
            ingest_bench(label, &doc)
        } else if doc.get("snapshot").is_some() {
            ingest_metrics(label, &doc)
        } else {
            return Err(format!(
                "{label}: unrecognized artifact (no kind/experiment/snapshot)"
            ));
        };
        let kind = record.kind;
        self.runs.push(record);
        Ok(kind)
    }

    /// Routes raw artifact bytes: `.gfr` flight records by their `GFR1`
    /// magic, everything else as a UTF-8 JSON document via
    /// [`History::ingest`].
    pub fn ingest_bytes(&mut self, label: &str, bytes: &[u8]) -> Result<RunKind, String> {
        if FlightLog::sniff(bytes) {
            return self.ingest_gfr(label, bytes);
        }
        let content = std::str::from_utf8(bytes)
            .map_err(|_| format!("{label}: neither a flight record nor UTF-8 JSON"))?;
        self.ingest(label, content)
    }

    /// Ingests one `.gfr` flight record: headline scalars (sizes, counts,
    /// eviction state) plus the knowledge curve and per-round applied
    /// delivery counts.
    pub fn ingest_gfr(&mut self, label: &str, bytes: &[u8]) -> Result<RunKind, String> {
        let log = FlightLog::decode(bytes).map_err(|e| format!("{label}: {e}"))?;
        let mut scalars = vec![
            ("n".to_string(), f64::from(log.header.n)),
            ("n_msgs".to_string(), f64::from(log.header.n_msgs)),
            ("radius".to_string(), f64::from(log.header.radius)),
            ("rounds".to_string(), log.rounds() as f64),
            ("transmissions".to_string(), log.txs().len() as f64),
            ("losses".to_string(), log.losses().len() as f64),
            ("epochs".to_string(), log.epochs().len() as f64),
        ];
        if log.dropped > 0 {
            scalars.push(("dropped_records".to_string(), log.dropped as f64));
        }
        let mut series = Vec::new();
        let known: Vec<(f64, f64)> = log
            .known_pairs_curve()
            .iter()
            .map(|&(r, k)| (f64::from(r), k as f64))
            .collect();
        if !known.is_empty() {
            series.push(Series {
                name: "known_pairs".to_string(),
                points: known,
            });
        }
        // Applied deliveries per round: destinations attempted minus the
        // round's suppressed deliveries (retransmissions included).
        let mut applied: Vec<(f64, f64)> = Vec::new();
        for tx in log.txs() {
            let x = f64::from(tx.round);
            match applied.iter_mut().find(|(r, _)| *r == x) {
                Some((_, y)) => *y += tx.dests.len() as f64,
                None => applied.push((x, tx.dests.len() as f64)),
            }
        }
        for l in log.losses() {
            let x = f64::from(l.round);
            if let Some((_, y)) = applied.iter_mut().find(|(r, _)| *r == x) {
                *y -= 1.0;
            }
        }
        if !applied.is_empty() {
            applied.sort_by(|a, b| a.0.total_cmp(&b.0));
            series.push(Series {
                name: "deliveries".to_string(),
                points: applied,
            });
        }
        self.runs.push(RunRecord {
            name: label.to_string(),
            kind: RunKind::Flight,
            variant: None,
            scalars,
            series,
        });
        Ok(RunKind::Flight)
    }

    /// [`History::ingest_bytes`] from a file path; the label is the file
    /// stem. Flight records are detected by content, so a `.gfr` capture
    /// never hits the UTF-8 JSON path.
    pub fn ingest_file(&mut self, path: &std::path::Path) -> Result<RunKind, String> {
        let label = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("artifact")
            .to_string();
        let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
        self.ingest_bytes(&label, &bytes)
    }

    /// All series named `name` across runs, with the run labels.
    pub fn series_named(&self, name: &str) -> Vec<(&str, &Series)> {
        self.runs
            .iter()
            .flat_map(|r| {
                r.series
                    .iter()
                    .filter(|s| s.name == name)
                    .map(move |s| (r.name.as_str(), s))
            })
            .collect()
    }

    /// One scalar tracked across every run that has it — the cross-run
    /// trend lines (e.g. `plan_ms` over successive bench artifacts).
    pub fn scalar_trend(&self, name: &str) -> Vec<(&str, f64)> {
        self.runs
            .iter()
            .filter_map(|r| {
                r.scalars
                    .iter()
                    .find(|(k, _)| k == name)
                    .map(|&(_, v)| (r.name.as_str(), v))
            })
            .collect()
    }

    /// Cross-run regression detection: judges the *latest* run of each
    /// comparison group against the prior runs of the same group.
    ///
    /// Groups are `(kind, variant, n, m)` so only same-shaped runs are
    /// compared. Judged metrics: `makespan`, `plan_ms`, kernel speedups
    /// (`*_speedup_x`), and profile phase self-times (`phase/*`). A
    /// group needs [`MIN_REGRESSION_POINTS`] observations of a metric
    /// before its latest value is judged — anything thinner stays
    /// silent, so a fresh artifact directory never cries wolf.
    ///
    /// Two tests must both pass for a finding:
    ///
    /// - **noise gate**: the deviation from the prior median exceeds
    ///   3 robust z-units (`0.6745 * |dev| / MAD`); perfectly stable
    ///   priors (MAD 0) treat any movement as out of band.
    /// - **directional gate**, per metric class: wall-clock metrics
    ///   (`plan_ms`, `phase/*`) must exceed `2x median + 5ms` (the
    ///   absolute grace keeps micro-timings from flapping); `makespan`
    ///   (deterministic plan quality) must grow by more than 25%;
    ///   speedups must *fall* below half the median.
    ///
    /// Improvements never flag.
    pub fn regressions(&self) -> Vec<Regression> {
        const EWMA_ALPHA: f64 = 0.3;
        // (group, metric) -> (run name, value) points in ingestion order.
        // Vec-backed so the output ordering is deterministic across runs.
        type MetricPoints<'a> = Vec<((String, String), Vec<(&'a str, f64)>)>;
        let mut table: MetricPoints = Vec::new();
        for run in &self.runs {
            let group = group_key(run);
            for (name, v) in &run.scalars {
                if !judged_metric(name) {
                    continue;
                }
                let key = (group.clone(), name.clone());
                match table.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, pts)) => pts.push((run.name.as_str(), *v)),
                    None => table.push((key, vec![(run.name.as_str(), *v)])),
                }
            }
        }
        let mut out = Vec::new();
        for ((group, metric), pts) in table {
            if pts.len() < MIN_REGRESSION_POINTS {
                continue;
            }
            let (last_run, last) = *pts.last().expect("non-empty");
            let priors: Vec<f64> = pts[..pts.len() - 1].iter().map(|&(_, v)| v).collect();
            let med = median(&priors);
            let deviations: Vec<f64> = priors.iter().map(|v| (v - med).abs()).collect();
            let mad = median(&deviations);
            let dev = last - med;
            let beyond_noise = if mad > 0.0 {
                0.6745 * dev.abs() / mad >= 3.0
            } else {
                dev != 0.0
            };
            let regressed = if metric.ends_with("_speedup_x") {
                last < med / 2.0
            } else if metric == "makespan" {
                med > 0.0 && dev / med > 0.25
            } else {
                last > med * 2.0 + 5.0
            };
            if !(beyond_noise && regressed) {
                continue;
            }
            let z = if mad > 0.0 {
                0.6745 * dev / mad
            } else if dev > 0.0 {
                f64::INFINITY
            } else {
                f64::NEG_INFINITY
            };
            let ewma = priors
                .iter()
                .skip(1)
                .fold(priors[0], |e, &v| EWMA_ALPHA * v + (1.0 - EWMA_ALPHA) * e);
            let delta_pct = if med != 0.0 { dev / med * 100.0 } else { 0.0 };
            out.push(Regression {
                group,
                metric,
                run: last_run.to_string(),
                value: last,
                baseline: med,
                delta_pct,
                z,
                ewma,
            });
        }
        out
    }
}

/// Minimum observations of a `(group, metric)` pair before the latest
/// value is judged for regression.
pub const MIN_REGRESSION_POINTS: usize = 4;

fn judged_metric(name: &str) -> bool {
    name == "makespan"
        || name == "plan_ms"
        || name.ends_with("_speedup_x")
        || name.starts_with("phase/")
}

fn group_key(run: &RunRecord) -> String {
    use std::fmt::Write as _;
    let mut key = run.kind.label().to_string();
    if let Some(variant) = &run.variant {
        let _ = write!(key, " {variant}");
    }
    for dim in ["n", "m"] {
        if let Some(&(_, v)) = run.scalars.iter().find(|(k, _)| k == dim) {
            let _ = write!(key, " {dim}={v}");
        }
    }
    key
}

fn median(vals: &[f64]) -> f64 {
    let mut v = vals.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn ingest_metrics(label: &str, doc: &Value) -> RunRecord {
    let mut scalars = Vec::new();
    let snapshot = &doc["snapshot"];
    for group in ["counters", "gauges"] {
        if let Some(entries) = snapshot[group].as_object() {
            for (k, v) in entries {
                if let Some(x) = num(v) {
                    scalars.push((k.clone(), x));
                }
            }
        }
    }
    let mut coverage = Vec::new();
    let mut known = Vec::new();
    if let Some(events) = doc["events"].as_array() {
        for e in events {
            match e["event"].as_str() {
                Some("round") => {
                    if let (Some(r), Some(c)) = (e["round"].as_f64(), e["coverage"].as_f64()) {
                        coverage.push((r, c));
                    }
                }
                Some("round_end") => {
                    if let (Some(r), Some(k)) = (e["round"].as_f64(), e["known_pairs"].as_f64()) {
                        known.push((r, k));
                    }
                }
                _ => {}
            }
        }
    }
    let mut series = Vec::new();
    if !coverage.is_empty() {
        series.push(Series {
            name: "coverage".to_string(),
            points: coverage,
        });
    }
    if !known.is_empty() {
        series.push(Series {
            name: "known_pairs".to_string(),
            points: known,
        });
    }
    RunRecord {
        name: label.to_string(),
        kind: RunKind::Metrics,
        variant: None,
        scalars,
        series,
    }
}

fn ingest_bench(label: &str, doc: &Value) -> RunRecord {
    let mut scalars = Vec::new();
    if let Some(members) = doc.as_object() {
        for (k, v) in members {
            if let Some(x) = num(v) {
                scalars.push((k.clone(), x));
            }
        }
    }
    // A `rows` sweep: every numeric column becomes a series over the sweep
    // index (x = the row's `n` when present, else its position).
    let mut series: Vec<Series> = Vec::new();
    if let Some(rows) = doc["rows"].as_array() {
        for (i, row) in rows.iter().enumerate() {
            let x = row["n"].as_f64().unwrap_or(i as f64);
            if let Some(members) = row.as_object() {
                for (k, v) in members {
                    let Some(y) = num(v) else { continue };
                    match series.iter_mut().find(|s| &s.name == k) {
                        Some(s) => s.points.push((x, y)),
                        None => series.push(Series {
                            name: k.clone(),
                            points: vec![(x, y)],
                        }),
                    }
                }
            }
        }
    }
    RunRecord {
        name: label.to_string(),
        kind: RunKind::Bench,
        variant: doc["experiment"].as_str().map(str::to_string),
        scalars,
        series,
    }
}

fn ingest_profile(label: &str, doc: &Value) -> RunRecord {
    let mut scalars = Vec::new();
    for key in [
        "n",
        "m",
        "radius",
        "makespan",
        "plan_ms",
        "attributed_ms",
        "unattributed_ms",
        "attributed_pct",
    ] {
        if let Some(x) = doc.get(key).and_then(num) {
            scalars.push((key.to_string(), x));
        }
    }
    // One `phase/<path>` scalar per phase-tree node carrying its *self*
    // time, so the dashboard's stacked bar partitions construction time
    // without double-counting parents.
    fn walk(prefix: &str, phases: &Value, scalars: &mut Vec<(String, f64)>) {
        let Some(list) = phases.as_array() else {
            return;
        };
        for p in list {
            let Some(name) = p["name"].as_str() else {
                continue;
            };
            let path = if prefix.is_empty() {
                name.to_string()
            } else {
                format!("{prefix}/{name}")
            };
            if let Some(self_ms) = p["self_ms"].as_f64() {
                scalars.push((format!("phase/{path}"), self_ms));
            }
            walk(&path, &p["children"], scalars);
        }
    }
    walk("", &doc["phases"], &mut scalars);
    RunRecord {
        name: label.to_string(),
        kind: RunKind::Profile,
        variant: None,
        scalars,
        series: Vec::new(),
    }
}

fn ingest_recovery(label: &str, doc: &Value) -> RunRecord {
    let mut scalars = Vec::new();
    for key in [
        "n",
        "baseline_rounds",
        "total_rounds",
        "overhead_rounds",
        "retransmissions",
        "lost_deliveries",
        "recovered",
        "survivors",
    ] {
        if let Some(x) = doc.get(key).and_then(num) {
            scalars.push((key.to_string(), x));
        }
    }
    let mut series: Vec<Series> = ["residual_after", "lost", "delivered"]
        .iter()
        .map(|name| Series {
            name: (*name).to_string(),
            points: Vec::new(),
        })
        .collect();
    if let Some(epochs) = doc["epochs"].as_array() {
        for e in epochs {
            let Some(x) = e["epoch"].as_f64() else {
                continue;
            };
            for s in &mut series {
                if let Some(y) = e[s.name.as_str()].as_f64() {
                    s.points.push((x, y));
                }
            }
        }
    }
    series.retain(|s| !s.points.is_empty());
    RunRecord {
        name: label.to_string(),
        kind: RunKind::Recovery,
        variant: None,
        scalars,
        series,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifies_all_three_families() {
        let mut h = History::new();
        let metrics = r#"{"schema_version": 1, "snapshot": {"counters": {"sim/sent": 12},
            "gauges": {"sim/coverage": 1.0}},
            "events": [{"event": "round", "round": 0, "coverage": 0.5},
                       {"event": "round", "round": 1, "coverage": 1.0}]}"#;
        let bench = r#"{"schema_version": 1, "experiment": "theorem1", "total_ms": 4.5,
            "rows": [{"n": 8, "makespan": 12, "plan_ms": 0.5},
                     {"n": 16, "makespan": 21, "plan_ms": 1.5}]}"#;
        let recovery = r#"{"schema_version": 1, "kind": "recovery", "n": 10,
            "total_rounds": 20, "retransmissions": 9, "lost_deliveries": 7,
            "recovered": true, "survivors": 10,
            "epochs": [{"epoch": 0, "lost": 7, "delivered": 40, "residual_after": 9},
                       {"epoch": 1, "lost": 0, "delivered": 9, "residual_after": 0}]}"#;
        assert_eq!(h.ingest("run", metrics), Ok(RunKind::Metrics));
        assert_eq!(h.ingest("BENCH_theorem1", bench), Ok(RunKind::Bench));
        assert_eq!(h.ingest("recovery", recovery), Ok(RunKind::Recovery));
        assert_eq!(h.runs.len(), 3);

        let cov = h.series_named("coverage");
        assert_eq!(cov.len(), 1);
        assert_eq!(cov[0].1.points, vec![(0.0, 0.5), (1.0, 1.0)]);

        let plan = h.series_named("plan_ms");
        assert_eq!(plan[0].1.points, vec![(8.0, 0.5), (16.0, 1.5)]);

        let resid = h.series_named("residual_after");
        assert_eq!(resid[0].1.points, vec![(0.0, 9.0), (1.0, 0.0)]);
        assert_eq!(h.scalar_trend("recovered"), vec![("recovery", 1.0)]);
    }

    #[test]
    fn classifies_profiles_and_flattens_phase_tree() {
        let mut h = History::new();
        let profile = r#"{"schema_version": 1, "kind": "profile",
            "algorithm": "concurrent-updown", "n": 12, "m": 18, "radius": 2,
            "makespan": 14, "plan_ms": 3.5, "attributed_ms": 3.4,
            "unattributed_ms": 0.1, "attributed_pct": 97.1,
            "alloc_tracking": false,
            "phases": [
                {"name": "plan", "calls": 1, "total_ms": 3.0, "self_ms": 0.2,
                 "children": [
                     {"name": "tree", "calls": 1, "total_ms": 1.8, "self_ms": 1.8},
                     {"name": "generate", "calls": 1, "total_ms": 1.0, "self_ms": 1.0}]},
                {"name": "flatten", "calls": 1, "total_ms": 0.4, "self_ms": 0.4}]}"#;
        assert_eq!(h.ingest("PROF_fig4", profile), Ok(RunKind::Profile));
        let run = &h.runs[0];
        assert_eq!(run.kind.label(), "profile");
        assert!(run.scalars.contains(&("plan_ms".to_string(), 3.5)));
        assert!(run.scalars.contains(&("phase/plan".to_string(), 0.2)));
        assert!(run.scalars.contains(&("phase/plan/tree".to_string(), 1.8)));
        assert!(run
            .scalars
            .contains(&("phase/plan/generate".to_string(), 1.0)));
        assert!(run.scalars.contains(&("phase/flatten".to_string(), 0.4)));
        assert_eq!(h.scalar_trend("attributed_pct"), vec![("PROF_fig4", 97.1)]);
    }

    #[test]
    fn rejects_unknown_and_wrong_schema() {
        let mut h = History::new();
        assert!(h.ingest("x", "not json").is_err());
        assert!(h.ingest("x", r#"{"schema_version": 1}"#).is_err());
        assert!(h
            .ingest("x", r#"{"schema_version": 99, "snapshot": {}}"#)
            .is_err());
        assert!(h.runs.is_empty());
    }

    fn profile_doc(makespan: f64, plan_ms: f64) -> String {
        format!(
            r#"{{"schema_version": 1, "kind": "profile", "n": 64, "m": 96,
                "makespan": {makespan}, "plan_ms": {plan_ms}}}"#
        )
    }

    #[test]
    fn regression_trips_on_doctored_makespan_but_not_on_a_stable_set() {
        // Stable: identical deterministic makespans, jittery plan times.
        let mut stable = History::new();
        for (i, plan_ms) in [0.41, 0.39, 0.44, 0.40].iter().enumerate() {
            stable
                .ingest(&format!("PROF_{i}"), &profile_doc(130.0, *plan_ms))
                .unwrap();
        }
        assert!(stable.regressions().is_empty());

        // Doctored: the last run's makespan doubles.
        let mut doctored = History::new();
        for (i, doc) in [
            profile_doc(130.0, 0.41),
            profile_doc(130.0, 0.39),
            profile_doc(130.0, 0.44),
            profile_doc(260.0, 0.40),
        ]
        .iter()
        .enumerate()
        {
            doctored.ingest(&format!("PROF_{i}"), doc).unwrap();
        }
        let regs = doctored.regressions();
        assert_eq!(regs.len(), 1, "only makespan should flag: {regs:?}");
        let r = &regs[0];
        assert_eq!(r.metric, "makespan");
        assert_eq!(r.run, "PROF_3");
        assert_eq!(r.group, "profile n=64 m=96");
        assert_eq!(r.value, 260.0);
        assert_eq!(r.baseline, 130.0);
        assert!((r.delta_pct - 100.0).abs() < 1e-9);
        // Stable priors: the movement is infinitely out of band.
        assert_eq!(r.z, f64::INFINITY);
        assert!((r.ewma - 130.0).abs() < 1e-9);
    }

    #[test]
    fn regression_needs_min_points_and_ignores_improvements() {
        // Three points: one short of the floor, even with a 10x jump.
        let mut thin = History::new();
        for (i, doc) in [
            profile_doc(130.0, 0.4),
            profile_doc(130.0, 0.4),
            profile_doc(1300.0, 0.4),
        ]
        .iter()
        .enumerate()
        {
            thin.ingest(&format!("PROF_{i}"), doc).unwrap();
        }
        assert!(thin.regressions().is_empty());

        // Improvements (makespan halves) never flag.
        let mut better = History::new();
        for (i, doc) in [
            profile_doc(130.0, 0.4),
            profile_doc(130.0, 0.4),
            profile_doc(130.0, 0.4),
            profile_doc(65.0, 0.4),
        ]
        .iter()
        .enumerate()
        {
            better.ingest(&format!("PROF_{i}"), doc).unwrap();
        }
        assert!(better.regressions().is_empty());
    }

    #[test]
    fn wall_metrics_get_absolute_grace_and_speedups_judge_downward() {
        let bench = |plan_ms: f64, speedup: f64| {
            format!(
                r#"{{"schema_version": 1, "experiment": "kernels", "n": 64,
                    "plan_ms": {plan_ms}, "csr_speedup_x": {speedup}}}"#,
            )
        };
        // Micro-timing doubles but stays inside the 5ms grace: silent.
        let mut micro = History::new();
        for (i, (p, s)) in [(0.4, 8.0), (0.5, 8.1), (0.4, 7.9), (1.2, 8.0)]
            .iter()
            .enumerate()
        {
            micro.ingest(&format!("B{i}"), &bench(*p, *s)).unwrap();
        }
        assert!(micro.regressions().is_empty());

        // A speedup collapse flags, and the group carries the experiment
        // name so other experiments' artifacts can't dilute it.
        let mut slow = History::new();
        for (i, (p, s)) in [(0.4, 8.0), (0.5, 8.1), (0.4, 7.9), (0.4, 2.0)]
            .iter()
            .enumerate()
        {
            slow.ingest(&format!("B{i}"), &bench(*p, *s)).unwrap();
        }
        let regs = slow.regressions();
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert_eq!(regs[0].metric, "csr_speedup_x");
        assert_eq!(regs[0].group, "bench kernels n=64");
        assert!(regs[0].z < 0.0, "downward move, negative z: {}", regs[0].z);

        // A genuine wall blowup past the grace flags too.
        let mut wall = History::new();
        for (i, (p, s)) in [(3.0, 8.0), (3.2, 8.1), (2.9, 7.9), (40.0, 8.0)]
            .iter()
            .enumerate()
        {
            wall.ingest(&format!("B{i}"), &bench(*p, *s)).unwrap();
        }
        let regs = wall.regressions();
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert_eq!(regs[0].metric, "plan_ms");
    }

    #[test]
    fn ingests_flight_records_by_magic_and_skips_unknown_bytes() {
        use gossip_telemetry::flight::FlightHeader;
        use gossip_telemetry::{FlightRecorder, Recorder, RecorderExt, Value};

        let rec = FlightRecorder::new(FlightHeader {
            n: 2,
            n_msgs: 2,
            radius: 1,
            engine: "test".into(),
            graph_digest: 0,
            schedule_digest: 0,
            fault_digest: 0,
            origins: vec![0, 1],
        });
        rec.event("round_start", &[("round", Value::from_u64(0))]);
        rec.transmission(0, 0, 0, &[1]);
        rec.event(
            "round_end",
            &[
                ("round", Value::from_u64(0)),
                ("known_pairs", Value::from_u64(3)),
            ],
        );
        let bytes = rec.finish();

        let mut h = History::new();
        assert_eq!(h.ingest_bytes("run", &bytes), Ok(RunKind::Flight));
        let run = &h.runs[0];
        assert_eq!(run.kind.label(), "flight");
        assert!(run.scalars.contains(&("transmissions".to_string(), 1.0)));
        let known = h.series_named("known_pairs");
        assert_eq!(known[0].1.points, vec![(0.0, 3.0)]);
        let deliveries = h.series_named("deliveries");
        assert_eq!(deliveries[0].1.points, vec![(0.0, 1.0)]);

        // Unknown binary artifacts are a clean error (the dash directory
        // scan turns this into a skip-with-warning), never a panic.
        let mut h2 = History::new();
        assert!(h2.ingest_bytes("junk", &[0x00, 0xff, 0x80, 0x01]).is_err());
        // A corrupt capture that still carries the magic errors too.
        assert!(h2.ingest_bytes("trunc", &bytes[..8]).is_err());
        assert!(h2.runs.is_empty());
    }
}
