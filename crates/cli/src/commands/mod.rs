//! Subcommand implementations for the `gossip` CLI, one module per
//! command family. This module holds what they share: graph and flag
//! parsing, [`Out`], and [`RunSinks`], the one place a run's recorder
//! stack is built.

use crate::args::Args;
use gossip_core::Algorithm;
use gossip_graph::Graph;
use gossip_model::{FaultPlan, FlatSchedule, LossCause};
use gossip_obsd::Paced;
use gossip_telemetry::flight::{Digest, FlightHeader, FlightRecorder, Tee};
use gossip_telemetry::{
    AlertEngine, AlertSink, MetricsRecorder, NoopRecorder, Recorder, RuleSet, SharedBuffer, Value,
    SCHEMA_VERSION,
};
use gossip_workloads::Family;
use serde::Serialize;
use std::cell::OnceCell;
use std::sync::Arc;
use std::time::Duration;

/// `out!(out, "fmt", args...)` — `println!` routed per [`Out`].
macro_rules! out {
    ($out:expr, $($arg:tt)*) => { $out.line(format_args!($($arg)*)) };
}

mod paper;
mod plan;
mod profile;
mod report;
mod run;
mod usage;

pub use paper::{
    analyze, bounds, compare, energy, exact, generate, line, pipeline, provenance, sweep, trace,
};
pub use plan::plan;
pub use profile::profile;
pub use report::{bench_diff, dash, diff, inspect, stats};
pub use run::{churn, recover, serve};
pub use usage::USAGE;

/// A `--metrics FILE` recorder: the buffer captures the JSONL event stream
/// so [`write_metrics`] can bundle it with the final snapshot.
struct Metrics {
    recorder: MetricsRecorder,
    events: SharedBuffer,
    path: String,
}

/// Opens a telemetry recorder when `--metrics FILE` was passed (any
/// subcommand that plans or simulates honors the flag).
fn open_metrics(args: &Args) -> Result<Option<Metrics>, String> {
    Ok(path_option(args, "metrics")?.map(|path| {
        let events = SharedBuffer::new();
        Metrics {
            recorder: MetricsRecorder::with_sink(Box::new(events.clone())),
            events,
            path,
        }
    }))
}

/// Writes the metrics artifact consumed by `gossip stats`, when
/// `--metrics` asked for one:
/// `{"schema_version": 1, "snapshot": {...}, "events": [...]}`.
/// With `--metrics -` the artifact goes to stdout (machine output owns the
/// stream; see [`Out`]).
fn write_metrics(metrics: &Option<Metrics>) -> Result<(), String> {
    let Some(m) = metrics else {
        return Ok(());
    };
    m.recorder.flush();
    let doc = Value::Object(vec![
        (
            "schema_version".to_string(),
            Value::from_u64(SCHEMA_VERSION),
        ),
        ("snapshot".to_string(), m.recorder.snapshot()),
        ("events".to_string(), Value::Array(m.events.lines())),
    ]);
    let json = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
    if m.path == "-" {
        println!("{json}");
        eprintln!("wrote metrics to stdout");
    } else {
        std::fs::write(&m.path, json).map_err(|e| format!("{}: {e}", m.path))?;
        println!("wrote metrics to {}", m.path);
    }
    Ok(())
}

/// Where a command's human-readable report goes: stdout normally, stderr
/// when `--metrics -` gives the machine artifact ownership of stdout (so
/// `gossip plan --metrics - | gossip stats -` pipes clean JSON).
#[derive(Clone, Copy)]
struct Out {
    to_stderr: bool,
}

impl Out {
    fn for_metrics(metrics: &Option<Metrics>) -> Out {
        Out {
            to_stderr: metrics.as_ref().is_some_and(|m| m.path == "-"),
        }
    }

    fn line(&self, s: std::fmt::Arguments<'_>) {
        if self.to_stderr {
            eprintln!("{s}");
        } else {
            println!("{s}");
        }
    }
}

/// Parses a path-valued option. The parser stores a value-less `--key`
/// as `"true"`, which is never a sensible path: reject it rather than
/// silently writing a file named `true`.
fn path_option(args: &Args, key: &str) -> Result<Option<String>, String> {
    match args.options.get(key) {
        Some(p) if p == "true" => Err(format!("--{key} requires a file path")),
        other => Ok(other.cloned()),
    }
}

fn family_by_name(name: &str) -> Result<Family, String> {
    Family::all()
        .iter()
        .copied()
        .find(|f| f.name() == name)
        .ok_or_else(|| format!("unknown family {name:?} (see `gossip help`)"))
}

/// The paper's named instances accepted by `--graph NAME` (checked only
/// when no file of that name exists, so files always win).
fn named_instance(name: &str, args: &Args) -> Result<Option<Graph>, String> {
    Ok(match name {
        "petersen" | "n2" => Some(gossip_workloads::petersen()),
        "n1" => Some(gossip_workloads::n1_ring(args.get_usize("n", 9)?)),
        "fig4" => Some(gossip_workloads::fig4_graph()),
        "fig5" => Some(gossip_workloads::fig5_tree().to_graph()),
        _ => None,
    })
}

/// Parses a `unit-disk:n,radius` spec into a seeded random geometric
/// graph (`--seed` selects the point set; the radius grows until the
/// field is connected, matching [`gossip_workloads::unit_disk_connected`]).
fn unit_disk_spec(spec: &str, args: &Args) -> Result<Option<Graph>, String> {
    let Some(params) = spec.strip_prefix("unit-disk:") else {
        return Ok(None);
    };
    let (n_str, r_str) = params.split_once(',').ok_or_else(|| {
        format!("bad unit-disk spec {spec:?}: expected unit-disk:n,radius (e.g. unit-disk:16,0.4)")
    })?;
    let n: usize = n_str
        .trim()
        .parse()
        .map_err(|e| format!("bad unit-disk n {n_str:?}: {e}"))?;
    let radius: f64 = r_str
        .trim()
        .parse()
        .map_err(|e| format!("bad unit-disk radius {r_str:?}: {e}"))?;
    // `radius <= 0.0` (not `!(radius > 0.0)`) would wave NaN through.
    if n == 0 || !radius.is_finite() || radius <= 0.0 {
        return Err(format!(
            "bad unit-disk spec {spec:?}: need n >= 1 and radius > 0"
        ));
    }
    let seed = args.get_u64("seed", 0)?;
    let (g, _pts, _used) = gossip_workloads::unit_disk_connected(n, radius, seed);
    Ok(Some(g))
}

/// Parses a `gnp:n,p` spec into a seeded G(n, p) kept connected by
/// bridging components (`--seed` selects the instance). Unlike the
/// `random-sparse` family (fixed p = 0.1), this exposes the edge density —
/// the scale sweeps need m ∝ n, not m ∝ n².
fn gnp_spec(spec: &str, args: &Args) -> Result<Option<Graph>, String> {
    let Some(params) = spec.strip_prefix("gnp:") else {
        return Ok(None);
    };
    let (n_str, p_str) = params.split_once(',').ok_or_else(|| {
        format!("bad gnp spec {spec:?}: expected gnp:n,p (e.g. gnp:65536,0.00025)")
    })?;
    let n: usize = n_str
        .trim()
        .parse()
        .map_err(|e| format!("bad gnp n {n_str:?}: {e}"))?;
    let p: f64 = p_str
        .trim()
        .parse()
        .map_err(|e| format!("bad gnp p {p_str:?}: {e}"))?;
    // `!(p >= 0.0)` would wave NaN through; check the closed interval.
    if n == 0 || !p.is_finite() || !(0.0..=1.0).contains(&p) {
        return Err(format!(
            "bad gnp spec {spec:?}: need n >= 1 and p in [0, 1]"
        ));
    }
    let seed = args.get_u64("seed", 0)?;
    Ok(Some(gossip_workloads::random_connected(n, p, seed)))
}

/// Loads a graph from a `--graph`-style spec: a `unit-disk:n,radius` or
/// `gnp:n,p` generator, a named paper instance (unless a file of that
/// name exists), or a JSON / edge-list file.
fn load_graph_spec(spec: &str, args: &Args) -> Result<Graph, String> {
    if let Some(g) = unit_disk_spec(spec, args)? {
        return Ok(g);
    }
    if let Some(g) = gnp_spec(spec, args)? {
        return Ok(g);
    }
    if !std::path::Path::new(spec).exists() {
        if let Some(g) = named_instance(spec, args)? {
            return Ok(g);
        }
    }
    let text = std::fs::read_to_string(spec).map_err(|e| format!("{spec}: {e}"))?;
    // JSON first; fall back to the plain edge-list text format.
    match serde_json::from_str(&text) {
        Ok(g) => Ok(g),
        Err(json_err) => gossip_graph::parse_edge_list(&text)
            .map_err(|el_err| format!("{spec}: not JSON ({json_err}) nor edge list ({el_err})")),
    }
}

fn load_graph(args: &Args) -> Result<Graph, String> {
    if let Some(path) = args.options.get("graph") {
        load_graph_spec(path, args)
    } else {
        let family = family_by_name(args.get_or("family", "ring"))?;
        let n = args.get_usize("n", 16)?;
        let seed = args.get_u64("seed", 0)?;
        Ok(family.instance(n, seed))
    }
}

/// Parses `--algorithm` (or its `--algo` shorthand); `concurrent` and
/// `cud` are accepted for `concurrent-updown`.
fn parse_algorithm(args: &Args) -> Result<Algorithm, String> {
    let name = args
        .options
        .get("algorithm")
        .or_else(|| args.options.get("algo"))
        .map(String::as_str)
        .unwrap_or("concurrent-updown");
    match name {
        "concurrent-updown" | "concurrent" | "cud" => Ok(Algorithm::ConcurrentUpDown),
        "simple" => Ok(Algorithm::Simple),
        "updown" => Ok(Algorithm::UpDown),
        "telephone" => Ok(Algorithm::Telephone),
        other => Err(format!("unknown algorithm {other:?}")),
    }
}

/// Which planning path `gossip plan` / `gossip profile` runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Planner {
    /// The reference pipeline: n-sweep tree + `Schedule` generator (default).
    Reference,
    /// The fast pipeline: pruned multi-source bitset tree sweep + CSR-direct
    /// generator (ConcurrentUpDown only).
    Fast,
    /// Reference plan plus a fast-path cross-check: the fast schedule must
    /// validate, complete gossip, and meet the same `n + r` bound (and be
    /// byte-identical when the trees agree).
    Both,
}

/// Parses `--planner fast|reference|both` (default `reference`).
fn parse_planner(args: &Args) -> Result<Planner, String> {
    match args.options.get("planner").map(String::as_str) {
        None | Some("reference") => Ok(Planner::Reference),
        Some("fast") => Ok(Planner::Fast),
        Some("both") => Ok(Planner::Both),
        Some(other) => Err(format!(
            "--planner must be fast, reference, or both (got {other})"
        )),
    }
}

/// Builds a [`FaultPlan`] from the fault flags (`--loss-rate`, `--crash`,
/// `--outage`, `--fault-seed`). Returns `None` when no fault flag was
/// passed, so fault-free invocations skip the lossy path entirely.
fn parse_fault_plan(args: &Args, n: usize) -> Result<Option<FaultPlan>, String> {
    let any = ["loss-rate", "crash", "outage", "fault-seed"]
        .iter()
        .any(|k| args.options.contains_key(*k));
    if !any {
        return Ok(None);
    }
    let mut plan = FaultPlan::new(args.get_u64("fault-seed", 0)?)
        .with_loss_rate(args.get_f64("loss-rate", 0.0)?);
    if let Some(spec) = args.options.get("crash") {
        plan = plan.with_crash_spec(spec)?;
    }
    if let Some(spec) = args.options.get("outage") {
        plan = plan.with_outage_spec(spec)?;
    }
    plan.validate(n)?;
    Ok(Some(plan))
}

/// One line per loss cause: `sampled 12, not-held 31, ...` (zero counts
/// omitted).
fn loss_breakdown(lost: &[gossip_model::LostDelivery]) -> String {
    let causes = [
        (LossCause::Sampled, "sampled"),
        (LossCause::LinkDown, "link-down"),
        (LossCause::SenderCrashed, "sender-crashed"),
        (LossCause::ReceiverCrashed, "receiver-crashed"),
        (LossCause::NotHeld, "not-held"),
    ];
    let parts: Vec<String> = causes
        .iter()
        .filter_map(|&(cause, name)| {
            let count = lost.iter().filter(|l| l.cause == cause).count();
            (count > 0).then(|| format!("{name} {count}"))
        })
        .collect();
    if parts.is_empty() {
        "none".to_string()
    } else {
        parts.join(", ")
    }
}

/// FNV-1a fingerprint of the network: `n` plus every directed adjacency
/// entry in vertex order. Stored in the `.gfr` header so `gossip diff`
/// can flag captures taken on different graphs.
fn graph_digest(g: &Graph) -> u64 {
    let mut d = Digest::new();
    d.write_u64(g.n() as u64);
    for v in 0..g.n() {
        for u in g.neighbors(v) {
            d.write_u64(v as u64);
            d.write_u64(u as u64);
        }
    }
    d.finish()
}

/// Digest of a value's JSON serialization (a fault or churn plan).
fn json_digest(value: &impl Serialize) -> Result<u64, String> {
    let json = serde_json::to_string(value).map_err(|e| e.to_string())?;
    let mut d = Digest::new();
    d.write_bytes(json.as_bytes());
    Ok(d.finish())
}

/// Builds the `.gfr` run fingerprint shared by every recording command;
/// clean runs (no fault flags) record a fault digest of 0, per the
/// header contract.
fn flight_header(
    engine: &str,
    g: &Graph,
    radius: u32,
    flat: &FlatSchedule,
    faults: &Option<FaultPlan>,
    origins: &[usize],
) -> Result<FlightHeader, String> {
    Ok(FlightHeader {
        n: g.n() as u32,
        n_msgs: origins.len() as u32,
        radius,
        engine: engine.to_string(),
        graph_digest: graph_digest(g),
        schedule_digest: flat.digest(),
        fault_digest: faults.as_ref().map_or(Ok(0), json_digest)?,
        origins: origins.iter().map(|&o| o as u32).collect(),
    })
}

/// Parses the watchdog flags. Returns the rule set to monitor with, or
/// `None` when no alert flag was passed. `--alerts RULES.json` loads a
/// declarative rule file (which *replaces* the default set); a bare
/// `--alerts` — or `--alerts-fatal` / `--alerts-out` on their own —
/// monitors with the default rules.
fn parse_alert_rules(args: &Args) -> Result<Option<RuleSet>, String> {
    let wanted = ["alerts", "alerts-fatal", "alerts-out"]
        .iter()
        .any(|k| args.options.contains_key(*k));
    if !wanted {
        return Ok(None);
    }
    match args.options.get("alerts").map(String::as_str) {
        None | Some("true") => Ok(Some(RuleSet::default())),
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            text.parse::<RuleSet>()
                .map(Some)
                .map_err(|e| format!("{path}: {e}"))
        }
    }
}

/// What the watchdog checks a run against: Theorem 1's `n + r` bound,
/// the complete-gossip pair total, and (executors only) the repair-epoch
/// budget.
struct Watch {
    bound: usize,
    pairs: usize,
    max_epochs: Option<usize>,
}

/// The sinks a run records into, parsed from `--metrics`, `--flight-out`
/// and `--alerts*` before any work starts. [`RunSinks::run`] drives a
/// closure through `Paced(AlertEngine(Tee(base, flight)))`, leaving out
/// each layer nobody asked for, so one event stream feeds the metrics or
/// live registry, the capture and the watchdog. The `write_*` functions
/// and [`RunSinks::epilogue`] then write what the run left behind.
struct RunSinks {
    out: Out,
    metrics: Option<Metrics>,
    flight_path: Option<String>,
    /// Armed by [`RunSinks::arm`] once the run's header is known.
    flight: Option<FlightRecorder>,
    rules: Option<RuleSet>,
    alerts_out: Option<String>,
    fatal: bool,
    /// The watchdog's state, set when [`RunSinks::run`] monitored a run.
    alerts: OnceCell<Arc<AlertSink>>,
}

impl RunSinks {
    /// Parses the sink flags around `metrics` (from [`open_metrics`];
    /// `serve` passes `None`, having no metrics file).
    fn new(args: &Args, metrics: Option<Metrics>) -> Result<RunSinks, String> {
        Ok(RunSinks {
            out: Out::for_metrics(&metrics),
            metrics,
            flight_path: path_option(args, "flight-out")?,
            flight: None,
            rules: parse_alert_rules(args)?,
            alerts_out: path_option(args, "alerts-out")?,
            fatal: args.options.contains_key("alerts-fatal"),
            alerts: OnceCell::new(),
        })
    }

    /// The `--metrics` recorder, as the base layer of a run.
    fn recorder(&self) -> Option<&dyn Recorder> {
        self.metrics.as_ref().map(|m| &m.recorder as &dyn Recorder)
    }

    /// Arms the `--flight-out` capture; `header` runs only when one was
    /// asked for.
    fn arm(&mut self, header: impl FnOnce() -> Result<FlightHeader, String>) -> Result<(), String> {
        if self.flight_path.is_some() {
            self.flight = Some(FlightRecorder::new(header()?));
        }
        Ok(())
    }

    /// Runs `f` on `Paced(AlertEngine(Tee(base, flight)))`. A layer is
    /// present only when asked for: a `base`, an armed capture, alert
    /// rules, a nonzero `delay`. Pacing sits outermost so the watchdog's
    /// wall-clock stall budget sees the cadence scrapers see; the engine
    /// forwards everything, so the base and the capture see an unchanged
    /// stream plus the fired-alert events.
    fn run<R>(
        &self,
        base: Option<&dyn Recorder>,
        watch: Watch,
        delay: Duration,
        f: impl FnOnce(&dyn Recorder) -> R,
    ) -> R {
        let tee;
        let base: &dyn Recorder = match (base, &self.flight) {
            (Some(b), Some(flight)) => {
                tee = Tee::new(b, flight);
                &tee
            }
            (Some(b), None) => b,
            (None, Some(flight)) => flight,
            (None, None) => &NoopRecorder,
        };
        let engine;
        let watched: &dyn Recorder = match &self.rules {
            Some(rules) => {
                let mut e = AlertEngine::new(base, rules.clone())
                    .bound(watch.bound as u64)
                    .total_pairs(watch.pairs as u64);
                if let Some(k) = watch.max_epochs {
                    e = e.max_epochs(k as u64);
                }
                engine = e;
                self.alerts.get_or_init(|| engine.sink());
                &engine
            }
            None => base,
        };
        let paced;
        let rec: &dyn Recorder = if delay.is_zero() {
            watched
        } else {
            paced = Paced::new(watched, delay);
            &paced
        };
        f(rec)
    }

    /// Writes the armed capture to `--flight-out`.
    fn write_flight(&self) -> Result<(), String> {
        if let (Some(path), Some(rec)) = (&self.flight_path, &self.flight) {
            let bytes = rec.finish();
            std::fs::write(path, &bytes).map_err(|e| format!("{path}: {e}"))?;
            out!(
                self.out,
                "wrote flight record ({} record(s), {} bytes) to {path} — inspect with `gossip inspect {path}`",
                rec.len(),
                bytes.len()
            );
        }
        Ok(())
    }

    /// The watchdog epilogue: disarms the wall-clock poll, prints the
    /// fired alerts (or the all-clear), and writes the `kind: "alerts"`
    /// artifact when `--alerts-out` asked for one. Returns how many alerts
    /// fired (0 for an unmonitored run) so callers can apply
    /// [`RunSinks::alerts_fatal`] *after* their own pass/fail verdict.
    fn epilogue(&self) -> Result<usize, String> {
        let Some(sink) = self.alerts.get() else {
            return Ok(0);
        };
        let out = self.out;
        sink.set_done();
        let alerts = sink.alerts();
        if alerts.is_empty() {
            out!(out, "alerts: none fired");
        } else {
            out!(
                out,
                "alerts: {} fired{}",
                alerts.len(),
                if sink.has_critical() {
                    " (critical)"
                } else {
                    ""
                }
            );
            for a in &alerts {
                out!(
                    out,
                    "  round {:>3}: [{}] {} — {}",
                    a.round,
                    a.severity.label(),
                    a.rule,
                    a.message
                );
            }
        }
        if let Some(path) = &self.alerts_out {
            let json = serde_json::to_string_pretty(&sink.to_value()).map_err(|e| e.to_string())?;
            std::fs::write(path, json).map_err(|e| format!("{path}: {e}"))?;
            out!(
                out,
                "wrote alerts artifact to {path} — render with `gossip stats {path}`"
            );
        }
        Ok(alerts.len())
    }

    /// `--alerts-fatal`: exit nonzero when any alert fired. Applied after a
    /// command's own verdict so a failed run reports its primary error, not
    /// the watchdog's.
    fn alerts_fatal(&self, fired: usize) -> Result<(), String> {
        if self.fatal && fired > 0 {
            Err(format!("--alerts-fatal: {fired} alert(s) fired"))
        } else {
            Ok(())
        }
    }

    /// How an executor run ends: the capture (written even when the run
    /// fell short — that is exactly when a post-mortem matters), the
    /// metrics, then the alert epilogue. Returns how many alerts fired.
    fn finish(&self) -> Result<usize, String> {
        self.write_flight()?;
        write_metrics(&self.metrics)?;
        self.epilogue()
    }
}
