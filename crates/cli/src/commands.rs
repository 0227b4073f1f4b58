//! Subcommand implementations for the `gossip` CLI.

use crate::args::Args;
use gossip_bench::{diff_bench, DiffConfig};
use gossip_core::{
    annotated_concurrent_updown, gossip_lower_bound, optimal_gossip_time, rule_tag_index,
    run_online_threaded_traced, Algorithm, ChurnExecutor, ExactResult, GossipPlanner,
    ResilientExecutor, DEFAULT_MAX_EPOCHS,
};
use gossip_graph::Graph;
use gossip_model::{
    schedule_chrome_trace, simulate_gossip, trace_gossip, trace_gossip_lossy, vertex_trace,
    ChurnPlan, CommModel, FaultPlan, LossCause,
};
use gossip_obsd::{render_dashboard, History, ObsdServer, Paced};
use gossip_telemetry::flight::{Digest, FlightHeader, FlightLog, FlightRecorder, Tee};
use gossip_telemetry::{
    check_schema_version, AlertEngine, AlertSink, LiveRegistry, MetricsRecorder, Recorder, RuleSet,
    SharedBuffer, Value, SCHEMA_VERSION,
};
use gossip_workloads::Family;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Usage text shown by `gossip help`.
pub const USAGE: &str = "\
gossip — communication schedules for the multicast gossiping problem
          (Gonzalez, IPPS 2001: n + r rounds on any network of radius r)

commands:
  generate  --family F --n N [--seed S] [--out FILE] [--compact]
                                                       emit a graph as JSON
  plan      (--family F --n N | --graph FILE|NAME)
            [--algorithm concurrent-updown|simple|updown|telephone]
            [--planner fast|reference|both]
            [--stages all|tree]
            [--engine oracle|kernel|both]
            [--out FILE] [--trace-out FILE [--wall]]
            [--profile-out PROF.json]
            [--flight-out FILE.gfr]                    build + verify a schedule;
                                                       --planner fast runs the
                                                       CSR-direct pipeline, both
                                                       cross-checks it against the
                                                       reference; --stages tree stops
                                                       after the spanning tree (the
                                                       plan-at-scale mode: past
                                                       n = 65536 a full schedule
                                                       overflows u32 CSR offsets)
  profile   (GRAPH | --family F --n N | --graph FILE|NAME)
            [--algorithm A] [--planner fast|reference]
            [--out PROF.json]
            [--flame FILE]                             plan under the phase profiler:
                                                       per-phase time + work counters
                                                       (and heap attribution with the
                                                       prof-alloc build)
  trace     --family F --n N --vertex V                per-vertex table (paper style)
  bounds    --family F --n N                           lower bounds for a network
  exact     --family F --n N [--model telephone]       exact optimum (n <= 8)
  sweep     [--sizes 16,32,64] [--seed S]              n + r across all families
  analyze   (--family F --n N | --graph FILE) [--gantt] schedule profile
  compare   (--family F --n N | --graph FILE)           all algorithms side by side
  line      --n N (N <= 6)                              the n + r - 1 line schedule
  pipeline  --family F --n N [--batches K]              repeated-gossip overlap
  energy    --n N [--range R] [--seed S]                sensor-field energy model
  provenance (--family F --n N | --graph FILE|NAME)
            [--out FILE] [--message M]                 causal first-delivery DAG:
                                                       critical paths, slack vs n + r
  recover   (--family F --n N | --graph FILE|NAME)
            [--loss-rate P] [--crash V@T[,V@T..]]
            [--outage U-V@A..B[,..]] [--fault-seed S]
            [--max-epochs K] [--out FILE]
            [--trace-out FILE] [--flight-out FILE.gfr] run under faults + self-heal;
                                                       exit 1 if recovery falls short
  churn     (--family F --n N | --graph FILE|NAME)
            [--churn-rate P] [--churn-seed S]
            [--churn-plan FILE] [--churn-out FILE]
            [--max-epochs K] [--out FILE]
            [--flight-out FILE.gfr]                    run while a seeded churn plan
                                                       rewires the topology mid-run;
                                                       incremental schedule repair,
                                                       exit 1 if a reachable pair
                                                       is left undelivered
  bench-diff OLD.json NEW.json
            [--threshold PCT] [--wall-factor F]
            [--json]                                   compare BENCH_* artifacts;
                                                       exit 1 on regression; --json
                                                       prints per-field verdicts with
                                                       thresholds and deltas
  stats     METRICS.json|RECOVERY.json|CHURN.json|PROF.json|ALERTS.json|RUN.gfr|-
                                                       summarize a --metrics file, a
                                                       recovery report, a churn
                                                       report, a planner profile, an
                                                       --alerts-out artifact, or a
                                                       flight record (`-` = stdin)
  serve     (--family F --n N | --graph FILE|NAME)
            [--listen ADDR] [--addr-file FILE]
            [--round-delay-ms MS] [--linger-ms MS]
            [fault flags] [--max-epochs K]
            [--flight-out FILE.gfr]                    run the self-healing executor
                                                       under a live HTTP observability
                                                       server; exit 1 if recovery
                                                       falls short
  inspect   RUN.gfr|- [--round R]                      time-travel a flight record:
                                                       reconstructed hold-sets after
                                                       any round, the alert timeline,
                                                       and anomaly flags (`-` = stdin)
  diff      A.gfr B.gfr                                compare two flight records:
                                                       first divergent round, delivery
                                                       deltas; exit 1 unless identical
                                                       (one side may be `-` for stdin)
  dash      ARTIFACT.json|DIR [MORE...]
            [--out report.html] [--check]              aggregate metrics / BENCH_* /
                                                       recovery / profile / flight
                                                       artifacts into one
                                                       self-contained HTML dashboard;
                                                       --check exits 1 when cross-run
                                                       regression detection fires

options accepted by plan / analyze / pipeline / provenance:
  --metrics FILE    record span timings, counters, and per-round simulation
                    probes to FILE (inspect with `gossip stats FILE`);
                    `--metrics -` streams the artifact to stdout (human output
                    moves to stderr), enabling
                      gossip plan --family ring --n 16 --metrics - | gossip stats -

trace export (plan):
  --trace-out FILE  write a Chrome Trace Event Format / Perfetto JSON file:
                    one lane per processor, one slice per multicast (1 round
                    = 1 ms), tagged with the paper rule (U3/U4/D2/D3) that
                    produced it; add --wall to also run the threaded online
                    executor and append its wall-clock lanes

profiling (profile / plan --profile-out):
  the always-on phase profiler breaks schedule construction into a
  self-time/total-time phase tree (BFS sweeps, tree build, labeling,
  generation, CSR flattening, validation) with work counters. `gossip
  profile --out PROF.json` writes a schema-versioned PROF artifact
  (render with `gossip stats`, aggregate with `gossip dash`); --flame
  FILE writes collapsed stacks for flamegraph.pl / speedscope. Binaries
  built with `--features prof-alloc` additionally attribute allocation
  count / bytes / peak live bytes to each phase

live monitoring (serve):
  --listen ADDR        bind address (default 127.0.0.1:9464; port 0 picks a
                       free one)
  --addr-file FILE     write the bound host:port to FILE once listening, so
                       scripts can discover a `--listen 127.0.0.1:0` port
  --round-delay-ms MS  pause after each executed round (default 0) so
                       scrapers can watch `gossip_round_current` advance
  --linger-ms MS       keep serving for MS after the run completes so a
                       final `/metrics` scrape sees the finished state
  endpoints: /metrics (Prometheus text v0.0.4), /healthz (JSON liveness;
  degraded once a critical alert fires), /events (NDJSON stream of
  round/loss/epoch events), /alerts (JSON snapshot; /alerts/stream NDJSON)

alerting (plan / recover / churn / serve):
  --alerts [RULES.json]  evaluate streaming invariant monitors against the
                         run: round stall, knowledge-curve flatline,
                         projected breach of the n + r bound (fires before
                         the bound is crossed), loss-rate spike, recovery
                         epoch budget burn, churn invalidation storm. With
                         no file the built-in rule set runs; a JSON rule
                         file replaces it (severities info|warn|critical).
                         Fired alerts print after the run, land in the
                         flight record (`gossip inspect` timeline), count
                         into gossip_alerts_total{rule,severity}, and are
                         served on /alerts
  --alerts-fatal         exit 1 if any alert fired (implies --alerts)
  --alerts-out FILE      write fired alerts as a JSON artifact (implies
                         --alerts; render with `gossip stats FILE`)

flight recording (plan / recover / serve):
  --flight-out FILE.gfr  capture the executed run as a compact binary flight
                         record: every attempted transmission, suppressed
                         delivery, round boundary, and repair epoch, plus a
                         run fingerprint (graph / schedule / fault digests).
                         `plan` records a clean run (oracle or kernel per
                         --engine) or, with fault flags, a lossy no-repair
                         run; `recover` and `serve` capture the self-healing
                         execution. Inspect with `gossip inspect`, compare
                         runs with `gossip diff`

fault flags (plan / recover / serve):
  --loss-rate P     drop each delivery independently with probability P
  --crash V@T       crash-stop vertex V at the start of round T
                    (comma-separate for several: 3@5,7@9)
  --outage U-V@A..B link {U,V} down for rounds A..B (comma-separate)
  --fault-seed S    seed of the deterministic loss sampler (default 0)
  `plan` with fault flags additionally reports what a lossy run would lose
  (no repair); `recover` and `serve` run the self-healing executor

churn flags (churn):
  --churn-rate P    per-round probability of a topology event (default 0.05)
  --churn-seed S    seed of the deterministic churn generator (default 0)
  --churn-plan FILE replay a saved JSON churn plan instead of generating one
  --churn-out FILE  write the plan that ran (generated or loaded) as JSON,
                    so a generated run can be replayed exactly

--graph also accepts the paper's named instances: petersen (N2), n1 (the
Fig 1 ring, size --n), fig4, fig5 — and the generator specs
unit-disk:n,radius (seeded random geometric graph via --seed; the radius
grows by 1.25x until the field is connected) and gnp:n,p (seeded connected
G(n, p) via --seed; unlike the random-sparse family's fixed p = 0.1, the
density is explicit — at scale use p ~ 16/n to keep m ∝ n)

--algo is accepted as shorthand for --algorithm, and `concurrent` for
`concurrent-updown`

verification engines (plan):
  --engine kernel   flat-CSR bitset replay (SimKernel) — the default
  --engine oracle   the reference Simulator
  --engine both     run both, cross-check the outcomes, report timings;
                    --metrics always runs the oracle too (per-round probes
                    are an oracle feature)

families: path ring star complete binary-tree caterpillar grid torus
          hypercube random-tree random-sparse";

/// A `--metrics FILE` recorder: the buffer captures the JSONL event stream
/// so [`write_metrics`] can bundle it with the final snapshot.
struct Metrics {
    recorder: MetricsRecorder,
    events: SharedBuffer,
    path: String,
}

/// Opens a telemetry recorder when `--metrics FILE` was passed (any
/// subcommand that plans or simulates honors the flag). The parser stores
/// value-less options as `"true"`, which is never a sensible metrics path —
/// reject it rather than silently writing a file named `true`.
fn open_metrics(args: &Args) -> Result<Option<Metrics>, String> {
    match args.options.get("metrics") {
        Some(path) if path == "true" => {
            Err("--metrics requires a file path (e.g. --metrics out.json)".to_string())
        }
        Some(path) => {
            let events = SharedBuffer::new();
            Ok(Some(Metrics {
                recorder: MetricsRecorder::with_sink(Box::new(events.clone())),
                events,
                path: path.clone(),
            }))
        }
        None => Ok(None),
    }
}

/// Writes the metrics artifact consumed by `gossip stats`:
/// `{"schema_version": 1, "snapshot": {...}, "events": [...]}`.
/// With `--metrics -` the artifact goes to stdout (machine output owns the
/// stream; see [`Out`]).
fn write_metrics(m: &Metrics) -> Result<(), String> {
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

/// `out!(out, "fmt", args...)` — `println!` routed per [`Out`].
macro_rules! out {
    ($out:expr, $($arg:tt)*) => { $out.line(format_args!($($arg)*)) };
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

/// Loads a graph from a `--graph`-style spec: a `unit-disk:n,radius`
/// generator, a named paper instance (unless a file of that name
/// exists), or a JSON / edge-list file.
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

/// `gossip generate`: write a family instance as JSON.
pub fn generate(args: &Args) -> Result<(), String> {
    let g = load_graph(args)?;
    // --compact emits single-line JSON for piping; default is pretty.
    let json = if args.flag("compact") {
        serde_json::to_string(&g).map_err(|e| e.to_string())?
    } else {
        serde_json::to_string_pretty(&g).map_err(|e| e.to_string())?
    };
    match args.options.get("out") {
        Some(path) => {
            std::fs::write(path, json).map_err(|e| format!("{path}: {e}"))?;
            println!("wrote graph (n = {}, m = {}) to {path}", g.n(), g.m());
        }
        None => println!("{json}"),
    }
    Ok(())
}

/// Serialized form of a plan for `--out`.
#[derive(Serialize, Deserialize)]
struct PlanArtifact {
    schema_version: u64,
    algorithm: String,
    n: usize,
    radius: u32,
    makespan: usize,
    origin_of_message: Vec<usize>,
    schedule: gossip_model::Schedule,
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

/// Digest of a fault plan's JSON serialization; clean runs (no fault
/// flags) record 0, per the `.gfr` header contract.
fn fault_digest(faults: &Option<FaultPlan>) -> Result<u64, String> {
    match faults {
        None => Ok(0),
        Some(f) => {
            let json = serde_json::to_string(f).map_err(|e| e.to_string())?;
            let mut d = Digest::new();
            d.write_bytes(json.as_bytes());
            Ok(d.finish())
        }
    }
}

/// Parses `--flight-out FILE.gfr`, rejecting the parser's value-less
/// `"true"` sentinel (same treatment as `--metrics`).
fn flight_out_path(args: &Args) -> Result<Option<String>, String> {
    match args.options.get("flight-out") {
        Some(p) if p == "true" => {
            Err("--flight-out requires a file path (e.g. --flight-out run.gfr)".to_string())
        }
        other => Ok(other.cloned()),
    }
}

/// Parses a path-valued option, rejecting the parser's value-less
/// `"true"` sentinel (same treatment as `--metrics` / `--flight-out`).
fn path_option(args: &Args, key: &str) -> Result<Option<String>, String> {
    match args.options.get(key) {
        Some(p) if p == "true" => Err(format!("--{key} requires a file path")),
        other => Ok(other.cloned()),
    }
}

/// Builds the `.gfr` run fingerprint shared by every recording command.
fn flight_header(
    engine: &str,
    g: &Graph,
    radius: u32,
    flat: &gossip_model::FlatSchedule,
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
        fault_digest: fault_digest(faults)?,
        origins: origins.iter().map(|&o| o as u32).collect(),
    })
}

/// Replays `flat` through the bitset kernel with a [`FlightRecorder`]
/// attached and writes the clean capture (engine label `kernel`) to
/// `path` — `gossip plan --flight-out` without fault flags, on either
/// planner.
fn capture_clean_kernel(
    path: &str,
    g: &Graph,
    model: CommModel,
    radius: u32,
    flat: &gossip_model::FlatSchedule,
    origins: &[usize],
    out: Out,
) -> Result<(), String> {
    let flight = FlightRecorder::new(flight_header("kernel", g, radius, flat, &None, origins)?);
    gossip_model::SimKernel::with_origins(g, model, origins)
        .and_then(|mut sim| sim.run_recorded(flat, &flight))
        .map_err(|e| e.to_string())?;
    write_flight(path, &flight, out)
}

/// Writes a finished flight capture to `path`.
fn write_flight(path: &str, rec: &FlightRecorder, out: Out) -> Result<(), String> {
    let bytes = rec.finish();
    std::fs::write(path, &bytes).map_err(|e| format!("{path}: {e}"))?;
    out!(
        out,
        "wrote flight record ({} record(s), {} bytes) to {path} — inspect with `gossip inspect {path}`",
        rec.len(),
        bytes.len()
    );
    Ok(())
}

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

/// Parses the watchdog flags shared by `plan` / `recover` / `churn` /
/// `serve`. Returns the rule set to monitor with, or `None` when no
/// alert flag was passed. `--alerts RULES.json` loads a declarative rule
/// file (which *replaces* the default set); a bare `--alerts` — or
/// `--alerts-fatal` / `--alerts-out` on their own — monitors with the
/// default rules.
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

/// The watchdog epilogue shared by every monitored command: disarms the
/// wall-clock poll, prints the fired alerts (or the all-clear), and
/// writes the `kind: "alerts"` artifact when `--alerts-out` asked for
/// one. Returns how many alerts fired so callers can apply
/// `--alerts-fatal` *after* their own pass/fail verdict.
fn alerts_epilogue(sink: &Arc<AlertSink>, args: &Args, out: Out) -> Result<usize, String> {
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
    if let Some(path) = path_option(args, "alerts-out")? {
        let json = serde_json::to_string_pretty(&sink.to_value()).map_err(|e| e.to_string())?;
        std::fs::write(&path, json).map_err(|e| format!("{path}: {e}"))?;
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
fn alerts_fatal(args: &Args, fired: usize) -> Result<(), String> {
    if args.options.contains_key("alerts-fatal") && fired > 0 {
        Err(format!("--alerts-fatal: {fired} alert(s) fired"))
    } else {
        Ok(())
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

/// Parses `--stages all|tree` (default `all`); `tree` stops after the
/// spanning tree + label arena — the plan-at-scale mode for sizes whose
/// full schedule cannot be materialized (gossip delivers exactly n(n-1)
/// messages, which overflows u32 CSR offsets past n = 65536).
fn parse_tree_only(args: &Args) -> Result<bool, String> {
    match args.options.get("stages").map(String::as_str) {
        None | Some("all") => Ok(false),
        Some("tree") => Ok(true),
        Some(other) => Err(format!("--stages must be all or tree (got {other})")),
    }
}

/// `gossip plan`: build, verify, and summarize (optionally dump) a schedule.
/// Which verification engine `gossip plan` runs after building a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Engine {
    /// The reference [`gossip_model::Simulator`] (hash/Vec state).
    Oracle,
    /// The flat-CSR bitset [`gossip_model::SimKernel`] (the default).
    Kernel,
    /// Both, cross-checked outcome-for-outcome, with timings reported.
    Both,
}

/// Parses `--engine oracle|kernel|both` (default `kernel`).
fn parse_engine(args: &Args) -> Result<Engine, String> {
    match args.options.get("engine").map(String::as_str) {
        None | Some("kernel") => Ok(Engine::Kernel),
        Some("oracle") => Ok(Engine::Oracle),
        Some("both") => Ok(Engine::Both),
        Some(other) => Err(format!(
            "--engine must be oracle, kernel, or both (got {other})"
        )),
    }
}

pub fn plan(args: &Args) -> Result<(), String> {
    let g = load_graph(args)?;
    let alg = parse_algorithm(args)?;
    let planner_mode = parse_planner(args)?;
    if planner_mode != Planner::Reference && alg != Algorithm::ConcurrentUpDown {
        return Err("--planner fast/both implements concurrent-updown only".into());
    }
    if parse_tree_only(args)? {
        return plan_tree_only(args, &g, planner_mode);
    }
    if planner_mode == Planner::Fast {
        return plan_fast_only(args, &g);
    }
    let metrics = open_metrics(args)?;
    let out = Out::for_metrics(&metrics);
    let mut planner = GossipPlanner::new(&g)
        .map_err(|e| e.to_string())?
        .algorithm(alg);
    if let Some(m) = &metrics {
        planner = planner.recorder(&m.recorder);
    }
    // --profile-out: install the phase profiler across construction and
    // engine verification, so the artifact also captures the kernel
    // path's flatten / validate phases.
    let profile_out = path_option(args, "profile-out")?;
    let profiler = profile_out
        .as_ref()
        .map(|_| gossip_telemetry::profile::Profiler::begin());
    let t_profile = std::time::Instant::now();
    let plan = planner.plan().map_err(|e| e.to_string())?;
    let model = if alg == Algorithm::Telephone {
        CommModel::Telephone
    } else {
        CommModel::Multicast
    };
    let engine = parse_engine(args)?;
    // Per-round probes are an oracle feature, so --metrics always runs the
    // reference Simulator; the kernel engine then verifies on top of it.
    let want_oracle = engine != Engine::Kernel || metrics.is_some();
    let want_kernel = engine != Engine::Oracle;
    let mut oracle_outcome = None;
    let mut oracle_ms = 0.0;
    if want_oracle {
        let t0 = std::time::Instant::now();
        let mut sim = gossip_model::Simulator::with_origins(&g, model, &plan.origin_of_message)
            .map_err(|e| e.to_string())?;
        // The recorded run enforces the same model rules and additionally
        // streams per-round probes (sent / fan-out / idle / coverage).
        let o = match &metrics {
            Some(m) => sim.run_recorded(&plan.schedule, &m.recorder),
            None => sim.run(&plan.schedule),
        }
        .map_err(|e| e.to_string())?;
        oracle_ms = t0.elapsed().as_secs_f64() * 1e3;
        oracle_outcome = Some(o);
    }
    let mut kernel_outcome = None;
    let mut kernel_ms = 0.0;
    if want_kernel {
        let t0 = std::time::Instant::now();
        let o = gossip_model::validate_gossip_schedule(
            &g,
            &plan.schedule,
            &plan.origin_of_message,
            model,
        )
        .map_err(|e| e.to_string())?;
        kernel_ms = t0.elapsed().as_secs_f64() * 1e3;
        kernel_outcome = Some(o);
    }
    if let (Some(a), Some(b)) = (&oracle_outcome, &kernel_outcome) {
        if a != b {
            return Err(format!(
                "verification engines disagree (bug): oracle {a:?} vs kernel {b:?}"
            ));
        }
    }
    let both_ran = oracle_outcome.is_some() && kernel_outcome.is_some();
    let outcome = kernel_outcome
        .or(oracle_outcome)
        .expect("at least one engine always runs");
    if !outcome.complete {
        return Err("schedule did not complete gossip (bug)".into());
    }
    // --planner both: rebuild through the fast pipeline and cross-check it
    // against the reference plan (inside the profiled window, so the fast
    // phases land in --profile-out artifacts).
    let mut planner_note = None;
    if planner_mode == Planner::Both {
        let t0 = std::time::Instant::now();
        let fast = planner.plan_fast().map_err(|e| e.to_string())?;
        fast.schedule
            .validate(&g, model, fast.origin_of_message.len())
            .map_err(|e| format!("planner cross-check: fast schedule invalid: {e}"))?;
        let mut kern = gossip_model::SimKernel::with_origins(&g, model, &fast.origin_of_message)
            .map_err(|e| e.to_string())?;
        let ko = kern
            .run_prevalidated(&fast.schedule)
            .map_err(|e| e.to_string())?;
        if !ko.complete {
            return Err("planner cross-check: fast schedule did not complete gossip".into());
        }
        if fast.radius != plan.radius {
            return Err(format!(
                "planner cross-check: radii differ (fast {} vs reference {})",
                fast.radius, plan.radius
            ));
        }
        if fast.makespan() != plan.makespan() {
            return Err(format!(
                "planner cross-check: makespans differ (fast {} vs reference {})",
                fast.makespan(),
                plan.makespan()
            ));
        }
        let fast_ms = t0.elapsed().as_secs_f64() * 1e3;
        planner_note = Some(if fast.tree == plan.tree {
            let ref_flat = gossip_model::FlatSchedule::from_schedule(&plan.schedule);
            if fast.schedule != ref_flat {
                return Err(
                    "planner cross-check: schedules differ on identical trees (bug)".into(),
                );
            }
            format!(
                "planner cross-check: fast path byte-identical (digest {:016x}) in {fast_ms:.2} ms",
                fast.schedule.digest()
            )
        } else {
            format!(
                "planner cross-check: fast path valid at the same n + r = {} \
                 (equal-depth root tie broken differently) in {fast_ms:.2} ms",
                fast.makespan()
            )
        });
    }
    if let (Some(profiler), Some(path)) = (profiler, &profile_out) {
        let profiled_ms = t_profile.elapsed().as_secs_f64() * 1e3;
        let profile = profiler.finish();
        let doc = profile_artifact(&g, alg, plan.radius, plan.makespan(), profiled_ms, &profile);
        let json = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
        std::fs::write(path, json).map_err(|e| format!("{path}: {e}"))?;
        out!(
            out,
            "wrote profile to {path} — render with `gossip stats {path}`"
        );
    }
    out!(
        out,
        "network: n = {}, m = {}, radius r = {}",
        g.n(),
        g.m(),
        plan.radius
    );
    out!(out, "algorithm: {}", alg.name());
    match alg {
        Algorithm::ConcurrentUpDown => out!(
            out,
            "makespan: {} rounds (guarantee n + r = {})",
            plan.makespan(),
            plan.guarantee()
        ),
        _ => out!(
            out,
            "makespan: {} rounds (concurrent-updown reference: n + r = {})",
            plan.makespan(),
            plan.guarantee()
        ),
    }
    let stats = plan.schedule.stats();
    out!(
        out,
        "verified ({}): complete; {} transmissions, {} deliveries, max fanout {}",
        match engine {
            Engine::Oracle => "oracle simulator",
            Engine::Kernel => "bitset kernel",
            Engine::Both => "oracle + kernel, outcomes identical",
        },
        stats.transmissions,
        stats.deliveries,
        stats.max_fanout
    );
    if both_ran && engine == Engine::Both {
        out!(
            out,
            "engine timings: oracle {oracle_ms:.2} ms, kernel {kernel_ms:.2} ms ({:.1}x)",
            oracle_ms / kernel_ms.max(1e-9)
        );
    }
    if let Some(note) = &planner_note {
        out!(out, "{note}");
    }
    if let Some(faults) = parse_fault_plan(args, g.n())? {
        // Fault flags: additionally report what a lossy run (no repair)
        // would do to this schedule — losses by cause, DAG gaps, residual.
        let (lossy_out, dag, lost) =
            trace_gossip_lossy(&g, &plan.schedule, &plan.origin_of_message, model, &faults)
                .map_err(|e| e.to_string())?;
        let full_edges = g.n() * (g.n() - 1);
        out!(
            out,
            "under faults (seed {}, loss rate {}): {} of {} deliveries lost ({})",
            faults.seed,
            faults.loss_rate,
            lost.len(),
            stats.deliveries,
            loss_breakdown(&lost)
        );
        out!(
            out,
            "first-delivery DAG: {} of {full_edges} edges; {} (message, vertex) pairs never arrived{}",
            dag.edge_count(),
            full_edges.saturating_sub(dag.edge_count()),
            if lossy_out.complete_among_alive {
                " — complete among survivors despite faults"
            } else {
                " — run `gossip recover` to heal"
            }
        );
        if let Some(m) = &metrics {
            m.recorder.counter("recovery/lost", lost.len() as u64);
        }
    }
    // --alerts: replay the planned schedule through the bitset kernel
    // with the watchdog attached — the bound and loss monitors see the
    // same per-round stream an executor would emit, so a lossy plan
    // (fault flags) surfaces loss_spike / bound alerts without leaving
    // `gossip plan`.
    if let Some(rules) = parse_alert_rules(args)? {
        let flat = gossip_model::FlatSchedule::from_schedule(&plan.schedule);
        let faults = parse_fault_plan(args, g.n())?;
        let engine = AlertEngine::new(&gossip_telemetry::NoopRecorder, rules)
            .bound(plan.guarantee() as u64)
            .total_pairs((g.n() * plan.origin_of_message.len()) as u64);
        let mut sim = gossip_model::SimKernel::with_origins(&g, model, &plan.origin_of_message)
            .map_err(|e| e.to_string())?;
        match &faults {
            Some(f) => {
                let mut lost = Vec::new();
                sim.run_lossy_recorded(&flat, f, &mut lost, &engine)
                    .map_err(|e| e.to_string())?;
            }
            None => {
                sim.run_recorded(&flat, &engine)
                    .map_err(|e| e.to_string())?;
            }
        }
        let sink = engine.sink();
        let fired = alerts_epilogue(&sink, args, out)?;
        alerts_fatal(args, fired)?;
    }
    if let Some(path) = flight_out_path(args)? {
        // A dedicated recording pass: the verification runs above stay
        // untimed by the capture, and fault flags turn the capture into a
        // lossy no-repair run — the natural `gossip diff` partner for a
        // clean capture of the same plan.
        let flat = gossip_model::FlatSchedule::from_schedule(&plan.schedule);
        let faults = parse_fault_plan(args, g.n())?;
        let origins = &plan.origin_of_message;
        match &faults {
            Some(f) => {
                let header = flight_header("lossy", &g, plan.radius, &flat, &faults, origins)?;
                let flight = FlightRecorder::new(header);
                let mut sim = gossip_model::SimKernel::with_origins(&g, model, origins)
                    .map_err(|e| e.to_string())?;
                let mut lost = Vec::new();
                sim.run_lossy_recorded(&flat, f, &mut lost, &flight)
                    .map_err(|e| e.to_string())?;
                write_flight(&path, &flight, out)?;
            }
            None if engine == Engine::Oracle => {
                let header = flight_header("oracle", &g, plan.radius, &flat, &None, origins)?;
                let flight = FlightRecorder::new(header);
                let mut sim = gossip_model::Simulator::with_origins(&g, model, origins)
                    .map_err(|e| e.to_string())?;
                sim.run_recorded(&plan.schedule, &flight)
                    .map_err(|e| e.to_string())?;
                write_flight(&path, &flight, out)?;
            }
            None => capture_clean_kernel(&path, &g, model, plan.radius, &flat, origins, out)?,
        }
    }
    if let Some(path) = args.options.get("out") {
        let artifact = PlanArtifact {
            schema_version: SCHEMA_VERSION,
            algorithm: alg.name().to_string(),
            n: g.n(),
            radius: plan.radius,
            makespan: plan.makespan(),
            origin_of_message: plan.origin_of_message.clone(),
            schedule: plan.schedule.clone(),
        };
        let json = serde_json::to_string_pretty(&artifact).map_err(|e| e.to_string())?;
        std::fs::write(path, json).map_err(|e| format!("{path}: {e}"))?;
        out!(out, "wrote plan to {path}");
    }
    if let Some(path) = args.options.get("trace-out") {
        if path == "true" {
            return Err("--trace-out requires a file path".into());
        }
        // Logical-round lanes; ConcurrentUpDown slices carry the paper
        // rule (U3/U4/D2/D3/merged) that produced each multicast.
        let mut chrome = if alg == Algorithm::ConcurrentUpDown {
            let tags = rule_tag_index(&annotated_concurrent_updown(&plan.tree));
            schedule_chrome_trace(&plan.schedule, &|t, from| {
                tags.get(&(t, from)).map(|r| r.tag().to_string())
            })
        } else {
            schedule_chrome_trace(&plan.schedule, &|_, _| None)
        };
        // --wall: run the threaded online executor and append its
        // wall-clock lanes (its own pid) to the same file.
        if args.flag("wall") {
            if alg != Algorithm::ConcurrentUpDown {
                return Err("--wall requires the concurrent-updown algorithm".into());
            }
            let (_, wall) = match &metrics {
                Some(m) => run_online_threaded_traced(&plan.tree, &m.recorder),
                None => run_online_threaded_traced(&plan.tree, &gossip_telemetry::NoopRecorder),
            };
            chrome.extend(wall);
        }
        std::fs::write(path, chrome.to_json()).map_err(|e| format!("{path}: {e}"))?;
        out!(
            out,
            "wrote Chrome trace ({} events) to {path} — load in chrome://tracing or ui.perfetto.dev",
            chrome.len()
        );
    }
    if let Some(m) = &metrics {
        write_metrics(m)?;
    }
    Ok(())
}

/// `gossip plan --planner fast`: the CSR-direct pipeline end to end —
/// pruned bitset tree sweep, flat label arena, straight-into-CSR
/// generation — verified by structural validation plus a bitset-kernel
/// replay, and captured by `--flight-out` as a clean kernel run. Options
/// that need the reference `Schedule` representation (trace export, plan
/// artifacts, fault injection, the oracle engine) are rejected; use
/// `--planner both` to combine them with a fast cross-check.
fn plan_fast_only(args: &Args, g: &Graph) -> Result<(), String> {
    const NEEDS_REFERENCE: &[&str] = &[
        "engine",
        "trace-out",
        "wall",
        "out",
        "loss-rate",
        "crash",
        "outage",
        "fault-seed",
    ];
    if let Some(k) = NEEDS_REFERENCE
        .iter()
        .find(|k| args.options.contains_key(**k))
    {
        return Err(format!(
            "--{k} needs the reference schedule; use --planner reference or both"
        ));
    }
    let flight_out = flight_out_path(args)?;
    let metrics = open_metrics(args)?;
    let out = Out::for_metrics(&metrics);
    let mut planner = GossipPlanner::new(g).map_err(|e| e.to_string())?;
    if let Some(m) = &metrics {
        planner = planner.recorder(&m.recorder);
    }
    let profile_out = path_option(args, "profile-out")?;
    let profiler = profile_out
        .as_ref()
        .map(|_| gossip_telemetry::profile::Profiler::begin());
    let t0 = std::time::Instant::now();
    let plan = planner.plan_fast().map_err(|e| e.to_string())?;
    plan.schedule
        .validate(g, CommModel::Multicast, plan.origin_of_message.len())
        .map_err(|e| e.to_string())?;
    let plan_ms = t0.elapsed().as_secs_f64() * 1e3;
    if let (Some(profiler), Some(path)) = (profiler, &profile_out) {
        let profile = profiler.finish();
        let doc = profile_artifact(
            g,
            Algorithm::ConcurrentUpDown,
            plan.radius,
            plan.makespan(),
            plan_ms,
            &profile,
        );
        let json = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
        std::fs::write(path, json).map_err(|e| format!("{path}: {e}"))?;
        out!(
            out,
            "wrote profile to {path} — render with `gossip stats {path}`"
        );
    }
    let t1 = std::time::Instant::now();
    let mut kernel =
        gossip_model::SimKernel::with_origins(g, CommModel::Multicast, &plan.origin_of_message)
            .map_err(|e| e.to_string())?;
    let outcome = kernel
        .run_prevalidated(&plan.schedule)
        .map_err(|e| e.to_string())?;
    let kernel_ms = t1.elapsed().as_secs_f64() * 1e3;
    if !outcome.complete {
        return Err("schedule did not complete gossip (bug)".into());
    }
    out!(
        out,
        "network: n = {}, m = {}, radius r = {}",
        g.n(),
        g.m(),
        plan.radius
    );
    out!(
        out,
        "algorithm: concurrent-updown (fast planner, CSR-direct)"
    );
    out!(
        out,
        "makespan: {} rounds (guarantee n + r = {})",
        plan.makespan(),
        plan.guarantee()
    );
    let stats = plan.schedule.stats();
    out!(
        out,
        "verified (flat validate + bitset kernel): complete; {} transmissions, {} deliveries, max fanout {}",
        stats.transmissions,
        stats.deliveries,
        stats.max_fanout
    );
    out!(
        out,
        "timings: plan + flatten + validate {plan_ms:.2} ms, kernel replay {kernel_ms:.2} ms"
    );
    if let Some(path) = flight_out {
        capture_clean_kernel(
            &path,
            g,
            CommModel::Multicast,
            plan.radius,
            &plan.schedule,
            &plan.origin_of_message,
            out,
        )?;
    }
    if let Some(m) = &metrics {
        write_metrics(m)?;
    }
    Ok(())
}

/// `gossip plan --stages tree`: build (and, with `--planner both`,
/// cross-check) only the spanning tree and label arena. This is the
/// plan-at-scale mode: past n = 65536 a full gossip schedule carries more
/// than `u32::MAX` deliveries and cannot be materialized in CSR form, but
/// the tree+label phases — the part the fast sweep accelerates — still run
/// and can be profiled.
fn plan_tree_only(args: &Args, g: &Graph, mode: Planner) -> Result<(), String> {
    let metrics = open_metrics(args)?;
    let out = Out::for_metrics(&metrics);
    let profile_out = path_option(args, "profile-out")?;
    let profiler = profile_out
        .as_ref()
        .map(|_| gossip_telemetry::profile::Profiler::begin());
    let t_all = std::time::Instant::now();
    let order = gossip_graph::ChildOrder::default();
    let recorder: &dyn Recorder = match &metrics {
        Some(m) => &m.recorder,
        None => &gossip_telemetry::NoopRecorder,
    };
    out!(out, "network: n = {}, m = {}", g.n(), g.m());

    let mut radius = 0;
    let mut fast_tree = None;
    if mode != Planner::Reference {
        let t0 = std::time::Instant::now();
        let tree = gossip_graph::min_depth_spanning_tree_fast_recorded(g, order, recorder)
            .map_err(|e| e.to_string())?;
        let tree_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t1 = std::time::Instant::now();
        let labels = gossip_core::FlatLabels::new(&tree);
        let label_ms = t1.elapsed().as_secs_f64() * 1e3;
        out!(
            out,
            "fast planner: tree of height r = {} (root {}) in {tree_ms:.2} ms; {} labels in {label_ms:.2} ms",
            tree.height(),
            tree.root(),
            labels.n()
        );
        radius = tree.height();
        fast_tree = Some(tree);
    }
    if mode != Planner::Fast {
        let t0 = std::time::Instant::now();
        let tree = gossip_graph::min_depth_spanning_tree_recorded(g, order, recorder)
            .map_err(|e| e.to_string())?;
        let tree_ms = t0.elapsed().as_secs_f64() * 1e3;
        radius = tree.height();
        out!(
            out,
            "reference planner: tree of height r = {} (root {}) in {tree_ms:.2} ms",
            tree.height(),
            tree.root()
        );
        if let Some(fast) = &fast_tree {
            if fast.height() != tree.height() {
                return Err(format!(
                    "planner cross-check: tree heights differ (fast {} vs reference {})",
                    fast.height(),
                    tree.height()
                ));
            }
            out!(
                out,
                "planner cross-check: equal radius r = {}{}",
                tree.height(),
                if fast.root() == tree.root() {
                    ", same root"
                } else {
                    " (equal-depth root tie broken differently)"
                }
            );
        }
    }
    out!(out, "stages: tree — schedule generation skipped");
    if let (Some(profiler), Some(path)) = (profiler, &profile_out) {
        let wall_ms = t_all.elapsed().as_secs_f64() * 1e3;
        let profile = profiler.finish();
        let doc = profile_artifact(g, Algorithm::ConcurrentUpDown, radius, 0, wall_ms, &profile);
        let json = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
        std::fs::write(path, json).map_err(|e| format!("{path}: {e}"))?;
        out!(
            out,
            "wrote profile to {path} — render with `gossip stats {path}`"
        );
    }
    if let Some(m) = &metrics {
        write_metrics(m)?;
    }
    Ok(())
}

/// Builds the schema-versioned PROF artifact (`kind: "profile"`) shared
/// by `gossip profile` and `gossip plan --profile-out`.
fn profile_artifact(
    g: &Graph,
    alg: Algorithm,
    radius: u32,
    makespan: usize,
    plan_ms: f64,
    profile: &gossip_telemetry::profile::Profile,
) -> Value {
    let attributed = profile.attributed_ms().min(plan_ms);
    let pct = if plan_ms > 0.0 {
        100.0 * attributed / plan_ms
    } else {
        100.0
    };
    Value::Object(vec![
        (
            "schema_version".to_string(),
            Value::from_u64(SCHEMA_VERSION),
        ),
        ("kind".to_string(), Value::String("profile".to_string())),
        (
            "algorithm".to_string(),
            Value::String(alg.name().to_string()),
        ),
        ("n".to_string(), Value::from_u64(g.n() as u64)),
        ("m".to_string(), Value::from_u64(g.m() as u64)),
        ("radius".to_string(), Value::from_u64(radius as u64)),
        ("makespan".to_string(), Value::from_u64(makespan as u64)),
        ("plan_ms".to_string(), Value::from_f64(plan_ms)),
        ("attributed_ms".to_string(), Value::from_f64(attributed)),
        (
            "unattributed_ms".to_string(),
            Value::from_f64((plan_ms - attributed).max(0.0)),
        ),
        ("attributed_pct".to_string(), Value::from_f64(pct)),
        (
            "alloc_tracking".to_string(),
            Value::Bool(profile.alloc_tracking()),
        ),
        ("phases".to_string(), profile.to_value()),
    ])
}

/// Renders a PROF phase forest as an indented table: one row per phase
/// with call count, total and self time, plus work counters and (when
/// recorded) allocation stats. Shared by `gossip profile` and `gossip
/// stats`.
fn render_profile_phases(phases: &Value) -> String {
    fn walk(out: &mut String, node: &Value, depth: usize) {
        let name = node.get("name").and_then(Value::as_str).unwrap_or("?");
        let calls = node.get("calls").and_then(Value::as_u64).unwrap_or(0);
        let total = node.get("total_ms").and_then(Value::as_f64).unwrap_or(0.0);
        let selfms = node.get("self_ms").and_then(Value::as_f64).unwrap_or(0.0);
        let label = format!("{}{name}", "  ".repeat(depth));
        let mut extras = Vec::new();
        if let Some(counters) = node.get("counters").and_then(Value::as_object) {
            for (k, v) in counters {
                extras.push(format!("{k}={}", v.as_u64().unwrap_or(0)));
            }
        }
        if let Some(alloc) = node.get("alloc") {
            if let (Some(a), Some(b), Some(p)) = (
                alloc.get("allocs").and_then(Value::as_u64),
                alloc.get("bytes").and_then(Value::as_u64),
                alloc.get("peak_bytes").and_then(Value::as_u64),
            ) {
                extras.push(format!("allocs={a} bytes={b} peak={p}"));
            }
        }
        let extras = if extras.is_empty() {
            String::new()
        } else {
            format!("  [{}]", extras.join(", "))
        };
        out.push_str(&format!(
            "{label:<34} {calls:>7} {total:>11.3} {selfms:>11.3}{extras}\n"
        ));
        if let Some(children) = node.get("children").and_then(Value::as_array) {
            for c in children {
                walk(out, c, depth + 1);
            }
        }
    }
    let mut out = format!(
        "{:<34} {:>7} {:>11} {:>11}\n",
        "phase", "calls", "total ms", "self ms"
    );
    if let Some(roots) = phases.as_array() {
        for r in roots {
            walk(&mut out, r, 0);
        }
    }
    out
}

/// `gossip profile`: build a schedule with the phase profiler installed
/// and report where the construction time went. The profiled window
/// covers the whole construction pipeline — spanning tree sweeps,
/// labeling, schedule generation, CSR flattening, structural validation —
/// and the report states how much of the wall time landed in named phases
/// (the unattributed remainder is printed explicitly). The kernel replay
/// that verifies gossip completion runs *outside* the window: it is
/// run-side simulation, not schedule construction. `--out FILE` writes
/// the PROF artifact (render later with `gossip stats`, aggregate with
/// `gossip dash`); `--flame FILE` writes collapsed stacks for flamegraph
/// tooling.
pub fn profile(args: &Args) -> Result<(), String> {
    // The graph can come positionally (`gossip profile fig4`) or via the
    // usual --graph / --family flags.
    let g = match args.positional.first() {
        Some(spec) => {
            if args.options.contains_key("graph") {
                return Err("give the graph positionally or via --graph, not both".into());
            }
            load_graph_spec(spec, args)?
        }
        None => load_graph(args)?,
    };
    let alg = parse_algorithm(args)?;
    let planner_mode = parse_planner(args)?;
    if planner_mode == Planner::Both {
        return Err(
            "--planner both is a `gossip plan` cross-check; profile one planner at a time".into(),
        );
    }
    if planner_mode == Planner::Fast && alg != Algorithm::ConcurrentUpDown {
        return Err("--planner fast implements concurrent-updown only".into());
    }
    let out_path = path_option(args, "out")?;
    let flame_path = path_option(args, "flame")?;
    let model = if alg == Algorithm::Telephone {
        CommModel::Telephone
    } else {
        CommModel::Multicast
    };

    let profiler = gossip_telemetry::profile::Profiler::begin();
    let t0 = std::time::Instant::now();
    let (radius, makespan, guarantee, flat, origins) = if planner_mode == Planner::Fast {
        let plan = GossipPlanner::new(&g)
            .map_err(|e| e.to_string())?
            .plan_fast()
            .map_err(|e| e.to_string())?;
        plan.schedule
            .validate(&g, model, plan.origin_of_message.len())
            .map_err(|e| e.to_string())?;
        (
            plan.radius,
            plan.makespan(),
            plan.guarantee(),
            plan.schedule,
            plan.origin_of_message,
        )
    } else {
        let plan = GossipPlanner::new(&g)
            .map_err(|e| e.to_string())?
            .algorithm(alg)
            .plan()
            .map_err(|e| e.to_string())?;
        let flat = gossip_model::FlatSchedule::from_schedule(&plan.schedule);
        flat.validate(&g, model, plan.origin_of_message.len())
            .map_err(|e| e.to_string())?;
        (
            plan.radius,
            plan.makespan(),
            plan.guarantee(),
            flat,
            plan.origin_of_message,
        )
    };
    let plan_ms = t0.elapsed().as_secs_f64() * 1e3;
    let profile = profiler.finish();

    let mut kernel =
        gossip_model::SimKernel::with_origins(&g, model, &origins).map_err(|e| e.to_string())?;
    let outcome = kernel.run_prevalidated(&flat).map_err(|e| e.to_string())?;
    if !outcome.complete {
        return Err("schedule did not complete gossip (bug)".into());
    }

    let doc = profile_artifact(&g, alg, radius, makespan, plan_ms, &profile);
    println!(
        "network: n = {}, m = {}, radius r = {}",
        g.n(),
        g.m(),
        radius
    );
    println!(
        "algorithm: {}{} — makespan {} rounds (n + r = {})",
        alg.name(),
        if planner_mode == Planner::Fast {
            " (fast planner, CSR-direct)"
        } else {
            ""
        },
        makespan,
        guarantee
    );
    println!("construction: {plan_ms:.3} ms wall (tree + generate + flatten + validate)");
    print!("{}", render_profile_phases(&doc["phases"]));
    let attributed = doc
        .get("attributed_ms")
        .and_then(Value::as_f64)
        .unwrap_or(0.0);
    let pct = doc
        .get("attributed_pct")
        .and_then(Value::as_f64)
        .unwrap_or(0.0);
    let unattributed = doc
        .get("unattributed_ms")
        .and_then(Value::as_f64)
        .unwrap_or(0.0);
    println!(
        "attribution: {attributed:.3} ms of {plan_ms:.3} ms in named phases ({pct:.1}%); {unattributed:.3} ms unattributed"
    );
    if profile.alloc_tracking() {
        println!(
            "allocation tracking: on — peak live {} bytes in the hottest phase",
            profile.peak_bytes()
        );
    } else {
        println!(
            "allocation tracking: off — build with `--features prof-alloc` to attribute heap traffic"
        );
    }
    if let Some(path) = &out_path {
        let json = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
        std::fs::write(path, json).map_err(|e| format!("{path}: {e}"))?;
        println!("wrote profile to {path} — render with `gossip stats {path}`");
    }
    if let Some(path) = &flame_path {
        let flame = profile.collapsed_stacks();
        std::fs::write(path, &flame).map_err(|e| format!("{path}: {e}"))?;
        println!(
            "wrote {} collapsed stack line(s) to {path} — feed to flamegraph.pl or speedscope",
            flame.lines().count()
        );
    }
    Ok(())
}

/// `gossip recover`: run the plan under a fault plan with the self-healing
/// executor and report the recovery outcome. Errors (exit 1) when the epoch
/// budget ran out with recoverable pairs still missing, so scripts and CI
/// can gate on full recovery.
pub fn recover(args: &Args) -> Result<(), String> {
    let g = load_graph(args)?;
    let alg = parse_algorithm(args)?;
    if alg == Algorithm::Telephone {
        return Err(
            "recover runs under the multicast model; --algorithm telephone is not supported".into(),
        );
    }
    let metrics = open_metrics(args)?;
    let out = Out::for_metrics(&metrics);
    let mut planner = GossipPlanner::new(&g)
        .map_err(|e| e.to_string())?
        .algorithm(alg);
    if let Some(m) = &metrics {
        planner = planner.recorder(&m.recorder);
    }
    let plan = planner.plan().map_err(|e| e.to_string())?;
    let faults_opt = parse_fault_plan(args, g.n())?;
    let faults = faults_opt.clone().unwrap_or_else(FaultPlan::none);
    let max_epochs = args.get_usize("max-epochs", DEFAULT_MAX_EPOCHS)?;
    let flight_path = flight_out_path(args)?;
    let flight = match &flight_path {
        Some(_) => {
            let flat = gossip_model::FlatSchedule::from_schedule(&plan.schedule);
            let header = flight_header(
                "resilient",
                &g,
                plan.radius,
                &flat,
                &faults_opt,
                &plan.origin_of_message,
            )?;
            Some(FlightRecorder::new(header))
        }
        None => None,
    };
    let rules = parse_alert_rules(args)?;
    let tee;
    let base: &dyn Recorder = match (&metrics, &flight) {
        (Some(m), Some(f)) => {
            tee = Tee::new(&m.recorder, f);
            &tee
        }
        (Some(m), None) => &m.recorder,
        (None, Some(f)) => f,
        (None, None) => &gossip_telemetry::NoopRecorder,
    };
    // The watchdog wraps whatever the run already records through, so
    // the same event stream feeds metrics, the flight capture, and the
    // streaming invariant monitors.
    let engine;
    let mut sink = None;
    let mut exec = ResilientExecutor::new(&g, &plan.schedule, &plan.origin_of_message, &faults)
        .max_epochs(max_epochs);
    exec = match rules {
        Some(r) => {
            engine = AlertEngine::new(base, r)
                .bound(plan.guarantee() as u64)
                .total_pairs((g.n() * plan.origin_of_message.len()) as u64)
                .max_epochs(max_epochs as u64);
            sink = Some(engine.sink());
            exec.recorder(&engine)
        }
        None => exec.recorder(base),
    };
    let report = exec.run().map_err(|e| e.to_string())?;

    out!(
        out,
        "network: n = {}, m = {}, radius r = {}; algorithm {}",
        g.n(),
        g.m(),
        plan.radius,
        alg.name()
    );
    out!(
        out,
        "fault plan: seed {}, loss rate {}, {} crash(es), {} outage(s)",
        faults.seed,
        faults.loss_rate,
        faults.crashes.len(),
        faults.outages.len()
    );
    out!(
        out,
        "{:>6} {:>6} {:>7} {:>10} {:>10} {:>6} {:>9}",
        "epoch",
        "start",
        "rounds",
        "attempted",
        "delivered",
        "lost",
        "residual"
    );
    for e in &report.epochs {
        out!(
            out,
            "{:>6} {:>6} {:>7} {:>10} {:>10} {:>6} {:>9}",
            if e.epoch == 0 {
                "base".to_string()
            } else {
                e.epoch.to_string()
            },
            e.start_round,
            e.rounds,
            e.attempted,
            e.delivered,
            e.lost,
            e.residual_after
        );
    }
    out!(
        out,
        "totals: {} rounds (baseline {}, overhead +{}), {} retransmissions, {} deliveries lost ({})",
        report.total_rounds,
        report.baseline_rounds,
        report.overhead_rounds(),
        report.retransmissions,
        report.lost_deliveries,
        loss_breakdown(&report.lost_log)
    );
    out!(out, "survivors: {} of {}", report.survivors, report.n);
    if !report.unrecoverable.is_empty() {
        out!(
            out,
            "unrecoverable: {} pair(s) — message extinct among survivors",
            report.unrecoverable.len()
        );
    }
    if report.recovered {
        out!(
            out,
            "recovered: every reachable (message, vertex) pair completed in {} epoch(s)",
            report.epochs.len()
        );
    }

    if let Some(path) = args.options.get("out") {
        if path == "true" {
            return Err("--out requires a file path".into());
        }
        let json = serde_json::to_string_pretty(&report.to_value()).map_err(|e| e.to_string())?;
        std::fs::write(path, json).map_err(|e| format!("{path}: {e}"))?;
        out!(out, "wrote recovery report to {path}");
    }
    if let Some(path) = args.options.get("trace-out") {
        if path == "true" {
            return Err("--trace-out requires a file path".into());
        }
        let trace = report.chrome_trace();
        std::fs::write(path, trace.to_json()).map_err(|e| format!("{path}: {e}"))?;
        out!(
            out,
            "wrote Chrome trace ({} events) to {path} — one lane per repair epoch",
            trace.len()
        );
    }
    // The capture is written even when recovery fell short — that is
    // exactly when a post-mortem matters.
    if let (Some(path), Some(f)) = (&flight_path, &flight) {
        write_flight(path, f, out)?;
    }
    if let Some(m) = &metrics {
        write_metrics(m)?;
    }
    let fired = match &sink {
        Some(s) => alerts_epilogue(s, args, out)?,
        None => 0,
    };
    if report.recovered {
        alerts_fatal(args, fired)?;
        Ok(())
    } else {
        Err(format!(
            "recovery incomplete: {} recoverable pair(s) still missing after {} epoch(s) (raise --max-epochs)",
            report.unresolved.len(),
            max_epochs
        ))
    }
}

/// `gossip churn`: execute while a (scripted or generated) churn plan
/// mutates the topology mid-run, repairing the schedule incrementally.
/// Exits 1 when a recoverable pair was left undelivered.
pub fn churn(args: &Args) -> Result<(), String> {
    let g = load_graph(args)?;
    let metrics = open_metrics(args)?;
    let out = Out::for_metrics(&metrics);
    // The base plan is only consulted for the report header (radius,
    // baseline makespan) and the generator horizon; the executor plans
    // internally so its tree stays in sync with its repairs.
    let plan = GossipPlanner::new(&g)
        .map_err(|e| e.to_string())?
        .plan()
        .map_err(|e| e.to_string())?;
    let churn_plan = match path_option(args, "churn-plan")? {
        Some(path) => {
            let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
            let plan: ChurnPlan =
                serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
            plan.validate(g.n()).map_err(|e| format!("{path}: {e}"))?;
            plan
        }
        None => {
            let rate = args.get_f64("churn-rate", 0.05)?;
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("--churn-rate {rate} out of range [0, 1]"));
            }
            let seed = args.get_u64("churn-seed", 0)?;
            // Aim events at the interior of the run: the last couple of
            // rounds are excluded so every event lands while entries are
            // still in flight.
            let horizon = plan.schedule.makespan().saturating_sub(2).max(1) as u32;
            gossip_model::ChurnPlan::generate(&g, rate, seed, horizon)
        }
    };
    if let Some(path) = path_option(args, "churn-out")? {
        let json = serde_json::to_string_pretty(&churn_plan).map_err(|e| e.to_string())?;
        std::fs::write(&path, json).map_err(|e| format!("{path}: {e}"))?;
        out!(
            out,
            "wrote churn plan ({} event(s), seed {}) to {path}",
            churn_plan.events.len(),
            churn_plan.seed
        );
    }
    let max_epochs = args.get_usize("max-epochs", DEFAULT_MAX_EPOCHS)?;
    let flight_path = flight_out_path(args)?;
    let flight = match &flight_path {
        Some(_) => {
            let flat = gossip_model::FlatSchedule::from_schedule(&plan.schedule);
            let mut header = flight_header(
                "churn",
                &g,
                plan.radius,
                &flat,
                &None,
                &plan.origin_of_message,
            )?;
            // The fault-digest slot fingerprints the churn plan instead:
            // two churn captures with the same graph/schedule digests but
            // different topology scripts must not diff as "same inputs".
            let json = serde_json::to_string(&churn_plan).map_err(|e| e.to_string())?;
            let mut d = Digest::new();
            d.write_bytes(json.as_bytes());
            header.fault_digest = d.finish();
            Some(FlightRecorder::new(header))
        }
        None => None,
    };
    let rules = parse_alert_rules(args)?;
    let tee;
    let base: &dyn Recorder = match (&metrics, &flight) {
        (Some(m), Some(f)) => {
            tee = Tee::new(&m.recorder, f);
            &tee
        }
        (Some(m), None) => &m.recorder,
        (None, Some(f)) => f,
        (None, None) => &gossip_telemetry::NoopRecorder,
    };
    // Under churn the bound context is the *baseline* n + r: topology
    // events legitimately extend the run, so the churn-storm rule (not
    // the bound rule) is the signal a rule file usually tightens here.
    let engine;
    let mut sink = None;
    let mut exec = ChurnExecutor::new(&g, &churn_plan).max_epochs(max_epochs);
    exec = match rules {
        Some(r) => {
            engine = AlertEngine::new(base, r)
                .bound(plan.guarantee() as u64)
                .total_pairs((g.n() * plan.origin_of_message.len()) as u64)
                .max_epochs(max_epochs as u64);
            sink = Some(engine.sink());
            exec.recorder(&engine)
        }
        None => exec.recorder(base),
    };
    let report = exec.run().map_err(|e| e.to_string())?;

    out!(
        out,
        "network: n = {}, m = {}, radius r = {}; baseline schedule {} round(s)",
        g.n(),
        g.m(),
        plan.radius,
        report.baseline_rounds
    );
    out!(
        out,
        "churn plan: seed {}, {} event(s) ({} after flap expansion), last at round {}",
        churn_plan.seed,
        churn_plan.events.len(),
        report.events_applied,
        report.last_event_round
    );
    if !report.batches.is_empty() {
        out!(
            out,
            "{:>6} {:>7} {:>12} {:>12} {:>12} {:>9}",
            "round",
            "events",
            "invalidated",
            "repair",
            "replanned",
            "scratch"
        );
        for b in &report.batches {
            out!(
                out,
                "{:>6} {:>7} {:>12} {:>12} {:>12} {:>9}",
                b.round,
                b.events,
                b.invalidated_deliveries,
                b.decision.label(),
                b.repaired_entries,
                b.scratch_entries
            );
        }
    }
    out!(
        out,
        "repair: {} incremental, {} full replan(s); {} entr(ies) replanned vs {} from scratch{}",
        report.incremental_repairs,
        report.full_replans,
        report.repaired_entries,
        report.scratch_entries,
        if report.bound_fallback {
            format!(
                " (+{} from the bound-guard full plan)",
                report.fallback_entries
            )
        } else {
            String::new()
        }
    );
    out!(
        out,
        "totals: {} round(s), {} completion epoch(s), {} retransmission(s), {} delivery(ies) invalidated",
        report.total_rounds,
        report.completion_epochs,
        report.retransmissions,
        report.deliveries_invalidated
    );
    match (report.final_radius, report.final_bound) {
        (Some(r), Some(bound)) => out!(
            out,
            "final graph: {} node(s) present, radius {r}; {} round(s) after the last event vs bound n + r = {bound} — {}",
            report.final_present,
            report.rounds_after_last_event,
            if report.within_final_bound {
                "WITHIN BOUND"
            } else {
                "OVER BOUND"
            }
        ),
        _ => out!(
            out,
            "final graph: {} node(s) present, disconnected — the n + r bound is undefined",
            report.final_present
        ),
    }
    if !report.unrecoverable.is_empty() {
        out!(
            out,
            "unrecoverable: {} pair(s) — message extinct among present nodes or cut off",
            report.unrecoverable.len()
        );
    }
    if report.recovered {
        out!(
            out,
            "recovered: every reachable (message, vertex) pair completed"
        );
    }

    if let Some(path) = path_option(args, "out")? {
        let json = serde_json::to_string_pretty(&report.to_value()).map_err(|e| e.to_string())?;
        std::fs::write(&path, json).map_err(|e| format!("{path}: {e}"))?;
        out!(out, "wrote churn report to {path}");
    }
    // Like recover: the capture is written even on failure — that is
    // exactly when a post-mortem matters.
    if let (Some(path), Some(f)) = (&flight_path, &flight) {
        write_flight(path, f, out)?;
    }
    if let Some(m) = &metrics {
        write_metrics(m)?;
    }
    let fired = match &sink {
        Some(s) => alerts_epilogue(s, args, out)?,
        None => 0,
    };
    if report.recovered {
        alerts_fatal(args, fired)?;
        Ok(())
    } else {
        Err(format!(
            "churn recovery incomplete: a recoverable pair is still missing after {max_epochs} completion epoch(s) (raise --max-epochs)"
        ))
    }
}

/// `gossip trace`: print one vertex's schedule in the paper's table format.
pub fn trace(args: &Args) -> Result<(), String> {
    let g = load_graph(args)?;
    let plan = GossipPlanner::new(&g)
        .map_err(|e| e.to_string())?
        .plan()
        .map_err(|e| e.to_string())?;
    let v = args.get_usize("vertex", plan.tree.root())?;
    if v >= g.n() {
        return Err(format!("vertex {v} out of range (n = {})", g.n()));
    }
    println!("spanning tree (vertex  [DFS label, subtree range, level]):");
    print!("{}", gossip_graph::render_tree(&plan.tree));
    println!(
        "\nvertex {v}: label i = {}, level k = {}, subtree range {:?}",
        plan.tree.label(v),
        plan.tree.level(v),
        plan.tree.subtree_range(v)
    );
    println!("{}", vertex_trace(&plan.schedule, &plan.tree, v).render());
    Ok(())
}

/// `gossip bounds`: lower bounds and what the pipeline achieves.
pub fn bounds(args: &Args) -> Result<(), String> {
    let g = load_graph(args)?;
    let plan = GossipPlanner::new(&g)
        .map_err(|e| e.to_string())?
        .plan()
        .map_err(|e| e.to_string())?;
    println!("n - 1 trivial bound:       {}", g.n().saturating_sub(1));
    println!(
        "cut-vertex bound:          {}",
        gossip_core::cut_vertex_lower_bound(&g)
    );
    println!("best lower bound:          {}", gossip_lower_bound(&g));
    println!("achieved (n + r):          {}", plan.makespan());
    Ok(())
}

/// `gossip exact`: exact optimum for tiny networks.
pub fn exact(args: &Args) -> Result<(), String> {
    let g = load_graph(args)?;
    if g.n() > 8 {
        return Err(format!("exact search supports n <= 8, got {}", g.n()));
    }
    let model = match args.get_or("model", "multicast") {
        "multicast" => CommModel::Multicast,
        "telephone" => CommModel::Telephone,
        other => return Err(format!("unknown model {other:?}")),
    };
    let budget = args.get_u64("budget", 50_000_000)?;
    match optimal_gossip_time(&g, model, 2 * g.n() + 4, budget) {
        ExactResult::Optimal(t) => {
            println!("optimal {} gossip time: {t} rounds", model.name());
            Ok(())
        }
        other => Err(format!("search did not converge: {other:?}")),
    }
}

/// `gossip sweep`: the Theorem 1 table across families.
pub fn sweep(args: &Args) -> Result<(), String> {
    let sizes: Vec<usize> = args
        .get_or("sizes", "16,32,64")
        .split(',')
        .map(|s| s.trim().parse().map_err(|_| format!("bad size {s:?}")))
        .collect::<Result<_, _>>()?;
    let seed = args.get_u64("seed", 0)?;
    println!(
        "{:>14} {:>6} {:>6} {:>5} {:>9} {:>7} {:>6}",
        "family", "n", "m", "r", "makespan", "n + r", "ok"
    );
    for &family in Family::all() {
        for &target in &sizes {
            let g = family.instance(target, seed);
            let plan = GossipPlanner::new(&g)
                .map_err(|e| e.to_string())?
                .plan()
                .map_err(|e| e.to_string())?;
            let o = simulate_gossip(&g, &plan.schedule, &plan.origin_of_message)
                .map_err(|e| e.to_string())?;
            println!(
                "{:>14} {:>6} {:>6} {:>5} {:>9} {:>7} {:>6}",
                family.name(),
                g.n(),
                g.m(),
                plan.radius,
                plan.makespan(),
                plan.guarantee(),
                if o.complete { "yes" } else { "NO" }
            );
        }
    }
    Ok(())
}

/// `gossip analyze`: latency/redundancy/link-load profile of the plan.
pub fn analyze(args: &Args) -> Result<(), String> {
    let g = load_graph(args)?;
    let metrics = open_metrics(args)?;
    let out = Out::for_metrics(&metrics);
    let mut planner = GossipPlanner::new(&g).map_err(|e| e.to_string())?;
    if let Some(m) = &metrics {
        planner = planner.recorder(&m.recorder);
    }
    let plan = planner.plan().map_err(|e| e.to_string())?;
    if let Some(m) = &metrics {
        let mut sim = gossip_model::Simulator::with_origins(
            &g,
            CommModel::Multicast,
            &plan.origin_of_message,
        )
        .map_err(|e| e.to_string())?;
        sim.run_recorded(&plan.schedule, &m.recorder)
            .map_err(|e| e.to_string())?;
    }
    let a = gossip_model::analyze_schedule(&g, &plan.schedule, &plan.origin_of_message)
        .map_err(|e| e.to_string())?;
    out!(out, "makespan:             {}", plan.makespan());
    out!(
        out,
        "last message complete: {}",
        a.last_completion()
            .map_or("never".to_string(), |t| t.to_string())
    );
    out!(
        out,
        "deliveries:           {} ({} redundant, {:.1}%)",
        a.total_deliveries,
        a.redundant_deliveries,
        100.0 * a.redundancy()
    );
    out!(out, "link imbalance:       {:.2}", a.link_imbalance());
    out!(out, "busiest links:");
    for &(u, v, uses) in a.link_loads.iter().take(5) {
        out!(out, "  {u} -- {v}: {uses} deliveries");
    }
    let curve = gossip_model::knowledge_curve(&g, &plan.schedule, &plan.origin_of_message)
        .map_err(|e| e.to_string())?;
    out!(
        out,
        "knowledge curve:      |{}|",
        gossip_model::render_sparkline(&curve)
    );
    if args.flag("gantt") {
        out!(
            out,
            "\nper-processor timeline (S = send, R = receive, B = both):"
        );
        for line in gossip_model::render_gantt(&plan.schedule).lines() {
            out!(out, "{line}");
        }
    }
    if let Some(m) = &metrics {
        write_metrics(m)?;
    }
    Ok(())
}

/// `gossip line`: the optimal n + r - 1 line schedule (paper §4 remark).
pub fn line(args: &Args) -> Result<(), String> {
    let n = args.get_usize("n", 5)?;
    if !(2..=gossip_core::MAX_LINE_N).contains(&n) {
        return Err(format!(
            "line schedules are available for 2 <= n <= {}",
            gossip_core::MAX_LINE_N
        ));
    }
    let s = gossip_core::line_gossip_schedule(n);
    let g = gossip_workloads::path(n);
    let o = gossip_model::simulate_gossip(&g, &s, &gossip_model::identity_origins(n))
        .map_err(|e| e.to_string())?;
    if !o.complete {
        return Err("line schedule incomplete (bug)".into());
    }
    println!(
        "path of {n}: {} rounds = n + r - 1 (generic algorithm: {})",
        s.makespan(),
        n + n / 2
    );
    for (t, round) in s.rounds.iter().enumerate() {
        let txs: Vec<String> = round
            .transmissions
            .iter()
            .map(|x| format!("{}--m{}-->{:?}", x.from, x.msg, x.to))
            .collect();
        println!("  t{t}: {}", txs.join("  "));
    }
    Ok(())
}

/// `gossip pipeline`: minimal repeated-gossip period on the plan's tree.
pub fn pipeline(args: &Args) -> Result<(), String> {
    let g = load_graph(args)?;
    let batches = args.get_usize("batches", 4)?.max(1);
    let metrics = open_metrics(args)?;
    let out = Out::for_metrics(&metrics);
    let mut planner = GossipPlanner::new(&g).map_err(|e| e.to_string())?;
    if let Some(m) = &metrics {
        planner = planner.recorder(&m.recorder);
    }
    let plan = planner.plan().map_err(|e| e.to_string())?;
    let period = gossip_core::min_pipeline_period(&plan.tree, batches);
    let pipelined = match &metrics {
        Some(m) => gossip_core::pipelined_gossip_recorded(&plan.tree, batches, period, &m.recorder),
        None => gossip_core::pipelined_gossip(&plan.tree, batches, period),
    }
    .ok_or("period search failed (bug)")?;
    out!(out, "single gossip:   {} rounds (n + r)", plan.makespan());
    out!(out, "minimal period:  {period} rounds between batch starts");
    out!(
        out,
        "{batches} batches:       {} rounds total ({:.1} amortized, {:.2}x speedup)",
        pipelined.schedule.makespan(),
        pipelined.amortized_rounds(),
        plan.makespan() as f64 / pipelined.amortized_rounds()
    );
    if let Some(m) = &metrics {
        write_metrics(m)?;
    }
    Ok(())
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

/// `gossip serve`: run the self-healing executor with the live HTTP
/// observability server attached — `/metrics` (Prometheus), `/healthz`,
/// and `/events` (NDJSON) stay scrapeable for the whole run. The run's
/// telemetry lands in a [`LiveRegistry`]; `--round-delay-ms` stretches the
/// round cadence (via [`Paced`]) so scrapers can watch progress, and
/// `--linger-ms` keeps the server up after completion for a final scrape.
pub fn serve(args: &Args) -> Result<(), String> {
    let g = load_graph(args)?;
    let alg = parse_algorithm(args)?;
    if alg == Algorithm::Telephone {
        return Err(
            "serve runs under the multicast model; --algorithm telephone is not supported".into(),
        );
    }
    let listen = args.get_or("listen", "127.0.0.1:9464");
    let delay = std::time::Duration::from_millis(args.get_u64("round-delay-ms", 0)?);
    let linger = std::time::Duration::from_millis(args.get_u64("linger-ms", 0)?);
    let faults_opt = parse_fault_plan(args, g.n())?;
    let faults = faults_opt.clone().unwrap_or_else(FaultPlan::none);
    let max_epochs = args.get_usize("max-epochs", DEFAULT_MAX_EPOCHS)?;
    let flight_path = flight_out_path(args)?;

    let registry = Arc::new(LiveRegistry::new());
    let server =
        ObsdServer::start(listen, Arc::clone(&registry)).map_err(|e| format!("{listen}: {e}"))?;
    let addr = server.addr();
    if let Some(path) = args.options.get("addr-file") {
        if path == "true" {
            return Err("--addr-file requires a file path".into());
        }
        std::fs::write(path, format!("{addr}\n")).map_err(|e| format!("{path}: {e}"))?;
    }
    println!("serving on http://{addr} — endpoints: /metrics /healthz /events /alerts");
    let health = server.health();
    let paced = Paced::new(&*registry, delay);
    let rules = parse_alert_rules(args)?;

    health.set_phase("planning");
    let plan = GossipPlanner::new(&g)
        .map_err(|e| e.to_string())?
        .algorithm(alg)
        .recorder(&paced)
        .plan()
        .map_err(|e| e.to_string())?;
    println!(
        "planned: n = {}, r = {}, makespan {} (n + r = {})",
        g.n(),
        plan.radius,
        plan.makespan(),
        plan.guarantee()
    );

    health.set_phase("executing");
    // With --flight-out the executor records through Paced(Tee(live
    // registry, flight)) — the capture sees the same event stream as the
    // live endpoints, and pacing delays neither one relative to the other.
    let flight = match &flight_path {
        Some(_) => {
            let flat = gossip_model::FlatSchedule::from_schedule(&plan.schedule);
            let header = flight_header(
                "resilient",
                &g,
                plan.radius,
                &flat,
                &faults_opt,
                &plan.origin_of_message,
            )?;
            Some(FlightRecorder::new(header))
        }
        None => None,
    };
    let tee;
    let base: &dyn Recorder = match &flight {
        Some(f) => {
            tee = Tee::new(&*registry, f);
            &tee
        }
        None => &*registry,
    };
    // With --alerts the chain is Paced(AlertEngine(Tee(registry,
    // flight))): pacing sits outermost so the watchdog's wall-clock
    // stall budget observes the same cadence the scrapers do, and the
    // engine forwards everything so the live endpoints and the capture
    // see an unchanged stream (plus the fired-alert events).
    let engine;
    let mut sink = None;
    let monitored: &dyn Recorder = match rules {
        Some(r) => {
            engine = AlertEngine::new(base, r)
                .bound(plan.guarantee() as u64)
                .total_pairs((g.n() * plan.origin_of_message.len()) as u64)
                .max_epochs(max_epochs as u64);
            let s = engine.sink();
            server.set_alerts(Arc::clone(&s));
            sink = Some(s);
            &engine
        }
        None => base,
    };
    let paced_exec = Paced::new(monitored, delay);
    let report = ResilientExecutor::new(&g, &plan.schedule, &plan.origin_of_message, &faults)
        .max_epochs(max_epochs)
        .recorder(&paced_exec)
        .run()
        .map_err(|e| e.to_string())?;
    if let (Some(path), Some(f)) = (&flight_path, &flight) {
        write_flight(path, f, Out { to_stderr: false })?;
    }
    health.set_phase("complete");
    health.set_done();
    println!(
        "run complete: {} rounds over {} epoch(s), {} retransmissions, recovered: {}",
        report.total_rounds,
        report.epochs.len(),
        report.retransmissions,
        if report.recovered { "yes" } else { "NO" }
    );
    // The epilogue disarms the watchdog's wall-clock stall poll *before*
    // the linger window, so a long linger never fires a phantom stall.
    let fired = match &sink {
        Some(s) => alerts_epilogue(s, args, Out { to_stderr: false })?,
        None => 0,
    };
    if !linger.is_zero() {
        println!("lingering {} ms for final scrapes", linger.as_millis());
        std::thread::sleep(linger);
    }
    server.stop();
    if report.recovered {
        alerts_fatal(args, fired)?;
        Ok(())
    } else {
        Err(format!(
            "recovery incomplete: {} recoverable pair(s) still missing after {} epoch(s) (raise --max-epochs)",
            report.unresolved.len(),
            max_epochs
        ))
    }
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
    let out_path = args.get_or("out", "report.html");
    std::fs::write(out_path, &html).map_err(|e| format!("{out_path}: {e}"))?;
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

/// `gossip energy`: sensor-field rounds + radio energy, multicast vs
/// telephone.
pub fn energy(args: &Args) -> Result<(), String> {
    let n = args.get_usize("n", 30)?;
    let range: f64 = args
        .get_or("range", "0.22")
        .parse()
        .map_err(|_| "--range expects a number".to_string())?;
    let seed = args.get_u64("seed", 1)?;
    let (g, pts, used) = gossip_workloads::unit_disk_connected(n, range, seed);
    let planner = GossipPlanner::new(&g).map_err(|e| e.to_string())?;
    let mc = planner.clone().plan().map_err(|e| e.to_string())?;
    let tel = planner
        .clone()
        .algorithm(Algorithm::Telephone)
        .plan()
        .map_err(|e| e.to_string())?;
    let e_mc = gossip_workloads::schedule_energy(&mc.schedule, &pts, 2.0);
    let e_tel = gossip_workloads::schedule_energy(&tel.schedule, &pts, 2.0);
    println!(
        "sensor field: {n} nodes, radio range {used:.2}, {} links",
        g.m()
    );
    println!("multicast: {:>5} rounds, energy {e_mc:.2}", mc.makespan());
    println!("telephone: {:>5} rounds, energy {e_tel:.2}", tel.makespan());
    println!(
        "multicast saves {:.1}% energy and {:.1}% rounds",
        100.0 * (1.0 - e_mc / e_tel),
        100.0 * (1.0 - mc.makespan() as f64 / tel.makespan() as f64)
    );
    Ok(())
}

/// `gossip provenance`: run the plan through the provenance-tracing
/// simulator and report the causal structure — per-message critical paths
/// against the `n + r` bound, first-delivery DAG size, and the per-vertex
/// slack distribution (summarized through a telemetry histogram).
pub fn provenance(args: &Args) -> Result<(), String> {
    let g = load_graph(args)?;
    let alg = parse_algorithm(args)?;
    let metrics = open_metrics(args)?;
    let out = Out::for_metrics(&metrics);
    let mut planner = GossipPlanner::new(&g)
        .map_err(|e| e.to_string())?
        .algorithm(alg);
    if let Some(m) = &metrics {
        planner = planner.recorder(&m.recorder);
    }
    let plan = planner.plan().map_err(|e| e.to_string())?;
    let model = if alg == Algorithm::Telephone {
        CommModel::Telephone
    } else {
        CommModel::Multicast
    };
    let (outcome, tr) = trace_gossip(&g, &plan.schedule, &plan.origin_of_message, model)
        .map_err(|e| e.to_string())?;
    if !outcome.complete {
        return Err("schedule did not complete gossip (bug)".into());
    }
    // The n + r guarantee only binds the paper's algorithm; other
    // baselines get their paths reported without a bound.
    let bound = (alg == Algorithm::ConcurrentUpDown).then(|| plan.guarantee());

    out!(
        out,
        "network: n = {}, r = {}; algorithm {}; makespan {}",
        g.n(),
        plan.radius,
        alg.name(),
        tr.makespan()
    );
    out!(
        out,
        "first-delivery DAG: {} edges (complete gossip needs n(n-1) = {})",
        tr.edge_count(),
        g.n() * (g.n().saturating_sub(1))
    );
    let (crit_msg, crit_rounds) = tr.critical_message();
    match bound {
        Some(b) => out!(
            out,
            "critical path: message {crit_msg} took {crit_rounds} rounds (bound n + r = {b}, slack {})",
            b.saturating_sub(crit_rounds)
        ),
        None => out!(
            out,
            "critical path: message {crit_msg} took {crit_rounds} rounds"
        ),
    }
    let render_path = |msg: usize| {
        tr.critical_path(msg)
            .iter()
            .map(|s| format!("{}@{}", s.vertex, s.round))
            .collect::<Vec<_>>()
            .join(" -> ")
    };
    out!(out, "  {}", render_path(crit_msg));
    if let Some(msg) = args.options.get("message") {
        let msg: usize = msg
            .parse()
            .map_err(|_| format!("--message expects a number, got {msg:?}"))?;
        if msg >= tr.n_msgs() {
            return Err(format!("message {msg} out of range ({})", tr.n_msgs()));
        }
        out!(
            out,
            "message {msg}: latency {} rounds\n  {}",
            tr.message_latency(msg),
            render_path(msg)
        );
    }

    // Slack histogram: how many rounds before the reference bound each
    // vertex became fully informed. Summarized by gossip-telemetry so the
    // numbers match what `--metrics` records.
    let slack_bound = bound.unwrap_or(tr.makespan());
    let local = MetricsRecorder::new();
    let hist: &MetricsRecorder = metrics.as_ref().map(|m| &m.recorder).unwrap_or(&local);
    for s in tr.slack_against(slack_bound) {
        hist.observe("provenance/vertex_slack", s as f64);
    }
    let snap = hist.snapshot();
    let h = &snap["histograms"]["provenance/vertex_slack"];
    out!(
        out,
        "vertex slack vs {} (rounds spare): min {} p50 {} p90 {} max {}",
        match bound {
            Some(_) => "n + r".to_string(),
            None => format!("makespan {}", tr.makespan()),
        },
        h["min"].as_f64().unwrap_or(0.0),
        h["p50"].as_f64().unwrap_or(0.0),
        h["p90"].as_f64().unwrap_or(0.0),
        h["max"].as_f64().unwrap_or(0.0)
    );
    let util = tr.round_utilization();
    let busiest = util
        .iter()
        .max_by(|a, b| {
            a.receiver_utilization
                .partial_cmp(&b.receiver_utilization)
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .copied();
    if let Some(b) = busiest {
        out!(
            out,
            "busiest round: t{} with {} transmissions, {} deliveries ({:.0}% of receivers)",
            b.round,
            b.transmissions,
            b.deliveries,
            100.0 * b.receiver_utilization
        );
    }

    if let Some(path) = args.options.get("out") {
        if path == "true" {
            return Err("--out requires a file path".into());
        }
        let doc = tr.to_value(bound);
        let json = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
        std::fs::write(path, json).map_err(|e| format!("{path}: {e}"))?;
        out!(out, "wrote provenance artifact to {path}");
    }
    if let Some(m) = &metrics {
        write_metrics(m)?;
    }
    Ok(())
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

/// `gossip compare`: all algorithms and models on one network.
pub fn compare(args: &Args) -> Result<(), String> {
    let g = load_graph(args)?;
    let planner = GossipPlanner::new(&g).map_err(|e| e.to_string())?;
    println!("network: n = {}, m = {}", g.n(), g.m());
    println!("{:<22} {:>9} {:>9}", "algorithm", "makespan", "model");
    for alg in [
        Algorithm::ConcurrentUpDown,
        Algorithm::Simple,
        Algorithm::UpDown,
        Algorithm::Telephone,
    ] {
        let plan = planner
            .clone()
            .algorithm(alg)
            .plan()
            .map_err(|e| e.to_string())?;
        let model = if alg == Algorithm::Telephone {
            "telephone"
        } else {
            "multicast"
        };
        println!("{:<22} {:>9} {:>9}", alg.name(), plan.makespan(), model);
    }
    let bm = gossip_core::broadcast_model_gossip(&g);
    println!(
        "{:<22} {:>9} {:>9}",
        "broadcast-greedy",
        bm.makespan(),
        "broadcast"
    );
    if let Some(ham) = gossip_core::ring_gossip_schedule(&g) {
        println!(
            "{:<22} {:>9} {:>9}",
            "hamiltonian-circuit",
            ham.makespan(),
            "telephone"
        );
    }
    println!(
        "{:<22} {:>9}",
        "lower bound",
        gossip_core::gossip_lower_bound(&g)
    );
    Ok(())
}
