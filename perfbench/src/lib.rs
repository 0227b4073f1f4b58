//! End-to-end benchmark of the four pipelines users run — `plan`,
//! `plan-fast`, `recover` and `churn` — through the libraries' public API,
//! in the order the `gossip` CLI calls them.
//!
//! A [`Pipeline`] instance is one seeded input taken from graph in hand to a
//! verified result. [`make_input`] builds the input; [`run_instance`] runs
//! the pipeline, times each call into a layer, and then checks the output.
//! A traced instance also hands a [`trace::Timeline`] to the planner and
//! the executors, which splits the time spent inside them. A benchmark
//! [`Workload`] instance runs one input of each of its pipelines.

pub mod host;
pub mod trace;

use gossip_core::{
    concurrent_updown_flat_on, ChurnExecutor, FlatLabels, GossipPlanner, ResilientExecutor,
};
use gossip_graph::{
    min_depth_spanning_tree, min_depth_spanning_tree_fast, ChildOrder, Graph, RootedTree,
};
use gossip_model::{ChurnPlan, CommModel, FaultPlan, FlatSchedule, SimKernel};
use gossip_telemetry::flight::Digest;
use gossip_telemetry::{FlightHeader, FlightLog, FlightRecorder, NoopRecorder, Recorder};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::Timeline;

/// The pipelines the benchmark times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pipeline {
    /// `gossip plan --flight-out`: reference tree sweep, `Vec`-of-`Vec`
    /// generator, flatten, validate, replay, flight capture and write.
    Plan,
    /// The fast planner: bitset tree, flat labels, CSR-direct generation,
    /// validate, replay, flight capture and write.
    PlanFast,
    /// `gossip recover`: plan, then `ResilientExecutor` under 5% loss.
    Recover,
    /// `gossip churn`: plan, then `ChurnExecutor` under a generated churn
    /// plan on a unit-disk field.
    Churn,
}

/// Input sizes of one pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    /// Processor count.
    pub n: usize,
    /// G(n, p) pipelines: the expected degree `p · n`. `churn`: the
    /// unit-disk connection radius.
    pub shape: f64,
    /// `recover`: the loss rate. `churn`: the churn rate. Unused otherwise.
    pub rate: f64,
}

impl Pipeline {
    /// Every pipeline.
    pub const ALL: [Pipeline; 4] = [
        Pipeline::Plan,
        Pipeline::PlanFast,
        Pipeline::Recover,
        Pipeline::Churn,
    ];

    /// The pipeline's name in per-instance lines and artifact names.
    pub fn name(self) -> &'static str {
        match self {
            Pipeline::Plan => "plan",
            Pipeline::PlanFast => "plan-fast",
            Pipeline::Recover => "recover",
            Pipeline::Churn => "churn",
        }
    }

    /// The sizes the benchmark runs at.
    pub fn spec(self) -> Spec {
        match self {
            Pipeline::Plan => Spec {
                n: 2048,
                shape: 18.0,
                rate: 0.0,
            },
            Pipeline::PlanFast => Spec {
                n: 4096,
                shape: 18.0,
                rate: 0.0,
            },
            Pipeline::Recover => Spec {
                n: 192,
                shape: 18.0,
                rate: 0.05,
            },
            Pipeline::Churn => Spec {
                n: 72,
                shape: 0.13,
                rate: 0.05,
            },
        }
    }
}

/// The benchmark's workloads. Each instance runs one input of each of its
/// pipelines, one after the other. Two workloads, not four, so that every
/// run can be long enough to ride out the slow spells of a shared host
/// (see `README.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The reference and the fast planning pipelines.
    Plan,
    /// The two self-healing executors, both carried by `plan_completion`.
    Repair,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::Plan, Workload::Repair];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Plan => "plan",
            Workload::Repair => "repair",
        }
    }

    /// Looks a workload up by [`Workload::name`].
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// How the workload's wall time follows the host probe's slowdown `s`:
    /// its times are divided by `s` to this power. The probe is
    /// single-threaded compute on a small working set, like the repair
    /// pipelines, whose wall follows it one for one. The plan pipelines
    /// also run two threads over 70 MB streams; over two ten-seed passes
    /// their wall followed about the square root of `s` (see `README.md`).
    pub fn host_sensitivity(self) -> f64 {
        match self {
            Workload::Plan => 0.5,
            Workload::Repair => 1.0,
        }
    }

    /// The pipelines one instance runs, in order.
    pub fn pipelines(self) -> [Pipeline; 2] {
        match self {
            Workload::Plan => [Pipeline::Plan, Pipeline::PlanFast],
            Workload::Repair => [Pipeline::Recover, Pipeline::Churn],
        }
    }
}

/// SplitMix64 finalizer: spreads `(seed, stream, index)` into independent
/// instance seeds.
pub fn mix(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ index.wrapping_mul(0xd1b5_4a32_d192_ed03);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One instance's generated input.
#[derive(Debug, Clone)]
pub struct Input {
    /// The network.
    pub graph: Graph,
    /// The fault plan (`recover` only).
    pub faults: Option<FaultPlan>,
    /// The churn plan (`churn` only).
    pub churn: Option<ChurnPlan>,
    /// Time spent generating the input.
    pub gen_ms: f64,
}

/// Generates the input of instance `seed`.
pub fn make_input(p: Pipeline, spec: &Spec, seed: u64) -> Input {
    let t0 = Instant::now();
    let (graph, faults, churn) = match p {
        Pipeline::Plan | Pipeline::PlanFast | Pipeline::Recover => {
            let prob = (spec.shape / spec.n as f64).min(1.0);
            let graph = gossip_workloads::random_connected(spec.n, prob, seed);
            let faults = (p == Pipeline::Recover)
                .then(|| FaultPlan::new(mix(seed, 1, 0)).with_loss_rate(spec.rate));
            (graph, faults, None)
        }
        Pipeline::Churn => {
            let (graph, _, _) = gossip_workloads::unit_disk_connected(spec.n, spec.shape, seed);
            // Like the CLI, aim events at rounds 1..=makespan - 2 of the
            // base plan, whose makespan is n + r.
            let r = gossip_graph::radius(&graph).expect("unit_disk_connected is connected");
            let horizon = (spec.n + r as usize).saturating_sub(2).max(1) as u32;
            let churn = ChurnPlan::generate(&graph, spec.rate, mix(seed, 2, 0), horizon);
            (graph, None, Some(churn))
        }
    };
    Input {
        graph,
        faults,
        churn,
        gen_ms: ms_since(t0),
    }
}

/// The values of one pipeline run that must repeat exactly for a given seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Record {
    /// `FlatSchedule::digest` of the executed schedule (for `recover` and
    /// `churn`, of the executor's transcript).
    pub digest: u64,
    /// Tree height `r`.
    pub radius: u32,
    /// Makespan of the planned schedule.
    pub makespan: usize,
    /// The paper's bound for it, `n + r`.
    pub bound: usize,
    /// Rounds of the planned schedule.
    pub baseline_rounds: usize,
    /// Rounds executed.
    pub total_rounds: usize,
    /// Rounds beyond the baseline makespan.
    pub extra_rounds: usize,
    /// Deliveries of the planned schedule.
    pub baseline_deliveries: usize,
    /// Deliveries added by repair: `retransmissions` (`recover`), or
    /// `repaired_entries + fallback_entries` (`churn`).
    pub repair_deliveries: usize,
    /// Deliveries of the executed schedule.
    pub deliveries: usize,
    /// Transmissions of the executed schedule.
    pub transmissions: usize,
}

/// Layer times (ms) and counts of one instance, keyed by metric name.
#[derive(Debug, Default, Clone)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Runs `f`, adding its wall time to layer `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.add(name, ms_since(t0));
        out
    }

    /// Adds `v` to `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.0.entry(name).or_default() += v;
    }

    /// The value of `name` (0 when never set).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// End-to-end metrics: (name, unit, better). Times and rates are scaled
/// to the reference host speed (see [`host`] and
/// [`Workload::host_sensitivity`]).
pub const END_TO_END: [(&str, &str, &str); 8] = [
    ("wall_ms_p50", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("deliveries_per_s", "1/s", "higher"),
    ("makespan_over_bound", "ratio", "lower"),
    ("rounds_over_baseline", "ratio", "lower"),
    ("deliveries_over_baseline", "ratio", "lower"),
    ("verified_share", "ratio", "higher"),
];

/// Per-layer metrics: (name, unit). Times and counts are per-instance
/// means over the traced instances, except the first two: the median
/// unscaled wall of the paired untraced runs, and the host's median
/// slowdown.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("unscaled_wall_ms_p50", "ms"),
    ("host_slowdown", "ratio"),
    ("workloads.graph_ms", "ms"),
    ("graph.tree_ms", "ms"),
    ("graph.tree_fast_ms", "ms"),
    ("graph.radius", "count"),
    ("core.labels_ms", "ms"),
    ("core.generate_ms", "ms"),
    ("core.generate_csr_ms", "ms"),
    ("core.generate_ns_per_delivery", "ns"),
    ("core.repair_plan_ms", "ms"),
    ("core.epochs", "count"),
    ("core.residual_pairs", "count"),
    ("core.churn_setup_ms", "ms"),
    ("core.churn_repair_ms", "ms"),
    ("core.churn_exec_ms", "ms"),
    ("core.churn_batches", "count"),
    ("core.repaired_over_scratch", "ratio"),
    ("core.extra_rounds", "count"),
    ("core.repair_deliveries", "count"),
    ("model.flatten_ms", "ms"),
    ("model.validate_ms", "ms"),
    ("model.replay_ms", "ms"),
    ("model.replay_ns_per_delivery", "ns"),
    ("model.lossy_replay_ms", "ms"),
    ("model.deliveries", "count"),
    ("model.transmissions", "count"),
    ("telemetry.capture_ms", "ms"),
    ("telemetry.capture_records", "count"),
    ("telemetry.write_ms", "ms"),
    ("telemetry.artifact_bytes", "bytes"),
    ("telemetry.bytes_per_delivery", "bytes"),
    ("unattributed_ms", "ms"),
    ("coverage_pct", "%"),
    ("traced_wall_ms", "ms"),
    ("trace_overhead_pct", "%"),
];

/// The layers that partition an instance's wall time. What they leave
/// over is `unattributed_ms`.
pub const WALL_LAYERS: [&str; 15] = [
    "graph.tree_ms",
    "graph.tree_fast_ms",
    "core.labels_ms",
    "core.generate_ms",
    "core.generate_csr_ms",
    "core.repair_plan_ms",
    "core.churn_setup_ms",
    "core.churn_repair_ms",
    "core.churn_exec_ms",
    "model.flatten_ms",
    "model.validate_ms",
    "model.replay_ms",
    "model.lossy_replay_ms",
    "telemetry.capture_ms",
    "telemetry.write_ms",
];

/// The result of one instance.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Wall time from graph in hand to verified result.
    pub wall_ms: f64,
    /// Layer times and counts (the split inside executors only when traced).
    pub layers: Layers,
    /// The values that must repeat exactly, one per pipeline run.
    pub records: Vec<Record>,
    /// Checks the output failed; empty when it verified.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Whether every check passed.
    pub fn verified(&self) -> bool {
        self.failures.is_empty()
    }

    /// Wall time no layer claims.
    pub fn unattributed_ms(&self) -> f64 {
        let claimed: f64 = WALL_LAYERS.iter().map(|l| self.layers.get(l)).sum();
        (self.wall_ms - claimed).max(0.0)
    }

    /// The sum of `f` over the records.
    pub fn total(&self, f: impl Fn(&Record) -> usize) -> usize {
        self.records.iter().map(f).sum()
    }
}

/// Generates the inputs of workload instance `seed`: one per pipeline.
pub fn make_inputs(w: Workload, seed: u64) -> Vec<Input> {
    w.pipelines()
        .into_iter()
        .enumerate()
        .map(|(k, p)| make_input(p, &p.spec(), mix(seed, 3, k as u64)))
        .collect()
}

/// Runs one instance of `w`: each pipeline on its input, one after the
/// other. Walls, layers, records and failures add up. Captures go to
/// `<artifacts>/<pipeline>.gfr`.
pub fn run_workload(w: Workload, inputs: &[Input], traced: bool, artifacts: &Path) -> Outcome {
    let mut all = Outcome {
        wall_ms: 0.0,
        layers: Layers::default(),
        records: Vec::new(),
        failures: Vec::new(),
    };
    for (p, input) in w.pipelines().into_iter().zip(inputs) {
        let o = run_instance(p, input, traced, &artifact_path(artifacts, p));
        all.wall_ms += o.wall_ms;
        for (name, v) in o.layers.0 {
            all.layers.add(name, v);
        }
        all.records.extend(o.records);
        all.failures
            .extend(o.failures.into_iter().map(|f| format!("{}: {f}", p.name())));
    }
    all
}

/// Where pipeline `p` writes its capture.
pub fn artifact_path(artifacts: &Path, p: Pipeline) -> PathBuf {
    artifacts.join(format!("{}.gfr", p.name()))
}

/// Runs one instance of `p` on `input`. A traced instance also splits the
/// time inside the planner and the executors. `artifact` is where the plan
/// pipelines write their `.gfr` capture.
///
/// An error from the library or a failed check ends up in
/// [`Outcome::failures`]; it never aborts the run.
pub fn run_instance(p: Pipeline, input: &Input, traced: bool, artifact: &Path) -> Outcome {
    let timeline = traced.then(Timeline::default);
    let mut layers = Layers::default();
    let t0 = Instant::now();
    let result = match p {
        Pipeline::Plan => plan(input, timeline.as_ref(), &mut layers, artifact, t0),
        Pipeline::PlanFast => plan_fast(input, &mut layers, artifact, t0),
        Pipeline::Recover => recover(input, timeline.as_ref(), &mut layers, t0),
        Pipeline::Churn => churn(input, timeline.as_ref(), &mut layers, t0),
    };
    let (wall_ms, record, failures) = match result {
        Ok(done) => (
            done.wall_ms,
            done.record,
            done.check(&input.graph, artifact),
        ),
        Err(e) => (ms_since(t0), Record::default(), vec![e]),
    };
    if let Some(tl) = &timeline {
        let labels = tl.labeling_ms();
        layers.add("core.labels_ms", labels);
        layers.add("core.generate_ms", -labels);
    }
    Outcome {
        wall_ms,
        layers,
        records: vec![record],
        failures,
    }
}

/// What a pipeline hands to the checks. Each pipeline stops the clock
/// after its last call into the library, before it computes the record's
/// digests and drops its schedules: those are the benchmark's work.
struct Done {
    wall_ms: f64,
    record: Record,
    /// `complete` flags of every kernel replay.
    complete: Vec<bool>,
    /// The capture the plan workloads wrote: (records, schedule digest).
    capture: Option<(usize, u64)>,
    /// `recover`: `recovered`. `churn`: `recovered` and
    /// `within_final_bound`. Empty for the plan workloads.
    healed: Vec<(&'static str, bool)>,
}

impl Done {
    fn check(&self, g: &Graph, artifact: &Path) -> Vec<String> {
        let r = &self.record;
        let mut failures = Vec::new();
        if r.makespan > r.bound {
            failures.push(format!(
                "makespan {} exceeds the n + r bound {}",
                r.makespan, r.bound
            ));
        }
        if self.complete.iter().any(|c| !c) {
            failures.push("kernel outcome is not complete".to_string());
        }
        for (what, ok) in &self.healed {
            if !ok {
                failures.push(format!("report is not {what}"));
            }
        }
        if let Some((records, digest)) = self.capture {
            if let Err(e) = check_capture(g, artifact, records, digest) {
                failures.push(e);
            }
        }
        failures
    }
}

/// Reads the `.gfr` back and checks it decodes to the capture that was
/// written.
fn check_capture(g: &Graph, artifact: &Path, records: usize, digest: u64) -> Result<(), String> {
    let bytes = std::fs::read(artifact).map_err(|e| format!("{}: {e}", artifact.display()))?;
    let log = FlightLog::decode(&bytes).map_err(|e| format!("capture does not decode: {e}"))?;
    if log.records.len() != records || log.dropped != 0 {
        return Err(format!(
            "capture holds {} records ({} dropped), {records} were written",
            log.records.len(),
            log.dropped
        ));
    }
    if log.header.schedule_digest != digest || log.header.graph_digest != graph_digest(g) {
        return Err("capture digests do not match the run".to_string());
    }
    Ok(())
}

/// `GossipPlanner::new` (its connectivity check) and the reference tree
/// sweep, timed as `graph.tree_ms`.
fn reference_tree<'g>(
    g: &'g Graph,
    layers: &mut Layers,
) -> Result<(GossipPlanner<'g>, RootedTree), String> {
    layers.time("graph.tree_ms", || {
        let planner = GossipPlanner::new(g).map_err(|e| format!("planner: {e}"))?;
        let tree = min_depth_spanning_tree(g, ChildOrder::default())
            .map_err(|e| format!("spanning tree: {e}"))?;
        Ok((planner, tree))
    })
}

fn plan(
    input: &Input,
    timeline: Option<&Timeline>,
    layers: &mut Layers,
    artifact: &Path,
    t0: Instant,
) -> Result<Done, String> {
    let g = &input.graph;
    let (planner, tree) = reference_tree(g, layers)?;
    let planner = planner.recorder(recorder(timeline));
    let plan = layers.time("core.generate_ms", || planner.plan_on_tree(tree));
    let flat = layers.time("model.flatten_ms", || {
        FlatSchedule::from_schedule(&plan.schedule)
    });
    verify_and_capture(
        g,
        &flat,
        &plan.origin_of_message,
        plan.radius,
        layers,
        artifact,
        t0,
    )
}

fn plan_fast(
    input: &Input,
    layers: &mut Layers,
    artifact: &Path,
    t0: Instant,
) -> Result<Done, String> {
    let g = &input.graph;
    let tree = layers.time("graph.tree_fast_ms", || {
        GossipPlanner::new(g).map_err(|e| format!("planner: {e}"))?;
        min_depth_spanning_tree_fast(g, ChildOrder::default())
            .map_err(|e| format!("spanning tree: {e}"))
    })?;
    let labels = layers.time("core.labels_ms", || FlatLabels::new(&tree));
    let (flat, origins) = layers.time("core.generate_csr_ms", || {
        (
            concurrent_updown_flat_on(&labels, &NoopRecorder),
            labels.origins(),
        )
    });
    verify_and_capture(g, &flat, &origins, tree.height(), layers, artifact, t0)
}

/// The plan workloads' shared tail: validate, replay, capture into a
/// `FlightRecorder`, and write the `.gfr`.
fn verify_and_capture(
    g: &Graph,
    flat: &FlatSchedule,
    origins: &[usize],
    radius: u32,
    layers: &mut Layers,
    artifact: &Path,
    t0: Instant,
) -> Result<Done, String> {
    let model = CommModel::Multicast;
    layers
        .time("model.validate_ms", || {
            flat.validate(g, model, origins.len())
        })
        .map_err(|e| format!("validate: {e}"))?;
    let replayed = layers
        .time("model.replay_ms", || {
            SimKernel::with_origins(g, model, origins)?.run_prevalidated(flat)
        })
        .map_err(|e| format!("replay: {e}"))?;
    let (flight, captured, digest) = layers.time("telemetry.capture_ms", || {
        let digest = flat.digest();
        let flight = FlightRecorder::new(FlightHeader {
            n: g.n() as u32,
            n_msgs: origins.len() as u32,
            radius,
            engine: "kernel".to_string(),
            graph_digest: graph_digest(g),
            schedule_digest: digest,
            fault_digest: 0,
            origins: origins.iter().map(|&o| o as u32).collect(),
        });
        let captured = SimKernel::with_origins(g, model, origins)
            .and_then(|mut k| k.run_recorded(flat, &flight));
        (flight, captured, digest)
    });
    let captured = captured.map_err(|e| format!("capture: {e}"))?;
    let bytes = layers.time("telemetry.write_ms", || {
        let bytes = flight.finish();
        std::fs::write(artifact, &bytes).map(|()| bytes.len())
    });
    let wall_ms = ms_since(t0);
    let bytes = bytes.map_err(|e| format!("{}: {e}", artifact.display()))?;
    let records = flight.len();
    layers.add("telemetry.capture_records", records as f64);
    layers.add("telemetry.artifact_bytes", bytes as f64);
    let bound = if g.n() <= 1 {
        0
    } else {
        g.n() + radius as usize
    };
    Ok(Done {
        wall_ms,
        record: Record {
            digest,
            radius,
            makespan: flat.rounds(),
            bound,
            baseline_rounds: flat.rounds(),
            total_rounds: flat.rounds(),
            extra_rounds: 0,
            baseline_deliveries: flat.deliveries(),
            repair_deliveries: 0,
            deliveries: flat.deliveries(),
            transmissions: flat.tx_count(),
        },
        complete: vec![replayed.complete, captured.complete],
        capture: Some((records, digest)),
        healed: Vec::new(),
    })
}

fn recover(
    input: &Input,
    timeline: Option<&Timeline>,
    layers: &mut Layers,
    t0: Instant,
) -> Result<Done, String> {
    let g = &input.graph;
    let faults = input
        .faults
        .as_ref()
        .ok_or("recover input has no fault plan")?;
    let (planner, tree) = reference_tree(g, layers)?;
    let rec = recorder(timeline);
    let plan = layers.time("core.generate_ms", || {
        planner.recorder(rec).plan_on_tree(tree)
    });
    let report = ResilientExecutor::new(g, &plan.schedule, &plan.origin_of_message, faults)
        .recorder(rec)
        .run()
        .map_err(|e| format!("recover: {e}"))?;
    let wall_ms = ms_since(t0);
    if let Some(tl) = timeline {
        let (replay, repair) = tl.recover_split();
        layers.add("model.lossy_replay_ms", replay);
        layers.add("core.repair_plan_ms", repair);
    }
    layers.add("core.epochs", report.epochs.len().saturating_sub(1) as f64);
    let residual = report.epochs.first().map_or(0, |e| e.residual_after);
    layers.add("core.residual_pairs", residual as f64);
    let executed = report.transcript.stats();
    Ok(Done {
        wall_ms,
        record: Record {
            digest: FlatSchedule::from_schedule(&report.transcript).digest(),
            radius: plan.radius,
            makespan: plan.makespan(),
            bound: plan.guarantee(),
            baseline_rounds: report.baseline_rounds,
            total_rounds: report.total_rounds,
            extra_rounds: report.overhead_rounds(),
            baseline_deliveries: plan.schedule.stats().deliveries,
            repair_deliveries: report.retransmissions,
            deliveries: executed.deliveries,
            transmissions: executed.transmissions,
        },
        complete: Vec::new(),
        capture: None,
        healed: vec![("recovered", report.recovered)],
    })
}

fn churn(
    input: &Input,
    timeline: Option<&Timeline>,
    layers: &mut Layers,
    t0: Instant,
) -> Result<Done, String> {
    let g = &input.graph;
    let churn = input
        .churn
        .as_ref()
        .ok_or("churn input has no churn plan")?;
    // The CLI plans once for the report header before the executor plans
    // on its own.
    let (planner, tree) = reference_tree(g, layers)?;
    let rec = recorder(timeline);
    let plan = layers.time("core.generate_ms", || {
        planner.recorder(rec).plan_on_tree(tree)
    });
    let start = Instant::now();
    let report = ChurnExecutor::new(g, churn)
        .recorder(rec)
        .run()
        .map_err(|e| format!("churn: {e}"))?;
    let end = Instant::now();
    let wall_ms = ms_since(t0);
    if let Some(tl) = timeline {
        let split = tl.churn_split(start, end);
        layers.add("core.churn_setup_ms", split.setup_ms);
        layers.add("core.churn_repair_ms", split.repair_ms);
        layers.add("core.churn_exec_ms", split.exec_ms);
    }
    layers.add("core.churn_batches", report.batches.len() as f64);
    if report.scratch_entries > 0 {
        layers.add(
            "core.repaired_over_scratch",
            report.repaired_entries as f64 / report.scratch_entries as f64,
        );
    }
    let executed = report.transcript.stats();
    Ok(Done {
        wall_ms,
        record: Record {
            digest: FlatSchedule::from_schedule(&report.transcript).digest(),
            radius: plan.radius,
            makespan: plan.makespan(),
            bound: plan.guarantee(),
            baseline_rounds: report.baseline_rounds,
            total_rounds: report.total_rounds,
            extra_rounds: report.total_rounds.saturating_sub(report.baseline_rounds),
            baseline_deliveries: plan.schedule.stats().deliveries,
            repair_deliveries: report.repaired_entries + report.fallback_entries,
            deliveries: executed.deliveries,
            transmissions: executed.transmissions,
        },
        complete: Vec::new(),
        capture: None,
        healed: vec![
            ("recovered", report.recovered),
            ("within_final_bound", report.within_final_bound),
        ],
    })
}

fn recorder(timeline: Option<&Timeline>) -> &dyn Recorder {
    match timeline {
        Some(t) => t,
        None => &NoopRecorder,
    }
}

/// The `.gfr` header's network fingerprint, computed as the CLI does: `n`
/// plus every directed adjacency entry in vertex order.
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

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}
