//! `gossip plan`: build, verify and summarize a schedule on either
//! planner, and replay it through the bitset kernel for `--alerts` and
//! `--flight-out`.

use super::profile::{profile_artifact, write_profile};
use super::{
    flight_header, load_graph, loss_breakdown, open_metrics, parse_algorithm, parse_fault_plan,
    parse_planner, path_option, write_metrics, Out, Planner, RunSinks, Watch,
};
use crate::args::Args;
use gossip_core::{
    annotated_concurrent_updown, rule_tag_index, run_online_threaded_traced, Algorithm,
    GossipPlanner,
};
use gossip_graph::Graph;
use gossip_model::{
    schedule_chrome_trace, trace_gossip_lossy, CommModel, FaultPlan, FlatSchedule, SimKernel,
};
use gossip_telemetry::profile::Profiler;
use gossip_telemetry::{NoopRecorder, Recorder, SCHEMA_VERSION};
use serde::{Deserialize, Serialize};
use std::time::Duration;

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
    let mut sinks = RunSinks::new(args, open_metrics(args)?)?;
    let out = sinks.out;
    let profile_out = path_option(args, "profile-out")?;
    let plan_out = path_option(args, "out")?;
    let trace_out = path_option(args, "trace-out")?;
    let mut planner = GossipPlanner::new(&g)
        .map_err(|e| e.to_string())?
        .algorithm(alg);
    if let Some(m) = &sinks.metrics {
        planner = planner.recorder(&m.recorder);
    }
    // --profile-out: install the phase profiler across construction and
    // verification, so the artifact also captures the kernel path's
    // flatten / validate phases.
    let profiler = profile_out.as_ref().map(|_| Profiler::begin());
    let t_profile = std::time::Instant::now();
    let plan = planner.plan().map_err(|e| e.to_string())?;
    let model = if alg == Algorithm::Telephone {
        CommModel::Telephone
    } else {
        CommModel::Multicast
    };
    // One kernel replay verifies the plan and records the --metrics
    // per-round probes; every later pass reuses this flat schedule.
    let flat = FlatSchedule::from_schedule(&plan.schedule);
    let (outcome, _) = SimKernel::new(&g, model, &plan.origin_of_message)
        .and_then(|mut sim| sim.run_probed(&flat, sinks.recorder().unwrap_or(&NoopRecorder)))
        .map_err(|e| e.to_string())?;
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
        let mut kern = SimKernel::with_origins(&g, model, &fast.origin_of_message)
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
            if fast.schedule != flat {
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
        write_profile(path, &doc, out)?;
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
        "verified (bitset kernel): complete; {} transmissions, {} deliveries, max fanout {}",
        stats.transmissions,
        stats.deliveries,
        stats.max_fanout
    );
    if let Some(note) = &planner_note {
        out!(out, "{note}");
    }
    let faults = parse_fault_plan(args, g.n())?;
    if let Some(faults) = &faults {
        // Fault flags: additionally report what a lossy run (no repair)
        // would do to this schedule — losses by cause, DAG gaps, residual.
        let (lossy_out, dag, lost) =
            trace_gossip_lossy(&g, &plan.schedule, &plan.origin_of_message, model, faults)
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
        if let Some(m) = &sinks.metrics {
            m.recorder.counter("recovery/lost", lost.len() as u64);
        }
    }
    if sinks.rules.is_some() || sinks.flight_path.is_some() {
        let replay = Replay {
            g: &g,
            model,
            flat: &flat,
            origins: &plan.origin_of_message,
            faults: &faults,
        };
        alerts_and_capture(&mut sinks, &replay, plan.radius, plan.guarantee())?;
    }
    if let Some(path) = plan_out {
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
        std::fs::write(&path, json).map_err(|e| format!("{path}: {e}"))?;
        out!(out, "wrote plan to {path}");
    }
    if let Some(path) = trace_out {
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
            let rec = sinks.recorder().unwrap_or(&NoopRecorder);
            chrome.extend(run_online_threaded_traced(&plan.tree, rec).1);
        }
        std::fs::write(&path, chrome.to_json()).map_err(|e| format!("{path}: {e}"))?;
        out!(
            out,
            "wrote Chrome trace ({} events) to {path} — load in chrome://tracing or ui.perfetto.dev",
            chrome.len()
        );
    }
    write_metrics(&sinks.metrics)
}

/// One bitset-kernel replay of a verified plan: lossy (no repair) under
/// fault flags, clean otherwise.
struct Replay<'a> {
    g: &'a Graph,
    model: CommModel,
    flat: &'a FlatSchedule,
    origins: &'a [usize],
    faults: &'a Option<FaultPlan>,
}

impl Replay<'_> {
    fn run(&self, rec: &dyn Recorder) -> Result<(), String> {
        let mut sim =
            SimKernel::with_origins(self.g, self.model, self.origins).map_err(|e| e.to_string())?;
        match self.faults {
            Some(f) => sim.run_lossy(self.flat, f, &mut Vec::new(), rec).map(drop),
            None => sim.run_recorded(self.flat, rec).map(drop),
        }
        .map_err(|e| e.to_string())
    }
}

/// The kernel passes `gossip plan` makes over a verified schedule, on
/// either planner. With `--alerts`, one pass into the watchdog alone —
/// the bound and loss monitors see the per-round stream an executor would
/// emit, so a lossy plan surfaces loss_spike / bound alerts — then its
/// epilogue and `--alerts-fatal` gate. With `--flight-out`, one more pass
/// into the capture, which the alert pass never reaches.
fn alerts_and_capture(
    sinks: &mut RunSinks,
    replay: &Replay,
    radius: u32,
    bound: usize,
) -> Result<(), String> {
    let Replay {
        g,
        flat,
        origins,
        faults,
        ..
    } = *replay;
    if sinks.rules.is_some() {
        let watch = Watch {
            bound,
            pairs: g.n() * origins.len(),
            max_epochs: None,
        };
        sinks.run(None, watch, Duration::ZERO, |rec| replay.run(rec))?;
        let fired = sinks.epilogue()?;
        sinks.alerts_fatal(fired)?;
    }
    let engine = if faults.is_some() { "lossy" } else { "kernel" };
    sinks.arm(|| flight_header(engine, g, radius, flat, faults, origins))?;
    if let Some(flight) = &sinks.flight {
        replay.run(flight)?;
    }
    sinks.write_flight()
}

/// `gossip plan --planner fast`: the CSR-direct pipeline end to end —
/// pruned bitset tree sweep, flat label arena, straight-into-CSR
/// generation — verified by structural validation plus a bitset-kernel
/// replay, and monitored by `--alerts` and captured by `--flight-out`
/// like the reference path. Options that need the reference `Schedule`
/// representation (trace export, plan artifacts, fault injection) are
/// rejected; use `--planner both` to combine them with a fast cross-check.
fn plan_fast_only(args: &Args, g: &Graph) -> Result<(), String> {
    const NEEDS_REFERENCE: &[&str] = &[
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
    let mut sinks = RunSinks::new(args, open_metrics(args)?)?;
    let out = sinks.out;
    let mut planner = GossipPlanner::new(g).map_err(|e| e.to_string())?;
    if let Some(m) = &sinks.metrics {
        planner = planner.recorder(&m.recorder);
    }
    let profile_out = path_option(args, "profile-out")?;
    let profiler = profile_out.as_ref().map(|_| Profiler::begin());
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
        write_profile(path, &doc, out)?;
    }
    let t1 = std::time::Instant::now();
    let mut kernel = SimKernel::with_origins(g, CommModel::Multicast, &plan.origin_of_message)
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
    let replay = Replay {
        g,
        model: CommModel::Multicast,
        flat: &plan.schedule,
        origins: &plan.origin_of_message,
        faults: &None,
    };
    alerts_and_capture(&mut sinks, &replay, plan.radius, plan.guarantee())?;
    write_metrics(&sinks.metrics)
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
    let profiler = profile_out.as_ref().map(|_| Profiler::begin());
    let t_all = std::time::Instant::now();
    let order = gossip_graph::ChildOrder::default();
    let recorder: &dyn Recorder = match &metrics {
        Some(m) => &m.recorder,
        None => &NoopRecorder,
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
        write_profile(path, &doc, out)?;
    }
    write_metrics(&metrics)
}
