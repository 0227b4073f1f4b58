//! The executors users watch: `recover`, `churn` and `serve`, each
//! recording through [`RunSinks`]. With `--profile-out`, `recover` and
//! `churn` profile the base plan and the executor run, and write the PROF
//! artifact `gossip plan --profile-out` writes.

use super::profile::{profile_artifact, write_profile};
use super::{
    flight_header, json_digest, load_graph, loss_breakdown, open_metrics, parse_algorithm,
    parse_fault_plan, path_option, RunSinks, Watch,
};
use crate::args::Args;
use gossip_core::{Algorithm, ChurnExecutor, GossipPlanner, ResilientExecutor, DEFAULT_MAX_EPOCHS};
use gossip_model::{ChurnPlan, FaultPlan, FlatSchedule};
use gossip_obsd::ObsdServer;
use gossip_telemetry::profile::Profiler;
use gossip_telemetry::LiveRegistry;
use std::sync::Arc;
use std::time::{Duration, Instant};

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
    let mut sinks = RunSinks::new(args, open_metrics(args)?)?;
    let out = sinks.out;
    let report_out = path_option(args, "out")?;
    let trace_out = path_option(args, "trace-out")?;
    let profile_out = path_option(args, "profile-out")?;
    let mut planner = GossipPlanner::new(&g)
        .map_err(|e| e.to_string())?
        .algorithm(alg);
    if let Some(m) = &sinks.metrics {
        planner = planner.recorder(&m.recorder);
    }
    let profiler = profile_out
        .as_ref()
        .map(|_| (Profiler::begin(), Instant::now()));
    let plan = planner.plan().map_err(|e| e.to_string())?;
    let faults_opt = parse_fault_plan(args, g.n())?;
    let faults = faults_opt.clone().unwrap_or_else(FaultPlan::none);
    let max_epochs = args.get_usize("max-epochs", DEFAULT_MAX_EPOCHS)?;
    let origins = &plan.origin_of_message;
    sinks.arm(|| {
        let flat = FlatSchedule::from_schedule(&plan.schedule);
        flight_header("resilient", &g, plan.radius, &flat, &faults_opt, origins)
    })?;
    let watch = Watch {
        bound: plan.guarantee(),
        pairs: g.n() * origins.len(),
        max_epochs: Some(max_epochs),
    };
    let report = sinks
        .run(sinks.recorder(), watch, Duration::ZERO, |rec| {
            ResilientExecutor::new(&g, &plan.schedule, origins, &faults)
                .max_epochs(max_epochs)
                .recorder(rec)
                .run()
        })
        .map_err(|e| e.to_string())?;
    if let (Some((profiler, t0)), Some(path)) = (profiler, &profile_out) {
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let profile = profiler.finish();
        let doc = profile_artifact(&g, alg, plan.radius, report.total_rounds, ms, &profile);
        write_profile(path, &doc, out)?;
    }

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

    if let Some(path) = report_out {
        let json = serde_json::to_string_pretty(&report.to_value()).map_err(|e| e.to_string())?;
        std::fs::write(&path, json).map_err(|e| format!("{path}: {e}"))?;
        out!(out, "wrote recovery report to {path}");
    }
    if let Some(path) = trace_out {
        let trace = report.chrome_trace();
        std::fs::write(&path, trace.to_json()).map_err(|e| format!("{path}: {e}"))?;
        out!(
            out,
            "wrote Chrome trace ({} events) to {path} — one lane per repair epoch",
            trace.len()
        );
    }
    let fired = sinks.finish()?;
    if report.recovered {
        sinks.alerts_fatal(fired)
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
    let mut sinks = RunSinks::new(args, open_metrics(args)?)?;
    let out = sinks.out;
    let churn_out = path_option(args, "churn-out")?;
    let report_out = path_option(args, "out")?;
    let profile_out = path_option(args, "profile-out")?;
    let profiler = profile_out
        .as_ref()
        .map(|_| (Profiler::begin(), Instant::now()));
    // The base plan is only consulted for the report header (radius,
    // baseline makespan) and the generator horizon; the executor plans
    // internally so its tree stays in sync with its repairs.
    let plan = GossipPlanner::new(&g)
        .map_err(|e| e.to_string())?
        .plan()
        .map_err(|e| e.to_string())?;
    let churn_plan_phase = gossip_telemetry::profile::phase("churn_plan");
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
            ChurnPlan::generate(&g, rate, seed, horizon)
        }
    };
    drop(churn_plan_phase);
    if let Some(path) = churn_out {
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
    let origins = &plan.origin_of_message;
    sinks.arm(|| {
        let flat = FlatSchedule::from_schedule(&plan.schedule);
        let mut header = flight_header("churn", &g, plan.radius, &flat, &None, origins)?;
        // The fault-digest slot fingerprints the churn plan instead:
        // two churn captures with the same graph/schedule digests but
        // different topology scripts must not diff as "same inputs".
        header.fault_digest = json_digest(&churn_plan)?;
        Ok(header)
    })?;
    // Under churn the bound context is the *baseline* n + r: topology
    // events legitimately extend the run, so the churn-storm rule (not
    // the bound rule) is the signal a rule file usually tightens here.
    let watch = Watch {
        bound: plan.guarantee(),
        pairs: g.n() * origins.len(),
        max_epochs: Some(max_epochs),
    };
    let report = sinks
        .run(sinks.recorder(), watch, Duration::ZERO, |rec| {
            ChurnExecutor::new(&g, &churn_plan)
                .max_epochs(max_epochs)
                .recorder(rec)
                .run()
        })
        .map_err(|e| e.to_string())?;
    if let (Some((profiler, t0)), Some(path)) = (profiler, &profile_out) {
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let profile = profiler.finish();
        let alg = Algorithm::ConcurrentUpDown;
        let doc = profile_artifact(&g, alg, plan.radius, report.total_rounds, ms, &profile);
        write_profile(path, &doc, out)?;
    }

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

    if let Some(path) = report_out {
        let json = serde_json::to_string_pretty(&report.to_value()).map_err(|e| e.to_string())?;
        std::fs::write(&path, json).map_err(|e| format!("{path}: {e}"))?;
        out!(out, "wrote churn report to {path}");
    }
    let fired = sinks.finish()?;
    if report.recovered {
        sinks.alerts_fatal(fired)
    } else {
        Err(format!(
            "churn recovery incomplete: a recoverable pair is still missing after {max_epochs} completion epoch(s) (raise --max-epochs)"
        ))
    }
}

/// `gossip serve`: run the self-healing executor with the live HTTP
/// observability server attached — `/metrics` (Prometheus), `/healthz`,
/// and `/events` (NDJSON) stay scrapeable for the whole run. The run's
/// telemetry lands in a [`LiveRegistry`]; `--round-delay-ms` stretches the
/// round cadence (via [`gossip_obsd::Paced`]) so scrapers can watch
/// progress, and `--linger-ms` keeps the server up after completion for a
/// final scrape.
pub fn serve(args: &Args) -> Result<(), String> {
    let g = load_graph(args)?;
    let alg = parse_algorithm(args)?;
    if alg == Algorithm::Telephone {
        return Err(
            "serve runs under the multicast model; --algorithm telephone is not supported".into(),
        );
    }
    let listen = args.get_or("listen", "127.0.0.1:9464");
    let delay = Duration::from_millis(args.get_u64("round-delay-ms", 0)?);
    let linger = Duration::from_millis(args.get_u64("linger-ms", 0)?);
    let faults_opt = parse_fault_plan(args, g.n())?;
    let faults = faults_opt.clone().unwrap_or_else(FaultPlan::none);
    let max_epochs = args.get_usize("max-epochs", DEFAULT_MAX_EPOCHS)?;
    let mut sinks = RunSinks::new(args, None)?;
    let addr_file = path_option(args, "addr-file")?;

    let registry = Arc::new(LiveRegistry::new());
    let server =
        ObsdServer::start(listen, Arc::clone(&registry)).map_err(|e| format!("{listen}: {e}"))?;
    let addr = server.addr();
    if let Some(path) = addr_file {
        std::fs::write(&path, format!("{addr}\n")).map_err(|e| format!("{path}: {e}"))?;
    }
    println!("serving on http://{addr} — endpoints: /metrics /healthz /events /alerts");
    let health = server.health();

    health.set_phase("planning");
    // Planning emits no round events, so pacing would never delay it.
    let plan = GossipPlanner::new(&g)
        .map_err(|e| e.to_string())?
        .algorithm(alg)
        .recorder(&*registry)
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
    let origins = &plan.origin_of_message;
    sinks.arm(|| {
        let flat = FlatSchedule::from_schedule(&plan.schedule);
        flight_header("resilient", &g, plan.radius, &flat, &faults_opt, origins)
    })?;
    let watch = Watch {
        bound: plan.guarantee(),
        pairs: g.n() * origins.len(),
        max_epochs: Some(max_epochs),
    };
    let report = sinks
        .run(Some(&*registry), watch, delay, |rec| {
            if let Some(alerts) = sinks.alerts.get() {
                server.set_alerts(Arc::clone(alerts));
            }
            ResilientExecutor::new(&g, &plan.schedule, origins, &faults)
                .max_epochs(max_epochs)
                .recorder(rec)
                .run()
        })
        .map_err(|e| e.to_string())?;
    sinks.write_flight()?;
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
    let fired = sinks.epilogue()?;
    if !linger.is_zero() {
        println!("lingering {} ms for final scrapes", linger.as_millis());
        std::thread::sleep(linger);
    }
    server.stop();
    if report.recovered {
        sinks.alerts_fatal(fired)
    } else {
        Err(format!(
            "recovery incomplete: {} recoverable pair(s) still missing after {} epoch(s) (raise --max-epochs)",
            report.unresolved.len(),
            max_epochs
        ))
    }
}
