//! `gossip profile` and the PROF artifact it shares with `--profile-out`
//! (`gossip plan`, `recover` and `churn`) and `gossip stats`.

use super::{
    load_graph, load_graph_spec, parse_algorithm, parse_planner, path_option, Out, Planner,
};
use crate::args::Args;
use gossip_core::{Algorithm, GossipPlanner};
use gossip_graph::Graph;
use gossip_model::CommModel;
use gossip_telemetry::{Value, SCHEMA_VERSION};

/// Builds the schema-versioned PROF artifact (`kind: "profile"`) shared
/// by `gossip profile` and `--profile-out`. `plan_ms` is the profiled
/// window's wall time.
pub(super) fn profile_artifact(
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

/// The line saying how much of the profiled window landed in named
/// phases, read from a PROF artifact.
fn attribution_line(doc: &Value) -> String {
    let ms = |key: &str| doc.get(key).and_then(Value::as_f64).unwrap_or(0.0);
    format!(
        "attribution: {:.3} ms of {:.3} ms in named phases ({:.1}%); {:.3} ms unattributed",
        ms("attributed_ms"),
        ms("plan_ms"),
        ms("attributed_pct"),
        ms("unattributed_ms")
    )
}

/// Writes a `--profile-out` PROF artifact and prints its attribution line.
pub(super) fn write_profile(path: &str, doc: &Value, out: Out) -> Result<(), String> {
    let json = serde_json::to_string_pretty(doc).map_err(|e| e.to_string())?;
    std::fs::write(path, json).map_err(|e| format!("{path}: {e}"))?;
    out!(out, "{}", attribution_line(doc));
    out!(
        out,
        "wrote profile to {path} — render with `gossip stats {path}`"
    );
    Ok(())
}

/// Renders a PROF phase forest as an indented table: one row per phase
/// with call count, total and self time, plus work counters and (when
/// recorded) allocation stats. Shared by `gossip profile` and `gossip
/// stats`.
pub(super) fn render_profile_phases(phases: &Value) -> String {
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
    // The reference plan's `Schedule` (one heap list per transmission) is
    // held past the timed window: dropping it inside would book its frees
    // as unattributed construction time.
    let mut reference_plan = None;
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
        let plan = reference_plan.insert(
            GossipPlanner::new(&g)
                .map_err(|e| e.to_string())?
                .algorithm(alg)
                .plan()
                .map_err(|e| e.to_string())?,
        );
        let flat = gossip_model::FlatSchedule::from_schedule(&plan.schedule);
        flat.validate(&g, model, plan.origin_of_message.len())
            .map_err(|e| e.to_string())?;
        (
            plan.radius,
            plan.makespan(),
            plan.guarantee(),
            flat,
            std::mem::take(&mut plan.origin_of_message),
        )
    };
    let plan_ms = t0.elapsed().as_secs_f64() * 1e3;
    let profile = profiler.finish();
    drop(reference_plan);

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
    println!("{}", attribution_line(&doc));
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
