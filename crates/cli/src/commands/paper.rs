//! The paper's constructions and analyses: `generate`, `trace`, `bounds`,
//! `exact`, `sweep`, `analyze`, `line`, `pipeline`, `energy`,
//! `provenance` and `compare`.

use super::{load_graph, open_metrics, parse_algorithm, path_option, write_metrics, Out};
use crate::args::Args;
use gossip_core::{gossip_lower_bound, optimal_gossip_time, Algorithm, ExactResult, GossipPlanner};
use gossip_model::{simulate_gossip, trace_gossip, vertex_trace, CommModel};
use gossip_telemetry::{MetricsRecorder, Recorder};
use gossip_workloads::Family;

/// `gossip generate`: write a family instance as JSON.
pub fn generate(args: &Args) -> Result<(), String> {
    let out_path = path_option(args, "out")?;
    let g = load_graph(args)?;
    // --compact emits single-line JSON for piping; default is pretty.
    let json = if args.flag("compact") {
        serde_json::to_string(&g).map_err(|e| e.to_string())?
    } else {
        serde_json::to_string_pretty(&g).map_err(|e| e.to_string())?
    };
    match out_path {
        Some(path) => {
            std::fs::write(&path, json).map_err(|e| format!("{path}: {e}"))?;
            println!("wrote graph (n = {}, m = {}) to {path}", g.n(), g.m());
        }
        None => println!("{json}"),
    }
    Ok(())
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
        let flat = gossip_model::FlatSchedule::from_schedule(&plan.schedule);
        gossip_model::SimKernel::with_origins(&g, CommModel::Multicast, &plan.origin_of_message)
            .and_then(|mut sim| sim.run_probed(&flat, &m.recorder))
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
    write_metrics(&metrics)
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
    write_metrics(&metrics)
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
    let artifact_out = path_option(args, "out")?;
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

    if let Some(path) = artifact_out {
        let doc = tr.to_value(bound);
        let json = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
        std::fs::write(&path, json).map_err(|e| format!("{path}: {e}"))?;
        out!(out, "wrote provenance artifact to {path}");
    }
    write_metrics(&metrics)
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
