//! The benchmark command:
//!
//! ```text
//! perfbench --workload <plan|repair> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! It sets up (input generation plus one untimed warm-up instance, several
//! times), then runs seeded instances one after another for `--seconds`
//! seconds, checking each output. With `--trace 0` it reports the
//! end-to-end metrics; with `--trace 1` it alternates untraced and traced
//! runs of each input and reports the per-layer split. The last line of
//! standard output is one JSON object.

use perfbench::{
    artifact_path, host, make_inputs, mix, run_workload, Outcome, Record, Workload, END_TO_END,
    PER_LAYER,
};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Set-up repetitions, `setup_s` being their median: at least the minimum,
/// and more (up to the maximum) while they fit in the time below, so cheap
/// workloads get a steadier median.
const SETUP_REPS: (usize, usize) = (5, 9);
const SETUP_SECONDS: f64 = 10.0;
/// Instance-seed streams: set-up inputs and measured inputs never collide.
const SETUP_STREAM: u64 = 1;
const MEASURE_STREAM: u64 = 2;
/// The traced run's coverage floor: layer columns must claim this share of
/// the traced wall.
const MIN_COVERAGE_PCT: f64 = 95.0;
/// Worker threads the library may use.
const MAX_THREADS: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == key)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {key}"))
    };
    let workload = get("--workload")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let seed = get("--seed")?;
    let seed = seed.parse().map_err(|e| format!("--seed {seed:?}: {e}"))?;
    let seconds = get("--seconds")?;
    let seconds: f64 = seconds
        .parse()
        .map_err(|e| format!("--seconds {seconds:?}: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace {other:?}: expected 0 or 1")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <plan|repair> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    cap_threads();
    let artifacts = match artifact_dir() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let report = run(&args, &artifacts);
    for p in args.workload.pipelines() {
        // The captures are scratch output; leaving one behind is harmless.
        let _ = std::fs::remove_file(artifact_path(&artifacts, p));
    }
    println!("{report}");
}

/// Pins the library's worker pool to at most [`MAX_THREADS`] threads. Runs
/// before any parallel work, while the process is single-threaded.
fn cap_threads() {
    let set = std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&t| (1..=MAX_THREADS).contains(&t));
    if set.is_none() {
        std::env::set_var("RAYON_NUM_THREADS", MAX_THREADS.to_string());
    }
}

/// Where the plan pipelines write their `.gfr` captures: next to the
/// benchmark's own executable, so they stay inside the build directory.
fn artifact_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the executable: {e}"))?;
    let dir = exe
        .parent()
        .ok_or("the executable has no directory")?
        .join("perfbench-artifacts");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// An untraced instance, the host's slowdown while it ran, and the factor
/// its times are divided by.
struct Measured {
    outcome: Outcome,
    slowdown: f64,
    scale: f64,
}

impl Measured {
    fn new(w: Workload, outcome: Outcome, slowdown: f64) -> Self {
        Measured {
            outcome,
            slowdown,
            scale: scale(w, slowdown),
        }
    }

    /// The instance's wall time scaled to the reference host speed.
    fn wall_ms(&self) -> f64 {
        self.outcome.wall_ms / self.scale
    }
}

/// What `w`'s times are divided by, given the host's slowdown.
fn scale(w: Workload, slowdown: f64) -> f64 {
    slowdown.powf(w.host_sensitivity())
}

/// Runs set-up and the measured loop; returns the JSON result line.
fn run(args: &Args, artifacts: &Path) -> String {
    let w = args.workload;
    let seed_of = |stream: u64, i: u64| mix(args.seed, stream, i);
    let mut attempted = 0usize;
    let mut failed = 0usize;
    let mut tally = |o: &Outcome, label: &str, i: u64| {
        attempted += 1;
        if !o.verified() {
            failed += 1;
        }
        print_instance(w, label, i, o);
    };

    // Set-up: input generation plus an untimed warm-up instance (pool
    // start, first touch), repeated; `setup_s` is the median, scaled like
    // the instances.
    let mut setup: Vec<f64> = Vec::new();
    let mut setup_s = 0.0;
    while setup.len() < SETUP_REPS.0 || (setup.len() < SETUP_REPS.1 && setup_s < SETUP_SECONDS) {
        let i = setup.len() as u64;
        let ((o, secs), slowdown) = host::probed(|| {
            let t0 = Instant::now();
            let input = make_inputs(w, seed_of(SETUP_STREAM, i));
            let o = run_workload(w, &input, false, artifacts);
            (o, t0.elapsed().as_secs_f64())
        });
        setup.push(secs / scale(w, slowdown));
        setup_s += secs;
        tally(&o, "warmup", i);
    }

    // Every instance runs a new input, timed between two host probes.
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut plain: Vec<Measured> = Vec::new();
    let mut traced: Vec<(Outcome, f64)> = Vec::new();
    let mut gen_ms: Vec<f64> = Vec::new();
    while gen_ms.is_empty() || start.elapsed() < budget {
        let i = gen_ms.len() as u64;
        let input = make_inputs(w, seed_of(MEASURE_STREAM, i));
        gen_ms.push(input.iter().map(|part| part.gen_ms).sum());
        if args.trace {
            // The same input untraced and traced, alternating which runs
            // first, gives the tracing overhead as a paired ratio.
            let ((p, t), slowdown) = host::probed(|| {
                if i.is_multiple_of(2) {
                    let p = run_workload(w, &input, false, artifacts);
                    (p, run_workload(w, &input, true, artifacts))
                } else {
                    let t = run_workload(w, &input, true, artifacts);
                    (run_workload(w, &input, false, artifacts), t)
                }
            });
            tally(&p, "plain", i);
            tally(&t, "traced", i);
            let overhead = (t.wall_ms / p.wall_ms - 1.0) * 100.0;
            traced.push((t, overhead));
            plain.push(Measured::new(w, p, slowdown));
        } else {
            let (outcome, slowdown) = host::probed(|| run_workload(w, &input, false, artifacts));
            tally(&outcome, "run", i);
            plain.push(Measured::new(w, outcome, slowdown));
        }
    }

    let mut correct = failed == 0;
    let metrics = if args.trace {
        let (m, coverage) = per_layer(&traced, &plain, &gen_ms);
        if coverage < MIN_COVERAGE_PCT {
            eprintln!("perfbench: layer coverage {coverage:.1}% is below {MIN_COVERAGE_PCT}%");
            correct = false;
        }
        m
    } else {
        let rss = peak_rss_mb();
        if rss.is_none() {
            eprintln!("perfbench: VmHWM is unreadable");
            correct = false;
        }
        end_to_end(&plain, &setup, rss.unwrap_or(0.0), attempted, failed)
    };
    let verified: Vec<&Measured> = plain.iter().filter(|m| m.outcome.verified()).collect();
    println!(
        "# {} seed {}: {} instance(s) checked, {} failed; medians over {} verified input(s): wall {:.1} ms, host slowdown {:.3}",
        w.name(),
        args.seed,
        attempted,
        failed,
        verified.len(),
        median(verified.iter().map(|m| m.outcome.wall_ms).collect()),
        median(verified.iter().map(|m| m.slowdown).collect()),
    );
    for (name, value, unit) in &metrics {
        let better = END_TO_END
            .iter()
            .find(|m| m.0 == *name)
            .map_or(String::new(), |m| format!("  ({} is better)", m.2));
        println!("{name:<32} {value:>16.4} {unit}{better}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// One line per instance: the wall time, and per pipeline the values the
/// determinism test pins.
fn print_instance(w: Workload, label: &str, i: u64, o: &Outcome) {
    let parts: Vec<String> = w
        .pipelines()
        .iter()
        .zip(&o.records)
        .map(|(p, r)| {
            format!(
                "{} digest {:016x} radius {} makespan {}/{} extra_rounds {} repair_deliveries {} deliveries {}",
                p.name(),
                r.digest,
                r.radius,
                r.makespan,
                r.bound,
                r.extra_rounds,
                r.repair_deliveries,
                r.deliveries
            )
        })
        .collect();
    println!(
        "{label} {i}: wall_ms {:.3}; {}; {}",
        o.wall_ms,
        parts.join("; "),
        if o.verified() {
            "verified".to_string()
        } else {
            format!("FAILED: {}", o.failures.join("; "))
        }
    );
}

type Metric = (&'static str, f64, &'static str);

fn end_to_end(
    runs: &[Measured],
    setup: &[f64],
    rss_mb: f64,
    attempted: usize,
    failed: usize,
) -> Vec<Metric> {
    // Times and rates come from verified instances only.
    let med = |f: &dyn Fn(&Measured) -> f64| {
        median(
            runs.iter()
                .filter(|m| m.outcome.verified())
                .map(f)
                .collect(),
        )
    };
    let ratio = |a: usize, b: usize| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    // Count ratios pool every pipeline run of the run: sum over sum.
    let pooled = |num: &dyn Fn(&Record) -> usize, den: &dyn Fn(&Record) -> usize| {
        ratio(
            runs.iter().map(|m| m.outcome.total(num)).sum(),
            runs.iter().map(|m| m.outcome.total(den)).sum(),
        )
    };
    let value = |name: &str| -> f64 {
        match name {
            "wall_ms_p50" => med(&Measured::wall_ms),
            "setup_s" => median(setup.to_vec()),
            "peak_rss_mb" => rss_mb,
            "deliveries_per_s" => {
                med(&|m| m.outcome.total(|r| r.deliveries) as f64 / (m.wall_ms() / 1e3))
            }
            "makespan_over_bound" => pooled(&|r| r.makespan, &|r| r.bound),
            "rounds_over_baseline" => pooled(&|r| r.total_rounds, &|r| r.baseline_rounds),
            "deliveries_over_baseline" => {
                pooled(&|r| r.baseline_deliveries + r.repair_deliveries, &|r| {
                    r.baseline_deliveries
                })
            }
            "verified_share" => ratio(attempted - failed, attempted),
            other => unreachable!("no rule for end-to-end metric {other}"),
        }
    };
    END_TO_END
        .iter()
        .map(|&(name, unit, _)| (name, value(name), unit))
        .collect()
}

/// Per-layer means over the traced instances, plus the coverage share.
/// `plain` holds the paired untraced runs.
fn per_layer(traced: &[(Outcome, f64)], plain: &[Measured], gen_ms: &[f64]) -> (Vec<Metric>, f64) {
    let mean = |f: &dyn Fn(&Outcome) -> f64| {
        traced.iter().map(|(o, _)| f(o)).sum::<f64>() / traced.len().max(1) as f64
    };
    let per = |num: f64, den: usize| if den == 0 { 0.0 } else { num / den as f64 };
    let wall = mean(&|o| o.wall_ms);
    let unattributed = mean(&Outcome::unattributed_ms);
    let coverage = if wall > 0.0 {
        (1.0 - unattributed / wall) * 100.0
    } else {
        0.0
    };
    let value = |name: &str| -> f64 {
        match name {
            "unscaled_wall_ms_p50" => median(plain.iter().map(|m| m.outcome.wall_ms).collect()),
            "host_slowdown" => median(plain.iter().map(|m| m.slowdown).collect()),
            "workloads.graph_ms" => gen_ms.iter().sum::<f64>() / gen_ms.len().max(1) as f64,
            "graph.radius" => {
                mean(&|o| per(o.total(|r| r.radius as usize) as f64, o.records.len()))
            }
            "core.generate_ns_per_delivery" => mean(&|o| {
                let generate =
                    o.layers.get("core.generate_ms") + o.layers.get("core.generate_csr_ms");
                per(generate * 1e6, o.total(|r| r.baseline_deliveries))
            }),
            "core.extra_rounds" => mean(&|o| o.total(|r| r.extra_rounds) as f64),
            "core.repair_deliveries" => mean(&|o| o.total(|r| r.repair_deliveries) as f64),
            "model.replay_ns_per_delivery" => mean(&|o| {
                per(
                    o.layers.get("model.replay_ms") * 1e6,
                    o.total(|r| r.deliveries),
                )
            }),
            "model.deliveries" => mean(&|o| o.total(|r| r.deliveries) as f64),
            "model.transmissions" => mean(&|o| o.total(|r| r.transmissions) as f64),
            "telemetry.bytes_per_delivery" => mean(&|o| {
                per(
                    o.layers.get("telemetry.artifact_bytes"),
                    o.total(|r| r.deliveries),
                )
            }),
            "unattributed_ms" => unattributed,
            "coverage_pct" => coverage,
            "traced_wall_ms" => wall,
            "trace_overhead_pct" => median(traced.iter().map(|(_, p)| *p).collect()),
            layer => mean(&|o| o.layers.get(layer)),
        }
    };
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, value(name), unit))
        .collect();
    (metrics, coverage)
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    (kb > 0.0).then_some(kb / 1024.0)
}

/// A JSON number: every digit Rust's shortest round-trip form gives; a
/// non-finite value (never expected) becomes 0.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}
