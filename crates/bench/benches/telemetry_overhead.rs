//! Telemetry overhead guard: the instrumented entry points with a
//! [`NoopRecorder`] must cost within 5% of the raw (pre-telemetry) path,
//! measured on a 1024-vertex torus. Results (criterion display plus our own
//! wall-clock means) land in `BENCH_telemetry_overhead.json`.
//!
//! The `simulate` stage replays one flat schedule through the bitset
//! kernel, in five configurations:
//! - `raw`: the un-instrumented code path (`SimKernel::run`);
//! - `noop`: the probed path (`SimKernel::run_probed`) with
//!   [`NoopRecorder`] — this is what every default caller pays, and what
//!   the <5% guard bounds;
//! - `metrics`: the probed path with a live [`MetricsRecorder`] (no
//!   sink), the full-observability cost for context;
//! - `live`: the probed path with a [`LiveRegistry`] (no event tap) —
//!   what `gossip serve` pays while scrapeable; also guarded at <5%;
//! - `flight`: the recorded path (`SimKernel::run_recorded`) with a
//!   [`FlightRecorder`] capturing every round's transmissions into the
//!   in-memory `.gfr` arena — what `--flight-out` pays. Its rounds
//!   average about 990 deliveries, above `PIPELINE_ROUND_DELIVERIES`, so
//!   from two rayon threads on this is the pipelined recorded run: the
//!   rounds step on a worker thread while the calling thread encodes.
//!
//! The threaded online executor gets its own noop/live/flight/alerts
//! quadruple: its cost is barrier-dominated wall clock, so the recorders —
//! including an [`AlertEngine`] running the full default rule set, what
//! `gossip serve --alerts` pays (`alerts_guard_ok`) — must disappear into
//! the noise there. That quadruple carries the <5% flight guard: the
//! wall-clock executors are where `--flight-out` attaches in `gossip
//! serve`/`recover`. On the dense kernel microbench the capture is O(every
//! transmission) against a replay whose own per-transmission work is a
//! handful of word-ORs, so its ratio (reported as
//! `simulate_flight_overhead_pct`) is a statement about the kernel's
//! speed, and about how the pipelined run splits the work between two
//! cores, not about recording cost — it is context, not a guard.
//!
//! The planner phase profiler gets a `plan/noop` vs `plan/profiled` pair
//! (full construction pipeline, guards inert vs a [`Profiler`] installed)
//! guarded at <5% (`profile_guard_ok`): the profiler is designed to stay
//! always-on. Allocator counting cannot be toggled at runtime — build
//! with `--features prof-alloc` and compare artifacts; the build flavor
//! is recorded as `alloc_counting_enabled`, unguarded context.
//!
//! Every overhead is measured in alternating pairs: a pair runs the
//! baseline and the configuration back to back, the baseline first in
//! even pairs and second in odd ones, so drift and the cost of running
//! second hit both sides alike. An overhead is the median of the per-pair
//! time ratios (`*_overhead_pct`), reported with their quartiles
//! (`*_overhead_q1_pct`, `*_overhead_q3_pct`); a guard judges the median.

use criterion::{criterion_group, criterion_main, Criterion};
use gossip_bench::report::{obj, write_bench_json};
use gossip_core::{concurrent_updown_recorded, run_online_threaded_recorded, tree_origins};
use gossip_graph::{min_depth_spanning_tree, ChildOrder};
use gossip_model::{CommModel, FlatSchedule, SimKernel};
use gossip_telemetry::flight::FlightHeader;
use gossip_telemetry::profile::Profiler;
use gossip_telemetry::{
    AlertEngine, FlightRecorder, Histogram, LiveRegistry, MetricsRecorder, NoopRecorder, RuleSet,
    Value,
};
use gossip_workloads::torus;
use std::hint::black_box;
use std::time::Instant;

// With `--features prof-alloc` the counting allocator runs under this
// bench, so the artifact's plan timings include the counting cost —
// compare against a default build's artifact to price it. The flag is
// recorded as `alloc_counting_enabled`.
#[cfg(feature = "prof-alloc")]
#[global_allocator]
static ALLOC: gossip_telemetry::profile::ProfAlloc = gossip_telemetry::profile::ProfAlloc;

/// A configuration's cost over its baseline: the median and quartiles of
/// the per-pair time ratios, in percent.
#[derive(Debug)]
struct Overhead {
    median_pct: f64,
    q1_pct: f64,
    q3_pct: f64,
}

impl Overhead {
    /// The `<name>_overhead_pct`, `_q1_pct` and `_q3_pct` artifact fields.
    fn fields(&self, name: &str) -> [(String, Value); 3] {
        [
            (
                format!("{name}_overhead_pct"),
                Value::from_f64(self.median_pct),
            ),
            (
                format!("{name}_overhead_q1_pct"),
                Value::from_f64(self.q1_pct),
            ),
            (
                format!("{name}_overhead_q3_pct"),
                Value::from_f64(self.q3_pct),
            ),
        ]
    }

    fn ok(&self) -> bool {
        self.median_pct < 5.0
    }
}

/// The `p`-th percentile (nearest rank) of `xs`.
fn percentile(xs: &[f64], p: f64) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    Histogram::percentile(&sorted, p).unwrap_or(f64::NAN)
}

/// Times configurations `1..configs` of `run` against configuration 0,
/// the baseline, in `pairs` alternating pairs each (see the module doc);
/// every pass takes one pair of every configuration. Returns the median
/// wall seconds of every configuration (the baseline's over all its runs)
/// and the overhead of configurations `1..configs`, in order.
fn paired_overheads<F: FnMut(usize)>(
    mut run: F,
    configs: usize,
    pairs: usize,
) -> (Vec<f64>, Vec<Overhead>) {
    let mut time = |c: usize| {
        let t0 = Instant::now();
        run(c);
        t0.elapsed().as_secs_f64()
    };
    for c in 0..configs {
        time(c); // warm-up
    }
    let mut walls = vec![Vec::new(); configs];
    let mut ratios = vec![Vec::new(); configs];
    for pair in 0..pairs {
        for c in 1..configs {
            let (base, this) = if pair % 2 == 0 {
                let base = time(0);
                (base, time(c))
            } else {
                let this = time(c);
                (time(0), this)
            };
            walls[0].push(base);
            walls[c].push(this);
            ratios[c].push(this / base);
        }
    }
    let medians = walls.iter().map(|w| percentile(w, 50.0)).collect();
    let pct = |r: &[f64], p: f64| 100.0 * (percentile(r, p) - 1.0);
    let overheads = ratios[1..]
        .iter()
        .map(|r| Overhead {
            median_pct: pct(r, 50.0),
            q1_pct: pct(r, 25.0),
            q3_pct: pct(r, 75.0),
        })
        .collect();
    (medians, overheads)
}

fn bench_overhead(c: &mut Criterion) {
    let g = torus(32, 32); // 1024 vertices
    let tree = min_depth_spanning_tree(&g, ChildOrder::ById).unwrap();
    let schedule = concurrent_updown_recorded(&tree, &NoopRecorder);
    let origins = tree_origins(&tree);
    let flat = FlatSchedule::from_schedule(&schedule);
    let kernel = || SimKernel::with_origins(&g, CommModel::Multicast, &origins).unwrap();
    let metrics = MetricsRecorder::new();

    let mut group = c.benchmark_group("telemetry_overhead");
    group.sample_size(10);
    group.bench_function("simulate/raw", |b| {
        b.iter(|| black_box(kernel().run(black_box(&flat)).unwrap()))
    });
    group.bench_function("simulate/noop", |b| {
        b.iter(|| {
            black_box(
                kernel()
                    .run_probed(black_box(&flat), &NoopRecorder)
                    .unwrap(),
            )
        })
    });
    group.bench_function("simulate/metrics", |b| {
        b.iter(|| black_box(kernel().run_probed(black_box(&flat), &metrics).unwrap()))
    });
    let live = LiveRegistry::new();
    group.bench_function("simulate/live", |b| {
        b.iter(|| black_box(kernel().run_probed(black_box(&flat), &live).unwrap()))
    });
    // A fresh recorder per iteration: the capture grows with the run, so
    // reusing one would accumulate records (and memory) across samples.
    let flight_header = FlightHeader {
        n: g.n() as u32,
        n_msgs: origins.len() as u32,
        radius: 0,
        engine: "bench".to_string(),
        graph_digest: 0,
        schedule_digest: 0,
        fault_digest: 0,
        origins: origins.iter().map(|&o| o as u32).collect(),
    };
    group.bench_function("simulate/flight", |b| {
        b.iter(|| {
            let rec = FlightRecorder::new(flight_header.clone());
            black_box(kernel().run_recorded(black_box(&flat), &rec).unwrap())
        })
    });
    group.bench_function("generate/noop", |b| {
        b.iter(|| black_box(concurrent_updown_recorded(black_box(&tree), &NoopRecorder)))
    });
    group.bench_function("generate/metrics", |b| {
        b.iter(|| black_box(concurrent_updown_recorded(black_box(&tree), &metrics)))
    });
    // The planner phase profiler: the full construction pipeline with a
    // Profiler installed vs the same pipeline with the guards inert. The
    // profiler is meant to stay always-on, so this pair carries its own
    // <5% guard (`profile_guard_ok`).
    let plan_pipeline = |g: &gossip_graph::Graph| {
        let tree = min_depth_spanning_tree(g, ChildOrder::ById).unwrap();
        let schedule = concurrent_updown_recorded(&tree, &NoopRecorder);
        black_box(FlatSchedule::from_schedule(&schedule));
    };
    group.bench_function("plan/noop", |b| b.iter(|| plan_pipeline(&g)));
    group.bench_function("plan/profiled", |b| {
        b.iter(|| {
            let profiler = Profiler::begin();
            plan_pipeline(&g);
            black_box(profiler.finish());
        })
    });
    group.finish();

    // Independent wall-clock timings for the JSON artifact (the criterion
    // harness prints but does not expose its timings).
    // Pairs per configuration: more for the cheaper stages, whose single
    // runs jitter more (one pair under `--test`).
    let test_mode = std::env::args().any(|a| a == "--test");
    let pairs = |n: usize| if test_mode { 1 } else { n };
    let (simulate_pairs, online_pairs, plan_pairs) = (pairs(61), pairs(41), pairs(21));
    let (walls, over) = paired_overheads(
        |config| {
            let mut sim = kernel();
            match config {
                0 => black_box(sim.run(&flat).unwrap()),
                1 => black_box(sim.run_probed(&flat, &NoopRecorder).unwrap().0),
                2 => black_box(sim.run_probed(&flat, &metrics).unwrap().0),
                3 => black_box(sim.run_probed(&flat, &live).unwrap().0),
                _ => {
                    let rec = FlightRecorder::new(flight_header.clone());
                    black_box(sim.run_recorded(&flat, &rec).unwrap())
                }
            };
        },
        5,
        simulate_pairs,
    );
    let [noop_over, metrics_over, live_over, simulate_flight_over]: [Overhead; 4] =
        over.try_into().unwrap();

    // The threaded online executor: per-round wall clock is dominated by
    // the barrier, so live instrumentation must vanish into it. This is
    // also where the flight guard binds — the wall-clock executors are the
    // paths `--flight-out` instruments in production.
    let online_tree = min_depth_spanning_tree(&torus(8, 8), ChildOrder::ById).unwrap();
    let online_origins = tree_origins(&online_tree);
    let online_header = FlightHeader {
        n: online_tree.n() as u32,
        n_msgs: online_origins.len() as u32,
        radius: 0,
        engine: "bench".to_string(),
        graph_digest: 0,
        schedule_digest: 0,
        fault_digest: 0,
        origins: online_origins.iter().map(|&o| o as u32).collect(),
    };
    let (online_walls, online_over) = paired_overheads(
        |config| {
            match config {
                0 => black_box(run_online_threaded_recorded(&online_tree, &NoopRecorder)),
                1 => black_box(run_online_threaded_recorded(&online_tree, &live)),
                2 => {
                    let rec = FlightRecorder::new(online_header.clone());
                    black_box(run_online_threaded_recorded(&online_tree, &rec))
                }
                _ => {
                    // What `gossip serve --alerts` pays: the full default
                    // rule set evaluating every round over the live
                    // registry. Fresh engine per run so the single-shot
                    // latches judge every round, never a latched fast path.
                    let engine = AlertEngine::new(&live, RuleSet::default())
                        .total_pairs((online_tree.n() * online_origins.len()) as u64);
                    black_box(run_online_threaded_recorded(&online_tree, &engine))
                }
            };
        },
        4,
        online_pairs,
    );
    let [online_live_over, flight_over, alerts_over]: [Overhead; 3] =
        online_over.try_into().unwrap();

    // The planner profiler pair for the artifact. Allocator counting is a
    // process-global build decision (`--features prof-alloc`), so it
    // cannot be toggled per configuration here: its cost is measured
    // separately by comparing a prof-alloc build's artifact against a
    // default build's, and reported unguarded as context via
    // `alloc_counting_enabled`.
    let (plan_walls, plan_over) = paired_overheads(
        |config| match config {
            0 => plan_pipeline(&g),
            _ => {
                let profiler = Profiler::begin();
                plan_pipeline(&g);
                black_box(profiler.finish());
            }
        },
        2,
        plan_pairs,
    );
    let profile_over = &plan_over[0];
    let alloc_counting = Profiler::begin().finish().alloc_tracking();

    let ms = |secs: f64| Value::from_f64(secs * 1e3);
    let mut fields: Vec<(String, Value)> = vec![
        (
            "experiment".into(),
            Value::String("telemetry_overhead".into()),
        ),
        ("n".into(), Value::from_u64(g.n() as u64)),
        (
            "simulate_pairs".into(),
            Value::from_u64(simulate_pairs as u64),
        ),
        ("online_pairs".into(), Value::from_u64(online_pairs as u64)),
        ("plan_pairs".into(), Value::from_u64(plan_pairs as u64)),
        ("simulate_raw_ms".into(), ms(walls[0])),
        ("simulate_noop_ms".into(), ms(walls[1])),
        ("simulate_metrics_ms".into(), ms(walls[2])),
        ("simulate_live_ms".into(), ms(walls[3])),
        ("simulate_flight_ms".into(), ms(walls[4])),
        ("online_n".into(), Value::from_u64(online_tree.n() as u64)),
        ("online_noop_ms".into(), ms(online_walls[0])),
        ("online_live_ms".into(), ms(online_walls[1])),
        ("online_flight_ms".into(), ms(online_walls[2])),
        ("online_alerts_ms".into(), ms(online_walls[3])),
        ("plan_noop_ms".into(), ms(plan_walls[0])),
        ("plan_profiled_ms".into(), ms(plan_walls[1])),
    ];
    for (name, over) in [
        ("noop", &noop_over),
        ("metrics", &metrics_over),
        ("live", &live_over),
        ("simulate_flight", &simulate_flight_over),
        ("online_live", &online_live_over),
        ("flight", &flight_over),
        ("alerts", &alerts_over),
        ("profile", profile_over),
    ] {
        fields.extend(over.fields(name));
    }
    fields.extend([
        ("alloc_counting_enabled".into(), Value::Bool(alloc_counting)),
        ("guard_pct".into(), Value::from_f64(5.0)),
        ("guard_ok".into(), Value::Bool(noop_over.ok())),
        ("live_guard_ok".into(), Value::Bool(live_over.ok())),
        ("flight_guard_ok".into(), Value::Bool(flight_over.ok())),
        (
            "online_live_guard_ok".into(),
            Value::Bool(online_live_over.ok()),
        ),
        ("profile_guard_ok".into(), Value::Bool(profile_over.ok())),
        ("alerts_guard_ok".into(), Value::Bool(alerts_over.ok())),
    ]);
    let payload = obj(fields
        .iter()
        .map(|(k, v)| (k.as_str(), v.clone()))
        .collect());
    if let Some(path) = write_bench_json("telemetry_overhead", &payload) {
        let show =
            |o: &Overhead| format!("{:.2}% [{:.2}, {:.2}]", o.median_pct, o.q1_pct, o.q3_pct);
        println!(
            "overhead, median [quartiles] of alternating pairs: noop {}, \
             live registry {}, online live {}, online flight {}, online alerts {}, \
             plan profiler {} (guard: median < 5%; dense-capture context: {}; \
             alloc counting: {alloc_counting}), wrote {path}",
            show(&noop_over),
            show(&live_over),
            show(&online_live_over),
            show(&flight_over),
            show(&alerts_over),
            show(profile_over),
            show(&simulate_flight_over),
        );
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_overhead
}
criterion_main!(benches);
