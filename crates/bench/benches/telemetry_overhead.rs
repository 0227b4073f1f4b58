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
//!   in-memory `.gfr` ring — what `--flight-out` pays.
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
//! speed, not about recording cost — it is context, not a guard.
//!
//! The planner phase profiler gets a `plan/noop` vs `plan/profiled` pair
//! (full construction pipeline, guards inert vs a [`Profiler`] installed)
//! guarded at <5% (`profile_guard_ok`): the profiler is designed to stay
//! always-on. Allocator counting cannot be toggled at runtime — build
//! with `--features prof-alloc` and compare artifacts; the build flavor
//! is recorded as `alloc_counting_enabled`, unguarded context.

use criterion::{criterion_group, criterion_main, Criterion};
use gossip_bench::report::{obj, write_bench_json};
use gossip_core::{concurrent_updown_recorded, run_online_threaded_recorded, tree_origins};
use gossip_graph::{min_depth_spanning_tree, ChildOrder};
use gossip_model::{CommModel, FlatSchedule, SimKernel};
use gossip_telemetry::flight::FlightHeader;
use gossip_telemetry::profile::Profiler;
use gossip_telemetry::{
    AlertEngine, FlightRecorder, LiveRegistry, MetricsRecorder, NoopRecorder, RuleSet, Value,
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

/// Minimum wall-clock seconds per run of each routine, with the routines
/// interleaved round-robin so slow drift (thermal, background load) hits
/// every configuration equally. Min-of-N rejects one-sided noise, which is
/// what an overhead *guard* needs: the true cost is the floor, not the mean.
fn time_min_interleaved<F: FnMut(usize)>(mut run: F, configs: usize, iters: usize) -> Vec<f64> {
    for c in 0..configs {
        run(c); // warm-up
    }
    let mut best = vec![f64::INFINITY; configs];
    for _ in 0..iters {
        for (c, slot) in best.iter_mut().enumerate() {
            let t0 = Instant::now();
            run(c);
            *slot = slot.min(t0.elapsed().as_secs_f64());
        }
    }
    best
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
    let iters = if std::env::args().any(|a| a == "--test") {
        1
    } else {
        7
    };
    let best = time_min_interleaved(
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
        iters,
    );
    let (raw, noop, recorded, live_t, flight_t) = (best[0], best[1], best[2], best[3], best[4]);
    let overhead_pct = 100.0 * (noop - raw) / raw;
    let live_overhead_pct = 100.0 * (live_t - raw) / raw;
    let simulate_flight_overhead_pct = 100.0 * (flight_t - raw) / raw;

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
    let online_best = time_min_interleaved(
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
        iters,
    );
    let (online_noop, online_live, online_flight, online_alerts) = (
        online_best[0],
        online_best[1],
        online_best[2],
        online_best[3],
    );
    let online_live_overhead_pct = 100.0 * (online_live - online_noop) / online_noop;
    let flight_overhead_pct = 100.0 * (online_flight - online_noop) / online_noop;
    let alerts_overhead_pct = 100.0 * (online_alerts - online_noop) / online_noop;

    // The planner profiler pair for the artifact. Allocator counting is a
    // process-global build decision (`--features prof-alloc`), so it
    // cannot be toggled per configuration here: its cost is measured
    // separately by comparing a prof-alloc build's artifact against a
    // default build's, and reported unguarded as context via
    // `alloc_counting_enabled`.
    let plan_best = time_min_interleaved(
        |config| match config {
            0 => plan_pipeline(&g),
            _ => {
                let profiler = Profiler::begin();
                plan_pipeline(&g);
                black_box(profiler.finish());
            }
        },
        2,
        iters,
    );
    let (plan_noop, plan_profiled) = (plan_best[0], plan_best[1]);
    let profile_overhead_pct = 100.0 * (plan_profiled - plan_noop) / plan_noop;
    let alloc_counting = Profiler::begin().finish().alloc_tracking();

    let payload = obj(vec![
        ("experiment", Value::String("telemetry_overhead".into())),
        ("n", Value::from_u64(g.n() as u64)),
        ("iters", Value::from_u64(iters as u64)),
        ("simulate_raw_ms", Value::from_f64(raw * 1e3)),
        ("simulate_noop_ms", Value::from_f64(noop * 1e3)),
        ("simulate_metrics_ms", Value::from_f64(recorded * 1e3)),
        ("simulate_live_ms", Value::from_f64(live_t * 1e3)),
        ("simulate_flight_ms", Value::from_f64(flight_t * 1e3)),
        ("noop_overhead_pct", Value::from_f64(overhead_pct)),
        ("live_overhead_pct", Value::from_f64(live_overhead_pct)),
        (
            "simulate_flight_overhead_pct",
            Value::from_f64(simulate_flight_overhead_pct),
        ),
        ("online_n", Value::from_u64(online_tree.n() as u64)),
        ("online_noop_ms", Value::from_f64(online_noop * 1e3)),
        ("online_live_ms", Value::from_f64(online_live * 1e3)),
        ("online_flight_ms", Value::from_f64(online_flight * 1e3)),
        ("online_alerts_ms", Value::from_f64(online_alerts * 1e3)),
        (
            "online_live_overhead_pct",
            Value::from_f64(online_live_overhead_pct),
        ),
        ("flight_overhead_pct", Value::from_f64(flight_overhead_pct)),
        ("alerts_overhead_pct", Value::from_f64(alerts_overhead_pct)),
        ("plan_noop_ms", Value::from_f64(plan_noop * 1e3)),
        ("plan_profiled_ms", Value::from_f64(plan_profiled * 1e3)),
        (
            "profile_overhead_pct",
            Value::from_f64(profile_overhead_pct),
        ),
        ("alloc_counting_enabled", Value::Bool(alloc_counting)),
        ("guard_pct", Value::from_f64(5.0)),
        ("guard_ok", Value::Bool(overhead_pct < 5.0)),
        ("live_guard_ok", Value::Bool(live_overhead_pct < 5.0)),
        ("flight_guard_ok", Value::Bool(flight_overhead_pct < 5.0)),
        (
            "online_live_guard_ok",
            Value::Bool(online_live_overhead_pct < 5.0),
        ),
        ("profile_guard_ok", Value::Bool(profile_overhead_pct < 5.0)),
        ("alerts_guard_ok", Value::Bool(alerts_overhead_pct < 5.0)),
    ]);
    if let Some(path) = write_bench_json("telemetry_overhead", &payload) {
        println!(
            "noop overhead: {overhead_pct:.2}%, live registry: {live_overhead_pct:.2}%, \
             online live: {online_live_overhead_pct:.2}%, \
             online flight: {flight_overhead_pct:.2}%, \
             online alerts: {alerts_overhead_pct:.2}%, \
             plan profiler: {profile_overhead_pct:.2}% (guard < 5%; \
             dense-capture context: {simulate_flight_overhead_pct:.2}%; \
             alloc counting: {alloc_counting}), wrote {path}"
        );
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_overhead
}
criterion_main!(benches);
