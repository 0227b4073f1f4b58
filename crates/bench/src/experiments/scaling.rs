//! E15 (textual companion) — wall-clock scaling of the pipeline stages,
//! confirming the paper's §4 complexity claims with real timings.
//!
//! Every size carries an explicit wall-clock budget and a [`SizeMode`]
//! saying how much of the pipeline runs there:
//!
//! - [`SizeMode::Full`] (n ≤ 8192): the reference pipeline end to end,
//!   plus the fast planner for the before/after `plan (fast) ms` column;
//! - [`SizeMode::FastFull`] (16384, 32768): the fast planner end to end
//!   (fast tree sweep, CSR-direct generation, word-parallel validate,
//!   bitset kernel replay). The reference generator's Vec-of-Vec schedule
//!   is Θ(n²) allocations and would swamp any sane budget here;
//! - [`SizeMode::PlanOnly`] (65536, 100000): fast tree + label arena only.
//!   Gossiping delivers exactly n(n−1) messages, so past n = 65536 the
//!   flat schedule's delivery count overflows its u32 CSR offsets — and
//!   even at 65536 the destination arena alone is ~17 GB.
//!
//! Before a size runs, its cost is predicted from the *measured trend of
//! its own mode*: the log-log slope of the last two completed sizes in
//! that mode (clamped to [1, 3]), falling back to quadratic when only one
//! point exists. Earlier revisions reused the reference pipeline's
//! quadratic base for every row, which mispredicted the near-linear
//! plan-only tail and shed sizes that would have fit. Sizes predicted —
//! or observed — to blow their budget are *skipped and reported as rows
//! in the artifact*, never silently trusted to finish; an overrun sheds
//! only the tail of its own mode.

use crate::table::TextTable;
use gossip_graph::{min_depth_spanning_tree_fast_recorded, ChildOrder};
use gossip_model::{CommModel, FlatSchedule, SimKernel};
use gossip_workloads::random_connected;
use std::time::Instant;

fn ms(d: std::time::Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

/// How much of the pipeline a sweep size exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SizeMode {
    /// Reference pipeline end to end, fast planner alongside.
    Full,
    /// Fast planner end to end (plan + validate + kernel replay).
    FastFull,
    /// Fast tree + label arena only (the schedule cannot be materialized:
    /// u32 CSR offsets and memory).
    PlanOnly,
}

impl SizeMode {
    fn name(self) -> &'static str {
        match self {
            SizeMode::Full => "full",
            SizeMode::FastFull => "fast-full",
            SizeMode::PlanOnly => "plan-only",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// One entry of the scaling sweep: a size, what runs there, and the
/// wall-clock budget it must be predicted (and observed) to fit.
#[derive(Debug, Clone, Copy)]
pub struct SizeBudget {
    /// Number of processors.
    pub n: usize,
    /// Budget for the whole size (all stages), in milliseconds.
    pub budget_ms: f64,
    /// Which pipeline variant runs at this size.
    pub mode: SizeMode,
}

const fn full(n: usize, budget_ms: f64) -> SizeBudget {
    SizeBudget {
        n,
        budget_ms,
        mode: SizeMode::Full,
    }
}

/// The default sweep: doubling sizes to n = 8192 under the reference
/// pipeline, then the fast planner to 32768 and plan-only to 100000.
/// Budgets are sized for a release build on one modest core; debug builds
/// and slow runners shed the large tail as explicit `skipped` rows
/// instead of stalling.
pub const DEFAULT_SIZES: &[SizeBudget] = &[
    full(64, 5_000.0),
    full(128, 5_000.0),
    full(256, 10_000.0),
    full(512, 10_000.0),
    full(1024, 20_000.0),
    full(2048, 30_000.0),
    full(4096, 60_000.0),
    full(8192, 120_000.0),
    SizeBudget {
        n: 16384,
        budget_ms: 60_000.0,
        mode: SizeMode::FastFull,
    },
    SizeBudget {
        n: 32768,
        budget_ms: 180_000.0,
        mode: SizeMode::FastFull,
    },
    SizeBudget {
        n: 65536,
        budget_ms: 120_000.0,
        mode: SizeMode::PlanOnly,
    },
    SizeBudget {
        n: 100_000,
        budget_ms: 180_000.0,
        mode: SizeMode::PlanOnly,
    },
];

/// Per-mode cost history: the last two completed sizes, from which the
/// next size's cost is extrapolated with the measured log-log slope.
#[derive(Debug, Clone, Copy, Default)]
struct Trend {
    prev: Option<(f64, f64)>,
    last: Option<(f64, f64)>,
}

impl Trend {
    fn push(&mut self, n: f64, cost_ms: f64) {
        self.prev = self.last;
        self.last = Some((n, cost_ms));
    }

    /// Predicted cost at `n` and the exponent used. One data point falls
    /// back to the quadratic worst case (Θ(n²) deliveries dominate);
    /// two points use the measured slope, clamped to [1, 3] so a noisy
    /// small-size pair can neither flat-line nor explode the forecast.
    fn predict(&self, n: f64) -> Option<(f64, f64)> {
        let (n2, ms2) = self.last?;
        let alpha = match self.prev {
            Some((n1, ms1)) if n2 > n1 && ms1 > 0.0 && ms2 > 0.0 => {
                ((ms2 / ms1).ln() / (n2 / n1).ln()).clamp(1.0, 3.0)
            }
            _ => 2.0,
        };
        Some((ms2 * (n / n2).powf(alpha), alpha))
    }
}

/// Validates `flat` and replays it through a fresh kernel, timing the two
/// apart: `(validate, replay, outcome)`.
fn validate_and_replay(
    g: &gossip_graph::Graph,
    flat: &FlatSchedule,
    origins: &[usize],
) -> (
    std::time::Duration,
    std::time::Duration,
    gossip_model::SimOutcome,
) {
    let t0 = Instant::now();
    flat.validate(g, CommModel::Multicast, origins.len())
        .unwrap();
    let validate = t0.elapsed();
    let t1 = Instant::now();
    let mut kernel = SimKernel::with_origins(g, CommModel::Multicast, origins).unwrap();
    let outcome = kernel.run_prevalidated(flat).unwrap();
    (validate, t1.elapsed(), outcome)
}

/// Times the pipeline stages (tree construction sequential and parallel,
/// schedule generation, oracle simulation, kernel replay, and the fast
/// planner) across sizes.
pub fn exp_scaling() -> String {
    exp_scaling_full().0
}

/// [`exp_scaling`] plus the machine-readable payload written to
/// `BENCH_scaling.json`: per-size stage timings, per-phase profiler
/// attribution (`plan_tree_ms` / `plan_label_ms` / `plan_generate_ms` /
/// `plan_flatten_ms` plus the fast planner's `plan_tree_fast_ms` /
/// `plan_label_flat_ms` / `plan_generate_csr_ms` / `plan_peak_bytes`),
/// explicit rows for any budget-skipped sizes, and a full telemetry
/// snapshot (BFS-sweep histograms, per-stage spans) from a recorded run.
pub fn exp_scaling_full() -> (String, gossip_telemetry::Value) {
    exp_scaling_full_with(DEFAULT_SIZES)
}

/// [`exp_scaling_full`] over an explicit size/budget list (the default
/// sweep is [`DEFAULT_SIZES`]).
pub fn exp_scaling_full_with(sizes: &[SizeBudget]) -> (String, gossip_telemetry::Value) {
    use crate::report::obj;
    use gossip_telemetry::{MetricsRecorder, Value};
    let mut t = TextTable::new(vec![
        "n",
        "m",
        "mode",
        "tree (seq) ms",
        "schedule ms",
        "simulate ms",
        "flatten ms",
        "validate ms",
        "replay ms",
        "plan (fast) ms",
        "schedule events",
    ]);
    let mut rows = Vec::new();
    let mut skipped_lines = Vec::new();
    let recorder = MetricsRecorder::new();
    // Per-mode cost trends and overrun flags: a Full-pipeline overrun must
    // not shed the fast tail, whose cost regime it says nothing about.
    let mut trends = [Trend::default(); 3];
    let mut overrun: [Option<usize>; 3] = [None; 3];
    for &SizeBudget { n, budget_ms, mode } in sizes {
        let predicted = trends[mode.index()].predict(n as f64);
        let skip_reason = if let Some(bad_n) = overrun[mode.index()] {
            Some(format!(
                "size {bad_n} ({}) already exceeded its budget",
                mode.name()
            ))
        } else {
            predicted
                .filter(|&(p, _)| p > budget_ms)
                .map(|(pred, alpha)| {
                    format!(
                        "predicted {pred:.0} ms (measured n^{alpha:.2} trend) \
                         exceeds budget {budget_ms:.0} ms"
                    )
                })
        };
        if let Some(reason) = skip_reason {
            skipped_lines.push(format!("n = {n} ({}): skipped, {reason}", mode.name()));
            rows.push(obj(vec![
                ("n", Value::from_u64(n as u64)),
                ("mode", Value::String(mode.name().into())),
                ("skipped", Value::Bool(true)),
                ("budget_ms", Value::from_f64(budget_ms)),
                (
                    "predicted_cost_ms",
                    Value::from_f64(predicted.map_or(0.0, |(p, _)| p)),
                ),
                (
                    "predictor_alpha",
                    Value::from_f64(predicted.map_or(0.0, |(_, a)| a)),
                ),
                ("reason", Value::String(reason)),
            ]));
            continue;
        }
        let size_start = Instant::now();
        // Keep m ∝ n on the large tail so the tree sweep stays O(n²)
        // alongside the schedule; p = 0.04 below n = 512 matches the
        // historical artifact rows.
        let p = (16.0 / n as f64).min(0.04);
        let g = random_connected(n, p, 77);
        // The phase profiler runs across the whole size so the artifact
        // rows carry per-phase attribution next to the stopwatch timings.
        // Both planners open a `labeling` span, so the reference's is
        // looked up by its path; every other name belongs to one planner.
        let profiler = gossip_telemetry::profile::Profiler::begin();
        let mut cells: Vec<String> = vec![n.to_string(), g.m().to_string(), mode.name().into()];
        let mut fields: Vec<(&str, Value)> = vec![
            ("n", Value::from_u64(n as u64)),
            ("m", Value::from_u64(g.m() as u64)),
            ("mode", Value::String(mode.name().into())),
        ];
        match mode {
            SizeMode::Full => {
                let t0 = Instant::now();
                let tree =
                    gossip_graph::min_depth_spanning_tree_recorded(&g, ChildOrder::ById, &recorder)
                        .unwrap();
                let seq = t0.elapsed();
                let t2 = Instant::now();
                let schedule = gossip_core::concurrent_updown_recorded(&tree, &recorder);
                let gen = t2.elapsed();
                let origins = gossip_core::tree_origins(&tree);
                let t3 = Instant::now();
                let mut sim = gossip_model::Simulator::with_origins(
                    &g,
                    gossip_model::CommModel::Multicast,
                    &origins,
                )
                .unwrap();
                let o = sim.run(&schedule).unwrap();
                let simt = t3.elapsed();
                assert!(o.complete);
                let t4 = Instant::now();
                let flat = FlatSchedule::from_schedule(&schedule);
                let flatten = t4.elapsed();
                let (validate, replay, ko) = validate_and_replay(&g, &flat, &origins);
                assert!(ko.complete);
                assert_eq!(ko.completion_time, o.completion_time);
                // The fast planner on the same graph: the before/after
                // column. Equal tree heights always; byte-identical CSR
                // whenever the root tie-break agrees.
                let t5 = Instant::now();
                let tree_f =
                    min_depth_spanning_tree_fast_recorded(&g, ChildOrder::ById, &recorder).unwrap();
                let flat_f = gossip_core::concurrent_updown_flat_recorded(&tree_f, &recorder);
                let fast = t5.elapsed();
                flat_f
                    .validate(&g, CommModel::Multicast, origins.len())
                    .unwrap();
                assert_eq!(tree_f.height(), tree.height());
                assert_eq!(flat_f.rounds(), flat.rounds());
                if tree_f == tree {
                    assert_eq!(flat_f.digest(), flat.digest());
                }
                cells.extend([
                    ms(seq),
                    ms(gen),
                    ms(simt),
                    ms(flatten),
                    ms(validate),
                    ms(replay),
                    ms(fast),
                    schedule.stats().deliveries.to_string(),
                ]);
                fields.extend([
                    ("tree_seq_ms", Value::from_f64(seq.as_secs_f64() * 1e3)),
                    ("schedule_ms", Value::from_f64(gen.as_secs_f64() * 1e3)),
                    ("simulate_ms", Value::from_f64(simt.as_secs_f64() * 1e3)),
                    ("flatten_ms", Value::from_f64(flatten.as_secs_f64() * 1e3)),
                    ("validate_ms", Value::from_f64(validate.as_secs_f64() * 1e3)),
                    ("replay_ms", Value::from_f64(replay.as_secs_f64() * 1e3)),
                    ("plan_fast_ms", Value::from_f64(fast.as_secs_f64() * 1e3)),
                    (
                        "deliveries",
                        Value::from_u64(schedule.stats().deliveries as u64),
                    ),
                ]);
            }
            SizeMode::FastFull => {
                let t0 = Instant::now();
                let tree =
                    min_depth_spanning_tree_fast_recorded(&g, ChildOrder::ById, &recorder).unwrap();
                let flat = gossip_core::concurrent_updown_flat_recorded(&tree, &recorder);
                let origins = gossip_core::tree_origins(&tree);
                let fast = t0.elapsed();
                let (validate, replay, ko) = validate_and_replay(&g, &flat, &origins);
                assert!(ko.complete);
                cells.extend([
                    "—".into(),
                    "—".into(),
                    "—".into(),
                    "—".into(),
                    ms(validate),
                    ms(replay),
                    ms(fast),
                    flat.deliveries().to_string(),
                ]);
                fields.extend([
                    ("validate_ms", Value::from_f64(validate.as_secs_f64() * 1e3)),
                    ("replay_ms", Value::from_f64(replay.as_secs_f64() * 1e3)),
                    ("plan_fast_ms", Value::from_f64(fast.as_secs_f64() * 1e3)),
                    ("deliveries", Value::from_u64(flat.deliveries() as u64)),
                ]);
            }
            SizeMode::PlanOnly => {
                let t0 = Instant::now();
                let tree =
                    min_depth_spanning_tree_fast_recorded(&g, ChildOrder::ById, &recorder).unwrap();
                let labels = gossip_core::FlatLabels::new(&tree);
                let fast = t0.elapsed();
                assert_eq!(labels.n(), n);
                let why = if (n as u64) * (n as u64 - 1) >= u32::MAX as u64 {
                    "n(n-1) deliveries overflow u32 CSR offsets"
                } else {
                    "destination arena alone exceeds sweep memory budget"
                };
                cells.extend([
                    "—".into(),
                    "—".into(),
                    "—".into(),
                    "—".into(),
                    "—".into(),
                    "—".into(),
                    ms(fast),
                    format!("— ({why})"),
                ]);
                fields.extend([
                    ("plan_fast_ms", Value::from_f64(fast.as_secs_f64() * 1e3)),
                    ("schedule_skipped_reason", Value::String(why.into())),
                ]);
            }
        }
        let profile = profiler.finish();
        let elapsed_ms = size_start.elapsed().as_secs_f64() * 1e3;
        let within_budget = elapsed_ms <= budget_ms;
        if !within_budget {
            overrun[mode.index()] = Some(n);
            skipped_lines.push(format!(
                "n = {n} ({}): ran in {elapsed_ms:.0} ms, OVER its {budget_ms:.0} ms budget",
                mode.name()
            ));
        }
        trends[mode.index()].push(n as f64, elapsed_ms);
        t.row(cells);
        // Profiler attribution of the same size: the planner phases
        // (bench-diff gates these like any other wall field) plus the
        // peak live bytes (0 unless the prof-alloc allocator is
        // registered in the binary).
        for (field, phase) in [
            ("plan_tree_ms", "spanning_tree"),
            ("plan_label_ms", "concurrent_updown/labeling"),
            ("plan_generate_ms", "concurrent_updown"),
            ("plan_flatten_ms", "flatten"),
            ("plan_tree_fast_ms", "spanning_tree_fast"),
            ("plan_label_flat_ms", "label_flat"),
            ("plan_generate_csr_ms", "concurrent_updown_flat"),
        ] {
            if profile.total_ms(phase) > 0.0 || mode == SizeMode::Full {
                fields.push((field, Value::from_f64(profile.total_ms(phase))));
            }
        }
        fields.extend([
            ("plan_peak_bytes", Value::from_u64(profile.peak_bytes())),
            ("budget_ms", Value::from_f64(budget_ms)),
            ("within_budget", Value::Bool(within_budget)),
        ]);
        rows.push(obj(fields));
    }
    let payload = obj(vec![
        ("experiment", Value::String("scaling".into())),
        ("rows", Value::Array(rows)),
        ("telemetry", recorder.snapshot()),
    ]);
    let skipped_report = if skipped_lines.is_empty() {
        "all sizes ran within budget.\n".to_string()
    } else {
        format!("budget decisions:\n  {}\n", skipped_lines.join("\n  "))
    };
    let report = format!(
        "Wall-clock scaling of the pipeline stages (one run each; see `cargo bench`\n\
         for statistically sound numbers):\n{}\n{}\
         tree construction is the O(mn) term (the rayon sweep tracks core count);\n\
         schedule generation and simulation scale with the Θ(n²) schedule size,\n\
         i.e. O(1) work per delivered message — the paper's \"all other steps take\n\
         O(n) time\" per processor. `flatten`, `validate` and `replay ms` are\n\
         the flat-CSR build, the structural check and the prevalidated bitset\n\
         replay of the same schedule. `plan (fast) ms` is the fast planner\n\
         (pruned multi-source tree sweep + CSR-direct generation); `fast-full`\n\
         rows run only it, with no flatten, and\n\
         `plan-only` rows stop after tree + labels — the schedule itself is\n\
         unrepresentable there (u32 CSR offsets / memory).\n",
        t.render(),
        skipped_report
    );
    (report, payload)
}

#[cfg(test)]
mod tests {
    use super::{exp_scaling_full_with, SizeBudget, SizeMode, Trend};

    fn full(n: usize, budget_ms: f64) -> SizeBudget {
        SizeBudget {
            n,
            budget_ms,
            mode: SizeMode::Full,
        }
    }

    #[test]
    fn scaling_report_builds() {
        // The real pipeline, but on sizes a debug build finishes fast —
        // the default sweep's large tail belongs to release binaries.
        let (report, payload) = exp_scaling_full_with(&[full(48, 120_000.0), full(64, 120_000.0)]);
        assert!(report.contains("schedule events"));
        let rows = payload.get("rows").and_then(|r| r.as_array()).unwrap();
        assert_eq!(rows.len(), 2);
        for field in ["flatten_ms", "validate_ms", "replay_ms"] {
            assert!(rows[1].get(field).is_some(), "{field}");
        }
        // The phase-attribution columns ride along and carry real time:
        // the profiled "spanning_tree" node is the sequential sweep measured by
        // tree_seq_ms, so it can never exceed that stopwatch by much.
        for row in rows {
            let tree = row.get("plan_tree_ms").and_then(|v| v.as_f64()).unwrap();
            let seq = row.get("tree_seq_ms").and_then(|v| v.as_f64()).unwrap();
            assert!(
                tree > 0.0 && tree <= seq * 1.5 + 1.0,
                "tree {tree} vs {seq}"
            );
            assert!(
                row.get("plan_generate_ms")
                    .and_then(|v| v.as_f64())
                    .unwrap()
                    > 0.0
            );
            assert!(row.get("plan_label_ms").is_some());
            assert!(row.get("plan_flatten_ms").is_some());
            assert!(row.get("plan_peak_bytes").is_some());
            // Full rows also time the fast planner and attribute its
            // phases for the before/after comparison.
            assert!(row.get("plan_fast_ms").and_then(|v| v.as_f64()).unwrap() > 0.0);
            assert!(row.get("plan_generate_csr_ms").is_some());
            assert!(row.get("plan_tree_fast_ms").is_some());
        }
    }

    #[test]
    fn fast_full_and_plan_only_rows_run_the_fast_planner() {
        let (report, payload) = exp_scaling_full_with(&[
            SizeBudget {
                n: 48,
                budget_ms: 120_000.0,
                mode: SizeMode::FastFull,
            },
            SizeBudget {
                n: 64,
                budget_ms: 120_000.0,
                mode: SizeMode::PlanOnly,
            },
        ]);
        assert!(report.contains("fast-full"));
        assert!(report.contains("plan-only"));
        let rows = payload.get("rows").and_then(|r| r.as_array()).unwrap();
        assert_eq!(rows.len(), 2);
        // FastFull: fast plan + kernel replay, no reference columns.
        assert!(
            rows[0]
                .get("plan_fast_ms")
                .and_then(|v| v.as_f64())
                .unwrap()
                > 0.0
        );
        assert!(rows[0].get("validate_ms").is_some());
        assert!(rows[0].get("replay_ms").is_some());
        assert!(rows[0].get("flatten_ms").is_none());
        assert!(rows[0].get("schedule_ms").is_none());
        assert!(rows[0].get("deliveries").and_then(|v| v.as_u64()).unwrap() > 0);
        // PlanOnly: tree + labels only, with the explicit reason.
        assert!(
            rows[1]
                .get("plan_fast_ms")
                .and_then(|v| v.as_f64())
                .unwrap()
                > 0.0
        );
        assert!(rows[1].get("validate_ms").is_none());
        assert!(rows[1].get("replay_ms").is_none());
        assert!(rows[1]
            .get("schedule_skipped_reason")
            .and_then(|v| v.as_str())
            .is_some());
    }

    #[test]
    fn over_budget_sizes_are_skipped_and_reported() {
        // A zero-ms budget on the tail forces the prediction to trip; the
        // size must appear in the artifact as a skipped row, not hang.
        let (report, payload) =
            exp_scaling_full_with(&[full(48, 120_000.0), full(4096, 0.001), full(8192, 0.001)]);
        assert!(report.contains("skipped"));
        let rows = payload.get("rows").and_then(|r| r.as_array()).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[1].get("skipped").and_then(|v| v.as_bool()), Some(true));
        assert_eq!(rows[2].get("skipped").and_then(|v| v.as_bool()), Some(true));
        assert!(rows[1].get("predicted_cost_ms").is_some());
        assert!(rows[1].get("predictor_alpha").is_some());
    }

    #[test]
    fn first_size_always_runs_and_overruns_shed_the_tail() {
        // The first size has no prediction base, so it runs even under an
        // impossible budget — and its observed overrun sheds what follows.
        let (report, payload) = exp_scaling_full_with(&[full(48, 0.001), full(64, 120_000.0)]);
        assert!(report.contains("OVER its"));
        let rows = payload.get("rows").and_then(|r| r.as_array()).unwrap();
        assert_eq!(
            rows[0].get("within_budget").and_then(|v| v.as_bool()),
            Some(false)
        );
        assert_eq!(rows[1].get("skipped").and_then(|v| v.as_bool()), Some(true));
    }

    #[test]
    fn overrun_sheds_only_its_own_mode() {
        // A Full overrun says nothing about the fast planner's cost
        // regime: the fast tail still runs (it is that mode's first size,
        // so it has no prediction base either).
        let (_, payload) = exp_scaling_full_with(&[
            full(48, 0.001),
            SizeBudget {
                n: 64,
                budget_ms: 120_000.0,
                mode: SizeMode::PlanOnly,
            },
        ]);
        let rows = payload.get("rows").and_then(|r| r.as_array()).unwrap();
        assert_eq!(
            rows[0].get("within_budget").and_then(|v| v.as_bool()),
            Some(false)
        );
        assert!(rows[1].get("skipped").is_none());
        assert!(rows[1].get("plan_fast_ms").is_some());
    }

    #[test]
    fn trend_predictor_uses_measured_slope() {
        let mut t = Trend::default();
        assert!(t.predict(100.0).is_none());
        // One point: quadratic fallback.
        t.push(100.0, 10.0);
        let (p, a) = t.predict(200.0).unwrap();
        assert_eq!(a, 2.0);
        assert!((p - 40.0).abs() < 1e-9, "{p}");
        // Two points on a near-linear trend: the measured slope takes
        // over and the forecast stops overshooting quadratically.
        t.push(200.0, 20.0);
        let (p, a) = t.predict(400.0).unwrap();
        assert!((a - 1.0).abs() < 1e-9, "{a}");
        assert!((p - 40.0).abs() < 1e-6, "{p}");
        // A super-cubic pair clamps at 3.
        let mut t = Trend::default();
        t.push(100.0, 1.0);
        t.push(200.0, 100.0);
        let (_, a) = t.predict(400.0).unwrap();
        assert_eq!(a, 3.0);
    }
}
