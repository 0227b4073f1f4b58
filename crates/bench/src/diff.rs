//! Regression diffing of `BENCH_*.json` artifacts: the perf gate behind
//! `gossip bench-diff OLD.json NEW.json`.
//!
//! Rows are matched across the two artifacts by `(family, n)` (falling
//! back to row position when those fields are absent) and compared field
//! by field under two regimes:
//!
//! - **deterministic schedule quality** (`makespan`, `lower_bound`,
//!   anything else integral): flagged when the new value exceeds the old
//!   by more than a percentage threshold (default 15%). These quantities
//!   are exact — ConcurrentUpDown's makespan is `n + r` by Theorem 1 — so
//!   any real growth is an algorithmic regression, not noise;
//! - **wall-clock timings** (fields ending in `_ms` or `_ns`): flagged
//!   when the new value exceeds the old by more than a multiplicative
//!   factor (default 2×) *plus* a fixed grace (1 ms / 1 µs), absorbing
//!   scheduler jitter on sub-millisecond measurements while still
//!   catching order-of-magnitude slowdowns;
//! - **speedup ratios** (fields ending in `_speedup_x`): higher is
//!   better — flagged when the new value *drops* below the old divided
//!   by the wall-clock factor. These are ratios of two wall-clock
//!   measurements taken in the same process, so the jitter largely
//!   cancels; the factor-based tolerance still absorbs the residue while
//!   catching a fast path that quietly stopped being fast.
//!
//! **PROF artifacts** (`kind: "profile"`, from `gossip profile --out` /
//! `gossip plan --profile-out`) are accepted on either side: the phase
//! tree is flattened into synthetic rows keyed by the phase path
//! (`phase=plan/spanning_tree/bfs_sweep`), so per-phase `total_ms` / `self_ms`
//! gate under the wall-clock regime and work counters under the
//! deterministic threshold — the same thresholds as ordinary rows.
//!
//! A field present in only one of two matched rows is **never** a
//! failure: it is reported as a skip note and excluded from comparison,
//! so a baseline predating new columns (e.g. the per-phase `plan_*_ms`
//! scaling fields) keeps gating the fields it does have.
//!
//! Both artifacts must pass [`gossip_telemetry::check_schema_version`].

use gossip_telemetry::{check_schema_version, Value, SCHEMA_VERSION};

/// Thresholds for [`diff_bench`].
#[derive(Debug, Clone, Copy)]
pub struct DiffConfig {
    /// Max tolerated growth of deterministic quality fields, in percent.
    pub threshold_pct: f64,
    /// Max tolerated wall-clock slowdown, as a multiplicative factor.
    pub wall_factor: f64,
}

impl Default for DiffConfig {
    fn default() -> Self {
        DiffConfig {
            threshold_pct: 15.0,
            wall_factor: 2.0,
        }
    }
}

/// Absolute grace added to wall-clock comparisons in `_ms` fields: values
/// this small are dominated by scheduler noise, not by the code under test.
const WALL_GRACE_MS: f64 = 1.0;

/// One flagged regression.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Row key, e.g. `ring/n=64`.
    pub key: String,
    /// Field that regressed.
    pub field: String,
    /// Baseline value.
    pub old: f64,
    /// Candidate value.
    pub new: f64,
}

/// One compared field's full verdict — every field that was judged, not
/// just the failures. This is what `bench-diff --json` serializes, so
/// tooling can see the threshold each value was held to.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldCheck {
    /// Row key, e.g. `ring/n=64` or `phase=plan/spanning_tree`.
    pub key: String,
    /// Field compared.
    pub field: String,
    /// Comparison regime: `deterministic`, `wall`, or `speedup`.
    pub regime: &'static str,
    /// Baseline value.
    pub old: f64,
    /// Candidate value.
    pub new: f64,
    /// The limit the candidate was judged against: an upper bound for
    /// `deterministic` / `wall` fields, a lower bound for `speedup`.
    pub threshold: f64,
    /// Signed percentage change vs the baseline (0 when the baseline is 0).
    pub delta_pct: f64,
    /// Whether the field passed.
    pub ok: bool,
}

/// The outcome of a bench diff.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// Regressions found (empty = gate passes).
    pub regressions: Vec<Regression>,
    /// Per-field verdicts for every compared field, in row order.
    pub checks: Vec<FieldCheck>,
    /// Rows present in both artifacts and compared.
    pub rows_compared: usize,
    /// Numeric fields compared across all matched rows.
    pub fields_compared: usize,
    /// Row keys present in only one artifact (compared with nothing).
    pub unmatched: Vec<String>,
    /// Fields present in only one of two matched rows: warned about and
    /// excluded from comparison (a baseline predating a new column must
    /// not fail the gate).
    pub skipped: Vec<String>,
}

impl DiffReport {
    /// Whether the gate passes.
    pub fn ok(&self) -> bool {
        self.regressions.is_empty()
    }

    /// A human-readable summary, one line per regression.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for r in &self.regressions {
            let growth = if r.old > 0.0 {
                format!(" ({:+.1}%)", (r.new / r.old - 1.0) * 100.0)
            } else {
                String::new()
            };
            out.push_str(&format!(
                "REGRESSION {} {}: {} -> {}{}\n",
                r.key, r.field, r.old, r.new, growth
            ));
        }
        for k in &self.unmatched {
            out.push_str(&format!("note: row {k} present in only one artifact\n"));
        }
        for s in &self.skipped {
            out.push_str(&format!("warning: {s} — field skipped\n"));
        }
        out.push_str(&format!(
            "{} row(s), {} field(s) compared: {}\n",
            self.rows_compared,
            self.fields_compared,
            if self.ok() {
                "no regressions".to_string()
            } else {
                format!("{} regression(s)", self.regressions.len())
            }
        ));
        out
    }

    /// A machine-readable artifact (`bench-diff --json`): every compared
    /// field's verdict with the threshold it was judged against, plus the
    /// overall gate outcome. Exit semantics are unchanged — this mirrors
    /// [`DiffReport::ok`], it does not replace it.
    pub fn to_json(&self) -> Value {
        use crate::report::obj;
        let checks = self
            .checks
            .iter()
            .map(|c| {
                obj(vec![
                    ("key", Value::String(c.key.clone())),
                    ("field", Value::String(c.field.clone())),
                    ("regime", Value::String(c.regime.into())),
                    ("old", Value::from_f64(c.old)),
                    ("new", Value::from_f64(c.new)),
                    ("threshold", Value::from_f64(c.threshold)),
                    ("delta_pct", Value::from_f64(c.delta_pct)),
                    ("ok", Value::Bool(c.ok)),
                ])
            })
            .collect();
        let regressions = self
            .regressions
            .iter()
            .map(|r| {
                obj(vec![
                    ("key", Value::String(r.key.clone())),
                    ("field", Value::String(r.field.clone())),
                    ("old", Value::from_f64(r.old)),
                    ("new", Value::from_f64(r.new)),
                ])
            })
            .collect();
        let strings =
            |v: &[String]| Value::Array(v.iter().map(|s| Value::String(s.clone())).collect());
        obj(vec![
            ("schema_version", Value::from_u64(SCHEMA_VERSION)),
            ("kind", Value::String("bench-diff".into())),
            ("ok", Value::Bool(self.ok())),
            ("rows_compared", Value::from_u64(self.rows_compared as u64)),
            (
                "fields_compared",
                Value::from_u64(self.fields_compared as u64),
            ),
            ("checks", Value::Array(checks)),
            ("regressions", Value::Array(regressions)),
            ("unmatched", strings(&self.unmatched)),
            ("skipped", strings(&self.skipped)),
        ])
    }
}

/// The identifying key of a row: `phase=<path>` for flattened PROF rows,
/// `family/n=<n>` when present, else the row's position.
fn row_key(row: &Value, index: usize) -> String {
    if let Some(p) = row.get("phase").and_then(Value::as_str) {
        return format!("phase={p}");
    }
    let family = row.get("family").and_then(Value::as_str);
    let n = row.get("n").and_then(Value::as_u64);
    match (family, n) {
        (Some(f), Some(n)) => format!("{f}/n={n}"),
        (Some(f), None) => format!("{f}/row={index}"),
        _ => format!("row={index}"),
    }
}

/// Whether a field carries wall-clock time (jitter-tolerant comparison).
fn is_wall_field(name: &str) -> bool {
    name.ends_with("_ms") || name.ends_with("_ns")
}

/// Whether a field is a higher-is-better speedup ratio: a *drop* is the
/// regression direction.
fn is_speedup_field(name: &str) -> bool {
    name.ends_with("_speedup_x")
}

/// Fields that are identity, not measurement: never compared.
fn is_key_field(name: &str) -> bool {
    matches!(
        name,
        "family" | "n" | "m" | "r" | "schema_version" | "phase"
    )
}

/// Whether an artifact is a PROF planner profile (`kind: "profile"`).
fn is_profile(doc: &Value) -> bool {
    doc.get("kind").and_then(Value::as_str) == Some("profile")
}

/// Flattens a PROF artifact into synthetic diff rows: a `(run)` row with
/// the artifact's makespan / wall-clock scalars, then one row per phase
/// path carrying `calls`, `total_ms`, `self_ms`, the phase's work
/// counters, and (when recorded) `peak_bytes`. `attributed_pct` is
/// deliberately left out: growth there is an improvement, which the
/// deterministic regime would misread as a regression.
fn profile_rows(doc: &Value) -> Vec<Value> {
    fn walk(rows: &mut Vec<Value>, node: &Value, prefix: &str) {
        let name = node.get("name").and_then(Value::as_str).unwrap_or("?");
        let path = if prefix.is_empty() {
            name.to_string()
        } else {
            format!("{prefix}/{name}")
        };
        let mut fields = vec![("phase".to_string(), Value::String(path.clone()))];
        for k in ["calls", "total_ms", "self_ms"] {
            if let Some(v) = node.get(k) {
                fields.push((k.to_string(), v.clone()));
            }
        }
        if let Some(counters) = node.get("counters").and_then(Value::as_object) {
            for (k, v) in counters {
                fields.push((k.clone(), v.clone()));
            }
        }
        if let Some(p) = node.get("alloc").and_then(|a| a.get("peak_bytes")) {
            fields.push(("peak_bytes".to_string(), p.clone()));
        }
        rows.push(Value::Object(fields));
        if let Some(children) = node.get("children").and_then(Value::as_array) {
            for c in children {
                walk(rows, c, &path);
            }
        }
    }
    let mut run = vec![("phase".to_string(), Value::String("(run)".to_string()))];
    for k in ["makespan", "plan_ms", "attributed_ms"] {
        if let Some(v) = doc.get(k) {
            run.push((k.to_string(), v.clone()));
        }
    }
    let mut rows = vec![Value::Object(run)];
    if let Some(phases) = doc.get("phases").and_then(Value::as_array) {
        for p in phases {
            walk(&mut rows, p, "");
        }
    }
    rows
}

/// Compares two bench artifacts and reports regressions per [`DiffConfig`].
///
/// Errors on schema-version mismatch or artifacts without a `rows` array —
/// those are usage errors, distinct from a clean "regressions found".
pub fn diff_bench(old: &Value, new: &Value, cfg: &DiffConfig) -> Result<DiffReport, String> {
    check_schema_version(old).map_err(|e| format!("old artifact: {e}"))?;
    check_schema_version(new).map_err(|e| format!("new artifact: {e}"))?;
    let old_flat;
    let old_rows = if is_profile(old) {
        old_flat = profile_rows(old);
        &old_flat
    } else {
        old.get("rows")
            .and_then(Value::as_array)
            .ok_or("old artifact has no \"rows\" array")?
    };
    let new_flat;
    let new_rows = if is_profile(new) {
        new_flat = profile_rows(new);
        &new_flat
    } else {
        new.get("rows")
            .and_then(Value::as_array)
            .ok_or("new artifact has no \"rows\" array")?
    };

    let mut report = DiffReport::default();
    let old_keyed: Vec<(String, &Value)> = old_rows
        .iter()
        .enumerate()
        .map(|(i, r)| (row_key(r, i), r))
        .collect();
    let new_keyed: Vec<(String, &Value)> = new_rows
        .iter()
        .enumerate()
        .map(|(i, r)| (row_key(r, i), r))
        .collect();

    for (key, old_row) in &old_keyed {
        let Some((_, new_row)) = new_keyed.iter().find(|(k, _)| k == key) else {
            report.unmatched.push(key.clone());
            continue;
        };
        report.rows_compared += 1;
        let Some(members) = old_row.as_object() else {
            continue;
        };
        for (field, old_val) in members {
            if is_key_field(field) {
                continue;
            }
            let Some(old_f) = old_val.as_f64() else {
                continue;
            };
            let Some(new_f) = new_row.get(field).and_then(Value::as_f64) else {
                report
                    .skipped
                    .push(format!("{key}: {field} missing from new artifact"));
                continue;
            };
            report.fields_compared += 1;
            let (regime, threshold, regressed) = if is_speedup_field(field) {
                let limit = old_f / cfg.wall_factor;
                ("speedup", limit, new_f < limit)
            } else if is_wall_field(field) {
                let grace = if field.ends_with("_ns") {
                    WALL_GRACE_MS * 1e6
                } else {
                    WALL_GRACE_MS
                };
                let limit = old_f * cfg.wall_factor + grace;
                ("wall", limit, new_f > limit)
            } else {
                let limit = old_f * (1.0 + cfg.threshold_pct / 100.0);
                ("deterministic", limit, new_f > limit)
            };
            let delta_pct = if old_f == 0.0 {
                0.0
            } else {
                (new_f - old_f) / old_f * 100.0
            };
            report.checks.push(FieldCheck {
                key: key.clone(),
                field: field.clone(),
                regime,
                old: old_f,
                new: new_f,
                threshold,
                delta_pct,
                ok: !regressed,
            });
            if regressed {
                report.regressions.push(Regression {
                    key: key.clone(),
                    field: field.clone(),
                    old: old_f,
                    new: new_f,
                });
            }
        }
        // Numeric fields only the new row has (a baseline predating the
        // column): warn and skip rather than fail, so refreshed artifacts
        // keep gating against old baselines.
        if let Some(new_members) = new_row.as_object() {
            for (field, new_val) in new_members {
                if is_key_field(field) || new_val.as_f64().is_none() {
                    continue;
                }
                if members.iter().all(|(f, _)| f != field) {
                    report
                        .skipped
                        .push(format!("{key}: {field} absent from baseline"));
                }
            }
        }
    }
    for (key, _) in &new_keyed {
        if !old_keyed.iter().any(|(k, _)| k == key) {
            report.unmatched.push(key.clone());
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::obj;
    use gossip_telemetry::SCHEMA_VERSION;

    fn artifact(rows: Vec<Value>) -> Value {
        obj(vec![
            ("schema_version", Value::from_u64(SCHEMA_VERSION)),
            ("experiment", Value::String("t".into())),
            ("rows", Value::Array(rows)),
        ])
    }

    fn row(family: &str, n: u64, makespan: u64, plan_ms: f64) -> Value {
        obj(vec![
            ("family", Value::String(family.into())),
            ("n", Value::from_u64(n)),
            ("makespan", Value::from_u64(makespan)),
            ("plan_ms", Value::from_f64(plan_ms)),
        ])
    }

    #[test]
    fn identical_artifacts_pass() {
        let a = artifact(vec![row("ring", 16, 24, 0.5), row("torus", 64, 72, 3.0)]);
        let rep = diff_bench(&a, &a, &DiffConfig::default()).unwrap();
        assert!(rep.ok());
        assert_eq!(rep.rows_compared, 2);
        assert!(rep.fields_compared >= 4);
        assert!(rep.render().contains("no regressions"));
    }

    #[test]
    fn makespan_growth_beyond_threshold_flags() {
        let old = artifact(vec![row("ring", 16, 24, 0.5)]);
        let new = artifact(vec![row("ring", 16, 28, 0.5)]); // +16.7%
        let rep = diff_bench(&old, &new, &DiffConfig::default()).unwrap();
        assert!(!rep.ok());
        assert_eq!(rep.regressions.len(), 1);
        assert_eq!(rep.regressions[0].field, "makespan");
        assert!(rep.render().contains("REGRESSION ring/n=16 makespan"));
    }

    #[test]
    fn makespan_growth_within_threshold_passes() {
        let old = artifact(vec![row("ring", 16, 24, 0.5)]);
        let new = artifact(vec![row("ring", 16, 26, 0.5)]); // +8.3%
        assert!(diff_bench(&old, &new, &DiffConfig::default()).unwrap().ok());
    }

    #[test]
    fn wall_clock_uses_factor_plus_grace() {
        let old = artifact(vec![row("ring", 16, 24, 0.5)]);
        // 0.5ms -> 1.9ms is under 2x + 1ms grace: noise, not a regression.
        let fast = artifact(vec![row("ring", 16, 24, 1.9)]);
        assert!(diff_bench(&old, &fast, &DiffConfig::default())
            .unwrap()
            .ok());
        // 0.5ms -> 40ms is a real slowdown.
        let slow = artifact(vec![row("ring", 16, 24, 40.0)]);
        let rep = diff_bench(&old, &slow, &DiffConfig::default()).unwrap();
        assert_eq!(rep.regressions.len(), 1);
        assert_eq!(rep.regressions[0].field, "plan_ms");
    }

    fn speedup_row(x: f64) -> Value {
        obj(vec![
            ("family", Value::String("gnp-kernel".into())),
            ("n", Value::from_u64(2048)),
            ("sim_kernel_speedup_x", Value::from_f64(x)),
        ])
    }

    #[test]
    fn speedup_drop_beyond_factor_flags() {
        let old = artifact(vec![speedup_row(6.0)]);
        let new = artifact(vec![speedup_row(2.0)]); // 3x drop > 2x factor
        let rep = diff_bench(&old, &new, &DiffConfig::default()).unwrap();
        assert_eq!(rep.regressions.len(), 1);
        assert_eq!(rep.regressions[0].field, "sim_kernel_speedup_x");
        assert!(rep.render().contains("sim_kernel_speedup_x"));
    }

    #[test]
    fn speedup_drop_within_factor_passes() {
        let old = artifact(vec![speedup_row(6.0)]);
        let new = artifact(vec![speedup_row(4.0)]); // 1.5x drop, tolerated
        assert!(diff_bench(&old, &new, &DiffConfig::default()).unwrap().ok());
    }

    #[test]
    fn speedup_gain_never_flags() {
        let old = artifact(vec![speedup_row(6.0)]);
        let new = artifact(vec![speedup_row(60.0)]);
        assert!(diff_bench(&old, &new, &DiffConfig::default()).unwrap().ok());
    }

    #[test]
    fn improvements_never_flag() {
        let old = artifact(vec![row("ring", 16, 24, 10.0)]);
        let new = artifact(vec![row("ring", 16, 20, 0.1)]);
        assert!(diff_bench(&old, &new, &DiffConfig::default()).unwrap().ok());
    }

    #[test]
    fn unmatched_rows_are_noted_not_compared() {
        let old = artifact(vec![row("ring", 16, 24, 0.5), row("wheel", 8, 12, 0.1)]);
        let new = artifact(vec![row("ring", 16, 24, 0.5), row("torus", 64, 72, 3.0)]);
        let rep = diff_bench(&old, &new, &DiffConfig::default()).unwrap();
        assert!(rep.ok());
        assert_eq!(rep.rows_compared, 1);
        assert_eq!(rep.unmatched.len(), 2);
    }

    #[test]
    fn unknown_schema_version_rejected() {
        let mut bad = artifact(vec![row("ring", 16, 24, 0.5)]);
        if let Value::Object(m) = &mut bad {
            m[0].1 = Value::from_u64(99);
        }
        let good = artifact(vec![row("ring", 16, 24, 0.5)]);
        let err = diff_bench(&bad, &good, &DiffConfig::default()).unwrap_err();
        assert!(err.contains("old artifact"), "{err}");
        assert!(err.contains("99"), "{err}");
        assert!(diff_bench(&good, &bad, &DiffConfig::default())
            .unwrap_err()
            .contains("new artifact"));
    }

    #[test]
    fn missing_rows_is_an_error() {
        let no_rows = obj(vec![("schema_version", Value::from_u64(SCHEMA_VERSION))]);
        let good = artifact(vec![]);
        assert!(diff_bench(&no_rows, &good, &DiffConfig::default()).is_err());
    }

    /// A minimal PROF artifact: plan -> {tree, generate} with one counter.
    fn prof(plan_ms: f64, tree_ms: f64, transmissions: u64) -> Value {
        let tree = obj(vec![
            ("name", Value::String("tree".into())),
            ("calls", Value::from_u64(1)),
            ("total_ms", Value::from_f64(tree_ms)),
            ("self_ms", Value::from_f64(tree_ms)),
        ]);
        let generate = obj(vec![
            ("name", Value::String("generate".into())),
            ("calls", Value::from_u64(1)),
            ("total_ms", Value::from_f64(plan_ms - tree_ms)),
            ("self_ms", Value::from_f64(plan_ms - tree_ms)),
            (
                "counters",
                obj(vec![("transmissions", Value::from_u64(transmissions))]),
            ),
        ]);
        let plan = obj(vec![
            ("name", Value::String("plan".into())),
            ("calls", Value::from_u64(1)),
            ("total_ms", Value::from_f64(plan_ms)),
            ("self_ms", Value::from_f64(0.0)),
            ("children", Value::Array(vec![tree, generate])),
        ]);
        obj(vec![
            ("schema_version", Value::from_u64(SCHEMA_VERSION)),
            ("kind", Value::String("profile".into())),
            ("n", Value::from_u64(64)),
            ("makespan", Value::from_u64(70)),
            ("plan_ms", Value::from_f64(plan_ms)),
            ("attributed_ms", Value::from_f64(plan_ms)),
            ("attributed_pct", Value::from_f64(100.0)),
            ("phases", Value::Array(vec![plan])),
        ])
    }

    #[test]
    fn identical_profiles_pass_and_flatten_to_phase_rows() {
        let a = prof(10.0, 4.0, 124);
        let rep = diff_bench(&a, &a, &DiffConfig::default()).unwrap();
        assert!(rep.ok(), "{}", rep.render());
        // (run) + plan + tree + generate.
        assert_eq!(rep.rows_compared, 4);
    }

    #[test]
    fn per_phase_slowdown_flags_with_phase_key() {
        let old = prof(10.0, 4.0, 124);
        let new = prof(40.0, 34.0, 124); // tree 4ms -> 34ms: > 2x + 1ms
        let rep = diff_bench(&old, &new, &DiffConfig::default()).unwrap();
        assert!(!rep.ok());
        assert!(
            rep.regressions
                .iter()
                .any(|r| r.key == "phase=plan/tree" && r.field == "total_ms"),
            "{}",
            rep.render()
        );
    }

    #[test]
    fn phase_counter_growth_flags_deterministically() {
        let old = prof(10.0, 4.0, 100);
        let new = prof(10.0, 4.0, 120); // +20% transmissions
        let rep = diff_bench(&old, &new, &DiffConfig::default()).unwrap();
        assert!(rep
            .regressions
            .iter()
            .any(|r| r.key == "phase=plan/generate" && r.field == "transmissions"));
    }

    #[test]
    fn baseline_missing_phase_fields_warns_and_skips() {
        // A baseline predating the per-phase scaling columns: the new
        // artifact's extra fields are noted, never failed on.
        let old = artifact(vec![row("ring", 16, 24, 0.5)]);
        let new = artifact(vec![obj(vec![
            ("family", Value::String("ring".into())),
            ("n", Value::from_u64(16)),
            ("makespan", Value::from_u64(24)),
            ("plan_ms", Value::from_f64(0.5)),
            ("plan_tree_ms", Value::from_f64(0.2)),
            ("plan_generate_ms", Value::from_f64(0.3)),
        ])]);
        let rep = diff_bench(&old, &new, &DiffConfig::default()).unwrap();
        assert!(rep.ok(), "{}", rep.render());
        assert_eq!(rep.skipped.len(), 2, "{:?}", rep.skipped);
        assert!(rep.render().contains("plan_tree_ms absent from baseline"));
        // The reverse direction — a field the baseline has but the new
        // artifact dropped — also warns and skips.
        let rep = diff_bench(&new, &old, &DiffConfig::default()).unwrap();
        assert!(rep.ok(), "{}", rep.render());
        assert!(rep
            .render()
            .contains("plan_tree_ms missing from new artifact"));
    }

    #[test]
    fn every_compared_field_gets_a_verdict_with_its_threshold() {
        let old = artifact(vec![row("ring", 16, 24, 0.5)]);
        let new = artifact(vec![row("ring", 16, 30, 0.5)]); // makespan +25%
        let rep = diff_bench(&old, &new, &DiffConfig::default()).unwrap();
        assert_eq!(rep.checks.len(), 2);
        let make = rep
            .checks
            .iter()
            .find(|c| c.field == "makespan")
            .expect("makespan check");
        assert_eq!(make.key, "ring/n=16");
        assert_eq!(make.regime, "deterministic");
        assert!(!make.ok);
        assert!((make.threshold - 24.0 * 1.15).abs() < 1e-9);
        assert!((make.delta_pct - 25.0).abs() < 1e-9);
        let wall = rep
            .checks
            .iter()
            .find(|c| c.field == "plan_ms")
            .expect("plan_ms check");
        assert_eq!(wall.regime, "wall");
        assert!(wall.ok);
        assert!((wall.threshold - (0.5 * 2.0 + WALL_GRACE_MS)).abs() < 1e-9);
    }

    #[test]
    fn speedup_checks_carry_a_lower_bound_threshold() {
        let old = artifact(vec![speedup_row(6.0)]);
        let new = artifact(vec![speedup_row(4.0)]);
        let rep = diff_bench(&old, &new, &DiffConfig::default()).unwrap();
        let c = &rep.checks[0];
        assert_eq!(c.regime, "speedup");
        assert!(c.ok);
        assert!((c.threshold - 3.0).abs() < 1e-9); // 6.0 / wall_factor
    }

    #[test]
    fn json_artifact_mirrors_the_gate_verdict() {
        let old = artifact(vec![row("ring", 16, 24, 0.5), row("wheel", 8, 12, 0.1)]);
        let new = artifact(vec![row("ring", 16, 60, 0.5)]);
        let rep = diff_bench(&old, &new, &DiffConfig::default()).unwrap();
        let json = rep.to_json();
        assert_eq!(json.get("kind").and_then(Value::as_str), Some("bench-diff"));
        assert_eq!(
            json.get("schema_version").and_then(Value::as_u64),
            Some(SCHEMA_VERSION)
        );
        assert_eq!(json.get("ok").and_then(Value::as_bool), Some(false));
        let checks = json.get("checks").and_then(Value::as_array).unwrap();
        assert_eq!(checks.len(), 2);
        let failing = checks
            .iter()
            .find(|c| c.get("ok").and_then(Value::as_bool) == Some(false))
            .expect("a failing check");
        assert_eq!(
            failing.get("field").and_then(Value::as_str),
            Some("makespan")
        );
        assert!(failing.get("threshold").and_then(Value::as_f64).is_some());
        assert_eq!(
            json.get("regressions")
                .and_then(Value::as_array)
                .unwrap()
                .len(),
            1
        );
        assert_eq!(
            json.get("unmatched")
                .and_then(Value::as_array)
                .unwrap()
                .len(),
            1
        );
        // The artifact parses back through the same JSON layer it ships on.
        let text = serde_json::to_string_pretty(&json).unwrap();
        let back: Value = serde_json::from_str(&text).unwrap();
        assert_eq!(back, json);
    }
}
