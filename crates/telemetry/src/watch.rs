//! Streaming watchdog: declarative alert rules judged against the run
//! *while* it executes.
//!
//! Everything so far records; nothing judges. [`AlertEngine`] is a
//! [`Recorder`] decorator (composable with `Paced`/[`crate::Tee`], like
//! every other recorder in the stack) that watches the event stream flow
//! through it and evaluates a [`RuleSet`] of invariants as each round
//! completes:
//!
//! - **stall** — no `round_end` arrived within a wall-clock budget;
//! - **flatline** — the knowledge curve gained no new `known_pairs` for
//!   `k` consecutive rounds;
//! - **bound** — the run is projected to (or did) cross Theorem 1's
//!   `n + r` round bound, extrapolating the knowledge curve so the alert
//!   fires *before* the bound is actually crossed;
//! - **loss_spike** — the per-round loss rate spiked;
//! - **epoch_budget** — the self-healing executor is burning through its
//!   repair-epoch budget;
//! - **churn_storm** — one round invalidated an outsized number of
//!   in-flight deliveries.
//!
//! Fired alerts become three things at once: a structured [`Alert`] in
//! the shared [`AlertSink`] (served on `/alerts` by `gossip-obsd`), an
//! `alert` event forwarded downstream (so a teed flight recorder captures
//! an ALERT record and the live `/events` stream carries it), and an
//! `alerts/<rule>/<severity>` counter (rendered by the Prometheus
//! exposition as `gossip_alerts_total{rule,severity}`). Each rule fires
//! at most once per run — a watchdog that pages once per condition, not
//! once per round.
//!
//! Rules are configurable via a schema-versioned JSON document (see
//! [`RuleSet::from_value`]); a rule file *replaces* the default set, so a
//! stall-only file keeps every other judgement out of deterministic runs.

use crate::{check_schema_version, Recorder, TxBatch, Value, SCHEMA_VERSION};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// How loud an alert is. `Critical` flips `/healthz` to `degraded`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational; surfaced but not a failure signal.
    Info,
    /// Something is off-nominal and worth a look.
    Warn,
    /// An invariant is (about to be) violated; degrades `/healthz`.
    Critical,
}

impl Severity {
    /// The stable lowercase label (also the on-disk/JSON spelling).
    pub fn label(&self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Critical => "critical",
        }
    }

    /// Parses the JSON spelling.
    pub fn parse(s: &str) -> Result<Severity, String> {
        match s {
            "info" => Ok(Severity::Info),
            "warn" => Ok(Severity::Warn),
            "critical" => Ok(Severity::Critical),
            other => Err(format!(
                "unknown severity {other:?} (expected info, warn, or critical)"
            )),
        }
    }
}

/// One fired alert: which rule, when, how loud, and the observed value
/// against its threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct Alert {
    /// Rule name (`stall`, `flatline`, `bound`, `loss_spike`,
    /// `epoch_budget`, `churn_storm`).
    pub rule: String,
    /// The round the rule fired at (the last completed round; 0 when no
    /// round had completed yet).
    pub round: u64,
    /// How loud.
    pub severity: Severity,
    /// Human-readable description of what tripped.
    pub message: String,
    /// The observed value that tripped the rule.
    pub value: f64,
    /// The configured threshold it tripped against.
    pub threshold: f64,
}

impl Alert {
    /// The alert as a JSON object (the `/alerts` and artifact shape).
    pub fn to_value(&self) -> Value {
        Value::Object(vec![
            ("rule".to_string(), Value::String(self.rule.clone())),
            ("round".to_string(), Value::from_u64(self.round)),
            (
                "severity".to_string(),
                Value::String(self.severity.label().to_string()),
            ),
            ("message".to_string(), Value::String(self.message.clone())),
            ("value".to_string(), Value::from_f64(self.value)),
            ("threshold".to_string(), Value::from_f64(self.threshold)),
        ])
    }
}

/// Round-stall rule: no `round_end` within `budget_ms` of wall clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StallRule {
    /// Wall budget between consecutive `round_end`s, in milliseconds.
    pub budget_ms: u64,
    /// Severity when fired.
    pub severity: Severity,
}

/// Knowledge-curve flatline rule: no new `known_pairs` over `rounds`
/// consecutive completed rounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlatlineRule {
    /// How many rounds without progress trip the rule.
    pub rounds: u64,
    /// Severity when fired.
    pub severity: Severity,
}

/// Theorem 1 bound rule: the run crossed — or is *projected* to cross —
/// the `n + r` round bound. The projection extrapolates the recent
/// knowledge-curve slope and fires only when the projected makespan
/// exceeds the bound by `margin_pct` for `sustain` consecutive rounds
/// past a quarter of the bound, so a clean on-pace run never trips it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundRule {
    /// Percentage margin the projection must exceed the bound by.
    pub margin_pct: f64,
    /// Consecutive over-margin projections required before firing.
    pub sustain: u64,
    /// Severity when fired.
    pub severity: Severity,
}

/// Loss-rate spike rule: in one round, `losses / (losses + new pairs)`
/// reached `rate` with at least `min_count` losses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossSpikeRule {
    /// Loss-rate threshold in `[0, 1]`.
    pub rate: f64,
    /// Minimum losses in the round before the rate is judged.
    pub min_count: u64,
    /// Severity when fired.
    pub severity: Severity,
}

/// Repair-epoch budget rule: the resilient executor reached `fraction`
/// of its `--max-epochs` budget. Dormant unless the epoch budget was
/// supplied via [`AlertEngine::max_epochs`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochBudgetRule {
    /// Fraction of the epoch budget in `(0, 1]` that trips the rule.
    pub fraction: f64,
    /// Severity when fired.
    pub severity: Severity,
}

/// Churn invalidation-storm rule: one round invalidated at least
/// `invalidated` in-flight deliveries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnStormRule {
    /// Invalidated deliveries in a single round that trip the rule.
    pub invalidated: u64,
    /// Severity when fired.
    pub severity: Severity,
}

/// The set of enabled rules. [`RuleSet::default`] enables all six with
/// conservative thresholds; a JSON rule file *replaces* the set.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleSet {
    /// Round-stall watchdog.
    pub stall: Option<StallRule>,
    /// Knowledge-curve flatline.
    pub flatline: Option<FlatlineRule>,
    /// `n + r` bound breach / projection.
    pub bound: Option<BoundRule>,
    /// Per-round loss-rate spike.
    pub loss_spike: Option<LossSpikeRule>,
    /// Repair-epoch budget burn.
    pub epoch_budget: Option<EpochBudgetRule>,
    /// Churn invalidation storm.
    pub churn_storm: Option<ChurnStormRule>,
}

impl Default for RuleSet {
    fn default() -> Self {
        RuleSet {
            stall: Some(StallRule {
                budget_ms: 30_000,
                severity: Severity::Critical,
            }),
            flatline: Some(FlatlineRule {
                rounds: 16,
                severity: Severity::Warn,
            }),
            bound: Some(BoundRule {
                margin_pct: 10.0,
                sustain: 3,
                severity: Severity::Critical,
            }),
            loss_spike: Some(LossSpikeRule {
                rate: 0.5,
                min_count: 8,
                severity: Severity::Warn,
            }),
            epoch_budget: Some(EpochBudgetRule {
                fraction: 0.75,
                severity: Severity::Warn,
            }),
            churn_storm: Some(ChurnStormRule {
                invalidated: 64,
                severity: Severity::Warn,
            }),
        }
    }
}

impl RuleSet {
    /// An empty set (nothing fires); rules are added by the JSON parser.
    fn none() -> RuleSet {
        RuleSet {
            stall: None,
            flatline: None,
            bound: None,
            loss_spike: None,
            epoch_budget: None,
            churn_storm: None,
        }
    }

    /// Parses a schema-versioned rule document:
    ///
    /// ```json
    /// { "schema_version": 1,
    ///   "rules": [
    ///     { "rule": "stall", "severity": "critical", "budget_ms": 100 },
    ///     { "rule": "bound", "margin_pct": 10 } ] }
    /// ```
    ///
    /// The listed rules *replace* the default set; omitted per-rule
    /// fields keep that rule's default threshold/severity. Unknown rule
    /// names are rejected (a typo must not silently disable a watchdog).
    pub fn from_value(doc: &Value) -> Result<RuleSet, String> {
        check_schema_version(doc)?;
        let rules = doc
            .get("rules")
            .and_then(Value::as_array)
            .ok_or("rule file needs a \"rules\" array")?;
        let defaults = RuleSet::default();
        let mut set = RuleSet::none();
        for (i, r) in rules.iter().enumerate() {
            let name = r
                .get("rule")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("rules[{i}]: missing \"rule\" name"))?;
            let severity = match r.get("severity").and_then(Value::as_str) {
                Some(s) => Some(Severity::parse(s).map_err(|e| format!("rules[{i}]: {e}"))?),
                None => None,
            };
            let f64_of = |key: &str, default: f64| -> f64 {
                r.get(key).and_then(Value::as_f64).unwrap_or(default)
            };
            let u64_of = |key: &str, default: u64| -> u64 {
                r.get(key).and_then(Value::as_u64).unwrap_or(default)
            };
            match name {
                "stall" => {
                    let d = defaults.stall.expect("default");
                    set.stall = Some(StallRule {
                        budget_ms: u64_of("budget_ms", d.budget_ms),
                        severity: severity.unwrap_or(d.severity),
                    });
                }
                "flatline" => {
                    let d = defaults.flatline.expect("default");
                    set.flatline = Some(FlatlineRule {
                        rounds: u64_of("rounds", d.rounds).max(1),
                        severity: severity.unwrap_or(d.severity),
                    });
                }
                "bound" => {
                    let d = defaults.bound.expect("default");
                    set.bound = Some(BoundRule {
                        margin_pct: f64_of("margin_pct", d.margin_pct).max(0.0),
                        sustain: u64_of("sustain", d.sustain).max(1),
                        severity: severity.unwrap_or(d.severity),
                    });
                }
                "loss_spike" => {
                    let d = defaults.loss_spike.expect("default");
                    set.loss_spike = Some(LossSpikeRule {
                        rate: f64_of("rate", d.rate).clamp(0.0, 1.0),
                        min_count: u64_of("min_count", d.min_count).max(1),
                        severity: severity.unwrap_or(d.severity),
                    });
                }
                "epoch_budget" => {
                    let d = defaults.epoch_budget.expect("default");
                    set.epoch_budget = Some(EpochBudgetRule {
                        fraction: f64_of("fraction", d.fraction).clamp(0.0, 1.0),
                        severity: severity.unwrap_or(d.severity),
                    });
                }
                "churn_storm" => {
                    let d = defaults.churn_storm.expect("default");
                    set.churn_storm = Some(ChurnStormRule {
                        invalidated: u64_of("invalidated", d.invalidated).max(1),
                        severity: severity.unwrap_or(d.severity),
                    });
                }
                other => {
                    return Err(format!(
                        "rules[{i}]: unknown rule {other:?} (expected stall, flatline, bound, \
                         loss_spike, epoch_budget, or churn_storm)"
                    ))
                }
            }
        }
        Ok(set)
    }
}

impl std::str::FromStr for RuleSet {
    type Err = String;

    /// Parses a rule file's text content (JSON).
    fn from_str(text: &str) -> Result<RuleSet, String> {
        let doc: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        RuleSet::from_value(&doc)
    }
}

/// Streaming evaluation state; lives inside the sink's mutex so the
/// server's wall-clock `poll` and the run's event stream judge the same
/// state.
#[derive(Debug)]
struct WatchState {
    /// When the engine was armed (the baseline for the first stall check).
    started: Instant,
    /// Wall time of the last completed round.
    last_round_end: Option<Instant>,
    /// Last completed round index.
    last_round: u64,
    /// Best (highest) `known_pairs` seen and the round it was reached.
    best_known: u64,
    best_known_round: u64,
    /// Whether any curve point has arrived yet.
    curve_started: bool,
    /// Recent `(round, known_pairs)` points for slope extrapolation.
    window: Vec<(u64, u64)>,
    /// Consecutive rounds whose projection exceeded the bound + margin.
    over_projection: u64,
    /// Per-round accumulators, reset on every `round_end`.
    losses_this_round: u64,
    invalidated_this_round: u64,
    /// Single-shot latches: each rule fires at most once per run.
    fired_stall: bool,
    fired_flatline: bool,
    fired_bound: bool,
    fired_loss_spike: bool,
    fired_epoch_budget: bool,
    fired_churn_storm: bool,
}

impl WatchState {
    fn new() -> WatchState {
        WatchState {
            started: Instant::now(),
            last_round_end: None,
            last_round: 0,
            best_known: 0,
            best_known_round: 0,
            curve_started: false,
            window: Vec::new(),
            over_projection: 0,
            losses_this_round: 0,
            invalidated_this_round: 0,
            fired_stall: false,
            fired_flatline: false,
            fired_bound: false,
            fired_loss_spike: false,
            fired_epoch_budget: false,
            fired_churn_storm: false,
        }
    }
}

/// How many recent curve points the bound projection extrapolates over.
const PROJECTION_WINDOW: usize = 8;

/// Shared alert state: the fired alerts, the critical flag `/healthz`
/// degrades on, and the streaming watch state. `Arc`-shared between the
/// borrowed [`AlertEngine`] on the run thread and long-lived consumers
/// (the obsd server, the CLI's exit-code check).
pub struct AlertSink {
    rules: RuleSet,
    ctx: Mutex<Context>,
    state: Mutex<WatchState>,
    alerts: Mutex<Vec<Alert>>,
    /// How many of `alerts` the engine has already emitted downstream.
    /// Poll-fired alerts land in the sink from the server thread; the
    /// engine drains the gap on its next event so they still reach the
    /// flight record and the live registry.
    emitted: AtomicUsize,
    critical: AtomicBool,
    done: AtomicBool,
}

/// Run facts the rules judge against; supplied by whoever builds the
/// engine (the CLI knows `n + r` and the pair total, the engine cannot).
#[derive(Debug, Default, Clone, Copy)]
struct Context {
    /// Theorem 1's `n + r` round bound.
    bound: Option<u64>,
    /// Complete-gossip pair total (`n * n_msgs`).
    total_pairs: Option<u64>,
    /// The resilient executor's epoch budget.
    max_epochs: Option<u64>,
}

impl AlertSink {
    /// An empty sink for the given rules. Usually created via
    /// [`AlertEngine::new`]; public so servers/tests can hold one
    /// directly.
    pub fn new(rules: RuleSet) -> AlertSink {
        AlertSink {
            rules,
            ctx: Mutex::new(Context::default()),
            state: Mutex::new(WatchState::new()),
            alerts: Mutex::new(Vec::new()),
            emitted: AtomicUsize::new(0),
            critical: AtomicBool::new(false),
            done: AtomicBool::new(false),
        }
    }

    fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
        m.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Every alert fired so far, in firing order.
    pub fn alerts(&self) -> Vec<Alert> {
        Self::lock(&self.alerts).clone()
    }

    /// Number of alerts fired so far.
    pub fn len(&self) -> usize {
        Self::lock(&self.alerts).len()
    }

    /// Whether nothing has fired.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether any critical alert fired (the `/healthz` degraded signal).
    pub fn has_critical(&self) -> bool {
        self.critical.load(Ordering::Relaxed)
    }

    /// Marks the run complete: the wall-clock stall poll disarms (a
    /// finished run lingering for scrapes is not stalled).
    pub fn set_done(&self) {
        self.done.store(true, Ordering::Relaxed);
    }

    /// Fired-alert counts grouped by `(rule, severity)`, sorted — the
    /// Prometheus `gossip_alerts_total` series.
    pub fn counts(&self) -> Vec<((String, &'static str), u64)> {
        let mut counts: Vec<((String, &'static str), u64)> = Vec::new();
        for a in Self::lock(&self.alerts).iter() {
            let key = (a.rule.clone(), a.severity.label());
            match counts.iter_mut().find(|(k, _)| *k == key) {
                Some((_, c)) => *c += 1,
                None => counts.push((key, 1)),
            }
        }
        counts.sort();
        counts
    }

    /// The schema-versioned `kind: "alerts"` artifact / `/alerts` snapshot.
    pub fn to_value(&self) -> Value {
        let alerts = Self::lock(&self.alerts);
        Value::Object(vec![
            (
                "schema_version".to_string(),
                Value::from_u64(SCHEMA_VERSION),
            ),
            ("kind".to_string(), Value::String("alerts".to_string())),
            ("count".to_string(), Value::from_u64(alerts.len() as u64)),
            ("critical".to_string(), Value::Bool(self.has_critical())),
            (
                "alerts".to_string(),
                Value::Array(alerts.iter().map(Alert::to_value).collect()),
            ),
        ])
    }

    fn push(&self, alert: Alert) {
        if alert.severity == Severity::Critical {
            self.critical.store(true, Ordering::Relaxed);
        }
        Self::lock(&self.alerts).push(alert);
    }

    /// Alerts pushed since the engine last emitted downstream, advancing
    /// the cursor past them. The cursor swap happens under the alerts
    /// lock, so a poll racing an engine flush hands each alert to exactly
    /// one side.
    fn take_unemitted(&self) -> Vec<Alert> {
        let alerts = Self::lock(&self.alerts);
        let start = self.emitted.swap(alerts.len(), Ordering::Relaxed);
        alerts[start.min(alerts.len())..].to_vec()
    }

    /// Wall-clock stall check with no event required — called by the
    /// `/alerts` and `/healthz` handlers so a *hung* run (one emitting
    /// nothing at all) still surfaces. Returns the alert if it fired.
    pub fn poll(&self) -> Option<Alert> {
        if self.done.load(Ordering::Relaxed) {
            return None;
        }
        let rule = self.rules.stall?;
        let mut state = Self::lock(&self.state);
        if state.fired_stall {
            return None;
        }
        let since = state.last_round_end.unwrap_or(state.started);
        let elapsed_ms = since.elapsed().as_secs_f64() * 1e3;
        if elapsed_ms <= rule.budget_ms as f64 {
            return None;
        }
        state.fired_stall = true;
        let alert = Alert {
            rule: "stall".to_string(),
            round: state.last_round,
            severity: rule.severity,
            message: format!(
                "no round completed for {elapsed_ms:.0} ms (budget {} ms)",
                rule.budget_ms
            ),
            value: elapsed_ms,
            threshold: rule.budget_ms as f64,
        };
        drop(state);
        self.push(alert.clone());
        Some(alert)
    }

    /// Judges one completed round; returns every alert that fired on it.
    fn on_round_end(&self, round: u64, known_pairs: Option<u64>) -> Vec<Alert> {
        let now = Instant::now();
        let ctx = *Self::lock(&self.ctx);
        let mut state = Self::lock(&self.state);
        let mut fired = Vec::new();

        // Stall: wall time since the previous completed round (or since
        // the engine was armed). Judged on arrival, so a paced run whose
        // cadence blows the budget is caught even though events do flow.
        if let Some(rule) = self.rules.stall {
            if !state.fired_stall {
                let since = state.last_round_end.unwrap_or(state.started);
                let elapsed_ms = (now - since).as_secs_f64() * 1e3;
                if elapsed_ms > rule.budget_ms as f64 {
                    state.fired_stall = true;
                    fired.push(Alert {
                        rule: "stall".to_string(),
                        round,
                        severity: rule.severity,
                        message: format!(
                            "round {round} took {elapsed_ms:.0} ms of wall clock (budget {} ms)",
                            rule.budget_ms
                        ),
                        value: elapsed_ms,
                        threshold: rule.budget_ms as f64,
                    });
                }
            }
        }

        // Loss spike: this round's losses against its successful new
        // pairs (the knowledge-curve delta is exactly the first
        // deliveries that landed).
        let delta = known_pairs.map(|p| p.saturating_sub(state.best_known));
        if let Some(rule) = self.rules.loss_spike {
            if !state.fired_loss_spike && state.losses_this_round >= rule.min_count {
                let losses = state.losses_this_round as f64;
                let rate = losses / (losses + delta.unwrap_or(0) as f64);
                if rate >= rule.rate {
                    state.fired_loss_spike = true;
                    fired.push(Alert {
                        rule: "loss_spike".to_string(),
                        round,
                        severity: rule.severity,
                        message: format!(
                            "round {round} lost {} deliver(ies) — loss rate {rate:.2} over threshold {:.2}",
                            state.losses_this_round, rule.rate
                        ),
                        value: rate,
                        threshold: rule.rate,
                    });
                }
            }
        }

        // Churn storm: invalidated in-flight deliveries in this round.
        if let Some(rule) = self.rules.churn_storm {
            if !state.fired_churn_storm && state.invalidated_this_round >= rule.invalidated {
                state.fired_churn_storm = true;
                fired.push(Alert {
                    rule: "churn_storm".to_string(),
                    round,
                    severity: rule.severity,
                    message: format!(
                        "round {round} invalidated {} in-flight deliver(ies) (threshold {})",
                        state.invalidated_this_round, rule.invalidated
                    ),
                    value: state.invalidated_this_round as f64,
                    threshold: rule.invalidated as f64,
                });
            }
        }

        // Curve rules need the knowledge-curve point.
        if let Some(p) = known_pairs {
            let complete = ctx.total_pairs.is_some_and(|t| p >= t);
            if p > state.best_known || !state.curve_started {
                state.best_known = p;
                state.best_known_round = round;
                state.curve_started = true;
            } else if let Some(rule) = self.rules.flatline {
                // Flatline: rounds elapsed since the curve last moved.
                let stuck = round.saturating_sub(state.best_known_round);
                if !state.fired_flatline && !complete && stuck >= rule.rounds {
                    state.fired_flatline = true;
                    fired.push(Alert {
                        rule: "flatline".to_string(),
                        round,
                        severity: rule.severity,
                        message: format!(
                            "knowledge curve flat at {} pair(s) for {stuck} round(s) (threshold {})",
                            state.best_known, rule.rounds
                        ),
                        value: stuck as f64,
                        threshold: rule.rounds as f64,
                    });
                }
            }
            state.window.push((round, p));
            if state.window.len() > PROJECTION_WINDOW {
                state.window.remove(0);
            }

            if let (Some(rule), Some(bound), Some(total)) =
                (self.rules.bound, ctx.bound, ctx.total_pairs)
            {
                if !state.fired_bound && !complete {
                    let rounds_done = round + 1;
                    if rounds_done >= bound {
                        // The bound is actually crossed and gossip is
                        // still incomplete.
                        state.fired_bound = true;
                        fired.push(Alert {
                            rule: "bound".to_string(),
                            round,
                            severity: rule.severity,
                            message: format!(
                                "round {round} complete with {p} of {total} pair(s): the n + r = {bound} bound is crossed"
                            ),
                            value: rounds_done as f64,
                            threshold: bound as f64,
                        });
                    } else if rounds_done * 4 >= bound && state.window.len() >= PROJECTION_WINDOW {
                        // Projection: extrapolate the recent slope. Only
                        // judged past a quarter of the bound AND once the
                        // window is full — the curve's warm-up rounds
                        // under-estimate the pipelined rate, and a partial
                        // window still contains them (fig4's clean run
                        // projects 21 > 19 while round 0's slow start is
                        // in view, then ~19 once it ages out) — and only
                        // fired when the projection stays over
                        // bound + margin for `sustain` rounds.
                        let (r0, p0) = state.window[0];
                        let dr = round.saturating_sub(r0) as f64;
                        let dp = p.saturating_sub(p0) as f64;
                        let slope = if dr > 0.0 { dp / dr } else { 0.0 };
                        let projected = if slope > 0.0 {
                            rounds_done as f64 + (total - p) as f64 / slope
                        } else {
                            f64::INFINITY
                        };
                        let limit = bound as f64 * (1.0 + rule.margin_pct / 100.0);
                        if projected > limit {
                            state.over_projection += 1;
                        } else {
                            state.over_projection = 0;
                        }
                        if state.over_projection >= rule.sustain {
                            state.fired_bound = true;
                            let shown = if projected.is_finite() {
                                format!("{projected:.0}")
                            } else {
                                "never".to_string()
                            };
                            fired.push(Alert {
                                rule: "bound".to_string(),
                                round,
                                severity: rule.severity,
                                message: format!(
                                    "projected completion at round {shown} exceeds n + r = {bound} (margin {:.0}%)",
                                    rule.margin_pct
                                ),
                                value: if projected.is_finite() {
                                    projected
                                } else {
                                    f64::MAX
                                },
                                threshold: bound as f64,
                            });
                        }
                    }
                }
            }
        }

        state.last_round_end = Some(now);
        state.last_round = round;
        state.losses_this_round = 0;
        state.invalidated_this_round = 0;
        drop(state);

        for a in &fired {
            self.push(a.clone());
        }
        fired
    }

    /// Accounts one suppressed delivery (and its cause) for the per-round
    /// loss / churn-storm accumulators.
    fn on_loss(&self, cause: Option<&str>) {
        let mut state = Self::lock(&self.state);
        if cause == Some("churn_invalidated") {
            state.invalidated_this_round += 1;
        } else {
            state.losses_this_round += 1;
        }
    }

    /// Judges a repair-epoch start against the epoch budget.
    fn on_epoch_start(&self, epoch: u64) -> Vec<Alert> {
        let Some(rule) = self.rules.epoch_budget else {
            return Vec::new();
        };
        let ctx = *Self::lock(&self.ctx);
        let Some(max_epochs) = ctx.max_epochs else {
            return Vec::new();
        };
        let mut state = Self::lock(&self.state);
        if state.fired_epoch_budget || epoch == 0 {
            return Vec::new();
        }
        let threshold = (rule.fraction * max_epochs as f64).max(1.0);
        if (epoch as f64) < threshold {
            return Vec::new();
        }
        state.fired_epoch_budget = true;
        let round = state.last_round;
        drop(state);
        let alert = Alert {
            rule: "epoch_budget".to_string(),
            round,
            severity: rule.severity,
            message: format!(
                "repair epoch {epoch} reached {:.0}% of the {max_epochs}-epoch budget",
                100.0 * epoch as f64 / max_epochs as f64
            ),
            value: epoch as f64,
            threshold,
        };
        self.push(alert.clone());
        vec![alert]
    }
}

/// The watchdog recorder decorator: forwards every call to `inner`
/// untouched, judges the stream against its [`RuleSet`], and emits fired
/// alerts downstream as `alert` events plus `alerts/<rule>/<severity>`
/// counters.
///
/// Composes like `Paced`: wrap it around the registry/flight tee and
/// hand the engine to the executor. Place it *inside* any pacing wrapper
/// so the stall rule sees real wall cadence.
pub struct AlertEngine<'r> {
    inner: &'r dyn Recorder,
    sink: Arc<AlertSink>,
}

impl<'r> AlertEngine<'r> {
    /// Wraps `inner` with the given rule set.
    pub fn new(inner: &'r dyn Recorder, rules: RuleSet) -> AlertEngine<'r> {
        AlertEngine {
            inner,
            sink: Arc::new(AlertSink::new(rules)),
        }
    }

    /// Supplies Theorem 1's `n + r` bound (arming the `bound` rule).
    pub fn bound(self, bound: u64) -> Self {
        AlertSink::lock(&self.sink.ctx).bound = Some(bound);
        self
    }

    /// Supplies the complete-gossip pair total (`n * n_msgs`).
    pub fn total_pairs(self, total: u64) -> Self {
        AlertSink::lock(&self.sink.ctx).total_pairs = Some(total);
        self
    }

    /// Supplies the repair-epoch budget (arming `epoch_budget`).
    pub fn max_epochs(self, max_epochs: u64) -> Self {
        AlertSink::lock(&self.sink.ctx).max_epochs = Some(max_epochs);
        self
    }

    /// The shared alert state, for `/alerts`, `/healthz`, and exit codes.
    pub fn sink(&self) -> Arc<AlertSink> {
        Arc::clone(&self.sink)
    }

    /// Emits every sink alert not yet forwarded downstream — the ones
    /// this engine just fired *and* any the server-side wall-clock poll
    /// fired in the meantime (those land in the sink without a recorder
    /// in reach, and would otherwise never hit the flight record or the
    /// registry).
    fn flush_pending(&self) {
        for a in self.sink.take_unemitted() {
            self.emit(&a);
        }
    }

    /// Emits one fired alert downstream: a structured `alert` event (the
    /// flight recorder encodes it as an ALERT record, the live registry
    /// streams it on `/events`) plus the labeled total counter.
    fn emit(&self, a: &Alert) {
        self.inner.event(
            "alert",
            &[
                ("rule", Value::String(a.rule.clone())),
                ("round", Value::from_u64(a.round)),
                ("severity", Value::String(a.severity.label().to_string())),
                ("message", Value::String(a.message.clone())),
                ("value", Value::from_f64(a.value)),
                ("threshold", Value::from_f64(a.threshold)),
            ],
        );
        self.inner
            .counter(&format!("alerts/{}/{}", a.rule, a.severity.label()), 1);
    }
}

fn field<'v>(fields: &'v [(&str, Value)], name: &str) -> Option<&'v Value> {
    fields.iter().find(|(k, _)| *k == name).map(|(_, v)| v)
}

impl Recorder for AlertEngine<'_> {
    fn enabled(&self) -> bool {
        // The watchdog judges even when the inner sink keeps nothing
        // (e.g. alerts over a NoopRecorder still fire).
        true
    }

    fn counter(&self, name: &str, delta: u64) {
        self.inner.counter(name, delta);
    }

    fn gauge(&self, name: &str, value: f64) {
        self.inner.gauge(name, value);
    }

    fn observe(&self, name: &str, value: f64) {
        self.inner.observe(name, value);
    }

    fn span_observe(&self, path: &str, nanos: u64) {
        self.inner.span_observe(path, nanos);
    }

    fn event(&self, name: &str, fields: &[(&str, Value)]) {
        self.inner.event(name, fields);
        match name {
            "round_end" => {
                if let Some(round) = field(fields, "round").and_then(Value::as_u64) {
                    self.sink
                        .on_round_end(round, field(fields, "known_pairs").and_then(Value::as_u64));
                }
            }
            "loss" => self
                .sink
                .on_loss(field(fields, "cause").and_then(Value::as_str)),
            "epoch_start" => {
                if let Some(epoch) = field(fields, "epoch").and_then(Value::as_u64) {
                    self.sink.on_epoch_start(epoch);
                }
            }
            _ => {}
        }
        // Every event drains the sink's unemitted tail, so alerts the
        // wall-clock poll fired from the server thread still reach the
        // flight record and the registry at the next recorded event.
        self.flush_pending();
    }

    fn wants_transmissions(&self) -> bool {
        self.inner.wants_transmissions()
    }

    fn transmissions(&self, round: usize, batch: TxBatch<'_>) {
        self.inner.transmissions(round, batch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MetricsRecorder, NoopRecorder};
    use std::str::FromStr as _;

    fn round_end(engine: &AlertEngine<'_>, round: u64, known_pairs: u64) {
        engine.event(
            "round_end",
            &[
                ("round", Value::from_u64(round)),
                ("known_pairs", Value::from_u64(known_pairs)),
            ],
        );
    }

    fn loss(engine: &AlertEngine<'_>, cause: &str) {
        engine.event(
            "loss",
            &[
                ("round", Value::from_u64(0)),
                ("msg", Value::from_u64(0)),
                ("from", Value::from_u64(0)),
                ("to", Value::from_u64(1)),
                ("cause", Value::String(cause.to_string())),
            ],
        );
    }

    /// A rule set with only the given rules armed.
    fn only(f: impl FnOnce(&mut RuleSet)) -> RuleSet {
        let mut set = RuleSet::none();
        f(&mut set);
        set
    }

    #[test]
    fn clean_run_fires_nothing_with_defaults() {
        let noop = NoopRecorder;
        let engine = AlertEngine::new(&noop, RuleSet::default())
            .bound(10)
            .total_pairs(36)
            .max_epochs(8);
        engine.event("epoch_start", &[("epoch", Value::from_u64(0))]);
        for (t, p) in [(0, 10), (1, 16), (2, 24), (3, 30), (4, 36)] {
            round_end(&engine, t, p);
        }
        assert!(engine.sink().is_empty());
        assert!(!engine.sink().has_critical());
    }

    #[test]
    fn stall_fires_once_when_the_round_cadence_blows_the_budget() {
        let noop = NoopRecorder;
        let engine = AlertEngine::new(
            &noop,
            only(|s| {
                s.stall = Some(StallRule {
                    budget_ms: 1,
                    severity: Severity::Critical,
                })
            }),
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
        round_end(&engine, 0, 5);
        std::thread::sleep(std::time::Duration::from_millis(10));
        round_end(&engine, 1, 6);
        let sink = engine.sink();
        let alerts = sink.alerts();
        assert_eq!(alerts.len(), 1, "single-shot: {alerts:?}");
        assert_eq!(alerts[0].rule, "stall");
        assert_eq!(alerts[0].severity, Severity::Critical);
        assert!(alerts[0].value > alerts[0].threshold);
        assert!(sink.has_critical());
    }

    #[test]
    fn poll_catches_a_fully_hung_run_and_disarms_when_done() {
        let sink = {
            let noop = NoopRecorder;
            let engine = AlertEngine::new(
                &noop,
                only(|s| {
                    s.stall = Some(StallRule {
                        budget_ms: 1,
                        severity: Severity::Critical,
                    })
                }),
            );
            engine.sink()
        };
        std::thread::sleep(std::time::Duration::from_millis(10));
        let fired = sink.poll().expect("stall fires with no events at all");
        assert_eq!(fired.rule, "stall");
        assert!(sink.poll().is_none(), "latched");

        let done_sink = {
            let noop = NoopRecorder;
            let engine = AlertEngine::new(
                &noop,
                only(|s| {
                    s.stall = Some(StallRule {
                        budget_ms: 1,
                        severity: Severity::Critical,
                    })
                }),
            );
            engine.sink()
        };
        done_sink.set_done();
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert!(done_sink.poll().is_none(), "done runs are not stalled");
    }

    #[test]
    fn flatline_fires_after_k_rounds_without_progress() {
        let noop = NoopRecorder;
        let engine = AlertEngine::new(
            &noop,
            only(|s| {
                s.flatline = Some(FlatlineRule {
                    rounds: 3,
                    severity: Severity::Warn,
                })
            }),
        );
        round_end(&engine, 0, 10);
        round_end(&engine, 1, 12);
        for t in 2..=3 {
            round_end(&engine, t, 12);
        }
        assert!(engine.sink().is_empty(), "2 stuck rounds < threshold 3");
        round_end(&engine, 4, 12);
        let alerts = engine.sink().alerts();
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].rule, "flatline");
        assert_eq!(alerts[0].round, 4);
        assert_eq!(alerts[0].value, 3.0);
    }

    #[test]
    fn bound_breach_fires_when_the_bound_is_crossed_incomplete() {
        let noop = NoopRecorder;
        let engine = AlertEngine::new(
            &noop,
            only(|s| {
                s.bound = Some(BoundRule {
                    margin_pct: 10.0,
                    // Sustain high enough that the projection path never
                    // fires here; this test pins the actual-breach path.
                    sustain: 100,
                    severity: Severity::Critical,
                })
            }),
        )
        .bound(5)
        .total_pairs(100);
        for t in 0..4 {
            round_end(&engine, t, 10 + t);
        }
        assert!(engine.sink().is_empty());
        round_end(&engine, 4, 14); // rounds_done = 5 = bound, 14 < 100
        let alerts = engine.sink().alerts();
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].rule, "bound");
        assert!(alerts[0].message.contains("crossed"));
        assert!(engine.sink().has_critical());
    }

    #[test]
    fn bound_projection_fires_before_the_bound_is_crossed() {
        let noop = NoopRecorder;
        let engine = AlertEngine::new(
            &noop,
            only(|s| {
                s.bound = Some(BoundRule {
                    margin_pct: 10.0,
                    sustain: 3,
                    severity: Severity::Critical,
                })
            }),
        )
        .bound(100)
        .total_pairs(10_000);
        // Slope 10/round from round 25 on: projected completion ~= 1000,
        // way past 110. Must fire after 3 sustained projections, long
        // before round 100.
        let mut fired_at = None;
        for t in 25..60 {
            round_end(&engine, t, 100 + 10 * t);
            if !engine.sink().is_empty() {
                fired_at = Some(t);
                break;
            }
        }
        let fired_at = fired_at.expect("projection fired");
        assert!(fired_at < 99, "fired before the bound was crossed");
        let alerts = engine.sink().alerts();
        assert_eq!(alerts[0].rule, "bound");
        assert!(alerts[0].message.contains("projected"));
        assert!(alerts[0].value > 110.0);
    }

    #[test]
    fn clean_on_pace_run_never_trips_the_projection() {
        let noop = NoopRecorder;
        let engine = AlertEngine::new(&noop, RuleSet::default())
            .bound(40)
            .total_pairs(1024);
        // 32 pairs per round completes exactly at round 31 < bound 40.
        for t in 0..32u64 {
            round_end(&engine, t, 32 * (t + 1));
        }
        assert!(engine.sink().is_empty(), "{:?}", engine.sink().alerts());
    }

    #[test]
    fn loss_spike_fires_on_rate_and_min_count() {
        let noop = NoopRecorder;
        let engine = AlertEngine::new(
            &noop,
            only(|s| {
                s.loss_spike = Some(LossSpikeRule {
                    rate: 0.5,
                    min_count: 4,
                    severity: Severity::Warn,
                })
            }),
        );
        round_end(&engine, 0, 10);
        for _ in 0..3 {
            loss(&engine, "sampled");
        }
        round_end(&engine, 1, 10); // 3 losses < min_count
        assert!(engine.sink().is_empty());
        for _ in 0..6 {
            loss(&engine, "sampled");
        }
        round_end(&engine, 2, 12); // 6 lost vs 2 delivered: rate 0.75
        let alerts = engine.sink().alerts();
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].rule, "loss_spike");
        assert_eq!(alerts[0].value, 0.75);
    }

    #[test]
    fn epoch_budget_fires_at_the_configured_fraction() {
        let noop = NoopRecorder;
        let engine = AlertEngine::new(
            &noop,
            only(|s| {
                s.epoch_budget = Some(EpochBudgetRule {
                    fraction: 0.75,
                    severity: Severity::Warn,
                })
            }),
        )
        .max_epochs(4);
        engine.event("epoch_start", &[("epoch", Value::from_u64(0))]);
        engine.event("epoch_start", &[("epoch", Value::from_u64(2))]);
        assert!(engine.sink().is_empty(), "2 < 0.75 * 4");
        engine.event("epoch_start", &[("epoch", Value::from_u64(3))]);
        let alerts = engine.sink().alerts();
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].rule, "epoch_budget");
        assert_eq!(alerts[0].value, 3.0);
    }

    #[test]
    fn churn_storm_fires_on_invalidated_deliveries_per_round() {
        let noop = NoopRecorder;
        let engine = AlertEngine::new(
            &noop,
            only(|s| {
                s.churn_storm = Some(ChurnStormRule {
                    invalidated: 3,
                    severity: Severity::Warn,
                })
            }),
        );
        loss(&engine, "churn_invalidated");
        loss(&engine, "churn_invalidated");
        round_end(&engine, 0, 5);
        assert!(engine.sink().is_empty(), "2 < 3");
        for _ in 0..3 {
            loss(&engine, "churn_invalidated");
        }
        round_end(&engine, 1, 6);
        let alerts = engine.sink().alerts();
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].rule, "churn_storm");
        assert_eq!(alerts[0].value, 3.0);
    }

    #[test]
    fn engine_forwards_and_emits_downstream() {
        let inner = MetricsRecorder::new();
        let engine = AlertEngine::new(
            &inner,
            only(|s| {
                s.flatline = Some(FlatlineRule {
                    rounds: 1,
                    severity: Severity::Info,
                })
            }),
        );
        engine.counter("c", 2);
        engine.gauge("g", 1.5);
        round_end(&engine, 0, 5);
        round_end(&engine, 1, 5); // flatline fires
        assert_eq!(inner.counter_value("c"), 2, "forwards verbatim");
        assert_eq!(inner.counter_value("alerts/flatline/info"), 1);
        // 2 round_end events + 1 alert event forwarded downstream.
        assert_eq!(inner.events_emitted(), 3);
        assert!(!engine.sink().has_critical(), "info does not degrade");
    }

    #[test]
    fn poll_fired_alerts_flush_downstream_at_the_next_event() {
        let inner = MetricsRecorder::new();
        let engine = AlertEngine::new(
            &inner,
            only(|s| {
                s.stall = Some(StallRule {
                    budget_ms: 0,
                    severity: Severity::Critical,
                })
            }),
        );
        let sink = engine.sink();
        // The server-side wall-clock poll fires with no recorder in
        // reach: the alert is in the sink but not downstream yet.
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(sink.poll().is_some());
        assert_eq!(inner.counter_value("alerts/stall/critical"), 0);
        assert_eq!(inner.events_emitted(), 0);
        // Any recorded event drains the unemitted tail downstream...
        round_end(&engine, 0, 5);
        assert_eq!(inner.counter_value("alerts/stall/critical"), 1);
        // 1 round_end + 1 flushed alert event.
        assert_eq!(inner.events_emitted(), 2);
        // ...exactly once, and the single-shot latch spans both paths.
        round_end(&engine, 1, 10);
        assert_eq!(inner.counter_value("alerts/stall/critical"), 1);
        assert_eq!(sink.len(), 1);
    }

    #[test]
    fn rule_file_replaces_the_default_set() {
        let set = RuleSet::from_str(
            r#"{"schema_version": 1, "rules": [
                {"rule": "stall", "severity": "warn", "budget_ms": 250},
                {"rule": "bound", "margin_pct": 25, "sustain": 5}
            ]}"#,
        )
        .expect("parses");
        let stall = set.stall.expect("stall configured");
        assert_eq!(stall.budget_ms, 250);
        assert_eq!(stall.severity, Severity::Warn);
        let bound = set.bound.expect("bound configured");
        assert_eq!(bound.margin_pct, 25.0);
        assert_eq!(bound.sustain, 5);
        assert_eq!(bound.severity, Severity::Critical, "default severity");
        assert!(set.flatline.is_none(), "unlisted rules are disabled");
        assert!(set.loss_spike.is_none());

        assert!(RuleSet::from_str(r#"{"rules": [{"rule": "nonsense"}]}"#).is_err());
        assert!(RuleSet::from_str(r#"{"rules": [{"severity": "warn"}]}"#).is_err());
        assert!(RuleSet::from_str(r#"{"schema_version": 99, "rules": []}"#).is_err());
        assert!(
            RuleSet::from_str(r#"{"rules": [{"rule": "stall", "severity": "loud"}]}"#).is_err()
        );
    }

    #[test]
    fn sink_artifact_shape_and_counts() {
        let noop = NoopRecorder;
        let engine = AlertEngine::new(
            &noop,
            only(|s| {
                s.flatline = Some(FlatlineRule {
                    rounds: 1,
                    severity: Severity::Warn,
                })
            }),
        );
        round_end(&engine, 0, 5);
        round_end(&engine, 1, 5);
        let sink = engine.sink();
        let doc = sink.to_value();
        assert_eq!(doc["schema_version"].as_u64(), Some(SCHEMA_VERSION));
        assert_eq!(doc["kind"].as_str(), Some("alerts"));
        assert_eq!(doc["count"].as_u64(), Some(1));
        assert_eq!(doc["critical"].as_bool(), Some(false));
        let a = &doc["alerts"][0];
        assert_eq!(a["rule"].as_str(), Some("flatline"));
        assert_eq!(a["severity"].as_str(), Some("warn"));
        assert!(a["value"].as_f64().is_some());
        assert!(a["threshold"].as_f64().is_some());
        assert_eq!(
            sink.counts(),
            vec![(("flatline".to_string(), "warn"), 1u64)]
        );
    }
}
