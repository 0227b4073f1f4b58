//! # gossip-telemetry
//!
//! Zero-dependency observability for the gossip workspace: counters,
//! gauges, histograms with percentile summaries, RAII nested spans, a
//! JSONL event sink, and a JSON snapshot of everything recorded.
//!
//! The [`Recorder`] trait is object-safe so instrumented code takes
//! `&dyn Recorder`; [`NoopRecorder`] short-circuits every call via
//! [`Recorder::enabled`], keeping the instrumented hot paths at
//! effectively zero cost when telemetry is off.
//!
//! ```
//! use gossip_telemetry::{MetricsRecorder, Recorder, RecorderExt};
//!
//! let recorder = MetricsRecorder::new();
//! {
//!     let _plan = recorder.span("plan");
//!     let _bfs = recorder.span("bfs"); // nested: recorded as "plan/bfs"
//!     recorder.counter("edges_relaxed", 42);
//!     recorder.gauge("radius", 3.0);
//!     recorder.observe("fanout", 2.0);
//! }
//! let snap = recorder.snapshot();
//! assert_eq!(snap["counters"]["edges_relaxed"].as_u64(), Some(42));
//! assert_eq!(snap["histograms"]["fanout"]["count"].as_u64(), Some(1));
//! assert!(snap["spans"]["plan/bfs"]["count"].as_u64() == Some(1));
//! ```

// The one `unsafe impl` in this crate is the `GlobalAlloc` for the
// feature-gated counting allocator (`profile::ProfAlloc`); every build
// without `prof-alloc` keeps the blanket forbid.
#![cfg_attr(not(feature = "prof-alloc"), forbid(unsafe_code))]
#![cfg_attr(feature = "prof-alloc", deny(unsafe_code))]

pub mod flight;
pub mod live;
pub mod profile;
pub mod trace;
pub mod watch;

pub use flight::{FlightHeader, FlightLog, FlightRecord, FlightRecorder, Tee};
pub use live::LiveRegistry;
pub use profile::SpanGuard;
pub use trace::{ChromeTrace, TraceEvent};
pub use watch::{Alert, AlertEngine, AlertSink, RuleSet, Severity};

use std::io::Write;
use std::sync::Mutex;

pub use serde_json::Value;

/// Version stamped (as `schema_version`) into every structured artifact the
/// workspace writes: metrics documents, `BENCH_*.json` payloads, provenance
/// exports, and recorder snapshots. Readers use [`check_schema_version`].
/// Chrome trace files are exempt: that format is externally specified as a
/// bare array of events.
pub const SCHEMA_VERSION: u64 = 1;

/// Validates an artifact's `schema_version`. A missing field passes (the
/// artifact predates versioning); the current [`SCHEMA_VERSION`] passes;
/// anything else is rejected with an error naming both versions so the user
/// knows which side to regenerate.
pub fn check_schema_version(artifact: &Value) -> Result<(), String> {
    match artifact.get("schema_version") {
        None => Ok(()),
        Some(v) => match v.as_u64() {
            Some(SCHEMA_VERSION) => Ok(()),
            Some(other) => Err(format!(
                "unsupported schema_version {other}: this build reads version \
                 {SCHEMA_VERSION}; regenerate the artifact with this build"
            )),
            None => Err("schema_version is not an unsigned integer".to_string()),
        },
    }
}

/// Sink for metrics and events. Implementations must be thread-safe;
/// instrumented code holds `&dyn Recorder`.
pub trait Recorder: Send + Sync {
    /// Whether this recorder keeps anything. Instrumentation may (and the
    /// span machinery does) skip all work when this is `false`.
    fn enabled(&self) -> bool;

    /// Adds `delta` to the named monotonic counter.
    fn counter(&self, name: &str, delta: u64);

    /// Sets the named gauge to `value` (last write wins).
    fn gauge(&self, name: &str, value: f64);

    /// Records `value` into the named histogram.
    fn observe(&self, name: &str, value: f64);

    /// Emits a structured event to the JSONL sink (if any).
    fn event(&self, name: &str, fields: &[(&str, Value)]);

    /// Records one completed span occurrence at `path` taking `nanos`.
    /// Called by [`SpanGuard`]; not usually called directly.
    fn span_observe(&self, path: &str, nanos: u64);

    /// Whether this recorder wants [`Recorder::transmissions`] calls.
    /// Per-transmission capture is too hot for the metrics plane, so
    /// executors check this once per run and skip the emission entirely
    /// for recorders (the default) that don't opt in; the flight recorder
    /// ([`flight::FlightRecorder`]) does.
    fn wants_transmissions(&self) -> bool {
        false
    }

    /// Records the attempted multicasts of absolute round `round`, in
    /// execution order. Executors replaying a flat schedule hand over a
    /// whole round per call, straight from its CSR arrays; one-off senders
    /// wrap a single multicast with [`RecorderExt::transmission`].
    /// Only called when [`Recorder::wants_transmissions`] is `true`; the
    /// default drops the batch.
    fn transmissions(&self, _round: usize, _batch: TxBatch<'_>) {}
}

/// Multicasts of one round in CSR form: entry `i` sends message `msgs[i]`
/// from `senders[i]` to `dest_offsets[i]..dest_offsets[i + 1]` of the
/// destination arena whose first element is `dests[0]`. The offsets may
/// start anywhere (a round of a flat schedule keeps its absolute
/// offsets); only their differences index `dests`.
#[derive(Debug, Clone, Copy)]
pub struct TxBatch<'a> {
    msgs: &'a [u32],
    senders: &'a [u32],
    dest_offsets: &'a [u32],
    dests: &'a [u32],
}

impl<'a> TxBatch<'a> {
    /// A batch over the four CSR arrays.
    ///
    /// # Panics
    ///
    /// Panics when the arrays disagree in shape: `senders` must match
    /// `msgs` in length, `dest_offsets` must hold one more entry, and its
    /// last offset must lie `dests.len()` past its first.
    pub fn new(
        msgs: &'a [u32],
        senders: &'a [u32],
        dest_offsets: &'a [u32],
        dests: &'a [u32],
    ) -> TxBatch<'a> {
        assert_eq!(msgs.len(), senders.len(), "one sender per message");
        assert_eq!(
            dest_offsets.len(),
            msgs.len() + 1,
            "one destination range per multicast"
        );
        assert_eq!(
            (dest_offsets[msgs.len()] - dest_offsets[0]) as usize,
            dests.len(),
            "destination offsets must span the destination arena"
        );
        TxBatch {
            msgs,
            senders,
            dest_offsets,
            dests,
        }
    }

    /// Number of multicasts.
    #[inline]
    pub fn len(&self) -> usize {
        self.msgs.len()
    }

    /// Whether the round sent nothing.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.msgs.is_empty()
    }

    /// Message ids, one per multicast.
    #[inline]
    pub fn msgs(&self) -> &'a [u32] {
        self.msgs
    }

    /// Senders, one per multicast.
    #[inline]
    pub fn senders(&self) -> &'a [u32] {
        self.senders
    }

    /// Every destination of the round, multicast by multicast.
    #[inline]
    pub fn dests(&self) -> &'a [u32] {
        self.dests
    }

    /// The destinations of multicast `i`.
    #[inline]
    pub fn dests_of(&self, i: usize) -> &'a [u32] {
        let base = self.dest_offsets[0];
        &self.dests
            [(self.dest_offsets[i] - base) as usize..(self.dest_offsets[i + 1] - base) as usize]
    }

    /// The number of destinations of each multicast, in order.
    #[inline]
    pub fn fanouts(&self) -> impl Iterator<Item = u32> + 'a {
        self.dest_offsets.windows(2).map(|w| w[1] - w[0])
    }

    /// Total destinations over the round: its delivery attempts.
    #[inline]
    pub fn deliveries(&self) -> usize {
        self.dests.len()
    }
}

/// Ergonomic helpers available on every recorder (including `dyn Recorder`).
pub trait RecorderExt {
    /// Opens a named span in this thread's span tree (see
    /// [`profile`]); when dropped, the guard records its duration under
    /// the `/`-joined path of the spans open around it, and an installed
    /// profiler times it as a node of the same name.
    fn span(&self, name: &str) -> SpanGuard<'_>;

    /// Records one attempted multicast (message `msg` from `from` to
    /// `dests` at absolute round `round`) as a one-entry
    /// [`Recorder::transmissions`] batch, for senders that do not hold a
    /// whole round at once.
    fn transmission(&self, round: usize, msg: u32, from: u32, dests: &[u32]);
}

impl<R: Recorder + AsDynRecorder + ?Sized> RecorderExt for R {
    fn span(&self, name: &str) -> SpanGuard<'_> {
        profile::enter(name, self.enabled().then(|| self.as_dyn()))
    }

    fn transmission(&self, round: usize, msg: u32, from: u32, dests: &[u32]) {
        let offsets = [0, dests.len() as u32];
        self.transmissions(
            round,
            TxBatch::new(
                std::slice::from_ref(&msg),
                std::slice::from_ref(&from),
                &offsets,
                dests,
            ),
        );
    }
}

/// Object-safety shim so `RecorderExt` can hand `SpanGuard` a `&dyn`.
pub trait AsDynRecorder {
    /// `self` as a trait object.
    fn as_dyn(&self) -> &dyn Recorder;
}

impl<R: Recorder + Sized> AsDynRecorder for R {
    fn as_dyn(&self) -> &dyn Recorder {
        self
    }
}

impl AsDynRecorder for dyn Recorder + '_ {
    fn as_dyn(&self) -> &dyn Recorder {
        self
    }
}

/// A recorder that drops everything. `enabled()` is `false`, so span
/// guards allocate nothing and instrumented code can skip probe
/// computation entirely.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn enabled(&self) -> bool {
        false
    }
    fn counter(&self, _name: &str, _delta: u64) {}
    fn gauge(&self, _name: &str, _value: f64) {}
    fn observe(&self, _name: &str, _value: f64) {}
    fn event(&self, _name: &str, _fields: &[(&str, Value)]) {}
    fn span_observe(&self, _path: &str, _nanos: u64) {}
}

/// Raw-value histogram summarized to count/min/max/mean/p50/p90/p99.
///
/// Keeps every recorded sample, which makes it *mergeable*: combining two
/// histograms with [`Histogram::merge`] is exactly equivalent to recording
/// the concatenation of their samples into one histogram (a property test
/// pins this). That equivalence is what lets per-thread registries be
/// aggregated without draining recorders, and lets [`LiveRegistry`]
/// expositions bucket samples at scrape time against any bucket layout.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Histogram {
    values: Vec<f64>,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: f64) {
        self.values.push(value);
    }

    /// Absorbs every sample of `other`, preserving `other`'s recording
    /// order after this histogram's own samples — so `a.merge(&b)` leaves
    /// `a` indistinguishable from a histogram that recorded `a`'s samples
    /// followed by `b`'s.
    pub fn merge(&mut self, other: &Histogram) {
        self.values.extend_from_slice(&other.values);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> usize {
        self.values.len()
    }

    /// Sum of all recorded samples (0.0 when empty).
    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// The recorded samples, in recording order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Nearest-rank percentile of the recorded values (`p` in 0..=100);
    /// `None` when nothing has been recorded — an empty histogram has no
    /// percentiles, and callers must not invent a 0.0 for it.
    pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
        if sorted.is_empty() {
            return None;
        }
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        Some(sorted[rank.clamp(1, sorted.len()) - 1])
    }

    /// Summary object. An empty histogram reports only `{"count": 0}`: the
    /// min/max/mean/percentile/total block is omitted rather than filled
    /// with fabricated zeros.
    pub fn summary(&self, scale: f64) -> Value {
        let mut sorted = self.values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let count = sorted.len();
        if count == 0 {
            return Value::Object(vec![("count".to_string(), Value::from_u64(0))]);
        }
        let sum: f64 = sorted.iter().sum();
        let mean = sum / count as f64;
        let pct = |p: f64| Self::percentile(&sorted, p).expect("nonempty") * scale;
        Value::Object(vec![
            ("count".to_string(), Value::from_u64(count as u64)),
            (
                "min".to_string(),
                Value::from_f64(sorted.first().copied().expect("nonempty") * scale),
            ),
            (
                "max".to_string(),
                Value::from_f64(sorted.last().copied().expect("nonempty") * scale),
            ),
            ("mean".to_string(), Value::from_f64(mean * scale)),
            ("p50".to_string(), Value::from_f64(pct(50.0))),
            ("p90".to_string(), Value::from_f64(pct(90.0))),
            ("p99".to_string(), Value::from_f64(pct(99.0))),
            ("total".to_string(), Value::from_f64(sum * scale)),
        ])
    }
}

/// The post-run recorder: aggregates metrics in a [`LiveRegistry`] and
/// optionally streams events to a JSONL sink as they happen.
pub struct MetricsRecorder {
    registry: LiveRegistry,
    sink: Mutex<Option<Box<dyn Write + Send>>>,
}

impl Default for MetricsRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRecorder {
    /// A recorder with no event sink (metrics + snapshot only).
    pub fn new() -> MetricsRecorder {
        MetricsRecorder {
            registry: LiveRegistry::new(),
            sink: Mutex::new(None),
        }
    }

    /// A recorder streaming events to `sink`, one JSON object per line.
    pub fn with_sink(sink: Box<dyn Write + Send>) -> MetricsRecorder {
        MetricsRecorder {
            registry: LiveRegistry::new(),
            sink: Mutex::new(Some(sink)),
        }
    }

    /// Milliseconds since the recorder was created.
    pub fn elapsed_ms(&self) -> f64 {
        self.registry.elapsed_ms()
    }

    /// Current value of a counter (0 if never touched).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.registry.counter_value(name)
    }

    /// Current value of a gauge, if set.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.registry.gauge_value(name)
    }

    /// Number of events emitted so far.
    pub fn events_emitted(&self) -> u64 {
        self.registry.events_emitted()
    }

    /// Flushes the JSONL sink, if any.
    pub fn flush(&self) {
        if let Some(sink) = self.sink.lock().unwrap_or_else(|e| e.into_inner()).as_mut() {
            let _ = sink.flush();
        }
    }

    /// Everything recorded so far as one JSON document; see
    /// [`LiveRegistry::snapshot`].
    pub fn snapshot(&self) -> Value {
        self.registry.snapshot()
    }
}

impl Recorder for MetricsRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn counter(&self, name: &str, delta: u64) {
        self.registry.counter(name, delta);
    }

    fn gauge(&self, name: &str, value: f64) {
        self.registry.gauge(name, value);
    }

    fn observe(&self, name: &str, value: f64) {
        self.registry.observe(name, value);
    }

    fn event(&self, name: &str, fields: &[(&str, Value)]) {
        self.registry.event(name, fields);
        let mut sink = self.sink.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(sink) = sink.as_mut() {
            let head = vec![("t_ms".to_string(), Value::from_f64(self.elapsed_ms()))];
            let _ = writeln!(sink, "{}", live::event_line(head, name, fields));
        }
    }

    fn span_observe(&self, path: &str, nanos: u64) {
        self.registry.span_observe(path, nanos);
        self.event(
            "span",
            &[
                ("path", Value::String(path.to_string())),
                ("elapsed_ns", Value::from_u64(nanos)),
            ],
        );
    }
}

/// A clonable in-memory JSONL buffer usable as a sink in tests:
/// `MetricsRecorder::with_sink(Box::new(buffer.clone()))`.
#[derive(Debug, Default, Clone)]
pub struct SharedBuffer {
    inner: std::sync::Arc<Mutex<Vec<u8>>>,
}

impl SharedBuffer {
    /// An empty buffer.
    pub fn new() -> SharedBuffer {
        SharedBuffer::default()
    }

    /// The buffered bytes as UTF-8.
    pub fn contents(&self) -> String {
        String::from_utf8_lossy(&self.inner.lock().unwrap_or_else(|e| e.into_inner())).to_string()
    }

    /// The buffered JSONL lines, parsed.
    pub fn lines(&self) -> Vec<Value> {
        self.contents()
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(|l| serde_json::from_str(l).expect("sink line is valid JSON"))
            .collect()
    }
}

impl Write for SharedBuffer {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_gauges_overwrite() {
        let r = MetricsRecorder::new();
        r.counter("msgs", 3);
        r.counter("msgs", 4);
        r.gauge("radius", 2.0);
        r.gauge("radius", 5.0);
        assert_eq!(r.counter_value("msgs"), 7);
        assert_eq!(r.gauge_value("radius"), Some(5.0));
        let snap = r.snapshot();
        assert_eq!(snap["counters"]["msgs"].as_u64(), Some(7));
        assert_eq!(snap["gauges"]["radius"].as_f64(), Some(5.0));
    }

    #[test]
    fn histogram_percentiles_nearest_rank() {
        let r = MetricsRecorder::new();
        for v in 1..=100 {
            r.observe("lat", v as f64);
        }
        let snap = r.snapshot();
        let h = &snap["histograms"]["lat"];
        assert_eq!(h["count"].as_u64(), Some(100));
        assert_eq!(h["min"].as_f64(), Some(1.0));
        assert_eq!(h["max"].as_f64(), Some(100.0));
        assert_eq!(h["p50"].as_f64(), Some(50.0));
        assert_eq!(h["p90"].as_f64(), Some(90.0));
        assert_eq!(h["p99"].as_f64(), Some(99.0));
        assert_eq!(h["mean"].as_f64(), Some(50.5));
    }

    #[test]
    fn empty_histogram_has_no_percentiles() {
        // Pin the contract: percentile of nothing is None, and the summary
        // of an empty histogram is just {"count": 0} — no fabricated zeros.
        assert_eq!(Histogram::percentile(&[], 50.0), None);
        assert_eq!(Histogram::percentile(&[], 99.0), None);
        let h = Histogram::default();
        let s = h.summary(1.0);
        assert_eq!(s["count"].as_u64(), Some(0));
        let keys: Vec<&str> = s
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, vec!["count"]);
        for absent in ["min", "max", "mean", "p50", "p90", "p99", "total"] {
            assert!(s.get(absent).is_none(), "{absent} must be omitted");
        }
    }

    #[test]
    fn schema_version_checks() {
        let versioned = Value::Object(vec![(
            "schema_version".to_string(),
            Value::from_u64(SCHEMA_VERSION),
        )]);
        assert!(check_schema_version(&versioned).is_ok());
        // Pre-versioning artifacts (no field) still load.
        assert!(check_schema_version(&Value::Object(vec![])).is_ok());
        let future = Value::Object(vec![("schema_version".to_string(), Value::from_u64(99))]);
        let err = check_schema_version(&future).unwrap_err();
        assert!(err.contains("99"), "{err}");
        assert!(err.contains(&SCHEMA_VERSION.to_string()), "{err}");
        let junk = Value::Object(vec![(
            "schema_version".to_string(),
            Value::String("x".into()),
        )]);
        assert!(check_schema_version(&junk).is_err());
        // Snapshots are stamped.
        let snap = MetricsRecorder::new().snapshot();
        assert_eq!(snap["schema_version"].as_u64(), Some(SCHEMA_VERSION));
    }

    #[test]
    fn percentile_of_single_value() {
        let r = MetricsRecorder::new();
        r.observe("one", 7.5);
        let h = &r.snapshot()["histograms"]["one"];
        for p in ["p50", "p90", "p99", "min", "max", "mean"] {
            assert_eq!(h[p].as_f64(), Some(7.5), "{p}");
        }
    }

    #[test]
    fn spans_nest_into_slash_paths() {
        let r = MetricsRecorder::new();
        {
            let outer = r.span("plan");
            assert_eq!(outer.path(), Some("plan"));
            {
                let inner = r.span("bfs");
                assert_eq!(inner.path(), Some("plan/bfs"));
            }
            let sibling = r.span("generate");
            assert_eq!(sibling.path(), Some("plan/generate"));
        }
        let snap = r.snapshot();
        assert_eq!(snap["spans"]["plan"]["count"].as_u64(), Some(1));
        assert_eq!(snap["spans"]["plan/bfs"]["count"].as_u64(), Some(1));
        assert_eq!(snap["spans"]["plan/generate"]["count"].as_u64(), Some(1));
        // An outer span strictly contains its children in wall time.
        let outer_ms = snap["spans"]["plan"]["total"].as_f64().unwrap();
        let inner_ms = snap["spans"]["plan/bfs"]["total"].as_f64().unwrap();
        assert!(outer_ms >= inner_ms);
    }

    #[test]
    fn jsonl_sink_receives_events_and_spans() {
        let buffer = SharedBuffer::new();
        let r = MetricsRecorder::with_sink(Box::new(buffer.clone()));
        r.event(
            "round",
            &[("round", Value::from_u64(1)), ("sent", Value::from_u64(4))],
        );
        {
            let _s = r.span("work");
        }
        r.flush();
        let lines = buffer.lines();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0]["event"].as_str(), Some("round"));
        assert_eq!(lines[0]["sent"].as_u64(), Some(4));
        assert_eq!(lines[1]["event"].as_str(), Some("span"));
        assert_eq!(lines[1]["path"].as_str(), Some("work"));
        assert!(lines[1]["elapsed_ns"].as_u64().is_some());
        assert_eq!(r.events_emitted(), 2);
    }

    #[test]
    fn noop_recorder_produces_nothing_and_inert_spans() {
        let r = NoopRecorder;
        assert!(!r.enabled());
        r.counter("x", 1);
        r.gauge("y", 2.0);
        r.observe("z", 3.0);
        r.event("e", &[]);
        {
            let guard = r.span("quiet");
            assert_eq!(guard.path(), None);
        }
        // The span stack must stay empty so later enabled recorders see
        // clean nesting.
        let real = MetricsRecorder::new();
        let g = real.span("top");
        assert_eq!(g.path(), Some("top"));
    }

    #[test]
    fn recorder_is_shareable_across_threads() {
        let r = std::sync::Arc::new(MetricsRecorder::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let r = std::sync::Arc::clone(&r);
                scope.spawn(move || {
                    for _ in 0..1000 {
                        r.counter("hits", 1);
                    }
                    r.observe("per_thread", 1.0);
                });
            }
        });
        assert_eq!(r.counter_value("hits"), 4000);
        assert_eq!(
            r.snapshot()["histograms"]["per_thread"]["count"].as_u64(),
            Some(4)
        );
    }
}
