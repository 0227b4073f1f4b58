//! [`LiveRegistry`]: the one metrics registry. It aggregates counters,
//! gauges, histograms and span timings for `gossip serve`, which scrapes
//! it while executor threads write, and behind [`crate::MetricsRecorder`],
//! which adds a JSONL event sink for a post-run artifact. It keeps:
//!
//! - counters and gauges as individual `AtomicU64` cells (gauges store the
//!   `f64` bit pattern), found through a name map behind an `RwLock` that
//!   is only write-locked the first time a name appears — steady-state
//!   updates are a read-lock plus one atomic RMW, and scrapes never block
//!   writers on anything coarser than a per-histogram mutex;
//! - histograms and span timings as [`Histogram`]s behind per-entry
//!   mutexes, mergeable across registries via [`Histogram::merge`];
//! - events as a monotone sequence counter plus an optional *tap*: when no
//!   tap is installed (no `/events` subscriber has ever connected) an
//!   event costs one atomic increment and no rendering; a tap receives
//!   each event pre-rendered as one NDJSON line.
//!
//! The registry is exposed over HTTP by `gossip-obsd`, which renders it in
//! Prometheus text exposition format; [`LiveRegistry::snapshot`] is the
//! JSON document both recorders report.

use crate::{Histogram, Recorder, Value, SCHEMA_VERSION};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

/// Callback invoked with `(seq, ndjson_line)` for every event once
/// installed via [`LiveRegistry::set_event_tap`].
pub type EventTap = Arc<dyn Fn(u64, &str) + Send + Sync>;

/// Returns the cell for `name`, creating it under the write lock only on
/// first use; every later access is a shared read lock plus a clone of the
/// `Arc`.
fn slot<V: Clone>(map: &RwLock<BTreeMap<String, V>>, name: &str, make: impl FnOnce() -> V) -> V {
    if let Some(v) = map.read().unwrap_or_else(|e| e.into_inner()).get(name) {
        return v.clone();
    }
    let mut w = map.write().unwrap_or_else(|e| e.into_inner());
    w.entry(name.to_string()).or_insert_with(make).clone()
}

fn read_map<V: Clone>(map: &RwLock<BTreeMap<String, V>>) -> BTreeMap<String, V> {
    map.read().unwrap_or_else(|e| e.into_inner()).clone()
}

/// Histograms behind per-name mutexes.
type Histograms = RwLock<BTreeMap<String, Arc<Mutex<Histogram>>>>;

/// Applies `f` to histogram `name` of `map`, created empty on first use.
fn with_histogram(map: &Histograms, name: &str, f: impl FnOnce(&mut Histogram)) {
    let cell = slot(map, name, || Arc::new(Mutex::new(Histogram::new())));
    f(&mut cell.lock().unwrap_or_else(|e| e.into_inner()));
}

/// Point-in-time copies of every histogram of `map`, name-sorted.
fn copies(map: &Histograms) -> Vec<(String, Histogram)> {
    read_map(map)
        .into_iter()
        .map(|(k, v)| (k, v.lock().unwrap_or_else(|e| e.into_inner()).clone()))
        .collect()
}

/// One event as a JSON line: `head` members, `event`, then `fields`.
pub(crate) fn event_line(
    head: Vec<(String, Value)>,
    name: &str,
    fields: &[(&str, Value)],
) -> String {
    let mut members = head;
    members.push(("event".to_string(), Value::String(name.to_string())));
    members.extend(fields.iter().map(|(k, v)| (k.to_string(), v.clone())));
    serde_json::to_string(&Value::Object(members)).unwrap_or_else(|_| String::from("{}"))
}

/// Lock-cheap live metrics registry (see the module docs).
pub struct LiveRegistry {
    start: Instant,
    counters: RwLock<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: RwLock<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: Histograms,
    /// Span durations in nanoseconds, keyed by nested path.
    spans: Histograms,
    events_emitted: AtomicU64,
    tap: RwLock<Option<EventTap>>,
}

impl Default for LiveRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl LiveRegistry {
    /// An empty registry with no event tap.
    pub fn new() -> LiveRegistry {
        LiveRegistry {
            start: Instant::now(),
            counters: RwLock::new(BTreeMap::new()),
            gauges: RwLock::new(BTreeMap::new()),
            histograms: RwLock::new(BTreeMap::new()),
            spans: RwLock::new(BTreeMap::new()),
            events_emitted: AtomicU64::new(0),
            tap: RwLock::new(None),
        }
    }

    /// Milliseconds since the registry was created.
    pub fn elapsed_ms(&self) -> f64 {
        self.start.elapsed().as_secs_f64() * 1e3
    }

    /// Installs the event tap: from now on every [`Recorder::event`] is
    /// rendered to one NDJSON line and handed to `tap`. Replaces any
    /// previous tap.
    pub fn set_event_tap(&self, tap: EventTap) {
        *self.tap.write().unwrap_or_else(|e| e.into_inner()) = Some(tap);
    }

    /// Removes the event tap; events go back to costing one atomic add.
    pub fn clear_event_tap(&self) {
        *self.tap.write().unwrap_or_else(|e| e.into_inner()) = None;
    }

    /// Current value of a counter (0 if never touched).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
            .map_or(0, |c| c.load(Ordering::Relaxed))
    }

    /// Current value of a gauge, if ever set.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.gauges
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
            .map(|g| f64::from_bits(g.load(Ordering::Relaxed)))
    }

    /// A point-in-time copy of a histogram, if it exists.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.histograms
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
            .map(|h| h.lock().unwrap_or_else(|e| e.into_inner()).clone())
    }

    /// Number of events emitted so far.
    pub fn events_emitted(&self) -> u64 {
        self.events_emitted.load(Ordering::Relaxed)
    }

    /// All counters, name-sorted, as of now.
    pub fn counters(&self) -> Vec<(String, u64)> {
        read_map(&self.counters)
            .into_iter()
            .map(|(k, v)| (k, v.load(Ordering::Relaxed)))
            .collect()
    }

    /// All gauges, name-sorted, as of now.
    pub fn gauges(&self) -> Vec<(String, f64)> {
        read_map(&self.gauges)
            .into_iter()
            .map(|(k, v)| (k, f64::from_bits(v.load(Ordering::Relaxed))))
            .collect()
    }

    /// Point-in-time copies of all histograms, name-sorted.
    pub fn histograms(&self) -> Vec<(String, Histogram)> {
        copies(&self.histograms)
    }

    /// Point-in-time copies of all span-duration histograms (nanoseconds),
    /// keyed by nested span path, name-sorted.
    pub fn spans(&self) -> Vec<(String, Histogram)> {
        copies(&self.spans)
    }

    /// Absorbs `other` into this registry: counters add, gauges take
    /// `other`'s value where it set one (last write wins, matching the
    /// gauge contract), histograms and span timings merge sample-for-sample
    /// via [`Histogram::merge`], and event counts add. This is how
    /// per-thread or per-epoch registries aggregate without draining any
    /// recorder mid-run.
    pub fn merge(&self, other: &LiveRegistry) {
        for (name, v) in other.counters() {
            self.counter(&name, v);
        }
        for (name, v) in other.gauges() {
            self.gauge(&name, v);
        }
        for (name, h) in other.histograms() {
            with_histogram(&self.histograms, &name, |mine| mine.merge(&h));
        }
        for (name, h) in other.spans() {
            with_histogram(&self.spans, &name, |mine| mine.merge(&h));
        }
        self.events_emitted
            .fetch_add(other.events_emitted(), Ordering::Relaxed);
    }

    /// Everything recorded so far as one JSON document:
    /// `{schema_version, counters, gauges, histograms, spans,
    /// events_emitted}` with span summaries in milliseconds.
    pub fn snapshot(&self) -> Value {
        let counters = Value::Object(
            self.counters()
                .into_iter()
                .map(|(k, v)| (k, Value::from_u64(v)))
                .collect(),
        );
        let gauges = Value::Object(
            self.gauges()
                .into_iter()
                .map(|(k, v)| (k, Value::from_f64(v)))
                .collect(),
        );
        let histograms = Value::Object(
            self.histograms()
                .into_iter()
                .map(|(k, h)| (k, h.summary(1.0)))
                .collect(),
        );
        let spans = Value::Object(
            self.spans()
                .into_iter()
                .map(|(k, h)| (k, h.summary(1e-6)))
                .collect(),
        );
        Value::Object(vec![
            (
                "schema_version".to_string(),
                Value::from_u64(SCHEMA_VERSION),
            ),
            ("counters".to_string(), counters),
            ("gauges".to_string(), gauges),
            ("histograms".to_string(), histograms),
            ("spans".to_string(), spans),
            (
                "events_emitted".to_string(),
                Value::from_u64(self.events_emitted()),
            ),
        ])
    }
}

impl Recorder for LiveRegistry {
    fn enabled(&self) -> bool {
        true
    }

    fn counter(&self, name: &str, delta: u64) {
        let cell = slot(&self.counters, name, || Arc::new(AtomicU64::new(0)));
        cell.fetch_add(delta, Ordering::Relaxed);
    }

    fn gauge(&self, name: &str, value: f64) {
        let cell = slot(&self.gauges, name, || Arc::new(AtomicU64::new(0)));
        cell.store(value.to_bits(), Ordering::Relaxed);
    }

    fn observe(&self, name: &str, value: f64) {
        with_histogram(&self.histograms, name, |h| h.record(value));
    }

    fn event(&self, name: &str, fields: &[(&str, Value)]) {
        let seq = self.events_emitted.fetch_add(1, Ordering::Relaxed) + 1;
        // Render only when a subscriber is listening: the tap read lock is
        // uncontended in steady state and `None` short-circuits all work.
        let tap = self
            .tap
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .as_ref()
            .map(Arc::clone);
        if let Some(tap) = tap {
            let head = vec![
                ("seq".to_string(), Value::from_u64(seq)),
                ("t_ms".to_string(), Value::from_f64(self.elapsed_ms())),
            ];
            tap(seq, &event_line(head, name, fields));
        }
    }

    fn span_observe(&self, path: &str, nanos: u64) {
        with_histogram(&self.spans, path, |h| h.record(nanos as f64));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RecorderExt;

    #[test]
    fn counters_gauges_histograms_record() {
        let r = LiveRegistry::new();
        r.counter("sends", 2);
        r.counter("sends", 3);
        r.gauge("round_current", 7.0);
        r.gauge("round_current", 9.0);
        r.observe("fanout", 2.0);
        r.observe("fanout", 4.0);
        assert_eq!(r.counter_value("sends"), 5);
        assert_eq!(r.gauge_value("round_current"), Some(9.0));
        assert_eq!(r.gauge_value("absent"), None);
        let h = r.histogram("fanout").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 6.0);
        let snap = r.snapshot();
        assert_eq!(snap["counters"]["sends"].as_u64(), Some(5));
        assert_eq!(snap["gauges"]["round_current"].as_f64(), Some(9.0));
        assert_eq!(snap["histograms"]["fanout"]["count"].as_u64(), Some(2));
    }

    #[test]
    fn events_count_without_tap_and_render_with_tap() {
        let r = LiveRegistry::new();
        r.event("round_end", &[("round", Value::from_u64(3))]);
        assert_eq!(r.events_emitted(), 1);
        let lines: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&lines);
        r.set_event_tap(Arc::new(move |_seq, line| {
            sink.lock().unwrap().push(line.to_string());
        }));
        r.event("round_end", &[("round", Value::from_u64(4))]);
        r.clear_event_tap();
        r.event("round_end", &[("round", Value::from_u64(5))]);
        assert_eq!(r.events_emitted(), 3);
        let lines = lines.lock().unwrap();
        assert_eq!(lines.len(), 1, "only the tapped event renders");
        let v: Value = serde_json::from_str(&lines[0]).unwrap();
        assert_eq!(v["event"].as_str(), Some("round_end"));
        assert_eq!(v["round"].as_u64(), Some(4));
        assert_eq!(v["seq"].as_u64(), Some(2));
    }

    #[test]
    fn spans_record_into_span_histograms() {
        let r = LiveRegistry::new();
        {
            let _outer = r.span("serve");
            let _inner = r.span("epoch");
        }
        let spans = r.spans();
        let paths: Vec<&str> = spans.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(paths, vec!["serve", "serve/epoch"]);
        assert!(spans.iter().all(|(_, h)| h.count() == 1));
        let snap = r.snapshot();
        assert_eq!(snap["spans"]["serve"]["count"].as_u64(), Some(1));
    }

    #[test]
    fn merge_aggregates_two_registries() {
        let a = LiveRegistry::new();
        let b = LiveRegistry::new();
        a.counter("sends", 2);
        b.counter("sends", 5);
        b.counter("losses", 1);
        a.gauge("round_current", 3.0);
        b.gauge("round_current", 8.0);
        a.observe("fanout", 1.0);
        b.observe("fanout", 2.0);
        b.observe("fanout", 3.0);
        b.event("e", &[]);
        a.merge(&b);
        assert_eq!(a.counter_value("sends"), 7);
        assert_eq!(a.counter_value("losses"), 1);
        assert_eq!(a.gauge_value("round_current"), Some(8.0));
        assert_eq!(a.histogram("fanout").unwrap().values(), &[1.0, 2.0, 3.0]);
        assert_eq!(a.events_emitted(), 1);
    }

    #[test]
    fn concurrent_writers_lose_nothing() {
        let r = Arc::new(LiveRegistry::new());
        std::thread::scope(|scope| {
            for i in 0..4 {
                let r = Arc::clone(&r);
                scope.spawn(move || {
                    for j in 0..1000 {
                        r.counter("hits", 1);
                        r.gauge(&format!("g{i}"), j as f64);
                        r.observe("lat", j as f64);
                        r.event("tick", &[]);
                    }
                });
            }
        });
        assert_eq!(r.counter_value("hits"), 4000);
        assert_eq!(r.histogram("lat").unwrap().count(), 4000);
        assert_eq!(r.events_emitted(), 4000);
        for i in 0..4 {
            assert_eq!(r.gauge_value(&format!("g{i}")), Some(999.0));
        }
    }
}
