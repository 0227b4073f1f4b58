//! Chrome Trace Event Format sink.
//!
//! Builds trace files loadable by `chrome://tracing`, Perfetto
//! (<https://ui.perfetto.dev>), and speedscope: a JSON **array of event
//! objects**, each with the `ph` (phase), `ts` (microsecond timestamp),
//! `pid`, and `tid` fields of the published format. Two event phases cover
//! everything this workspace needs:
//!
//! - `"X"` *complete* events (a named interval with `dur`) — one per
//!   multicast in a schedule lane or per executor-thread round;
//! - `"i"` *instant* events — message arrivals;
//! - `"M"` *metadata* events — process/thread names, so processor lanes
//!   are labeled `P3` instead of `tid 3`.
//!
//! Timestamps are `f64` microseconds. Simulated schedules map one logical
//! round to [`ChromeTrace::ROUND_US`] so rounds are readable at default
//! zoom; wall-clock traces (the threaded online executor) pass real
//! elapsed microseconds.

use crate::Value;

/// Microseconds per logical round in schedule-time traces: 1 round = 1 ms.
const ROUND_US: f64 = 1000.0;

/// One Chrome trace event.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Event name (shown on the slice).
    pub name: String,
    /// Comma-separated categories (filterable in the viewer).
    pub cat: String,
    /// Phase: `X` complete, `i` instant, `M` metadata.
    pub ph: char,
    /// Timestamp in microseconds.
    pub ts_us: f64,
    /// Duration in microseconds (complete events only).
    pub dur_us: Option<f64>,
    /// Process id (lane group).
    pub pid: u64,
    /// Thread id (lane).
    pub tid: u64,
    /// Extra `args` shown in the selection panel.
    pub args: Vec<(String, Value)>,
}

impl TraceEvent {
    fn to_value(&self) -> Value {
        let mut members = vec![
            ("name".to_string(), Value::String(self.name.clone())),
            ("cat".to_string(), Value::String(self.cat.clone())),
            ("ph".to_string(), Value::String(self.ph.to_string())),
            ("ts".to_string(), Value::from_f64(self.ts_us)),
            ("pid".to_string(), Value::from_u64(self.pid)),
            ("tid".to_string(), Value::from_u64(self.tid)),
        ];
        if let Some(d) = self.dur_us {
            members.push(("dur".to_string(), Value::from_f64(d)));
        }
        if self.ph == 'i' {
            // Instant scope: thread-scoped, so the tick renders in-lane.
            members.push(("s".to_string(), Value::String("t".to_string())));
        }
        if !self.args.is_empty() {
            members.push(("args".to_string(), Value::Object(self.args.clone())));
        }
        Value::Object(members)
    }
}

/// An in-memory trace under construction.
#[derive(Debug, Clone, Default)]
pub struct ChromeTrace {
    events: Vec<TraceEvent>,
}

impl ChromeTrace {
    /// Microseconds per logical round in schedule-time traces.
    pub const ROUND_US: f64 = ROUND_US;

    /// An empty trace.
    pub fn new() -> ChromeTrace {
        ChromeTrace::default()
    }

    /// Number of events so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events have been added.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Names a process lane group (`"M"` metadata event).
    pub fn process_name(&mut self, pid: u64, name: &str) {
        self.events.push(TraceEvent {
            name: "process_name".to_string(),
            cat: "__metadata".to_string(),
            ph: 'M',
            ts_us: 0.0,
            dur_us: None,
            pid,
            tid: 0,
            args: vec![("name".to_string(), Value::String(name.to_string()))],
        });
    }

    /// Names a thread lane (`"M"` metadata event).
    pub fn thread_name(&mut self, pid: u64, tid: u64, name: &str) {
        self.events.push(TraceEvent {
            name: "thread_name".to_string(),
            cat: "__metadata".to_string(),
            ph: 'M',
            ts_us: 0.0,
            dur_us: None,
            pid,
            tid,
            args: vec![("name".to_string(), Value::String(name.to_string()))],
        });
    }

    /// Adds a `"X"` complete event: a named interval on lane `(pid, tid)`.
    #[allow(clippy::too_many_arguments)]
    pub fn complete(
        &mut self,
        name: &str,
        cat: &str,
        pid: u64,
        tid: u64,
        ts_us: f64,
        dur_us: f64,
        args: Vec<(String, Value)>,
    ) {
        self.events.push(TraceEvent {
            name: name.to_string(),
            cat: cat.to_string(),
            ph: 'X',
            ts_us,
            dur_us: Some(dur_us),
            pid,
            tid,
            args,
        });
    }

    /// Adds an `"i"` instant event on lane `(pid, tid)`.
    pub fn instant(
        &mut self,
        name: &str,
        cat: &str,
        pid: u64,
        tid: u64,
        ts_us: f64,
        args: Vec<(String, Value)>,
    ) {
        self.events.push(TraceEvent {
            name: name.to_string(),
            cat: cat.to_string(),
            ph: 'i',
            ts_us,
            dur_us: None,
            pid,
            tid,
            args,
        });
    }

    /// Appends all of `other`'s events, so independent traces (e.g. a
    /// logical-round schedule lane and a wall-clock executor lane, under
    /// different `pid`s) combine into one file.
    pub fn extend(&mut self, other: ChromeTrace) {
        self.events.extend(other.events);
    }

    /// The trace as the format's JSON array of event objects.
    pub fn to_value(&self) -> Value {
        Value::Array(self.events.iter().map(TraceEvent::to_value).collect())
    }

    /// The trace rendered as JSON text: the same array as
    /// [`ChromeTrace::to_value`], rendered one event at a time so the
    /// whole tree never exists at once.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (idx, event) in self.events.iter().enumerate() {
            if idx > 0 {
                out.push(',');
            }
            out.push_str(&serde_json::to_string(&event.to_value()).unwrap_or_default());
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_carry_required_fields() {
        let mut t = ChromeTrace::new();
        t.process_name(0, "schedule");
        t.thread_name(0, 3, "P3");
        t.complete(
            "m5",
            "send",
            0,
            3,
            2000.0,
            1000.0,
            vec![("msg".to_string(), Value::from_u64(5))],
        );
        t.instant("recv m5", "recv", 0, 4, 3000.0, vec![]);
        let v = t.to_value();
        let events = v.as_array().expect("array of events");
        assert_eq!(events.len(), 4);
        for e in events {
            for field in ["ph", "ts", "pid", "tid", "name"] {
                assert!(e.get(field).is_some(), "missing {field} in {e:?}");
            }
        }
        assert_eq!(events[2]["ph"].as_str(), Some("X"));
        assert_eq!(events[2]["dur"].as_f64(), Some(1000.0));
        assert_eq!(events[2]["args"]["msg"].as_u64(), Some(5));
        assert_eq!(events[3]["ph"].as_str(), Some("i"));
        assert_eq!(events[3]["s"].as_str(), Some("t"));
    }

    #[test]
    fn json_round_trips_as_array() {
        let mut t = ChromeTrace::new();
        t.complete("a", "c", 0, 1, 0.0, 10.0, vec![]);
        let parsed: Value = serde_json::from_str(&t.to_json()).expect("valid JSON");
        assert_eq!(parsed.as_array().map(Vec::len), Some(1));
    }

    #[test]
    fn json_renders_the_value_tree() {
        let mut t = ChromeTrace::new();
        assert_eq!(t.to_json(), "[]");
        t.process_name(0, "schedule");
        let args = vec![("msg".to_string(), Value::from_u64(5))];
        t.complete("m5", "send", 0, 1, 0.0, 10.0, args);
        t.instant("recv m5", "recv", 0, 2, 10.0, vec![]);
        assert_eq!(t.to_json(), serde_json::to_string(&t.to_value()).unwrap());
    }
}
