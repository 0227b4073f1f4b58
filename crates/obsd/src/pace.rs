//! [`Paced`]: a recorder decorator that slows a run down to watchable
//! speed.
//!
//! A simulated gossip run over a small graph finishes in microseconds —
//! nothing a human pointing `curl` at `/metrics`, or a CI smoke job
//! scraping twice, could ever catch mid-flight. `Paced` wraps any
//! [`Recorder`] and stretches the round cadence without touching any
//! executor API: pacing is purely an observer concern, so it lives in the
//! observability layer.
//!
//! The sleep happens *between* rounds — a `round_end` arms a pending
//! delay that the next `round_start` consumes — so the final round of a
//! run ends immediately instead of tacking one useless delay onto every
//! paced execution.

use gossip_telemetry::{Recorder, TxBatch, Value};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Forwards everything to `inner`, sleeping `delay` between one round's
/// end and the next round's start (a zero delay forwards transparently).
pub struct Paced<'r> {
    inner: &'r dyn Recorder,
    delay: Duration,
    /// Set by `round_end`, consumed (with the sleep) by the next
    /// `round_start` — never by run teardown.
    pending: AtomicBool,
}

impl<'r> Paced<'r> {
    /// Wraps `inner`, pausing `delay` between consecutive rounds.
    pub fn new(inner: &'r dyn Recorder, delay: Duration) -> Paced<'r> {
        Paced {
            inner,
            delay,
            pending: AtomicBool::new(false),
        }
    }
}

impl Recorder for Paced<'_> {
    fn enabled(&self) -> bool {
        self.inner.enabled()
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

    fn event(&self, name: &str, fields: &[(&str, Value)]) {
        if name == "round_start"
            && self.pending.swap(false, Ordering::Relaxed)
            && !self.delay.is_zero()
        {
            std::thread::sleep(self.delay);
        }
        self.inner.event(name, fields);
        if name == "round_end" {
            self.pending.store(true, Ordering::Relaxed);
        }
    }

    fn span_observe(&self, path: &str, nanos: u64) {
        self.inner.span_observe(path, nanos);
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
    use gossip_telemetry::LiveRegistry;
    use std::time::Instant;

    #[test]
    fn delays_between_rounds_but_not_after_the_last() {
        let reg = LiveRegistry::new();
        let paced = Paced::new(&reg, Duration::from_millis(20));
        let start = Instant::now();
        paced.counter("c", 1);
        paced.gauge("g", 2.0);
        paced.event("loss", &[]);
        paced.event("round_start", &[]);
        paced.event("round_end", &[]);
        assert!(
            start.elapsed() < Duration::from_millis(15),
            "a round_end alone must not sleep — the delay is armed, not paid"
        );
        paced.event("round_start", &[]);
        assert!(
            start.elapsed() >= Duration::from_millis(20),
            "the next round_start pays the armed delay"
        );
        let mid = Instant::now();
        paced.event("round_end", &[]);
        paced.event("epoch_end", &[]);
        assert!(
            mid.elapsed() < Duration::from_millis(15),
            "the final round_end must not sleep"
        );
        assert_eq!(reg.counter_value("c"), 1);
        assert_eq!(reg.gauge_value("g"), Some(2.0));
        assert_eq!(reg.events_emitted(), 6);
    }

    #[test]
    fn forwards_transmissions_to_the_inner_recorder() {
        use gossip_telemetry::flight::FlightHeader;
        use gossip_telemetry::{FlightRecorder, RecorderExt};

        let flight = FlightRecorder::new(FlightHeader {
            n: 2,
            n_msgs: 2,
            radius: 1,
            engine: "test".into(),
            graph_digest: 0,
            schedule_digest: 0,
            fault_digest: 0,
            origins: vec![0, 1],
        });
        let paced = Paced::new(&flight, Duration::ZERO);
        assert!(
            paced.wants_transmissions(),
            "pacing must not hide the inner recorder's interest in transmissions"
        );
        paced.transmission(0, 1, 0, &[1]);
        assert_eq!(flight.len(), 1);
    }
}
