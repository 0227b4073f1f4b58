//! The traced run's recorder: it timestamps the spans and events the
//! library already emits and splits an executor's wall time between them.
//!
//! Nothing here is guessed. A stretch of time that no rule below claims is
//! left to the caller, which reports it as `unattributed_ms`.

use gossip_telemetry::{Recorder, Value};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The markers attribution needs; every other span and event is dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mark {
    RoundStart,
    RoundEnd,
    EpochEnd,
    Churn,
    /// A `recover/epoch` span, which began at `start`.
    EpochSpan {
        start: Instant,
    },
    /// A planner `labeling` span of the given length.
    Labeling {
        nanos: u64,
    },
}

/// A [`Recorder`] that keeps a timestamped list of [`Mark`]s.
#[derive(Debug, Default)]
pub struct Timeline {
    marks: Mutex<Vec<(Instant, Mark)>>,
}

/// How a `ChurnExecutor::run` window splits, in milliseconds.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct ChurnSplit {
    /// From the start of `run` to the first `round_start`.
    pub setup_ms: f64,
    /// From a batch's first `churn` event to the next `round_start`.
    pub repair_ms: f64,
    /// From each `round_start` to its `round_end`.
    pub exec_ms: f64,
}

impl Timeline {
    fn push(&self, at: Instant, mark: Mark) {
        self.marks
            .lock()
            .expect("timeline lock poisoned by a panicking recorder call")
            .push((at, mark));
    }

    fn marks(&self) -> Vec<(Instant, Mark)> {
        self.marks
            .lock()
            .expect("timeline lock poisoned by a panicking recorder call")
            .clone()
    }

    /// Total time inside the planner's `labeling` spans.
    pub fn labeling_ms(&self) -> f64 {
        let nanos: u64 = self
            .marks()
            .iter()
            .map(|(_, m)| match m {
                Mark::Labeling { nanos } => *nanos,
                _ => 0,
            })
            .sum();
        nanos as f64 / 1e6
    }

    /// Splits a `ResilientExecutor::run` into (lossy replay, repair
    /// planning): the sum of the `recover/epoch` spans, and the sum of the
    /// gaps from each `epoch_end` to the start of the next epoch span.
    pub fn recover_split(&self) -> (f64, f64) {
        let (mut replay, mut repair) = (Duration::ZERO, Duration::ZERO);
        let mut last_end = None;
        for (at, mark) in self.marks() {
            match mark {
                Mark::EpochEnd => last_end = Some(at),
                Mark::EpochSpan { start } => {
                    replay += at - start;
                    if let Some(end) = last_end.take() {
                        repair += start.saturating_duration_since(end);
                    }
                }
                _ => {}
            }
        }
        (ms(replay), ms(repair))
    }

    /// Splits a `ChurnExecutor::run` that ran from `start` to `end`. Time
    /// from a `round_end` to the next `churn` event or `round_start` is
    /// claimed by no layer.
    pub fn churn_split(&self, start: Instant, end: Instant) -> ChurnSplit {
        #[derive(PartialEq)]
        enum Phase {
            Setup,
            Repair,
            Exec,
            Idle,
        }
        let mut split = ChurnSplit::default();
        let mut close = |phase: &Phase, from: Instant, to: Instant| {
            let t = ms(to.saturating_duration_since(from));
            match phase {
                Phase::Setup => split.setup_ms += t,
                Phase::Repair => split.repair_ms += t,
                Phase::Exec => split.exec_ms += t,
                Phase::Idle => {}
            }
        };
        let (mut phase, mut since) = (Phase::Setup, start);
        for (at, mark) in self.marks() {
            let next = match mark {
                Mark::RoundStart => Phase::Exec,
                Mark::RoundEnd => Phase::Idle,
                Mark::Churn if phase == Phase::Idle => Phase::Repair,
                _ => continue,
            };
            close(&phase, since, at);
            (phase, since) = (next, at);
        }
        close(&phase, since, end);
        split
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

impl Recorder for Timeline {
    fn enabled(&self) -> bool {
        true
    }
    fn counter(&self, _name: &str, _delta: u64) {}
    fn gauge(&self, _name: &str, _value: f64) {}
    fn observe(&self, _name: &str, _value: f64) {}

    fn event(&self, name: &str, _fields: &[(&str, Value)]) {
        let mark = match name {
            "round_start" => Mark::RoundStart,
            "round_end" => Mark::RoundEnd,
            "epoch_end" => Mark::EpochEnd,
            "churn" => Mark::Churn,
            _ => return,
        };
        self.push(Instant::now(), mark);
    }

    fn span_observe(&self, path: &str, nanos: u64) {
        let now = Instant::now();
        let mark = if path == "recover/epoch" {
            Mark::EpochSpan {
                start: now - Duration::from_nanos(nanos),
            }
        } else if path == "labeling" || path.ends_with("/labeling") {
            Mark::Labeling { nanos }
        } else {
            return;
        };
        self.push(now, mark);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(t0: Instant, ms: u64) -> Instant {
        t0 + Duration::from_millis(ms)
    }

    #[test]
    fn churn_split_follows_the_markers() {
        let t0 = Instant::now();
        let tl = Timeline::default();
        for (t, m) in [
            (2, Mark::RoundStart),
            (5, Mark::RoundEnd),
            (6, Mark::Churn),
            (7, Mark::Churn),
            (10, Mark::RoundStart),
            (11, Mark::RoundEnd),
        ] {
            tl.push(at(t0, t), m);
        }
        let s = tl.churn_split(t0, at(t0, 20));
        assert!((s.setup_ms - 2.0).abs() < 1e-9);
        assert!((s.exec_ms - 4.0).abs() < 1e-9);
        assert!((s.repair_ms - 4.0).abs() < 1e-9);
    }

    #[test]
    fn recover_split_claims_spans_and_the_gaps_between_them() {
        let t0 = Instant::now();
        let tl = Timeline::default();
        tl.push(at(t0, 3), Mark::EpochSpan { start: at(t0, 1) });
        tl.push(at(t0, 4), Mark::EpochEnd);
        tl.push(at(t0, 12), Mark::EpochSpan { start: at(t0, 10) });
        tl.push(at(t0, 13), Mark::EpochEnd);
        let (replay, repair) = tl.recover_split();
        assert!((replay - 4.0).abs() < 1e-9);
        assert!((repair - 6.0).abs() < 1e-9);
    }
}
