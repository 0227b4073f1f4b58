//! `SimKernel::run_recorded` into a recorder that wants transmissions, on
//! a planned schedule of at least `GRAIN` deliveries whose rounds average
//! at least `PIPELINE_ROUND_DELIVERIES`: at two rayon threads the rounds
//! execute on a worker thread while the calling thread emits the stream,
//! at one thread in one loop. Both must give the recorder the
//! same calls, return the same `Result` and leave the kernel in the same
//! state — on the clean schedule and on copies that fail at the first, a
//! middle and the last round — and the capture must keep its bytes. A
//! panicking recorder fails the run instead of hanging it.
//!
//! `rayon::current_num_threads` reads `RAYON_NUM_THREADS` on every call,
//! so each test pins it under one lock: the tests of this binary never
//! race on it.

use gossip_core::GossipPlanner;
use gossip_graph::Graph;
use gossip_model::{
    BitSet, CommModel, FlatSchedule, ModelError, SimKernel, SimOutcome, GRAIN,
    PIPELINE_ROUND_DELIVERIES,
};
use gossip_telemetry::flight::Digest;
use gossip_telemetry::{FlightHeader, FlightRecorder, Recorder, TxBatch, Value};
use gossip_workloads::random_connected;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Duration;

static THREADS: Mutex<()> = Mutex::new(());

/// Runs `f` with `RAYON_NUM_THREADS` pinned to `threads`.
fn with_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    let _pinned = THREADS.lock().unwrap_or_else(|e| e.into_inner());
    std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
    let out = f();
    std::env::remove_var("RAYON_NUM_THREADS");
    out
}

/// A fast plan of G(600, 18/n): 359,400 deliveries over 600 messages,
/// 596 per round.
fn instance() -> (Graph, FlatSchedule, Vec<usize>) {
    let n = 600;
    let g = random_connected(n, 18.0 / n as f64, 11);
    let plan = GossipPlanner::new(&g).unwrap().plan_fast().unwrap();
    let flat = &plan.schedule;
    assert!(flat.deliveries() >= GRAIN);
    assert!(
        flat.deliveries() / flat.rounds() >= PIPELINE_ROUND_DELIVERIES,
        "the two-thread runs must take the pipelined path"
    );
    (g, plan.schedule, plan.origin_of_message)
}

/// One recorder call, with everything it carried.
#[derive(Debug, Clone, PartialEq)]
enum Call {
    Counter(String, u64),
    Gauge(String, u64),
    Observe(String, u64),
    Event(String, Vec<(String, Value)>),
    SpanObserve(String),
    Batch {
        round: usize,
        msgs: Vec<u32>,
        senders: Vec<u32>,
        fanouts: Vec<u32>,
        dests: Vec<u32>,
    },
}

/// A recorder that logs every call and the thread it came from.
#[derive(Default)]
struct Log(Mutex<Vec<(Call, ThreadId)>>);

impl Log {
    fn push(&self, call: Call) {
        self.0
            .lock()
            .unwrap()
            .push((call, std::thread::current().id()));
    }
}

impl Recorder for Log {
    fn enabled(&self) -> bool {
        true
    }
    fn counter(&self, name: &str, delta: u64) {
        self.push(Call::Counter(name.into(), delta));
    }
    fn gauge(&self, name: &str, value: f64) {
        self.push(Call::Gauge(name.into(), value.to_bits()));
    }
    fn observe(&self, name: &str, value: f64) {
        self.push(Call::Observe(name.into(), value.to_bits()));
    }
    fn event(&self, name: &str, fields: &[(&str, Value)]) {
        let fields = fields.iter().map(|(k, v)| (k.to_string(), v.clone()));
        self.push(Call::Event(name.into(), fields.collect()));
    }
    fn span_observe(&self, path: &str, _nanos: u64) {
        self.push(Call::SpanObserve(path.into()));
    }
    fn wants_transmissions(&self) -> bool {
        true
    }
    fn transmissions(&self, round: usize, batch: TxBatch<'_>) {
        self.push(Call::Batch {
            round,
            msgs: batch.msgs().to_vec(),
            senders: batch.senders().to_vec(),
            fanouts: batch.fanouts().collect(),
            dests: batch.dests().to_vec(),
        });
    }
}

/// What a recorded run leaves behind: its result, the recorder's calls
/// and the kernel's `time`, `known_pairs` and hold sets.
type Run = (
    Result<SimOutcome, ModelError>,
    Vec<Call>,
    usize,
    usize,
    Vec<BitSet>,
);

fn recorded_run(g: &Graph, flat: &FlatSchedule, origins: &[usize]) -> Run {
    let log = Log::default();
    let mut kernel = SimKernel::with_origins(g, CommModel::Multicast, origins).unwrap();
    let result = kernel.run_recorded(flat, &log);
    let here = std::thread::current().id();
    let calls = log.0.into_inner().unwrap();
    assert!(
        calls.iter().all(|(_, thread)| *thread == here),
        "every recorder call comes from the calling thread"
    );
    let calls = calls.into_iter().map(|(call, _)| call).collect();
    let holds = kernel.hold_bitsets();
    (result, calls, kernel.time(), kernel.known_pairs(), holds)
}

/// A round's transmissions as `(msg, from, dests)` triples.
type Txs = Vec<(u32, u32, Vec<u32>)>;

/// `flat` with the transmissions of round `t` rewritten by `edit`.
fn edit_round(flat: &FlatSchedule, t: usize, mut edit: impl FnMut(&mut Txs)) -> FlatSchedule {
    let (mut round_offsets, mut tx_msg, mut tx_from) = (vec![0u32], Vec::new(), Vec::new());
    let (mut dest_offsets, mut dests) = (vec![0u32], Vec::new());
    for r in 0..flat.rounds() {
        let mut txs: Txs = flat
            .round_range(r)
            .map(|i| (flat.msg_of(i), flat.from_of(i), flat.dests_of(i).to_vec()))
            .collect();
        if r == t {
            edit(&mut txs);
        }
        for (msg, from, to) in txs {
            tx_msg.push(msg);
            tx_from.push(from);
            dests.extend(to);
            dest_offsets.push(dests.len() as u32);
        }
        round_offsets.push(tx_msg.len() as u32);
    }
    FlatSchedule::from_raw_parts(
        flat.n(),
        round_offsets,
        tx_msg,
        tx_from,
        dest_offsets,
        dests,
    )
}

/// A processor that lacks some message when round `t` starts and sends
/// nothing in that round but, perhaps, its first transmission: (that
/// processor, that message).
fn unheld(g: &Graph, flat: &FlatSchedule, origins: &[usize], t: usize) -> (u32, u32) {
    let mut kernel = SimKernel::with_origins(g, CommModel::Multicast, origins).unwrap();
    for r in 0..t {
        kernel.step_round(flat, r).unwrap();
    }
    let busy: Vec<u32> = flat
        .round_range(t)
        .skip(1)
        .map(|i| flat.from_of(i))
        .collect();
    (0..g.n())
        .filter(|p| !busy.contains(&(*p as u32)))
        .find_map(|p| {
            (0..origins.len())
                .find(|&m| !kernel.contains(p, m))
                .map(|m| (p as u32, m as u32))
        })
        .expect("some processor lacks a message")
}

/// The round an error names.
fn error_round(e: &ModelError) -> Option<usize> {
    match e {
        ModelError::ProcessorOutOfRange { round, .. }
        | ModelError::DuplicateSender { round, .. }
        | ModelError::NotAdjacent { round, .. }
        | ModelError::MessageNotHeld { round, .. } => Some(*round),
        _ => None,
    }
}

/// Copies of `flat` that fail at its first, a middle and its last round,
/// on structural rules and on the hold-set rule: (the error's variant,
/// its round, the copy).
fn failing_copies(
    g: &Graph,
    flat: &FlatSchedule,
    origins: &[usize],
) -> Vec<(&'static str, usize, FlatSchedule)> {
    let n = g.n();
    let rounds = flat.rounds();
    let (first, mid, last) = (0, rounds / 2, rounds - 1);
    let from = flat.from_of(flat.round_range(first).start) as usize;
    let stranger = (0..n).find(|&v| v != from && !g.has_edge(from, v)).unwrap() as u32;
    let mut copies = vec![
        (
            "NotAdjacent",
            first,
            edit_round(flat, first, |txs| txs[0].2[0] = stranger),
        ),
        (
            "DuplicateSender",
            mid,
            edit_round(flat, mid, |txs| txs[1].1 = txs[0].1),
        ),
        (
            "ProcessorOutOfRange",
            last,
            edit_round(flat, last, |txs| txs[0].2.push(n as u32)),
        ),
    ];
    // The round's first transmission, sent by a processor that lacks its
    // message.
    for t in [first, mid, last] {
        let (from, msg) = unheld(g, flat, origins, t);
        let copy = edit_round(flat, t, |txs| (txs[0].0, txs[0].1) = (msg, from));
        copies.push(("MessageNotHeld", t, copy));
    }
    copies
}

#[test]
fn pipelined_run_matches_the_one_thread_loop() {
    let (g, flat, origins) = instance();
    let mut cases = vec![("clean".to_string(), None, flat.clone())];
    for (kind, t, copy) in failing_copies(&g, &flat, &origins) {
        cases.push((format!("{kind} at round {t}"), Some((kind, t)), copy));
    }
    for (what, fails, schedule) in &cases {
        let one = with_threads(1, || recorded_run(&g, schedule, &origins));
        let two = with_threads(2, || recorded_run(&g, schedule, &origins));
        match (&one.0, fails) {
            (Ok(outcome), None) => assert!(outcome.complete, "{what}"),
            (Err(e), Some((kind, t))) => {
                assert!(format!("{e:?}").starts_with(kind), "{what}: {e}");
                assert_eq!(error_round(e), Some(*t), "{what}: {e}");
            }
            (result, _) => panic!("{what}: unexpected {result:?}"),
        }
        assert_eq!(one.0, two.0, "{what}: result");
        assert_eq!(one.1.len(), two.1.len(), "{what}: call count");
        assert!(one.1 == two.1, "{what}: recorder calls differ");
        assert_eq!((one.2, one.3), (two.2, two.3), "{what}: time, known pairs");
        assert!(one.4 == two.4, "{what}: hold sets differ");
    }
}

/// `.gfr` length and FNV-1a of the capture of [`instance`], as the
/// one-loop recorded run wrote it before the pipeline existed.
const PINNED_CAPTURE: (usize, u64) = (1_138_711, 0x7f19_911f_71d3_4571);

#[test]
fn capture_above_grain_keeps_its_bytes() {
    let (g, flat, origins) = instance();
    for threads in [1, 2] {
        let bytes = with_threads(threads, || {
            let rec = FlightRecorder::new(FlightHeader {
                n: g.n() as u32,
                n_msgs: origins.len() as u32,
                radius: 0,
                engine: "kernel".to_string(),
                graph_digest: 0,
                schedule_digest: flat.digest(),
                fault_digest: 0,
                origins: origins.iter().map(|&o| o as u32).collect(),
            });
            let mut kernel = SimKernel::with_origins(&g, CommModel::Multicast, &origins).unwrap();
            assert!(kernel.run_recorded(&flat, &rec).unwrap().complete);
            rec.finish()
        });
        let mut fnv = Digest::new();
        fnv.write_bytes(&bytes);
        assert_eq!(
            (bytes.len(), fnv.finish()),
            PINNED_CAPTURE,
            "{threads} thread(s)"
        );
    }
}

/// A recorder that panics at its `at`-th batch.
struct PanicsAtBatch {
    at: usize,
    seen: AtomicUsize,
}

impl Recorder for PanicsAtBatch {
    fn enabled(&self) -> bool {
        true
    }
    fn counter(&self, _name: &str, _delta: u64) {}
    fn gauge(&self, _name: &str, _value: f64) {}
    fn observe(&self, _name: &str, _value: f64) {}
    fn event(&self, _name: &str, _fields: &[(&str, Value)]) {}
    fn span_observe(&self, _path: &str, _nanos: u64) {}
    fn wants_transmissions(&self) -> bool {
        true
    }
    fn transmissions(&self, _round: usize, _batch: TxBatch<'_>) {
        let k = self.seen.fetch_add(1, Ordering::Relaxed);
        assert!(k != self.at, "capture failed at batch {k}");
    }
}

#[test]
fn a_panicking_recorder_fails_the_pipelined_run_without_hanging() {
    let input = Arc::new(instance());
    let rounds = input.1.rounds();
    for at in [0, rounds / 2, rounds - 1] {
        let message = with_threads(2, || {
            let (done, outcome) = std::sync::mpsc::channel();
            let input = Arc::clone(&input);
            // A detached helper, so a hung run cannot hang the test too.
            let helper = std::thread::spawn(move || {
                let (g, flat, origins) = &*input;
                let rec = PanicsAtBatch {
                    at,
                    seen: AtomicUsize::new(0),
                };
                let run = catch_unwind(AssertUnwindSafe(|| {
                    let mut kernel =
                        SimKernel::with_origins(g, CommModel::Multicast, origins).unwrap();
                    kernel.run_recorded(flat, &rec)
                }));
                let message = run.err().map(|payload| match payload.downcast::<String>() {
                    Ok(message) => *message,
                    Err(_) => "a panic without a message".to_string(),
                });
                let _ = done.send(message);
            });
            let message = outcome
                .recv_timeout(Duration::from_secs(60))
                .expect("the recorded run still hangs 60 s after its recorder panicked");
            helper.join().expect("the helper catches the run's panic");
            message
        });
        assert_eq!(
            message.as_deref(),
            Some(format!("capture failed at batch {at}").as_str()),
            "the run returned despite the panic, or lost its message"
        );
    }
}
