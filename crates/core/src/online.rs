//! The online (distributed) version of ConcurrentUpDown (the paper's §4).
//!
//! "Our algorithms can be easily adapted for the online case. The only
//! global information that they need is the value of i, j, and k. Once this
//! information is disseminated throughout the network, each processor may
//! send its messages at the specified times."
//!
//! [`OnlineVertex`] is that per-processor protocol: a pure state machine
//! that, given the current time and whatever arrived from its parent this
//! round, decides the one multicast to emit — using only its own `(i, j,
//! k)`, its parent's label (to know whether it is the first child), and its
//! children's subtree ranges (to know which child already owns a message).
//! No vertex ever inspects another vertex's state. It is the offline
//! planner's own per-vertex machine: the offline engine steps the same
//! machines in lock-step, one round at a time, so the online and offline
//! protocols share one definition of the rules and one step.
//!
//! Two harnesses execute the protocol: [`run_online`] (deterministic
//! lock-step rounds in one thread) and [`run_online_threaded`] (one OS
//! thread per processor, crossbeam channels as links, a barrier per round —
//! a faithful little distributed system). Both produce the *identical*
//! schedule to the offline [`crate::concurrent_updown`], which is the
//! paper's online-adaptation claim made executable.

use crate::fast_planner::{Down, VertexMachine, NONE};
use crate::labeling::{FlatLabels, VertexParams};
use gossip_graph::RootedTree;
use gossip_model::{Schedule, Transmission};
use gossip_telemetry::{ChromeTrace, NoopRecorder, Recorder, RecorderExt, Value};
use parking_lot::Mutex;
use std::sync::{Arc, Condvar, PoisonError};
use std::time::Instant;

/// What one vertex decides to transmit in one round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OnlineSend {
    /// The message to multicast.
    pub msg: u32,
    /// Whether the parent is in the destination set.
    pub to_parent: bool,
    /// Destination children, as labels.
    pub to_children: Vec<u32>,
}

/// The per-processor online protocol state: one of the offline engine's
/// vertex machines (its Propagate-Up and own-subtree event sequences, the
/// D2 arrivals parked until their deferred slots), stepped by the same
/// per-round step.
#[derive(Debug, Clone)]
pub struct OnlineVertex {
    machine: VertexMachine,
    /// Children labels, and their subtree range ends.
    kids: Vec<u32>,
    ends: Vec<u32>,
}

impl OnlineVertex {
    /// Builds the protocol state from purely local information: this
    /// vertex's parameters and its children's `(label, range end)` pairs.
    pub fn new(p: VertexParams, children: Vec<(u32, u32)>) -> Self {
        let (kids, ends) = children.into_iter().unzip();
        OnlineVertex {
            machine: VertexMachine::new(p.i, p.j, p.k, p.parent_i),
            kids,
            ends,
        }
    }

    /// Advances one round: `t` is the current time, `from_parent` the
    /// message that arrived from the parent at time `t` (if any). Returns
    /// the multicast to perform at time `t`, if any. Rounds are stepped in
    /// order from `t = 0`.
    ///
    /// # Panics
    ///
    /// Panics if the protocol derives two sends for one round that do not
    /// merge — a forward and any other send, or U4 and D3 with different
    /// messages — or a third deferred arrival, or if a round in which this
    /// vertex had a send due was skipped. Theorem 1 rules the conflicts
    /// out, so a panic indicates corrupted inputs (e.g. a `from_parent`
    /// stream not produced by this protocol).
    pub fn on_round(&mut self, t: usize, from_parent: Option<u32>) -> Option<OnlineSend> {
        // Every send happens before n + r, which fits in u32.
        let Ok(t) = u32::try_from(t) else {
            return None;
        };
        let ends = &self.ends;
        let arrival = from_parent.unwrap_or(NONE);
        let send = self.machine.step(t, arrival, &self.kids, |p| ends[p])?;
        let to_children = match send.down {
            Down::No => Vec::new(),
            Down::All => self.kids.clone(),
            Down::Except(owner) => self.kids.iter().copied().filter(|&c| c != owner).collect(),
        };
        Some(OnlineSend {
            msg: send.msg,
            to_parent: send.to_parent,
            to_children,
        })
    }
}

/// Builds the per-label protocol states for a tree.
fn protocols(fl: &FlatLabels) -> Vec<OnlineVertex> {
    fl.labels()
        .map(|label| {
            let children = fl.children(label).iter().map(|&c| (c, fl.j(c))).collect();
            OnlineVertex::new(fl.params(label), children)
        })
        .collect()
}

/// `send` by the vertex labelled `label`, as a vertex-space transmission.
fn transmission(fl: &FlatLabels, label: u32, send: &OnlineSend) -> Transmission {
    let mut dests = Vec::with_capacity(send.to_children.len() + 1);
    if send.to_parent {
        dests.push(fl.vertex(fl.parent(label)) as usize);
    }
    dests.extend(send.to_children.iter().map(|&c| fl.vertex(c) as usize));
    Transmission::new(send.msg, fl.vertex(label) as usize, dests)
}

/// Runs the online protocol in deterministic lock-step (single thread) and
/// returns the resulting schedule (vertex space, normalized).
///
/// The schedule equals `concurrent_updown(tree)` normalized — the
/// executable form of the paper's online claim.
pub fn run_online(tree: &RootedTree) -> Schedule {
    let fl = FlatLabels::new(tree);
    let n = fl.n();
    let mut schedule = Schedule::new(n);
    if n <= 1 {
        return schedule;
    }
    let mut vertices = protocols(&fl);
    let horizon = n + fl.height() as usize;
    // in_flight[label] = message arriving from the parent this round.
    let mut arriving: Vec<Option<u32>> = vec![None; n];
    for t in 0..horizon {
        let mut next_arriving: Vec<Option<u32>> = vec![None; n];
        for label in fl.labels() {
            let Some(send) = vertices[label as usize].on_round(t, arriving[label as usize]) else {
                continue;
            };
            for &c in &send.to_children {
                assert!(
                    next_arriving[c as usize].is_none(),
                    "receive conflict at label {c} time {}",
                    t + 1
                );
                next_arriving[c as usize] = Some(send.msg);
            }
            schedule.add_transmission(t, transmission(&fl, label, &send));
        }
        arriving = next_arriving;
    }
    schedule.normalize();
    schedule
}

/// Runs the online protocol as a real concurrent system: one thread per
/// processor, crossbeam channels as the parent→child links, and a barrier
/// marking round boundaries. Returns the (normalized) schedule assembled
/// from each thread's local log.
///
/// Upward traffic needs no channels in this harness: parents derive their
/// children's upward sends from their own protocol (the receive sides U1/U2
/// are time-determined), so only parent→child links carry payloads — which
/// is also the only direction the D2 forwarding rule depends on.
pub fn run_online_threaded(tree: &RootedTree) -> Schedule {
    run_online_threaded_recorded(tree, &NoopRecorder)
}

/// [`run_online_threaded`] with telemetry: an `online_threaded` span, an
/// `online/sends` counter, a per-thread `online/round_ns` round-latency
/// histogram, and per-thread `online_thread` events timestamping when each
/// processor's thread finished its rounds (wall-clock nanoseconds since the
/// harness started, so thread skew is visible in the JSONL stream).
pub fn run_online_threaded_recorded(tree: &RootedTree, recorder: &dyn Recorder) -> Schedule {
    run_online_threaded_impl(tree, recorder, None)
}

/// One thread's wall-clock round log from a traced online run:
/// `(round, start_ns, dur_ns, sent message)` per round, nanoseconds since
/// the harness epoch. Duration covers receive + decide + send, *excluding*
/// the barrier wait, so per-round slack shows up as lane gaps in the trace.
struct ThreadRounds {
    vertex: usize,
    rounds: Vec<(usize, u64, u64, Option<u32>)>,
}

/// [`run_online_threaded_recorded`] plus a wall-clock Chrome trace: one
/// lane per processor thread, one complete event per round (timestamped
/// with real elapsed microseconds from a shared epoch, reusing the same
/// `Instant` clock as the `online_thread` telemetry events), so thread
/// skew and barrier slack are visible in `chrome://tracing` / Perfetto.
pub fn run_online_threaded_traced(
    tree: &RootedTree,
    recorder: &dyn Recorder,
) -> (Schedule, ChromeTrace) {
    let timings: Mutex<Vec<ThreadRounds>> = Mutex::new(Vec::new());
    let schedule = run_online_threaded_impl(tree, recorder, Some(&timings));
    let mut by_vertex = timings.into_inner();
    by_vertex.sort_by_key(|t| t.vertex);
    let mut trace = ChromeTrace::new();
    trace.process_name(1, "online executor (wall clock)");
    for th in &by_vertex {
        trace.thread_name(1, th.vertex as u64, &format!("P{}", th.vertex));
        for &(t, start_ns, dur_ns, msg) in &th.rounds {
            let name = match msg {
                Some(m) => format!("r{t} send m{m}"),
                None => format!("r{t}"),
            };
            let mut args = vec![("round".to_string(), Value::from_u64(t as u64))];
            if let Some(m) = msg {
                args.push(("msg".to_string(), Value::from_u64(m as u64)));
            }
            trace.complete(
                &name,
                "online/round",
                1,
                th.vertex as u64,
                start_ns as f64 / 1000.0,
                dur_ns as f64 / 1000.0,
                args,
            );
        }
    }
    (schedule, trace)
}

/// The threaded harness's round barrier. Unlike `std::sync::Barrier`, a
/// thread that unwinds poisons it ([`PoisonOnPanic`]), and every thread
/// waiting or arriving later then panics too: one failing processor fails
/// the run instead of leaving its peers blocked forever.
struct RoundBarrier {
    n: usize,
    /// Arrivals this round, rounds passed, and the poison.
    state: Mutex<(usize, usize, bool)>,
    turned: Condvar,
}

impl RoundBarrier {
    /// Blocks until all `n` threads have arrived; panics once poisoned.
    fn wait(&self) {
        let mut state = self.state.lock();
        let round = state.1;
        state.0 += 1;
        if state.0 == self.n {
            *state = (0, round + 1, state.2);
            self.turned.notify_all();
        }
        while state.1 == round && !state.2 {
            state = self
                .turned
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        assert!(!state.2, "another processor thread panicked");
    }
}

/// Poisons its barrier when dropped by a panicking thread.
struct PoisonOnPanic<'b>(&'b RoundBarrier);

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.state.lock().2 = true;
            self.0.turned.notify_all();
        }
    }
}

fn run_online_threaded_impl(
    tree: &RootedTree,
    recorder: &dyn Recorder,
    timings: Option<&Mutex<Vec<ThreadRounds>>>,
) -> Schedule {
    let _span = recorder.span("online_threaded");
    let fl = FlatLabels::new(tree);
    let n = fl.n();
    if n <= 1 {
        return Schedule::new(n);
    }
    let horizon = n + fl.height() as usize;
    let epoch = Instant::now();

    // Channels: one per non-root vertex, carrying Option<u32> per round.
    // Each send half moves into the parent's thread, so a parent that
    // unwinds disconnects its children instead of leaving them blocked.
    let mut senders = Vec::with_capacity(n);
    let mut receivers = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = crossbeam::channel::bounded::<Option<u32>>(1);
        senders.push(Some(tx));
        receivers.push(Some(rx));
    }

    let barrier = RoundBarrier {
        n,
        state: Mutex::new((0, 0, false)),
        turned: Condvar::new(),
    };
    let log: Arc<Mutex<Vec<(usize, Transmission)>>> = Arc::new(Mutex::new(Vec::new()));
    let wants_tx = recorder.wants_transmissions();

    std::thread::scope(|scope| {
        for (label, mut vertex) in fl.labels().zip(protocols(&fl)) {
            let is_root = fl.params(label).is_root();
            let my_rx = if is_root {
                None
            } else {
                receivers[label as usize].take()
            };
            let child_txs: Vec<(u32, crossbeam::channel::Sender<Option<u32>>)> = fl
                .children(label)
                .iter()
                .map(|&c| (c, senders[c as usize].take().expect("one parent")))
                .collect();
            let barrier = &barrier;
            let log = Arc::clone(&log);
            let fl = &fl;
            scope.spawn(move || {
                let _poison = PoisonOnPanic(barrier);
                let mut sends = 0u64;
                let mut my_rounds: Vec<(usize, u64, u64, Option<u32>)> = Vec::new();
                for t in 0..horizon {
                    let round_start = recorder.enabled().then(Instant::now);
                    let wall_start = timings.map(|_| epoch.elapsed().as_nanos() as u64);
                    // What arrives at time t was sent by the parent in its
                    // round t - 1; nothing is in flight at t = 0.
                    let arrived: Option<u32> = match (&my_rx, t) {
                        (Some(rx), t) if t >= 1 => rx.recv().expect("parent alive"),
                        _ => None,
                    };
                    let send = vertex.on_round(t, arrived);
                    if send.is_some() {
                        sends += 1;
                    }
                    // Every child gets exactly one Option per round, so the
                    // channel doubles as the round clock for receivers.
                    match &send {
                        Some(s) => {
                            for (c, tx) in &child_txs {
                                let payload = s.to_children.contains(c).then_some(s.msg);
                                tx.send(payload).expect("child alive");
                            }
                            let tx_rec = transmission(fl, label, s);
                            if wants_tx {
                                // Emitted from each sender thread at send
                                // time; flight records carry their round, so
                                // cross-thread interleaving cannot scramble
                                // the capture.
                                let d32: Vec<u32> = tx_rec.to.iter().map(|&d| d as u32).collect();
                                recorder.transmission(t, tx_rec.msg, tx_rec.from as u32, &d32);
                            }
                            log.lock().push((t, tx_rec));
                        }
                        None => {
                            for (_, tx) in &child_txs {
                                tx.send(None).expect("child alive");
                            }
                        }
                    }
                    if let Some(start) = wall_start {
                        let end = epoch.elapsed().as_nanos() as u64;
                        let msg = send.as_ref().map(|s| s.msg);
                        my_rounds.push((t, start, end.saturating_sub(start), msg));
                    }
                    barrier.wait();
                    if let Some(start) = round_start {
                        recorder.observe("online/round_ns", start.elapsed().as_nanos() as f64);
                        // One thread (the root) publishes the live round
                        // cursor; every thread writing it would be n-1
                        // redundant stores per round.
                        if is_root {
                            recorder.gauge("round_current", (t + 1) as f64);
                        }
                    }
                }
                if let Some(sink) = timings {
                    sink.lock().push(ThreadRounds {
                        vertex: fl.vertex(label) as usize,
                        rounds: my_rounds,
                    });
                }
                if recorder.enabled() {
                    recorder.counter("online/sends", sends);
                    recorder.event(
                        "online_thread",
                        &[
                            ("label", Value::from_u64(label as u64)),
                            ("vertex", Value::from_u64(fl.vertex(label) as u64)),
                            ("sends", Value::from_u64(sends)),
                            (
                                "done_ns",
                                Value::from_u64(epoch.elapsed().as_nanos() as u64),
                            ),
                        ],
                    );
                }
            });
        }
    });

    let mut schedule = Schedule::new(n);
    for (t, tx) in Arc::try_unwrap(log).expect("threads joined").into_inner() {
        schedule.add_transmission(t, tx);
    }
    schedule.normalize();
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concurrent::{concurrent_updown, tree_origins};
    use gossip_graph::NO_PARENT;
    use gossip_model::simulate_gossip;

    fn fig5() -> RootedTree {
        let mut p = vec![0u32; 16];
        for (v, par) in [
            (1, 0),
            (2, 1),
            (3, 1),
            (4, 0),
            (5, 4),
            (6, 5),
            (7, 5),
            (8, 4),
            (9, 8),
            (10, 8),
            (11, 0),
            (12, 11),
            (13, 12),
            (14, 12),
            (15, 11),
        ] {
            p[v] = par;
        }
        p[0] = NO_PARENT;
        RootedTree::from_parents(0, &p).unwrap()
    }

    fn offline_normalized(tree: &RootedTree) -> Schedule {
        let mut s = concurrent_updown(tree);
        s.normalize();
        s
    }

    #[test]
    fn lockstep_matches_offline_on_fig5() {
        let tree = fig5();
        assert_eq!(run_online(&tree), offline_normalized(&tree));
    }

    #[test]
    fn lockstep_matches_offline_on_assorted_trees() {
        for tree in [
            RootedTree::from_parents(0, &[NO_PARENT, 0]).unwrap(),
            RootedTree::from_parents(0, &[NO_PARENT, 0, 0, 0, 0, 0]).unwrap(),
            RootedTree::from_parents(3, &[1, 2, 3, NO_PARENT, 3, 4, 5]).unwrap(),
            RootedTree::from_parents(2, &[2, 0, NO_PARENT, 2, 3]).unwrap(),
        ] {
            assert_eq!(run_online(&tree), offline_normalized(&tree), "{tree:?}");
        }
    }

    #[test]
    fn threaded_matches_offline() {
        let tree = fig5();
        assert_eq!(run_online_threaded(&tree), offline_normalized(&tree));
    }

    #[test]
    fn threaded_matches_on_deep_chain() {
        let tree = RootedTree::from_parents(0, &[NO_PARENT, 0, 1, 2, 3, 4]).unwrap();
        assert_eq!(run_online_threaded(&tree), offline_normalized(&tree));
    }

    #[test]
    fn online_schedule_simulates_clean() {
        let tree = fig5();
        let s = run_online(&tree);
        let g = tree.to_graph();
        let o = simulate_gossip(&g, &s, &tree_origins(&tree)).unwrap();
        assert!(o.complete);
        assert_eq!(o.completion_time, Some(19));
    }

    #[test]
    fn traced_run_matches_and_covers_every_send() {
        let tree = fig5();
        let (s, trace) = run_online_threaded_traced(&tree, &NoopRecorder);
        assert_eq!(s, offline_normalized(&tree));
        let v = trace.to_value();
        let events = v.as_array().unwrap();
        // One complete event per (thread, round): 16 threads x horizon rounds.
        let completes: Vec<_> = events
            .iter()
            .filter(|e| e["ph"].as_str() == Some("X"))
            .collect();
        assert_eq!(completes.len() % 16, 0);
        assert!(!completes.is_empty());
        // Every send in the schedule appears as a named send event.
        let send_events = completes
            .iter()
            .filter(|e| e["args"].get("msg").is_some())
            .count();
        assert_eq!(send_events, s.stats().transmissions);
        for e in events {
            for f in ["ph", "ts", "pid", "tid"] {
                assert!(e.get(f).is_some(), "missing {f}");
            }
        }
    }

    #[test]
    fn singleton() {
        let tree = RootedTree::from_parents(0, &[NO_PARENT]).unwrap();
        assert_eq!(run_online(&tree).makespan(), 0);
        assert_eq!(run_online_threaded(&tree).makespan(), 0);
    }

    /// A capturing recorder whose first transmission batch panics.
    struct PanicsOnFirstBatch(std::sync::atomic::AtomicBool);

    impl Recorder for PanicsOnFirstBatch {
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
        fn transmissions(&self, _round: usize, _batch: gossip_telemetry::TxBatch<'_>) {
            if !self.0.swap(true, std::sync::atomic::Ordering::Relaxed) {
                panic!("capture failed");
            }
        }
    }

    #[test]
    fn a_panicking_processor_thread_fails_the_run() {
        let (done, outcome) = std::sync::mpsc::channel();
        let helper = std::thread::spawn(move || {
            let rec = PanicsOnFirstBatch(std::sync::atomic::AtomicBool::new(false));
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_online_threaded_recorded(&fig5(), &rec)
            }));
            let _ = done.send(run.is_err());
        });
        let panicked = outcome
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("the threaded run still hangs 60 s after a thread panicked");
        helper.join().expect("the helper catches the run's panic");
        assert!(panicked, "the run returned despite the panic");
    }
}
