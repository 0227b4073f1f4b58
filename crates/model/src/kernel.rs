//! The bitset simulation kernel: word-parallel replay of flat schedules.
//!
//! [`crate::Simulator`] is the oracle — it executes [`crate::Schedule`]s
//! tuple by tuple and is the semantics every other executor is checked
//! against. [`SimKernel`] is the one production replay engine: the same
//! rules, the same errors, the same hold-set evolution, but over a
//! [`FlatSchedule`] with
//!
//! - knowledge sets as one flat message-major `Vec<u64>` arena (row `m` is
//!   the `ceil(n / 64)`-word bitmap of the processors holding message `m`,
//!   so one multicast's word-ORs all land in one row; the completion check
//!   is a popcount-maintained counter, and the processor-major views —
//!   [`SimKernel::hold_bitsets`], [`SimKernel::residual`] — are produced by
//!   a 64×64 block bit transpose);
//! - the structural rules checked by the one checker
//!   [`FlatSchedule::validate`] also runs: adjacency as a precomputed
//!   bitmap, so the rule-3 check is one AND instead of a binary search
//!   over neighbour lists, and per-round send/receive dedup via
//!   round-stamped tables.
//!
//! Checks run in the oracle's exact per-transmission order, so any invalid
//! schedule is rejected with the *identical* [`ModelError`] the oracle
//! produces (the differential suite in `tests/` enforces this). When a
//! schedule has already passed the rayon structural pass
//! [`FlatSchedule::validate`], [`SimKernel::run_prevalidated`] skips the
//! structural checks and replays with only the state-dependent hold-set
//! rule plus the word-OR applies — the amortized replay mode benchmarks
//! and `gossip plan --planner fast` use. Every clean run goes through one
//! emission loop; [`SimKernel::run_recorded`] streams it into a recorder,
//! and [`SimKernel::run_probed`] collects the per-round [`RoundProbe`]s
//! that `--metrics` and the knowledge curves report. A recorded run into
//! a transmission-hungry recorder (a flight capture) whose rounds average
//! at least [`PIPELINE_ROUND_DELIVERIES`] deliveries steps its rounds on a
//! scoped worker thread when rayon has more than one thread, while the
//! calling thread emits the unchanged stream, so the capture's encoding
//! overlaps the replay.
//!
//! Lossy mode ([`SimKernel::run_lossy`]) replicates the oracle's
//! [`crate::Simulator::step_lossy`] bit for bit, including its in-round
//! hold-set visibility: the apply pass mutates hold rows while walking the
//! round's transmissions, so a `NotHeld` classification sees deliveries
//! that landed earlier in the same round. Fault suppression is evaluated
//! per delivery against the [`FaultPlan`] at the kernel's absolute round
//! index, keeping multi-epoch recovery replays deterministic.

use crate::bitset::BitSet;
use crate::error::ModelError;
use crate::fault_plan::FaultPlan;
use crate::flat_schedule::{set_bit, FlatSchedule, RoundMarks, RoundRules};
use crate::lossy::{LossCause, LossyOutcome, LostDelivery};
use crate::models::CommModel;
use crate::simulator::SimOutcome;
use gossip_graph::Graph;
use gossip_telemetry::{NoopRecorder, Recorder, RecorderExt, Value};

/// The average deliveries per round from which [`SimKernel::run_recorded`]
/// pipelines a recorder that wants transmissions. Each round costs the
/// pipeline a handoff between two threads, and the run one thread spawn,
/// while the overlap saves at most the smaller of the round's replay and
/// its encoding, both linear in its deliveries. A capture and its
/// `finish` timed both ways on a 2-vCPU Xeon, median per-pair ratio of
/// pipelined over one loop (deliveries per round in brackets): 4.6–7.6×
/// on C_8 and fig4 (5, 13), 1.3–1.5× on the 8×8 torus (56), 1.13–1.18× on
/// telephone plans around a hub up to n = 1024 (1), 0.99–1.43× on
/// G(256, 18/n) (252), 0.79–1.23× on G(512, 18/n) (508), 0.74–0.82× on
/// G(600, 18/n) and G(800, 18/n) (596, 796) and 0.54–0.78× from
/// G(1024, 18/n) to G(4096, 18/n).
pub const PIPELINE_ROUND_DELIVERIES: usize = 512;

/// Word-parallel schedule replayer over flat hold-set and adjacency
/// bitmaps. Mirrors the [`crate::Simulator`] API where the two overlap.
#[derive(Debug, Clone)]
pub struct SimKernel<'g> {
    /// The structural rules, with the adjacency bitmap they test.
    rules: RoundRules<'g>,
    /// The senders and receivers of the round being checked.
    marks: RoundMarks,
    n: usize,
    n_msgs: usize,
    /// Words per hold row (`ceil(n / 64)`): every row is a bitmap over
    /// processors.
    row_words: usize,
    /// `n_msgs * row_words` message-major arena: bit `v` of row `m`
    /// (`hold[m * row_words ..][.. row_words]`) is set iff processor `v`
    /// holds message `m`.
    hold: Vec<u64>,
    time: usize,
    known_pairs: usize,
}

impl<'g> SimKernel<'g> {
    /// Creates a kernel where message `m` initially resides only at
    /// processor `origin_of_message[m]` — the same permutation-origin
    /// contract (and errors) as [`crate::Simulator::new`].
    pub fn new(
        g: &'g Graph,
        model: CommModel,
        origin_of_message: &[usize],
    ) -> Result<Self, ModelError> {
        let n = g.n();
        if origin_of_message.len() != n {
            return Err(ModelError::BadOriginTable {
                reason: format!("{} origins for {n} processors", origin_of_message.len()),
            });
        }
        let mut seen = vec![false; n];
        for (m, &p) in origin_of_message.iter().enumerate() {
            if p < n && seen.get(p).copied().unwrap_or(false) {
                return Err(ModelError::BadOriginTable {
                    reason: format!("processor {p} originates two messages (message {m})"),
                });
            }
            if p < n {
                seen[p] = true;
            }
        }
        Self::with_origins(g, model, origin_of_message)
    }

    /// Creates a kernel over an arbitrary origin table (the
    /// weighted/pipelined setting), mirroring
    /// [`crate::Simulator::with_origins`].
    pub fn with_origins(
        g: &'g Graph,
        model: CommModel,
        origins: &[usize],
    ) -> Result<Self, ModelError> {
        let n = g.n();
        let row_words = n.div_ceil(64);
        let mut hold = vec![0u64; origins.len() * row_words];
        for (m, &p) in origins.iter().enumerate() {
            if p >= n {
                return Err(ModelError::BadOriginTable {
                    reason: format!("message {m} originates at out-of-range processor {p}"),
                });
            }
            hold[m * row_words + p / 64] |= 1u64 << (p % 64);
        }
        Ok(Self::from_arena(g, model, origins.len(), hold))
    }

    /// Assembles a kernel at time 0 around a filled message-major hold
    /// arena.
    fn from_arena(g: &'g Graph, model: CommModel, n_msgs: usize, hold: Vec<u64>) -> Self {
        let rules = RoundRules::new(g, model, n_msgs);
        let known_pairs = hold.iter().map(|w| w.count_ones() as usize).sum();
        SimKernel {
            marks: rules.marks(),
            rules,
            n: g.n(),
            n_msgs,
            row_words: g.n().div_ceil(64),
            hold,
            time: 0,
            known_pairs,
        }
    }

    /// Creates a kernel whose knowledge is seeded from explicit hold sets
    /// — one [`BitSet`] per processor, all with the same capacity (which
    /// becomes `n_msgs`). This resumes replay from a mid-run state: when
    /// the topology changes the kernel must be rebuilt over the patched
    /// graph, but the processors' accumulated knowledge persists.
    pub fn with_holds(
        g: &'g Graph,
        model: CommModel,
        holds: &[BitSet],
    ) -> Result<Self, ModelError> {
        let n = g.n();
        if holds.len() != n {
            return Err(ModelError::BadOriginTable {
                reason: format!("{} hold sets for {n} processors", holds.len()),
            });
        }
        let n_msgs = holds.first().map_or(0, BitSet::capacity);
        if holds.iter().any(|h| h.capacity() != n_msgs) {
            return Err(ModelError::BadOriginTable {
                reason: "hold sets have mixed capacities".to_string(),
            });
        }
        let by_proc: Vec<u64> = holds.iter().flat_map(|h| h.words()).copied().collect();
        let hold = transpose_bits(&by_proc, n, n_msgs);
        Ok(Self::from_arena(g, model, n_msgs, hold))
    }

    /// The current time (number of rounds executed).
    #[inline]
    pub fn time(&self) -> usize {
        self.time
    }

    /// Number of messages in flight.
    #[inline]
    pub fn n_msgs(&self) -> usize {
        self.n_msgs
    }

    /// Whether processor `p` currently holds message `m`. Out-of-range
    /// pairs are never held.
    #[inline]
    pub fn contains(&self, p: usize, m: usize) -> bool {
        p < self.n && m < self.n_msgs && holds(&self.hold, self.row_words, p, m)
    }

    /// The hold set of processor `p` as a [`BitSet`], for oracle-parity
    /// comparisons and handoff to [`BitSet`]-based consumers: bit `p` of
    /// every message row.
    ///
    /// # Panics
    ///
    /// Panics if `p >= n`.
    pub fn hold_bitset(&self, p: usize) -> BitSet {
        assert!(p < self.n, "processor {p} out of range (n = {})", self.n);
        let mut words = vec![0u64; self.n_msgs.div_ceil(64)];
        for m in 0..self.n_msgs {
            if self.contains(p, m) {
                words[m / 64] |= 1u64 << (m % 64);
            }
        }
        BitSet::from_words(words, self.n_msgs)
    }

    /// All hold sets, indexed by processor — the shape
    /// `gossip_core::recovery::plan_completion` consumes.
    pub fn hold_bitsets(&self) -> Vec<BitSet> {
        let msg_words = self.n_msgs.div_ceil(64);
        let by_proc = self.processor_major();
        (0..self.n)
            .map(|p| {
                let row = by_proc[p * msg_words..(p + 1) * msg_words].to_vec();
                BitSet::from_words(row, self.n_msgs)
            })
            .collect()
    }

    /// The hold arena transposed to processor-major: `n` rows of
    /// `ceil(n_msgs / 64)` words, bit `m` of row `v` set iff `v` holds `m`.
    fn processor_major(&self) -> Vec<u64> {
        transpose_bits(&self.hold, self.n_msgs, self.n)
    }

    /// Whether every processor holds every message (O(1): the kernel
    /// maintains the known-pair popcount incrementally).
    #[inline]
    pub fn gossip_complete(&self) -> bool {
        self.known_pairs == self.n * self.n_msgs
    }

    /// Number of (processor, message) pairs currently known.
    #[inline]
    pub fn known_pairs(&self) -> usize {
        self.known_pairs
    }

    /// Fraction of all (processor, message) pairs currently known.
    pub fn coverage(&self) -> f64 {
        let total = self.n * self.n_msgs;
        if total == 0 {
            1.0
        } else {
            self.known_pairs as f64 / total as f64
        }
    }

    /// Executes round `r` of `flat` with full rule validation in the
    /// oracle's exact check order; on error the kernel state is unchanged.
    /// Errors are stamped with the kernel's absolute time, exactly as
    /// [`crate::Simulator::step`].
    pub fn step_round(&mut self, flat: &FlatSchedule, r: usize) -> Result<(), ModelError> {
        self.step_inner(flat, r, true)
    }

    /// Checks every rule of round `r` that [`crate::Simulator::step`]
    /// checks, in its exact per-transmission order and with its errors;
    /// the hold-set rule (a sender holds its message) only under
    /// `hold_rule`. Touches nothing but the round marks.
    fn check_round(
        &mut self,
        flat: &FlatSchedule,
        r: usize,
        hold_rule: bool,
    ) -> Result<(), ModelError> {
        let (hold, row_words) = (&self.hold, self.row_words);
        self.rules
            .check(flat, r, self.time, &mut self.marks, |p, m| {
                !hold_rule || holds(hold, row_words, p, m as usize)
            })
    }

    fn step_inner(
        &mut self,
        flat: &FlatSchedule,
        r: usize,
        structural: bool,
    ) -> Result<(), ModelError> {
        let range = flat.round_range(r);
        if structural {
            self.check_round(flat, r, true)?;
        } else {
            // Structure was established by `FlatSchedule::validate`; only
            // the execution-state rule remains. Validate the whole round
            // before applying, preserving step atomicity.
            for i in range.clone() {
                let from = flat.from_of(i) as usize;
                let msg = flat.msg_of(i);
                if !self.contains(from, msg as usize) {
                    return Err(ModelError::MessageNotHeld {
                        round: self.time,
                        sender: from,
                        msg,
                    });
                }
            }
        }

        // All checks passed; apply receives (word-OR per delivery, all in
        // the message's row).
        for i in range {
            let row = self.hold_row_mut(flat.msg_of(i) as usize);
            let mut newly = 0;
            for &d32 in flat.dests_of(i) {
                newly += set_bit(row, d32 as usize);
            }
            self.known_pairs += newly;
        }
        self.time += 1;
        Ok(())
    }

    /// The processor bitmap of message `m`.
    #[inline]
    fn hold_row_mut(&mut self, m: usize) -> &mut [u64] {
        &mut self.hold[m * self.row_words..(m + 1) * self.row_words]
    }

    /// Runs a whole flat schedule with full validation — the kernel-side
    /// equivalent of [`crate::Simulator::run`], producing the identical
    /// [`SimOutcome`] (or the identical first [`ModelError`]).
    pub fn run(&mut self, flat: &FlatSchedule) -> Result<SimOutcome, ModelError> {
        self.run_inner(flat, true, &NoopRecorder)
    }

    /// Runs a flat schedule that already passed [`FlatSchedule::validate`]
    /// for this kernel's graph, model, and message count — skips the
    /// structural checks and replays with hold-rule checks plus word-OR
    /// applies only. Calling this on a schedule that was *not* validated
    /// can silently apply structurally illegal rounds; it never corrupts
    /// memory (all index arithmetic stays bounds-checked) but forfeits
    /// oracle parity.
    pub fn run_prevalidated(&mut self, flat: &FlatSchedule) -> Result<SimOutcome, ModelError> {
        self.run_inner(flat, false, &NoopRecorder)
    }

    /// Runs a whole flat schedule with full validation, streaming live
    /// instrumentation into `recorder` — the clean-run counterpart of
    /// [`SimKernel::run_lossy_recorded`]: per round a `round_start` /
    /// `round_end` event pair, `exec/deliveries` counters, and the
    /// knowledge-curve gauges `round_current` / `known_pairs`. Recorders
    /// that opt into `wants_transmissions` (the flight recorder) also get
    /// each round's transmissions as one batch before it executes. With a
    /// disabled recorder this is exactly [`SimKernel::run`].
    ///
    /// When the recorder wants transmissions, the rounds average at least
    /// [`PIPELINE_ROUND_DELIVERIES`] deliveries and
    /// [`rayon::current_num_threads`] is above 1, the rounds execute on a
    /// scoped worker thread while the calling thread emits the stream, so
    /// a capture's encoding overlaps the replay. The recorder sees the
    /// same calls in the same order, on the calling thread, and the result
    /// and the kernel's final state are those of the one-thread loop. A
    /// panic in the recorder or in the worker reaches the caller.
    pub fn run_recorded(
        &mut self,
        flat: &FlatSchedule,
        recorder: &dyn Recorder,
    ) -> Result<SimOutcome, ModelError> {
        self.run_inner(flat, true, recorder)
    }

    fn run_inner(
        &mut self,
        flat: &FlatSchedule,
        structural: bool,
        recorder: &dyn Recorder,
    ) -> Result<SimOutcome, ModelError> {
        self.check_size(flat)?;
        let stream = RoundStream {
            flat,
            start: self.time,
            total_pairs: self.n * self.n_msgs,
            complete_at_start: self.gossip_complete(),
            recorder,
        };
        let pipelined = recorder.enabled()
            && recorder.wants_transmissions()
            && flat.deliveries() / flat.rounds().max(1) >= PIPELINE_ROUND_DELIVERIES
            && rayon::current_num_threads() > 1;
        let completion_time = if pipelined {
            let kernel = &mut *self;
            pipelined_rounds(
                flat.rounds(),
                move |r| {
                    kernel.step_inner(flat, r, structural)?;
                    Ok(kernel.known_pairs)
                },
                |next| stream.emit(next),
            )
        } else {
            stream.emit(&mut |r| {
                self.step_inner(flat, r, structural)?;
                Ok(self.known_pairs)
            })
        }?;
        Ok(self.outcome(flat, completion_time))
    }

    /// Runs a whole flat schedule with full validation, collecting one
    /// [`RoundProbe`] per round (the coverage curve, traffic, and
    /// idle-receiver profile). An enabled `recorder` also gets the probes
    /// under one `simulate` span: per round `sim/sent` and
    /// `sim/deliveries` counters, `sim/fanout_max` and
    /// `sim/idle_receivers` histograms, the knowledge-curve gauges
    /// `round_current` / `known_pairs` and a `round` event, then final
    /// `sim/rounds`, `sim/coverage` and `sim/completion_time` gauges. The
    /// probes are emitted once the replay succeeded, so a rejected
    /// schedule records none. No transmissions are captured here;
    /// captures replay through [`SimKernel::run_recorded`].
    pub fn run_probed(
        &mut self,
        flat: &FlatSchedule,
        recorder: &dyn Recorder,
    ) -> Result<(SimOutcome, Vec<RoundProbe>), ModelError> {
        let _span = recorder.span("simulate");
        self.check_size(flat)?;
        let mut completion_time = self.gossip_complete().then_some(self.time);
        let rounds = flat.rounds();
        let mut probes = Vec::with_capacity(rounds);
        for r in 0..rounds {
            self.step_inner(flat, r, true)?;
            if completion_time.is_none() && self.gossip_complete() {
                completion_time = Some(self.time);
            }
            let batch = flat.round_batch(r);
            // Validation guarantees each destination is a distinct
            // receiver, so the traffic figures come straight from the
            // round.
            let deliveries = batch.deliveries();
            probes.push(RoundProbe {
                round: self.time - 1,
                sent: batch.len(),
                deliveries,
                max_fanout: batch.fanouts().max().unwrap_or(0) as usize,
                idle_receivers: self.n - deliveries,
                coverage: self.coverage(),
            });
        }
        let outcome = self.outcome(flat, completion_time);
        if recorder.enabled() {
            let total_pairs = (self.n * self.n_msgs) as f64;
            for probe in &probes {
                let known = (probe.coverage * total_pairs).round();
                recorder.counter("sim/sent", probe.sent as u64);
                recorder.counter("sim/deliveries", probe.deliveries as u64);
                recorder.observe("sim/fanout_max", probe.max_fanout as f64);
                recorder.observe("sim/idle_receivers", probe.idle_receivers as f64);
                // Live knowledge-curve gauges (top-level names, matching
                // the Prometheus registry: gossip_round_current /
                // gossip_known_pairs).
                recorder.gauge("round_current", (probe.round + 1) as f64);
                recorder.gauge("known_pairs", known);
                recorder.event(
                    "round",
                    &[
                        ("round", Value::from_u64(probe.round as u64)),
                        ("sent", Value::from_u64(probe.sent as u64)),
                        ("deliveries", Value::from_u64(probe.deliveries as u64)),
                        ("max_fanout", Value::from_u64(probe.max_fanout as u64)),
                        (
                            "idle_receivers",
                            Value::from_u64(probe.idle_receivers as u64),
                        ),
                        ("coverage", Value::from_f64(probe.coverage)),
                        ("known_pairs", Value::from_u64(known as u64)),
                    ],
                );
            }
            recorder.gauge("sim/rounds", outcome.rounds_executed as f64);
            recorder.gauge("sim/coverage", self.coverage());
            if let Some(t) = outcome.completion_time {
                recorder.gauge("sim/completion_time", t as f64);
            }
        }
        Ok((outcome, probes))
    }

    /// Rejects a schedule over another processor count.
    fn check_size(&self, flat: &FlatSchedule) -> Result<(), ModelError> {
        if flat.n() != self.n {
            return Err(ModelError::SizeMismatch {
                graph_n: self.n,
                schedule_n: flat.n(),
            });
        }
        Ok(())
    }

    /// The outcome of a completed clean run of `flat`.
    fn outcome(&self, flat: &FlatSchedule, completion_time: Option<usize>) -> SimOutcome {
        SimOutcome {
            complete: self.gossip_complete(),
            rounds_executed: flat.rounds(),
            completion_time,
            stats: flat.stats(),
        }
    }

    /// Executes round `r` of `flat` under `plan`, degrading on
    /// fault-induced failures exactly as [`crate::Simulator::step_lossy`]:
    /// structural violations error with state unchanged, the hold-set rule
    /// becomes a recorded [`LossCause::NotHeld`] cascade, and the loss log
    /// receives identical entries in identical order. Returns deliveries
    /// that landed.
    ///
    /// An enabled `recorder` gets the round's live stream: a
    /// `round_start` event, the attempted transmissions as one batch (for
    /// recorders that opt into `wants_transmissions`), a `loss` event and
    /// an `exec/lost/<cause>` count per lost delivery, `exec/deliveries` /
    /// `exec/losses` counters, the knowledge-curve gauges `round_current`
    /// / `known_pairs`, and a `round_end` event.
    pub fn step_round_lossy(
        &mut self,
        flat: &FlatSchedule,
        r: usize,
        plan: &FaultPlan,
        lost: &mut Vec<LostDelivery>,
        recorder: &dyn Recorder,
    ) -> Result<usize, ModelError> {
        let t = self.time;
        let enabled = recorder.enabled();
        if enabled {
            recorder.event("round_start", &[("round", Value::from_u64(t as u64))]);
            if recorder.wants_transmissions() {
                // Every *attempt* is captured, including transmissions whose
                // deliveries are all suppressed — the matching `loss` events
                // record which ones, so replay is txs minus losses.
                recorder.transmissions(t, flat.round_batch(r));
            }
        }
        // Every structural rule, minus the hold-set check (faults
        // legitimately break relay chains).
        self.check_round(flat, r, false)?;

        // Apply pass: deliveries land unless a fault condition intercepts.
        // Hold rows mutate in transmission order, so the NotHeld
        // classification sees earlier same-round deliveries — the oracle's
        // exact in-round visibility.
        let lost_before = lost.len();
        let mut delivered = 0;
        for i in flat.round_range(r) {
            let from = flat.from_of(i) as usize;
            let msg = flat.msg_of(i);
            let m = msg as usize;
            let whole_tx_cause = if plan.is_crashed(from, t) {
                Some(LossCause::SenderCrashed)
            } else if !self.contains(from, m) {
                Some(LossCause::NotHeld)
            } else {
                None
            };
            for &d32 in flat.dests_of(i) {
                let d = d32 as usize;
                let cause = whole_tx_cause.or_else(|| {
                    if plan.is_crashed(d, t) {
                        Some(LossCause::ReceiverCrashed)
                    } else if plan.link_down(from, d, t) {
                        Some(LossCause::LinkDown)
                    } else if plan.loses(t, from, d) {
                        Some(LossCause::Sampled)
                    } else {
                        None
                    }
                });
                match cause {
                    Some(cause) => lost.push(LostDelivery {
                        round: t,
                        msg,
                        from,
                        to: d,
                        cause,
                    }),
                    None => {
                        let newly = set_bit(self.hold_row_mut(m), d);
                        self.known_pairs += newly;
                        delivered += 1;
                    }
                }
            }
        }
        self.time += 1;
        if enabled {
            let round_lost = &lost[lost_before..];
            for l in round_lost {
                recorder.counter(&format!("exec/lost/{}", l.cause.label()), 1);
                recorder.event(
                    "loss",
                    &[
                        ("round", Value::from_u64(l.round as u64)),
                        ("msg", Value::from_u64(l.msg as u64)),
                        ("from", Value::from_u64(l.from as u64)),
                        ("to", Value::from_u64(l.to as u64)),
                        ("cause", Value::String(l.cause.label().to_string())),
                    ],
                );
            }
            let lost_now = round_lost.len() as u64;
            recorder.counter("exec/deliveries", delivered as u64);
            recorder.counter("exec/losses", lost_now);
            recorder.gauge("round_current", self.time as f64);
            recorder.gauge("known_pairs", self.known_pairs as f64);
            recorder.event(
                "round_end",
                &[
                    ("round", Value::from_u64(t as u64)),
                    ("delivered", Value::from_u64(delivered as u64)),
                    ("lost", Value::from_u64(lost_now)),
                    ("known_pairs", Value::from_u64(self.known_pairs as u64)),
                ],
            );
        }
        Ok(delivered)
    }

    /// Runs a whole flat schedule under `plan` from the kernel's current
    /// time — the kernel-side equivalent of [`crate::Simulator::run_lossy`]
    /// (absolute rounds index the fault plan, so one kernel carried across
    /// repair epochs keeps sampling the same deterministic fault sequence).
    pub fn run_lossy(
        &mut self,
        flat: &FlatSchedule,
        plan: &FaultPlan,
        lost: &mut Vec<LostDelivery>,
    ) -> Result<LossyOutcome, ModelError> {
        self.run_lossy_recorded(flat, plan, lost, &NoopRecorder)
    }

    /// [`SimKernel::run_lossy`] with each round's live stream (see
    /// [`SimKernel::step_round_lossy`]) going to `recorder`. With a
    /// disabled recorder this is exactly [`SimKernel::run_lossy`].
    pub fn run_lossy_recorded(
        &mut self,
        flat: &FlatSchedule,
        plan: &FaultPlan,
        lost: &mut Vec<LostDelivery>,
        recorder: &dyn Recorder,
    ) -> Result<LossyOutcome, ModelError> {
        self.check_size(flat)?;
        let before = lost.len();
        let rounds = flat.rounds();
        let mut delivered = 0;
        for r in 0..rounds {
            delivered += self.step_round_lossy(flat, r, plan, lost, recorder)?;
        }
        Ok(LossyOutcome {
            rounds_executed: rounds,
            delivered,
            lost: lost.len() - before,
            complete_among_alive: self.residual_count(plan) == 0,
        })
    }

    /// The missing (message, vertex) pairs among processors still alive at
    /// the current time, in the oracle's (vertex-major, message-ascending)
    /// order — extracted by a word-level complement walk over the
    /// processor-major transpose instead of a per-pair probe.
    pub fn residual(&self, plan: &FaultPlan) -> Vec<(u32, usize)> {
        let alive = plan.alive_at(self.n, self.time);
        missing_pairs(&self.processor_major(), self.n_msgs, &alive)
    }

    /// Number of missing (message, vertex) pairs among alive processors —
    /// popcount of every message row under the alive mask, no
    /// materialization.
    pub fn residual_count(&self, plan: &FaultPlan) -> usize {
        let alive = plan.alive_at(self.n, self.time);
        let mut mask = vec![0u64; self.row_words];
        let mut alive_count = 0;
        for (v, _) in alive.iter().enumerate().filter(|(_, &a)| a) {
            alive_count += set_bit(&mut mask, v);
        }
        let held: usize = self
            .hold
            .iter()
            .zip(mask.iter().cycle())
            .map(|(w, a)| (w & a).count_ones() as usize)
            .sum();
        alive_count * self.n_msgs - held
    }
}

/// The per-round stream of a clean recorded run: one emission loop for
/// the one-thread and the pipelined runs.
struct RoundStream<'a> {
    flat: &'a FlatSchedule,
    /// The kernel's time before the first round.
    start: usize,
    /// `n * n_msgs`: the known-pair count of a complete run.
    total_pairs: usize,
    complete_at_start: bool,
    recorder: &'a dyn Recorder,
}

impl RoundStream<'_> {
    /// Executes every round through `step` — which runs round `r` and
    /// returns the known-pair count after it — and emits the round's
    /// stream around it: `round_start` and the batch before, the counter,
    /// the gauges and `round_end` after. Returns the completion time, or
    /// the first step error once its round's `round_start` and batch are
    /// out.
    fn emit(
        &self,
        step: &mut dyn FnMut(usize) -> Result<usize, ModelError>,
    ) -> Result<Option<usize>, ModelError> {
        let rec = self.recorder;
        let enabled = rec.enabled();
        let wants_tx = enabled && rec.wants_transmissions();
        let mut completion_time = self.complete_at_start.then_some(self.start);
        for r in 0..self.flat.rounds() {
            let t = self.start + r;
            if enabled {
                rec.event("round_start", &[("round", Value::from_u64(t as u64))]);
                if wants_tx {
                    rec.transmissions(t, self.flat.round_batch(r));
                }
            }
            let known_pairs = step(r)?;
            if completion_time.is_none() && known_pairs == self.total_pairs {
                completion_time = Some(t + 1);
            }
            if enabled {
                let delivered = self.flat.round_batch(r).deliveries() as u64;
                rec.counter("exec/deliveries", delivered);
                rec.gauge("round_current", (t + 1) as f64);
                rec.gauge("known_pairs", known_pairs as f64);
                rec.event(
                    "round_end",
                    &[
                        ("round", Value::from_u64(t as u64)),
                        ("delivered", Value::from_u64(delivered)),
                        ("known_pairs", Value::from_u64(known_pairs as u64)),
                    ],
                );
            }
        }
        Ok(completion_time)
    }
}

/// Runs `step(0)`, `step(1)`, … `step(rounds - 1)` on a scoped worker
/// thread, stopping after the first error, while `consume` runs on the
/// calling thread. `consume` gets a `next` function that returns the
/// results in round order (its argument is ignored), blocking on a
/// channel until the worker has published the next one. If `consume`
/// returns or unwinds early, the worker stops at its next round; a
/// worker panic is resumed on the calling thread, at the `next` call
/// that finds the channel closed or once `consume` returns.
fn pipelined_rounds<T>(
    rounds: usize,
    mut step: impl FnMut(usize) -> Result<usize, ModelError> + Send,
    consume: impl FnOnce(&mut dyn FnMut(usize) -> Result<usize, ModelError>) -> T,
) -> T {
    std::thread::scope(|scope| {
        let (tx, rx) = std::sync::mpsc::channel();
        let mut worker = Some(scope.spawn(move || {
            for r in 0..rounds {
                let result = step(r);
                let failed = result.is_err();
                if tx.send(result).is_err() || failed {
                    return;
                }
            }
        }));
        fn rejoin(worker: &mut Option<std::thread::ScopedJoinHandle<'_, ()>>) {
            if let Some(Err(payload)) = worker.take().map(|w| w.join()) {
                std::panic::resume_unwind(payload);
            }
        }
        let out = consume(&mut |_| match rx.recv() {
            Ok(result) => result,
            Err(_) => {
                // The worker hung up before the round asked for, which
                // only a panic does.
                rejoin(&mut worker);
                unreachable!("the replay worker stopped without a result or a panic")
            }
        });
        drop(rx);
        rejoin(&mut worker);
        out
    })
}

/// Whether bit `p` of hold row `m` is set.
#[inline]
fn holds(hold: &[u64], row_words: usize, p: usize, m: usize) -> bool {
    hold[m * row_words + p / 64] & (1u64 << (p % 64)) != 0
}

/// Per-round observation collected by [`SimKernel::run_probed`].
#[derive(Debug, Clone, PartialEq)]
pub struct RoundProbe {
    /// The time at which the round executed.
    pub round: usize,
    /// Transmissions sent this round.
    pub sent: usize,
    /// Total deliveries (= distinct receivers; the model enforces one
    /// receive per processor per round).
    pub deliveries: usize,
    /// Largest multicast fan-out among this round's transmissions.
    pub max_fanout: usize,
    /// Processors that received nothing this round.
    pub idle_receivers: usize,
    /// Fraction of (processor, message) pairs known after the round.
    pub coverage: f64,
}

/// The (message, processor) pairs missing at the `alive` processors of a
/// processor-major hold arena (`alive.len()` rows of `ceil(n_msgs / 64)`
/// words, bit `m` of row `v` set iff `v` holds `m`, bits at or above
/// `n_msgs` ignored), vertex-major with messages ascending — the order of
/// [`SimKernel::residual`].
pub fn missing_pairs(by_proc: &[u64], n_msgs: usize, alive: &[bool]) -> Vec<(u32, usize)> {
    let msg_words = n_msgs.div_ceil(64);
    let tail = n_msgs % 64;
    let mut out = Vec::new();
    for v in (0..alive.len()).filter(|&v| alive[v]) {
        let row = &by_proc[v * msg_words..(v + 1) * msg_words];
        for (wi, &word) in row.iter().enumerate() {
            let mut missing = !word;
            if tail != 0 && wi == msg_words - 1 {
                missing &= (1u64 << tail) - 1;
            }
            while missing != 0 {
                let m = wi * 64 + missing.trailing_zeros() as usize;
                missing &= missing - 1;
                out.push((m as u32, v));
            }
        }
    }
    out
}

/// Transposes a `rows × cols` bit matrix stored as rows of
/// `ceil(cols / 64)` words (bit `c` of row `r` is bit `c % 64` of word
/// `r * ceil(cols / 64) + c / 64`) into the same layout for the
/// `cols × rows` transpose, one 64×64 block at a time.
fn transpose_bits(src: &[u64], rows: usize, cols: usize) -> Vec<u64> {
    let (src_words, dst_words) = (cols.div_ceil(64), rows.div_ceil(64));
    let mut dst = vec![0u64; cols * dst_words];
    let mut block = [0u64; 64];
    for rb in 0..dst_words {
        let block_rows = (rows - rb * 64).min(64);
        for cb in 0..src_words {
            for (i, word) in block.iter_mut().enumerate() {
                *word = if i < block_rows {
                    src[(rb * 64 + i) * src_words + cb]
                } else {
                    0
                };
            }
            transpose_block(&mut block);
            let block_cols = (cols - cb * 64).min(64);
            for (j, &word) in block[..block_cols].iter().enumerate() {
                dst[(cb * 64 + j) * dst_words + rb] = word;
            }
        }
    }
    dst
}

/// In-place transpose of a 64×64 bit block (`a[i]` bit `j` ↔ `a[j]` bit
/// `i`): at each width `w` = 32, 16, …, 1 the off-diagonal `w × w`
/// sub-blocks of every `2w × 2w` diagonal block swap with one masked
/// exchange per row pair.
fn transpose_block(a: &mut [u64; 64]) {
    let mut width = 32;
    let mut mask: u64 = 0x0000_0000_ffff_ffff;
    while width != 0 {
        for k in (0..64).filter(|k| k & width == 0) {
            let t = ((a[k] >> width) ^ a[k + width]) & mask;
            a[k] ^= t << width;
            a[k + width] ^= t;
        }
        width >>= 1;
        mask ^= mask << width;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::round::Transmission;
    use crate::schedule::Schedule;
    use crate::simulator::Simulator;

    fn ring(n: usize) -> Graph {
        Graph::from_edges(n, &(0..n).map(|i| (i, (i + 1) % n)).collect::<Vec<_>>()).unwrap()
    }

    fn ring_schedule(n: usize) -> Schedule {
        let mut s = Schedule::new(n);
        for t in 0..n - 1 {
            for p in 0..n {
                let msg = ((p + n - t) % n) as u32;
                s.add_transmission(t, Transmission::unicast(msg, p, (p + 1) % n));
            }
        }
        s
    }

    fn identity(n: usize) -> Vec<usize> {
        (0..n).collect()
    }

    #[test]
    fn ring_replay_matches_oracle_outcome() {
        let n = 8;
        let g = ring(n);
        let s = ring_schedule(n);
        let flat = FlatSchedule::from_schedule(&s);
        let mut oracle = Simulator::new(&g, CommModel::Multicast, &identity(n)).unwrap();
        let want = oracle.run(&s).unwrap();
        let mut k = SimKernel::new(&g, CommModel::Multicast, &identity(n)).unwrap();
        let got = k.run(&flat).unwrap();
        assert_eq!(got, want);
        assert!(k.gossip_complete());
        for v in 0..n {
            assert_eq!(k.hold_bitset(v), oracle.holds(v).clone());
        }
    }

    #[test]
    fn prevalidated_replay_matches_full_run() {
        let n = 8;
        let g = ring(n);
        let flat = FlatSchedule::from_schedule(&ring_schedule(n));
        flat.validate(&g, CommModel::Multicast, n).unwrap();
        let mut full = SimKernel::new(&g, CommModel::Multicast, &identity(n)).unwrap();
        let mut fast = SimKernel::new(&g, CommModel::Multicast, &identity(n)).unwrap();
        let a = full.run(&flat).unwrap();
        let b = fast.run_prevalidated(&flat).unwrap();
        assert_eq!(a, b);
        assert_eq!(full.hold_bitsets(), fast.hold_bitsets());
    }

    #[test]
    fn rejects_unheld_message_like_oracle() {
        let g = ring(3);
        let mut s = Schedule::new(3);
        s.add_transmission(0, Transmission::unicast(1, 0, 1));
        let flat = FlatSchedule::from_schedule(&s);
        let mut k = SimKernel::new(&g, CommModel::Multicast, &identity(3)).unwrap();
        let err = k.run(&flat).unwrap_err();
        let want = Simulator::new(&g, CommModel::Multicast, &identity(3))
            .unwrap()
            .run(&s)
            .unwrap_err();
        assert_eq!(err, want);
        // State unchanged on error: sender 0 still lacks message 1.
        assert_eq!(k.time(), 0);
        assert!(!k.contains(0, 1));
    }

    #[test]
    fn failed_round_leaves_state_unchanged() {
        let g = Graph::from_edges(3, &[(0, 2), (1, 2)]).unwrap();
        let mut s = Schedule::new(3);
        s.add_transmission(0, Transmission::unicast(0, 0, 2));
        s.add_transmission(0, Transmission::unicast(1, 1, 2));
        let flat = FlatSchedule::from_schedule(&s);
        let mut k = SimKernel::new(&g, CommModel::Multicast, &identity(3)).unwrap();
        assert_eq!(
            k.run(&flat).unwrap_err(),
            ModelError::DuplicateReceiver {
                round: 0,
                receiver: 2
            }
        );
        assert!(!k.contains(2, 0));
        assert_eq!(k.time(), 0);
    }

    #[test]
    fn lossy_replay_matches_oracle() {
        let n = 8;
        let g = ring(n);
        let s = ring_schedule(n);
        let flat = FlatSchedule::from_schedule(&s);
        let plan = FaultPlan::new(42).with_loss_rate(0.3).with_crash(3, 4);
        let mut oracle = Simulator::new(&g, CommModel::Multicast, &identity(n)).unwrap();
        let mut want_lost = Vec::new();
        let want = oracle.run_lossy(&s, &plan, &mut want_lost).unwrap();
        let mut k = SimKernel::new(&g, CommModel::Multicast, &identity(n)).unwrap();
        let mut got_lost = Vec::new();
        let got = k.run_lossy(&flat, &plan, &mut got_lost).unwrap();
        assert_eq!(got, want);
        assert_eq!(got_lost, want_lost);
        assert_eq!(k.residual(&plan), oracle.residual(&plan));
        assert_eq!(k.residual_count(&plan), oracle.residual(&plan).len());
        for v in 0..n {
            assert_eq!(k.hold_bitset(v), oracle.holds(v).clone());
        }
    }

    #[test]
    fn absolute_rounds_survive_split_replay() {
        let n = 8;
        let g = ring(n);
        let s = ring_schedule(n);
        let plan = FaultPlan::new(123).with_loss_rate(0.3);
        let run = |split: usize| {
            let mut k = SimKernel::new(&g, CommModel::Multicast, &identity(n)).unwrap();
            let mut lost = Vec::new();
            let mut first = Schedule::new(n);
            let mut second = Schedule::new(n);
            for (t, tx) in s.iter() {
                if t < split {
                    first.add_transmission(t, tx.clone());
                } else {
                    second.add_transmission(t - split, tx.clone());
                }
            }
            k.run_lossy(&FlatSchedule::from_schedule(&first), &plan, &mut lost)
                .unwrap();
            k.run_lossy(&FlatSchedule::from_schedule(&second), &plan, &mut lost)
                .unwrap();
            (lost, k.hold_bitsets())
        };
        assert_eq!(run(7), run(3));
    }

    #[test]
    fn with_holds_resumes_a_split_run() {
        let n = 8;
        let g = ring(n);
        let s = ring_schedule(n);
        let split = 4;
        let mut first = Schedule::new(n);
        let mut second = Schedule::new(n);
        for (t, tx) in s.iter() {
            if t < split {
                first.add_transmission(t, tx.clone());
            } else {
                second.add_transmission(t - split, tx.clone());
            }
        }
        let mut whole = SimKernel::new(&g, CommModel::Multicast, &identity(n)).unwrap();
        whole.run(&FlatSchedule::from_schedule(&s)).unwrap();
        let mut head = SimKernel::new(&g, CommModel::Multicast, &identity(n)).unwrap();
        head.run(&FlatSchedule::from_schedule(&first)).unwrap();
        // Rebuild a fresh kernel from the mid-run hold sets (as the churn
        // executor does across a topology patch) and finish the run.
        let mid = head.hold_bitsets();
        let mut tail = SimKernel::with_holds(&g, CommModel::Multicast, &mid).unwrap();
        tail.run(&FlatSchedule::from_schedule(&second)).unwrap();
        assert_eq!(tail.hold_bitsets(), whole.hold_bitsets());
        assert_eq!(tail.known_pairs(), whole.known_pairs());
        assert!(tail.gossip_complete());
    }

    #[test]
    fn with_holds_rejects_bad_shapes() {
        let g = ring(3);
        let short = vec![BitSet::new(3); 2];
        assert!(SimKernel::with_holds(&g, CommModel::Multicast, &short).is_err());
        let mixed = vec![BitSet::new(3), BitSet::new(3), BitSet::new(4)];
        assert!(SimKernel::with_holds(&g, CommModel::Multicast, &mixed).is_err());
    }

    #[test]
    fn origin_table_errors_match_oracle() {
        let g = ring(3);
        for bad in [vec![0usize, 0, 1], vec![0, 1], vec![0, 1, 3]] {
            let k = SimKernel::new(&g, CommModel::Multicast, &bad).map(|_| ());
            let s = Simulator::new(&g, CommModel::Multicast, &bad).map(|_| ());
            assert_eq!(k.unwrap_err(), s.unwrap_err());
        }
    }

    #[test]
    fn size_mismatch_rejected() {
        let g = ring(3);
        let flat = FlatSchedule::from_schedule(&Schedule::new(4));
        let mut k = SimKernel::new(&g, CommModel::Multicast, &identity(3)).unwrap();
        assert!(matches!(
            k.run(&flat).unwrap_err(),
            ModelError::SizeMismatch { .. }
        ));
    }

    #[test]
    fn singleton_and_empty_edge_cases() {
        let g = Graph::from_edges(1, &[]).unwrap();
        let flat = FlatSchedule::from_schedule(&Schedule::new(1));
        let mut k = SimKernel::new(&g, CommModel::Multicast, &[0]).unwrap();
        let out = k.run(&flat).unwrap();
        assert!(out.complete);
        assert_eq!(out.completion_time, Some(0));
        assert!((k.coverage() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn wide_message_space_crosses_word_boundaries() {
        // 130 messages on a 3-path: hold rows span 3 words; exercise the
        // tail-masking in residual().
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let origins: Vec<usize> = (0..130).map(|m| m % 3).collect();
        let mut k = SimKernel::with_origins(&g, CommModel::Multicast, &origins).unwrap();
        let mut oracle = Simulator::with_origins(&g, CommModel::Multicast, &origins).unwrap();
        let mut s = Schedule::new(3);
        s.add_transmission(0, Transmission::unicast(64, 1, 0));
        s.add_transmission(0, Transmission::unicast(129, 0, 1));
        let flat = FlatSchedule::from_schedule(&s);
        assert_eq!(k.run(&flat).unwrap(), oracle.run(&s).unwrap());
        assert_eq!(
            k.residual(&FaultPlan::none()),
            oracle.residual(&FaultPlan::none())
        );
        for v in 0..3 {
            assert_eq!(k.hold_bitset(v), oracle.holds(v).clone());
        }
        // The processor-major views survive a round trip through with_holds.
        let holds = k.hold_bitsets();
        let resumed = SimKernel::with_holds(&g, CommModel::Multicast, &holds).unwrap();
        assert_eq!(resumed.hold_bitsets(), holds);
        assert_eq!(resumed.known_pairs(), k.known_pairs());
    }

    #[test]
    fn transpose_matches_the_bitwise_definition() {
        let mut state = 0x5eed_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // Shapes straddling the 64-bit block edges in both dimensions.
        for (rows, cols) in [
            (0usize, 5usize),
            (5, 0),
            (1, 1),
            (3, 130),
            (64, 64),
            (65, 63),
            (130, 3),
            (192, 192),
            (200, 70),
        ] {
            let (src_words, dst_words) = (cols.div_ceil(64), rows.div_ceil(64));
            let mut src = vec![0u64; rows * src_words];
            for r in 0..rows {
                for c in 0..cols {
                    if next() & 1 == 1 {
                        src[r * src_words + c / 64] |= 1 << (c % 64);
                    }
                }
            }
            let dst = transpose_bits(&src, rows, cols);
            assert_eq!(dst.len(), cols * dst_words);
            for r in 0..rows {
                for c in 0..cols {
                    let a = src[r * src_words + c / 64] >> (c % 64) & 1;
                    let b = dst[c * dst_words + r / 64] >> (r % 64) & 1;
                    assert_eq!(a, b, "{rows}x{cols} at ({r}, {c})");
                }
            }
            assert_eq!(transpose_bits(&dst, cols, rows), src, "{rows}x{cols}");
        }
    }

    #[test]
    #[should_panic(expected = "step 2 failed")]
    fn a_panicking_pipeline_worker_reaches_the_caller() {
        pipelined_rounds(
            5,
            |r| {
                assert!(r != 2, "step {r} failed");
                Ok(r)
            },
            |next| (0..5).map(next).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn the_pipeline_stops_at_the_first_error_and_when_its_consumer_does() {
        let err = ModelError::EmptyDestination {
            round: 1,
            sender: 0,
        };
        let stepped = std::sync::atomic::AtomicUsize::new(0);
        let results = pipelined_rounds(
            4,
            |r| {
                stepped.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if r == 1 {
                    Err(err.clone())
                } else {
                    Ok(r)
                }
            },
            |next| [next(0), next(1)],
        );
        assert_eq!(results, [Ok(0), Err(err.clone())]);
        assert_eq!(stepped.into_inner(), 2, "the worker stops after an error");
        // A consumer that stops early drops the channel, so the worker
        // stops too instead of stepping a million rounds.
        let stepped = std::sync::atomic::AtomicUsize::new(0);
        let first = pipelined_rounds(
            1_000_000,
            |r| {
                stepped.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                std::thread::sleep(std::time::Duration::from_micros(50));
                Ok(r)
            },
            |next| next(0),
        );
        assert_eq!(first, Ok(0));
        assert!(stepped.into_inner() < 1_000_000);
    }

    #[test]
    fn residual_count_respects_crashes() {
        let n = 8;
        let g = ring(n);
        let flat = FlatSchedule::from_schedule(&ring_schedule(n));
        let plan = FaultPlan::new(5).with_loss_rate(0.4).with_crash(6, 2);
        let mut k = SimKernel::new(&g, CommModel::Multicast, &identity(n)).unwrap();
        k.run_lossy(&flat, &plan, &mut Vec::new()).unwrap();
        assert!(!plan.alive_at(n, k.time())[6]);
        assert_eq!(k.residual_count(&plan), k.residual(&plan).len());
        assert!(k.residual(&plan).iter().all(|&(_, v)| v != 6));
    }
}
