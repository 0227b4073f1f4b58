//! Arena-backed CSR schedule representation: the replay-side view of a
//! [`Schedule`].
//!
//! [`Schedule`] stores one `Vec<Transmission>` per round, each transmission
//! owning its own destination `Vec` — friendly to incremental construction,
//! hostile to replay: an n = 2048 gossip schedule is millions of tuples
//! scattered across twice as many allocations. [`FlatSchedule`] packs the
//! same data, in the same order, into five flat `u32` arrays (round-major
//! transmissions over CSR destination lists), built once and then replayed
//! any number of times by [`crate::SimKernel`] with zero pointer chasing.
//!
//! The conversion is lossless for every schedule a real graph can carry:
//! processor ids are stored as `u32` (ids above `u32::MAX`, impossible for
//! any in-range destination since `Graph` caps `n` well below that, are
//! saturated and thus still rejected as out-of-range by the validators).
//!
//! [`FlatSchedule::validate`] is the round-parallel structural rule check:
//! rounds are independent for every rule except the hold-set one (rule 4,
//! execution-state dependent, enforced by the kernel during replay), so
//! contiguous round ranges are checked on separate cores. Each range runs
//! `RoundRules`, the one structural checker the kernel's strict and lossy
//! steps run too: adjacency is tested against an `n * ceil(n / 64)`-word
//! bitmap, and one send and one receive per processor per round against
//! round-stamped tables, in the oracle's rule order.
//!
//! [`FlatSchedule::from_round_fill`] is the matching assembly for
//! generators that know each transmission's round before they write it:
//! disjoint round ranges own disjoint slices of the five arrays, so the
//! ranges are filled on separate workers.

use crate::error::ModelError;
use crate::models::CommModel;
use crate::round::CommRound;
use crate::schedule::{Schedule, ScheduleStats};
use gossip_graph::Graph;
use gossip_telemetry::TxBatch;
use rayon::prelude::*;
use std::ops::Range;

#[inline]
fn id32(v: usize) -> u32 {
    v.min(u32::MAX as usize) as u32
}

/// Deliveries per round range of [`FlatSchedule::from_round_fill`]: a
/// schedule gets at most one range per `GRAIN` deliveries, so one smaller
/// than this fills on the calling thread without spawning a worker.
pub const GRAIN: usize = 1 << 18;

/// The cut [`FlatSchedule::from_round_fill`] makes: rounds
/// `0..tx_per_round.len()` in contiguous, non-empty ranges of about equal
/// transmissions + deliveries — at most `threads`, at most one per
/// [`GRAIN`] deliveries, at most one per round, and at least one (`0..0`
/// when there are no rounds).
pub fn round_ranges(
    tx_per_round: &[u32],
    deliv_per_round: &[u32],
    threads: usize,
) -> Vec<Range<usize>> {
    assert_eq!(
        tx_per_round.len(),
        deliv_per_round.len(),
        "one transmission and one delivery count per round"
    );
    let rounds = tx_per_round.len();
    let deliveries: u64 = deliv_per_round.iter().map(|&d| u64::from(d)).sum();
    let parts = threads
        .min((deliveries / GRAIN as u64) as usize)
        .min(rounds)
        .max(1);
    let weight = |t: usize| u64::from(tx_per_round[t]) + u64::from(deliv_per_round[t]);
    let total: u64 = (0..rounds).map(weight).sum();
    let mut ranges = Vec::with_capacity(parts);
    let (mut start, mut acc) = (0, 0u64);
    for k in 1..parts {
        let target = total * k as u64 / parts as u64;
        // Leave at least one round for each range still to come.
        let max_end = rounds - (parts - k);
        let mut end = start;
        loop {
            acc += weight(end);
            end += 1;
            if end >= max_end || acc >= target {
                break;
            }
        }
        ranges.push(start..end);
        start = end;
    }
    ranges.push(start..rounds);
    ranges
}

/// Splits the first `len` elements off `rest`.
fn split_front<'a>(rest: &mut &'a mut [u32], len: usize) -> &'a mut [u32] {
    let (front, tail) = std::mem::take(rest).split_at_mut(len);
    *rest = tail;
    front
}

/// One worker's share of a [`FlatSchedule::from_round_fill`]: a contiguous
/// range of rounds and the slices of the CSR arrays they occupy, with a
/// write cursor per round.
pub struct RoundFill<'a> {
    rounds: Range<usize>,
    /// Next transmission slot of each round, relative to the range.
    tx_cursor: Vec<usize>,
    /// Next destination slot of each round, relative to the range.
    dest_cursor: Vec<usize>,
    /// Absolute index of the range's first destination.
    dest_base: usize,
    tx_msg: &'a mut [u32],
    tx_from: &'a mut [u32],
    /// `dest_offsets[i + 1]` of the range's transmissions `i`.
    dest_ends: &'a mut [u32],
    dests: &'a mut [u32],
}

impl RoundFill<'_> {
    /// The rounds this share owns; [`RoundFill::push`] takes no others.
    pub fn rounds(&self) -> Range<usize> {
        self.rounds.clone()
    }

    /// Appends a transmission of `msg` by `from` to round `t` and returns
    /// its `ndests` destination slots for the caller to fill. Within a
    /// round, transmissions keep the order they are pushed in.
    ///
    /// # Panics
    ///
    /// Panics when `t` lies outside [`RoundFill::rounds`] or the share
    /// runs out of slots; [`FlatSchedule::from_round_fill`] also panics
    /// when a round ends up with other counts than it was sized for.
    #[inline]
    pub fn push(&mut self, t: usize, msg: u32, from: u32, ndests: usize) -> &mut [u32] {
        let k = t.wrapping_sub(self.rounds.start);
        let i = self.tx_cursor[k];
        self.tx_cursor[k] = i + 1;
        self.tx_msg[i] = msg;
        self.tx_from[i] = from;
        let d0 = self.dest_cursor[k];
        let d1 = d0 + ndests;
        self.dest_cursor[k] = d1;
        self.dest_ends[i] = (self.dest_base + d1) as u32;
        &mut self.dests[d0..d1]
    }
}

/// A [`Schedule`] flattened into round-major CSR arrays.
///
/// Layout: transmissions of round `t` are `round_offsets[t]..round_offsets
/// [t + 1]` in `tx_msg` / `tx_from`; the destinations of transmission `i`
/// are `dest_offsets[i]..dest_offsets[i + 1]` in `dests`. Iteration order
/// is identical to [`Schedule::iter`], so transmission indices double as
/// the provenance layer's `tx_id`s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatSchedule {
    n: usize,
    round_offsets: Vec<u32>,
    tx_msg: Vec<u32>,
    tx_from: Vec<u32>,
    dest_offsets: Vec<u32>,
    dests: Vec<u32>,
    max_fanout: usize,
    busiest_round: usize,
}

impl FlatSchedule {
    /// Flattens `schedule` (trailing empty rounds are dropped, exactly as
    /// [`Schedule::makespan`] ignores them).
    ///
    /// # Panics
    ///
    /// Panics if the schedule has `u32::MAX` or more transmissions or
    /// deliveries — beyond any schedule this workspace can build (gossip on
    /// n = 8192 is ~67M tuples) but a hard cap of the `u32` CSR offsets.
    pub fn from_schedule(schedule: &Schedule) -> FlatSchedule {
        Self::from_rounds(schedule.n, &schedule.rounds[..schedule.makespan()])
    }

    /// Flattens `rounds` over `n` processors as given, trailing empty
    /// rounds included: a replay of the result steps every one of them.
    ///
    /// # Panics
    ///
    /// As [`FlatSchedule::from_schedule`].
    pub fn from_rounds(n: usize, rounds: &[CommRound]) -> FlatSchedule {
        let _phase = gossip_telemetry::profile::phase("flatten");
        let mut tx_count = 0usize;
        let mut deliveries = 0usize;
        for r in rounds {
            tx_count += r.transmissions.len();
            deliveries += r.deliveries();
        }
        assert!(
            tx_count < u32::MAX as usize && deliveries < u32::MAX as usize,
            "schedule too large for u32 CSR offsets ({tx_count} transmissions, {deliveries} deliveries)"
        );
        let mut out = FlatSchedule {
            n,
            round_offsets: Vec::with_capacity(rounds.len() + 1),
            tx_msg: Vec::with_capacity(tx_count),
            tx_from: Vec::with_capacity(tx_count),
            dest_offsets: Vec::with_capacity(tx_count + 1),
            dests: Vec::with_capacity(deliveries),
            max_fanout: 0,
            busiest_round: 0,
        };
        out.round_offsets.push(0);
        out.dest_offsets.push(0);
        for r in rounds {
            out.busiest_round = out.busiest_round.max(r.transmissions.len());
            for tx in &r.transmissions {
                out.tx_msg.push(tx.msg);
                out.tx_from.push(id32(tx.from));
                out.max_fanout = out.max_fanout.max(tx.to.len());
                for &d in &tx.to {
                    out.dests.push(id32(d));
                }
                out.dest_offsets.push(out.dests.len() as u32);
            }
            out.round_offsets.push(out.tx_msg.len() as u32);
        }
        // Every element of the five CSR arrays is a u32 write.
        let csr_words = out.round_offsets.len()
            + out.tx_msg.len()
            + out.tx_from.len()
            + out.dest_offsets.len()
            + out.dests.len();
        gossip_telemetry::profile::count("csr_bytes", 4 * csr_words as u64);
        out
    }

    /// Assembles a `FlatSchedule` directly from its five CSR arrays — the
    /// fast planner's entry point: generators that emit straight into CSR
    /// (no `Vec`-of-tuples `Schedule`, no [`FlatSchedule::from_schedule`]
    /// pass) hand their arenas over here.
    ///
    /// `max_fanout` and `busiest_round` are derived from the arrays, so a
    /// CSR-direct build is indistinguishable (including [`PartialEq`] and
    /// [`FlatSchedule::digest`]) from flattening the equivalent `Schedule`.
    ///
    /// # Panics
    ///
    /// Panics if the arrays are not a well-formed CSR: offsets must start
    /// at 0, be monotone, and end at the length of the array they index,
    /// and the two transmission arrays must have equal length.
    pub fn from_raw_parts(
        n: usize,
        round_offsets: Vec<u32>,
        tx_msg: Vec<u32>,
        tx_from: Vec<u32>,
        dest_offsets: Vec<u32>,
        dests: Vec<u32>,
    ) -> FlatSchedule {
        assert_eq!(tx_msg.len(), tx_from.len(), "tx arrays disagree");
        for (name, offsets, indexed_len) in [
            ("round_offsets", &round_offsets, tx_msg.len()),
            ("dest_offsets", &dest_offsets, dests.len()),
        ] {
            assert_eq!(offsets.first(), Some(&0), "{name} must start at 0");
            assert!(
                offsets.windows(2).all(|w| w[0] <= w[1]),
                "{name} must be monotone"
            );
            assert_eq!(
                *offsets.last().expect("nonempty") as usize,
                indexed_len,
                "{name} must end at the indexed array's length"
            );
        }
        assert_eq!(
            dest_offsets.len(),
            tx_msg.len() + 1,
            "one destination range per transmission"
        );
        let max_fanout = dest_offsets
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .max()
            .unwrap_or(0);
        let busiest_round = round_offsets
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .max()
            .unwrap_or(0);
        let out = FlatSchedule {
            n,
            round_offsets,
            tx_msg,
            tx_from,
            dest_offsets,
            dests,
            max_fanout,
            busiest_round,
        };
        let csr_words = out.round_offsets.len()
            + out.tx_msg.len()
            + out.tx_from.len()
            + out.dest_offsets.len()
            + out.dests.len();
        gossip_telemetry::profile::count("csr_bytes", 4 * csr_words as u64);
        out
    }

    /// Assembles a `FlatSchedule` whose rounds are written by `fill`, from
    /// the exact transmission and delivery count of every round. The five
    /// arrays are allocated once, rounds `0..tx_per_round.len()` are cut
    /// into contiguous ranges of about equal transmissions + deliveries
    /// (at most [`rayon::current_num_threads`], at most one per [`GRAIN`]
    /// deliveries), and `fill` runs once per range, each on its own
    /// worker, writing through a [`RoundFill`] that owns the range's
    /// slices. With one range it runs on the calling thread.
    ///
    /// The result depends only on what `fill` pushes into each round, so
    /// a `fill` that pushes every round's transmissions in a fixed order
    /// gives the same bytes for every thread count and every cut.
    /// `max_fanout` and `busiest_round` are derived as in
    /// [`FlatSchedule::from_raw_parts`].
    ///
    /// # Panics
    ///
    /// Panics when the counts overflow `u32` CSR offsets, when `fill`
    /// panics (a worker's panic reaches the caller with its message), or
    /// when `fill` leaves any round with other counts than given.
    pub fn from_round_fill<F>(
        n: usize,
        tx_per_round: &[u32],
        deliv_per_round: &[u32],
        fill: F,
    ) -> FlatSchedule
    where
        F: Fn(&mut RoundFill<'_>) + Sync,
    {
        let ranges = round_ranges(tx_per_round, deliv_per_round, rayon::current_num_threads());
        FlatSchedule::fill_ranges(n, tx_per_round, deliv_per_round, ranges, fill)
    }

    /// [`FlatSchedule::from_round_fill`] over a given cut.
    fn fill_ranges<F>(
        n: usize,
        tx_per_round: &[u32],
        deliv_per_round: &[u32],
        ranges: Vec<Range<usize>>,
        fill: F,
    ) -> FlatSchedule
    where
        F: Fn(&mut RoundFill<'_>) + Sync,
    {
        let rounds = tx_per_round.len();
        let mut round_offsets = Vec::with_capacity(rounds + 1);
        let mut dest_starts = Vec::with_capacity(rounds + 1);
        let (mut tx_total, mut deliv_total) = (0u64, 0u64);
        round_offsets.push(0u32);
        dest_starts.push(0usize);
        for t in 0..rounds {
            tx_total += u64::from(tx_per_round[t]);
            deliv_total += u64::from(deliv_per_round[t]);
            round_offsets.push(tx_total as u32);
            dest_starts.push(deliv_total as usize);
        }
        assert!(
            tx_total < u64::from(u32::MAX) && deliv_total < u64::from(u32::MAX),
            "schedule too large to flatten: {tx_total} transmissions / {deliv_total} \
             deliveries overflow u32 CSR offsets"
        );
        let mut tx_msg = vec![0u32; tx_total as usize];
        let mut tx_from = vec![0u32; tx_total as usize];
        let mut dest_offsets = vec![0u32; tx_total as usize + 1];
        let mut dests = vec![0u32; deliv_total as usize];

        let mut shares = Vec::with_capacity(ranges.len());
        let (mut msg_rest, mut from_rest) = (&mut tx_msg[..], &mut tx_from[..]);
        let (mut ends_rest, mut dests_rest) = (&mut dest_offsets[1..], &mut dests[..]);
        for range in ranges {
            let (tx0, d0) = (
                round_offsets[range.start] as usize,
                dest_starts[range.start],
            );
            let txs = round_offsets[range.end] as usize - tx0;
            let dvs = dest_starts[range.end] - d0;
            shares.push(RoundFill {
                tx_cursor: range
                    .clone()
                    .map(|t| round_offsets[t] as usize - tx0)
                    .collect(),
                dest_cursor: range.clone().map(|t| dest_starts[t] - d0).collect(),
                rounds: range,
                dest_base: d0,
                tx_msg: split_front(&mut msg_rest, txs),
                tx_from: split_front(&mut from_rest, txs),
                dest_ends: split_front(&mut ends_rest, txs),
                dests: split_front(&mut dests_rest, dvs),
            });
        }
        let run = |mut share: RoundFill<'_>| {
            fill(&mut share);
            let (tx0, d0) = (
                round_offsets[share.rounds.start] as usize,
                dest_starts[share.rounds.start],
            );
            for (k, t) in share.rounds.clone().enumerate() {
                assert!(
                    share.tx_cursor[k] == round_offsets[t + 1] as usize - tx0
                        && share.dest_cursor[k] == dest_starts[t + 1] - d0,
                    "round {t} was not filled to its counts"
                );
            }
        };
        if shares.len() == 1 {
            run(shares.pop().expect("one share"));
        } else {
            shares.into_par_iter().map(run).collect::<Vec<()>>();
        }
        FlatSchedule::from_raw_parts(n, round_offsets, tx_msg, tx_from, dest_offsets, dests)
    }

    /// Number of processors the source schedule was built for.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of rounds (the source schedule's makespan).
    #[inline]
    pub fn rounds(&self) -> usize {
        self.round_offsets.len() - 1
    }

    /// Total number of transmissions across all rounds.
    #[inline]
    pub fn tx_count(&self) -> usize {
        self.tx_msg.len()
    }

    /// Total number of deliveries (sum of destination-set sizes).
    #[inline]
    pub fn deliveries(&self) -> usize {
        self.dests.len()
    }

    /// The transmission index range of round `t`.
    #[inline]
    pub fn round_range(&self, t: usize) -> std::ops::Range<usize> {
        self.round_offsets[t] as usize..self.round_offsets[t + 1] as usize
    }

    /// The message id of transmission `i`.
    #[inline]
    pub fn msg_of(&self, i: usize) -> u32 {
        self.tx_msg[i]
    }

    /// The sender of transmission `i`.
    #[inline]
    pub fn from_of(&self, i: usize) -> u32 {
        self.tx_from[i]
    }

    /// The destination list of transmission `i` (same order as the source
    /// transmission's `to`).
    #[inline]
    pub fn dests_of(&self, i: usize) -> &[u32] {
        &self.dests[self.dest_offsets[i] as usize..self.dest_offsets[i + 1] as usize]
    }

    /// Round `t` as a recorder batch: its slices of the CSR arrays, with
    /// the destination offsets left absolute.
    #[inline]
    pub fn round_batch(&self, t: usize) -> TxBatch<'_> {
        let txs = self.round_range(t);
        let dest_offsets = &self.dest_offsets[txs.start..=txs.end];
        TxBatch::new(
            &self.tx_msg[txs.clone()],
            &self.tx_from[txs],
            dest_offsets,
            &self.dests[dest_offsets[0] as usize..dest_offsets[dest_offsets.len() - 1] as usize],
        )
    }

    /// A stable fingerprint of the flattened schedule — the CSR arrays
    /// hashed in layout order — stamped into flight-record headers so
    /// `gossip diff` can tell whether two captures replayed the same
    /// schedule. Identical schedules digest identically regardless of
    /// which engine later executes them.
    pub fn digest(&self) -> u64 {
        let mut d = gossip_telemetry::flight::Digest::new();
        d.write_u64(self.n as u64);
        for arr in [
            &self.round_offsets,
            &self.tx_msg,
            &self.tx_from,
            &self.dest_offsets,
            &self.dests,
        ] {
            d.write_u64(arr.len() as u64);
            for &x in arr {
                d.write_u64(u64::from(x));
            }
        }
        d.finish()
    }

    /// Summary statistics — identical to [`Schedule::stats`] on the source
    /// schedule.
    pub fn stats(&self) -> ScheduleStats {
        ScheduleStats {
            n: self.n,
            makespan: self.rounds(),
            transmissions: self.tx_count(),
            deliveries: self.deliveries(),
            max_fanout: self.max_fanout,
            busiest_round: self.busiest_round,
        }
    }

    /// Transmission and delivery counts of every round, the weights
    /// [`round_ranges`] cuts by.
    fn round_counts(&self) -> (Vec<u32>, Vec<u32>) {
        (0..self.rounds())
            .map(|t| {
                let txs = self.round_range(t);
                let dests = self.dest_offsets[txs.end] - self.dest_offsets[txs.start];
                (txs.len() as u32, dests)
            })
            .unzip()
    }

    /// Round-parallel structural validation: every rule of the paper's §1
    /// model that does not depend on execution state — index ranges, empty
    /// and duplicate destinations, one send and one receive per processor
    /// per round, adjacency, and the model-specific fan-out restriction.
    /// The one state-dependent rule, sender-holds-message, is enforced by
    /// [`crate::SimKernel`] at replay.
    ///
    /// The rounds are cut as [`FlatSchedule::from_round_fill`] cuts them
    /// and the ranges are checked concurrently, each by the checker the
    /// kernel's strict step runs; the reported error is the first failing
    /// rule of the earliest failing round. For a schedule whose earliest
    /// failing round only violates the hold-set rule, the oracle
    /// [`crate::Simulator`] and this pass therefore disagree on *which*
    /// error surfaces — use [`crate::SimKernel::run`] when byte-identical
    /// oracle errors matter.
    pub fn validate(&self, g: &Graph, model: CommModel, n_msgs: usize) -> Result<(), ModelError> {
        // Round checks run on rayon workers, so only the calling thread's
        // wall-clock wait is attributed (see the profiler's threading
        // caveat).
        let _phase = gossip_telemetry::profile::phase("validate");
        if self.n != g.n() {
            return Err(ModelError::SizeMismatch {
                graph_n: g.n(),
                schedule_n: self.n,
            });
        }
        let rules = RoundRules::new(g, model, n_msgs);
        let (tx, dv) = self.round_counts();
        let ranges = round_ranges(&tx, &dv, rayon::current_num_threads());
        let check = |range: Range<usize>| {
            let mut marks = rules.marks();
            range
                .into_iter()
                .try_for_each(|t| rules.check(self, t, t, &mut marks, |_, _| true))
        };
        ranges
            .into_par_iter()
            .map(check)
            .collect::<Result<Vec<()>, ModelError>>()
            .map(drop)
    }
}

/// The structural rules of the paper's §1 model over one graph, model and
/// message count, checked one round at a time: index ranges, empty and
/// duplicate destinations, one send and one receive per processor per
/// round, adjacency and the fan-out restriction, in the oracle
/// [`crate::Simulator`]'s per-transmission order. The hold-set rule sits
/// in that order too, behind a caller-supplied test. [`FlatSchedule::validate`]
/// and [`crate::SimKernel`]'s strict and lossy steps all check through it.
///
/// Adjacency is an `n * ceil(n / 64)`-word bitmap, so a delivery's rule-3
/// test is one AND whatever the sender's degree or the order of its
/// destinations.
#[derive(Debug, Clone)]
pub(crate) struct RoundRules<'g> {
    g: &'g Graph,
    model: CommModel,
    n_msgs: usize,
    /// Words per adjacency row (`ceil(n / 64)`).
    row_words: usize,
    /// `n * row_words` adjacency bitmap; row `u` holds `u`'s neighbours.
    adj: Vec<u64>,
}

/// The senders and receivers of the round being checked: processor `v`
/// sent (received) in it iff `sent[v]` (`received[v]`) equals `stamp`,
/// which [`RoundRules::check`] bumps at each round, so no table is ever
/// cleared.
#[derive(Debug, Clone)]
pub(crate) struct RoundMarks {
    sent: Vec<u64>,
    received: Vec<u64>,
    stamp: u64,
}

impl<'g> RoundRules<'g> {
    /// The rules for schedules over `g` with `n_msgs` messages under
    /// `model`; builds the adjacency bitmap.
    pub(crate) fn new(g: &'g Graph, model: CommModel, n_msgs: usize) -> RoundRules<'g> {
        let n = g.n();
        let row_words = n.div_ceil(64);
        let mut adj = vec![0u64; n * row_words];
        for v in 0..n {
            let row = &mut adj[v * row_words..][..row_words];
            for &u in g.neighbors_raw(v) {
                set_bit(row, u as usize);
            }
        }
        RoundRules {
            g,
            model,
            n_msgs,
            row_words,
            adj,
        }
    }

    /// Empty marks for [`RoundRules::check`].
    pub(crate) fn marks(&self) -> RoundMarks {
        RoundMarks {
            sent: vec![0; self.g.n()],
            received: vec![0; self.g.n()],
            stamp: 0,
        }
    }

    /// Checks round `r` of `flat` (a schedule over this graph's `n`),
    /// stamping errors with `round`. `held(from, msg)` is the
    /// hold-set rule, asked once per transmission between the duplicate
    /// sender and fan-out checks; pass `|_, _| true` to skip it.
    pub(crate) fn check(
        &self,
        flat: &FlatSchedule,
        r: usize,
        round: usize,
        marks: &mut RoundMarks,
        held: impl Fn(usize, u32) -> bool,
    ) -> Result<(), ModelError> {
        let n = self.g.n();
        marks.stamp += 1;
        let stamp = marks.stamp;
        for i in flat.round_range(r) {
            let from = flat.from_of(i) as usize;
            if from >= n {
                return Err(ModelError::ProcessorOutOfRange {
                    round,
                    proc: from,
                    n,
                });
            }
            let msg = flat.msg_of(i);
            if msg as usize >= self.n_msgs {
                return Err(ModelError::MessageOutOfRange {
                    round,
                    msg,
                    n: self.n_msgs,
                });
            }
            let dests = flat.dests_of(i);
            if dests.is_empty() {
                return Err(ModelError::EmptyDestination {
                    round,
                    sender: from,
                });
            }
            if std::mem::replace(&mut marks.sent[from], stamp) == stamp {
                return Err(ModelError::DuplicateSender {
                    round,
                    sender: from,
                });
            }
            if !held(from, msg) {
                return Err(ModelError::MessageNotHeld {
                    round,
                    sender: from,
                    msg,
                });
            }
            self.model
                .check_fanout(self.g.degree(from), dests.len())
                .map_err(|reason| ModelError::ModelViolation {
                    round,
                    sender: from,
                    reason,
                })?;
            let adj = &self.adj[from * self.row_words..][..self.row_words];
            let mut prev: Option<usize> = None;
            for &d32 in dests {
                let d = d32 as usize;
                if d >= n {
                    return Err(ModelError::ProcessorOutOfRange { round, proc: d, n });
                }
                if prev == Some(d) {
                    return Err(ModelError::DuplicateDestination {
                        round,
                        sender: from,
                        receiver: d,
                    });
                }
                prev = Some(d);
                if adj[d / 64] & (1u64 << (d % 64)) == 0 {
                    return Err(ModelError::NotAdjacent {
                        round,
                        sender: from,
                        receiver: d,
                    });
                }
                if std::mem::replace(&mut marks.received[d], stamp) == stamp {
                    return Err(ModelError::DuplicateReceiver { round, receiver: d });
                }
            }
        }
        Ok(())
    }
}

/// Sets bit `i` of `words`; returns 1 if it was newly set, else 0.
#[inline]
pub(crate) fn set_bit(words: &mut [u64], i: usize) -> usize {
    let (w, b) = (i / 64, 1u64 << (i % 64));
    let newly = words[w] & b == 0;
    words[w] |= b;
    newly as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::round::Transmission;
    use crate::SimKernel;

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

    #[test]
    fn flattening_preserves_iteration_order_and_stats() {
        let s = ring_schedule(6);
        let flat = FlatSchedule::from_schedule(&s);
        assert_eq!(flat.stats(), s.stats());
        let mut i = 0;
        for (t, tx) in s.iter() {
            assert!(flat.round_range(t).contains(&i));
            assert_eq!(flat.msg_of(i), tx.msg);
            assert_eq!(flat.from_of(i) as usize, tx.from);
            let dests: Vec<usize> = flat.dests_of(i).iter().map(|&d| d as usize).collect();
            assert_eq!(dests, tx.to);
            i += 1;
        }
        assert_eq!(i, flat.tx_count());
    }

    #[test]
    fn trailing_empty_rounds_dropped() {
        let mut s = Schedule::new(3);
        s.add_transmission(0, Transmission::unicast(0, 0, 1));
        s.rounds.resize_with(7, crate::round::CommRound::new);
        let flat = FlatSchedule::from_schedule(&s);
        assert_eq!(flat.rounds(), 1);
        assert_eq!(flat.tx_count(), 1);
    }

    #[test]
    fn validate_accepts_ring_schedule() {
        let n = 8;
        let g = ring(n);
        let flat = FlatSchedule::from_schedule(&ring_schedule(n));
        assert!(flat.validate(&g, CommModel::Multicast, n).is_ok());
        // Telephone also holds (all unicasts); broadcast does not (degree 2).
        assert!(flat.validate(&g, CommModel::Telephone, n).is_ok());
        assert!(matches!(
            flat.validate(&g, CommModel::Broadcast, n).unwrap_err(),
            ModelError::ModelViolation { .. }
        ));
    }

    #[test]
    fn validate_reports_earliest_round_error() {
        let g = ring(4);
        let mut s = Schedule::new(4);
        s.add_transmission(0, Transmission::unicast(0, 0, 1));
        s.add_transmission(2, Transmission::unicast(0, 0, 2)); // not adjacent
        s.add_transmission(5, Transmission::unicast(9, 0, 1)); // msg range
        let flat = FlatSchedule::from_schedule(&s);
        assert_eq!(
            flat.validate(&g, CommModel::Multicast, 4).unwrap_err(),
            ModelError::NotAdjacent {
                round: 2,
                sender: 0,
                receiver: 2
            }
        );
    }

    #[test]
    fn validate_word_dedup_catches_conflicts() {
        let g = Graph::from_edges(3, &[(0, 2), (1, 2)]).unwrap();
        let mut s = Schedule::new(3);
        s.add_transmission(0, Transmission::unicast(0, 0, 2));
        s.add_transmission(0, Transmission::unicast(1, 1, 2));
        let flat = FlatSchedule::from_schedule(&s);
        assert_eq!(
            flat.validate(&g, CommModel::Multicast, 3).unwrap_err(),
            ModelError::DuplicateReceiver {
                round: 0,
                receiver: 2
            }
        );
        let mut s2 = Schedule::new(3);
        s2.add_transmission(0, Transmission::unicast(0, 0, 2));
        s2.add_transmission(0, Transmission::unicast(0, 0, 2));
        let flat2 = FlatSchedule::from_schedule(&s2);
        assert_eq!(
            flat2.validate(&g, CommModel::Multicast, 3).unwrap_err(),
            ModelError::DuplicateSender {
                round: 0,
                sender: 0
            }
        );
    }

    #[test]
    fn validate_rejects_size_mismatch() {
        let g = ring(4);
        let flat = FlatSchedule::from_schedule(&Schedule::new(5));
        assert!(matches!(
            flat.validate(&g, CommModel::Multicast, 5).unwrap_err(),
            ModelError::SizeMismatch { .. }
        ));
    }

    #[test]
    fn from_raw_parts_matches_from_schedule() {
        let s = ring_schedule(6);
        let flat = FlatSchedule::from_schedule(&s);
        let rebuilt = FlatSchedule::from_raw_parts(
            flat.n,
            flat.round_offsets.clone(),
            flat.tx_msg.clone(),
            flat.tx_from.clone(),
            flat.dest_offsets.clone(),
            flat.dests.clone(),
        );
        assert_eq!(rebuilt, flat);
        assert_eq!(rebuilt.digest(), flat.digest());
        assert_eq!(rebuilt.stats(), flat.stats());
    }

    #[test]
    fn from_raw_parts_empty() {
        let flat = FlatSchedule::from_raw_parts(4, vec![0], vec![], vec![], vec![0], vec![]);
        assert_eq!(flat.rounds(), 0);
        assert_eq!(flat, FlatSchedule::from_schedule(&Schedule::new(4)));
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn from_raw_parts_rejects_descending_offsets() {
        FlatSchedule::from_raw_parts(
            2,
            vec![0, 2, 1, 2],
            vec![0, 1],
            vec![0, 1],
            vec![0, 1, 2],
            vec![1, 0],
        );
    }

    #[test]
    #[should_panic(expected = "one destination range per transmission")]
    fn from_raw_parts_rejects_missing_dest_range() {
        FlatSchedule::from_raw_parts(2, vec![0, 1], vec![0], vec![0], vec![0], vec![]);
    }

    #[test]
    fn empty_schedule_flattens() {
        let flat = FlatSchedule::from_schedule(&Schedule::new(4));
        assert_eq!(flat.rounds(), 0);
        assert_eq!(flat.tx_count(), 0);
        assert_eq!(flat.stats().deliveries, 0);
        assert!(flat.validate(&ring(4), CommModel::Multicast, 4).is_ok());
    }

    /// The reference validator: one `has_edge` binary search per delivery,
    /// a fresh `bool` table per round, rounds checked in order. `validate`
    /// must match it error for error. (The two proptests below were written
    /// for the neighbour-list merge walk the bitmap checker replaced; they
    /// hold the checker to the same oracle.)
    fn oracle_validate(
        flat: &FlatSchedule,
        g: &Graph,
        model: CommModel,
        n_msgs: usize,
    ) -> Result<(), ModelError> {
        let n = flat.n;
        if n != g.n() {
            return Err(ModelError::SizeMismatch {
                graph_n: g.n(),
                schedule_n: n,
            });
        }
        for t in 0..flat.rounds() {
            let mut sent = vec![false; n];
            let mut received = vec![false; n];
            for i in flat.round_range(t) {
                let from = flat.tx_from[i] as usize;
                if from >= n {
                    return Err(ModelError::ProcessorOutOfRange {
                        round: t,
                        proc: from,
                        n,
                    });
                }
                let msg = flat.tx_msg[i];
                if msg as usize >= n_msgs {
                    return Err(ModelError::MessageOutOfRange {
                        round: t,
                        msg,
                        n: n_msgs,
                    });
                }
                let dests = flat.dests_of(i);
                if dests.is_empty() {
                    return Err(ModelError::EmptyDestination {
                        round: t,
                        sender: from,
                    });
                }
                if std::mem::replace(&mut sent[from], true) {
                    return Err(ModelError::DuplicateSender {
                        round: t,
                        sender: from,
                    });
                }
                model
                    .check_fanout(g.degree(from), dests.len())
                    .map_err(|reason| ModelError::ModelViolation {
                        round: t,
                        sender: from,
                        reason,
                    })?;
                let mut prev: Option<usize> = None;
                for &d32 in dests {
                    let d = d32 as usize;
                    if d >= n {
                        return Err(ModelError::ProcessorOutOfRange {
                            round: t,
                            proc: d,
                            n,
                        });
                    }
                    if prev == Some(d) {
                        return Err(ModelError::DuplicateDestination {
                            round: t,
                            sender: from,
                            receiver: d,
                        });
                    }
                    prev = Some(d);
                    if !g.has_edge(from, d) {
                        return Err(ModelError::NotAdjacent {
                            round: t,
                            sender: from,
                            receiver: d,
                        });
                    }
                    if std::mem::replace(&mut received[d], true) {
                        return Err(ModelError::DuplicateReceiver {
                            round: t,
                            receiver: d,
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// splitmix64, so a proptest case is fully described by `(n, seed)`.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, k: usize) -> usize {
            (self.next() % k as u64) as usize
        }

        fn percent(&mut self, p: u64) -> bool {
            self.next() % 100 < p
        }
    }

    /// A random graph on `n` vertices with edge probability `density`
    /// percent and a random flat schedule over it that is mostly legal,
    /// with occasional out-of-range senders, messages and destinations,
    /// repeated senders, empty, duplicate, non-adjacent and unsorted
    /// destination lists, and a random model.
    fn random_case(n: usize, density: u64, seed: u64) -> (Graph, FlatSchedule, CommModel) {
        let mut rng = Rng(seed);
        let mut edges = Vec::new();
        for u in 0..n {
            for v in u + 1..n {
                if rng.percent(density) {
                    edges.push((u, v));
                }
            }
        }
        let g = Graph::from_edges(n, &edges).unwrap();
        let model = match rng.below(10) {
            0 => CommModel::Telephone,
            1 => CommModel::Broadcast,
            _ => CommModel::Multicast,
        };
        let (mut round_offsets, mut tx_msg, mut tx_from) = (vec![0u32], Vec::new(), Vec::new());
        let (mut dest_offsets, mut dests) = (vec![0u32], Vec::new());
        for _ in 0..1 + rng.below(4) {
            let mut received = vec![false; n];
            let mut senders: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                senders.swap(i, rng.below(i + 1));
            }
            senders.truncate(rng.below(n / 2 + 2));
            for &sender in &senders {
                let from = match rng.below(100) {
                    0..=1 => n + rng.below(3),
                    2..=4 => tx_from.last().map_or(sender, |&f: &u32| f as usize),
                    _ => sender,
                };
                let mut to: Vec<u32> = if from < n {
                    g.neighbors(from)
                        .filter(|&v| !received[v] && rng.percent(50))
                        .map(|v| v as u32)
                        .collect()
                } else {
                    vec![rng.below(n) as u32]
                };
                if to.is_empty() && rng.percent(90) {
                    continue;
                }
                if rng.percent(5) {
                    to.push(rng.below(n) as u32);
                }
                if rng.percent(2) {
                    to.push((n + rng.below(2)) as u32);
                }
                if rng.percent(4) && !to.is_empty() {
                    let d = to[rng.below(to.len())];
                    to.push(d);
                }
                to.sort_unstable();
                if rng.percent(10) {
                    for i in (1..to.len()).rev() {
                        to.swap(i, rng.below(i + 1));
                    }
                }
                for &d in &to {
                    if let Some(r) = received.get_mut(d as usize) {
                        *r = true;
                    }
                }
                let msg = if rng.percent(2) {
                    n + rng.below(2)
                } else {
                    rng.below(n)
                };
                tx_msg.push(msg as u32);
                tx_from.push(from as u32);
                dests.extend_from_slice(&to);
                dest_offsets.push(dests.len() as u32);
            }
            round_offsets.push(tx_msg.len() as u32);
        }
        let flat =
            FlatSchedule::from_raw_parts(n, round_offsets, tx_msg, tx_from, dest_offsets, dests);
        (g, flat, model)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// The merge-walk validator returns the oracle's exact `Result`.
        #[test]
        fn validate_matches_binary_search_oracle((n, seed) in (2usize..=24, 0u64..u64::MAX)) {
            let (g, flat, model) = random_case(n, 30, seed);
            proptest::prop_assert_eq!(
                flat.validate(&g, model, n),
                oracle_validate(&flat, &g, model, n)
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// The same on dense graphs, whose long neighbour lists make the
        /// cursor skip past the count window between destinations.
        #[test]
        fn validate_matches_oracle_on_dense_graphs((n, seed) in (60usize..=160, 0u64..u64::MAX)) {
            let (g, flat, model) = random_case(n, 90, seed);
            proptest::prop_assert_eq!(
                flat.validate(&g, model, n),
                oracle_validate(&flat, &g, model, n)
            );
        }
    }

    /// Refills `flat` through `fill_ranges` over `ranges`, pushing every
    /// round's transmissions in order.
    fn refill(flat: &FlatSchedule, ranges: &[Range<usize>]) -> FlatSchedule {
        let (tx, dv) = flat.round_counts();
        FlatSchedule::fill_ranges(flat.n, &tx, &dv, ranges.to_vec(), |fill| {
            for t in fill.rounds() {
                for i in flat.round_range(t) {
                    let dests = flat.dests_of(i);
                    fill.push(t, flat.msg_of(i), flat.from_of(i), dests.len())
                        .copy_from_slice(dests);
                }
            }
        })
    }

    fn assert_valid_cut(ranges: &[Range<usize>], rounds: usize, threads: usize, deliveries: u64) {
        assert!(!ranges.is_empty());
        assert!(
            ranges.len() <= threads.max(1),
            "{ranges:?} > {threads} threads"
        );
        assert!(
            ranges.len() as u64 <= (deliveries / GRAIN as u64).max(1),
            "{ranges:?}: more than one range per GRAIN of {deliveries} deliveries"
        );
        assert_eq!(ranges[0].start, 0);
        assert_eq!(ranges[ranges.len() - 1].end, rounds);
        for w in ranges.windows(2) {
            assert_eq!(w[0].end, w[1].start, "{ranges:?} not contiguous");
        }
        if rounds > 0 {
            assert!(ranges.iter().all(|r| !r.is_empty()), "{ranges:?}");
        }
    }

    #[test]
    fn round_ranges_cut_is_contiguous_capped_and_nonempty() {
        let big = GRAIN as u32;
        // (tx per round, deliveries per round): uniform, skewed, sparse
        // with empty rounds, and below one GRAIN.
        let cases: Vec<(Vec<u32>, Vec<u32>)> = vec![
            (vec![100; 40], vec![big / 4; 40]),
            (
                (0..50).map(|t| t * 3).collect(),
                (0..50).map(|t| t * big / 20).collect(),
            ),
            (
                (0..30).map(|t| if t % 3 == 0 { 0 } else { 9 }).collect(),
                (0..30).map(|t| if t % 3 == 0 { 0 } else { big }).collect(),
            ),
            (vec![5; 10], vec![1000; 10]),
            (vec![], vec![]),
        ];
        for (tx, dv) in &cases {
            let deliveries: u64 = dv.iter().map(|&d| u64::from(d)).sum();
            for threads in [1usize, 2, 3, 7, 64] {
                let ranges = round_ranges(tx, dv, threads);
                assert_valid_cut(&ranges, tx.len(), threads, deliveries);
            }
        }
        // More threads than rounds: one range per round at most.
        let ranges = round_ranges(&[1, 1, 1], &[big, big, big], 16);
        assert_eq!(ranges, vec![0..1, 1..2, 2..3]);
        // Below one GRAIN: a single range whatever the thread count.
        assert_eq!(round_ranges(&[5; 10], &[1000; 10], 8), vec![0..10]);
        // Balanced by weight: a heavy first half gets the shorter range.
        let mut dv = vec![big; 10];
        dv.extend(vec![big / 8; 10]);
        let ranges = round_ranges(&[1; 20], &dv, 2);
        assert_eq!(ranges.len(), 2);
        assert!(ranges[0].len() < ranges[1].len(), "{ranges:?}");
    }

    #[test]
    fn round_fill_is_byte_identical_for_every_cut() {
        for (n, seed) in [(12usize, 1u64), (24, 2), (40, 3)] {
            let (_, flat, _) = random_case(n, 40, seed);
            let rounds = flat.rounds();
            let one = refill(&flat, std::slice::from_ref(&(0..rounds)));
            assert_eq!(one, flat);
            assert_eq!(one.digest(), flat.digest());
            assert_eq!(one.stats(), flat.stats());
            let per_round: Vec<Range<usize>> = (0..rounds).map(|t| t..t + 1).collect();
            assert_eq!(refill(&flat, &per_round), flat);
            if rounds >= 2 {
                assert_eq!(refill(&flat, &[0..1, 1..rounds]), flat);
            }
        }
        let empty = FlatSchedule::from_schedule(&Schedule::new(3));
        assert_eq!(refill(&empty, std::slice::from_ref(&(0..0))), empty);
    }

    #[test]
    #[should_panic(expected = "was not filled to its counts")]
    fn round_fill_rejects_an_underfilled_round() {
        FlatSchedule::fill_ranges(2, &[1, 1], &[1, 1], vec![0..1, 1..2], |fill| {
            if fill.rounds().start == 0 {
                fill.push(0, 0, 0, 1)[0] = 1;
            }
        });
    }

    #[test]
    #[should_panic(expected = "conflict in round 1")]
    fn round_fill_worker_panic_keeps_its_message() {
        FlatSchedule::fill_ranges(2, &[1, 1], &[1, 1], vec![0..1, 1..2], |fill| {
            let t = fill.rounds().start;
            assert!(t == 0, "conflict in round {t}");
            fill.push(t, 0, 0, 1)[0] = 1;
        });
    }

    #[test]
    fn round_batch_slices_one_round() {
        let flat = FlatSchedule::from_schedule(&ring_schedule(5));
        for t in 0..flat.rounds() {
            let batch = flat.round_batch(t);
            let txs = flat.round_range(t);
            assert_eq!(batch.len(), txs.len());
            assert_eq!(batch.msgs(), &flat.tx_msg[txs.clone()]);
            assert_eq!(batch.senders(), &flat.tx_from[txs.clone()]);
            for (k, i) in txs.enumerate() {
                assert_eq!(batch.dests_of(k), flat.dests_of(i));
            }
            assert_eq!(batch.deliveries(), 5);
        }
    }

    /// The random cases reach the accepting path and every structural
    /// error, so the oracle comparison above is not vacuous.
    #[test]
    fn random_cases_cover_every_structural_verdict() {
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..2000 {
            let (g, flat, model) = random_case(2 + (seed as usize % 23), 30, seed);
            let verdict = match oracle_validate(&flat, &g, model, g.n()) {
                Ok(()) => "ok",
                Err(ModelError::ProcessorOutOfRange { .. }) => "out_of_range",
                Err(ModelError::MessageOutOfRange { .. }) => "msg_out_of_range",
                Err(ModelError::EmptyDestination { .. }) => "empty",
                Err(ModelError::DuplicateSender { .. }) => "dup_sender",
                Err(ModelError::ModelViolation { .. }) => "model",
                Err(ModelError::DuplicateDestination { .. }) => "dup_dest",
                Err(ModelError::NotAdjacent { .. }) => "not_adjacent",
                Err(ModelError::DuplicateReceiver { .. }) => "dup_receiver",
                Err(e) => panic!("unexpected verdict {e}"),
            };
            seen.insert(verdict);
        }
        assert_eq!(seen.len(), 9, "{seen:?}");
    }

    #[test]
    fn unsorted_destinations_are_checked_one_by_one() {
        // Star: 0 is adjacent to 1..=4 and not to itself.
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]).unwrap();
        let from_zero = |to: Vec<u32>| {
            FlatSchedule::from_raw_parts(
                5,
                vec![0, 1],
                vec![0],
                vec![0],
                vec![0, to.len() as u32],
                to,
            )
        };
        assert_eq!(
            from_zero(vec![4, 1, 3, 2]).validate(&g, CommModel::Multicast, 5),
            Ok(())
        );
        assert_eq!(
            from_zero(vec![4, 1, 0]).validate(&g, CommModel::Multicast, 5),
            Err(ModelError::NotAdjacent {
                round: 0,
                sender: 0,
                receiver: 0
            })
        );
    }

    /// A telephone gossip plan on the star around `center` of `g`: each
    /// leaf sends its own message to the center, one leaf per round, then
    /// the center unicasts every message to every leaf that lacks it, one
    /// transmission per round — about n² single-destination transmissions
    /// from one sender of degree n − 1, the shape of a telephone plan on a
    /// star, and on a complete graph, whose minimum-depth tree is a star.
    fn telephone_star_plan(n: usize, center: usize) -> FlatSchedule {
        let mut s = Schedule::new(n);
        let leaves = (0..n).filter(|&v| v != center);
        let mut t = 0;
        for leaf in leaves.clone() {
            s.add_transmission(t, Transmission::unicast(leaf as u32, leaf, center));
            t += 1;
        }
        for m in 0..n {
            for leaf in leaves.clone().filter(|&leaf| leaf != m) {
                s.add_transmission(t, Transmission::unicast(m as u32, center, leaf));
                t += 1;
            }
        }
        FlatSchedule::from_schedule(&s)
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
        FlatSchedule::from_raw_parts(flat.n, round_offsets, tx_msg, tx_from, dest_offsets, dests)
    }

    /// High-degree senders with short destination lists: `validate` gives
    /// the oracle's `Result` on a star and on a complete graph, clean and
    /// mutated, and the kernel's strict run reports the same structural
    /// errors.
    #[test]
    fn validate_matches_oracle_on_telephone_plans_around_a_hub() {
        let n = 512;
        let center = 0;
        let star = Graph::from_edges(n, &(1..n).map(|v| (0, v)).collect::<Vec<_>>()).unwrap();
        let mut complete = gossip_graph::GraphBuilder::new(n);
        for u in 0..n {
            for v in u + 1..n {
                complete.add_edge_unchecked(u, v).unwrap();
            }
        }
        let complete = complete.build();
        let plan = telephone_star_plan(n, center);
        let (up, mid) = (n / 2, n + n * n / 2);
        let mutants = [
            (
                "out-of-range sender",
                edit_round(&plan, mid, |txs| txs[0].1 = 512),
            ),
            (
                "duplicate destination",
                edit_round(&plan, mid, |txs| {
                    let d = txs[0].2[0];
                    txs[0].2.push(d);
                }),
            ),
            (
                "non-adjacent receiver",
                edit_round(&plan, mid, |txs| txs[0].2[0] = 0),
            ),
            // A second leaf sends its own message to the center in the
            // same round.
            (
                "duplicate receiver",
                edit_round(&plan, up, |txs| {
                    let leaf = txs[0].1 + 1;
                    txs.push((leaf, leaf, vec![0]));
                }),
            ),
        ];
        for g in [&star, &complete] {
            let origins: Vec<usize> = (0..n).collect();
            for model in [CommModel::Telephone, CommModel::Multicast] {
                assert_eq!(plan.validate(g, model, n), Ok(()));
                assert_eq!(oracle_validate(&plan, g, model, n), Ok(()));
            }
            let mut kernel = SimKernel::new(g, CommModel::Telephone, &origins).unwrap();
            assert!(kernel.run(&plan).unwrap().complete);
            for (what, bad) in &mutants {
                let want = oracle_validate(bad, g, CommModel::Multicast, n);
                assert!(want.is_err(), "{what}: the oracle accepts it");
                assert_eq!(bad.validate(g, CommModel::Multicast, n), want, "{what}");
                let mut kernel = SimKernel::new(g, CommModel::Multicast, &origins).unwrap();
                assert_eq!(kernel.run(bad).map(drop), want, "{what}: strict kernel run");
            }
        }
    }
}
