//! CSR-direct **ConcurrentUpDown**: the fast planner's generator.
//!
//! [`concurrent_updown`](crate::concurrent_updown) materializes a
//! `Vec`-of-`Vec` [`Schedule`](gossip_model::Schedule) (one allocation per
//! transmission) that the reference pipeline then flattens; at n = 10⁵ that
//! intermediate representation is the dominant cost of planning. This
//! module emits the *same* schedule straight into [`FlatSchedule`] CSR
//! arenas. Both generators run one lock-step engine ([`Lockstep`]):
//!
//! - it reads the one label arena, [`FlatLabels`] (`j`, `k`, parent and
//!   child lists in flat arrays), which every label-space generator
//!   shares;
//! - ConcurrentUpDown is a set of per-vertex protocols that send at fixed
//!   times (§3.2), and the engine runs them as §4 does online: round by
//!   round, every vertex's [`VertexMachine`] steps once, in ascending
//!   label order. A machine holds its Propagate-Up (U3/U4) and
//!   own-subtree (D3) event sequences, each an O(1) state machine in
//!   nondecreasing time order, the D2 arrivals it parked, and its last
//!   two down-sends, which are its children's next arrivals;
//! - sends therefore come out round-major, so every write lands in the
//!   round being filled instead of scattering across the schedule;
//! - leaves send once, so they carry no machine: they are bucketed by
//!   send round up front and visited only in that round;
//! - a **count pass** sizes every CSR array exactly (per-round transmission
//!   and delivery totals → prefix sums), then an **emit pass** writes each
//!   transmission into its final slot via per-round cursors, one round
//!   range per worker; each worker steps the rounds before its range
//!   without writing. No re-allocation, no sort, no intermediate
//!   `Schedule`.
//!
//! The sequences are the only place production code computes a
//! ConcurrentUpDown send time, and [`VertexMachine::step`] the only place
//! that overlays them. The engine also reports the paper rule of every
//! send, for
//! [`annotated_concurrent_updown`](crate::annotated_concurrent_updown);
//! [`OnlineVertex`](crate::OnlineVertex) is one machine behind the public
//! per-processor API, and [`gather_schedule`](crate::gather_schedule)
//! emits the Propagate-Up events alone.
//!
//! Within every round the transmissions appear in ascending sender
//! label — exactly the order [`FlatSchedule::from_schedule`] produces from
//! the reference generator. On the same tree the two pipelines are
//! **byte-identical** (same [`digest`](FlatSchedule::digest)); the
//! `planner_equivalence` suite pins both against an independent
//! `BTreeMap` overlay of the paper's rules.

use crate::annotated::Rule;
use crate::labeling::FlatLabels;
use gossip_graph::{RootedTree, NO_PARENT};
use gossip_model::FlatSchedule;
use gossip_telemetry::{Recorder, RecorderExt};
use std::ops::Range;

/// A sequence event or a parked D2 arrival: message `msg` leaves the
/// vertex at time `t`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Ev {
    pub(crate) t: u32,
    pub(crate) msg: u32,
}

/// Destination set of a down event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Down {
    /// Pure Propagate-Up send: no child destinations.
    No,
    /// All children: D2 forwards and the own-message D3.
    All,
    /// All children except the one (given by label) whose subtree contains
    /// the message: D3 for `m > i`.
    Except(u32),
}

impl FlatLabels {
    /// The destination vertices of an engine send at `label`: the parent
    /// when `to_parent`, then the children `down` selects.
    pub(crate) fn dests(&self, label: u32, to_parent: bool, down: Down) -> Vec<usize> {
        let kids = self.children(label);
        let mut dests = Vec::with_capacity(usize::from(to_parent) + kids.len());
        if to_parent {
            dests.push(self.vertex(self.parent(label)) as usize);
        }
        match down {
            Down::No => {}
            Down::All => dests.extend(kids.iter().map(|&c| self.vertex(c) as usize)),
            Down::Except(skip) => dests.extend(
                kids.iter()
                    .filter(|&&c| c != skip)
                    .map(|&c| self.vertex(c) as usize),
            ),
        }
        dests
    }
}

/// One sequence event: `msg` leaves at `t` by paper step `rule`.
fn tagged(t: u32, msg: u32, rule: Rule) -> Option<(Ev, Rule)> {
    Some((Ev { t, msg }, rule))
}

/// Propagate-Up events: the lip-message (U3, time 0) then the rip-messages
/// (U4, `m - k` for `m ∈ [max(i, i'+2), j]`). Increasing `t`.
#[derive(Debug, Clone)]
pub(crate) struct UpSeq {
    lip_pending: bool,
    lip_msg: u32,
    next_rip: u32,
    rip_end: u32,
    k: u32,
}

impl UpSeq {
    /// The up events of label `i` (subtree `[i, j]`, level `k`) under
    /// `parent`; none for the root (`parent == NO_PARENT`).
    pub(crate) fn new(i: u32, j: u32, k: u32, parent: u32) -> UpSeq {
        let is_root = parent == NO_PARENT;
        UpSeq {
            lip_pending: !is_root && i == parent + 1,
            lip_msg: i,
            next_rip: if is_root { 1 } else { i.max(parent + 2) },
            rip_end: if is_root { 0 } else { j },
            k,
        }
    }
}

impl Iterator for UpSeq {
    type Item = (Ev, Rule);

    fn next(&mut self) -> Option<(Ev, Rule)> {
        if self.lip_pending {
            self.lip_pending = false;
            return tagged(0, self.lip_msg, Rule::U3Lip);
        }
        if self.next_rip <= self.rip_end {
            let m = self.next_rip;
            self.next_rip += 1;
            return tagged(m - self.k, m, Rule::U4Rip);
        }
        None
    }
}

/// D3 events (own-subtree multicasts): `m` at `m - k` for `m ∈ [i, j]`,
/// except that when `i = k` the own message moves to `j - k + 1` — which in
/// time order means it is produced *last* instead of first. Increasing `t`.
#[derive(Debug, Clone)]
pub(crate) struct OwnSeq {
    i: u32,
    j: u32,
    k: u32,
    next_m: u32,
    own_pending: bool,
    /// `i == k`: the own message is deferred behind the rest.
    own_last: bool,
}

impl OwnSeq {
    /// The down events of label `i` (subtree `[i, j]`, level `k`); none for
    /// a leaf.
    pub(crate) fn new(i: u32, j: u32, k: u32) -> OwnSeq {
        OwnSeq {
            i,
            j,
            k,
            next_m: i + 1,
            own_pending: i != j,
            own_last: i == k,
        }
    }
}

impl Iterator for OwnSeq {
    type Item = (Ev, Rule);

    fn next(&mut self) -> Option<(Ev, Rule)> {
        if self.own_pending && !self.own_last {
            self.own_pending = false;
            return tagged(self.i - self.k, self.i, Rule::D3Down);
        }
        if self.next_m <= self.j {
            let m = self.next_m;
            self.next_m += 1;
            return tagged(m - self.k, m, Rule::D3Down);
        }
        if self.own_pending {
            self.own_pending = false;
            return tagged(self.j - self.k + 1, self.i, Rule::D3DeferredOwn);
        }
        None
    }
}

/// (D2) When an o-message arriving at `t_arrive` leaves label `i`
/// (subtree `[i, j]`, level `k`): the vertex is busy multicasting its own
/// subtree during `[i - k, j - k]`, so arrivals at `i - k` and `i - k + 1`
/// wait until `j - k + 1` and `j - k + 2`; every other arrival is
/// forwarded the round it arrives.
pub(crate) fn d2_slot(t_arrive: u32, i: u32, j: u32, k: u32) -> u32 {
    if t_arrive == i - k {
        j - k + 1
    } else if t_arrive == i - k + 1 {
        j - k + 2
    } else {
        t_arrive
    }
}

/// An empty message slot: no arrival, no down-send this round, no parked
/// arrival.
pub(crate) const NONE: u32 = u32::MAX;

/// One round's transmission of a [`VertexMachine`]: `msg` to the parent
/// when `to_parent`, and to the children `down` selects, by paper step
/// `rule`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RoundSend {
    pub(crate) msg: u32,
    pub(crate) to_parent: bool,
    pub(crate) down: Down,
    pub(crate) rule: Rule,
}

/// One vertex's ConcurrentUpDown protocol, stepped one round at a time:
/// its Propagate-Up ([`UpSeq`]) and own-subtree ([`OwnSeq`]) sequences
/// with their head events, the o-messages it received from its parent and
/// parked until their [`d2_slot`], and what it sent down in the last two
/// rounds. [`Lockstep`] steps one per internal vertex;
/// [`OnlineVertex`](crate::OnlineVertex) wraps one per processor.
#[derive(Debug, Clone)]
pub(crate) struct VertexMachine {
    i: u32,
    j: u32,
    k: u32,
    up: UpSeq,
    own: OwnSeq,
    /// The next (U3/U4) and (D3) events, `None` once a sequence is done.
    up_head: Option<(Ev, Rule)>,
    own_head: Option<(Ev, Rule)>,
    /// D2 arrivals waiting for their deferred slot (`msg == NONE`: free).
    parked: [Ev; 2],
    /// Position, among the children, of the one owning the last D3
    /// message `m > i`: those messages ascend and the child ranges
    /// partition `(i, j]`, so it only advances.
    owner: usize,
    /// The message multicast down in round `t`, at `t % 2` (`NONE` when
    /// none). A child steps after its parent within a round, so it reads
    /// the parent's previous round from the other slot.
    down: [u32; 2],
}

impl VertexMachine {
    /// The machine of label `i` (subtree `[i, j]`, level `k`) under
    /// `parent` ([`NO_PARENT`] for the root), before round 0.
    pub(crate) fn new(i: u32, j: u32, k: u32, parent: u32) -> Self {
        let mut up = UpSeq::new(i, j, k, parent);
        let mut own = OwnSeq::new(i, j, k);
        VertexMachine {
            i,
            j,
            k,
            up_head: up.next(),
            own_head: own.next(),
            up,
            own,
            parked: [Ev { t: 0, msg: NONE }; 2],
            owner: 0,
            down: [NONE; 2],
        }
    }

    /// What this vertex multicast down in the round before `t` (`NONE`
    /// for nothing): the arrival its children see in round `t`.
    #[inline]
    fn sent_down_before(&self, t: u32) -> u32 {
        self.down[(!t & 1) as usize]
    }

    /// Steps round `t`: `arrival` is the parent's down-send of round
    /// `t - 1` (`NONE` for nothing; a message of this vertex's own subtree
    /// is not for it and is ignored, as is anything at a leaf). `kids` are
    /// the children's labels and `end(p)` the range end `j` of `kids[p]`.
    /// Returns this round's send, if any. Rounds are stepped in order from
    /// `t = 0`; the step allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics when the overlay conflicts: two sends in one round, a
    /// forward colliding with another send, U4 and D3 carrying different
    /// messages, a third parked D2 arrival, or a sequence head whose time
    /// has already passed. Theorem 1 says none occurs; the checks stay on
    /// in release builds because every production schedule comes from
    /// this step.
    #[inline]
    pub(crate) fn step(
        &mut self,
        t: u32,
        arrival: u32,
        kids: &[u32],
        end: impl Fn(usize) -> u32,
    ) -> Option<RoundSend> {
        let (i, j) = (self.i, self.j);
        let t_up = self.up_head.map_or(u32::MAX, |(e, _)| e.t);
        let t_own = self.own_head.map_or(u32::MAX, |(e, _)| e.t);
        assert!(
            t_up >= t && t_own >= t,
            "vertex {i} passed a scheduled send before time {t}"
        );
        let slot = (t & 1) as usize;
        self.down[slot] = NONE;

        // (D2) forward the arrival now or park it until its slot, then
        // release the parked arrival due now.
        let mut fwd = None;
        if arrival != NONE && i != j && !(i..=j).contains(&arrival) {
            let leaves_at = d2_slot(t, i, j, self.k);
            if leaves_at == t {
                fwd = Some((arrival, Rule::D2Forward));
            } else {
                let cell = self.parked.iter_mut().find(|e| e.msg == NONE);
                let cell = cell.unwrap_or_else(|| {
                    panic!("vertex {i} parked a third deferred arrival at time {t}")
                });
                *cell = Ev {
                    t: leaves_at,
                    msg: arrival,
                };
            }
        }
        for cell in &mut self.parked {
            if cell.msg != NONE && cell.t == t {
                assert!(
                    fwd.is_none(),
                    "vertex {i} scheduled two messages at time {t}"
                );
                fwd = Some((cell.msg, Rule::D2Deferred));
                cell.msg = NONE;
            }
        }
        if let Some((msg, rule)) = fwd {
            assert!(
                t_up != t && t_own != t,
                "vertex {i} scheduled a forward and another message at time {t}"
            );
            self.down[slot] = msg;
            return Some(RoundSend {
                msg,
                to_parent: false,
                down: Down::All,
                rule,
            });
        }

        // (D3): every own-subtree event enters the down slot, even one
        // with no destination (the only child owns the message, and
        // children ignore own-subtree arrivals).
        let own = (t_own == t).then(|| {
            let (e, rule) = self.own_head.expect("own event");
            self.own_head = self.own.next();
            let down = if e.msg == i {
                Down::All
            } else {
                while end(self.owner) < e.msg {
                    self.owner += 1;
                }
                Down::Except(kids[self.owner])
            };
            self.down[slot] = e.msg;
            (e.msg, down, rule)
        });
        let has_dest = |d: Down| match d {
            Down::All => !kids.is_empty(),
            Down::Except(_) => kids.len() > 1,
            Down::No => false,
        };
        if t_up == t {
            let (e, up_rule) = self.up_head.expect("up event");
            self.up_head = self.up.next();
            let (down, rule) = match own {
                // U4 + D3 merge: both carry the same message.
                Some((m, d, _)) => {
                    assert_eq!(e.msg, m, "U4/D3 disagree at vertex {i} time {t}");
                    let rule = if has_dest(d) {
                        Rule::U4D3Merged
                    } else {
                        up_rule
                    };
                    (d, rule)
                }
                None => (Down::No, up_rule),
            };
            return Some(RoundSend {
                msg: e.msg,
                to_parent: true,
                down,
                rule,
            });
        }
        own.filter(|&(_, d, _)| has_dest(d))
            .map(|(msg, down, rule)| RoundSend {
                msg,
                to_parent: false,
                down,
                rule,
            })
    }

    /// Whether nothing is left to send: both sequences done, nothing
    /// parked, and no down-send in round `t` for a child to forward.
    fn is_done(&self, t: u32) -> bool {
        self.up_head.is_none()
            && self.own_head.is_none()
            && self.parked.iter().all(|e| e.msg == NONE)
            && self.down[(t & 1) as usize] == NONE
    }
}

/// The lock-step ConcurrentUpDown engine over one [`FlatLabels`] arena:
/// round by round, every vertex's machine steps once, senders in
/// ascending label order, so sends come out round-major — each round's in
/// ascending sender label, the order [`FlatSchedule`] stores them in.
///
/// Internal vertices get a [`VertexMachine`] each and step every round. A
/// leaf sends exactly once (its one Propagate-Up event), so leaves carry
/// no state: they are bucketed by send round once, ascending within each
/// bucket, and visited only in their round. The buckets are shared by
/// every [`Lockstep::run`]; the machines belong to one run.
pub(crate) struct Lockstep<'a> {
    fl: &'a FlatLabels,
    /// Internal vertices ascending: label and the index of the parent's
    /// entry (`NONE` for the root).
    inner: Vec<(u32, u32)>,
    /// Leaves sending in round `t`: `leaves[leaf_start[t]..leaf_start[t + 1]]`.
    leaf_start: Vec<u32>,
    leaves: Vec<u32>,
    /// One round past the last send (`n + r`, Theorem 1), plus one.
    horizon: u32,
}

impl<'a> Lockstep<'a> {
    /// Lays out the machines and leaf buckets of `fl`.
    pub(crate) fn new(fl: &'a FlatLabels) -> Self {
        let n = fl.n();
        let horizon = (n + fl.height() as usize + 1) as u32;
        let mut inner = Vec::new();
        let mut index = vec![NONE; n];
        let mut leaf_start = vec![0u32; horizon as usize + 1];
        for label in fl.labels() {
            let parent = fl.parent(label);
            if !fl.children(label).is_empty() {
                index[label as usize] = inner.len() as u32;
                let up = if parent == NO_PARENT {
                    NONE
                } else {
                    index[parent as usize]
                };
                inner.push((label, up));
            } else if parent != NO_PARENT {
                leaf_start[leaf_event(fl, label).0.t as usize + 1] += 1;
            }
        }
        // Counting sort: each bucket fills in ascending label order.
        for t in 0..horizon as usize {
            leaf_start[t + 1] += leaf_start[t];
        }
        let mut next = leaf_start.clone();
        let mut leaves = vec![0u32; leaf_start[horizon as usize] as usize];
        for label in fl.labels() {
            if fl.children(label).is_empty() && fl.parent(label) != NO_PARENT {
                let t = leaf_event(fl, label).0.t as usize;
                leaves[next[t] as usize] = label;
                next[t] += 1;
            }
        }
        Lockstep {
            fl,
            inner,
            leaf_start,
            leaves,
            horizon,
        }
    }

    /// The rounds every send falls in: `0..horizon()`.
    pub(crate) fn horizon(&self) -> u32 {
        self.horizon
    }

    /// Steps every vertex through rounds `0..rounds.end` and fires
    /// `on_tx(label, t, msg, to_parent, down, rule)` once per send in
    /// `rounds`, round by round and within a round in ascending `label`;
    /// `rule` is the paper step that produced it. The rounds before
    /// `rounds.start` are stepped without calling back, so a round-range
    /// worker starts wherever its range does.
    ///
    /// # Panics
    ///
    /// Panics on an overlay conflict ([`VertexMachine::step`]), and, when
    /// `rounds` reaches [`Lockstep::horizon`], if any vertex still has
    /// something to send after it.
    pub(crate) fn run<F: FnMut(u32, u32, u32, bool, Down, Rule)>(
        &self,
        rounds: Range<u32>,
        on_tx: &mut F,
    ) {
        let fl = self.fl;
        let mut machines: Vec<VertexMachine> = self
            .inner
            .iter()
            .map(|&(label, _)| {
                VertexMachine::new(label, fl.j(label), fl.k(label), fl.parent(label))
            })
            .collect();
        for t in 0..rounds.end {
            let live = t >= rounds.start;
            let bucket = if live {
                let t = t as usize;
                &self.leaves[self.leaf_start[t] as usize..self.leaf_start[t + 1] as usize]
            } else {
                &[]
            };
            let mut leaves = bucket.iter().copied().peekable();
            for (m, &(label, up)) in self.inner.iter().enumerate() {
                while let Some(leaf) = leaves.next_if(|&l| l < label) {
                    let (e, rule) = leaf_event(fl, leaf);
                    on_tx(leaf, t, e.msg, true, Down::No, rule);
                }
                let arrival = if up == NONE {
                    NONE
                } else {
                    machines[up as usize].sent_down_before(t)
                };
                let kids = fl.children(label);
                let send = machines[m].step(t, arrival, kids, |p| fl.j(kids[p]));
                if let Some(s) = send.filter(|_| live) {
                    on_tx(label, t, s.msg, s.to_parent, s.down, s.rule);
                }
            }
            for leaf in leaves {
                let (e, rule) = leaf_event(fl, leaf);
                on_tx(leaf, t, e.msg, true, Down::No, rule);
            }
        }
        debug_assert!(rounds.end <= self.horizon, "no send after the horizon");
        if rounds.end == self.horizon {
            let last = rounds.end - 1;
            assert!(
                machines.iter().all(|m| m.is_done(last)),
                "ConcurrentUpDown still sending after round {last}"
            );
        }
    }
}

/// The one send of leaf `label`: its Propagate-Up event.
fn leaf_event(fl: &FlatLabels, label: u32) -> (Ev, Rule) {
    UpSeq::new(label, label, fl.k(label), fl.parent(label))
        .next()
        .expect("a non-root leaf sends its message up once")
}

/// CSR-direct ConcurrentUpDown on a prebuilt [`FlatLabels`] arena: a
/// `concurrent_updown_flat` span over the `count_pass` / `emit_pass`
/// phases, and the same `generate/*` counters the reference generator
/// records.
///
/// Byte-identical (including [`FlatSchedule::digest`]) to flattening
/// [`concurrent_updown`](crate::concurrent_updown) on the same tree,
/// without ever materializing the intermediate `Schedule`: O(output +
/// (n + r) · internal vertices) time and O(output + n) memory.
///
/// The emit pass fills contiguous round ranges of the CSR on the rayon
/// workers ([`FlatSchedule::from_round_fill`]); a schedule below one
/// [`GRAIN`](gossip_model::GRAIN) of deliveries stays on the calling thread.
///
/// # Panics
///
/// Panics when the schedule exceeds `u32` CSR offsets (more than
/// `u32::MAX - 1` transmissions or deliveries — gossiping delivers exactly
/// `n(n-1)` messages, so this caps at n = 65536), or when the engine finds
/// an overlay conflict, on whichever worker meets it.
///
/// # Examples
///
/// ```
/// use gossip_graph::{RootedTree, NO_PARENT};
/// use gossip_core::{concurrent_updown, concurrent_updown_flat_on, FlatLabels};
/// use gossip_model::FlatSchedule;
/// use gossip_telemetry::NoopRecorder;
///
/// let tree = RootedTree::from_parents(0, &[NO_PARENT, 0, 1, 2, 3]).unwrap();
/// let fast = concurrent_updown_flat_on(&FlatLabels::new(&tree), &NoopRecorder);
/// let reference = FlatSchedule::from_schedule(&concurrent_updown(&tree));
/// assert_eq!(fast, reference);
/// ```
pub fn concurrent_updown_flat_on(fl: &FlatLabels, recorder: &dyn Recorder) -> FlatSchedule {
    let _span = recorder.span("concurrent_updown_flat");
    let n = fl.n();
    if n <= 1 {
        return FlatSchedule::from_raw_parts(
            n,
            vec![0],
            Vec::new(),
            Vec::new(),
            vec![0],
            Vec::new(),
        );
    }

    // Pass 1: per-round transmission / delivery counts. The makespan is
    // exactly n + r (Theorem 1); the engine's horizon has one slack round,
    // trimmed by the observed max.
    let engine = Lockstep::new(fl);
    let slots = engine.horizon() as usize;
    let mut tx_per_round = vec![0u32; slots];
    let mut deliv_per_round = vec![0u32; slots];
    let mut max_t = 0u32;
    let mut merged_multicasts = 0u64;
    {
        let _count = gossip_telemetry::profile::phase("count_pass");
        engine.run(
            0..engine.horizon(),
            &mut |label, t, _msg, to_parent, down, _rule| {
                let child_dc = child_dests(fl, label, down);
                tx_per_round[t as usize] += 1;
                deliv_per_round[t as usize] += to_parent as u32 + child_dc as u32;
                if to_parent && child_dc > 0 {
                    merged_multicasts += 1;
                }
                max_t = max_t.max(t);
            },
        );
    }
    let rounds = max_t as usize + 1;

    // Pass 2: emit straight into the final CSR slots, one contiguous round
    // range per worker. Each worker runs the engine up to its range and
    // writes the sends of its own rounds, round by round, at per-round
    // cursors. The engine steps labels ascending and a vertex sends at
    // most once per round, so each round's transmissions land in
    // ascending sender label — the reference flatten's order — however
    // the rounds are cut.
    let schedule = {
        let _emit = gossip_telemetry::profile::phase("emit_pass");
        FlatSchedule::from_round_fill(
            n,
            &tx_per_round[..rounds],
            &deliv_per_round[..rounds],
            |fill| {
                let mine = fill.rounds();
                let mine = mine.start as u32..mine.end as u32;
                engine.run(mine, &mut |label, t, msg, to_parent, down, _rule| {
                    let ndests = usize::from(to_parent) + child_dests(fl, label, down);
                    let slot = fill.push(t as usize, msg, fl.vertex(label), ndests);
                    let mut dc = 0;
                    if to_parent {
                        slot[0] = fl.vertex(fl.parent(label));
                        dc = 1;
                    }
                    match down {
                        Down::No => {}
                        Down::All => {
                            for &c in fl.children(label) {
                                slot[dc] = fl.vertex(c);
                                dc += 1;
                            }
                        }
                        Down::Except(skip) => {
                            for &c in fl.children(label) {
                                if c != skip {
                                    slot[dc] = fl.vertex(c);
                                    dc += 1;
                                }
                            }
                        }
                    }
                    // `Transmission::new` normalizes destination sets to
                    // ascending vertex id (the kernel binary-searches
                    // them); match it here.
                    slot.sort_unstable();
                });
            },
        )
    };

    gossip_telemetry::profile::count("transmissions", schedule.tx_count() as u64);
    if recorder.enabled() {
        recorder.counter("generate/transmissions", schedule.tx_count() as u64);
        recorder.counter("generate/deliveries", schedule.deliveries() as u64);
        recorder.counter("generate/merged_multicasts", merged_multicasts);
        recorder.gauge("generate/makespan", rounds as f64);
    }
    schedule
}

/// Child destinations of a `down` event at `label`.
#[inline]
fn child_dests(fl: &FlatLabels, label: u32, down: Down) -> usize {
    let nc = fl.children(label).len();
    match down {
        Down::No => 0,
        Down::All => nc,
        Down::Except(_) => nc - 1,
    }
}

/// A complete fast-path gossip plan: like
/// [`GossipPlan`](crate::GossipPlan) but carrying the schedule in flat CSR
/// form (the `Vec`-of-`Vec` `Schedule` is never built).
#[derive(Debug, Clone)]
pub struct FastGossipPlan {
    /// The minimum-depth spanning tree all communication runs on.
    pub tree: RootedTree,
    /// The communication schedule, CSR-flat, in vertex space.
    pub schedule: FlatSchedule,
    /// `origin_of_message[m]` = the processor whose message is labeled `m`.
    pub origin_of_message: Vec<usize>,
    /// The network radius `r` (= tree height).
    pub radius: u32,
}

impl FastGossipPlan {
    /// The schedule's total communication time.
    pub fn makespan(&self) -> usize {
        self.schedule.rounds()
    }

    /// The paper's guarantee for this plan: `n + r`.
    pub fn guarantee(&self) -> usize {
        if self.tree.n() <= 1 {
            0
        } else {
            self.tree.n() + self.radius as usize
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concurrent::{concurrent_updown, tree_origins};
    use gossip_model::CommModel;
    use gossip_telemetry::NoopRecorder;

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

    fn assert_matches_reference(tree: &RootedTree) {
        let fast = concurrent_updown_flat_on(&FlatLabels::new(tree), &NoopRecorder);
        let reference = FlatSchedule::from_schedule(&concurrent_updown(tree));
        assert_eq!(fast, reference, "CSR mismatch on {tree:?}");
        assert_eq!(fast.digest(), reference.digest());
        fast.validate(&tree.to_graph(), CommModel::Multicast, tree.n())
            .expect("fast schedule must validate");
    }

    #[test]
    fn matches_reference_flatten_on_fig5() {
        let tree = fig5();
        assert_matches_reference(&tree);
        let fast = concurrent_updown_flat_on(&FlatLabels::new(&tree), &NoopRecorder);
        assert_eq!(fast.rounds(), 16 + 3); // n + r
    }

    #[test]
    fn matches_reference_on_structured_trees() {
        // Path of 7 rooted at the center.
        assert_matches_reference(
            &RootedTree::from_parents(3, &[1, 2, 3, NO_PARENT, 3, 4, 5]).unwrap(),
        );
        // Path of 5 rooted at an end (every vertex on the leftmost path:
        // exercises the i = k exception at every level).
        assert_matches_reference(&RootedTree::from_parents(0, &[NO_PARENT, 0, 1, 2, 3]).unwrap());
        // Star (every non-root a leaf; the root multicasts everything).
        let mut star = vec![0u32; 9];
        star[0] = NO_PARENT;
        assert_matches_reference(&RootedTree::from_parents(0, &star).unwrap());
        // Caterpillar: spine 0-1-2-3, one leaf per spine vertex.
        assert_matches_reference(
            &RootedTree::from_parents(0, &[NO_PARENT, 0, 1, 2, 0, 1, 2, 3]).unwrap(),
        );
        // Permuted vertex ids: label space != vertex space.
        assert_matches_reference(&RootedTree::from_parents(2, &[2, 0, NO_PARENT, 2, 3]).unwrap());
        // Pair.
        assert_matches_reference(&RootedTree::from_parents(0, &[NO_PARENT, 0]).unwrap());
    }

    #[test]
    fn matches_reference_on_synthetic_families() {
        // Binary-ish heap shapes and skewed mixed trees, a few hundred
        // vertices: deep D2 deferral chains and single-child vertices.
        for n in [33usize, 100, 257] {
            let mut p: Vec<u32> = (0..n).map(|v| (v.saturating_sub(1) / 2) as u32).collect();
            p[0] = NO_PARENT;
            assert_matches_reference(&RootedTree::from_parents(0, &p).unwrap());

            // Mixed: alternate chain and fan parents.
            let mut q: Vec<u32> = Vec::with_capacity(n);
            q.push(NO_PARENT);
            for v in 1..n {
                let par = if v % 3 == 0 { v - 1 } else { v / 3 };
                q.push(par as u32);
            }
            assert_matches_reference(&RootedTree::from_parents(0, &q).unwrap());
        }
    }

    #[test]
    fn singleton_is_empty() {
        let t = RootedTree::from_parents(0, &[NO_PARENT]).unwrap();
        let fast = concurrent_updown_flat_on(&FlatLabels::new(&t), &NoopRecorder);
        assert_eq!(fast.rounds(), 0);
        assert_eq!(fast.tx_count(), 0);
        assert_eq!(fast, FlatSchedule::from_schedule(&concurrent_updown(&t)));
    }

    /// Steps label 4 of Fig 5 (subtree `[4, 10]`, level 1, under the
    /// root; children 5 and 8 owning `[5, 7]` and `[8, 10]`) through
    /// `(round, arrival)` pairs. It sends its own subtree over `[3, 9]`,
    /// so arrivals at 3 and 4 park until 10 and 11.
    fn step_fig5_vertex_4(rounds: impl IntoIterator<Item = (u32, u32)>) {
        let mut machine = VertexMachine::new(4, 10, 1, 0);
        let (kids, ends) = ([5u32, 8], [7u32, 10]);
        for (t, arrival) in rounds {
            machine.step(t, arrival, &kids, |p| ends[p]);
        }
    }

    #[test]
    #[should_panic(expected = "vertex 4 passed a scheduled send before time 5")]
    fn a_skipped_round_with_a_send_panics() {
        step_fig5_vertex_4([(0, NONE), (1, NONE), (2, NONE), (5, NONE)]);
    }

    #[test]
    #[should_panic(expected = "vertex 4 scheduled a forward and another message at time 5")]
    fn a_forward_during_the_own_subtree_sends_panics() {
        step_fig5_vertex_4((0..5).map(|t| (t, NONE)).chain([(5, 1)]));
    }

    #[test]
    #[should_panic(expected = "vertex 4 scheduled two messages at time 10")]
    fn a_forward_at_a_parked_slot_panics() {
        let quiet = (4..10).map(|t| (t, NONE));
        step_fig5_vertex_4(
            [(0, NONE), (1, NONE), (2, NONE), (3, 1)]
                .into_iter()
                .chain(quiet)
                .chain([(10, 11)]),
        );
    }

    #[test]
    #[should_panic(expected = "vertex 4 parked a third deferred arrival at time 4")]
    fn a_third_parked_arrival_panics() {
        // Round 4 stepped twice: a corrupted arrival stream.
        step_fig5_vertex_4([(0, NONE), (1, NONE), (2, NONE), (3, 1), (4, 2), (4, 3)]);
    }

    #[test]
    fn flat_labels_round_trip() {
        let tree = fig5();
        let fl = FlatLabels::new(&tree);
        assert_eq!(fl.n(), 16);
        assert_eq!(fl.height(), 3);
        assert_eq!(fl.children(0), &[1, 4, 11]);
        assert_eq!(fl.children(4), &[5, 8]);
        assert_eq!(fl.children(3), &[] as &[u32]);
        assert_eq!(fl.j(4), 10);
        assert_eq!(fl.k(8), 2);
        assert_eq!(fl.parent(0), NO_PARENT);
        assert_eq!(fl.parent(5), 4);
        assert_eq!(fl.origins(), tree_origins(&tree));
    }
}
