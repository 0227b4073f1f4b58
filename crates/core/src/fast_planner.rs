//! CSR-direct **ConcurrentUpDown**: the fast planner's generator.
//!
//! [`concurrent_updown`](crate::concurrent_updown) materializes a
//! `Vec`-of-`Vec` [`Schedule`](gossip_model::Schedule) (one allocation per
//! transmission) that the reference pipeline then flattens; at n = 10⁵ that
//! intermediate representation is the dominant cost of planning. This
//! module emits the *same* schedule straight into [`FlatSchedule`] CSR
//! arenas. Both generators share one event walk ([`walk`]):
//!
//! - it reads the one label arena, [`FlatLabels`] (`j`, `k`, parent and
//!   child lists in flat arrays), which every label-space generator
//!   shares;
//! - the per-vertex Propagate-Up (U3/U4) and Propagate-Down (D3/D2) event
//!   sequences are each generated *in nondecreasing time order* by O(1)
//!   state machines, so a three-way merge replaces a per-vertex
//!   `BTreeMap` overlay;
//! - arrivals flow down a DFS stack of *streams* (the down-multicasts of
//!   each ancestor still on the stack), bounding live memory by
//!   O(n · height) instead of a Θ(n²) table of every vertex's arrivals;
//! - a **count pass** sizes every CSR array exactly (per-round transmission
//!   and delivery totals → prefix sums), then an **emit pass** writes each
//!   transmission into its final slot via per-round cursors. No
//!   re-allocation, no sort, no intermediate `Schedule`.
//!
//! The sequences are the only place production code computes a
//! ConcurrentUpDown send time. The walk also reports the paper rule of
//! every send, for
//! [`annotated_concurrent_updown`](crate::annotated_concurrent_updown);
//! [`OnlineVertex`](crate::OnlineVertex) steps the same sequences one
//! round at a time, and [`gather_schedule`](crate::gather_schedule) emits
//! the Propagate-Up ones alone.
//!
//! Both passes walk vertices in ascending label order and each vertex sends
//! at most once per round, so within every round the transmissions appear
//! in ascending sender label — exactly the order
//! [`FlatSchedule::from_schedule`] produces from the reference generator.
//! On the same tree the two pipelines are **byte-identical** (same
//! [`digest`](FlatSchedule::digest)); the `planner_equivalence` suite pins
//! both against an independent `BTreeMap` overlay of the paper's rules.

use crate::annotated::Rule;
use crate::labeling::FlatLabels;
use gossip_graph::{RootedTree, NO_PARENT};
use gossip_model::FlatSchedule;
use gossip_telemetry::{Recorder, RecorderExt};

/// A scheduled down-multicast (or a pending event during the merge):
/// message `msg` leaves the vertex at time `t`.
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
    /// The destination vertices of a walk event at `label`: the parent
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

/// D2 events: o-messages forwarded at their [`d2_slot`] (`t_arrive` =
/// parent's send time + 1). The parent stream is time-sorted and — by the
/// schedule's correctness — has no arrivals inside the busy window
/// `(i - k + 1, j - k + 1)`, so the deferral keeps the output sorted; the
/// merge in [`walk`] asserts that.
struct FwdSeq<'a> {
    parent_stream: &'a [Ev],
    idx: usize,
    i: u32,
    j: u32,
    k: u32,
    enabled: bool,
}

impl FwdSeq<'_> {
    fn next(&mut self) -> Option<(Ev, Rule)> {
        if !self.enabled {
            return None;
        }
        while self.idx < self.parent_stream.len() {
            let e = self.parent_stream[self.idx];
            self.idx += 1;
            if e.msg >= self.i && e.msg <= self.j {
                continue; // own-subtree message: handled by D3, not forwarded
            }
            let t_arrive = e.t + 1;
            let t = d2_slot(t_arrive, self.i, self.j, self.k);
            let rule = if t == t_arrive {
                Rule::D2Forward
            } else {
                Rule::D2Deferred
            };
            return tagged(t, e.msg, rule);
        }
        None
    }
}

/// Walks every vertex in label order and fires `on_tx(label, t, msg,
/// to_parent, down, rule)` once per scheduled transmission, in increasing
/// `t` within each vertex; `rule` is the paper step that produced it. Both
/// CSR passes, the `Schedule` generator
/// ([`concurrent_updown`](crate::concurrent_updown)) and the rule-tagged
/// one ([`annotated_concurrent_updown`](crate::annotated_concurrent_updown))
/// share this walk, so their event sequences are identical by construction.
///
/// # Panics
///
/// Panics when the overlay conflicts: a vertex with two sends at one time,
/// a forward colliding with another send, or U4 and D3 carrying different
/// messages. Theorem 1 says none occurs; the checks stay on in release
/// builds because every production schedule comes from this walk.
pub(crate) fn walk<F: FnMut(u32, u32, u32, bool, Down, Rule)>(fl: &FlatLabels, on_tx: &mut F) {
    let n = fl.n();
    if n <= 1 {
        return;
    }
    struct Frame {
        label: u32,
        j: u32,
        stream: Vec<Ev>,
    }
    // The DFS stack: ancestors of the current vertex, each with the stream
    // of down events its children replay. Streams are recycled through a
    // pool, so live memory is O(height) vectors of O(n) events.
    let mut stack: Vec<Frame> = Vec::with_capacity(fl.height() as usize + 1);
    let mut pool: Vec<Vec<Ev>> = Vec::new();

    for label in 0..n as u32 {
        while stack.last().is_some_and(|f| f.j < label) {
            let mut s = stack.pop().expect("nonempty stack").stream;
            s.clear();
            pool.push(s);
        }
        let i = label;
        let j = fl.j(i);
        let k = fl.k(i);
        let parent = fl.parent(i);
        let is_root = parent == NO_PARENT;
        let is_leaf = i == j;
        let kids = fl.children(i);
        debug_assert_eq!(is_root, stack.is_empty());
        debug_assert!(is_root || stack.last().map(|f| f.label) == Some(parent));

        let mut up = UpSeq::new(i, j, k, parent);
        let mut own = OwnSeq::new(i, j, k);
        let mut stream: Vec<Ev> = if is_leaf {
            Vec::new()
        } else {
            pool.pop().unwrap_or_default()
        };
        {
            let parent_stream: &[Ev] = stack.last().map_or(&[], |f| f.stream.as_slice());
            let mut fwd = FwdSeq {
                parent_stream,
                idx: 0,
                i,
                j,
                k,
                enabled: !is_leaf && !is_root,
            };

            let mut up_ev = up.next();
            let mut own_ev = own.next();
            let mut fwd_ev = fwd.next();
            // Containing-child cursor: D3 messages `m > i` ascend, and the
            // child subtree ranges partition `(i, j]`, so it only advances.
            let mut child_idx = 0usize;
            // The earliest time this vertex may send next.
            let mut next_free = 0u32;

            loop {
                // Exhausted sequences read as `u32::MAX`, a time no event
                // reaches (every send is before n + r).
                let t_up = up_ev.map_or(u32::MAX, |(e, _)| e.t);
                let t_own = own_ev.map_or(u32::MAX, |(e, _)| e.t);
                let t_fwd = fwd_ev.map_or(u32::MAX, |(e, _)| e.t);
                let t_up_own = t_up.min(t_own);
                let t = t_up_own.min(t_fwd);
                if t == u32::MAX {
                    break;
                }
                assert!(
                    t >= next_free,
                    "vertex {i} scheduled two messages at time {t}"
                );
                next_free = t + 1;
                assert!(
                    t_fwd != t_up_own,
                    "vertex {i} scheduled a forward and another message at time {t}"
                );
                let from_up = t_up == t;
                let from_own = t_own == t;
                if t_fwd == t {
                    let (e, rule) = fwd_ev.expect("fwd event");
                    on_tx(i, t, e.msg, false, Down::All, rule);
                    stream.push(e);
                    fwd_ev = fwd.next();
                    continue;
                }
                let down = if from_own {
                    let (e, rule) = own_ev.expect("own event");
                    let d = if e.msg == i {
                        Down::All
                    } else {
                        while fl.j(kids[child_idx]) < e.msg {
                            child_idx += 1;
                        }
                        debug_assert!(kids[child_idx] <= e.msg);
                        Down::Except(kids[child_idx])
                    };
                    stream.push(e);
                    own_ev = own.next();
                    Some((e.msg, d, rule))
                } else {
                    None
                };
                // D3 has a destination unless the only child is the one
                // whose subtree contains the message (its entry still
                // enters the stream vacuously — children filter
                // own-subtree messages — but costs nothing).
                let has_dest = |d: Down| match d {
                    Down::All => !kids.is_empty(),
                    Down::Except(_) => kids.len() > 1,
                    Down::No => false,
                };
                if from_up {
                    let (e, up_rule) = up_ev.expect("up event");
                    match down {
                        Some((m_down, d, _)) => {
                            // U4 + D3 merge: both carry the same message.
                            assert_eq!(e.msg, m_down, "U4/D3 disagree at vertex {i} time {t}");
                            let rule = if has_dest(d) {
                                Rule::U4D3Merged
                            } else {
                                up_rule
                            };
                            on_tx(i, t, e.msg, true, d, rule);
                        }
                        None => on_tx(i, t, e.msg, true, Down::No, up_rule),
                    }
                    up_ev = up.next();
                } else if let Some((m, d, rule)) = down {
                    if has_dest(d) {
                        on_tx(i, t, m, false, d, rule);
                    }
                }
            }
        }
        if !is_leaf {
            stack.push(Frame {
                label: i,
                j,
                stream,
            });
        }
    }
}

/// CSR-direct ConcurrentUpDown on a prebuilt [`FlatLabels`] arena: a
/// `concurrent_updown_flat` span over the `count_pass` / `emit_pass`
/// phases, and the same `generate/*` counters the reference generator
/// records.
///
/// Byte-identical (including [`FlatSchedule::digest`]) to flattening
/// [`concurrent_updown`](crate::concurrent_updown) on the same tree, in
/// O(output) time and O(output + n·height) memory, without ever
/// materializing the intermediate `Schedule`.
///
/// The emit pass fills contiguous round ranges of the CSR on the rayon
/// workers ([`FlatSchedule::from_round_fill`]); a schedule below one
/// [`GRAIN`](gossip_model::GRAIN) of deliveries stays on the calling thread.
///
/// # Panics
///
/// Panics when the schedule exceeds `u32` CSR offsets (more than
/// `u32::MAX - 1` transmissions or deliveries — gossiping delivers exactly
/// `n(n-1)` messages, so this caps at n = 65536), or when the walk finds
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
    // exactly n + r (Theorem 1), so the last send fires at t = n + r - 1;
    // allocate a couple of slack rounds and trim by the observed max.
    let slots = n + fl.height() as usize + 2;
    let mut tx_per_round = vec![0u32; slots];
    let mut deliv_per_round = vec![0u32; slots];
    let mut max_t = 0u32;
    let mut merged_multicasts = 0u64;
    {
        let _count = gossip_telemetry::profile::phase("count_pass");
        walk(fl, &mut |label, t, _msg, to_parent, down, _rule| {
            let child_dc = child_dests(fl, label, down);
            tx_per_round[t as usize] += 1;
            deliv_per_round[t as usize] += to_parent as u32 + child_dc as u32;
            if to_parent && child_dc > 0 {
                merged_multicasts += 1;
            }
            max_t = max_t.max(t);
        });
    }
    let rounds = max_t as usize + 1;

    // Pass 2: emit straight into the final CSR slots, one contiguous round
    // range per worker. Every worker walks all labels and writes only the
    // events of its own rounds, at per-round cursors. The walk visits
    // labels ascending and a vertex sends at most once per round, so each
    // round's transmissions land in ascending sender label — the
    // reference flatten's order — however the rounds are cut.
    let schedule = {
        let _emit = gossip_telemetry::profile::phase("emit_pass");
        FlatSchedule::from_round_fill(
            n,
            &tx_per_round[..rounds],
            &deliv_per_round[..rounds],
            |fill| {
                let mine = fill.rounds();
                walk(fl, &mut |label, t, msg, to_parent, down, _rule| {
                    let t = t as usize;
                    if !mine.contains(&t) {
                        return;
                    }
                    let ndests = usize::from(to_parent) + child_dests(fl, label, down);
                    let slot = fill.push(t, msg, fl.vertex(label), ndests);
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
