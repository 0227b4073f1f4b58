//! The thread's span tree, and the planner cost profiler that reads it:
//! hierarchical timing with work counters, plus an optional counting
//! global allocator attributing heap traffic to the active node.
//!
//! # One guard, one tree
//!
//! Each thread keeps one tree of named nodes; a node holds its
//! `/`-joined path from the root, built when the node first appears.
//! [`crate::RecorderExt::span`] and [`phase`] both open a node and return
//! a [`SpanGuard`]. On drop, a span's enabled recorder is told the path
//! and the elapsed time ([`crate::Recorder::span_observe`]); a phase is
//! seen by the profiler only, and must never wrap a span whose recorder
//! is enabled, or the span's path would depend on the profiler. A guard
//! that neither an enabled recorder nor a [`Profiler`] reads is inert:
//! one thread-local read and a branch, no clock read, no allocation.
//! Work counters ([`count`]) attribute to the innermost open node.
//!
//! [`Profiler::begin`] installs a profiler; from then on every span and
//! phase counts calls and time, whatever its recorder.
//! [`Profiler::finish`] returns the [`Profile`] forest of the nodes
//! entered since `begin`. Self time is a node's total minus its
//! children's totals, so *sum of child totals ≤ parent total* holds by
//! construction (modulo clock monotonicity). The PROF tree is thus the
//! span tree (`plan > spanning_tree > bfs_sweep`, ...); DESIGN §8 lists
//! the names it took over from the phases once paired with spans.
//!
//! # Threading caveat
//!
//! The tree is deliberately thread-local: the sequential construction
//! path is the profiled one. Work done on rayon workers (the parallel
//! spanning-tree sweep, parallel schedule validation) is *not* attributed
//! to nodes opened on the calling thread — only the calling thread's
//! wall-clock wait shows up, under the node that spawned the parallel
//! section. `gossip profile` therefore drives the sequential planner.
//!
//! # Allocator attribution (`prof-alloc` feature)
//!
//! [`ProfAlloc`] is a counting [`std::alloc::GlobalAlloc`] wrapper around
//! the system allocator. Binaries opt in with:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: gossip_telemetry::profile::ProfAlloc =
//!     gossip_telemetry::profile::ProfAlloc;
//! ```
//!
//! It maintains four process-global relaxed atomics (allocation count,
//! allocated bytes, live bytes, peak live bytes) and never touches
//! thread-locals or the profiler itself, so there is no reentrancy hazard.
//! Profiled guards snapshot the counters at enter/exit and attribute the
//! deltas to their node; per-node peak live bytes piggybacks on a single
//! global high-water atomic that guards swap on enter and fold back on
//! exit. Caveats: attribution is process-global, so allocations from
//! *other* threads during a phase are charged to it; and like `total_ns`,
//! a parent node's numbers include its children's. Both are documented
//! properties, not bugs — the profiler answers "what does this phase cost
//! the process", not "what did this stack frame malloc".

use crate::{Recorder, Value};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

/// One node of the span tree.
#[derive(Debug, Clone, Default)]
struct Node {
    name: String,
    /// The `/`-joined names from the root down to this node.
    path: Rc<str>,
    parent: Option<usize>,
    children: Vec<usize>,
    calls: u64,
    total_ns: u64,
    counters: BTreeMap<String, u64>,
    allocs: u64,
    alloc_bytes: u64,
    peak_bytes: u64,
}

impl Node {
    /// Clears what a profiler recorded, keeping the node's place.
    fn reset(&mut self) {
        self.calls = 0;
        self.total_ns = 0;
        self.counters.clear();
        self.allocs = 0;
        self.alloc_bytes = 0;
        self.peak_bytes = 0;
    }
}

/// One thread's span tree. Nodes are never removed, so a guard's node
/// index stays valid whatever profilers come and go while it is open.
#[derive(Default)]
struct Tree {
    nodes: Vec<Node>,
    roots: Vec<usize>,
    current: Option<usize>,
    /// The installed profiler's id.
    profiler: Option<u64>,
    last_profiler: u64,
}

impl Tree {
    /// The node named `name` under the current one, created on first use.
    fn child(&mut self, name: &str) -> usize {
        let parent = self.current;
        let siblings = match parent {
            Some(p) => &self.nodes[p].children,
            None => &self.roots,
        };
        if let Some(&idx) = siblings.iter().find(|&&c| self.nodes[c].name == name) {
            return idx;
        }
        let idx = self.nodes.len();
        let path = match parent {
            Some(p) => format!("{}/{name}", self.nodes[p].path).into(),
            None => name.into(),
        };
        self.nodes.push(Node {
            name: name.to_string(),
            path,
            parent,
            ..Node::default()
        });
        match parent {
            Some(p) => self.nodes[p].children.push(idx),
            None => self.roots.push(idx),
        }
        idx
    }

    /// Uninstalls profiler `id` and returns the nodes it saw entered. A
    /// node whose parent was not entered becomes a root. Another
    /// profiler's id finds nothing.
    fn finish(&mut self, id: u64) -> Profile {
        let mut profile = Profile {
            alloc_tracking: alloc_tracking(),
            ..Profile::default()
        };
        if self.profiler != Some(id) {
            return profile;
        }
        self.profiler = None;
        // Parents precede their children in `nodes`, so one pass remaps.
        let mut remap = vec![None; self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate().filter(|(_, n)| n.calls > 0) {
            let idx = profile.nodes.len();
            remap[i] = Some(idx);
            let parent = node.parent.and_then(|p| remap[p]);
            match parent {
                Some(p) => profile.nodes[p].children.push(idx),
                None => profile.roots.push(idx),
            }
            profile.nodes.push(Node {
                parent,
                children: Vec::new(),
                ..node.clone()
            });
        }
        profile
    }
}

thread_local! {
    static TREE: RefCell<Tree> = RefCell::new(Tree::default());
}

/// Handle for an installed profiler. Created by [`Profiler::begin`];
/// consumed by [`Profiler::finish`]. Dropping it without finishing
/// uninstalls the profiler and discards the recording.
pub struct Profiler {
    id: u64,
}

impl Profiler {
    /// Installs a fresh profiler on this thread (replacing any prior one —
    /// the replaced handle's `finish` then returns an empty profile) and
    /// starts recording every span and phase.
    pub fn begin() -> Profiler {
        TREE.with(|t| {
            let mut tree = t.borrow_mut();
            tree.last_profiler += 1;
            let id = tree.last_profiler;
            tree.profiler = Some(id);
            tree.nodes.iter_mut().for_each(Node::reset);
            Profiler { id }
        })
    }

    /// Uninstalls the profiler and returns everything recorded since
    /// [`Profiler::begin`]. Nodes still open on live guards keep their
    /// recorded calls but contribute no further time.
    pub fn finish(self) -> Profile {
        TREE.with(|t| t.borrow_mut().finish(self.id))
    }
}

impl Drop for Profiler {
    fn drop(&mut self) {
        TREE.with(|t| t.borrow_mut().finish(self.id));
    }
}

/// Whether a profiler is installed on this thread.
pub fn active() -> bool {
    TREE.with(|t| t.borrow().profiler.is_some())
}

/// Opens a node named `name` under the innermost open one, which only
/// the profiler sees. Returns an inert guard when no profiler is
/// installed.
pub fn phase(name: &str) -> SpanGuard<'static> {
    enter(name, None)
}

/// Opens node `name` for [`crate::RecorderExt::span`]: `recorder` is the
/// span's recorder when it is enabled.
pub(crate) fn enter<'a>(name: &str, recorder: Option<&'a dyn Recorder>) -> SpanGuard<'a> {
    TREE.with(|t| {
        let mut tree = t.borrow_mut();
        let profiler = tree.profiler;
        if profiler.is_none() && recorder.is_none() {
            return SpanGuard { live: None };
        }
        let idx = tree.child(name);
        tree.current = Some(idx);
        let node = &mut tree.nodes[idx];
        if profiler.is_some() {
            node.calls += 1;
        }
        SpanGuard {
            live: Some(LiveGuard {
                idx,
                profiler,
                sink: recorder.map(|r| (r, Rc::clone(&node.path))),
                #[cfg(feature = "prof-alloc")]
                alloc_enter: profiler.map(|_| prof_alloc::phase_enter()),
                start: Instant::now(),
            }),
        }
    })
}

/// Adds `delta` to the named work counter of the innermost open node. A
/// no-op when no profiler is installed or no node is open.
pub fn count(name: &str, delta: u64) {
    TREE.with(|t| {
        let mut tree = t.borrow_mut();
        let Some(cur) = tree.current.filter(|_| tree.profiler.is_some()) else {
            return;
        };
        *tree.nodes[cur]
            .counters
            .entry(name.to_string())
            .or_insert(0) += delta;
    });
}

struct LiveGuard<'a> {
    idx: usize,
    /// The profiler installed when the guard opened.
    profiler: Option<u64>,
    /// The enabled recorder and the path it is told.
    sink: Option<(&'a dyn Recorder, Rc<str>)>,
    #[cfg(feature = "prof-alloc")]
    alloc_enter: Option<prof_alloc::PhaseEnter>,
    start: Instant,
}

/// RAII guard for one span or phase occurrence; see the module docs.
pub struct SpanGuard<'a> {
    live: Option<LiveGuard<'a>>,
}

impl SpanGuard<'_> {
    /// Whether anything records this occurrence: an enabled recorder or an
    /// installed profiler. Sites skip computing probes when it is `false`.
    pub fn is_live(&self) -> bool {
        self.live.is_some()
    }

    /// The full `/`-joined path an enabled recorder is told, or `None`
    /// when the span has no enabled recorder.
    pub fn path(&self) -> Option<&str> {
        self.live.as_ref()?.sink.as_ref().map(|(_, path)| &**path)
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(live) = self.live.take() else { return };
        let elapsed = live.start.elapsed().as_nanos() as u64;
        TREE.with(|t| {
            let mut tree = t.borrow_mut();
            let profiled = live.profiler.is_some() && live.profiler == tree.profiler;
            let node = &mut tree.nodes[live.idx];
            #[cfg(feature = "prof-alloc")]
            if let Some(enter) = &live.alloc_enter {
                let (d_allocs, d_bytes, phase_peak) = prof_alloc::phase_exit(enter);
                if profiled {
                    node.allocs += d_allocs;
                    node.alloc_bytes += d_bytes;
                    node.peak_bytes = node.peak_bytes.max(phase_peak);
                }
            }
            if profiled {
                node.total_ns += elapsed;
            }
            tree.current = node.parent;
        });
        if let Some((recorder, path)) = live.sink {
            recorder.span_observe(&path, elapsed);
        }
    }
}

/// The recorded node forest, returned by [`Profiler::finish`].
#[derive(Debug, Clone, Default)]
pub struct Profile {
    nodes: Vec<Node>,
    roots: Vec<usize>,
    alloc_tracking: bool,
}

impl Profile {
    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }

    /// Whether the counting allocator was registered and saw traffic
    /// (alloc fields are meaningful only then).
    pub fn alloc_tracking(&self) -> bool {
        self.alloc_tracking
    }

    /// Total milliseconds attributed to root nodes (the profiler's view
    /// of the whole profiled region).
    pub fn attributed_ms(&self) -> f64 {
        self.roots
            .iter()
            .map(|&r| self.nodes[r].total_ns as f64 * 1e-6)
            .sum()
    }

    /// Self time of a node: total minus children's totals (saturating, in
    /// case of clock jitter).
    fn self_ns(&self, idx: usize) -> u64 {
        let child_total: u64 = self.nodes[idx]
            .children
            .iter()
            .map(|&c| self.nodes[c].total_ns)
            .sum();
        self.nodes[idx].total_ns.saturating_sub(child_total)
    }

    /// Sum of `total_ns` (as ms) over every node whose path ends with the
    /// whole segments of `path`: `"labeling"` matches every `labeling`
    /// node, `"concurrent_updown/labeling"` only the reference
    /// generator's. A name nested under itself would count twice; the
    /// planner's names never are.
    pub fn total_ms(&self, path: &str) -> f64 {
        self.nodes
            .iter()
            .filter(|n| {
                n.path
                    .strip_suffix(path)
                    .is_some_and(|head| head.is_empty() || head.ends_with('/'))
            })
            .map(|n| n.total_ns as f64 * 1e-6)
            .sum()
    }

    /// Sum of the named work counter over every phase.
    pub fn named_counter(&self, name: &str) -> u64 {
        self.nodes.iter().filter_map(|n| n.counters.get(name)).sum()
    }

    /// Highest per-phase peak live bytes seen (0 without `prof-alloc`
    /// tracking).
    pub fn peak_bytes(&self) -> u64 {
        self.nodes.iter().map(|n| n.peak_bytes).max().unwrap_or(0)
    }

    fn node_value(&self, idx: usize) -> Value {
        let n = &self.nodes[idx];
        let mut fields = vec![
            ("name".to_string(), Value::String(n.name.clone())),
            ("calls".to_string(), Value::from_u64(n.calls)),
            (
                "total_ms".to_string(),
                Value::from_f64(n.total_ns as f64 * 1e-6),
            ),
            (
                "self_ms".to_string(),
                Value::from_f64(self.self_ns(idx) as f64 * 1e-6),
            ),
        ];
        if !n.counters.is_empty() {
            fields.push((
                "counters".to_string(),
                Value::Object(
                    n.counters
                        .iter()
                        .map(|(k, &v)| (k.clone(), Value::from_u64(v)))
                        .collect(),
                ),
            ));
        }
        if self.alloc_tracking {
            fields.push((
                "alloc".to_string(),
                Value::Object(vec![
                    ("allocs".to_string(), Value::from_u64(n.allocs)),
                    ("bytes".to_string(), Value::from_u64(n.alloc_bytes)),
                    ("peak_bytes".to_string(), Value::from_u64(n.peak_bytes)),
                ]),
            ));
        }
        if !n.children.is_empty() {
            fields.push((
                "children".to_string(),
                Value::Array(n.children.iter().map(|&c| self.node_value(c)).collect()),
            ));
        }
        Value::Object(fields)
    }

    /// The phase forest as a JSON array of nested phase objects
    /// (`{name, calls, total_ms, self_ms, counters?, alloc?, children?}`),
    /// ready to embed in a PROF artifact.
    pub fn to_value(&self) -> Value {
        Value::Array(self.roots.iter().map(|&r| self.node_value(r)).collect())
    }

    /// Collapsed-stack export for flamegraph tooling: one line per phase,
    /// `root;child;leaf <self-time-µs>`.
    pub fn collapsed_stacks(&self) -> String {
        let mut out = String::new();
        let mut stack: Vec<(usize, String)> = self
            .roots
            .iter()
            .rev()
            .map(|&r| (r, self.nodes[r].name.clone()))
            .collect();
        while let Some((idx, path)) = stack.pop() {
            let self_us = self.self_ns(idx) / 1_000;
            out.push_str(&format!("{path} {self_us}\n"));
            for &c in self.nodes[idx].children.iter().rev() {
                stack.push((c, format!("{path};{}", self.nodes[c].name)));
            }
        }
        out
    }
}

#[cfg(feature = "prof-alloc")]
#[allow(unsafe_code)]
mod prof_alloc {
    //! The counting global allocator. Process-global relaxed atomics only:
    //! the allocator must never touch thread-locals or the profiler (it
    //! runs during TLS teardown and inside the profiler's own
    //! allocations).
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

    static ALLOCS: AtomicU64 = AtomicU64::new(0);
    static BYTES: AtomicU64 = AtomicU64::new(0);
    static LIVE: AtomicU64 = AtomicU64::new(0);
    static PEAK: AtomicU64 = AtomicU64::new(0);
    /// High-water mark since the innermost open phase began; see
    /// [`phase_enter`]/[`phase_exit`].
    static PHASE_PEAK: AtomicU64 = AtomicU64::new(0);

    /// Counting wrapper around the system allocator; register with
    /// `#[global_allocator]`.
    pub struct ProfAlloc;

    fn on_alloc(size: u64) {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(size, Relaxed);
        let live = LIVE.fetch_add(size, Relaxed) + size;
        PEAK.fetch_max(live, Relaxed);
        PHASE_PEAK.fetch_max(live, Relaxed);
    }

    fn on_dealloc(size: u64) {
        LIVE.fetch_sub(size, Relaxed);
    }

    // SAFETY: defers all allocation to `System`; the bookkeeping is plain
    // relaxed atomics with no allocation, locking, or TLS of its own.
    unsafe impl GlobalAlloc for ProfAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let p = System.alloc(layout);
            if !p.is_null() {
                on_alloc(layout.size() as u64);
            }
            p
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            let p = System.alloc_zeroed(layout);
            if !p.is_null() {
                on_alloc(layout.size() as u64);
            }
            p
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout);
            on_dealloc(layout.size() as u64);
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            let p = System.realloc(ptr, layout, new_size);
            if !p.is_null() {
                on_dealloc(layout.size() as u64);
                on_alloc(new_size as u64);
            }
            p
        }
    }

    /// Snapshot taken when a phase opens.
    pub(super) struct PhaseEnter {
        allocs: u64,
        bytes: u64,
        saved_peak: u64,
    }

    pub(super) fn phase_enter() -> PhaseEnter {
        PhaseEnter {
            allocs: ALLOCS.load(Relaxed),
            bytes: BYTES.load(Relaxed),
            // Reset the phase high-water mark to current live, saving the
            // enclosing phase's mark to fold back on exit.
            saved_peak: PHASE_PEAK.swap(LIVE.load(Relaxed), Relaxed),
        }
    }

    /// Returns `(allocations, bytes, peak live bytes)` attributed to the
    /// phase, and restores the enclosing phase's high-water mark (a parent
    /// peak is at least its child's, so `fetch_max` is the correct fold).
    pub(super) fn phase_exit(enter: &PhaseEnter) -> (u64, u64, u64) {
        let phase_peak = PHASE_PEAK.load(Relaxed);
        PHASE_PEAK.fetch_max(enter.saved_peak, Relaxed);
        (
            ALLOCS.load(Relaxed).wrapping_sub(enter.allocs),
            BYTES.load(Relaxed).wrapping_sub(enter.bytes),
            phase_peak,
        )
    }

    /// Whether the counting allocator is registered (detected by traffic:
    /// any Rust program allocates long before profiling starts).
    pub(super) fn tracking() -> bool {
        ALLOCS.load(Relaxed) > 0
    }
}

#[cfg(feature = "prof-alloc")]
pub use prof_alloc::ProfAlloc;

#[cfg(feature = "prof-alloc")]
fn alloc_tracking() -> bool {
    prof_alloc::tracking()
}

#[cfg(not(feature = "prof-alloc"))]
fn alloc_tracking() -> bool {
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin_for(micros: u64) {
        let t0 = Instant::now();
        while t0.elapsed().as_micros() < micros as u128 {
            std::hint::black_box(0u64);
        }
    }

    #[test]
    fn uninstalled_guards_are_inert() {
        assert!(!active());
        {
            let _g = phase("tree");
            count("sweeps", 3);
        }
        // Nothing was installed, so a later profiler starts clean.
        let prof = Profiler::begin().finish();
        assert!(prof.is_empty());
        assert_eq!(prof.named_counter("sweeps"), 0);
    }

    #[test]
    fn records_nested_tree_with_counts() {
        let profiler = Profiler::begin();
        assert!(active());
        {
            let _plan = phase("plan");
            for _ in 0..3 {
                let _sweep = phase("bfs_sweep");
                count("frontier_popped", 10);
                spin_for(200);
            }
            {
                let _label = phase("label");
                spin_for(100);
            }
            spin_for(50);
        }
        let prof = profiler.finish();
        assert!(!active());
        assert_eq!(prof.roots.len(), 1);
        let plan = &prof.nodes[prof.roots[0]];
        assert_eq!(plan.name, "plan");
        assert_eq!(plan.calls, 1);
        assert_eq!(plan.children.len(), 2);
        let sweep_idx = plan.children[0];
        assert_eq!(prof.nodes[sweep_idx].name, "bfs_sweep");
        assert_eq!(prof.nodes[sweep_idx].calls, 3);
        assert_eq!(prof.named_counter("frontier_popped"), 30);
        // Children's totals never exceed the parent's.
        let child_total: u64 = plan.children.iter().map(|&c| prof.nodes[c].total_ns).sum();
        assert!(child_total <= plan.total_ns);
        assert!(prof.attributed_ms() > 0.0);
        assert!(prof.total_ms("bfs_sweep") > 0.0);
    }

    #[test]
    fn value_export_has_expected_fields() {
        let profiler = Profiler::begin();
        {
            let _a = phase("plan");
            let _b = phase("tree");
            count("tree_edges", 9);
        }
        let prof = profiler.finish();
        let v = prof.to_value();
        let roots = match &v {
            Value::Array(a) => a,
            other => panic!("expected array, got {other:?}"),
        };
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].get("name").and_then(Value::as_str), Some("plan"));
        assert_eq!(roots[0].get("calls").and_then(Value::as_u64), Some(1));
        assert!(roots[0].get("total_ms").and_then(Value::as_f64).is_some());
        assert!(roots[0].get("self_ms").and_then(Value::as_f64).is_some());
        let children = roots[0].get("children").and_then(Value::as_array).unwrap();
        assert_eq!(
            children[0].get("name").and_then(Value::as_str),
            Some("tree")
        );
        let counters = children[0].get("counters").unwrap();
        assert_eq!(counters.get("tree_edges").and_then(Value::as_u64), Some(9));
    }

    #[test]
    fn collapsed_stacks_are_semicolon_paths() {
        let profiler = Profiler::begin();
        {
            let _a = phase("plan");
            {
                let _b = phase("tree");
                let _c = phase("bfs_sweep");
            }
            let _d = phase("flatten");
        }
        let prof = profiler.finish();
        let flame = prof.collapsed_stacks();
        let lines: Vec<&str> = flame.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines.iter().any(|l| l.starts_with("plan ")));
        assert!(lines.iter().any(|l| l.starts_with("plan;tree;bfs_sweep ")));
        for line in lines {
            let (_stack, n) = line.rsplit_once(' ').expect("space-separated");
            n.parse::<u64>().expect("self-time in µs");
        }
    }

    #[test]
    fn dropping_profiler_uninstalls() {
        {
            let _p = Profiler::begin();
            assert!(active());
        }
        assert!(!active());
    }

    #[test]
    fn replacement_leaves_newest_profiler_installed() {
        let old = Profiler::begin();
        let new = Profiler::begin();
        {
            let _g = phase("tree");
        }
        // The replaced handle finishes empty and must not uninstall the
        // newer profiler.
        assert!(old.finish().is_empty());
        assert!(active());
        let prof = new.finish();
        assert_eq!(prof.roots.len(), 1);
    }

    #[test]
    fn spans_and_phases_share_one_tree() {
        use crate::{MetricsRecorder, NoopRecorder, RecorderExt};
        let rec = MetricsRecorder::new();
        let profiler = Profiler::begin();
        {
            let _plan = rec.span("plan");
            {
                let _quiet = NoopRecorder.span("labeling");
                let _p = phase("label_flat");
            }
            let tree = rec.span("spanning_tree");
            assert_eq!(tree.path(), Some("plan/spanning_tree"));
            let _sweep = phase("bfs_sweep");
        }
        let prof = profiler.finish();
        assert_eq!(
            prof.collapsed_stacks()
                .lines()
                .map(|l| l.rsplit_once(' ').unwrap().0)
                .collect::<Vec<_>>(),
            [
                "plan",
                "plan;labeling",
                "plan;labeling;label_flat",
                "plan;spanning_tree",
                "plan;spanning_tree;bfs_sweep",
            ]
        );
        // The recorder saw its own spans only, under the same paths.
        let snap = rec.snapshot();
        let spans: Vec<&str> = snap["spans"]
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(spans, ["plan", "plan/spanning_tree"]);
        // Lookups match whole trailing segments of the path.
        assert!(prof.total_ms("labeling/label_flat") > 0.0);
        assert!(prof.total_ms("plan/labeling") > 0.0);
        assert_eq!(prof.total_ms("flat"), 0.0);
        assert_eq!(prof.total_ms("an/labeling"), 0.0);
    }

    #[test]
    fn a_profiler_begun_inside_a_span_keeps_its_path() {
        use crate::{MetricsRecorder, RecorderExt};
        let rec = MetricsRecorder::new();
        let outer = rec.span("run");
        let profiler = Profiler::begin();
        {
            let inner = rec.span("plan");
            assert_eq!(inner.path(), Some("run/plan"));
        }
        let prof = profiler.finish();
        drop(outer);
        // Only what was entered under the profiler is reported; the
        // outer span's node was not, so `plan` is a root.
        assert_eq!(prof.roots.len(), 1);
        assert_eq!(prof.nodes[prof.roots[0]].name, "plan");
        assert_eq!(prof.nodes[prof.roots[0]].calls, 1);
        let after = rec.span("plan");
        assert_eq!(after.path(), Some("plan"));
    }
}
