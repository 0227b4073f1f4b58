//! Pruned multi-source minimum-depth spanning tree construction — the fast
//! planner's replacement for the paper's n-sweep §3.1 procedure.
//!
//! The reference sweep evaluates every root up to its early exit: O(mn), the
//! wall that sheds every `exp_scaling` size above n = 8192. This module
//! finds the same minimum depth (= graph radius) with far fewer sweeps, in
//! three steps:
//!
//! 1. **Double sweep**: BFS from vertex 0, from the farthest vertex `a`
//!    found, and from the farthest vertex `b` from `a`. Each distance array
//!    is a per-vertex eccentricity lower bound (`d(v, x) <= ecc(v)`), so
//!    `lb[v] = max(d0[v], da[v], db[v])` — and `ecc(a)`-style sweep maxima
//!    lower-bound the diameter, giving the radius floor `ceil(diam_lb / 2)`.
//! 2. **Pruned candidate waves**: only vertices with `lb[v]` strictly below
//!    the incumbent eccentricity can still *improve* the tree depth; they
//!    are sorted by `(lb, id)` and evaluated in doubling waves of 64-source
//!    batches. After each wave the incumbent tightens and the remaining
//!    candidates are re-filtered. Pruning `lb >= incumbent` can only discard
//!    equal-depth ties, so the resulting tree height is exactly the radius;
//!    the *root* may differ from the reference sweep's smallest-id choice
//!    when such a tie is pruned (the documented fast-vs-reference contract).
//! 3. **Multi-source bitset BFS**: each batch packs up to 64 sources into
//!    one `u64` word per vertex (the `SimKernel` word-arena idiom) and runs
//!    a push-style expansion over sparse frontier lists: never more work
//!    than 64 scalar sweeps, and on low-diameter graphs each word operation
//!    advances up to 64 frontiers at once.
//!
//! The wave structure (doubling, over the deterministically sorted candidate
//! list) is fixed independent of thread count, and batch results are reduced
//! by exact `(ecc, id)` minima — so the chosen root, and therefore the tree,
//! is byte-identical no matter how many rayon workers run the batches.
//!
//! Steps 1–3 are `center_search`; [`crate::radius`] runs the same search
//! and keeps only the radius.

use crate::bfs::{bfs, bfs_into, BfsResult};
use crate::error::GraphError;
use crate::graph::Graph;
use crate::spanning::{parents_to_tree, ChildOrder};
use crate::tree::RootedTree;
use gossip_telemetry::{NoopRecorder, Recorder, RecorderExt};
use rayon::prelude::*;

/// Sources per multi-source batch: one bit of a `u64` frontier word each.
pub(crate) const BATCH: usize = 64;

/// Finds a spanning tree of minimum possible height using the pruned
/// multi-source sweep. The returned tree's height equals the radius of `g`;
/// the root may differ from [`crate::min_depth_spanning_tree`]'s only when
/// several vertices tie at the radius (equal-depth tie-breaks).
///
/// Errors with [`GraphError::Disconnected`] / [`GraphError::EmptyGraph`]
/// exactly like the reference sweep.
pub fn min_depth_spanning_tree_fast(
    g: &Graph,
    order: ChildOrder,
) -> Result<RootedTree, GraphError> {
    min_depth_spanning_tree_fast_recorded(g, order, &NoopRecorder)
}

/// [`min_depth_spanning_tree_fast`] with telemetry: a `spanning_tree_fast`
/// span over `double_sweep / ms_bfs / final_bfs / build_tree` profiler
/// phases, and counters for evaluated sweeps, pruned candidates, and
/// multi-source batches.
pub fn min_depth_spanning_tree_fast_recorded(
    g: &Graph,
    order: ChildOrder,
    recorder: &dyn Recorder,
) -> Result<RootedTree, GraphError> {
    if g.n() == 0 {
        return Err(GraphError::EmptyGraph);
    }
    let _span = recorder.span("spanning_tree_fast");
    let mut search = center_search(g, true)?;
    if search.early_exit {
        recorder.counter("spanning/early_exit", 1);
    }
    let (sweeps, pruned) = (search.sweeps, search.pruned);
    gossip_telemetry::profile::count("bfs_sweeps", sweeps);
    gossip_telemetry::profile::count("candidates_pruned", pruned);
    gossip_telemetry::profile::count("ms_batches", search.batches);
    let (radius, root) = search.best;
    if recorder.enabled() {
        recorder.counter("spanning/sweeps", sweeps);
        recorder.counter("spanning/pruned", pruned);
        recorder.gauge("spanning/radius", f64::from(radius));
        recorder.event(
            "spanning_tree",
            &[
                ("mode", gossip_telemetry::Value::String("fast".to_string())),
                ("sweeps", gossip_telemetry::Value::from_u64(sweeps)),
                ("pruned", gossip_telemetry::Value::from_u64(pruned)),
                (
                    "radius",
                    gossip_telemetry::Value::from_u64(u64::from(radius)),
                ),
                ("root", gossip_telemetry::Value::from_u64(u64::from(root))),
            ],
        );
    }

    // Final scalar sweep from the winner gives the parent array — the same
    // BFS the reference runs, so equal roots mean byte-identical trees.
    let scratch = &mut search.scratch;
    {
        let _p = gossip_telemetry::profile::phase("final_bfs");
        bfs_into(g, root as usize, scratch);
    }
    debug_assert_eq!(scratch.eccentricity(), Some(radius));
    parents_to_tree(root as usize, &scratch.parent, order)
}

/// What [`center_search`] found, and the work it took.
pub(crate) struct CenterSearch {
    /// The least `(eccentricity, id)` among the vertices evaluated: the
    /// radius, and the root the tree builder hangs its tree from.
    pub(crate) best: (u32, u32),
    /// A BFS buffer sized for the graph, free for the caller's next sweep.
    pub(crate) scratch: BfsResult,
    /// Eccentricities evaluated: the double sweep's three plus every
    /// candidate a wave took.
    pub(crate) sweeps: u64,
    /// Candidates dropped unevaluated.
    pub(crate) pruned: u64,
    /// 64-source batches run.
    pub(crate) batches: u64,
    /// Whether the search stopped at the radius floor.
    pub(crate) early_exit: bool,
}

/// Steps 1–3 of the module docs: the radius of a connected, non-empty
/// graph, and the root the fast tree uses. `profiled` opens the
/// `double_sweep` and `ms_bfs` profiler phases and counts the batches'
/// `frontier_popped`; the tree builder sets it, and [`crate::radius`]
/// does not, so a radius query adds no PROF node (the double sweep's
/// scalar BFS count their pops wherever they run, as every BFS does).
///
/// Errors with [`GraphError::Disconnected`] when vertex 0's sweep misses a
/// vertex.
pub(crate) fn center_search(g: &Graph, profiled: bool) -> Result<CenterSearch, GraphError> {
    let phase = |name| profiled.then(|| gossip_telemetry::profile::phase(name));
    let n = g.n();

    // Step 1: double sweep — 3 scalar BFS giving lower bounds and an
    // initial incumbent, plus the connectivity check.
    let (scratch, lb, floor, mut best) = {
        let _p = phase("double_sweep");
        let r0 = bfs(g, 0);
        if !r0.all_reached() {
            return Err(GraphError::Disconnected);
        }
        let ecc0 = r0.eccentricity().expect("all reached");
        let a = farthest(&r0.dist);
        let mut lb = r0.dist;
        let mut scratch = bfs(g, a);
        let ecc_a = scratch.eccentricity().expect("connected");
        let b = farthest(&scratch.dist);
        max_into(&mut lb, &scratch.dist);
        bfs_into(g, b, &mut scratch);
        let ecc_b = scratch.eccentricity().expect("connected");
        max_into(&mut lb, &scratch.dist);
        // Any eccentricity lower-bounds the diameter, and 2r >= diam.
        let diam_lb = ecc0.max(ecc_a).max(ecc_b);
        let floor = diam_lb.div_ceil(2);
        let mut best = (ecc0, 0u32);
        for cand in [(ecc_a, a as u32), (ecc_b, b as u32)] {
            if cand < best {
                best = cand;
            }
        }
        (scratch, lb, floor, best)
    };
    let mut sweeps = 3u64;
    let mut pruned = 0u64;
    let mut batches = 0u64;
    let mut early_exit = true;

    // Step 2 + 3: doubling waves of 64-source batches over the candidates
    // that can still beat the incumbent.
    if best.0 > floor {
        let _p = phase("ms_bfs");
        // The three swept vertices need no re-evaluation: 0 is excluded by
        // id; a and b have lb >= ecc(a) >= incumbent (d(a, b) = ecc(a) is
        // in both bounds), so the lb filter drops them.
        let mut candidates: Vec<u32> = (0..n as u32)
            .filter(|&v| v != 0 && lb[v as usize] < best.0)
            .collect();
        candidates.sort_unstable_by_key(|&v| (lb[v as usize], v));
        let mut wave = 1usize; // in batches
        let mut cursor = 0usize;
        while cursor < candidates.len() && best.0 > floor {
            let take = (wave * BATCH).min(candidates.len() - cursor);
            let batch_list: Vec<&[u32]> = candidates[cursor..cursor + take].chunks(BATCH).collect();
            batches += batch_list.len() as u64;
            sweeps += take as u64;
            let results: Vec<Vec<(u32, u32)>> = batch_list
                .into_par_iter()
                .map(|sources| {
                    let eccs = eval_batch(g, sources);
                    if profiled {
                        count_frontier_popped(&eccs);
                    }
                    eccs
                })
                .collect();
            for &(ecc, v) in results.iter().flatten() {
                if (ecc, v) < best {
                    best = (ecc, v);
                }
            }
            cursor += take;
            // Re-filter the tail against the tightened incumbent; order is
            // preserved, so the wave structure stays deterministic.
            if cursor < candidates.len() {
                let before = candidates.len();
                let mut w = cursor;
                for r in cursor..candidates.len() {
                    let v = candidates[r];
                    if lb[v as usize] < best.0 {
                        candidates[w] = v;
                        w += 1;
                    }
                }
                candidates.truncate(w);
                pruned += (before - candidates.len()) as u64;
            }
            wave *= 2;
        }
        early_exit = best.0 <= floor;
        if early_exit {
            pruned += (candidates.len() - cursor) as u64;
        }
    }
    Ok(CenterSearch {
        best,
        scratch,
        sweeps,
        pruned,
        batches,
        early_exit,
    })
}

/// Index of the first maximum in a distance array (ties to smallest id).
fn farthest(dist: &[u32]) -> usize {
    let mut arg = 0usize;
    for (v, &d) in dist.iter().enumerate() {
        if d > dist[arg] {
            arg = v;
        }
    }
    arg
}

fn max_into(lb: &mut [u32], dist: &[u32]) {
    for (l, &d) in lb.iter_mut().zip(dist) {
        if d > *l {
            *l = d;
        }
    }
}

/// One multi-source bitset BFS over up to 64 sources: returns `(ecc, source)`
/// pairs. Push-style expansion over sparse frontier lists with one `u64`
/// frontier/visited word per vertex — at most the work of 64 scalar sweeps,
/// and one word op per up-to-64 frontiers on low-diameter graphs.
///
/// Assumes `g` is connected (each caller's first scalar BFS verified it).
/// Counts nothing: a profiled caller adds [`count_frontier_popped`].
pub(crate) fn eval_batch(g: &Graph, sources: &[u32]) -> Vec<(u32, u32)> {
    let n = g.n();
    debug_assert!(!sources.is_empty() && sources.len() <= BATCH);
    let mut visited = vec![0u64; n];
    let mut frontier = vec![0u64; n];
    let mut next = vec![0u64; n];
    let mut frontier_list: Vec<u32> = Vec::with_capacity(sources.len());
    let mut next_list: Vec<u32> = Vec::with_capacity(n.min(4 * sources.len()));
    let mut ecc = vec![0u32; sources.len()];

    for (idx, &s) in sources.iter().enumerate() {
        let bit = 1u64 << idx;
        visited[s as usize] |= bit;
        frontier[s as usize] |= bit;
        frontier_list.push(s);
    }
    let mut level = 0u32;
    loop {
        next_list.clear();
        for &u in &frontier_list {
            let fu = frontier[u as usize];
            for &w in g.neighbors_raw(u as usize) {
                let w_us = w as usize;
                let new = fu & !visited[w_us];
                if new != 0 {
                    if next[w_us] == 0 {
                        next_list.push(w);
                    }
                    next[w_us] |= new;
                }
            }
        }
        if next_list.is_empty() {
            break;
        }
        level += 1;
        let mut progressed = 0u64;
        for &w in &next_list {
            let w_us = w as usize;
            let nw = next[w_us];
            visited[w_us] |= nw;
            progressed |= nw;
        }
        let mut bits = progressed;
        while bits != 0 {
            let idx = bits.trailing_zeros() as usize;
            ecc[idx] = level;
            bits &= bits - 1;
        }
        // Clear the old frontier words (sparse: only listed vertices are
        // nonzero) and swap the arenas for the next level.
        for &u in &frontier_list {
            frontier[u as usize] = 0;
        }
        std::mem::swap(&mut frontier, &mut next);
        std::mem::swap(&mut frontier_list, &mut next_list);
    }
    for &u in &frontier_list {
        frontier[u as usize] = 0;
    }
    sources
        .iter()
        .enumerate()
        .map(|(idx, &s)| (ecc[idx], s))
        .collect()
}

/// Books a batch's `frontier_popped` work counter in the innermost
/// profiler node: every source stays on the frontier until the batch's
/// last level, which is its largest eccentricity.
pub(crate) fn count_frontier_popped(eccs: &[(u32, u32)]) {
    let levels = eccs.iter().map(|&(ecc, _)| ecc).max().unwrap_or(0);
    gossip_telemetry::profile::count("frontier_popped", u64::from(levels) * eccs.len() as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::distance_metrics;
    use crate::spanning::min_depth_spanning_tree;

    fn path(n: usize) -> Graph {
        Graph::from_edges(n, &(0..n - 1).map(|i| (i, i + 1)).collect::<Vec<_>>()).unwrap()
    }

    fn cycle(n: usize) -> Graph {
        Graph::from_edges(n, &(0..n).map(|i| (i, (i + 1) % n)).collect::<Vec<_>>()).unwrap()
    }

    fn grid(rows: usize, cols: usize) -> Graph {
        let mut edges = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                let v = r * cols + c;
                if c + 1 < cols {
                    edges.push((v, v + 1));
                }
                if r + 1 < rows {
                    edges.push((v, v + cols));
                }
            }
        }
        Graph::from_edges(rows * cols, &edges).unwrap()
    }

    #[test]
    fn height_equals_radius_on_structured_graphs() {
        for g in [
            path(2),
            path(9),
            path(64),
            cycle(8),
            cycle(9),
            cycle(130),
            grid(5, 7),
            grid(9, 9),
        ] {
            let r = distance_metrics(&g).unwrap().radius;
            let t = min_depth_spanning_tree_fast(&g, ChildOrder::ById).unwrap();
            assert_eq!(t.height(), r, "radius mismatch");
            assert!(t.is_spanning_tree_of(&g));
        }
    }

    #[test]
    fn matches_reference_height_on_star_and_complete() {
        let mut edges = Vec::new();
        for u in 0..9 {
            for v in (u + 1)..9 {
                edges.push((u, v));
            }
        }
        let complete = Graph::from_edges(9, &edges).unwrap();
        let star = Graph::from_edges(7, &(1..7).map(|v| (0, v)).collect::<Vec<_>>()).unwrap();
        for g in [complete, star] {
            let a = min_depth_spanning_tree(&g, ChildOrder::ById).unwrap();
            let b = min_depth_spanning_tree_fast(&g, ChildOrder::ById).unwrap();
            assert_eq!(a.height(), b.height());
        }
    }

    #[test]
    fn repeated_runs_are_identical() {
        let g = grid(8, 13);
        let a = min_depth_spanning_tree_fast(&g, ChildOrder::ById).unwrap();
        for _ in 0..3 {
            assert_eq!(
                a,
                min_depth_spanning_tree_fast(&g, ChildOrder::ById).unwrap()
            );
        }
    }

    #[test]
    fn disconnected_and_empty_error() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert_eq!(
            min_depth_spanning_tree_fast(&g, ChildOrder::ById).unwrap_err(),
            GraphError::Disconnected
        );
        let e = Graph::from_edges(0, &[]).unwrap();
        assert_eq!(
            min_depth_spanning_tree_fast(&e, ChildOrder::ById).unwrap_err(),
            GraphError::EmptyGraph
        );
    }

    #[test]
    fn singleton_and_pair() {
        let g1 = Graph::from_edges(1, &[]).unwrap();
        let t1 = min_depth_spanning_tree_fast(&g1, ChildOrder::ById).unwrap();
        assert_eq!((t1.n(), t1.height()), (1, 0));
        let g2 = Graph::from_edges(2, &[(0, 1)]).unwrap();
        let t2 = min_depth_spanning_tree_fast(&g2, ChildOrder::ById).unwrap();
        assert_eq!(t2.height(), 1);
    }

    #[test]
    fn batch_eccentricities_are_exact() {
        // Every vertex of a 6x5 grid, in odd-sized batches, vs scalar BFS.
        let g = grid(6, 5);
        let all: Vec<u32> = (0..g.n() as u32).collect();
        for chunk in all.chunks(7) {
            for (ecc, v) in eval_batch(&g, chunk) {
                assert_eq!(Some(ecc), bfs(&g, v as usize).eccentricity(), "v = {v}");
            }
        }
    }

    #[test]
    fn candidates_tied_with_the_incumbent_are_pruned() {
        // C_8: vertex 0's sweep gives a = 4 and b = 0, every vertex has
        // eccentricity 4, and the radius floor is ceil(4 / 2) = 2, so the
        // incumbent (4, 0) never moves and no wave exits early. Vertex 4's
        // lower bound d(0, 4) = 4 ties the incumbent, so it is pruned; the
        // other six (bounds 2 and 3) are evaluated in one batch.
        let s = center_search(&cycle(8), false).unwrap();
        assert_eq!(s.best, (4, 0));
        assert_eq!((s.sweeps, s.pruned, s.batches), (3 + 6, 0, 1));
        assert!(!s.early_exit);
        // On a path the bounds are exact: of the 198 candidates (all but the
        // two ends), the first wave reaches the floor at the center, and the
        // rest are pruned.
        let s = center_search(&path(200), false).unwrap();
        assert_eq!(s.best, (100, 99));
        assert_eq!((s.sweeps, s.pruned, s.batches), (3 + 64, 198 - 64, 1));
        assert!(s.early_exit);
    }

    #[test]
    fn child_order_is_respected() {
        let g = path(6);
        let t = min_depth_spanning_tree_fast(&g, ChildOrder::LargestSubtreeFirst).unwrap();
        assert_eq!(t.height(), distance_metrics(&g).unwrap().radius);
    }
}
