//! Lazy tree maintenance against its full rule. `TreeMaintainer::batch`
//! computes a radius only when a batch inserts an edge; the rule it must
//! still follow is `tree_edge_lost || radius(candidate) < plan.radius`,
//! here with the radius of the full eccentricity sweep. Random connected
//! graphs take sequences of random batches — inserts only, tree-edge
//! removals only, non-tree removals only, and mixes — and after every
//! committed batch `plan().radius` must equal the radius of `graph()`.
//!
//! A batch builds only the tree: the schedule is generated on the first
//! `plan()` after a rebuild, under the profiler's `concurrent_updown`
//! node, and equals a plan generated on `tree()` directly.

use gossip_core::{EdgeOp, GossipPlanner, MaintenanceOutcome, TreeMaintainer};
use gossip_graph::{distance_metrics, is_connected, Graph, GraphError};
use gossip_telemetry::profile::{Profile, Profiler};
use gossip_workloads::random_connected;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// What the full rule makes of `ops`: the candidate graph and the outcome,
/// or the error that leaves the maintainer unchanged.
fn full_rule(
    m: &TreeMaintainer,
    ops: &[EdgeOp],
) -> Result<(Graph, MaintenanceOutcome), GraphError> {
    let tree = m.tree();
    let mut candidate = m.graph().clone();
    let mut tree_edge_lost = false;
    for op in ops {
        match *op {
            EdgeOp::Insert(u, v) => candidate = candidate.with_edge(u, v)?,
            EdgeOp::Remove(u, v) => {
                candidate = candidate.without_edge(u, v)?;
                tree_edge_lost |= tree.parent(u) == Some(v) || tree.parent(v) == Some(u);
            }
        }
    }
    if !is_connected(&candidate) {
        return Err(GraphError::Disconnected);
    }
    let outcome = if tree_edge_lost || distance_metrics(&candidate)?.radius < tree.height() {
        MaintenanceOutcome::Rebuilt
    } else {
        MaintenanceOutcome::Kept
    };
    Ok((candidate, outcome))
}

/// The shapes a random batch takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    Inserts,
    TreeRemovals,
    NonTreeRemovals,
    Mixed,
}

const SHAPES: [Shape; 4] = [
    Shape::Inserts,
    Shape::TreeRemovals,
    Shape::NonTreeRemovals,
    Shape::Mixed,
];

/// One to four ops of `shape`, each valid on the graph the ops before it
/// leave. A shape with nothing left to pick yields fewer ops, possibly
/// none.
fn random_batch(m: &TreeMaintainer, shape: Shape, rng: &mut SmallRng) -> Vec<EdgeOp> {
    let tree = m.tree();
    let is_tree = |(u, v): (usize, usize)| tree.parent(u) == Some(v) || tree.parent(v) == Some(u);
    let n = m.graph().n();
    let mut g = m.graph().clone();
    let mut ops = Vec::new();
    for _ in 0..rng.gen_range(1..5usize) {
        let shape = match shape {
            Shape::Mixed => SHAPES[rng.gen_range(0..3usize)],
            other => other,
        };
        let pool: Vec<(usize, usize)> = match shape {
            Shape::Inserts => (0..n)
                .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
                .filter(|&(u, v)| !g.has_edge(u, v))
                .collect(),
            Shape::TreeRemovals => g.edges().filter(|&e| is_tree(e)).collect(),
            _ => g.edges().filter(|&e| !is_tree(e)).collect(),
        };
        if pool.is_empty() {
            continue;
        }
        let (u, v) = pool[rng.gen_range(0..pool.len())];
        if shape == Shape::Inserts {
            g = g.with_edge(u, v).unwrap();
            ops.push(EdgeOp::Insert(u, v));
        } else {
            g = g.without_edge(u, v).unwrap();
            ops.push(EdgeOp::Remove(u, v));
        }
    }
    ops
}

/// How the batches of a run ended, by shape (in [`SHAPES`] order):
/// (kept, rebuilt, refused).
type Tally = [(usize, usize, usize); 4];

/// Whether `profile` has a node named `name` anywhere in its forest.
fn has_node(profile: &Profile, name: &str) -> bool {
    profile
        .collapsed_stacks()
        .lines()
        .filter_map(|line| line.split(' ').next())
        .any(|stack| stack.split(';').any(|node| node == name))
}

/// Eight random batches on one random graph, each held to the full rule.
/// A batch builds at most one tree and never a schedule; the first
/// `plan()` after it generates the schedule on `tree()`.
fn run_batches(n: usize, seed: u64) -> Result<Tally, String> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let p = [1.5 / n as f64, 3.0 / n as f64, 0.15, 0.4][rng.gen_range(0..4usize)].min(1.0);
    let mut m = TreeMaintainer::new(random_connected(n, p, rng.gen())).unwrap();
    let mut tally: Tally = [(0, 0, 0); 4];
    for _ in 0..8 {
        let i = rng.gen_range(0..4usize);
        let ops = random_batch(&m, SHAPES[i], &mut rng);
        let want = full_rule(&m, &ops);
        let before: Vec<(usize, usize)> = m.graph().edges().collect();
        let rebuilds = m.rebuilds();
        let profiler = Profiler::begin();
        let got = m.batch(&ops);
        let batch_profile = profiler.finish();
        let after: Vec<(usize, usize)> = m.graph().edges().collect();
        prop_assert!(!has_node(&batch_profile, "concurrent_updown"));
        match want {
            Ok((candidate, outcome)) => {
                prop_assert_eq!(got, Ok(outcome), "{:?} on {:?}", ops, before);
                prop_assert_eq!(after, candidate.edges().collect::<Vec<_>>());
                if outcome == MaintenanceOutcome::Kept {
                    prop_assert_eq!(m.rebuilds(), rebuilds);
                    tally[i].0 += 1;
                } else {
                    prop_assert_eq!(m.rebuilds(), rebuilds + 1);
                    prop_assert!(has_node(&batch_profile, "spanning_tree"));
                    tally[i].1 += 1;
                }
            }
            Err(e) => {
                prop_assert_eq!(got, Err(e), "{:?} on {:?}", ops, before);
                prop_assert_eq!(after, before);
                prop_assert_eq!(m.rebuilds(), rebuilds);
                tally[i].2 += 1;
            }
        }
        prop_assert_eq!(
            m.tree().height(),
            distance_metrics(m.graph()).unwrap().radius,
            "tree height after {:?}",
            ops
        );
        let profiler = Profiler::begin();
        let plan = m.plan();
        let plan_profile = profiler.finish();
        if got == Ok(MaintenanceOutcome::Rebuilt) {
            prop_assert!(has_node(&plan_profile, "concurrent_updown"));
        }
        let direct = GossipPlanner::new(m.graph())
            .unwrap()
            .plan_on_tree(m.tree().clone());
        prop_assert_eq!(&plan.tree, m.tree());
        prop_assert_eq!(&plan.schedule, &direct.schedule);
        prop_assert_eq!(&plan.origin_of_message, &direct.origin_of_message);
        prop_assert_eq!(plan.radius, direct.radius);
        prop_assert_eq!(
            m.rebuilds(),
            rebuilds + usize::from(got == Ok(MaintenanceOutcome::Rebuilt))
        );
    }
    Ok(tally)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn batch_follows_the_full_rule(n in 3usize..=40, seed in 0u64..1 << 48) {
        run_batches(n, seed)?;
    }
}

/// The random batches reach every branch of the rule: inserts that keep
/// the plan and inserts that shrink the radius, tree removals that force
/// a rebuild, non-tree removals that keep it, and refused batches.
#[test]
fn random_batches_reach_every_outcome() {
    let mut total: Tally = [(0, 0, 0); 4];
    for seed in 0..40u64 {
        let tally = run_batches(6 + (seed as usize * 7) % 35, seed).unwrap();
        for (t, s) in total.iter_mut().zip(tally) {
            *t = (t.0 + s.0, t.1 + s.1, t.2 + s.2);
        }
    }
    let [inserts, tree_removals, non_tree_removals, mixed] = total;
    assert!(inserts.0 > 0 && inserts.1 > 0, "inserts {inserts:?}");
    assert!(
        tree_removals.1 > 0 && tree_removals.2 > 0,
        "{tree_removals:?}"
    );
    assert!(non_tree_removals.0 > 0, "{non_tree_removals:?}");
    assert!(mixed.0 + mixed.1 > 0, "{mixed:?}");
}
