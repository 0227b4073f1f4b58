//! Property-based tests for the graph substrate: every algorithm is checked
//! against a brute-force oracle on random graphs.

use gossip_graph::{
    articulation_points, bfs, bfs_into, bfs_tree, components, distance_metrics, is_connected,
    min_depth_spanning_tree, min_depth_spanning_tree_recorded, radius, ChildOrder, Graph,
    GraphBuilder, GraphError, RootedTree, NO_PARENT, UNREACHABLE,
};
use gossip_telemetry::MetricsRecorder;
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// Random graph on up to `max_n` vertices with each edge present w.p. ~p.
fn arb_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (2..=max_n).prop_flat_map(|n| {
        let pairs: Vec<(usize, usize)> = (0..n)
            .flat_map(|u| ((u + 1)..n).map(move |v| (u, v)))
            .collect();
        let len = pairs.len();
        proptest::collection::vec(proptest::bool::weighted(0.4), len).prop_map(move |mask| {
            let mut b = GraphBuilder::new(n);
            for (on, &(u, v)) in mask.iter().zip(&pairs) {
                if *on {
                    b.add_edge_unchecked(u, v).unwrap();
                }
            }
            b.build()
        })
    })
}

/// Random connected graph: random tree + extra edges.
fn arb_connected(max_n: usize) -> impl Strategy<Value = Graph> {
    (2..=max_n).prop_flat_map(|n| {
        let parents: Vec<BoxedStrategy<usize>> = (1..n).map(|i| (0..i).boxed()).collect();
        let pairs: Vec<(usize, usize)> = (0..n)
            .flat_map(|u| ((u + 1)..n).map(move |v| (u, v)))
            .collect();
        let len = pairs.len();
        (
            parents,
            proptest::collection::vec(proptest::bool::weighted(0.2), len),
        )
            .prop_map(move |(ps, mask)| {
                let mut b = GraphBuilder::new(n);
                let mut present = std::collections::HashSet::new();
                for (i, p) in ps.into_iter().enumerate() {
                    b.add_edge_unchecked(p, i + 1).unwrap();
                    present.insert((p.min(i + 1), p.max(i + 1)));
                }
                for (on, &(u, v)) in mask.iter().zip(&pairs) {
                    if *on && !present.contains(&(u, v)) {
                        b.add_edge_unchecked(u, v).unwrap();
                    }
                }
                b.build()
            })
    })
}

/// Floyd–Warshall oracle.
fn all_pairs_oracle(g: &Graph) -> Vec<Vec<u32>> {
    let n = g.n();
    let inf = u32::MAX / 4;
    let mut d = vec![vec![inf; n]; n];
    for (v, row) in d.iter_mut().enumerate() {
        row[v] = 0;
    }
    for (u, v) in g.edges() {
        d[u][v] = 1;
        d[v][u] = 1;
    }
    for k in 0..n {
        for i in 0..n {
            for j in 0..n {
                d[i][j] = d[i][j].min(d[i][k].saturating_add(d[k][j]));
            }
        }
    }
    d
}

/// The paper's §3.1 sweep one root at a time: a scalar BFS per root in
/// ascending id order, the first strictly shallower root wins, and the
/// sweep stops at the first root reaching `ceil(ecc(0) / 2)`. Returns the
/// tree (children by id), the roots examined, and whether it stopped early.
fn scalar_sweep_oracle(g: &Graph) -> Result<(RootedTree, u64, bool), GraphError> {
    if g.n() == 0 {
        return Err(GraphError::EmptyGraph);
    }
    let mut scratch = bfs(g, 0);
    let floor = scratch.eccentricity().map_or(0, |e| e.div_ceil(2));
    let mut best: Option<(u32, usize, Vec<u32>)> = None;
    let mut sweeps = 0u64;
    let mut early_exit = false;
    for v in 0..g.n() {
        bfs_into(g, v, &mut scratch);
        sweeps += 1;
        let ecc = scratch.eccentricity().ok_or(GraphError::Disconnected)?;
        if best.as_ref().is_none_or(|b| ecc < b.0) {
            best = Some((ecc, v, scratch.parent.clone()));
            if ecc == floor {
                early_exit = true;
                break;
            }
        }
    }
    let (_, root, mut parent) = best.expect("n > 0");
    parent[root] = NO_PARENT;
    Ok((RootedTree::from_parents(root, &parent)?, sweeps, early_exit))
}

/// The production sweep against [`scalar_sweep_oracle`]: same tree under
/// both child orders, same error, and the same sweep / early-exit counts
/// with one `bfs_sweep_ns` sample per examined root.
fn check_against_scalar_sweep(g: &Graph) -> Result<(), String> {
    let rec = MetricsRecorder::new();
    let got = min_depth_spanning_tree_recorded(g, ChildOrder::ById, &rec);
    let n = g.n();
    match scalar_sweep_oracle(g) {
        Err(e) => {
            if got != Err(e.clone()) {
                return Err(format!("n = {n}: expected {e:?}, got {got:?}"));
            }
        }
        Ok((tree, sweeps, early_exit)) => {
            let got = got.map_err(|e| format!("n = {n}: unexpected {e:?}"))?;
            if got != tree {
                return Err(format!(
                    "n = {n}: root {} vs oracle root {}",
                    got.root(),
                    tree.root()
                ));
            }
            let samples = rec.snapshot()["histograms"]["spanning/bfs_sweep_ns"]["count"].as_u64();
            let counts = (
                rec.counter_value("spanning/sweeps"),
                rec.counter_value("spanning/early_exit"),
                samples.unwrap_or(0),
            );
            if counts != (sweeps, early_exit as u64, sweeps) {
                return Err(format!(
                    "n = {n}: (sweeps, early_exit, samples) {counts:?} vs oracle \
                     ({sweeps}, {}, {sweeps})",
                    early_exit as u64
                ));
            }
            let by_size = min_depth_spanning_tree(g, ChildOrder::LargestSubtreeFirst).unwrap();
            let oracle_by_size = bfs_tree(g, tree.root(), ChildOrder::LargestSubtreeFirst).unwrap();
            if by_size != oracle_by_size {
                return Err(format!("n = {n}: LargestSubtreeFirst trees differ"));
            }
        }
    }
    Ok(())
}

fn edges_graph(n: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> Graph {
    let mut b = GraphBuilder::new(n);
    for (u, v) in edges {
        b.add_edge_unchecked(u, v).unwrap();
    }
    b.build()
}

fn path(n: usize) -> Graph {
    edges_graph(n, (1..n).map(|v| (v - 1, v)))
}

fn cycle(n: usize) -> Graph {
    edges_graph(n, (0..n).map(|v| (v, (v + 1) % n)))
}

fn star(n: usize, center: usize) -> Graph {
    edges_graph(n, (0..n).filter(|&v| v != center).map(|v| (center, v)))
}

fn complete(n: usize) -> Graph {
    edges_graph(n, (0..n).flat_map(|u| (u + 1..n).map(move |v| (u, v))))
}

fn grid(rows: usize, cols: usize) -> Graph {
    let right = (0..rows * cols)
        .filter(move |v| v % cols + 1 < cols)
        .map(|v| (v, v + 1));
    let down = (0..(rows - 1) * cols).map(move |v| (v, v + cols));
    edges_graph(rows * cols, right.chain(down))
}

/// Seeded connected G(n, p): a random recursive tree plus extra edges.
fn random_connected(n: usize, p: f64, seed: u64) -> Graph {
    let mut rng = TestRng::for_case(seed);
    let mut b = GraphBuilder::new(n);
    let mut tree_edge = vec![usize::MAX; n];
    for (v, parent) in tree_edge.iter_mut().enumerate().skip(1) {
        *parent = rng.below(0, v as u64) as usize;
        b.add_edge_unchecked(*parent, v).unwrap();
    }
    for u in 0..n {
        for (v, &parent) in tree_edge.iter().enumerate().skip(u + 1) {
            if parent != u && rng.bernoulli(p) {
                b.add_edge_unchecked(u, v).unwrap();
            }
        }
    }
    b.build()
}

/// Seeded unit-disk field on `n` points of the unit square: vertices
/// within distance `reach` are adjacent, and `reach` grows by a quarter
/// until the field is connected.
fn unit_disk(n: usize, mut reach: f64, seed: u64) -> Graph {
    let mut rng = TestRng::for_case(seed);
    let mut coord = || rng.below(0, 1 << 20) as f64 / (1u64 << 20) as f64;
    let points: Vec<(f64, f64)> = (0..n).map(|_| (coord(), coord())).collect();
    loop {
        let g = edges_graph(
            n,
            (0..n)
                .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
                .filter(|&(u, v)| {
                    let (dx, dy) = (points[u].0 - points[v].0, points[u].1 - points[v].1);
                    dx * dx + dy * dy <= reach * reach
                }),
        );
        if is_connected(&g) {
            return g;
        }
        reach *= 1.25;
    }
}

/// `radius` (the pruned search) against the full eccentricity sweep.
fn radius_matches_sweep(g: &Graph) -> Result<(), String> {
    prop_assert_eq!(radius(g), distance_metrics(g).map(|m| m.radius));
    Ok(())
}

#[test]
fn radius_matches_the_full_sweep_on_structured_graphs() {
    let mut graphs = vec![star(300, 0), star(300, 299), grid(1, 300), grid(17, 17)];
    for n in [1usize, 2, 3, 63, 64, 65, 129, 200, 300] {
        graphs.extend([path(n), star(n, n / 2)]);
        if n >= 3 {
            graphs.push(cycle(n));
        }
    }
    for (rows, cols) in [(2, 2), (3, 50), (5, 7), (6, 6), (9, 9), (12, 25), (15, 20)] {
        graphs.push(grid(rows, cols));
    }
    for g in &graphs {
        radius_matches_sweep(g).unwrap();
    }
}

/// Unit-disk fields, the churn executor's topology, from sparse (long
/// paths, many candidate centers) to dense.
#[test]
fn radius_matches_the_full_sweep_on_unit_disk_fields() {
    for (n, reach) in [
        (12, 0.3),
        (72, 0.2),
        (72, 0.35),
        (150, 0.12),
        (256, 0.09),
        (300, 0.08),
    ] {
        for seed in 0..3 {
            let g = unit_disk(n, reach, seed + n as u64);
            radius_matches_sweep(&g).unwrap_or_else(|e| panic!("n = {n}, seed {seed}: {e}"));
        }
    }
}

#[test]
fn radius_errors_match_the_full_sweep() {
    for g in [
        GraphBuilder::new(0).build(),
        edges_graph(4, [(0, 1), (2, 3)]),
        edges_graph(3, [(1, 2)]),
        edges_graph(130, (1..129).map(|v| (v - 1, v))),
    ] {
        radius_matches_sweep(&g).unwrap();
        assert!(radius(&g).is_err());
    }
}

#[test]
fn spanning_tree_matches_scalar_sweep_on_batch_edges() {
    // n on both sides of the 64-root batch boundary; path and star centers
    // put the early exit mid-batch (path(65) at root 32, path(129) at root
    // 64, star(129, 100) at root 100), cycles never exit early.
    for n in [1usize, 2, 63, 64, 65, 128, 129] {
        let mut graphs = vec![path(n), star(n, n / 2), star(n, n - 1), complete(n.min(40))];
        if n >= 3 {
            graphs.push(cycle(n));
        }
        if n >= 2 {
            graphs.push(random_connected(n, 0.05, n as u64));
        }
        for g in graphs {
            check_against_scalar_sweep(&g).unwrap();
        }
    }
    for g in [
        star(129, 100),
        grid(5, 7),
        grid(6, 6),
        grid(9, 9),
        grid(3, 50),
        grid(12, 12),
    ] {
        check_against_scalar_sweep(&g).unwrap();
    }
}

#[test]
fn spanning_tree_matches_scalar_sweep_on_random_graphs() {
    for (n, p, seed) in [
        (70usize, 0.05, 1u64),
        (130, 0.03, 2),
        (200, 0.02, 3),
        (257, 0.015, 4),
        (300, 0.01, 5),
        (150, 0.2, 6),
    ] {
        check_against_scalar_sweep(&random_connected(n, p, seed)).unwrap();
    }
}

#[test]
fn spanning_tree_errors_match_scalar_sweep() {
    // Disconnected at both ends of a batch, and the empty graph.
    for g in [
        edges_graph(4, [(0, 1), (2, 3)]),
        edges_graph(130, (1..129).map(|v| (v - 1, v))),
        GraphBuilder::new(1).build(),
        GraphBuilder::new(0).build(),
    ] {
        check_against_scalar_sweep(&g).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bfs_matches_floyd_warshall(g in arb_graph(9)) {
        let oracle = all_pairs_oracle(&g);
        for (s, row) in oracle.iter().enumerate() {
            let r = bfs(&g, s);
            for (v, &dist) in row.iter().enumerate() {
                let expected = if dist >= u32::MAX / 4 { UNREACHABLE } else { dist };
                prop_assert_eq!(r.dist[v], expected, "dist({}, {})", s, v);
            }
        }
    }

    #[test]
    fn bfs_paths_are_shortest_and_valid(g in arb_connected(10)) {
        let r = bfs(&g, 0);
        for v in 0..g.n() {
            let p = r.path_to(v).unwrap();
            prop_assert_eq!(p.len() as u32, r.dist[v] + 1);
            prop_assert_eq!(p[0], 0);
            prop_assert_eq!(*p.last().unwrap(), v);
            for w in p.windows(2) {
                prop_assert!(g.has_edge(w[0], w[1]));
            }
        }
    }

    #[test]
    fn radius_diameter_relation(g in arb_connected(10)) {
        let m = distance_metrics(&g).unwrap();
        prop_assert!(m.radius <= m.diameter);
        prop_assert!(m.diameter <= 2 * m.radius);
        for &c in &m.center {
            prop_assert_eq!(m.ecc[c], m.radius);
        }
    }

    #[test]
    fn radius_matches_the_full_sweep(g in arb_connected(40)) {
        radius_matches_sweep(&g)?;
    }

    #[test]
    fn spanning_tree_height_equals_radius(g in arb_connected(10)) {
        let m = distance_metrics(&g).unwrap();
        let t = min_depth_spanning_tree(&g, ChildOrder::ById).unwrap();
        prop_assert_eq!(t.height(), m.radius);
        prop_assert!(t.is_spanning_tree_of(&g));
    }

    #[test]
    fn spanning_tree_matches_scalar_sweep_oracle(g in arb_graph(12)) {
        check_against_scalar_sweep(&g)?;
    }

    #[test]
    fn articulation_points_match_deletion_oracle(g in arb_graph(9)) {
        let (_, base) = components(&g);
        let mut expected = Vec::new();
        for v in 0..g.n() {
            let mut b = GraphBuilder::new(g.n());
            for (x, y) in g.edges() {
                if x != v && y != v {
                    b.add_edge_unchecked(x, y).unwrap();
                }
            }
            let (_, k) = components(&b.build());
            if k - 1 > base - (g.degree(v) == 0) as usize {
                expected.push(v);
            }
        }
        prop_assert_eq!(articulation_points(&g), expected);
    }

    #[test]
    fn rooted_tree_invariants(parents in (2usize..20).prop_flat_map(|n| {
        let ps: Vec<BoxedStrategy<u32>> = (1..n).map(|i| (0..i as u32).boxed()).collect();
        ps.prop_map(move |v| {
            let mut parent = vec![NO_PARENT; n];
            for (i, p) in v.into_iter().enumerate() {
                parent[i + 1] = p;
            }
            parent
        })
    })) {
        let t = RootedTree::from_parents(0, &parents).unwrap();
        let n = t.n();
        // Labels are a permutation; label >= level; ranges nest.
        let mut seen = vec![false; n];
        for v in 0..n {
            let l = t.label(v) as usize;
            prop_assert!(!seen[l]);
            seen[l] = true;
            prop_assert!(t.label(v) >= t.level(v));
            let (i, j) = t.subtree_range(v);
            prop_assert!(i <= j);
            prop_assert_eq!(t.subtree_size(v) as u32, j - i + 1);
            if let Some(p) = t.parent(v) {
                let (pi, pj) = t.subtree_range(p);
                prop_assert!(pi < i && j <= pj, "child range inside parent");
            }
        }
        // Round trip through the edge graph preserves the spanning property.
        let g = t.to_graph();
        prop_assert_eq!(g.m(), n - 1);
        prop_assert!(is_connected(&g));
        prop_assert!(t.is_spanning_tree_of(&g));
    }

    #[test]
    fn components_partition(g in arb_graph(10)) {
        let (comp, k) = components(&g);
        for (u, v) in g.edges() {
            prop_assert_eq!(comp[u], comp[v]);
        }
        let max = comp.iter().copied().max().map(|m| m as usize + 1).unwrap_or(0);
        prop_assert_eq!(max, k);
        prop_assert_eq!(is_connected(&g), k <= 1);
    }
}
