//! Completion planner equivalence. `plan_completion` counts, per sender,
//! what its free neighbours miss; the oracle below is the planner it
//! replaced, which filters the neighbour list once per held message. Both
//! must return the same `ResidualPlan` — schedule, `covered` and
//! `abandoned` — over random connected graphs, hold sets, alive masks,
//! extinct messages and message counts other than `n`. Every completion is
//! also replayed strictly from the holds it was planned from, so a planner
//! that sent an unheld message or broke a model rule would fail here
//! rather than read as a loss in the executors' lossy replay.
//!
//! `completion_deliveries`, the closed-form size of a completion, must
//! count exactly the deliveries (and covered pairs) of every plan here,
//! including residuals whose alive subgraph falls into several components.

use gossip_core::{completion_deliveries, plan_completion, ResidualPlan, ResilientExecutor};
use gossip_graph::Graph;
use gossip_model::{BitSet, CommModel, FaultPlan, FlatSchedule, Schedule, SimKernel, Transmission};
use gossip_telemetry::NoopRecorder;
use gossip_workloads::{complete, random_connected, star};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The original greedy planner: for each surviving sender and each message
/// it holds, in ascending order, filter the neighbour list for survivors
/// that are still free this round and miss the message, keeping the first
/// message with the strictly largest destination set.
fn oracle_plan_completion(g: &Graph, holds: &[BitSet], alive: &[bool]) -> ResidualPlan {
    let n = g.n();
    assert_eq!(holds.len(), n, "hold sets for a different processor count");
    assert_eq!(alive.len(), n, "alive mask for a different processor count");
    let n_msgs = holds.first().map_or(0, BitSet::capacity);
    let mut work: Vec<BitSet> = holds.to_vec();
    let missing_pairs = |work: &[BitSet]| -> Vec<(u32, usize)> {
        let mut out = Vec::new();
        for (v, h) in work.iter().enumerate() {
            if !alive[v] {
                continue;
            }
            for m in 0..n_msgs {
                if !h.contains(m) {
                    out.push((m as u32, v));
                }
            }
        }
        out
    };
    let initially_missing = missing_pairs(&work);

    let mut schedule = Schedule::new(n);
    let mut recv_used = vec![false; n];
    let mut t = 0usize;
    loop {
        let mut round_txs: Vec<Transmission> = Vec::new();
        recv_used.iter_mut().for_each(|r| *r = false);
        for v in 0..n {
            if !alive[v] {
                continue;
            }
            let mut best: Option<(usize, Vec<usize>)> = None;
            for m in work[v].iter() {
                let dests: Vec<usize> = g
                    .neighbors(v)
                    .filter(|&d| alive[d] && !recv_used[d] && !work[d].contains(m))
                    .collect();
                if !dests.is_empty() && best.as_ref().is_none_or(|(_, b)| dests.len() > b.len()) {
                    best = Some((m, dests));
                }
            }
            if let Some((m, dests)) = best {
                for &d in &dests {
                    recv_used[d] = true;
                }
                round_txs.push(Transmission::new(m as u32, v, dests));
            }
        }
        if round_txs.is_empty() {
            break;
        }
        for tx in &round_txs {
            for &d in &tx.to {
                work[d].insert(tx.msg as usize);
            }
            schedule.add_transmission(t, tx.clone());
        }
        t += 1;
    }

    let abandoned = missing_pairs(&work);
    let covered = initially_missing
        .into_iter()
        .filter(|p| !abandoned.contains(p))
        .collect();
    ResidualPlan {
        schedule,
        covered,
        abandoned,
    }
}

/// Fails unless the two plans are equal field by field.
fn same_plan(got: &ResidualPlan, want: &ResidualPlan) -> Result<(), String> {
    prop_assert_eq!(&got.schedule, &want.schedule);
    prop_assert_eq!(&got.covered, &want.covered);
    prop_assert_eq!(&got.abandoned, &want.abandoned);
    Ok(())
}

/// Fails unless `completion_deliveries` counts what `plan`, planned from
/// the same input, delivers: its schedule's deliveries and its covered
/// pairs.
fn counted(g: &Graph, holds: &[BitSet], alive: &[bool], plan: &ResidualPlan) -> Result<(), String> {
    let count = completion_deliveries(g, holds, alive);
    prop_assert_eq!(count, plan.schedule.stats().deliveries);
    prop_assert_eq!(count, plan.covered.len());
    Ok(())
}

/// Number of connected components of the subgraph the alive processors
/// induce.
fn alive_components(g: &Graph, alive: &[bool]) -> usize {
    let mut seen = vec![false; g.n()];
    let mut count = 0;
    for s in (0..g.n()).filter(|&s| alive[s]) {
        if seen[s] {
            continue;
        }
        count += 1;
        seen[s] = true;
        let mut stack = vec![s];
        while let Some(v) = stack.pop() {
            for d in g.neighbors(v) {
                if alive[d] && !seen[d] {
                    seen[d] = true;
                    stack.push(d);
                }
            }
        }
    }
    count
}

/// Replays `plan` strictly from `holds` and checks where it lands: the
/// final holds are the starting holds plus `covered`, so dead processors
/// are untouched and every abandoned pair is still missing.
fn replays_strictly(
    g: &Graph,
    holds: &[BitSet],
    alive: &[bool],
    plan: &ResidualPlan,
) -> Result<(), String> {
    let mut sim = SimKernel::with_holds(g, CommModel::Multicast, holds, 0)
        .map_err(|e| format!("with_holds: {e}"))?;
    sim.run(&FlatSchedule::from_schedule(&plan.schedule))
        .map_err(|e| format!("strict replay of the completion: {e}"))?;
    let end = sim.hold_bitsets();
    let mut want = holds.to_vec();
    for &(m, v) in &plan.covered {
        prop_assert!(alive[v], "covered pair ({m}, {v}) at a dead processor");
        prop_assert!(
            want[v].insert(m as usize),
            "covered pair ({m}, {v}) was held"
        );
    }
    prop_assert_eq!(&end, &want);
    for (v, h) in holds.iter().enumerate().filter(|&(v, _)| !alive[v]) {
        prop_assert_eq!(&end[v], h, "dead processor {} changed", v);
    }
    for &(m, v) in &plan.abandoned {
        prop_assert!(
            !end[v].contains(m as usize),
            "abandoned ({m}, {v}) delivered"
        );
    }
    Ok(())
}

/// One random residual: a connected graph on `n` vertices, hold sets over
/// a message count that may differ from `n`, an alive mask and a set of
/// messages extinct among the survivors.
fn random_residual(n: usize, seed: u64) -> (Graph, Vec<BitSet>, Vec<bool>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let p = [1.5 / n as f64, 4.0 / n as f64, 0.08, 0.2, 0.6][rng.gen_range(0..5usize)].min(1.0);
    let g = random_connected(n, p, rng.gen());
    let n_msgs = match rng.gen_range(0..3u32) {
        0 => n,
        1 => rng.gen_range(0..150usize),
        _ => [63, 64, 65, 127, 128, 129][rng.gen_range(0..6usize)],
    };
    let density = match rng.gen_range(0..3u32) {
        0 => [0.0, 0.02, 0.5, 0.95, 1.0][rng.gen_range(0..5usize)],
        _ => rng.gen::<f64>(),
    };
    let dead_share = [0.0, 0.0, 0.1, 0.3][rng.gen_range(0..4usize)];
    let extinct_share = [0.0, 0.0, 0.05, 0.3][rng.gen_range(0..4usize)];
    let alive: Vec<bool> = (0..n).map(|_| !rng.gen_bool(dead_share)).collect();
    let mut holds: Vec<BitSet> = (0..n)
        .map(|_| {
            let mut h = BitSet::new(n_msgs);
            for m in 0..n_msgs {
                if rng.gen_bool(density) {
                    h.insert(m);
                }
            }
            h
        })
        .collect();
    // Extinct messages: no survivor holds them, though a dead processor
    // may.
    for m in 0..n_msgs {
        if rng.gen_bool(extinct_share) {
            for v in (0..n).filter(|&v| alive[v]) {
                let mut words = holds[v].words().to_vec();
                words[m / 64] &= !(1u64 << (m % 64));
                holds[v] = BitSet::from_words(words, n_msgs);
            }
        }
    }
    (g, holds, alive)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    fn planner_matches_oracle_and_replays_strictly(n in 1usize..=140, seed in 0u64..1 << 48) {
        let (g, holds, alive) = random_residual(n, seed);
        let got = plan_completion(&g, &holds, &alive);
        same_plan(&got, &oracle_plan_completion(&g, &holds, &alive))?;
        replays_strictly(&g, &holds, &alive, &got)?;
        counted(&g, &holds, &alive, &got)?;
    }
}

/// The proptest's residuals do reach alive subgraphs of several
/// components, where the count must take one union per component.
#[test]
fn random_residuals_include_split_alive_subgraphs() {
    let split = (0..64u64)
        .filter(|&seed| {
            let (g, _, alive) = random_residual(60, seed);
            alive_components(&g, &alive) > 1
        })
        .count();
    assert!(split >= 4, "only {split} of 64 residuals split");
}

/// Residuals shaped like the recovery executor's: the holds a planned
/// schedule leaves after a lossy run with crashes, then after each repair
/// epoch, planned at every epoch by both planners.
#[test]
fn executor_shaped_residuals_match_the_oracle() {
    for (n, seed) in [(40, 1u64), (97, 2), (130, 3)] {
        let g = random_connected(n, 18.0 / n as f64, seed);
        let plan = gossip_core::GossipPlanner::new(&g).unwrap().plan().unwrap();
        let faults = FaultPlan::new(seed)
            .with_loss_rate(0.1)
            .with_crash(n / 3, 0)
            .with_crash(n / 2, 4);
        let mut sim =
            SimKernel::with_origins(&g, CommModel::Multicast, &plan.origin_of_message).unwrap();
        let mut lost = Vec::new();
        sim.run_lossy(
            &FlatSchedule::from_schedule(&plan.schedule),
            &faults,
            &mut lost,
            &NoopRecorder,
        )
        .unwrap();
        let mut epochs = 0;
        while sim.residual_count(&faults) > 0 && epochs < 16 {
            let alive = faults.alive_at(n, sim.time());
            let holds = sim.hold_bitsets();
            let got = plan_completion(&g, &holds, &alive);
            same_plan(&got, &oracle_plan_completion(&g, &holds, &alive)).unwrap();
            replays_strictly(&g, &holds, &alive, &got).unwrap();
            counted(&g, &holds, &alive, &got).unwrap();
            if got.schedule.makespan() == 0 {
                break;
            }
            sim.run_lossy(
                &FlatSchedule::from_schedule(&got.schedule),
                &faults,
                &mut lost,
                &NoopRecorder,
            )
            .unwrap();
            epochs += 1;
        }
        assert!(epochs > 0, "n = {n}: the faults left nothing to repair");
        // The executor reaches the same end state through the same plans.
        let report = ResilientExecutor::new(&g, &plan.schedule, &plan.origin_of_message, &faults)
            .run()
            .unwrap();
        assert_eq!(report.epochs.len(), epochs + 1, "n = {n}");
        assert_eq!(report.total_rounds, sim.time(), "n = {n}");
    }
}

/// Degenerate residuals: no messages at all, a lone processor, nothing
/// held, everything held, and nobody alive.
#[test]
fn degenerate_residuals_match_the_oracle() {
    let path = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
    let lone = Graph::from_edges(1, &[]).unwrap();
    let full = |cap: usize| {
        let mut h = BitSet::new(cap);
        (0..cap).for_each(|m| {
            h.insert(m);
        });
        h
    };
    let cases: Vec<(&Graph, Vec<BitSet>, Vec<bool>)> = vec![
        (&path, vec![BitSet::new(0); 3], vec![true; 3]),
        (&lone, vec![BitSet::new(1)], vec![true]),
        (&lone, vec![full(70)], vec![true]),
        (&path, vec![BitSet::new(65); 3], vec![true; 3]),
        (&path, vec![full(130); 3], vec![true; 3]),
        (
            &path,
            vec![full(5), BitSet::new(5), full(5)],
            vec![false; 3],
        ),
        (
            &path,
            vec![full(64), BitSet::new(64), BitSet::new(64)],
            vec![true, false, true],
        ),
    ];
    for (g, holds, alive) in cases {
        let got = plan_completion(g, &holds, &alive);
        same_plan(&got, &oracle_plan_completion(g, &holds, &alive)).unwrap();
        replays_strictly(g, &holds, &alive, &got).unwrap();
        counted(g, &holds, &alive, &got).unwrap();
    }
}

/// A path of 9 whose processors 2 and 5 are dead splits into three alive
/// components, {0, 1}, {3, 4} and {6, 7, 8}, each with its own union of
/// holds: a count taking one union over every alive processor would ask
/// the first component for messages only the others hold.
#[test]
fn split_alive_subgraph_counts_one_union_per_component() {
    let g = Graph::from_edges(9, &(1..9).map(|v| (v - 1, v)).collect::<Vec<_>>()).unwrap();
    let alive: Vec<bool> = (0..9).map(|v| v != 2 && v != 5).collect();
    assert_eq!(alive_components(&g, &alive), 3);
    let held: [&[usize]; 9] = [
        &[0],
        &[1, 70],
        &[0, 1, 2, 3, 4, 5, 6, 7, 8],
        &[3],
        &[],
        &[5],
        &[6, 65],
        &[7],
        &[8, 129],
    ];
    let holds: Vec<BitSet> = held
        .iter()
        .map(|ms| {
            let mut h = BitSet::new(130);
            ms.iter().for_each(|&m| {
                h.insert(m);
            });
            h
        })
        .collect();
    // {0, 1} trade {0, 1, 70}: 2 + 1 deliveries; {3, 4}: 1; {6, 7, 8}
    // trade {6, 7, 8, 65, 129}: 3 + 4 + 3.
    assert_eq!(completion_deliveries(&g, &holds, &alive), 3 + 1 + 10);
    let got = plan_completion(&g, &holds, &alive);
    same_plan(&got, &oracle_plan_completion(&g, &holds, &alive)).unwrap();
    replays_strictly(&g, &holds, &alive, &got).unwrap();
    counted(&g, &holds, &alive, &got).unwrap();
}

/// High-degree residuals, where a sender's counts need seven or eight bit
/// planes: processor 0 is adjacent to every other processor and holds all
/// 130 messages. For each winning count `w` it may reach, the others miss
/// messages so that processor 0's counts are: `w` at messages 70 and 129
/// (a tie across words), `w - 1` at message 3, the largest power of two
/// below `w` at message 9, and at most 4 at every seventh message. The
/// maximum thus sits on each side of 32, 64 and 128 as `w` does, smaller
/// counts with the same top bit come first, and every later round plans
/// from what the first one left.
fn high_degree_cases(g: &Graph) {
    const N_MSGS: usize = 130;
    let others = g.n() - 1;
    assert_eq!(g.degree(0), others, "processor 0 must see every other");
    let wins = [31, 32, 33, 63, 64, 65, 127, 128, 129, others];
    for w in wins.into_iter().filter(|&w| w <= others) {
        let top = 1 << (usize::BITS - 1 - (w - 1).leading_zeros());
        let count = |m: usize| match m {
            70 | 129 => w,
            3 => w - 1,
            9 => top,
            _ if m.is_multiple_of(7) => m % 5,
            _ => 0,
        };
        let mut missing = vec![[false; N_MSGS]; g.n()];
        for m in 0..N_MSGS {
            for i in 0..count(m) {
                missing[1 + (m * 13 + i) % others][m] = true;
            }
        }
        let holds: Vec<BitSet> = missing
            .iter()
            .map(|miss| {
                let mut h = BitSet::new(N_MSGS);
                (0..N_MSGS).filter(|&m| !miss[m]).for_each(|m| {
                    h.insert(m);
                });
                h
            })
            .collect();
        let alive = vec![true; g.n()];
        let got = plan_completion(g, &holds, &alive);
        let first = &got.schedule.rounds[0].transmissions[0];
        assert_eq!((first.from, first.msg, first.to.len()), (0, 70, w));
        same_plan(&got, &oracle_plan_completion(g, &holds, &alive)).unwrap();
        replays_strictly(g, &holds, &alive, &got).unwrap();
        counted(g, &holds, &alive, &got).unwrap();
    }
}

#[test]
fn complete_graph_k65_matches_the_oracle() {
    high_degree_cases(&complete(65));
}

#[test]
fn complete_graph_k130_matches_the_oracle() {
    high_degree_cases(&complete(130));
}

#[test]
fn stars_of_64_128_and_200_leaves_match_the_oracle() {
    for leaves in [64, 128, 200] {
        high_degree_cases(&star(leaves + 1));
    }
}

#[test]
#[should_panic(expected = "mixed capacities")]
fn mixed_capacities_are_rejected() {
    let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
    plan_completion(&g, &[BitSet::new(2), BitSet::new(3)], &[true, true]);
}
