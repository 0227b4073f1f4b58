//! Differential acceptance of the bitset simulation kernel: on every
//! reference instance (and under proptest, on random admissible and
//! sabotaged schedules), [`SimKernel`] over a [`FlatSchedule`] must be
//! *bit-identical* to the oracle [`Simulator`] — same hold sets after
//! every round, same completion round, same final outcome, the same
//! rejection (same `ModelError`) of the same invalid schedules, and the
//! same loss log, residual, and end state under seeded fault plans. The
//! kernel's per-round probes match probes counted by hand from the oracle,
//! and the lossy provenance walk under no faults matches the strict one.

use gossip_core::{concurrent_updown, tree_origins, GossipPlanner};
use gossip_graph::Graph;
use gossip_model::{
    inject_fault, trace_gossip, trace_gossip_lossy, CommModel, Fault, FaultPlan, FlatSchedule,
    RoundProbe, Schedule, SimKernel, Simulator,
};
use gossip_telemetry::NoopRecorder;
use gossip_workloads::{fig4_graph, fig5_tree, n1_ring, petersen, random_connected};
use proptest::prelude::*;

/// One instance of the differential suite: a graph, a gossip schedule for
/// it, and the origin table the schedule assumes.
struct Instance {
    name: &'static str,
    g: Graph,
    schedule: Schedule,
    origins: Vec<usize>,
}

fn planned(name: &'static str, g: Graph) -> Instance {
    let plan = GossipPlanner::new(&g).unwrap().plan().unwrap();
    Instance {
        name,
        g,
        schedule: plan.schedule,
        origins: plan.origin_of_message,
    }
}

/// The paper's named instances plus seeded G(n, p) graphs.
fn instances() -> Vec<Instance> {
    let fig5 = fig5_tree();
    let mut v = vec![
        planned("petersen", petersen()),
        planned("n1-ring", n1_ring(11)),
        planned("fig4", fig4_graph()),
        Instance {
            name: "fig5",
            g: fig5.to_graph(),
            schedule: concurrent_updown(&fig5),
            origins: tree_origins(&fig5),
        },
    ];
    for (n, p, seed) in [(24, 0.2, 7), (64, 0.1, 42)] {
        v.push(planned("gnp", random_connected(n, p, seed)));
    }
    v
}

/// Asserts that every processor's hold set matches between the two
/// engines.
fn assert_same_holds(name: &str, round: usize, sim: &Simulator, k: &SimKernel) {
    for p in 0..k.hold_bitsets().len() {
        assert_eq!(
            sim.holds(p),
            &k.hold_bitset(p),
            "{name}: hold set of processor {p} diverged after round {round}"
        );
    }
}

/// Round-for-round lockstep on every reference instance: after each round
/// the hold sets are identical, and the final outcomes (completion round
/// included) are equal.
#[test]
fn lockstep_round_for_round_on_reference_instances() {
    for inst in instances() {
        let Instance {
            name,
            g,
            schedule,
            origins,
        } = &inst;
        let flat = FlatSchedule::from_schedule(schedule);
        let mut sim = Simulator::with_origins(g, CommModel::Multicast, origins).unwrap();
        let mut k = SimKernel::with_origins(g, CommModel::Multicast, origins).unwrap();
        let mut sim_completion = None;
        let mut k_completion = None;
        for t in 0..schedule.makespan() {
            sim.step(&schedule.rounds[t]).unwrap();
            k.step_round(&flat, t).unwrap();
            assert_same_holds(name, t, &sim, &k);
            assert_eq!(
                sim.gossip_complete(),
                k.gossip_complete(),
                "{name}: completion flag diverged after round {t}"
            );
            if sim.gossip_complete() && sim_completion.is_none() {
                sim_completion = Some(t + 1);
            }
            if k.gossip_complete() && k_completion.is_none() {
                k_completion = Some(t + 1);
            }
        }
        assert_eq!(sim_completion, k_completion, "{name}: completion round");
        assert!(sim_completion.is_some(), "{name}: schedule must complete");
        assert_eq!(sim.known_pairs(), k.known_pairs(), "{name}");
        assert_eq!(sim.coverage(), k.coverage(), "{name}");
    }
}

/// Whole-run parity (including `SimOutcome` equality) through `run`, and
/// through the word-parallel validator + prevalidated fast path.
#[test]
fn full_runs_agree_on_reference_instances() {
    for inst in instances() {
        let Instance {
            name,
            g,
            schedule,
            origins,
        } = &inst;
        let flat = FlatSchedule::from_schedule(schedule);
        let mut sim = Simulator::with_origins(g, CommModel::Multicast, origins).unwrap();
        let oracle = sim.run(schedule).unwrap();
        let mut k = SimKernel::with_origins(g, CommModel::Multicast, origins).unwrap();
        let strict = k.run(&flat).unwrap();
        assert_eq!(oracle, strict, "{name}: strict kernel outcome");
        assert_same_holds(name, schedule.makespan(), &sim, &k);

        flat.validate(g, CommModel::Multicast, origins.len())
            .unwrap_or_else(|e| panic!("{name}: structural validation rejected a valid plan: {e}"));
        let mut k2 = SimKernel::with_origins(g, CommModel::Multicast, origins).unwrap();
        let fast = k2.run_prevalidated(&flat).unwrap();
        assert_eq!(oracle, fast, "{name}: prevalidated kernel outcome");
        assert_same_holds(name, schedule.makespan(), &sim, &k2);
    }
}

/// Runs both engines on a (possibly sabotaged) schedule and demands the
/// exact same verdict: equal outcomes and end states when accepted, the
/// identical `ModelError` when rejected.
fn assert_same_verdict(name: &str, g: &Graph, schedule: &Schedule, origins: &[usize]) {
    let flat = FlatSchedule::from_schedule(schedule);
    let mut sim = Simulator::with_origins(g, CommModel::Multicast, origins).unwrap();
    let oracle = sim.run(schedule);
    let mut k = SimKernel::with_origins(g, CommModel::Multicast, origins).unwrap();
    let kernel = k.run(&flat);
    match (&oracle, &kernel) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a, b, "{name}: outcomes diverged");
            assert_same_holds(name, schedule.makespan(), &sim, &k);
        }
        (Err(a), Err(b)) => assert_eq!(a, b, "{name}: errors diverged"),
        _ => panic!("{name}: verdicts diverged: oracle {oracle:?} vs kernel {kernel:?}"),
    }
}

/// Every fault kind, injected at several seeds into every reference
/// instance, draws the identical verdict (and, for rejections, the
/// byte-identical error) from both engines.
#[test]
fn sabotaged_schedules_rejected_identically() {
    let mut rejected = 0usize;
    for inst in instances() {
        for &fault in Fault::all() {
            for seed in 0..4u64 {
                let Some(bad) = inject_fault(&inst.schedule, fault, &inst.g, seed) else {
                    continue;
                };
                assert_same_verdict(inst.name, &inst.g, &bad, &inst.origins);
                let mut sim =
                    Simulator::with_origins(&inst.g, CommModel::Multicast, &inst.origins).unwrap();
                if sim.run(&bad).is_err() {
                    rejected += 1;
                }
            }
        }
    }
    assert!(
        rejected > 20,
        "fault injection produced too few rejections ({rejected}) to be meaningful"
    );
}

/// Seeded lossy execution: same loss log (order included), same outcome,
/// same residual, same end state.
#[test]
fn lossy_runs_agree_on_reference_instances() {
    let plans = [
        FaultPlan::new(3).with_loss_rate(0.25),
        FaultPlan::new(9).with_loss_rate(0.1).with_crash(2, 4),
        FaultPlan::new(1)
            .with_loss_rate(0.3)
            .with_crash(0, 2)
            .with_outage(1, 3, 0, 5),
    ];
    for inst in instances() {
        let flat = FlatSchedule::from_schedule(&inst.schedule);
        for plan in &plans {
            let mut sim =
                Simulator::with_origins(&inst.g, CommModel::Multicast, &inst.origins).unwrap();
            let mut sim_lost = Vec::new();
            let oracle = sim.run_lossy(&inst.schedule, plan, &mut sim_lost).unwrap();
            let mut k =
                SimKernel::with_origins(&inst.g, CommModel::Multicast, &inst.origins).unwrap();
            let mut k_lost = Vec::new();
            let kernel = k
                .run_lossy(&flat, plan, &mut k_lost, &NoopRecorder)
                .unwrap();
            assert_eq!(oracle, kernel, "{}: lossy outcome", inst.name);
            assert_eq!(sim_lost, k_lost, "{}: loss log", inst.name);
            assert_eq!(
                sim.residual(plan),
                k.residual(plan),
                "{}: residual",
                inst.name
            );
            assert_same_holds(inst.name, inst.schedule.makespan(), &sim, &k);
        }
    }
}

/// The probed replay is a strict replay: same outcome as `run`, and per
/// round the traffic and coverage an oracle [`Simulator::step`] shows.
#[test]
fn probed_runs_match_oracle_probes_on_reference_instances() {
    for inst in instances() {
        let Instance {
            name,
            g,
            schedule,
            origins,
        } = &inst;
        let flat = FlatSchedule::from_schedule(schedule);
        let mut k = SimKernel::with_origins(g, CommModel::Multicast, origins).unwrap();
        let (probed, probes) = k.run_probed(&flat, &NoopRecorder).unwrap();
        let mut k2 = SimKernel::with_origins(g, CommModel::Multicast, origins).unwrap();
        assert_eq!(probed, k2.run(&flat).unwrap(), "{name}: probed outcome");

        let mut sim = Simulator::with_origins(g, CommModel::Multicast, origins).unwrap();
        let want: Vec<RoundProbe> = schedule.rounds[..schedule.makespan()]
            .iter()
            .map(|round| {
                sim.step(round).unwrap();
                let deliveries: usize = round.transmissions.iter().map(|tx| tx.to.len()).sum();
                RoundProbe {
                    round: sim.time() - 1,
                    sent: round.transmissions.len(),
                    deliveries,
                    max_fanout: round
                        .transmissions
                        .iter()
                        .map(|tx| tx.to.len())
                        .max()
                        .unwrap_or(0),
                    idle_receivers: g.n() - deliveries,
                    coverage: sim.coverage(),
                }
            })
            .collect();
        assert_eq!(probes, want, "{name}: probes");
    }
}

/// Under the empty fault plan the lossy provenance walk records exactly
/// the strict trace, and every scheduled delivery lands.
#[test]
fn lossless_provenance_matches_strict_trace_on_reference_instances() {
    for inst in instances() {
        let Instance {
            name,
            g,
            schedule,
            origins,
        } = &inst;
        let (_, strict) = trace_gossip(g, schedule, origins, CommModel::Multicast).unwrap();
        let (out, lossy, lost) = trace_gossip_lossy(
            g,
            schedule,
            origins,
            CommModel::Multicast,
            &FaultPlan::none(),
        )
        .unwrap();
        assert_eq!(lossy.to_value(None), strict.to_value(None), "{name}: trace");
        assert!(lost.is_empty(), "{name}: losses under no faults");
        assert_eq!(
            out.delivered,
            schedule.stats().deliveries,
            "{name}: delivered"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random admissible schedules (planned over seeded G(n, p)) are
    /// accepted by both engines with identical outcomes and end states.
    #[test]
    fn random_admissible_schedules_agree((n, seed) in (5usize..=20, 0u64..10_000)) {
        let g = random_connected(n, 0.3, seed);
        let plan = GossipPlanner::new(&g).unwrap().plan().unwrap();
        assert_same_verdict("gnp-prop", &g, &plan.schedule, &plan.origin_of_message);
    }

    /// Randomly sabotaged schedules draw the identical verdict — accept
    /// or the same error — from both engines.
    #[test]
    fn random_sabotage_draws_identical_verdicts(
        ((n, seed), (fault_idx, fault_seed)) in (
            (5usize..=16, 0u64..10_000),
            (0usize..5, 0u64..10_000),
        )
    ) {
        let g = random_connected(n, 0.3, seed);
        let plan = GossipPlanner::new(&g).unwrap().plan().unwrap();
        let fault = Fault::all()[fault_idx % Fault::all().len()];
        if let Some(bad) = inject_fault(&plan.schedule, fault, &g, fault_seed) {
            assert_same_verdict("gnp-sabotage", &g, &bad, &plan.origin_of_message);
        }
    }

    /// Random seeded fault plans: the lossy kernel reproduces the oracle's
    /// loss log, outcome, and residual exactly.
    #[test]
    fn random_lossy_runs_agree(
        ((n, seed), (loss_permille, fault_seed)) in (
            (5usize..=16, 0u64..10_000),
            (0u64..=400, 0u64..10_000),
        )
    ) {
        let g = random_connected(n, 0.3, seed);
        let plan = GossipPlanner::new(&g).unwrap().plan().unwrap();
        let fp = FaultPlan::new(fault_seed).with_loss_rate(loss_permille as f64 / 1000.0);
        let flat = FlatSchedule::from_schedule(&plan.schedule);
        let mut sim = Simulator::with_origins(&g, CommModel::Multicast, &plan.origin_of_message).unwrap();
        let mut sim_lost = Vec::new();
        let oracle = sim.run_lossy(&plan.schedule, &fp, &mut sim_lost).unwrap();
        let mut k = SimKernel::with_origins(&g, CommModel::Multicast, &plan.origin_of_message).unwrap();
        let mut k_lost = Vec::new();
        let kernel = k.run_lossy(&flat, &fp, &mut k_lost, &NoopRecorder).unwrap();
        prop_assert_eq!(oracle, kernel);
        prop_assert_eq!(sim_lost, k_lost);
        prop_assert_eq!(sim.residual(&fp), k.residual(&fp));
    }
}
