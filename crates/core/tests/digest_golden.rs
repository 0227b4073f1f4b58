//! Golden schedule digests. `FlatSchedule::digest` is stamped into every
//! `.gfr` header and compared by `gossip diff` and `--planner both`, so its
//! value is part of the on-disk format: a faster hasher may change how the
//! value is computed, never the value itself.
//!
//! The recovery and churn goldens pin the executors' combined transcripts,
//! so a faster completion planner or splice must keep every round of them.

use gossip_core::{ChurnExecutor, GossipPlanner, RecoveryReport, ResilientExecutor};
use gossip_graph::{radius, Graph};
use gossip_model::{ChurnPlan, FaultPlan, FlatSchedule};
use gossip_workloads::{random_connected, unit_disk_connected};

fn ring(n: usize) -> Graph {
    Graph::from_edges(n, &(0..n).map(|i| (i, (i + 1) % n)).collect::<Vec<_>>()).unwrap()
}

#[test]
fn c8_ring_schedule_digest_is_pinned() {
    let plan = GossipPlanner::new(&ring(8)).unwrap().plan().unwrap();
    let flat = FlatSchedule::from_schedule(&plan.schedule);
    assert_eq!(flat.digest(), 0xeeba_d6c0_0211_a68e);
}

#[test]
fn fast_planner_gnp512_schedule_digest_is_pinned() {
    let n = 512;
    let g = random_connected(n, 18.0 / n as f64, 7);
    let plan = GossipPlanner::new(&g).unwrap().plan_fast().unwrap();
    assert_eq!(plan.schedule.digest(), 0x5ba3_359f_2119_dde6);
}

/// The recovery golden's input: a planned G(192, 18/n), the benchmark's
/// `recover` shape.
fn recover_transcript(faults: &FaultPlan) -> (u64, RecoveryReport) {
    let n = 192;
    let g = random_connected(n, 18.0 / n as f64, 7);
    let plan = GossipPlanner::new(&g).unwrap().plan().unwrap();
    let report = ResilientExecutor::new(&g, &plan.schedule, &plan.origin_of_message, faults)
        .run()
        .unwrap();
    let digest = FlatSchedule::from_schedule(&report.transcript).digest();
    (digest, report)
}

#[test]
fn recovery_transcript_digest_under_loss_is_pinned() {
    let (digest, report) = recover_transcript(&FaultPlan::new(1).with_loss_rate(0.05));
    assert_eq!(digest, 0x9d7b_9513_88ad_9411);
    assert_eq!(report.epochs.len(), 5);
    assert_eq!(report.total_rounds, 254);
    assert_eq!(report.retransmissions, 7151);
    assert!(report.recovered);
}

#[test]
fn recovery_transcript_digest_under_loss_and_crashes_is_pinned() {
    let faults = FaultPlan::new(3)
        .with_loss_rate(0.1)
        .with_crash(5, 0)
        .with_crash(40, 0)
        .with_crash(77, 2)
        .with_crash(150, 30);
    let (digest, report) = recover_transcript(&faults);
    assert_eq!(digest, 0x1dc4_c99d_6dca_a0e1);
    assert_eq!(report.epochs.len(), 7);
    assert_eq!(report.total_rounds, 432);
    assert_eq!(report.unrecoverable.len(), 752);
}

#[test]
fn churn_transcript_digests_are_pinned() {
    let (g, _, _) = unit_disk_connected(72, 0.13, 7);
    assert_eq!(radius(&g).unwrap(), 5);
    for (seed, want) in [(2, 0x6407_1a78_4e62_09df), (5, 0xd518_3eb4_c7b3_50a8)] {
        let churn = ChurnPlan::generate(&g, 0.05, seed, 75);
        let report = ChurnExecutor::new(&g, &churn).run().unwrap();
        let digest = FlatSchedule::from_schedule(&report.transcript).digest();
        assert_eq!(digest, want, "churn seed {seed}");
    }
}
