//! Golden schedule digests. `FlatSchedule::digest` is stamped into every
//! `.gfr` header and compared by `gossip diff` and `--planner both`, so its
//! value is part of the on-disk format: a faster hasher may change how the
//! value is computed, never the value itself.
//!
//! The recovery and churn goldens pin the executors' combined transcripts,
//! so a faster completion planner or splice must keep every round of them.

use gossip_core::{
    gather_schedule, run_online, run_online_threaded, simple_gossip, telephone_tree_gossip,
    updown_gossip, ChurnExecutor, GossipPlanner, RecoveryReport, ResilientExecutor,
};
use gossip_graph::{min_depth_spanning_tree, radius, ChildOrder, Graph, RootedTree, NO_PARENT};
use gossip_model::{ChurnPlan, FaultPlan, FlatSchedule};
use gossip_workloads::{fig5_tree, random_connected, unit_disk_connected};

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

/// A dense recovery: G(256, 0.5), degree ~128, so each completion sender
/// counts over many free neighbours at once.
#[test]
fn dense_recovery_transcript_digest_is_pinned() {
    let n = 256;
    let g = random_connected(n, 0.5, 7);
    let plan = GossipPlanner::new(&g).unwrap().plan().unwrap();
    let faults = FaultPlan::new(3)
        .with_loss_rate(0.1)
        .with_crash(5, 3)
        .with_crash(9, 40);
    let report = ResilientExecutor::new(&g, &plan.schedule, &plan.origin_of_message, &faults)
        .run()
        .unwrap();
    let digest = FlatSchedule::from_schedule(&report.transcript).digest();
    assert_eq!(digest, 0x04c5_672b_ba93_a597);
    assert_eq!(report.total_rounds, 381);
    assert_eq!(report.retransmissions, 18774);
    assert_eq!(report.epochs.len(), 6);
    assert_eq!(report.unrecoverable.len(), 254);
    assert!(report.recovered);
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

/// The label-space generators' golden trees: fig5, paths rooted at an end
/// and stars rooted at the centre for n in {1, 2, 3, 9, 16}, and both
/// child orders' minimum-depth trees of four G(200, 6/n).
fn label_consumer_trees() -> Vec<(String, RootedTree)> {
    let mut trees = vec![("fig5".to_string(), fig5_tree())];
    for n in [1usize, 2, 3, 9, 16] {
        let path: Vec<u32> = (0..n as u32).map(|v| v.wrapping_sub(1)).collect();
        trees.push((
            format!("path{n}"),
            RootedTree::from_parents(0, &path).unwrap(),
        ));
        let mut star = vec![0u32; n];
        star[0] = NO_PARENT;
        trees.push((
            format!("star{n}"),
            RootedTree::from_parents(0, &star).unwrap(),
        ));
    }
    for seed in 0..4 {
        let g = random_connected(200, 6.0 / 200.0, seed);
        for (order, name) in [
            (ChildOrder::ById, "by_id"),
            (ChildOrder::LargestSubtreeFirst, "largest"),
        ] {
            let tree = min_depth_spanning_tree(&g, order).unwrap();
            trees.push((format!("gnp200_s{seed}_{name}"), tree));
        }
    }
    trees
}

/// Simple, UpDown, telephone, gather and the online protocol, pinned on
/// [`label_consumer_trees`]: each row holds the five schedules' flattened
/// digests in that order. The threaded executor must give the lock-step
/// run's schedule wherever it runs (n <= 64, one thread per vertex).
#[test]
fn label_consumer_schedule_digests_are_pinned() {
    const WANT: [(&str, [u64; 5]); 19] = [
        (
            "fig5",
            [
                0xf614_f457_4cde_bb73,
                0xc502_9bcb_4bc9_2152,
                0xbc51_2c0e_d7f1_6e15,
                0xb146_7d66_bddd_d96b,
                0xa73e_8339_c175_d229,
            ],
        ),
        (
            "path1",
            [
                0x9ef6_f962_c593_b7a4,
                0x9ef6_f962_c593_b7a4,
                0x9ef6_f962_c593_b7a4,
                0x9ef6_f962_c593_b7a4,
                0x9ef6_f962_c593_b7a4,
            ],
        ),
        (
            "star1",
            [
                0x9ef6_f962_c593_b7a4,
                0x9ef6_f962_c593_b7a4,
                0x9ef6_f962_c593_b7a4,
                0x9ef6_f962_c593_b7a4,
                0x9ef6_f962_c593_b7a4,
            ],
        ),
        (
            "path2",
            [
                0xef3c_8802_ebbc_19a3,
                0x444d_e372_6db2_1c84,
                0x444d_e372_6db2_1c84,
                0x85d5_734e_e0c6_8fe6,
                0x3be2_6064_35e3_90a2,
            ],
        ),
        (
            "star2",
            [
                0xef3c_8802_ebbc_19a3,
                0x444d_e372_6db2_1c84,
                0x444d_e372_6db2_1c84,
                0x85d5_734e_e0c6_8fe6,
                0x3be2_6064_35e3_90a2,
            ],
        ),
        (
            "path3",
            [
                0xb645_812e_8d82_1de3,
                0x5ab8_0aca_cefb_0602,
                0x5ab8_0aca_cefb_0602,
                0xc423_826c_99d9_c7c1,
                0x9646_3e9a_cc7a_0f62,
            ],
        ),
        (
            "star3",
            [
                0xcc55_7198_8236_91e7,
                0xca67_90c9_fe1d_4487,
                0x49ca_ccf7_6618_a343,
                0xecaf_369a_d47d_3044,
                0x6626_aa53_20a8_72c1,
            ],
        ),
        (
            "path9",
            [
                0x05c0_4a0b_16bf_f8d9,
                0xdf57_9f0c_55e4_2eb1,
                0xdf57_9f0c_55e4_2eb1,
                0xde37_0a48_2d89_c278,
                0x3962_18f2_0713_adcb,
            ],
        ),
        (
            "star9",
            [
                0x6311_7d9d_7c20_d50e,
                0x4407_99ca_3d63_8f5e,
                0x0aeb_0ab2_ab56_21e4,
                0x74f7_434f_55dc_e0a4,
                0xa937_bdc3_9965_d59c,
            ],
        ),
        (
            "path16",
            [
                0x2a2e_616c_8bf6_073e,
                0x0f98_4e7f_b308_30f1,
                0x0f98_4e7f_b308_30f1,
                0x8ab5_4a38_580a_40bc,
                0xe008_582f_af62_657c,
            ],
        ),
        (
            "star16",
            [
                0xc6d2_8ac7_ca15_234a,
                0x8bd5_f99a_b772_49ea,
                0xb97f_dfff_ac56_8c29,
                0x87bd_9560_2519_911a,
                0x173b_f826_59c0_dd0b,
            ],
        ),
        (
            "gnp200_s0_by_id",
            [
                0x5932_f3de_e9b1_6bb6,
                0xd094_e07d_8314_83de,
                0xf86f_33ea_b726_9b2a,
                0xfe6c_ec5a_424b_df27,
                0x8a2b_a8e1_43c5_5286,
            ],
        ),
        (
            "gnp200_s0_largest",
            [
                0x5174_54d6_ff8a_cb48,
                0xf536_7140_a776_85b2,
                0xae89_339b_69cb_9202,
                0x805d_d388_b3df_799e,
                0x4554_2ce5_082a_afe7,
            ],
        ),
        (
            "gnp200_s1_by_id",
            [
                0x6922_55b7_5f1c_c514,
                0xd117_0b3b_6825_f986,
                0x6ecc_9f31_554c_5d77,
                0xd586_9d7d_c71d_67ce,
                0x944e_eaf0_44c7_bb40,
            ],
        ),
        (
            "gnp200_s1_largest",
            [
                0x398f_6f88_2ec5_6160,
                0x03c5_c4d2_42bc_3912,
                0x7552_ee54_0419_8257,
                0x66a0_22f8_aaaf_7d53,
                0x3bb5_a0f8_81ee_dd4c,
            ],
        ),
        (
            "gnp200_s2_by_id",
            [
                0xc9eb_0637_d3fd_0fa9,
                0xd6bf_5d35_f3ca_8705,
                0xd006_c413_fbed_dd48,
                0x1c33_8cb2_2710_2f96,
                0x5329_fbe3_8277_bda9,
            ],
        ),
        (
            "gnp200_s2_largest",
            [
                0x5c59_d0a0_902b_c08b,
                0xbd13_1c7b_f788_3c19,
                0xa79e_c5cb_e0bd_dcf3,
                0xd912_099c_c505_5a7e,
                0x4b1e_b205_7a34_02c3,
            ],
        ),
        (
            "gnp200_s3_by_id",
            [
                0x8056_8b0c_2789_4543,
                0x918d_5c29_6db3_40b8,
                0x2177_d23e_0473_5d72,
                0xe55c_2b3d_6b49_87ff,
                0x1926_66ff_7e81_9287,
            ],
        ),
        (
            "gnp200_s3_largest",
            [
                0x9d1f_0acd_f4a2_30f1,
                0xdb3a_42e4_1098_db97,
                0x39f2_a706_5714_7170,
                0xa6c0_7547_452e_c597,
                0xcf8e_f560_b1bb_284c,
            ],
        ),
    ];
    let trees = label_consumer_trees();
    assert_eq!(trees.len(), WANT.len());
    for ((name, tree), (want_name, want)) in trees.iter().zip(WANT) {
        assert_eq!(name, want_name);
        let online = run_online(tree);
        let got = [
            simple_gossip(tree),
            updown_gossip(tree),
            telephone_tree_gossip(tree),
            gather_schedule(tree),
            online.clone(),
        ]
        .map(|s| FlatSchedule::from_schedule(&s).digest());
        assert_eq!(got, want, "{name}");
        if tree.n() <= 64 {
            assert_eq!(run_online_threaded(tree), online, "{name}");
        }
    }
}
