//! Seeded determinism of the fast planner: its output is a pure function
//! of the graph — independent of worker thread count (the multi-source
//! BFS reduces candidates with an exact `(eccentricity, id)` min, so the
//! chunk schedule cannot leak into the tree) and repeatable across runs.
//!
//! Everything lives in one `#[test]` because it mutates
//! `RAYON_NUM_THREADS` (read per `run_chunks` call by the vendored
//! rayon): parallel test functions in the same binary would race on it.

use gossip_core::{concurrent_updown, GossipPlanner};
use gossip_model::flat_schedule::round_ranges;
use gossip_model::FlatSchedule;
use gossip_workloads::{path, random_connected, random_tree};

#[test]
fn fast_planner_byte_identical_across_thread_counts() {
    for (n, p, seed) in [
        (64usize, 0.10, 7u64),
        (256, 0.03, 13),
        (512, 0.05, 77),
        (300, 0.01, 42),
    ] {
        let g = random_connected(n, p, seed);
        let planner = GossipPlanner::new(&g).unwrap();

        std::env::set_var("RAYON_NUM_THREADS", "1");
        let single = planner.plan_fast().unwrap();
        std::env::set_var("RAYON_NUM_THREADS", "3");
        let three = planner.plan_fast().unwrap();
        std::env::remove_var("RAYON_NUM_THREADS");
        let default = planner.plan_fast().unwrap();

        assert_eq!(
            single.tree, three.tree,
            "n = {n}: tree differs at 1 vs 3 threads"
        );
        assert_eq!(
            single.tree, default.tree,
            "n = {n}: tree differs at 1 vs default threads"
        );
        assert_eq!(
            single.schedule.digest(),
            default.schedule.digest(),
            "n = {n}: schedule digest differs across thread counts"
        );
        assert_eq!(single.schedule, three.schedule, "n = {n}");
        assert_eq!(single.schedule, default.schedule, "n = {n}");
        assert_eq!(
            single.origin_of_message, default.origin_of_message,
            "n = {n}"
        );

        // Same-process repeatability: planning twice at the same thread
        // count is byte-identical too.
        let again = planner.plan_fast().unwrap();
        assert_eq!(
            default.schedule, again.schedule,
            "n = {n}: re-plan diverged"
        );
    }

    // Schedules that actually split: n = 1024 gossip carries 1,047,552
    // deliveries, just under four GRAINs, so the CSR emit pass cuts its
    // rounds into one range per thread up to three. The fills at 1, 2 and
    // 3 threads and the reference flatten must agree byte for byte, on a
    // minimum-depth tree of G(n, 18/n) and on the lock-step engine's
    // worst shapes: a path (every vertex internal) and a random tree.
    for (name, g) in [
        ("G(1024, 18/n)", random_connected(1024, 18.0 / 1024.0, 11)),
        ("path(1024)", path(1024)),
        ("random_tree(1024, 5)", random_tree(1024, 5)),
    ] {
        let planner = GossipPlanner::new(&g).unwrap();
        let mut fills = Vec::new();
        for threads in ["1", "2", "3"] {
            std::env::set_var("RAYON_NUM_THREADS", threads);
            fills.push(planner.plan_fast().unwrap());
        }
        std::env::remove_var("RAYON_NUM_THREADS");
        let split = &fills[2].schedule;
        assert_eq!(split.deliveries(), 1024 * 1023, "{name}");
        let (tx, dv): (Vec<u32>, Vec<u32>) = (0..split.rounds())
            .map(|t| {
                let batch = split.round_batch(t);
                (batch.len() as u32, batch.deliveries() as u32)
            })
            .unzip();
        assert_eq!(
            round_ranges(&tx, &dv, 3).len(),
            3,
            "{name} must split 3 ways"
        );
        for fill in &fills[..2] {
            assert_eq!(fill.tree, fills[2].tree, "{name}");
            assert_eq!(&fill.schedule, split, "{name}: fill differs across threads");
        }
        let reference = FlatSchedule::from_schedule(&concurrent_updown(&fills[2].tree));
        assert_eq!(
            split, &reference,
            "{name}: split fill differs from the reference"
        );
        assert_eq!(split.digest(), reference.digest(), "{name}");
    }
}
