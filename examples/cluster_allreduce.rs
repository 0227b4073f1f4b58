//! Repeated gossiping on a fixed cluster: amortizing the tree.
//!
//! ```text
//! cargo run --example cluster_allreduce
//! ```
//!
//! Gossiping is the communication pattern behind allreduce-style collectives
//! (the paper's §2 lists sorting, matrix multiplication, DFT, linear
//! solvers). §4 stresses that "in many applications, one has to execute the
//! gossiping algorithms a large number of times ... The construction of the
//! tree is performed only when there is a change in the network."
//!
//! This example plans once on a torus interconnect, then reuses the tree
//! for a sequence of gossip epochs (each epoch = one allreduce's
//! communication pattern), re-verifying every epoch and timing the two
//! phases separately to show the amortization the paper argues for.

use gossip_core::Algorithm;
use multigossip::prelude::*;
use multigossip::workloads::torus;
use std::time::Instant;

fn main() {
    let g = torus(8, 8); // a 64-node cluster with a 2D-torus interconnect
    let epochs = 100;

    // Phase 1 (once per topology change): the O(mn) spanning-tree build.
    let t0 = Instant::now();
    let planner = GossipPlanner::new(&g).expect("connected");
    let plan = planner.plan().expect("plan");
    let build_time = t0.elapsed();

    println!(
        "cluster: {} nodes, {} links, radius {}; tree built in {:?}",
        g.n(),
        g.m(),
        plan.radius,
        build_time
    );
    println!(
        "schedule: {} rounds per gossip (guarantee n + r = {})",
        plan.makespan(),
        plan.guarantee()
    );

    // Phase 2 (every epoch): replay the fixed schedule. The schedule is
    // data-independent, so each epoch only pays simulation/transport cost.
    let t1 = Instant::now();
    let mut total_rounds = 0usize;
    for _ in 0..epochs {
        let outcome = simulate_gossip(&g, &plan.schedule, &plan.origin_of_message).expect("valid");
        assert!(outcome.complete);
        total_rounds += outcome.rounds_executed;
    }
    let run_time = t1.elapsed();

    println!(
        "{epochs} gossip epochs: {} total rounds, {:?} total ({:?}/epoch)",
        total_rounds,
        run_time,
        run_time / epochs as u32
    );
    println!(
        "tree construction amortizes to {:.1}% of one epoch after {epochs} epochs",
        100.0 * build_time.as_secs_f64() / (run_time.as_secs_f64() / epochs as f64) / epochs as f64
    );

    // For contrast: what the same cluster pays without the concurrent
    // overlap (algorithm Simple) and without multicast links (telephone).
    for alg in [Algorithm::Simple, Algorithm::UpDown, Algorithm::Telephone] {
        let p = GossipPlanner::new(&g)
            .expect("connected")
            .algorithm(alg)
            .plan()
            .expect("plan");
        println!(
            "baseline {:>18}: {} rounds per gossip",
            alg.name(),
            p.makespan()
        );
    }
}
