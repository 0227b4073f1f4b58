//! Golden schedule digests. `FlatSchedule::digest` is stamped into every
//! `.gfr` header and compared by `gossip diff` and `--planner both`, so its
//! value is part of the on-disk format: a faster hasher may change how the
//! value is computed, never the value itself.

use gossip_core::GossipPlanner;
use gossip_graph::Graph;
use gossip_model::FlatSchedule;
use gossip_workloads::random_connected;

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
