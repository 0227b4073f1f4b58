//! # gossip-core
//!
//! The scheduling algorithms of Gonzalez's *"Gossiping in the Multicasting
//! Communication Environment"* (IPPS 2001; journal version in IEEE TPDS),
//! plus every baseline the paper positions itself against:
//!
//! | Algorithm | Module | Guarantee |
//! |-----------|--------|-----------|
//! | **ConcurrentUpDown** (Propagate-Up ∥ Propagate-Down) | [`concurrent`] | `n + r` (Theorem 1) |
//! | Simple | [`simple`] | `2n + r - 3` (Lemma 1) |
//! | UpDown (reconstruction of \[15\]) | [`updown`] | between the two |
//! | Telephone-model baseline | [`telephone`] | unicast-only comparison |
//! | Hamiltonian-circuit gossip | [`ring`] | `n - 1` (optimal) when a circuit exists |
//! | Offline broadcast | [`broadcast`] | eccentricity of the source |
//!
//! Supporting machinery: the DFS-label arena ([`labeling`]), the o/b/s/l/r
//! message taxonomy ([`mod@classify`]), lower bounds including the cut-vertex
//! generalization of the paper's line argument ([`bounds`]), exact optimal
//! search on tiny networks ([`exact`]), randomized schedule search and the
//! optimal Petersen schedule ([`search`]), weighted gossiping by chain
//! splitting ([`weighted`]), the online/distributed protocol with a
//! thread-per-processor harness ([`online`]), the graph-to-schedule
//! pipeline ([`pipeline`]), self-healing execution under seeded fault
//! plans — residual planning plus epoch-based repair ([`recovery`]) — and
//! churn-resilient execution under mid-run topology changes with
//! incremental schedule repair ([`churn`]).
//!
//! ## Quick start
//!
//! ```
//! use gossip_graph::Graph;
//! use gossip_core::GossipPlanner;
//! use gossip_model::simulate_gossip;
//!
//! // Any connected network; here a 3x3 grid.
//! let mut edges = Vec::new();
//! for r in 0..3 {
//!     for c in 0..3 {
//!         let v = r * 3 + c;
//!         if c < 2 { edges.push((v, v + 1)); }
//!         if r < 2 { edges.push((v, v + 3)); }
//!     }
//! }
//! let g = Graph::from_edges(9, &edges).unwrap();
//!
//! let plan = GossipPlanner::new(&g).unwrap().plan().unwrap();
//! assert_eq!(plan.makespan(), 9 + 2); // n + r, radius 2
//! assert!(simulate_gossip(&g, &plan.schedule, &plan.origin_of_message).unwrap().complete);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod annotated;
pub mod bounds;
pub mod broadcast;
pub mod broadcast_model;
pub mod churn;
pub mod classify;
pub mod concurrent;
pub mod exact;
pub mod fast_planner;
pub(crate) mod flood;
pub mod gather;
pub mod labeling;
pub mod line;
pub mod maintenance;
pub mod multi_broadcast;
pub mod online;
pub mod paper_map;
pub mod pipeline;
pub mod pipelined;
pub mod recovery;
pub mod ring;
pub mod search;
pub mod simple;
pub mod telephone;
pub mod telephone_broadcast;
pub mod updown;
pub mod weighted;

pub use annotated::{
    annotated_concurrent_updown, annotated_to_schedule, rule_tag_index, AnnotatedTransmission, Rule,
};
pub use bounds::{cut_vertex_lower_bound, gossip_lower_bound, trivial_lower_bound};
pub use broadcast::broadcast_schedule;
pub use broadcast_model::broadcast_model_gossip;
pub use churn::{ChurnEpoch, ChurnError, ChurnExecutor, ChurnReport, RepairDecision};
pub use classify::{classify, is_lip, is_rip, MessageClass};
pub use concurrent::{concurrent_updown, concurrent_updown_recorded, tree_origins};
pub use exact::{optimal_gossip_schedule, optimal_gossip_time, ExactResult};
pub use fast_planner::{concurrent_updown_flat_on, FastGossipPlan};
pub use gather::gather_schedule;
pub use labeling::{FlatLabels, VertexParams};
pub use line::{line_gossip_schedule, MAX_LINE_N};
pub use maintenance::{EdgeOp, MaintenanceOutcome, TreeMaintainer};
pub use multi_broadcast::multi_broadcast_schedule;
pub use online::{
    run_online, run_online_threaded, run_online_threaded_recorded, run_online_threaded_traced,
    OnlineSend, OnlineVertex,
};
pub use pipeline::{Algorithm, GossipPlan, GossipPlanner};
pub use pipelined::{
    min_pipeline_period, pipelined_gossip, pipelined_gossip_recorded, PipelinedPlan,
};
pub use recovery::{
    completion_deliveries, plan_completion, EpochReport, RecoveryReport, ResidualPlan,
    ResilientExecutor, DEFAULT_MAX_EPOCHS,
};
pub use ring::{circuit_gossip_schedule, ring_gossip_schedule};
pub use search::{petersen_gossip_schedule, randomized_gossip_search, SearchOutcome};
pub use simple::{simple_gossip, simple_gossip_recorded};
pub use telephone::telephone_tree_gossip;
pub use telephone_broadcast::{telephone_broadcast_schedule, telephone_broadcast_times};
pub use updown::{updown_gossip, updown_gossip_recorded};
pub use weighted::{weighted_gossip, WeightedPlan};
