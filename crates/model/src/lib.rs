//! # gossip-model
//!
//! The synchronous multicast communication model of Gonzalez's gossiping
//! paper, as an executable artifact:
//!
//! - [`Transmission`] / [`CommRound`]: the paper's `(m, l, D)` tuples and
//!   conflict-free rounds;
//! - [`Schedule`]: a sequence of rounds with the paper's timing convention
//!   (sent at `t`, received at `t + 1`) and summary [`ScheduleStats`];
//! - [`CommModel`]: multicast / telephone / broadcast destination rules;
//! - [`Simulator`]: executes schedules while enforcing *every* model rule,
//!   tracking hold sets, and reporting completion — the reference
//!   semantics, kept as the test oracle the kernel is checked against;
//! - [`FlatSchedule`] / [`SimKernel`]: the one production replay engine —
//!   schedules flattened once into round-major CSR arrays, knowledge sets
//!   as flat `u64` bitset words, same rules and errors as the oracle
//!   simulator; strict, prevalidated, recorded, probed and lossy runs;
//! - [`trace`]: per-vertex tables in the exact format of the paper's
//!   Tables 1–4;
//! - [`provenance`]: the causal first-delivery DAG of a run (who first
//!   told whom, and when), critical paths against the `n + r` bound, and
//!   Chrome-trace export;
//! - [`fault_plan`] / [`lossy`]: seeded environment faults (message loss,
//!   link outages, crash-stop processors) and the degraded execution mode
//!   that records losses and residual work instead of erroring;
//! - [`churn`]: seeded, schema-versioned topology-change scripts
//!   ([`ChurnPlan`]) applied mid-run by `gossip_core`'s churn executor.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod bitset;
pub mod builder;
pub mod churn;
pub mod compact;
pub mod error;
pub mod fault_plan;
pub mod faults;
pub mod flat_schedule;
pub mod kernel;
pub mod lossy;
pub mod models;
pub mod provenance;
pub mod round;
pub mod schedule;
pub mod simulator;
pub mod trace;

pub use analysis::{
    analyze_schedule, knowledge_curve, render_gantt, render_sparkline, ScheduleAnalysis,
};
pub use bitset::BitSet;
pub use builder::ScheduleBuilder;
pub use churn::{ChurnEvent, ChurnOp, ChurnPlan, CHURN_PLAN_SCHEMA_VERSION, MAX_CHURN_ROUND};
pub use compact::{compact_schedule, verify_compaction, CompactionReport};
pub use error::ModelError;
pub use fault_plan::{Crash, FaultPlan, LinkOutage, FAULT_PLAN_SCHEMA_VERSION};
pub use faults::{inject_fault, Fault};
pub use flat_schedule::{FlatSchedule, RoundFill, GRAIN};
pub use kernel::{missing_pairs, RoundProbe, SimKernel, PIPELINE_ROUND_DELIVERIES};
pub use lossy::{LossCause, LossyOutcome, LostDelivery};
pub use models::CommModel;
pub use provenance::{
    schedule_chrome_trace, trace_gossip, trace_gossip_lossy, Delivery, PathStep, ProvenanceTrace,
    RoundUtil, VertexActivity,
};
pub use round::{CommRound, Transmission};
pub use schedule::{Schedule, ScheduleStats};
pub use simulator::{simulate_gossip, validate_gossip_schedule, SimOutcome, Simulator};
pub use trace::{full_trace, vertex_trace, VertexTrace};

/// The identity origin table: message `m` originates at processor `m`.
///
/// This is the labeling the paper uses after DFS-relabeling the tree; the
/// scheduling crate works in label space where it always applies.
pub fn identity_origins(n: usize) -> Vec<usize> {
    (0..n).collect()
}
