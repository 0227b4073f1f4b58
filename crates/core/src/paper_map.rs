//! # Paper-to-code map
//!
//! A section-by-section index from Gonzalez's paper to this workspace, for
//! readers following along with the text. (Documentation-only module.)
//!
//! ## §1 — Introduction: the model and the problem
//!
//! | Paper concept | Code |
//! |---|---|
//! | communication network `N` | [`gossip_graph::Graph`] |
//! | hold sets `h_i` | message-major bitset rows of [`gossip_model::SimKernel`]; one [`gossip_model::BitSet`] per processor in the reference [`gossip_model::Simulator`] |
//! | communication round `C` of tuples `(m, l, D)` | [`gossip_model::CommRound`], [`gossip_model::Transmission`] |
//! | rule "every pair of D sets disjoint" | `ModelError::DuplicateReceiver` in `SimKernel::check_round` (every replay) and [`gossip_model::Simulator::step`] (the reference) |
//! | rule "all indices l distinct" | `ModelError::DuplicateSender` |
//! | receive-before-send within a time unit | hold updates applied after round validation; see [`gossip_model::SimKernel::step_round`] and [`gossip_model::Simulator::step`] |
//! | communication schedule / total communication time | [`gossip_model::Schedule`], [`gossip_model::Schedule::makespan`] |
//! | trivial lower bound `n - 1` | [`crate::trivial_lower_bound`] |
//! | Fig 1 ring schedule (`n - 1`, optimal) | [`crate::circuit_gossip_schedule`] |
//! | Fig 2 Petersen claim (telephone `n - 1`) | [`crate::petersen_gossip_schedule`] |
//! | Fig 3 N3 claim (multicast beats telephone) | `K_{2,3}` + [`crate::optimal_gossip_time`] (experiment E7) |
//! | 3-processor line argument; `n + r - 1` line bound | [`crate::cut_vertex_lower_bound`] (generalized) |
//!
//! ## §2 — Previous work and applications
//!
//! | Paper concept | Code |
//! |---|---|
//! | telephone model | [`gossip_model::CommModel::Telephone`]; baseline [`crate::telephone_tree_gossip`] |
//! | broadcasting model | [`gossip_model::CommModel::Broadcast`]; greedy [`crate::broadcast_model_gossip`] |
//! | trivial offline broadcast (eccentricity rounds) | [`crate::broadcast_schedule`] |
//! | wireless `r^α` power motivation | `gossip_workloads::unit_disk`, `gossip_workloads::schedule_energy` (experiment E20) |
//!
//! ## §3.1 — Constructing the tree network
//!
//! | Paper concept | Code |
//! |---|---|
//! | n BFS traversals, keep least height, `O(mn)` | [`gossip_graph::min_depth_spanning_tree`] (+ rayon-parallel variant) |
//! | Fig 4 network / Fig 5 tree | `gossip_workloads::fig4_graph`, `gossip_workloads::fig5_tree` |
//!
//! ## §3.2 — Gossiping in tree networks
//!
//! | Paper concept | Code |
//! |---|---|
//! | levels `k`, DFS labels, subtree ranges `[i, j]` | [`gossip_graph::RootedTree`], [`crate::FlatLabels`] (the one label arena) |
//! | o/b/s/l/r-message taxonomy; lip/rip | [`crate::classify()`](crate::classify()), [`crate::is_lip`], [`crate::is_rip`] |
//! | algorithm Simple, Lemma 1 (`2n + r - 3`) | [`crate::simple_gossip`] |
//! | algorithm UpDown \[15\] | [`crate::updown_gossip`] (reconstruction; see DESIGN.md §3) |
//! | algorithm Propagate-Up (U1–U4), Lemma 2 | `UpSeq` (`fast_planner.rs`), one sequence per vertex machine of the lock-step engine, shared by [`crate::concurrent_updown`], [`crate::gather_schedule`] (standalone) and [`crate::OnlineVertex`]; a leaf's one event is bucketed by round |
//! | algorithm Propagate-Down (D1–D3), Lemma 3 | `OwnSeq` (D3) and `d2_slot` (D2), overlaid by the machine's one per-round step, which reads the parent's down-send of the round before; per-rule tags, reported by the step, in [`crate::annotated_concurrent_updown`] |
//! | ConcurrentUpDown, Theorem 1 (`n + r`) | [`crate::concurrent_updown`]; property tests in `tests/theorem1_properties.rs` |
//! | Tables 1–4 | [`gossip_model::vertex_trace`] rendering; exact assertions in `tests/paper_tables.rs` |
//! | the "message 5 sent late causes conflicts" discussion | the deferral slots `j - k + 1`, `j - k + 2` ([`crate::annotated::Rule::D2Deferred`]) |
//!
//! ## §4 — Discussion
//!
//! | Paper concept | Code |
//! |---|---|
//! | near-optimality (`r ≤ n/2` ⇒ ~1.5-approx) | experiment E9 (`exp_theorem1`) |
//! | `O(mn)` tree step dominates; rest `O(n)` | criterion benches (`benches/construction.rs`) |
//! | repeated gossiping amortizes the tree | [`crate::TreeMaintainer`], [`crate::pipelined_gossip`] (experiments E21) |
//! | line networks: improve by one unit, non-uniform | [`crate::line_gossip_schedule`] (`n + r - 1`, exact search) |
//! | online adaptation (only `i`, `j`, `k` needed) | [`crate::OnlineVertex`] (one vertex machine of the offline engine, stepped by the same per-round step: the offline generators run §4's protocol in lock-step), [`crate::run_online`], [`crate::run_online_threaded`] |
//! | weighted gossiping by chain splitting | [`crate::weighted_gossip`] |
//!
//! ## Beyond the paper (context the experiments add)
//!
//! - exact optimal gossip times with witness schedules:
//!   [`crate::optimal_gossip_time`], [`crate::optimal_gossip_schedule`];
//! - exhaustive tiny-graph study over all connected graphs on ≤ 5 vertices
//!   (experiment E19);
//! - schedule compaction certifying ConcurrentUpDown's density
//!   ([`gossip_model::compact_schedule`], experiment E22);
//! - optimal telephone broadcast on trees (greedy DP,
//!   [`crate::telephone_broadcast_schedule`]);
//! - pipelined multi-message broadcast
//!   ([`crate::multi_broadcast_schedule`]).
