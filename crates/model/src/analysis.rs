//! Schedule analysis: latency profiles, link loads, redundancy, and the
//! per-processor Gantt rendering used by experiment reports.
//!
//! The validator answers "is this schedule legal and complete?"; this
//! module answers "what does it look like?" — when each message finishes
//! spreading, how evenly links are loaded, how much of the traffic is
//! redundant (re-delivering something the receiver already holds), and how
//! busy each processor's send/receive ports are.

use crate::bitset::BitSet;
use crate::error::ModelError;
use crate::schedule::Schedule;
use gossip_graph::Graph;
use serde::{Deserialize, Serialize};

/// Per-message and per-link profile of one schedule execution.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScheduleAnalysis {
    /// `completion[m]` = earliest time every processor holds message `m`
    /// (`None` if it never finishes spreading).
    pub message_completion: Vec<Option<usize>>,
    /// Deliveries that handed a receiver a message it already held.
    pub redundant_deliveries: usize,
    /// Total deliveries.
    pub total_deliveries: usize,
    /// `(u, v, uses)` per undirected link actually used, descending by use.
    pub link_loads: Vec<(usize, usize, usize)>,
    /// Rounds in which each processor sent, indexed by processor.
    pub send_rounds: Vec<usize>,
    /// Rounds in which each processor received, indexed by processor.
    pub recv_rounds: Vec<usize>,
}

impl ScheduleAnalysis {
    /// The latest message completion time (the schedule's effective
    /// makespan from the knowledge point of view).
    pub fn last_completion(&self) -> Option<usize> {
        self.message_completion.iter().copied().max().flatten()
    }

    /// Redundancy ratio in `[0, 1]`: 0 = every delivery was new
    /// information.
    pub fn redundancy(&self) -> f64 {
        if self.total_deliveries == 0 {
            0.0
        } else {
            self.redundant_deliveries as f64 / self.total_deliveries as f64
        }
    }

    /// Ratio of the busiest link's load to the average over used links
    /// (1.0 = perfectly balanced).
    pub fn link_imbalance(&self) -> f64 {
        if self.link_loads.is_empty() {
            return 1.0;
        }
        let max = self.link_loads[0].2 as f64;
        let avg = self.link_loads.iter().map(|&(_, _, u)| u).sum::<usize>() as f64
            / self.link_loads.len() as f64;
        max / avg
    }
}

/// Replays `schedule` (assumed already validated) and computes its profile.
///
/// Returns the same errors as the simulator for malformed inputs, so it can
/// be used standalone.
pub fn analyze_schedule(
    g: &Graph,
    schedule: &Schedule,
    origin_of_message: &[usize],
) -> Result<ScheduleAnalysis, ModelError> {
    let n = g.n();
    if schedule.n != n {
        return Err(ModelError::SizeMismatch {
            graph_n: n,
            schedule_n: schedule.n,
        });
    }
    if origin_of_message.len() != n {
        return Err(ModelError::BadOriginTable {
            reason: format!("{} origins for {n} processors", origin_of_message.len()),
        });
    }
    let mut hold: Vec<BitSet> = vec![BitSet::new(n); n];
    let mut holders = vec![0usize; n];
    for (m, &p) in origin_of_message.iter().enumerate() {
        hold[p].insert(m);
        holders[m] = 1;
    }
    let mut analysis = ScheduleAnalysis {
        message_completion: vec![if n == 1 { Some(0) } else { None }; n],
        redundant_deliveries: 0,
        total_deliveries: 0,
        link_loads: Vec::new(),
        send_rounds: vec![0; n],
        recv_rounds: vec![0; n],
    };
    let mut link_uses: std::collections::BTreeMap<(usize, usize), usize> =
        std::collections::BTreeMap::new();

    for (t, round) in schedule.rounds.iter().enumerate() {
        for tx in &round.transmissions {
            analysis.send_rounds[tx.from] += 1;
            for &d in &tx.to {
                analysis.total_deliveries += 1;
                analysis.recv_rounds[d] += 1;
                let key = (tx.from.min(d), tx.from.max(d));
                *link_uses.entry(key).or_default() += 1;
                if hold[d].insert(tx.msg as usize) {
                    holders[tx.msg as usize] += 1;
                    if holders[tx.msg as usize] == n {
                        analysis.message_completion[tx.msg as usize] = Some(t + 1);
                    }
                } else {
                    analysis.redundant_deliveries += 1;
                }
            }
        }
    }
    analysis.link_loads = link_uses.into_iter().map(|((u, v), c)| (u, v, c)).collect();
    analysis
        .link_loads
        .sort_by_key(|&(u, v, c)| (std::cmp::Reverse(c), u, v));
    Ok(analysis)
}

/// The knowledge curve of a schedule: entry `t` is the fraction of
/// (processor, message) pairs known at time `t`, from `t = 0` (just the
/// origins) through the makespan (1.0 for a complete gossip).
///
/// This is the round-by-round progress profile that distinguishes
/// algorithms with equal makespans and shows *where* each algorithm's time
/// goes (e.g. algorithm Simple's flat segment while everything funnels
/// through the root).
///
/// The curve is the coverage component of the kernel's per-round probes
/// ([`crate::SimKernel::run_probed`]), so the schedule is also validated
/// against the multicast model rules; rule violations surface as errors.
pub fn knowledge_curve(
    g: &Graph,
    schedule: &Schedule,
    origin_of_message: &[usize],
) -> Result<Vec<f64>, ModelError> {
    let mut sim =
        crate::SimKernel::with_origins(g, crate::CommModel::Multicast, origin_of_message)?;
    let mut curve = Vec::with_capacity(schedule.makespan() + 1);
    curve.push(sim.coverage());
    let flat = crate::FlatSchedule::from_schedule(schedule);
    let (_, probes) = sim.run_probed(&flat, &gossip_telemetry::NoopRecorder)?;
    curve.extend(probes.iter().map(|p| p.coverage));
    Ok(curve)
}

/// Renders a knowledge curve as a unicode sparkline (one glyph per round).
pub fn render_sparkline(curve: &[f64]) -> String {
    const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    curve
        .iter()
        .map(|&v| {
            let idx = ((v.clamp(0.0, 1.0)) * 7.0).round() as usize;
            GLYPHS[idx]
        })
        .collect()
}

/// Renders a per-processor Gantt chart of the schedule: one row per
/// processor, one column per round; `S` = send, `R` = receive, `B` = both,
/// `.` = idle. Useful for eyeballing pipelining structure.
pub fn render_gantt(schedule: &Schedule) -> String {
    let n = schedule.n;
    let horizon = schedule.makespan();
    let mut grid = vec![vec![b'.'; horizon + 1]; n];
    for (t, tx) in schedule.iter() {
        grid[tx.from][t] = match grid[tx.from][t] {
            b'R' | b'B' => b'B',
            _ => b'S',
        };
        for &d in &tx.to {
            grid[d][t + 1] = match grid[d][t + 1] {
                b'S' | b'B' => b'B',
                _ => b'R',
            };
        }
    }
    let mut out = String::with_capacity(n * (horizon + 16));
    for (p, row) in grid.iter().enumerate() {
        out.push_str(&format!("{p:>4} |"));
        out.push_str(std::str::from_utf8(row).expect("ascii"));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::round::Transmission;

    fn path3() -> Graph {
        Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap()
    }

    #[test]
    fn completion_times() {
        let g = path3();
        let mut s = Schedule::new(3);
        // msg 1 multicast both ways at t0 -> complete at t1.
        s.add_transmission(0, Transmission::new(1, 1, vec![0, 2]));
        // msg 0: 0->1 at t0? receiver 1 busy; do t1 and t2.
        s.add_transmission(1, Transmission::unicast(0, 0, 1));
        s.add_transmission(2, Transmission::unicast(0, 1, 2));
        // msg 2 never spreads.
        let a = analyze_schedule(&g, &s, &[0, 1, 2]).unwrap();
        assert_eq!(a.message_completion[1], Some(1));
        assert_eq!(a.message_completion[0], Some(3));
        assert_eq!(a.message_completion[2], None);
        assert_eq!(a.last_completion(), Some(3));
        assert_eq!(a.redundant_deliveries, 0);
        assert_eq!(a.total_deliveries, 4);
    }

    #[test]
    fn redundancy_counted() {
        let g = path3();
        let mut s = Schedule::new(3);
        s.add_transmission(0, Transmission::unicast(0, 0, 1));
        s.add_transmission(1, Transmission::unicast(0, 0, 1)); // redundant
        let a = analyze_schedule(&g, &s, &[0, 1, 2]).unwrap();
        assert_eq!(a.redundant_deliveries, 1);
        assert!((a.redundancy() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn link_loads_sorted() {
        let g = path3();
        let mut s = Schedule::new(3);
        s.add_transmission(0, Transmission::unicast(0, 0, 1));
        s.add_transmission(1, Transmission::unicast(0, 1, 2));
        s.add_transmission(2, Transmission::unicast(1, 1, 2));
        let a = analyze_schedule(&g, &s, &[0, 1, 2]).unwrap();
        assert_eq!(a.link_loads[0], (1, 2, 2));
        assert_eq!(a.link_loads[1], (0, 1, 1));
        assert!(a.link_imbalance() > 1.0);
    }

    #[test]
    fn gantt_marks() {
        let mut s = Schedule::new(3);
        s.add_transmission(0, Transmission::unicast(0, 0, 1));
        s.add_transmission(1, Transmission::unicast(0, 1, 2));
        let txt = render_gantt(&s);
        let lines: Vec<&str> = txt.lines().collect();
        assert!(lines[0].contains("S"));
        assert!(lines[1].contains("B") || lines[1].contains("RS")); // 1 receives at t1, sends at t1
        assert!(lines[2].contains("R"));
    }

    #[test]
    fn knowledge_curve_monotone_and_complete() {
        let g = path3();
        let mut s = Schedule::new(3);
        s.add_transmission(0, Transmission::new(1, 1, vec![0, 2]));
        s.add_transmission(1, Transmission::unicast(0, 0, 1));
        s.add_transmission(2, Transmission::unicast(0, 1, 2));
        s.add_transmission(2, Transmission::unicast(2, 2, 1));
        s.add_transmission(3, Transmission::unicast(2, 1, 0));
        let c = knowledge_curve(&g, &s, &[0, 1, 2]).unwrap();
        assert_eq!(c.len(), s.makespan() + 1);
        assert!((c[0] - 3.0 / 9.0).abs() < 1e-9);
        for w in c.windows(2) {
            assert!(w[1] >= w[0], "curve must be monotone");
        }
        assert!((c.last().unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sparkline_renders_one_glyph_per_point() {
        let spark = render_sparkline(&[0.0, 0.5, 1.0]);
        assert_eq!(spark.chars().count(), 3);
        assert!(spark.starts_with('▁'));
        assert!(spark.ends_with('█'));
    }

    #[test]
    fn singleton_complete_at_zero() {
        let g = Graph::from_edges(1, &[]).unwrap();
        let a = analyze_schedule(&g, &Schedule::new(1), &[0]).unwrap();
        assert_eq!(a.message_completion[0], Some(0));
    }
}
