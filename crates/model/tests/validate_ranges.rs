//! `FlatSchedule::validate` on a schedule of at least `2 * GRAIN`
//! deliveries: at two rayon threads it cuts the rounds into two ranges
//! and checks them concurrently, and the error it reports must still be
//! the oracle `Simulator`'s — the first failing rule of the earliest
//! failing round — when both ranges hold a structural error, when only
//! the second does, and on the rounds either side of the cut.
//!
//! Everything lives in one `#[test]` because it sets `RAYON_NUM_THREADS`
//! (read on every call by the vendored rayon): parallel test functions in
//! the same binary would race on it.

use gossip_graph::Graph;
use gossip_model::flat_schedule::round_ranges;
use gossip_model::{
    CommModel, FlatSchedule, ModelError, Schedule, SimKernel, Simulator, Transmission, GRAIN,
};

/// C_730's gossip schedule carries 730 · 729 = 532,170 deliveries.
const N: usize = 730;

fn ring() -> Graph {
    Graph::from_edges(N, &(0..N).map(|v| (v, (v + 1) % N)).collect::<Vec<_>>()).unwrap()
}

/// The message processor `p` forwards in round `t` of [`ring_schedule`]:
/// its own at `t = 0`, then the one it received the round before.
fn relayed(p: usize, t: usize) -> u32 {
    ((p + N - t % N) % N) as u32
}

/// The ring's pass-it-on gossip schedule — in round `t` every processor
/// `p` sends [`relayed`]`(p, t)` to `p + 1` — with processor `p`'s
/// transmission of round `t` replaced by `tx` for every `(t, p, tx)` in
/// `edits`.
fn ring_schedule(edits: &[(usize, usize, Transmission)]) -> Schedule {
    let mut s = Schedule::new(N);
    for t in 0..N - 1 {
        for p in 0..N {
            let tx = edits
                .iter()
                .find(|(et, ep, _)| (*et, *ep) == (t, p))
                .map(|(_, _, tx)| tx.clone())
                .unwrap_or_else(|| Transmission::unicast(relayed(p, t), p, (p + 1) % N));
            s.add_transmission(t, tx);
        }
    }
    s
}

/// A structural error planted in round `t`: the edit, and the error the
/// oracle reports for it when no earlier round fails.
type Plant = fn(usize) -> ((usize, usize, Transmission), ModelError);

/// Processor 5 sends to 7, two hops away.
fn not_adjacent(t: usize) -> ((usize, usize, Transmission), ModelError) {
    let tx = Transmission::unicast(relayed(5, t), 5, 7);
    let err = ModelError::NotAdjacent {
        round: t,
        sender: 5,
        receiver: 7,
    };
    ((t, 5, tx), err)
}

/// Processor 10 sends back to 9, which 8 already sends to.
fn duplicate_receiver(t: usize) -> ((usize, usize, Transmission), ModelError) {
    let tx = Transmission::unicast(relayed(10, t), 10, 9);
    let err = ModelError::DuplicateReceiver {
        round: t,
        receiver: 9,
    };
    ((t, 10, tx), err)
}

/// Processor 20 sends to processor `N`, which does not exist.
fn out_of_range(t: usize) -> ((usize, usize, Transmission), ModelError) {
    let tx = Transmission::unicast(relayed(20, t), 20, N);
    let err = ModelError::ProcessorOutOfRange {
        round: t,
        proc: N,
        n: N,
    };
    ((t, 20, tx), err)
}

/// Processor 30's slot sends from 29, which already sent this round.
fn duplicate_sender(t: usize) -> ((usize, usize, Transmission), ModelError) {
    let tx = Transmission::unicast(relayed(29, t), 29, 30);
    let err = ModelError::DuplicateSender {
        round: t,
        sender: 29,
    };
    ((t, 30, tx), err)
}

/// `validate` at one and two threads, the oracle and the kernel's strict
/// run all give `want` on `s`.
fn check(what: &str, g: &Graph, s: &Schedule, want: Result<(), ModelError>) {
    let origins: Vec<usize> = (0..N).collect();
    let oracle = Simulator::new(g, CommModel::Multicast, &origins)
        .unwrap()
        .run(s)
        .map(drop);
    assert_eq!(oracle, want, "{what}: the oracle");
    let flat = FlatSchedule::from_schedule(s);
    for threads in ["2", "1"] {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        let got = flat.validate(g, CommModel::Multicast, N);
        std::env::remove_var("RAYON_NUM_THREADS");
        assert_eq!(got, want, "{what}: validate at {threads} thread(s)");
    }
    let mut kernel = SimKernel::new(g, CommModel::Multicast, &origins).unwrap();
    assert_eq!(
        kernel.run(&flat).map(drop),
        want,
        "{what}: strict kernel run"
    );
}

#[test]
fn validate_reports_the_earliest_error_across_round_ranges() {
    let g = ring();
    let rounds = N - 1;
    let per_round = vec![N as u32; rounds];
    assert!(N * rounds >= 2 * GRAIN);
    let ranges = round_ranges(&per_round, &per_round, 2);
    assert_eq!(ranges.len(), 2, "{ranges:?}");
    let (last_of_first, first_of_second) = (ranges[0].end - 1, ranges[1].start);
    let (early, late) = (ranges[0].len() / 3, first_of_second + ranges[1].len() / 2);

    check("clean", &g, &ring_schedule(&[]), Ok(()));
    let plants: [(&str, Plant); 4] = [
        ("not adjacent", not_adjacent),
        ("duplicate receiver", duplicate_receiver),
        ("out of range", out_of_range),
        ("duplicate sender", duplicate_sender),
    ];
    for (k, (first_kind, first)) in plants.iter().enumerate() {
        let (second_kind, second) = plants[(k + 1) % plants.len()];
        for (a, b) in [(early, late), (last_of_first, first_of_second)] {
            let (edit_a, want_a) = first(a);
            let (edit_b, want_b) = second(b);
            check(
                &format!("{first_kind} at round {a}, {second_kind} at round {b}"),
                &g,
                &ring_schedule(&[edit_a, edit_b.clone()]),
                Err(want_a),
            );
            check(
                &format!("{second_kind} at round {b} only"),
                &g,
                &ring_schedule(&[edit_b]),
                Err(want_b),
            );
        }
    }
}
