//! Golden flight-record round trip on C_8: record a kernel run with the
//! [`FlightRecorder`], decode the bytes, and re-encode them byte-identically.
//! The schedule is the deterministic ring rotation (every vertex forwards
//! the message it just learned to its clockwise neighbour), so the capture
//! is stable across runs and the assertions below are golden values.

use gossip_graph::GraphBuilder;
use gossip_model::{identity_origins, CommModel, FlatSchedule, Schedule, SimKernel, Transmission};
use gossip_telemetry::flight::{FlightHeader, FlightLog, FlightRecord, FlightRecorder};

const N: usize = 8;

fn ring() -> gossip_graph::Graph {
    let mut b = GraphBuilder::new(N);
    for v in 0..N {
        b.add_edge_unchecked(v, (v + 1) % N).unwrap();
    }
    b.build()
}

/// Round `t`: vertex `v` multicasts message `(v - t) mod 8` — the one it
/// received last round — to `(v + 1) mod 8`. Seven rounds complete gossip.
fn rotation_schedule() -> Schedule {
    let mut s = Schedule::new(N);
    for t in 0..N - 1 {
        for v in 0..N {
            let m = ((v + N - t) % N) as u32;
            s.add_transmission(t, Transmission::new(m, v, vec![(v + 1) % N]));
        }
    }
    s.trim();
    s
}

fn header() -> FlightHeader {
    FlightHeader {
        n: N as u32,
        n_msgs: N as u32,
        radius: 4,
        engine: "oracle".to_string(),
        graph_digest: 0xc8c8,
        schedule_digest: 0x5eed,
        fault_digest: 0,
        origins: (0..N as u32).collect(),
    }
}

#[test]
fn c8_capture_roundtrips_byte_identically() {
    let g = ring();
    let schedule = rotation_schedule();
    let rec = FlightRecorder::new(header());
    let mut sim = SimKernel::new(&g, CommModel::Multicast, &identity_origins(N)).unwrap();
    let outcome = sim
        .run_recorded(&FlatSchedule::from_schedule(&schedule), &rec)
        .unwrap();
    assert!(outcome.complete);
    assert_eq!(outcome.rounds_executed, N - 1);

    let bytes = rec.finish();
    assert_eq!(&bytes[..4], b"GFR1", "magic prefix");

    let log = FlightLog::decode(&bytes).unwrap();
    assert_eq!(log.encode(), bytes, "decode -> encode must be the identity");

    // Golden shape: 8 senders per round for 7 rounds, no losses, and the
    // knowledge curve ends at all 64 (vertex, message) pairs.
    assert_eq!(log.header.n, N as u32);
    assert_eq!(log.header.engine, "oracle");
    assert_eq!(log.rounds(), N - 1);
    assert_eq!(log.txs().len(), N * (N - 1));
    assert!(log.losses().is_empty());
    let curve = log.known_pairs_curve();
    assert_eq!(curve.first(), Some(&(0, 2 * N as u64)));
    assert_eq!(curve.last(), Some(&((N - 2) as u32, (N * N) as u64)));
}

#[test]
fn c8_capture_decodes_to_the_recorded_transmissions() {
    let g = ring();
    let schedule = rotation_schedule();
    let rec = FlightRecorder::new(header());
    let mut sim = SimKernel::new(&g, CommModel::Multicast, &identity_origins(N)).unwrap();
    sim.run_recorded(&FlatSchedule::from_schedule(&schedule), &rec)
        .unwrap();

    let log = FlightLog::decode(&rec.finish()).unwrap();
    // Every scheduled transmission appears with its exact round, message,
    // sender, and destination set.
    let txs = log.txs();
    for (t, round) in schedule.rounds.iter().enumerate() {
        for tx in &round.transmissions {
            let want: Vec<u32> = tx.to.iter().map(|&d| d as u32).collect();
            assert!(
                txs.iter().any(|ft| ft.round == t as u32
                    && ft.msg == tx.msg
                    && ft.from == tx.from as u32
                    && ft.dests == want.as_slice()),
                "transmission round {t} msg {} from {} missing from capture",
                tx.msg,
                tx.from
            );
        }
    }
    // A second decode of the re-encoded bytes yields the same records.
    let again = FlightLog::decode(&log.encode()).unwrap();
    let records: Vec<&FlightRecord> = log.records.iter().collect();
    let records2: Vec<&FlightRecord> = again.records.iter().collect();
    assert_eq!(records, records2);
}

/// The C_8 capture: a header plus 56 transmissions, 7 round ends and the
/// End record.
fn c8_capture() -> Vec<u8> {
    let g = ring();
    let rec = FlightRecorder::new(header());
    let mut sim = SimKernel::new(&g, CommModel::Multicast, &identity_origins(N)).unwrap();
    sim.run_recorded(&FlatSchedule::from_schedule(&rotation_schedule()), &rec)
        .unwrap();
    rec.finish()
}

mod hostile_input {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Arbitrary bytes, with or without the magic, never panic the
        /// decoder; without the magic they are always rejected.
        #[test]
        fn arbitrary_bytes_never_panic(
            magic in proptest::bool::weighted(0.5),
            bytes in proptest::collection::vec(0u8..=255, 0..256),
        ) {
            let mut input = if magic { b"GFR1".to_vec() } else { Vec::new() };
            input.extend_from_slice(&bytes);
            let decoded = FlightLog::decode(&input);
            if !FlightLog::sniff(&input) {
                prop_assert!(decoded.is_err());
            }
        }

        /// Every strict prefix of a multi-record capture is an error.
        #[test]
        fn truncated_captures_are_rejected(cut in 0usize..1 << 16) {
            let good = c8_capture();
            let cut = cut % good.len();
            prop_assert!(FlightLog::decode(&good[..cut]).is_err(), "prefix of {} bytes", cut);
        }

        /// Bit flips anywhere in a capture never panic. The format has no
        /// checksum, so a flip inside a payload field may still decode;
        /// what decodes must then re-encode to a capture that decodes to
        /// the same records.
        #[test]
        fn bit_flipped_captures_never_panic(
            flips in proptest::collection::vec((0usize..1 << 16, 0u8..8), 1..4),
        ) {
            let mut bytes = c8_capture();
            let len = bytes.len();
            for (at, bit) in flips {
                bytes[at % len] ^= 1 << bit;
            }
            if let Ok(log) = FlightLog::decode(&bytes) {
                let again = FlightLog::decode(&log.encode()).expect("re-encoded capture decodes");
                prop_assert_eq!(again.records, log.records);
            }
        }
    }
}
