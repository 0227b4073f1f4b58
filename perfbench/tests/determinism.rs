//! The counts the benchmark reports must repeat exactly for a seed, and
//! `BENCHMARK.json` must list exactly the metrics the benchmark prints.
//!
//! Run with `cargo test --offline --manifest-path perfbench/Cargo.toml`.

use perfbench::{
    make_input, mix, run_instance, Pipeline, Record, Spec, Workload, END_TO_END, PER_LAYER,
    WALL_LAYERS,
};
use std::path::PathBuf;

/// Small sizes so the test runs in seconds in a debug build.
fn small(p: Pipeline) -> Spec {
    let n = match p {
        Pipeline::Plan => 48,
        Pipeline::PlanFast => 64,
        Pipeline::Recover => 40,
        Pipeline::Churn => 32,
    };
    Spec { n, ..p.spec() }
}

fn records(p: Pipeline, seed: u64, traced: bool) -> Vec<Record> {
    let artifact = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("determinism-{}-{seed}-{traced}.gfr", p.name()));
    let records = (0..3)
        .flat_map(|i| {
            let input = make_input(p, &small(p), mix(seed, 2, i));
            let o = run_instance(p, &input, traced, &artifact);
            assert!(o.verified(), "{} instance {i}: {:?}", p.name(), o.failures);
            o.records
        })
        .collect();
    std::fs::remove_file(&artifact).ok();
    records
}

#[test]
fn same_seed_gives_identical_records() {
    for p in Pipeline::ALL {
        let first = records(p, 11, false);
        // A traced run must not change what the program computes.
        assert_eq!(first, records(p, 11, true), "{}", p.name());
        assert_ne!(first, records(p, 12, false), "{}", p.name());
    }
}

#[test]
fn repair_pipelines_do_repair() {
    for p in [Pipeline::Recover, Pipeline::Churn] {
        let rs = records(p, 5, false);
        assert!(rs.iter().any(|r| r.repair_deliveries > 0), "{}", p.name());
    }
}

#[test]
fn benchmark_json_lists_every_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    let names = END_TO_END
        .iter()
        .map(|m| (m.0, m.1))
        .chain(PER_LAYER.iter().copied())
        .collect::<Vec<_>>();
    for (name, unit) in &names {
        let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(json.matches("\"unit\":").count(), names.len());
    for layer in WALL_LAYERS {
        assert!(
            PER_LAYER.iter().any(|m| m.0 == layer),
            "{layer} is not reported"
        );
    }
    assert_eq!(json.matches("\"why\":").count(), Workload::ALL.len());
    for w in Workload::ALL {
        assert!(json.contains(&format!("{{\"name\": \"{}\", \"why\"", w.name())));
    }
}
