//! E15a — the paper's §4 complexity claims, timed:
//!
//! - minimum-depth spanning tree construction is the O(mn) bottleneck
//!   (the n-root sweep, 64 roots per bitset BFS);
//! - "all the other steps of the algorithm to construct the schedule take
//!   O(n) time" — schedule generation scales linearly in total schedule
//!   size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gossip_core::concurrent_updown;
use gossip_graph::{min_depth_spanning_tree, ChildOrder};
use gossip_workloads::{random_connected, Family};
use std::hint::black_box;

fn bench_spanning_tree(c: &mut Criterion) {
    let mut group = c.benchmark_group("min_depth_spanning_tree");
    for &n in &[64usize, 128, 256, 512] {
        let g = random_connected(n, 0.05, 1234);
        group.throughput(Throughput::Elements((g.n() * g.m()) as u64));
        group.bench_with_input(BenchmarkId::new("sequential", n), &g, |b, g| {
            b.iter(|| min_depth_spanning_tree(black_box(g), ChildOrder::ById).unwrap())
        });
    }
    group.finish();
}

fn bench_schedule_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("concurrent_updown_schedule");
    for &n in &[64usize, 256, 1024] {
        // Schedule size is Θ(n²) events (n messages to n vertices), so
        // throughput is per delivered message.
        let g = random_connected(n, 0.03, 99);
        let tree = min_depth_spanning_tree(&g, ChildOrder::ById).unwrap();
        group.throughput(Throughput::Elements((n * n) as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &tree, |b, tree| {
            b.iter(|| concurrent_updown(black_box(tree)))
        });
    }
    group.finish();
}

fn bench_tree_shapes(c: &mut Criterion) {
    let mut group = c.benchmark_group("schedule_by_family");
    for family in [
        Family::Path,
        Family::Star,
        Family::BinaryTree,
        Family::RandomTree,
    ] {
        let g = family.instance(512, 5);
        let tree = min_depth_spanning_tree(&g, ChildOrder::ById).unwrap();
        group.bench_with_input(
            BenchmarkId::from_parameter(family.name()),
            &tree,
            |b, tree| b.iter(|| concurrent_updown(black_box(tree))),
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_spanning_tree, bench_schedule_generation, bench_tree_shapes
}
criterion_main!(benches);
