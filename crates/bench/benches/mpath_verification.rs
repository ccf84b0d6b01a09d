//! Criterion benchmarks for the M-Path machinery (the ablation called out in
//! DESIGN.md): straight-line quorum discovery versus general max-flow discovery, the
//! availability *decision* (capped blocking-path search) beside quorum *extraction*
//! (max-flow), and a single percolation trial — the costs behind Proposition 7.3's
//! experimental reproduction.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use bqs_constructions::mpath::MPathSystem;
use bqs_core::prelude::*;
use bqs_graph::disjoint_paths::{find_disjoint_paths, find_straight_disjoint_paths};
use bqs_graph::grid::{Axis, TriangulatedGrid};
use bqs_graph::percolation::PercolationEstimator;

fn alive_mask(n: usize, p: f64, seed: u64) -> Vec<bool> {
    let mut rng = StdRng::seed_from_u64(seed);
    let set = sample_alive_set(n, p, &mut rng);
    (0..n).map(|i| set.contains(i)).collect()
}

fn bench_path_discovery(c: &mut Criterion) {
    let mut group = c.benchmark_group("mpath_path_discovery");
    group.sample_size(20);
    for &side in &[16usize, 32] {
        let grid = TriangulatedGrid::new(side);
        let n = grid.num_vertices();
        // Light failures: straight lines usually survive on small grids.
        let light = alive_mask(n, 0.01, 7);
        // Heavier failures: straight lines break, max-flow is needed.
        let heavy = alive_mask(n, 0.15, 8);
        group.bench_function(BenchmarkId::new("straight_lines_p0.01", side), |b| {
            b.iter(|| find_straight_disjoint_paths(&grid, &light, Axis::LeftRight, 4))
        });
        group.bench_function(BenchmarkId::new("maxflow_p0.01", side), |b| {
            b.iter(|| find_disjoint_paths(&grid, &light, Axis::LeftRight, 4))
        });
        group.bench_function(BenchmarkId::new("maxflow_p0.15", side), |b| {
            b.iter(|| find_disjoint_paths(&grid, &heavy, Axis::LeftRight, 4))
        });
    }
    group.finish();
}

fn bench_quorum_verification(c: &mut Criterion) {
    let mut group = c.benchmark_group("mpath_quorum_verification");
    group.sample_size(20);
    let sys = MPathSystem::new(32, 7).unwrap();
    let mut rng = StdRng::seed_from_u64(9);
    let quorum = sys.sample_quorum(&mut rng);
    group.bench_function("contains_quorum_n1024", |b| {
        b.iter(|| sys.contains_quorum(&quorum))
    });
    let alive = sample_alive_set(1024, 0.125, &mut rng);
    group.bench_function("find_live_quorum_n1024_p0.125", |b| {
        b.iter(|| sys.find_live_quorum(&alive))
    });
    // The decision alone, on the same configuration and on one past the
    // percolation threshold (where the search gives up early the other way).
    let heavy = sample_alive_set(1024, 0.45, &mut rng);
    group.bench_function("is_available_n1024_p0.125", |b| {
        b.iter(|| sys.is_available(&alive))
    });
    group.bench_function("is_available_n1024_p0.45", |b| {
        b.iter(|| sys.is_available(&heavy))
    });
    group.finish();
}

fn bench_percolation_trial(c: &mut Criterion) {
    let mut group = c.benchmark_group("percolation_trial");
    group.sample_size(20);
    let est = PercolationEstimator::new(32);
    let mut rng = StdRng::seed_from_u64(10);
    group.bench_function("crossing_check_32x32_p0.3", |b| {
        b.iter(|| {
            let alive = est.sample_alive(0.3, &mut rng);
            est.has_open_crossing(&alive, Axis::LeftRight)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_path_discovery,
    bench_quorum_verification,
    bench_percolation_trial
);
criterion_main!(benches);
