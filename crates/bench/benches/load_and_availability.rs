//! Criterion benchmarks for the analytical engines: exact load via the simplex LP,
//! exact transversal search, exact crash-probability enumeration and Monte-Carlo
//! estimation — the costs of the measures defined in Section 3 of the paper.

use bqs_constructions::prelude::*;
use bqs_core::prelude::*;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_load_lp(c: &mut Criterion) {
    let mut group = c.benchmark_group("exact_load_lp");
    group.sample_size(20);
    let instances: Vec<(&str, ExplicitQuorumSystem)> = vec![
        (
            "threshold_7of9",
            ThresholdSystem::minimal_masking(2)
                .unwrap()
                .to_explicit(100_000)
                .unwrap(),
        ),
        (
            "mgrid_5x5_b2",
            MGridSystem::new(5, 2)
                .unwrap()
                .to_explicit(100_000)
                .unwrap(),
        ),
        (
            "rt43_depth2",
            RtSystem::new(4, 3, 2)
                .unwrap()
                .to_explicit(100_000)
                .unwrap(),
        ),
        ("fpp_q4", FppSystem::new(4).unwrap().to_explicit().unwrap()),
    ];
    for (name, sys) in &instances {
        group.bench_function(BenchmarkId::from_parameter(name), |bencher| {
            bencher.iter(|| optimal_load(sys.quorums(), sys.universe_size()).unwrap())
        });
    }
    group.finish();
}

fn bench_transversal(c: &mut Criterion) {
    let mut group = c.benchmark_group("min_transversal");
    group.sample_size(20);
    let mgrid = MGridSystem::new(5, 2)
        .unwrap()
        .to_explicit(100_000)
        .unwrap();
    let thresh = ThresholdSystem::new(12, 8)
        .unwrap()
        .to_explicit(100_000)
        .unwrap();
    group.bench_function("mgrid_5x5_b2", |bencher| {
        bencher.iter(|| min_transversal_size(mgrid.quorums(), 25))
    });
    group.bench_function("threshold_8of12", |bencher| {
        bencher.iter(|| min_transversal_size(thresh.quorums(), 12))
    });
    group.finish();
}

fn bench_crash_probability(c: &mut Criterion) {
    let mut group = c.benchmark_group("crash_probability");
    group.sample_size(10);
    let rt_small = RtSystem::new(3, 2, 2).unwrap();
    let rt_big = RtSystem::new(4, 3, 5).unwrap();
    let boost = BoostFppSystem::new(3, 19).unwrap();
    group.bench_function("exact_enumeration_n9", |bencher| {
        bencher.iter(|| exact_crash_probability(&rt_small, 0.125).unwrap())
    });
    group.bench_function("closed_form_rt_n1024", |bencher| {
        bencher.iter(|| rt_big.crash_probability(0.125))
    });
    let mc = Evaluator::new().with_seed(3);
    group.bench_function(
        BenchmarkId::new("monte_carlo_1000_trials", "boostfpp_n1001"),
        |bencher| bencher.iter(|| mc.monte_carlo_with(&boost, 0.125, 1000)),
    );
    group.finish();
}

criterion_group!(
    benches,
    bench_load_lp,
    bench_transversal,
    bench_crash_probability
);
criterion_main!(benches);
