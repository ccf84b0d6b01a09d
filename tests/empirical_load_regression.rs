//! Regression: the replicated register's empirical load converges to the
//! LP-optimal system load `L(Q)`.
//!
//! For a *fair* system under its uniform access strategy, Proposition 3.9 says
//! the load is `c(Q)/n`, and the exact LP of `bqs-core::load` computes the same
//! value from first principles. The register's client samples quorums through
//! that very strategy, so in a failure-free run the busiest server's empirical
//! access frequency ([`ServiceReport::max_empirical_load`]) must converge to
//! the LP-optimal `L(Q)` — pinning down that the service's per-server access
//! counts, the access strategy and the LP all describe the same quantity.

use byzantine_quorums::prelude::*;

/// A failure-free register over `system`, driven by one sequential client.
fn run_failure_free<Q: QuorumSystem>(
    system: &Q,
    b: usize,
    operations: usize,
    write_fraction: f64,
    seed: u64,
) -> ServiceReport {
    let service = LoopbackService::spawn(&FaultPlan::none(system.universe_size()), 1, seed);
    let config = ServiceConfig {
        clients: 1,
        ops_per_client: operations,
        write_fraction,
        seed,
    };
    run_service(&service, system, b, &config)
}

fn lp_optimal_load(quorums: &[ServerSet], n: usize) -> f64 {
    let (load, _strategy) = optimal_load(quorums, n).expect("LP solves on these instances");
    load
}

#[test]
fn threshold_empirical_load_converges_to_lp_optimal() {
    // Thresh(7 of 9): fair, so L = 7/9; the LP agrees and the service must too.
    let sys = ThresholdSystem::minimal_masking(2).unwrap();
    let n = sys.universe_size();
    let lp = lp_optimal_load(sys.to_explicit(1_000).unwrap().quorums(), n);
    assert!((lp - 7.0 / 9.0).abs() < 1e-6, "LP sanity: {lp}");

    let report = run_failure_free(&sys, 2, 6_000, 0.5, 0x10ad);
    assert!(report.is_safe());
    assert_eq!(report.ops.unavailable, 0);
    let empirical = report.max_empirical_load();
    assert!(
        (empirical - lp).abs() < 0.04,
        "empirical {empirical} vs LP-optimal {lp}"
    );
}

#[test]
fn certified_strategy_empirical_load_tracks_certified_lq() {
    // Satellite regression for the strategy wiring: drive `run_service`
    // through `StrategicQuorumSystem::from_certified`, so every sampled access
    // quorum comes from the *certified-optimal* strategy returned by
    // `optimal_load_oracle` — the one-client, replayable form of
    // `bench_service`'s concurrent validation. The busiest server's empirical
    // frequency must track the certified L(Q) itself (not merely the
    // construction's built-in uniform strategy).
    let sys = MGridSystem::new(7, 3).unwrap();
    let n = sys.universe_size();
    let certified = optimal_load_oracle(&sys).expect("M-Grid oracle certifies");
    assert!(certified.gap <= 1e-9);
    let strategic = StrategicQuorumSystem::from_certified(sys, &certified).unwrap();
    assert!((strategic.strategy_load() - certified.load).abs() < 1e-12);

    let operations = 8_000usize;
    let report = run_failure_free(&strategic, 3, operations, 0.4, 0x10ad + 2);
    assert!(report.is_safe());
    assert_eq!(report.ops.unavailable, 0);
    let empirical = report.max_empirical_load();
    // Binomial 5-sigma band around the certified load, plus the max-of-n
    // order-statistic drift (all servers sit at the same expected load under
    // the balanced certified strategy).
    let l = certified.load;
    let sigma = (l * (1.0 - l) / operations as f64).sqrt();
    let tolerance = sigma * (5.0 + (2.0 * (n as f64).ln()).sqrt());
    assert!(
        (empirical - l).abs() <= tolerance,
        "empirical {empirical} vs certified {l} (tolerance {tolerance})"
    );
}

#[test]
fn mgrid_empirical_load_converges_to_lp_optimal() {
    // M-Grid(5x5, b=2): fair with c = 2*2*5 - 4 = 16, so L(Q) = 16/25 = 0.64.
    let sys = MGridSystem::new(5, 2).unwrap();
    let n = sys.universe_size();
    let lp = lp_optimal_load(sys.to_explicit(20_000).unwrap().quorums(), n);
    assert!((lp - sys.analytic_load()).abs() < 1e-6, "LP sanity: {lp}");

    let report = run_failure_free(&sys, 2, 6_000, 0.5, 0x10ad + 1);
    assert!(report.is_safe());
    let empirical = report.max_empirical_load();
    assert!(
        (empirical - lp).abs() < 0.05,
        "empirical {empirical} vs LP-optimal {lp}"
    );
}
