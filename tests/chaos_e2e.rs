//! The chaos scenario engine through real sockets: the masking invariants
//! hold at `b` faults and break detectably at `b + 1` on the Unix-domain and
//! TCP backends too, and a socket run replays deterministically from its
//! `(seed, scenario)` pair. (The full matrix — every family × every backend
//! × the fixed seed set — is `bench_chaos`; these tests pin the cross-backend
//! claim in the ordinary test suite with a fast subset.)

use std::sync::Arc;
use std::time::Duration;

use byzantine_quorums::chaos::prelude::*;
use byzantine_quorums::constructions::prelude::*;
use byzantine_quorums::core::quorum::QuorumSystem;
use byzantine_quorums::net::prelude::*;
use byzantine_quorums::service::transport::Transport;

/// Stands the scenario's fault plan up on `backend`, wraps the deployment
/// (`pool = 1`, so connection id ≡ client at the replicas) in the chaos
/// interposer, and runs the invariant-checking workload.
fn run_on(
    backend: Backend,
    scenario: ChaosScenario,
    system: &ThresholdSystem,
    faults: usize,
    weights: Option<&[f64]>,
    config: &ScenarioConfig,
) -> ScenarioOutcome {
    let n = system.universe_size();
    let plan = scenario.fault_plan(n, faults, weights);
    let net = NetConfig {
        pool: 1,
        request_deadline: Duration::from_secs(5),
        ..NetConfig::default()
    };
    let deployment = Arc::new(Deployment::start(backend, &plan, 2, config.seed, net).unwrap());
    let chaos = ChaosTransport::new(
        Arc::clone(&deployment),
        config.seed,
        scenario.id(),
        scenario.chaos_config_for(n, faults),
    );
    let _: &dyn Transport = &chaos; // the interposer is itself a Transport
    let responsive = deployment.service().responsive_set().clone();
    run_scenario(scenario, system, 1, faults, responsive, &chaos, config)
}

fn config() -> ScenarioConfig {
    ScenarioConfig {
        writes: 8,
        reads: 40,
        reply_deadline: Duration::from_millis(100),
        ..ScenarioConfig::default()
    }
}

#[test]
fn uds_masks_at_b_and_detects_at_b_plus_1() {
    let system = ThresholdSystem::minimal_masking(1).unwrap();
    for scenario in [ChaosScenario::DropRetry, ChaosScenario::SlowServers] {
        let at_b = run_on(Backend::Uds, scenario, &system, 1, None, &config());
        assert_eq!(at_b.safety_violations(), 0, "{}: {at_b:?}", scenario.name());
        assert!(at_b.ops.reads > 0, "{}: {at_b:?}", scenario.name());
        let over = run_on(Backend::Uds, scenario, &system, 2, None, &config());
        assert!(over.detected(), "{}: {over:?}", scenario.name());
    }
}

#[test]
fn tcp_masks_at_b_and_detects_at_b_plus_1() {
    let system = ThresholdSystem::minimal_masking(1).unwrap();
    for scenario in [ChaosScenario::DelayJitter, ChaosScenario::Duplicate] {
        let at_b = run_on(Backend::Tcp, scenario, &system, 1, None, &config());
        assert_eq!(at_b.safety_violations(), 0, "{}: {at_b:?}", scenario.name());
        assert!(at_b.ops.reads > 0, "{}: {at_b:?}", scenario.name());
        let over = run_on(Backend::Tcp, scenario, &system, 2, None, &config());
        assert!(over.detected(), "{}: {over:?}", scenario.name());
    }
}

#[test]
fn socket_runs_replay_deterministically() {
    let system = ThresholdSystem::minimal_masking(1).unwrap();
    let replay = || {
        run_on(
            Backend::Uds,
            ChaosScenario::DropRetry,
            &system,
            2,
            None,
            &config(),
        )
    };
    let (first, second) = (replay(), replay());
    assert_eq!(
        first.trace_fingerprint, second.trace_fingerprint,
        "identical (seed, scenario) must replay the identical chaos trace over sockets"
    );
    assert_eq!(first.trace_events, second.trace_events);
    assert_eq!(first.safety_violations(), second.safety_violations());
    assert_eq!(first.ops.writes, second.ops.writes);
    assert_eq!(first.ops.reads, second.ops.reads);
}

/// Replay across *commits*: `bench_chaos`'s full-run loopback cells, rebuilt
/// here, must keep the trace fingerprints committed in `BENCH_chaos.json` —
/// request-id assignment, rng draw order and fan-out order are a contract,
/// not an accident of one build.
#[test]
fn loopback_fingerprints_match_the_committed_report() {
    let system = ThresholdSystem::minimal_masking(1).unwrap(); // Threshold(4-of-5)
    let n = system.universe_size();
    let explicit = system.to_explicit(1 << 10).unwrap();
    let (_, strategy) = byzantine_quorums::core::load::optimal_load(explicit.quorums(), n).unwrap();
    let weights = strategy.induced_loads(explicit.quorums(), n);
    let config = ScenarioConfig {
        reply_deadline: Duration::from_millis(100),
        seed: 3_298_844_397 ^ 1 << 32,
        ..ScenarioConfig::default()
    };
    for (scenario, committed) in [
        (ChaosScenario::DelayJitter, 8_689_074_866_023_968_317_u64),
        (ChaosScenario::DropRetry, 11_382_509_204_790_503_797),
        (ChaosScenario::Duplicate, 16_675_201_985_952_284_031),
    ] {
        let run = run_on(
            Backend::Loopback,
            scenario,
            &system,
            1,
            Some(&weights),
            &config,
        );
        assert_eq!(run.trace_fingerprint, committed, "{}", scenario.name());
        assert_eq!(run.safety_violations(), 0, "{}: {run:?}", scenario.name());
    }
}
