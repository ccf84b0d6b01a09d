//! End-to-end reconfiguration tests at the client-protocol level.
//!
//! The runner's unit tests exercise the drill through the open-loop
//! generator; these tests pin the per-client contract of the two-phase
//! handoff instead:
//!
//! * an in-flight client of epoch `e` keeps completing — in its origin
//!   epoch, under its origin strategy — for as long as the `{e, e + 1}`
//!   window is open;
//! * after finalize, the same client is fenced in-band, terminally (no
//!   retry burn, no abort accounting), told the current epoch, and recovers
//!   by adopting the re-certified strategy at `e + 1`;
//! * the register's contents survive the handoff: a value written at epoch
//!   `e` is read back at epoch `e + 1` through the *new* quorums (the
//!   surviving `2b + 1` intersection carries it across);
//! * no operation ever mixes epochs: every completed quorum was sampled
//!   from exactly one epoch's strategy, which the fencing outcome makes
//!   observable (a mixed fan-out would have completed instead of fencing).

use std::sync::Arc;

use bqs_chaos::{ChaosTransport, ReconfigScenario};
use bqs_core::bitset::ServerSet;
use bqs_epoch::prelude::*;
use bqs_service::prelude::*;
use bqs_sim::epoch::EpochGate;
use bqs_sim::fault::FaultPlan;
use bqs_sim::server::Entry;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// All 5-subsets of 7 servers: a 1-masking pool (any two share >= 3).
fn five_of_seven() -> Vec<ServerSet> {
    let mut out = Vec::new();
    for a in 0..7 {
        for b in a + 1..7 {
            out.push(ServerSet::from_indices(
                7,
                (0..7).filter(|&i| i != a && i != b),
            ));
        }
    }
    out
}

/// Evidence snapshots that make `dead` look crashed (heavy no-answer ratio)
/// and everyone else healthy.
fn evidence_round(metrics: &ServiceMetrics, dead: &[usize]) {
    for s in 0..metrics.universe_size() {
        if dead.contains(&s) {
            for _ in 0..16 {
                metrics.record_server_no_answer(s);
            }
            for _ in 0..4 {
                metrics.record_server_answer(s, 1_000);
            }
        } else {
            for _ in 0..20 {
                metrics.record_server_answer(s, 1_000);
            }
            metrics.record_server_no_answer(s);
        }
    }
}

#[test]
fn in_flight_clients_drain_at_their_epoch_then_fence_and_recover() {
    let n = 7;
    let service = LoopbackService::spawn(&FaultPlan::none(n), 2, 0xe2e);
    let gate: Arc<EpochGate> = Arc::clone(service.epoch_gate());
    let planner = EpochPlanner::new(n, 1).with_pool("5of7", five_of_seven());
    let mut manager =
        EpochManager::new(planner, SuspicionConfig::counters_only(), Arc::clone(&gate)).unwrap();
    let responsive = ServerSet::full(n);
    let mut rng = StdRng::seed_from_u64(7);

    // An epoch-0 client under the epoch-0 strategy.
    let sys0 = manager.current().strategic_system().unwrap();
    let metrics0 = Arc::new(ServiceMetrics::new(n));
    let mut old_client = ServiceClient::new(&sys0, &service, responsive.clone(), 1)
        .with_origin(1)
        .with_metrics(Arc::clone(&metrics0));
    let marker = Entry {
        timestamp: 41,
        value: authentic_value(41),
    };
    old_client.write(marker, &mut rng).unwrap();
    assert_eq!(old_client.read(&mut rng).unwrap().entry, marker);

    // Server 6 goes bad; three accusing ticks reconfigure to epoch 1 and
    // open the {0, 1} window.
    let evidence = ServiceMetrics::new(n);
    let outcome = loop {
        evidence_round(&evidence, &[6]);
        match manager.tick(&evidence).unwrap() {
            TickOutcome::Steady => {}
            other => break other,
        }
    };
    assert_eq!(outcome, TickOutcome::Reconfigured { from: 0, to: 1 });
    assert_eq!(gate.window(), (0, 1));

    // The draining epoch-0 client still completes — origin epoch, origin
    // strategy — while an epoch-1 client is already being served.
    let in_flight = Entry {
        timestamp: 43,
        value: authentic_value(43),
    };
    let drained_quorum = old_client.write(in_flight, &mut rng).unwrap();
    assert_eq!(old_client.read(&mut rng).unwrap().entry, in_flight);

    let active = manager.active().clone();
    assert_eq!(active.epoch, 1);
    assert!(
        !active.universe.contains(6),
        "survivors exclude the suspect"
    );
    let sys1 = active.strategic_system().unwrap();
    let mut new_client = ServiceClient::new(&sys1, &service, responsive.clone(), 1)
        .with_origin(2)
        .with_epoch(active.epoch);
    let migrated = new_client.read(&mut rng).unwrap();
    // Epoch-1 quorums avoid the suspect entirely — and the epoch-0 write is
    // visible through them (the surviving intersection carries it across).
    assert!(!migrated.quorum.contains(6));
    assert_eq!(migrated.entry, in_flight);
    // Meanwhile the epoch-0 quorum was sampled from the old strategy: the
    // two clients never shared a fan-out, only the register.
    assert_eq!(drained_quorum.len(), 5);

    // Finalize: the drained epoch collapses out of the window.
    assert_eq!(
        manager.tick(&evidence).unwrap(),
        TickOutcome::Finalized { epoch: 1 }
    );
    assert_eq!(gate.window(), (1, 1));

    // The straggler is fenced in-band: terminal, no retries, no aborts, and
    // it learns the current epoch.
    let fenced = old_client.read(&mut rng).unwrap_err();
    assert_eq!(fenced, ServiceError::EpochFenced { current: 1 });
    assert_eq!(
        old_client.write(
            Entry {
                timestamp: 99,
                value: authentic_value(99),
            },
            &mut rng,
        ),
        Err(ServiceError::EpochFenced { current: 1 })
    );
    assert_eq!(metrics0.retries(), 0, "fencing must bypass the retry loop");
    assert_eq!(metrics0.aborts(), 0, "fencing is a signal, not a failure");

    // Recovery: adopt the reported epoch and the re-certified strategy.
    let mut recovered = ServiceClient::new(&sys1, &service, responsive, 1)
        .with_origin(1)
        .with_epoch(1);
    assert_eq!(recovered.read(&mut rng).unwrap().entry, in_flight);
    let fresh = Entry {
        timestamp: 47,
        value: authentic_value(47),
    };
    recovered.write(fresh, &mut rng).unwrap();
    assert_eq!(new_client.read(&mut rng).unwrap().entry, fresh);
}

#[test]
fn full_reconfigure_loop_replays_identically_under_chaos_drops() {
    // The lossiest scenario family: silent drops while the crash happens.
    // Drops, detection ticks, suspect set, epoch history, and the measure
    // phase's access counts must all be pure functions of (seed, scenario).
    let drill = || {
        let scenario = ReconfigScenario::CrashWithDrops;
        let config = ReconfigConfig {
            seed: 0xd20b_5eed,
            kill: 1,
            offered_rate: 3_000.0,
            healthy_arrivals: 300,
            detect_arrivals: 200,
            migrate_arrivals: 150,
            measure_arrivals: 600,
            probe_arrivals: 80,
            ..ReconfigConfig::default()
        };
        let planner = EpochPlanner::new(7, 1).with_pool("5of7", five_of_seven());
        let service = Arc::new(LoopbackService::spawn(&FaultPlan::none(7), 2, config.seed));
        let chaos = ChaosTransport::new(
            Arc::clone(&service),
            config.seed,
            scenario.id(),
            scenario.chaos_config(),
        );
        run_reconfigure(
            scenario,
            planner,
            SuspicionConfig::counters_only(),
            &chaos,
            &service,
            &config,
        )
        .unwrap()
    };
    let a = drill();
    let b = drill();
    assert!(a.reconfigured, "{a:?}");
    assert!(a.detection_exact, "{a:?}");
    assert_eq!(a.safety_violations, 0);
    assert_eq!(a.stale_completed, 0);
    assert!(a.fenced_after_finalize > 0);
    assert_eq!(a.fingerprint, b.fingerprint);
    assert_eq!(a.trace_fingerprint, b.trace_fingerprint);
    assert_eq!(a.detect_ticks, b.detect_ticks);
    assert_eq!(a.epochs, b.epochs);
    assert_eq!(a.suspects, b.suspects);
    assert_eq!(a.access_counts, b.access_counts);
    assert_eq!(a.load_operations, b.load_operations);
}
