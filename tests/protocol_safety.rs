//! End-to-end protocol safety: for every construction, the replicated register built
//! on it stays consistent under any fault plan within the construction's design
//! envelope (at most `b` Byzantine servers plus crashes within the resilience), and
//! degrades to unavailability — never to inconsistency — beyond it.

use std::time::Duration;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use byzantine_quorums::prelude::*;

/// The register over `system` under `plan`, driven by one sequential client
/// (so every read is checked against the last completed write) from `seed`.
fn run_register<Q: QuorumSystem>(
    system: &Q,
    b: usize,
    plan: &FaultPlan,
    operations: usize,
    write_fraction: f64,
    seed: u64,
) -> ServiceReport {
    let config = ServiceConfig {
        clients: 1,
        ops_per_client: operations,
        write_fraction,
        seed,
    };
    run_service(&LoopbackService::spawn(plan, 1, seed), system, b, &config)
}

/// Runs one workload under a plan within the design envelope and asserts
/// safety and progress.
fn assert_safe<Q: QuorumSystem>(system: Q, b: usize, plan: FaultPlan, seed: u64) {
    let report = run_register(&system, b, &plan, 400, 0.3, seed);
    assert!(report.is_safe(), "safety violated: {report:?}");
    assert!(report.ops.reads > 0, "no progress: {report:?}");
}

#[test]
fn threshold_register_is_safe_under_full_byzantine_budget() {
    for b in 1..=3usize {
        let sys = ThresholdSystem::minimal_masking(b).unwrap();
        let n = sys.universe_size();
        let mut rng = StdRng::seed_from_u64(b as u64);
        let plan = FaultPlan::random(
            n,
            b,
            0,
            ByzantineStrategy::FabricateHighTimestamp {
                value: u64::MAX / 2,
            },
            &mut rng,
        );
        assert_safe(sys, b, plan, 100 + b as u64);
    }
}

#[test]
fn every_construction_masks_its_design_b_with_mixed_attacks() {
    let strategies = [
        ByzantineStrategy::FabricateHighTimestamp { value: 0xBAD },
        ByzantineStrategy::StaleReplay,
        ByzantineStrategy::Equivocate,
    ];
    // (system, b) pairs sized for quick simulation.
    let mgrid = MGridSystem::new(7, 3).unwrap();
    let grid = GridSystem::new(7, 2).unwrap();
    let rt = RtSystem::new(4, 3, 2).unwrap();
    let boost = BoostFppSystem::new(2, 1).unwrap();
    let mpath = MPathSystem::new(6, 2).unwrap();

    let mut seed = 1u64;
    macro_rules! check {
        ($sys:expr, $b:expr) => {{
            let sys = $sys;
            let b = $b;
            let n = sys.universe_size();
            let mut plan = FaultPlan::none(n);
            for i in 0..b {
                plan = plan.with_byzantine((i * 7) % n, strategies[i % strategies.len()]);
            }
            // The paper's hybrid model: b Byzantine servers plus a crash.
            assert_safe(sys, b, plan.with_crashed(n - 1), seed);
            seed += 1;
        }};
    }
    check!(mgrid, 3);
    check!(grid, 2);
    check!(rt, 1);
    check!(boost, 1);
    check!(mpath, 2);
    let _ = seed;
}

#[test]
fn crashes_beyond_resilience_never_produce_wrong_reads() {
    // Crash 3 of 5 servers of a 4-of-5 threshold: everything stalls, nothing lies.
    let sys = ThresholdSystem::minimal_masking(1).unwrap();
    let plan = FaultPlan::none(5)
        .with_crashed(0)
        .with_crashed(1)
        .with_crashed(2);
    let report = run_register(&sys, 1, &plan, 200, 0.5, 3);
    assert!(report.is_safe());
    assert_eq!(report.ops.reads, 0);
    assert_eq!(report.ops.writes, 0);
    assert_eq!(report.ops.unavailable, 200);
}

/// The register over `Threshold::minimal_masking(b)` on `backend`, with
/// servers `0..b` replaying their first write and server `n − 1` crashed at
/// runtime — after the failure detector's view was taken, so the one writer
/// keeps addressing it. Runs `operations` closed-loop operations (half of
/// them writes, the first always one) from `seed`, as `run_service` does for
/// one client.
fn run_with_runtime_crash(backend: Backend, b: usize, operations: usize, seed: u64) -> OpTally {
    let system = ThresholdSystem::minimal_masking(b).unwrap();
    let n = system.universe_size();
    let plan = (0..b).fold(FaultPlan::none(n), |plan, server| {
        plan.with_byzantine(server, ByzantineStrategy::StaleReplay)
    });
    let deployment = Deployment::start(backend, &plan, 1, seed, NetConfig::default()).unwrap();
    deployment.service().crash_servers(&[n - 1]);
    let responsive = deployment.service().responsive_set().clone();
    let mut client = ServiceClient::new(&system, &deployment, responsive, b);
    let mut rng = StdRng::seed_from_u64(seed);
    let clock = TimestampOracle::new();
    let mut tally = OpTally::default();
    for op in 0..operations {
        let is_write = op == 0 || rng.gen::<f64>() < 0.5;
        tally.perform(&mut client, is_write, &clock, &mut rng);
    }
    tally
}

#[test]
fn a_server_crashed_at_runtime_never_acknowledges_a_write() {
    // A write acknowledged by the crashed server would "complete" on a
    // quorum whose real holders fall short of the masking intersection; the
    // replaying servers then outvote the last write and a read goes stale.
    // Unacknowledged writes must not complete: unavailable, never wrong.
    for backend in [Backend::Loopback, Backend::Uds] {
        for b in 1..=2 {
            let mut total = OpTally::default();
            for seed in 0..40 {
                total += run_with_runtime_crash(backend, b, 200, seed);
            }
            let name = backend.name();
            assert_eq!(total.stale, 0, "{name}, b = {b}: {total:?}");
            assert_eq!(total.fabricated, 0, "{name}, b = {b}: {total:?}");
            assert!(total.reads > 0, "{name}, b = {b}: {total:?}");
            assert!(total.writes_aborted > 0, "{name}, b = {b}: {total:?}");
        }
    }
}

/// How the reads of a crash-after-the-write run ended.
#[derive(Debug, Default)]
struct ReadCounts {
    resolved: u64,
    unresolved: u64,
    stale: u64,
    fabricated: u64,
}

/// A client over the full view of `Threshold::minimal_masking(b)` on
/// `backend`, with servers `0..b` replaying the oldest entry they hold, and a
/// retry budget that rides out the no-answers of a crashed server.
fn crash_after_write_setup(backend: Backend, b: usize, seed: u64) -> (ThresholdSystem, Deployment) {
    let system = ThresholdSystem::minimal_masking(b).unwrap();
    let n = system.universe_size();
    let plan = (0..b).fold(FaultPlan::none(n), |plan, server| {
        plan.with_byzantine(server, ByzantineStrategy::StaleReplay)
    });
    let deployment = Deployment::start(backend, &plan, 1, seed, NetConfig::default()).unwrap();
    (system, deployment)
}

/// Writes timestamps 1 and 2, crashes a correct member of the second write's
/// quorum — a holder of the last completed write — and reads 20 times.
fn crash_after_the_write(backend: Backend, b: usize, seed: u64) -> ReadCounts {
    let (system, deployment) = crash_after_write_setup(backend, b, seed);
    let full = ServerSet::full(system.universe_size());
    let mut client =
        ServiceClient::new(&system, &deployment, full, b).with_retries(64, Duration::ZERO);
    let mut rng = StdRng::seed_from_u64(seed);
    let entry = |timestamp| Entry {
        timestamp,
        value: authentic_value(timestamp),
    };
    client.write(entry(1), &mut rng).unwrap();
    let quorum = client.write(entry(2), &mut rng).unwrap();
    let holder = quorum.iter().find(|&s| s >= b).unwrap();
    deployment.service().crash_servers(&[holder]);
    let mut counts = ReadCounts::default();
    for _ in 0..20 {
        match client.read(&mut rng) {
            Ok(read) => {
                counts.resolved += 1;
                counts.stale += u64::from(read.entry.timestamp < 2);
                counts.fabricated += u64::from(read.entry != entry(read.entry.timestamp));
            }
            Err(_) => counts.unresolved += 1,
        }
    }
    counts
}

#[test]
fn a_holder_of_the_last_write_crashing_never_makes_a_read_stale() {
    // The masking argument needs every correct member of the intersection:
    // 2b + 1 shared servers less b liars leave b + 1 holders of the last
    // write only if all of them answer. A read must therefore resolve over a
    // full quorum of answers, or the replayed older entry outvotes the last
    // write once one of its holders has crashed.
    for backend in [Backend::Loopback, Backend::Uds] {
        for b in 1..=2 {
            let mut total = ReadCounts::default();
            for seed in 0..40 {
                let counts = crash_after_the_write(backend, b, seed);
                total.resolved += counts.resolved;
                total.unresolved += counts.unresolved;
                total.stale += counts.stale;
                total.fabricated += counts.fabricated;
            }
            let name = backend.name();
            assert_eq!(
                (total.stale, total.fabricated),
                (0, 0),
                "{name}, b = {b}: {total:?}"
            );
            assert_eq!(total.unresolved, 0, "{name}, b = {b}: {total:?}");
        }
    }
}

#[test]
fn write_after_query_stays_above_the_last_completed_write_after_a_crash() {
    // Two writers share the register through query-then-write. After four
    // writes a correct server crashes, and the next write must still take a
    // timestamp above every completed one — else no read ever returns it.
    let writers = 2u64;
    for backend in [Backend::Loopback, Backend::Uds] {
        for b in 1..=2 {
            let mut below = Vec::new();
            for seed in 0..40 {
                let (system, deployment) = crash_after_write_setup(backend, b, seed);
                let n = system.universe_size();
                let mut clients: Vec<_> = (0..=writers)
                    .map(|origin| {
                        ServiceClient::new(&system, &deployment, ServerSet::full(n), b)
                            .with_origin(origin)
                            .with_retries(64, Duration::ZERO)
                    })
                    .collect();
                let mut rng = StdRng::seed_from_u64(seed);
                let mut completed = 0;
                for op in 0..4u64 {
                    let writer = op % writers;
                    let written = clients[writer as usize]
                        .write_after_query(op + 1, writer, writers, &mut rng)
                        .unwrap();
                    completed = written.timestamp;
                }
                let crashed = b + seed as usize % (n - b);
                deployment.service().crash_servers(&[crashed]);
                let last = clients[0]
                    .write_after_query(5, 0, writers, &mut rng)
                    .unwrap();
                let read = clients[writers as usize].read(&mut rng).unwrap().entry;
                if last.timestamp <= completed || read != last {
                    below.push((seed, completed, last, read));
                }
            }
            let name = backend.name();
            assert!(
                below.is_empty(),
                "{name}, b = {b}: {} of 40 seeds: {below:?}",
                below.len()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random fault plans within the design envelope of the minimal threshold system
    /// never violate safety, for any mix of Byzantine strategies and crash counts up
    /// to the resilience.
    #[test]
    fn random_faults_within_envelope_are_masked(
        b in 1usize..4,
        crashes in 0usize..3,
        strategy_idx in 0usize..4,
        seed in 0u64..1000,
    ) {
        let sys = ThresholdSystem::minimal_masking(b).unwrap();
        let n = sys.universe_size();
        let f = sys.min_transversal() - 1; // = b for this construction
        prop_assume!(crashes <= f);
        prop_assume!(b + crashes <= n);
        let strategy = match strategy_idx {
            0 => ByzantineStrategy::FabricateHighTimestamp { value: 42_424_242 },
            1 => ByzantineStrategy::StaleReplay,
            2 => ByzantineStrategy::Equivocate,
            _ => ByzantineStrategy::Silent,
        };
        // Silent Byzantine servers consume responsiveness like crashes do; keep the
        // combined unresponsive count within the resilience.
        if matches!(strategy, ByzantineStrategy::Silent) {
            prop_assume!(b + crashes <= f);
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let plan = FaultPlan::random(n, b, crashes, strategy, &mut rng);
        let report = run_register(&sys, b, &plan, 200, 0.3, seed);
        prop_assert!(report.is_safe(), "{report:?}");
        // Within the envelope the system must also make progress.
        if !matches!(strategy, ByzantineStrategy::Silent) && crashes <= f {
            prop_assert!(report.ops.reads + report.ops.writes > 0);
        }
    }

    /// The empirical load measured at the replicas converges to the analytic load
    /// of the sampled strategy in the failure-free case, for the M-Grid family.
    #[test]
    fn empirical_load_tracks_analytic_load(side in 4usize..8, seed in 0u64..100) {
        let b = MGridSystem::max_b(side).min(3);
        let sys = MGridSystem::new(side, b).unwrap();
        let analytic = sys.analytic_load();
        let n = sys.universe_size();
        let report = run_register(&sys, b, &FaultPlan::none(n), 1500, 0.5, seed);
        prop_assert!(report.is_safe());
        let empirical = report.max_empirical_load();
        prop_assert!(
            (empirical - analytic).abs() < 0.12,
            "side={side}: empirical {empirical} vs analytic {analytic}"
        );
    }
}
