//! End-to-end protocol safety: for every construction, the replicated register built
//! on it stays consistent under any fault plan within the construction's design
//! envelope (at most `b` Byzantine servers plus crashes within the resilience), and
//! degrades to unavailability — never to inconsistency — beyond it.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

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
