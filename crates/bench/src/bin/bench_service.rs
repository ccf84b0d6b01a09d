//! Machine-readable benchmark of the concurrent quorum service runtime:
//! emits `BENCH_service.json` (schema `bench_service/v2`) — the empirical
//! companion of `BENCH_load.json` and `BENCH_fp.json`.
//!
//! Three experiment families:
//!
//! * **thread scaling** — closed-loop throughput of one mid-size instance at
//!   several shard counts (lock stripes; the client threads do the work);
//! * **load validation** — ≥ 32 concurrent clients sampling the
//!   *certified-optimal* strategy (`optimal_load_oracle`) against Grid,
//!   M-Grid, FPP and boostFPP at paper sizes (n up to 1024), under a
//!   within-`b` Byzantine fault plan: the busiest server's empirical access
//!   frequency must land inside the 3σ max-order-statistic band around the
//!   certified `L(Q)` with **zero** safety violations;
//! * **availability validation** — repeated service runs under independently
//!   drawn crash plans: the empirical frequency of no-live-quorum runs must be
//!   Wilson-consistent with the analytic `F_p`.
//!
//! Run with: `cargo run --release -p bqs-bench --bin bench_service
//! [--quick] [output.json]`
//!
//! `--quick` runs small instances only and **asserts the gate**: empirical
//! load within tolerance and zero safety violations — the CI smoke step runs
//! this mode on every push, mirroring `bench_fp --quick` and
//! `bench_load --quick`.

use bqs_analysis::empirical::{empirical_availability_check, empirical_load_check};
use bqs_bench::{bench_args, time, Gate, Json};
use bqs_constructions::prelude::*;
use bqs_core::eval::Evaluator;
use bqs_core::load::optimal_load_oracle;
use bqs_core::oracle::MinWeightQuorumOracle;
use bqs_core::quorum::QuorumSystem;
use bqs_core::strategic::StrategicQuorumSystem;
use bqs_service::prelude::*;
use bqs_sim::fault::FaultPlan;
use bqs_sim::server::ByzantineStrategy;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A within-`b` Byzantine plan: `byz` servers spread across the universe,
/// alternating the three talkative attack strategies (silent servers would
/// merely shrink the responsive set).
fn byzantine_plan(n: usize, byz: usize) -> FaultPlan {
    let mut plan = FaultPlan::none(n);
    for i in 0..byz {
        let server = (i + 1) * n / (byz + 1);
        let strategy = match i % 3 {
            0 => ByzantineStrategy::FabricateHighTimestamp { value: 666 },
            1 => ByzantineStrategy::Equivocate,
            _ => ByzantineStrategy::StaleReplay,
        };
        plan = plan.with_byzantine(server.min(n - 1), strategy);
    }
    plan
}

/// Runs the ≥ 32-client certified-strategy validation on one construction:
/// its `load_validation` row.
fn validate_load<S>(
    sys: S,
    b: usize,
    byz: usize,
    clients: usize,
    shards: usize,
    ops_per_client: usize,
    gate: &mut Gate,
) -> Json
where
    S: MinWeightQuorumOracle,
{
    let name = sys.name();
    let n = sys.universe_size();
    assert!(byz <= b, "fault plan must stay within the masking level");
    let certified = optimal_load_oracle(&sys).expect("construction certifies through its oracle");
    assert!(certified.gap <= 1e-9, "{name}: gap {:e}", certified.gap);
    let strategic =
        StrategicQuorumSystem::from_certified(sys, &certified).expect("certified for this system");
    let plan = byzantine_plan(n, byz);
    // Mix the construction name into the seed: two instances with equal n
    // (both grids sit at 1024) must not replay identical client RNG streams,
    // or their validation rows would be correlated evidence.
    let name_tag = name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, c| {
        (h ^ u64::from(c)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    let config = ServiceConfig {
        clients,
        ops_per_client,
        write_fraction: 0.2,
        seed: 0x05e2_11ce ^ n as u64 ^ name_tag,
    };
    eprintln!(
        "load validation: {name} (n = {n}), {clients} clients x {ops_per_client} ops, {shards} shards, {byz} Byzantine..."
    );
    let (report, seconds) = time(|| {
        let service = LoopbackService::spawn(&plan, shards, config.seed);
        run_service(&service, &strategic, b, &config)
    });
    let c = empirical_load_check(
        &name,
        &report.metrics.accesses,
        report.load_operations(),
        certified.load,
    );
    gate.check(
        c.within_tolerance,
        format!(
            "{name}: empirical load {:.6} outside the band {:.6} +/- {:.6} (z = {:.2})",
            c.empirical_max_load, c.certified_load, c.tolerance, c.z
        ),
    );
    gate.check(
        report.is_safe(),
        format!(
            "{name}: {} safety violations under a within-b plan",
            report.ops.safety_violations()
        ),
    );
    let transport_failures = report.ops.writes_aborted + report.ops.reads_aborted;
    gate.check(
        report.ops.unavailable == 0 && transport_failures == 0,
        format!(
            "{name}: {} unavailable / {transport_failures} transport-failed operations in a live service",
            report.ops.unavailable
        ),
    );
    Json::obj([
        ("construction", Json::str(&c.system)),
        ("generator", Json::str("closed_loop")),
        ("transport", Json::str("loopback")),
        ("n", Json::num(c.n)),
        ("b", Json::num(b)),
        ("byzantine", Json::num(byz)),
        ("clients", Json::num(clients)),
        ("shards", Json::num(shards)),
        ("load_operations", Json::num(c.operations)),
        ("certified_load", Json::fixed(c.certified_load, 12)),
        ("empirical_max_load", Json::fixed(c.empirical_max_load, 12)),
        ("sigma", Json::sci(c.sigma)),
        ("tolerance", Json::sci(c.tolerance)),
        ("z", Json::fixed(c.z, 3)),
        ("within_tolerance", Json::Bool(c.within_tolerance)),
        (
            "safety_violations",
            Json::num(report.ops.safety_violations()),
        ),
        ("unavailable_operations", Json::num(report.ops.unavailable)),
        (
            "throughput_ops_per_sec",
            Json::fixed(report.throughput_ops_per_sec(), 1),
        ),
        ("seconds", Json::sci(seconds)),
    ])
}

/// Throughput of one instance across several shard counts: its
/// `thread_scaling` rows.
fn thread_scaling<S: QuorumSystem>(
    sys: &S,
    b: usize,
    shard_counts: &[usize],
    clients: usize,
    ops_per_client: usize,
    gate: &mut Gate,
) -> Vec<Json> {
    let n = sys.universe_size();
    let mut rows = Vec::new();
    for &shards in shard_counts {
        eprintln!(
            "thread scaling: {} at {shards} shard(s), {clients} clients...",
            sys.name()
        );
        let config = ServiceConfig {
            clients,
            ops_per_client,
            write_fraction: 0.2,
            seed: 0x7_5ca1e ^ shards as u64,
        };
        let service = LoopbackService::spawn(&FaultPlan::none(n), shards, config.seed);
        let report = run_service(&service, sys, b, &config);
        gate.check(
            report.is_safe(),
            format!("{}: unsafe scaling run", sys.name()),
        );
        let latency = |q| Json::num(report.metrics.latency.quantile_upper_ns(q).unwrap_or(0));
        rows.push(Json::obj([
            ("construction", Json::str(sys.name())),
            ("generator", Json::str("closed_loop")),
            ("transport", Json::str("loopback")),
            ("n", Json::num(n)),
            ("shards", Json::num(shards)),
            ("clients", Json::num(clients)),
            ("operations", Json::num(report.operations)),
            ("round_trips", Json::num(report.load_operations())),
            ("seconds", Json::sci(report.elapsed_seconds)),
            (
                "throughput_ops_per_sec",
                Json::fixed(report.throughput_ops_per_sec(), 1),
            ),
            ("latency_p50_upper_ns", latency(0.50)),
            ("latency_p99_upper_ns", latency(0.99)),
        ]));
    }
    rows
}

/// Empirical `F_p` through the whole service stack: repeated short runs under
/// independently drawn crash plans at rate `p`, counting the runs in which no
/// operation found a live quorum. Returns its `availability_validation` row.
///
/// All trials share **one** service: `reset_plan` swaps the replica set and
/// reseeds the per-shard RNG streams between trials instead of building a
/// fresh service per plan, and each run reports only its own metrics.
fn validate_availability<S: QuorumSystem>(
    sys: &S,
    b: usize,
    p: f64,
    trials: usize,
    gate: &mut Gate,
) -> Json {
    let n = sys.universe_size();
    let analytic = Evaluator::new().crash_probability(sys, p).value;
    eprintln!(
        "availability validation: {} at p = {p} ({trials} trials, one shared pool)...",
        sys.name()
    );
    let mut rng = StdRng::seed_from_u64(0xfa_117 ^ n as u64);
    let mut unavailable = 0usize;
    let mut service = LoopbackService::spawn(&FaultPlan::none(n), 1, 0);
    let ((), seconds) = time(|| {
        for trial in 0..trials {
            let plan = FaultPlan::independent_crashes(n, p, &mut rng);
            service.reset_plan(&plan, 0xdead ^ trial as u64);
            let config = ServiceConfig {
                clients: 2,
                ops_per_client: 8,
                write_fraction: 0.5,
                seed: 0xdead ^ trial as u64,
            };
            let report = run_service(&service, sys, b, &config);
            gate.check(
                report.is_safe(),
                format!("{}: safety violation under a crash-only plan", sys.name()),
            );
            if report.ops.unavailable == report.operations {
                unavailable += 1;
            } else {
                gate.check(
                    report.ops.unavailable == 0,
                    format!(
                        "{}: partially unavailable run under a static crash plan",
                        sys.name()
                    ),
                );
            }
        }
    });
    let c = empirical_availability_check(sys.name(), p, trials, unavailable, analytic);
    gate.check(
        c.consistent,
        format!(
            "{}: empirical F_p {:.4} (95% CI [{:.4}, {:.4}]) inconsistent with analytic {:.4}",
            c.system, c.empirical_fp, c.ci95.0, c.ci95.1, c.analytic_fp
        ),
    );
    Json::obj([
        ("construction", Json::str(&c.system)),
        ("generator", Json::str("closed_loop")),
        ("transport", Json::str("loopback")),
        ("pool_reused", Json::Bool(true)),
        ("n", Json::num(n)),
        ("p", Json::num(c.p)),
        ("trials", Json::num(c.trials)),
        ("unavailable_trials", Json::num(c.unavailable_trials)),
        ("empirical_fp", Json::fixed(c.empirical_fp, 6)),
        ("analytic_fp", Json::fixed(c.analytic_fp, 6)),
        ("ci95_low", Json::fixed(c.ci95.0, 6)),
        ("ci95_high", Json::fixed(c.ci95.1, 6)),
        ("consistent", Json::Bool(c.consistent)),
        ("seconds", Json::sci(seconds)),
    ])
}

fn main() {
    let (quick, output) = bench_args("bench_service", "BENCH_service.json");
    let mut gate = Gate::default();

    // --- Thread scaling: one mid-size instance across shard counts. -------
    let scaling = if quick {
        let sys = MGridSystem::new(5, 2).unwrap();
        thread_scaling(&sys, 2, &[1, 2, 4], 8, 150, &mut gate)
    } else {
        let sys = MGridSystem::new(16, 5).unwrap();
        thread_scaling(&sys, 5, &[1, 2, 4, 8], 16, 500, &mut gate)
    };

    // --- Certified-load validation under concurrency. ---------------------
    let load_rows = if quick {
        vec![
            validate_load(MGridSystem::new(5, 2).unwrap(), 2, 2, 8, 2, 400, &mut gate),
            validate_load(GridSystem::new(8, 2).unwrap(), 2, 2, 8, 2, 400, &mut gate),
        ]
    } else {
        // The paper-size matrix: n up to 1024, >= 32 concurrent clients,
        // certified strategies from the column-generation oracle.
        vec![
            validate_load(
                GridSystem::new(32, 10).unwrap(),
                10,
                5,
                32,
                4,
                500,
                &mut gate,
            ),
            validate_load(
                MGridSystem::new(32, 15).unwrap(),
                15,
                6,
                32,
                4,
                500,
                &mut gate,
            ),
            validate_load(FppSystem::new(31).unwrap(), 0, 0, 32, 4, 2_000, &mut gate),
            validate_load(
                BoostFppSystem::new(3, 15).unwrap(),
                15,
                5,
                32,
                4,
                1_000,
                &mut gate,
            ),
        ]
    };

    // --- Availability validation through the service stack. ---------------
    // One shared service per instance (reset_plan between trials).
    let availability = if quick {
        Vec::new()
    } else {
        let grid = GridSystem::new(5, 1).unwrap();
        let mgrid = MGridSystem::new(5, 2).unwrap();
        let grid_large = GridSystem::new(10, 1).unwrap();
        let mgrid_large = MGridSystem::new(11, 2).unwrap();
        vec![
            validate_availability(&grid, 1, 0.20, 500, &mut gate),
            validate_availability(&mgrid, 2, 0.15, 500, &mut gate),
            validate_availability(&grid_large, 1, 0.15, 500, &mut gate),
            validate_availability(&mgrid_large, 2, 0.10, 500, &mut gate),
        ]
    };

    // Schema v2 is additive over v1: every v1 field is still present with
    // the same name and meaning; rows gain `generator` (closed_loop /
    // open_loop) and `transport` (loopback / uds / tcp) so they can be read
    // side-by-side with `BENCH_net.json`'s open-loop socket rows.
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let report = Json::obj([
        ("schema", Json::str("bench_service/v2")),
        ("available_parallelism", Json::num(cores)),
        ("quick", Json::Bool(quick)),
        ("thread_scaling", Json::arr(scaling)),
        ("load_validation", Json::arr(load_rows)),
        ("availability_validation", Json::arr(availability)),
    ]);
    gate.finish(&output, &report);
}
