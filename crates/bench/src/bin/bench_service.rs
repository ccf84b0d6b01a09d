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

use bqs_analysis::empirical::{
    empirical_availability_check, empirical_load_check, EmpiricalAvailabilityCheck,
    EmpiricalLoadCheck,
};
use bqs_bench::{bench_args, exit_on_failures, json_escape, time};
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

struct ScalingRow {
    construction: String,
    n: usize,
    shards: usize,
    clients: usize,
    report: ServiceReport,
}

struct LoadRow {
    check: EmpiricalLoadCheck,
    b: usize,
    byzantine: usize,
    clients: usize,
    shards: usize,
    report: ServiceReport,
    seconds: f64,
}

struct AvailabilityRow {
    check: EmpiricalAvailabilityCheck,
    n: usize,
    seconds: f64,
}

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

/// Runs the ≥ 32-client certified-strategy validation on one construction.
fn validate_load<S>(
    sys: S,
    b: usize,
    byz: usize,
    clients: usize,
    shards: usize,
    ops_per_client: usize,
    failures: &mut Vec<String>,
) -> LoadRow
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
    let check = empirical_load_check(
        &name,
        &report.metrics.accesses,
        report.load_operations(),
        certified.load,
    );
    if !check.within_tolerance {
        failures.push(format!(
            "{name}: empirical load {:.6} outside the band {:.6} +/- {:.6} (z = {:.2})",
            check.empirical_max_load, check.certified_load, check.tolerance, check.z
        ));
    }
    if !report.is_safe() {
        failures.push(format!(
            "{name}: {} safety violations under a within-b plan",
            report.ops.safety_violations()
        ));
    }
    let transport_failures = report.ops.writes_aborted + report.ops.reads_aborted;
    if report.ops.unavailable > 0 || transport_failures > 0 {
        failures.push(format!(
            "{name}: {} unavailable / {transport_failures} transport-failed operations in a live service",
            report.ops.unavailable
        ));
    }
    LoadRow {
        check,
        b,
        byzantine: byz,
        clients,
        shards,
        report,
        seconds,
    }
}

/// Throughput of one instance across several shard counts.
fn thread_scaling<S: QuorumSystem>(
    sys: &S,
    b: usize,
    shard_counts: &[usize],
    clients: usize,
    ops_per_client: usize,
) -> Vec<ScalingRow> {
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
        assert!(report.is_safe(), "{}: unsafe scaling run", sys.name());
        rows.push(ScalingRow {
            construction: sys.name(),
            n,
            shards,
            clients,
            report,
        });
    }
    rows
}

/// Empirical `F_p` through the whole service stack: repeated short runs under
/// independently drawn crash plans at rate `p`, counting the runs in which no
/// operation found a live quorum.
///
/// All trials share **one** service: `reset_plan` swaps the replica set and
/// reseeds the per-shard RNG streams between trials instead of building a
/// fresh service per plan, and each run reports only its own metrics.
fn validate_availability<S: QuorumSystem>(
    sys: &S,
    b: usize,
    p: f64,
    trials: usize,
    failures: &mut Vec<String>,
) -> AvailabilityRow {
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
            if !report.is_safe() {
                failures.push(format!(
                    "{}: safety violation under a crash-only plan",
                    sys.name()
                ));
            }
            if report.ops.unavailable == report.operations {
                unavailable += 1;
            } else if report.ops.unavailable > 0 {
                failures.push(format!(
                    "{}: partially unavailable run under a static crash plan",
                    sys.name()
                ));
            }
        }
    });
    let check = empirical_availability_check(sys.name(), p, trials, unavailable, analytic);
    if !check.consistent {
        failures.push(format!(
            "{}: empirical F_p {:.4} (95% CI [{:.4}, {:.4}]) inconsistent with analytic {:.4}",
            check.system, check.empirical_fp, check.ci95.0, check.ci95.1, check.analytic_fp
        ));
    }
    AvailabilityRow { check, n, seconds }
}

fn main() {
    let (quick, output) = bench_args("bench_service", "BENCH_service.json");
    let mut failures: Vec<String> = Vec::new();

    // --- Thread scaling: one mid-size instance across shard counts. -------
    let scaling = if quick {
        let sys = MGridSystem::new(5, 2).unwrap();
        thread_scaling(&sys, 2, &[1, 2, 4], 8, 150)
    } else {
        let sys = MGridSystem::new(16, 5).unwrap();
        thread_scaling(&sys, 5, &[1, 2, 4, 8], 16, 500)
    };

    // --- Certified-load validation under concurrency. ---------------------
    let mut load_rows: Vec<LoadRow> = Vec::new();
    if quick {
        load_rows.push(validate_load(
            MGridSystem::new(5, 2).unwrap(),
            2,
            2,
            8,
            2,
            400,
            &mut failures,
        ));
        load_rows.push(validate_load(
            GridSystem::new(8, 2).unwrap(),
            2,
            2,
            8,
            2,
            400,
            &mut failures,
        ));
    } else {
        // The paper-size matrix: n up to 1024, >= 32 concurrent clients,
        // certified strategies from the column-generation oracle.
        load_rows.push(validate_load(
            GridSystem::new(32, 10).unwrap(),
            10,
            5,
            32,
            4,
            500,
            &mut failures,
        ));
        load_rows.push(validate_load(
            MGridSystem::new(32, 15).unwrap(),
            15,
            6,
            32,
            4,
            500,
            &mut failures,
        ));
        load_rows.push(validate_load(
            FppSystem::new(31).unwrap(),
            0,
            0,
            32,
            4,
            2_000,
            &mut failures,
        ));
        load_rows.push(validate_load(
            BoostFppSystem::new(3, 15).unwrap(),
            15,
            5,
            32,
            4,
            1_000,
            &mut failures,
        ));
    }

    // --- Availability validation through the service stack. ---------------
    // One shared service per instance (reset_plan between trials).
    let availability: Vec<AvailabilityRow> = if quick {
        Vec::new()
    } else {
        let grid = GridSystem::new(5, 1).unwrap();
        let mgrid = MGridSystem::new(5, 2).unwrap();
        let grid_large = GridSystem::new(10, 1).unwrap();
        let mgrid_large = MGridSystem::new(11, 2).unwrap();
        vec![
            validate_availability(&grid, 1, 0.20, 500, &mut failures),
            validate_availability(&mgrid, 2, 0.15, 500, &mut failures),
            validate_availability(&grid_large, 1, 0.15, 500, &mut failures),
            validate_availability(&mgrid_large, 2, 0.10, 500, &mut failures),
        ]
    };

    // --- Emit JSON. --------------------------------------------------------
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut json = String::new();
    json.push_str("{\n");
    // Schema v2 is additive over v1: every v1 field is still present with
    // the same name and meaning; rows gain `generator` (closed_loop /
    // open_loop) and `transport` (loopback / uds / tcp) so they can be read
    // side-by-side with `BENCH_net.json`'s open-loop socket rows.
    json.push_str(&format!(
        "  \"schema\": \"bench_service/v2\",\n  \"available_parallelism\": {cores},\n  \"quick\": {quick},\n"
    ));
    json.push_str("  \"thread_scaling\": [\n");
    for (i, r) in scaling.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"construction\": \"{}\", \"generator\": \"closed_loop\", \"transport\": \"loopback\", \"n\": {}, \"shards\": {}, \"clients\": {}, \"operations\": {}, \"round_trips\": {}, \"seconds\": {:e}, \"throughput_ops_per_sec\": {:.1}, \"latency_p50_upper_ns\": {}, \"latency_p99_upper_ns\": {}}}{}\n",
            json_escape(&r.construction),
            r.n,
            r.shards,
            r.clients,
            r.report.operations,
            r.report.load_operations(),
            r.report.elapsed_seconds,
            r.report.throughput_ops_per_sec(),
            r.report.metrics.latency.quantile_upper_ns(0.50).unwrap_or(0),
            r.report.metrics.latency.quantile_upper_ns(0.99).unwrap_or(0),
            if i + 1 == scaling.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n  \"load_validation\": [\n");
    for (i, r) in load_rows.iter().enumerate() {
        let c = &r.check;
        json.push_str(&format!(
            "    {{\"construction\": \"{}\", \"generator\": \"closed_loop\", \"transport\": \"loopback\", \"n\": {}, \"b\": {}, \"byzantine\": {}, \"clients\": {}, \"shards\": {}, \"load_operations\": {}, \"certified_load\": {:.12}, \"empirical_max_load\": {:.12}, \"sigma\": {:e}, \"tolerance\": {:e}, \"z\": {:.3}, \"within_tolerance\": {}, \"safety_violations\": {}, \"unavailable_operations\": {}, \"throughput_ops_per_sec\": {:.1}, \"seconds\": {:e}}}{}\n",
            json_escape(&c.system),
            c.n,
            r.b,
            r.byzantine,
            r.clients,
            r.shards,
            c.operations,
            c.certified_load,
            c.empirical_max_load,
            c.sigma,
            c.tolerance,
            c.z,
            c.within_tolerance,
            r.report.ops.safety_violations(),
            r.report.ops.unavailable,
            r.report.throughput_ops_per_sec(),
            r.seconds,
            if i + 1 == load_rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n  \"availability_validation\": [\n");
    for (i, r) in availability.iter().enumerate() {
        let c = &r.check;
        json.push_str(&format!(
            "    {{\"construction\": \"{}\", \"generator\": \"closed_loop\", \"transport\": \"loopback\", \"pool_reused\": true, \"n\": {}, \"p\": {}, \"trials\": {}, \"unavailable_trials\": {}, \"empirical_fp\": {:.6}, \"analytic_fp\": {:.6}, \"ci95_low\": {:.6}, \"ci95_high\": {:.6}, \"consistent\": {}, \"seconds\": {:e}}}{}\n",
            json_escape(&c.system),
            r.n,
            c.p,
            c.trials,
            c.unavailable_trials,
            c.empirical_fp,
            c.analytic_fp,
            c.ci95.0,
            c.ci95.1,
            c.consistent,
            r.seconds,
            if i + 1 == availability.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&output, &json).expect("write benchmark output");

    // --- Human-readable summary. -------------------------------------------
    println!(
        "{:<22} {:>5} {:>7} {:>8} {:>12} {:>14}",
        "thread scaling", "n", "shards", "clients", "ops", "ops/sec"
    );
    for r in &scaling {
        println!(
            "{:<22} {:>5} {:>7} {:>8} {:>12} {:>14.0}",
            r.construction,
            r.n,
            r.shards,
            r.clients,
            r.report.operations,
            r.report.throughput_ops_per_sec()
        );
    }
    println!(
        "\n{:<22} {:>5} {:>3} {:>10} {:>12} {:>12} {:>8} {:>7} {:>6}",
        "load validation", "n", "b", "ops", "certified", "empirical", "z", "within", "viol"
    );
    for r in &load_rows {
        let c = &r.check;
        println!(
            "{:<22} {:>5} {:>3} {:>10} {:>12.6} {:>12.6} {:>8.2} {:>7} {:>6}",
            c.system,
            c.n,
            r.b,
            c.operations,
            c.certified_load,
            c.empirical_max_load,
            c.z,
            c.within_tolerance,
            r.report.ops.safety_violations()
        );
    }
    if !availability.is_empty() {
        println!(
            "\n{:<22} {:>5} {:>6} {:>7} {:>12} {:>12} {:>22}",
            "availability", "n", "p", "trials", "empirical", "analytic", "95% CI"
        );
        for r in &availability {
            let c = &r.check;
            println!(
                "{:<22} {:>5} {:>6} {:>7} {:>12.4} {:>12.4} [{:>8.4}, {:>8.4}]",
                c.system, r.n, c.p, c.trials, c.empirical_fp, c.analytic_fp, c.ci95.0, c.ci95.1
            );
        }
    }
    println!("wrote {output}");

    exit_on_failures(&failures);
}
