//! Machine-readable reconfiguration sweep: emits `BENCH_reconfig.json`
//! (schema `bench_reconfig/v1`) — the full epoch-based reconfiguration drill
//! of `bqs-epoch` run under every [`ReconfigScenario`] family over every
//! transport backend (in-process loopback, Unix-domain socket, TCP
//! loopback).
//!
//! Each cell kills `k` servers of a 5×5 universe under open-loop load and
//! gates the whole story, per (scenario × backend):
//!
//! * **hysteresis** — the manager stays steady on healthy evidence;
//! * **detection** — the suspicion engine flags *exactly* the killed set and
//!   a reconfiguration fires within the detection budget;
//! * **re-certification** — the planner re-certifies over the survivors
//!   (with the construction switch the pools make available: the M-Grid
//!   wins the healthy universe on load, the Grid wins the survivors);
//! * **re-convergence** — after the handoff, the busiest server's empirical
//!   load sits within the max-order-statistic 3σ band of the *new*
//!   certified `L(Q)` ([`empirical_load_check`]);
//! * **safety** — zero fabricated or stale reads in any phase, zero operations
//!   completed at the fenced epoch (a completed stale operation would have
//!   mixed strategies), and the post-finalize probe is fenced in-band;
//! * **replay** — on loopback, re-running a (seed, scenario) pair reproduces
//!   the identical outcome fingerprint and chaos trace.
//!
//! Run with: `cargo run --release -p bqs-bench --bin bench_reconfig
//! [--quick] [output.json]`
//!
//! `--quick` shrinks the per-phase workload; the matrix and the gate are
//! identical in both modes. Any gate failure is listed in the JSON, printed
//! to stderr, and turns into a nonzero exit status (CI runs `--quick` on
//! every push).

use std::sync::Arc;
use std::time::Duration;

use bqs_analysis::{empirical_load_check, EmpiricalLoadCheck};
use bqs_bench::{bench_args, time, Gate, Json};
use bqs_chaos::prelude::*;
use bqs_chaos::ReconfigScenario;
use bqs_constructions::prelude::*;
use bqs_epoch::prelude::*;
use bqs_net::prelude::*;
use bqs_sim::fault::FaultPlan;

/// Masking level of both pools.
const B: usize = 1;

/// Grid side: `n = 25` servers.
const SIDE: usize = 5;

/// Servers the drill crashes (the prefix `{0, 1, 2}` — one corner of the
/// grid: row 0 of the Grid pool, the top of columns 0–2 of both).
const KILL: usize = 3;

/// Base seed of every cell (mixed per scenario and backend below).
const SEED: u64 = 0x2ec0_4f16;

/// The candidate pools every drill re-certifies over: the paper's Grid and
/// M-Grid over the same 25 servers. On the healthy universe the M-Grid
/// certifies the lower load; after the corner kill the surviving M-Grid
/// quorums all share their two full columns while the Grid still spreads its
/// column choice — so re-certification switches constructions.
fn planner() -> EpochPlanner {
    let n = SIDE * SIDE;
    let grid = GridSystem::new(SIDE, B)
        .expect("grid construction")
        .to_explicit(1 << 12)
        .expect("grid quorum list");
    let mgrid = MGridSystem::new(SIDE, B)
        .expect("m-grid construction")
        .to_explicit(1 << 12)
        .expect("m-grid quorum list");
    EpochPlanner::new(n, B)
        .with_pool("Grid(5x5, b=1)", grid.quorums().to_vec())
        .with_pool("M-Grid(5x5, b=1)", mgrid.quorums().to_vec())
}

/// Per-cell seed: one deterministic stream per (scenario, backend).
fn cell_seed(scenario: ReconfigScenario, backend: Backend) -> u64 {
    SEED ^ (scenario.id() << 8) ^ (backend.id() << 16)
}

/// Checks one drill's gate and builds its `runs` row. Only a reconfigured
/// drill has a measure phase, so only its row carries the load band (the
/// others write `null` for `sigma`, `tolerance`, `z` and
/// `within_tolerance`).
fn run_row(backend: &str, seed: u64, o: &ReconfigOutcome, seconds: f64, gate: &mut Gate) -> Json {
    let cell = format!("{backend}/{}", o.scenario.name());
    gate.check(
        o.healthy_steady,
        format!("{cell}: the manager reconfigured on healthy evidence (hysteresis must hold)"),
    );
    gate.check(
        o.reconfigured,
        format!(
            "{cell}: no reconfiguration within {} detection bursts",
            o.detect_ticks
        ),
    );
    gate.check(
        o.detection_exact,
        format!(
            "{cell}: suspects {:?} != killed {:?} (detection must be exact)",
            o.suspects, o.killed
        ),
    );
    gate.check(
        o.safety_violations == 0,
        format!(
            "{cell}: {} fabricated or stale read(s) — masking broke during the handoff",
            o.safety_violations
        ),
    );
    gate.check(
        o.stale_completed == 0,
        format!(
            "{cell}: {} operation(s) completed at the fenced epoch (mixed-strategy quorum)",
            o.stale_completed
        ),
    );
    let check = o.reconfigured.then(|| {
        empirical_load_check(
            &cell,
            &o.access_counts,
            o.load_operations.max(1),
            o.recertified_load,
        )
    });
    if let Some(c) = &check {
        gate.check(
            o.fenced_after_finalize > 0,
            format!("{cell}: the stale probe was never fenced (the gate must answer in-band)"),
        );
        gate.check(
            c.within_tolerance,
            format!(
                "{cell}: busiest-server load {:.4} outside the 3-sigma band of certified {:.4} (tolerance {:.4}, z = {:.2})",
                c.empirical_max_load, c.certified_load, c.tolerance, c.z
            ),
        );
    }
    let band = |field: fn(&EmpiricalLoadCheck) -> Json| check.as_ref().map_or(Json::Null, field);
    let phases = o.phases.iter().map(|p| {
        Json::obj([
            ("name", Json::str(p.name)),
            ("epoch", Json::num(p.epoch)),
            ("scheduled", Json::num(p.scheduled)),
            ("completed", Json::num(p.completed)),
            ("fenced", Json::num(p.fenced)),
            ("timed_out", Json::num(p.timed_out)),
        ])
    });
    Json::obj([
        ("backend", Json::str(backend)),
        ("scenario", Json::str(o.scenario.name())),
        ("seed", Json::num(seed)),
        ("killed", Json::arr(o.killed.iter().map(Json::num))),
        ("healthy_steady", Json::Bool(o.healthy_steady)),
        ("reconfigured", Json::Bool(o.reconfigured)),
        ("detect_ticks", Json::num(o.detect_ticks)),
        ("suspects", Json::arr(o.suspects.iter().map(Json::num))),
        ("detection_exact", Json::Bool(o.detection_exact)),
        ("epochs", Json::arr(o.epochs.iter().map(Json::num))),
        (
            "source",
            Json::str(o.source.as_ref().map_or("none", |s| s.label())),
        ),
        ("initial_load", Json::sci(o.initial_load)),
        ("recertified_load", Json::sci(o.recertified_load)),
        ("measured_max_load", Json::sci(o.measured_max_load)),
        ("sigma", band(|c| Json::sci(c.sigma))),
        ("tolerance", band(|c| Json::sci(c.tolerance))),
        ("z", band(|c| Json::sci(c.z))),
        ("within_tolerance", band(|c| Json::Bool(c.within_tolerance))),
        ("load_operations", Json::num(o.load_operations)),
        ("safety_violations", Json::num(o.safety_violations)),
        ("fenced_after_finalize", Json::num(o.fenced_after_finalize)),
        ("stale_completed", Json::num(o.stale_completed)),
        ("trace_fingerprint", Json::num(o.trace_fingerprint)),
        ("fingerprint", Json::num(o.fingerprint)),
        ("phases", Json::arr(phases)),
        ("seconds", Json::sci(seconds)),
    ])
}

/// Runs one (scenario, backend) drill on a fresh healthy deployment (the
/// crash comes from the drill itself). The transport under the chaos
/// interposer has `pool = 1`: a client-side decision stream, the same on
/// every backend.
fn drill(backend: Backend, scenario: ReconfigScenario, config: &ReconfigConfig) -> ReconfigOutcome {
    let net = NetConfig {
        pool: 1,
        // Far above the drill's operation deadline: chaos-induced silence is
        // the open-loop deadline's to catch, never the socket sweeper's.
        request_deadline: Duration::from_secs(5),
        ..NetConfig::default()
    };
    let plan = FaultPlan::none(SIDE * SIDE);
    let deployment = Arc::new(
        Deployment::start(backend, &plan, 2, config.seed, net).expect("start the deployment"),
    );
    let chaos = ChaosTransport::new(
        Arc::clone(&deployment),
        config.seed,
        scenario.id(),
        scenario.chaos_config(),
    );
    run_reconfigure(
        scenario,
        planner(),
        SuspicionConfig::counters_only(),
        &chaos,
        deployment.service(),
        config,
    )
    .expect("reconfiguration drill")
}

fn main() {
    let (quick, output) = bench_args("bench_reconfig", "BENCH_reconfig.json");

    let n = SIDE * SIDE;
    let base = if quick {
        ReconfigConfig {
            kill: KILL,
            offered_rate: 3_000.0,
            healthy_arrivals: 400,
            detect_arrivals: 250,
            migrate_arrivals: 150,
            measure_arrivals: 900,
            probe_arrivals: 80,
            ..ReconfigConfig::default()
        }
    } else {
        ReconfigConfig {
            kill: KILL,
            ..ReconfigConfig::default()
        }
    };

    let mut gate = Gate::default();
    let mut runs = Vec::new();

    for backend in Backend::ALL {
        for scenario in ReconfigScenario::ALL {
            let config = ReconfigConfig {
                seed: cell_seed(scenario, backend),
                ..base
            };
            eprintln!(
                "bench_reconfig: {} / {} killing {KILL} of {n}, seed {:#x}...",
                backend.name(),
                scenario.name(),
                config.seed
            );
            let (outcome, seconds) = time(|| drill(backend, scenario, &config));
            runs.push(run_row(
                backend.name(),
                config.seed,
                &outcome,
                seconds,
                &mut gate,
            ));
        }
    }

    // Replay determinism, loopback, every scenario: the same (seed, scenario)
    // pair must reproduce the identical outcome fingerprint — epochs, suspect
    // set, detection tick, chaos trace, measure-phase access counts.
    let mut replays = Vec::new();
    for scenario in ReconfigScenario::ALL {
        let config = ReconfigConfig {
            seed: cell_seed(scenario, Backend::Loopback) ^ 0x002e_91a7,
            ..base
        };
        let a = drill(Backend::Loopback, scenario, &config);
        let b = drill(Backend::Loopback, scenario, &config);
        let fingerprint_match = a.fingerprint == b.fingerprint;
        let trace_match = a.trace_fingerprint == b.trace_fingerprint;
        let outcome_match = a.epochs == b.epochs
            && a.suspects == b.suspects
            && a.detect_ticks == b.detect_ticks
            && a.access_counts == b.access_counts
            && a.load_operations == b.load_operations;
        gate.check(
            fingerprint_match && trace_match && outcome_match,
            format!(
                "replay {}: fingerprints {:#x} vs {:#x}, trace match {trace_match}, outcome match {outcome_match}",
                scenario.name(),
                a.fingerprint,
                b.fingerprint
            ),
        );
        replays.push(Json::obj([
            ("scenario", Json::str(scenario.name())),
            ("backend", Json::str("loopback")),
            ("fingerprint_a", Json::num(a.fingerprint)),
            ("fingerprint_b", Json::num(b.fingerprint)),
            ("fingerprint_match", Json::Bool(fingerprint_match)),
            ("trace_match", Json::Bool(trace_match)),
            ("outcome_match", Json::Bool(outcome_match)),
        ]));
    }

    let report = Json::obj([
        ("schema", Json::str("bench_reconfig/v1")),
        ("quick", Json::Bool(quick)),
        ("n", Json::num(n)),
        ("b", Json::num(B)),
        ("kill", Json::num(KILL)),
        (
            "pools",
            Json::arr([Json::str("Grid(5x5, b=1)"), Json::str("M-Grid(5x5, b=1)")]),
        ),
        ("gate_passed", Json::Bool(gate.passed())),
        ("runs", Json::arr(runs)),
        ("replays", Json::arr(replays)),
        ("failures", gate.failures()),
    ]);
    gate.finish(&output, &report);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A drill whose evidence never reconfigured has no measure phase: its
    /// row must carry no load band, and the gate must name the miss.
    #[test]
    fn an_unreconfigured_drill_fails_the_gate_and_writes_no_load_band() {
        let outcome = ReconfigOutcome {
            scenario: ReconfigScenario::ALL[0],
            n: SIDE * SIDE,
            b: B,
            killed: vec![0, 1, 2],
            healthy_steady: true,
            reconfigured: false,
            detect_ticks: 8,
            suspects: Vec::new(),
            detection_exact: false,
            epochs: vec![0],
            source: None,
            initial_load: 0.64,
            recertified_load: 0.64,
            access_counts: Vec::new(),
            load_operations: 0,
            measured_max_load: 0.0,
            safety_violations: 0,
            fenced_after_finalize: 0,
            stale_completed: 0,
            trace_fingerprint: 1,
            fingerprint: 2,
            phases: Vec::new(),
        };
        let mut gate = Gate::default();
        let Json::Obj(row) = run_row("loopback", 7, &outcome, 0.5, &mut gate) else {
            panic!("a run row is an object");
        };
        for key in ["sigma", "tolerance", "z", "within_tolerance"] {
            assert!(row.contains(&(key, Json::Null)), "{key} must be null");
        }
        assert!(!gate.passed());
        let Json::Arr(failures) = gate.failures() else {
            panic!("failures are an array");
        };
        assert!(failures.contains(&Json::str(
            "loopback/clean_crash: no reconfiguration within 8 detection bursts"
        )));
    }
}
