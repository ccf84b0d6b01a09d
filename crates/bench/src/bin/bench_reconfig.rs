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
//! * **safety** — zero fabricated reads in any phase, zero operations
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

use bqs_analysis::empirical_load_check;
use bqs_bench::{bench_args, exit_on_failures, json_escape, time};
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

/// One measured cell of the matrix.
struct Run {
    backend: &'static str,
    outcome: ReconfigOutcome,
    check: bqs_analysis::EmpiricalLoadCheck,
    seed: u64,
    seconds: f64,
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

    let mut failures: Vec<String> = Vec::new();
    let mut runs: Vec<Run> = Vec::new();

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
            let check = empirical_load_check(
                format!("{}/{}", backend.name(), scenario.name()),
                &outcome.access_counts,
                outcome.load_operations.max(1),
                outcome.recertified_load,
            );
            let run = Run {
                backend: backend.name(),
                outcome,
                check,
                seed: config.seed,
                seconds,
            };
            let o = &run.outcome;
            let cell = format!("{}/{}", run.backend, o.scenario.name());
            if !o.healthy_steady {
                failures.push(format!(
                    "{cell}: the manager reconfigured on healthy evidence (hysteresis must hold)"
                ));
            }
            if !o.reconfigured {
                failures.push(format!(
                    "{cell}: no reconfiguration within {} detection bursts",
                    base.max_detect_ticks
                ));
            }
            if !o.detection_exact {
                failures.push(format!(
                    "{cell}: suspects {:?} != killed {:?} (detection must be exact)",
                    o.suspects, o.killed
                ));
            }
            if o.safety_violations > 0 {
                failures.push(format!(
                    "{cell}: {} fabricated read(s) — masking broke during the handoff",
                    o.safety_violations
                ));
            }
            if o.stale_completed > 0 {
                failures.push(format!(
                    "{cell}: {} operation(s) completed at the fenced epoch (mixed-strategy quorum)",
                    o.stale_completed
                ));
            }
            if o.reconfigured && o.fenced_after_finalize == 0 {
                failures.push(format!(
                    "{cell}: the stale probe was never fenced (the gate must answer in-band)"
                ));
            }
            if o.reconfigured && !run.check.within_tolerance {
                failures.push(format!(
                    "{cell}: busiest-server load {:.4} outside the 3-sigma band of certified {:.4} (tolerance {:.4}, z = {:.2})",
                    run.check.empirical_max_load,
                    run.check.certified_load,
                    run.check.tolerance,
                    run.check.z
                ));
            }
            runs.push(run);
        }
    }

    // Replay determinism, loopback, every scenario: the same (seed, scenario)
    // pair must reproduce the identical outcome fingerprint — epochs, suspect
    // set, detection tick, chaos trace, measure-phase access counts.
    struct Replay {
        scenario: &'static str,
        fingerprint_a: u64,
        fingerprint_b: u64,
        trace_match: bool,
        outcome_match: bool,
    }
    let mut replays: Vec<Replay> = Vec::new();
    for scenario in ReconfigScenario::ALL {
        let config = ReconfigConfig {
            seed: cell_seed(scenario, Backend::Loopback) ^ 0x002e_91a7,
            ..base
        };
        let a = drill(Backend::Loopback, scenario, &config);
        let b = drill(Backend::Loopback, scenario, &config);
        let trace_match = a.trace_fingerprint == b.trace_fingerprint;
        let outcome_match = a.epochs == b.epochs
            && a.suspects == b.suspects
            && a.detect_ticks == b.detect_ticks
            && a.access_counts == b.access_counts
            && a.load_operations == b.load_operations;
        if a.fingerprint != b.fingerprint || !trace_match || !outcome_match {
            failures.push(format!(
                "replay {}: fingerprints {:#x} vs {:#x}, trace match {trace_match}, outcome match {outcome_match}",
                scenario.name(),
                a.fingerprint,
                b.fingerprint
            ));
        }
        replays.push(Replay {
            scenario: scenario.name(),
            fingerprint_a: a.fingerprint,
            fingerprint_b: b.fingerprint,
            trace_match,
            outcome_match,
        });
    }

    let gate_passed = failures.is_empty();

    // --- Emit JSON. --------------------------------------------------------
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!(
        "  \"schema\": \"bench_reconfig/v1\",\n  \"quick\": {quick},\n  \"n\": {n},\n  \"b\": {B},\n  \"kill\": {KILL},\n  \"pools\": [\"Grid(5x5, b=1)\", \"M-Grid(5x5, b=1)\"],\n  \"gate_passed\": {gate_passed},\n"
    ));
    json.push_str("  \"runs\": [\n");
    for (i, run) in runs.iter().enumerate() {
        let o = &run.outcome;
        let c = &run.check;
        let phases = o
            .phases
            .iter()
            .map(|p| {
                format!(
                    "{{\"name\": \"{}\", \"epoch\": {}, \"scheduled\": {}, \"completed\": {}, \"fenced\": {}, \"timed_out\": {}}}",
                    p.name, p.epoch, p.scheduled, p.completed, p.fenced, p.timed_out
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        json.push_str(&format!(
            "    {{\"backend\": \"{}\", \"scenario\": \"{}\", \"seed\": {}, \"killed\": {:?}, \"healthy_steady\": {}, \"reconfigured\": {}, \"detect_ticks\": {}, \"suspects\": {:?}, \"detection_exact\": {}, \"epochs\": {:?}, \"source\": \"{}\", \"initial_load\": {:e}, \"recertified_load\": {:e}, \"measured_max_load\": {:e}, \"sigma\": {:e}, \"tolerance\": {:e}, \"z\": {:e}, \"within_tolerance\": {}, \"load_operations\": {}, \"safety_violations\": {}, \"fenced_after_finalize\": {}, \"stale_completed\": {}, \"trace_fingerprint\": {}, \"fingerprint\": {}, \"phases\": [{}], \"seconds\": {:e}}}{}\n",
            run.backend,
            o.scenario.name(),
            run.seed,
            o.killed,
            o.healthy_steady,
            o.reconfigured,
            o.detect_ticks,
            o.suspects,
            o.detection_exact,
            o.epochs,
            json_escape(o.source.as_ref().map_or("none", |s| s.label())),
            o.initial_load,
            o.recertified_load,
            c.empirical_max_load,
            c.sigma,
            c.tolerance,
            c.z,
            c.within_tolerance,
            o.load_operations,
            o.safety_violations,
            o.fenced_after_finalize,
            o.stale_completed,
            o.trace_fingerprint,
            o.fingerprint,
            phases,
            run.seconds,
            if i + 1 == runs.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n  \"replays\": [\n");
    for (i, r) in replays.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"backend\": \"loopback\", \"fingerprint_a\": {}, \"fingerprint_b\": {}, \"fingerprint_match\": {}, \"trace_match\": {}, \"outcome_match\": {}}}{}\n",
            r.scenario,
            r.fingerprint_a,
            r.fingerprint_b,
            r.fingerprint_a == r.fingerprint_b,
            r.trace_match,
            r.outcome_match,
            if i + 1 == replays.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n  \"failures\": [\n");
    for (i, f) in failures.iter().enumerate() {
        json.push_str(&format!(
            "    \"{}\"{}\n",
            json_escape(f),
            if i + 1 == failures.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&output, &json).expect("write benchmark output");

    // --- Human-readable summary. -------------------------------------------
    println!(
        "{:<10} {:<18} {:>6} {:>9} {:>9} {:>9} {:>7} {:>6} {:>20}",
        "backend", "scenario", "ticks", "L(init)", "L(new)", "L(meas)", "fenced", "viols", "source"
    );
    for run in &runs {
        let o = &run.outcome;
        println!(
            "{:<10} {:<18} {:>6} {:>9.4} {:>9.4} {:>9.4} {:>7} {:>6} {:>20}",
            run.backend,
            o.scenario.name(),
            o.detect_ticks,
            o.initial_load,
            o.recertified_load,
            run.check.empirical_max_load,
            o.fenced_after_finalize,
            o.safety_violations,
            o.source.as_ref().map_or("none", |s| s.label()),
        );
    }
    println!(
        "\nreplay determinism (loopback): {} pairs checked",
        replays.len()
    );
    println!("wrote {output}");

    exit_on_failures(&failures);
}
