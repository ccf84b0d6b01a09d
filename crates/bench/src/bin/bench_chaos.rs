//! Machine-readable chaos sweep: emits `BENCH_chaos.json` (schema
//! `bench_chaos/v1`) — every [`bqs_chaos`] scenario family run at `b` and
//! `b + 1` Byzantine faults over every transport backend (in-process
//! loopback, Unix-domain socket, TCP loopback), with the masking gate
//! asserted and loopback replay-determinism double-checked.
//!
//! The gate is the paper's tightness claim in executable form, per
//! (scenario × backend) cell of the matrix:
//!
//! * at `faults = b`: **zero** safety violations (value authenticity and
//!   read-your-writes both hold) *and* graceful degradation — reads keep
//!   completing under the scenario's chaos, and **zero reads abort** (every
//!   run also reports its read-abort rate, aborts per second, so regressions
//!   in degradation show up as a number before they show up as a failure);
//! * at `faults = b + 1`: at least one **detected** violation — the run
//!   observes masking break, it does not merely fail to answer;
//! * replays: re-running a (seed, scenario) pair reproduces the identical
//!   chaos event trace (equal fingerprints) and the identical safety tallies.
//!
//! A separate **latency-inflation objective** runs the `timeout_inflation`
//! scenario (Byzantine servers answering everything just under the deadline,
//! so timeout/retry counters never move) and feeds the per-server evidence
//! to `bqs-epoch`'s suspicion engine: the gate is that the engine flags
//! exactly the inflating coalition on p99 evidence alone — no healthy server
//! smeared, no attacker missed.
//!
//! Run with: `cargo run --release -p bqs-bench --bin bench_chaos
//! [--quick] [output.json]`
//!
//! `--quick` shrinks the per-run workload; the matrix and the gate are
//! identical in both modes. Any gate failure is listed in the JSON, printed
//! to stderr, and turns into a nonzero exit status (CI runs `--quick` on
//! every push).

use std::sync::Arc;
use std::time::Duration;

use bqs_bench::{bench_args, exit_on_failures, json_escape, time};
use bqs_chaos::prelude::*;
use bqs_constructions::prelude::*;
use bqs_core::quorum::QuorumSystem;
use bqs_epoch::{SuspicionConfig, SuspicionEngine};
use bqs_net::prelude::*;

/// The masking level every run assumes (`n = 4b + 1 = 5` threshold system).
const B: usize = 1;

/// The fixed seed matrix: each cell of the sweep runs once per seed, and the
/// gate must hold for every seed independently.
const SEEDS: &[u64] = &[0xC4A0_5EED, 0x00BD_CAFE];

/// One measured cell of the matrix.
struct Run {
    backend: &'static str,
    outcome: ScenarioOutcome,
    seed: u64,
    seconds: f64,
}

/// Runs one (scenario, backend, faults, seed) workload on a fresh
/// deployment of the scenario's fault plan. The transport under the chaos
/// interposer has `pool = 1`, so the server-side connection id — the origin
/// Byzantine servers key per-client equivocation on — is one-to-one with the
/// client on the socket backends, exactly like loopback.
fn run_on(
    backend: Backend,
    scenario: ChaosScenario,
    system: &ThresholdSystem,
    faults: usize,
    weights: &[f64],
    config: &ScenarioConfig,
) -> ScenarioOutcome {
    let n = system.universe_size();
    let plan = scenario.fault_plan(n, faults, Some(weights));
    let net = NetConfig {
        pool: 1,
        // Far above the client's reply deadline: chaos-induced silence is
        // the *client's* failure detector to catch, never the socket
        // sweeper's.
        request_deadline: Duration::from_secs(5),
        ..NetConfig::default()
    };
    let deployment = Arc::new(
        Deployment::start(backend, &plan, 2, config.seed, net).expect("start the deployment"),
    );
    let chaos = ChaosTransport::new(
        Arc::clone(&deployment),
        config.seed,
        scenario.id(),
        scenario.chaos_config_for(n, faults),
    );
    let responsive = deployment.service().responsive_set().clone();
    run_scenario(scenario, system, B, faults, responsive, &chaos, config)
}

fn main() {
    let (quick, output) = bench_args("bench_chaos", "BENCH_chaos.json");

    let system = ThresholdSystem::minimal_masking(B).expect("n = 4b + 1 threshold system");
    let n = system.universe_size();
    // The published access strategy the targeted adversary reads: per-server
    // induced loads of the LP-optimal strategy (Definition 3.8).
    let explicit = system.to_explicit(1 << 10).expect("explicit quorum list");
    let (_, strategy) = bqs_core::load::optimal_load(explicit.quorums(), n).expect("optimal load");
    let weights = strategy.induced_loads(explicit.quorums(), n);

    let base = if quick {
        ScenarioConfig {
            writes: 8,
            reads: 40,
            reply_deadline: Duration::from_millis(60),
            ..ScenarioConfig::default()
        }
    } else {
        ScenarioConfig {
            reply_deadline: Duration::from_millis(100),
            ..ScenarioConfig::default()
        }
    };

    let mut failures: Vec<String> = Vec::new();
    let mut runs: Vec<Run> = Vec::new();

    for &seed in SEEDS {
        for backend in Backend::ALL {
            for scenario in ChaosScenario::ALL {
                for faults in [B, B + 1] {
                    let config = ScenarioConfig {
                        seed: seed ^ (faults as u64) << 32,
                        ..base.clone()
                    };
                    eprintln!(
                        "bench_chaos: {} / {} at {faults} fault(s), seed {:#x}...",
                        backend.name(),
                        scenario.name(),
                        config.seed
                    );
                    let (outcome, seconds) =
                        time(|| run_on(backend, scenario, &system, faults, &weights, &config));
                    let run = Run {
                        backend: backend.name(),
                        outcome,
                        seed: config.seed,
                        seconds,
                    };
                    let o = &run.outcome;
                    if faults <= B {
                        if o.safety_violations() > 0 {
                            failures.push(format!(
                                "{}/{} seed {seed:#x}: {} safety violations at b = {B} (must mask)",
                                run.backend,
                                o.scenario,
                                o.safety_violations()
                            ));
                        }
                        if o.ops.reads == 0 {
                            failures.push(format!(
                                "{}/{} seed {seed:#x}: no read completed at b = {B} (degradation must stay graceful)",
                                run.backend, o.scenario
                            ));
                        }
                        if o.ops.reads_aborted > 0 {
                            failures.push(format!(
                                "{}/{} seed {seed:#x}: {} read(s) aborted at b = {B} (retries must absorb chaos inside the masking envelope)",
                                run.backend, o.scenario, o.ops.reads_aborted
                            ));
                        }
                    } else if !o.detected() {
                        failures.push(format!(
                            "{}/{} seed {seed:#x}: no violation detected at b + 1 = {faults} (tightness must show)",
                            run.backend, o.scenario
                        ));
                    }
                    runs.push(run);
                }
            }
        }
    }

    // Replay determinism, loopback, both fault levels: the same
    // (seed, scenario) pair must reproduce the identical chaos event trace
    // and the identical safety outcome.
    struct Replay {
        scenario: &'static str,
        faults: usize,
        fingerprint_a: u64,
        fingerprint_b: u64,
        outcome_match: bool,
    }
    let mut replays: Vec<Replay> = Vec::new();
    for scenario in ChaosScenario::ALL {
        for faults in [B, B + 1] {
            let config = ScenarioConfig {
                seed: SEEDS[0] ^ (faults as u64) << 32,
                ..base.clone()
            };
            let replay = || {
                run_on(
                    Backend::Loopback,
                    scenario,
                    &system,
                    faults,
                    &weights,
                    &config,
                )
            };
            let (a, b) = (replay(), replay());
            let outcome_match = a.trace_events == b.trace_events
                && a.safety_violations() == b.safety_violations()
                && a.ops.reads == b.ops.reads
                && a.ops.writes == b.ops.writes;
            if a.trace_fingerprint != b.trace_fingerprint || !outcome_match {
                failures.push(format!(
                    "replay {}/{faults}: fingerprints {:#x} vs {:#x}, outcome match {outcome_match}",
                    scenario.name(),
                    a.trace_fingerprint,
                    b.trace_fingerprint
                ));
            }
            replays.push(Replay {
                scenario: scenario.name(),
                faults,
                fingerprint_a: a.trace_fingerprint,
                fingerprint_b: b.trace_fingerprint,
                outcome_match,
            });
        }
    }

    // Latency-inflation objective: the timeout-inflation coalition never
    // trips a counter (its replies always arrive, just barely in time), so
    // the only evidence against it is the per-server latency tail. Feed the
    // run's per-server evidence to the suspicion engine and require its p99
    // channel to flag exactly the coalition — nobody healthy smeared, no
    // attacker missed — while timeouts and retries stayed at zero (the
    // stealth that makes this adversary invisible to the ratio channel).
    let suspicion_scenario = ChaosScenario::TimeoutInflation;
    let suspicion_run_config = ScenarioConfig {
        seed: SEEDS[0] ^ 0x1a7e_0bed,
        // Enough operations that every server clears the engine's
        // LATENCY_MIN_SAMPLES floor, regardless of --quick.
        writes: 16,
        reads: 64,
        reply_deadline: Duration::from_millis(100),
    };
    let suspicion_outcome = run_on(
        Backend::Loopback,
        suspicion_scenario,
        &system,
        B,
        &weights,
        &suspicion_run_config,
    );
    let suspicion_metrics = &suspicion_outcome.metrics;
    let mut engine = SuspicionEngine::new(n, SuspicionConfig::default());
    // The latency channel reads cumulative evidence, so ticking the settled
    // metrics drives the accrual score to the suspect threshold for exactly
    // the servers whose p99 towers over the fleet median.
    for _ in 0..3 {
        engine.tick(suspicion_metrics);
    }
    let flagged = engine.suspects().to_vec();
    let coalition: Vec<usize> = (0..B).collect();
    let server_p99_ns: Vec<u64> = suspicion_metrics
        .server_latency
        .iter()
        .map(|h| h.quantile(0.99).unwrap_or(0))
        .collect();
    if flagged != coalition {
        failures.push(format!(
            "suspicion/timeout_inflation: flagged {flagged:?}, expected exactly the coalition {coalition:?} (p99s {server_p99_ns:?} ns)"
        ));
    }
    if suspicion_metrics.timeouts != 0 || suspicion_metrics.retries != 0 {
        failures.push(format!(
            "suspicion/timeout_inflation: {} timeout(s), {} retrie(s) — the adversary must stay invisible to the counters or the objective tests nothing",
            suspicion_metrics.timeouts, suspicion_metrics.retries
        ));
    }
    if suspicion_outcome.safety_violations() > 0 {
        failures.push(format!(
            "suspicion/timeout_inflation: {} safety violations at b = {B}",
            suspicion_outcome.safety_violations()
        ));
    }

    let gate_passed = failures.is_empty();

    // --- Emit JSON. --------------------------------------------------------
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!(
        "  \"schema\": \"bench_chaos/v1\",\n  \"quick\": {quick},\n  \"system\": \"{}\",\n  \"n\": {n},\n  \"b\": {B},\n  \"seeds\": [{}],\n  \"gate_passed\": {gate_passed},\n",
        json_escape(&system.name()),
        SEEDS
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    ));
    json.push_str("  \"runs\": [\n");
    for (i, run) in runs.iter().enumerate() {
        let o = &run.outcome;
        json.push_str(&format!(
            "    {{\"backend\": \"{}\", \"scenario\": \"{}\", \"faults\": {}, \"b\": {}, \"seed\": {}, \"masked\": {}, \"detected\": {}, \"safety_violations\": {}, \"authenticity_violations\": {}, \"ryw_violations\": {}, \"writes_completed\": {}, \"writes_aborted\": {}, \"reads_completed\": {}, \"reads_inconclusive\": {}, \"reads_aborted\": {}, \"read_aborts_per_sec\": {:e}, \"no_live_quorum\": {}, \"timeouts\": {}, \"retries\": {}, \"aborts\": {}, \"chaos_drops\": {}, \"chaos_duplicates\": {}, \"chaos_delayed\": {}, \"trace_events\": {}, \"trace_fingerprint\": {}, \"seconds\": {:e}}}{}\n",
            run.backend,
            o.scenario,
            o.faults,
            o.b,
            run.seed,
            o.safety_violations() == 0,
            o.detected(),
            o.safety_violations(),
            o.ops.fabricated,
            o.ops.stale,
            o.ops.writes,
            o.ops.writes_aborted,
            o.ops.reads,
            o.ops.inconclusive,
            o.ops.reads_aborted,
            if run.seconds > 0.0 {
                o.ops.reads_aborted as f64 / run.seconds
            } else {
                0.0
            },
            o.ops.unavailable,
            o.metrics.timeouts,
            o.metrics.retries,
            o.metrics.aborts,
            o.chaos.dropped + o.chaos.partitioned,
            o.chaos.duplicated,
            o.chaos.delayed,
            o.trace_events,
            o.trace_fingerprint,
            run.seconds,
            if i + 1 == runs.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n  \"replays\": [\n");
    for (i, r) in replays.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"backend\": \"loopback\", \"faults\": {}, \"fingerprint_a\": {}, \"fingerprint_b\": {}, \"fingerprint_match\": {}, \"outcome_match\": {}}}{}\n",
            r.scenario,
            r.faults,
            r.fingerprint_a,
            r.fingerprint_b,
            r.fingerprint_a == r.fingerprint_b,
            r.outcome_match,
            if i + 1 == replays.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"suspicion\": {{\"scenario\": \"{}\", \"backend\": \"loopback\", \"faults\": {}, \"coalition\": [{}], \"flagged\": [{}], \"coalition_flagged\": {}, \"healthy_flagged\": {}, \"timeouts\": {}, \"retries\": {}, \"server_p99_ns\": [{}], \"scores\": [{}]}},\n",
        suspicion_scenario.name(),
        B,
        coalition
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .join(", "),
        flagged
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .join(", "),
        coalition.iter().all(|s| flagged.contains(s)),
        flagged.iter().any(|s| !coalition.contains(s)),
        suspicion_metrics.timeouts,
        suspicion_metrics.retries,
        server_p99_ns
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join(", "),
        engine
            .scores()
            .iter()
            .map(|s| format!("{s:e}"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    json.push_str("  \"failures\": [\n");
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
        "{:<10} {:<14} {:>6} {:>18} {:>7} {:>7} {:>5} {:>5} {:>6} {:>6}",
        "backend", "scenario", "faults", "seed", "reads", "viols", "tmo", "retry", "drops", "dup"
    );
    for run in &runs {
        let o = &run.outcome;
        println!(
            "{:<10} {:<14} {:>6} {:>#18x} {:>7} {:>7} {:>5} {:>5} {:>6} {:>6}",
            run.backend,
            o.scenario,
            o.faults,
            run.seed,
            o.ops.reads,
            o.safety_violations(),
            o.metrics.timeouts,
            o.metrics.retries,
            o.chaos.dropped + o.chaos.partitioned,
            o.chaos.duplicated,
        );
    }
    println!(
        "\nreplay determinism (loopback): {} pairs checked",
        replays.len()
    );
    println!(
        "latency-inflation suspicion: flagged {flagged:?}, coalition {coalition:?} (timeouts {}, retries {})",
        suspicion_metrics.timeouts, suspicion_metrics.retries
    );
    println!("wrote {output}");

    exit_on_failures(&failures);
}
