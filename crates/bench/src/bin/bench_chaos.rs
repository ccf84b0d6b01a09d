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

use bqs_bench::{bench_args, time, Gate, Json};
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

    let mut gate = Gate::default();
    let mut runs = Vec::new();

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
                    let (o, seconds) =
                        time(|| run_on(backend, scenario, &system, faults, &weights, &config));
                    let cell = format!("{}/{} seed {seed:#x}", backend.name(), o.scenario);
                    if faults <= B {
                        gate.check(
                            o.safety_violations() == 0,
                            format!(
                                "{cell}: {} safety violations at b = {B} (must mask)",
                                o.safety_violations()
                            ),
                        );
                        gate.check(
                            o.ops.reads > 0,
                            format!("{cell}: no read completed at b = {B} (degradation must stay graceful)"),
                        );
                        gate.check(
                            o.ops.reads_aborted == 0,
                            format!(
                                "{cell}: {} read(s) aborted at b = {B} (retries must absorb chaos inside the masking envelope)",
                                o.ops.reads_aborted
                            ),
                        );
                    } else {
                        gate.check(
                            o.detected(),
                            format!("{cell}: no violation detected at b + 1 = {faults} (tightness must show)"),
                        );
                    }
                    let read_aborts_per_sec = if seconds > 0.0 {
                        o.ops.reads_aborted as f64 / seconds
                    } else {
                        0.0
                    };
                    runs.push(Json::obj([
                        ("backend", Json::str(backend.name())),
                        ("scenario", Json::str(o.scenario)),
                        ("faults", Json::num(o.faults)),
                        ("b", Json::num(o.b)),
                        ("seed", Json::num(config.seed)),
                        ("masked", Json::Bool(o.safety_violations() == 0)),
                        ("detected", Json::Bool(o.detected())),
                        ("safety_violations", Json::num(o.safety_violations())),
                        ("authenticity_violations", Json::num(o.ops.fabricated)),
                        ("ryw_violations", Json::num(o.ops.stale)),
                        ("writes_completed", Json::num(o.ops.writes)),
                        ("writes_aborted", Json::num(o.ops.writes_aborted)),
                        ("reads_completed", Json::num(o.ops.reads)),
                        ("reads_inconclusive", Json::num(o.ops.inconclusive)),
                        ("reads_aborted", Json::num(o.ops.reads_aborted)),
                        ("read_aborts_per_sec", Json::sci(read_aborts_per_sec)),
                        ("no_live_quorum", Json::num(o.ops.unavailable)),
                        ("timeouts", Json::num(o.metrics.timeouts)),
                        ("retries", Json::num(o.metrics.retries)),
                        ("aborts", Json::num(o.metrics.aborts)),
                        (
                            "chaos_drops",
                            Json::num(o.chaos.dropped + o.chaos.partitioned),
                        ),
                        ("chaos_duplicates", Json::num(o.chaos.duplicated)),
                        ("chaos_delayed", Json::num(o.chaos.delayed)),
                        ("trace_events", Json::num(o.trace_events)),
                        ("trace_fingerprint", Json::num(o.trace_fingerprint)),
                        ("seconds", Json::sci(seconds)),
                    ]));
                }
            }
        }
    }

    // Replay determinism, loopback, both fault levels: the same
    // (seed, scenario) pair must reproduce the identical chaos event trace
    // and the identical safety outcome.
    let mut replays = Vec::new();
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
            let fingerprint_match = a.trace_fingerprint == b.trace_fingerprint;
            let outcome_match = a.trace_events == b.trace_events
                && a.safety_violations() == b.safety_violations()
                && a.ops.reads == b.ops.reads
                && a.ops.writes == b.ops.writes;
            gate.check(
                fingerprint_match && outcome_match,
                format!(
                    "replay {}/{faults}: fingerprints {:#x} vs {:#x}, outcome match {outcome_match}",
                    scenario.name(),
                    a.trace_fingerprint,
                    b.trace_fingerprint
                ),
            );
            replays.push(Json::obj([
                ("scenario", Json::str(scenario.name())),
                ("backend", Json::str("loopback")),
                ("faults", Json::num(faults)),
                ("fingerprint_a", Json::num(a.trace_fingerprint)),
                ("fingerprint_b", Json::num(b.trace_fingerprint)),
                ("fingerprint_match", Json::Bool(fingerprint_match)),
                ("outcome_match", Json::Bool(outcome_match)),
            ]));
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
    gate.check(
        flagged == coalition,
        format!(
            "suspicion/timeout_inflation: flagged {flagged:?}, expected exactly the coalition {coalition:?} (p99s {server_p99_ns:?} ns)"
        ),
    );
    gate.check(
        suspicion_metrics.timeouts == 0 && suspicion_metrics.retries == 0,
        format!(
            "suspicion/timeout_inflation: {} timeout(s), {} retrie(s) — the adversary must stay invisible to the counters or the objective tests nothing",
            suspicion_metrics.timeouts, suspicion_metrics.retries
        ),
    );
    gate.check(
        suspicion_outcome.safety_violations() == 0,
        format!(
            "suspicion/timeout_inflation: {} safety violations at b = {B}",
            suspicion_outcome.safety_violations()
        ),
    );

    let report = Json::obj([
        ("schema", Json::str("bench_chaos/v1")),
        ("quick", Json::Bool(quick)),
        ("system", Json::str(system.name())),
        ("n", Json::num(n)),
        ("b", Json::num(B)),
        ("seeds", Json::arr(SEEDS.iter().map(Json::num))),
        ("gate_passed", Json::Bool(gate.passed())),
        ("runs", Json::arr(runs)),
        ("replays", Json::arr(replays)),
        (
            "suspicion",
            Json::obj([
                ("scenario", Json::str(suspicion_scenario.name())),
                ("backend", Json::str("loopback")),
                ("faults", Json::num(B)),
                ("coalition", Json::arr(coalition.iter().map(Json::num))),
                ("flagged", Json::arr(flagged.iter().map(Json::num))),
                (
                    "coalition_flagged",
                    Json::Bool(coalition.iter().all(|s| flagged.contains(s))),
                ),
                (
                    "healthy_flagged",
                    Json::Bool(flagged.iter().any(|s| !coalition.contains(s))),
                ),
                ("timeouts", Json::num(suspicion_metrics.timeouts)),
                ("retries", Json::num(suspicion_metrics.retries)),
                (
                    "server_p99_ns",
                    Json::arr(server_p99_ns.iter().map(Json::num)),
                ),
                (
                    "scores",
                    Json::arr(engine.scores().iter().map(|&s| Json::sci(s))),
                ),
            ]),
        ),
        ("failures", gate.failures()),
    ]);
    gate.finish(&output, &report);
}
