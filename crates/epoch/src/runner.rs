//! The end-to-end reconfiguration drill.
//!
//! [`run_reconfigure`] — the one entry point, for every backend — plays the
//! whole story against a live service through a chaos-wrapped transport to
//! it (the `LoopbackService` itself, or `bqs-net`'s `Deployment` on any
//! backend, which exposes its server side as the same type), in strictly
//! ordered phases (each phase is one open-loop burst; bursts join their
//! workers, so every phase boundary is an operation-stream boundary —
//! exactly where [`EpochManager::tick`] is allowed to run):
//!
//! 1. **healthy** — open-loop load at epoch 0; one manager tick must stay
//!    steady (hysteresis under whatever chaos the scenario runs).
//! 2. **crash** — `k` servers die mid-run ([`ReconfigScenario::kill_set`]).
//! 3. **detect** — bursts keep flowing at epoch 0 through the *old*
//!    strategy; the evidence accrues until a tick reconfigures: the planner
//!    re-certifies over the survivors and the gate window opens to `{0, 1}`.
//! 4. **migrate** — a burst at epoch 1 under the new strategy, while the
//!    window still accepts both epochs (the two-phase handoff's first half).
//! 5. **finalize** — the next tick collapses the gate to `[1, 1]`.
//! 6. **stale probe** — a burst deliberately stamped with the dead epoch 0:
//!    every operation must come back fenced in-band, none may complete.
//! 7. **measure** — a fresh-metrics burst at epoch 1: the busiest server's
//!    empirical load is compared (by the caller) against the *new* certified
//!    `L(Q)`.
//!
//! **Replay determinism.** The drill runs every burst on a single worker
//! (one rng stream, one send order), shares one [`TimestampOracle`] across
//! phases, and is meant to be driven with
//! [`SuspicionConfig::counters_only`]: every accusal then derives from
//! deterministic counters, every chaos decision from the id-keyed splitmix
//! stream, so the outcome [`ReconfigOutcome::fingerprint`] — epochs, suspect
//! set, detection ticks, chaos trace, measure-phase access counts — is a
//! pure function of `(seed, scenario)`.

use std::sync::Arc;
use std::time::Duration;

use bqs_chaos::transport::ChaosTransport;
use bqs_chaos::ReconfigScenario;
use bqs_core::bitset::ServerSet;
use bqs_core::error::QuorumError;
use bqs_core::quorum::ExplicitQuorumSystem;
use bqs_core::strategic::StrategicQuorumSystem;
use bqs_service::metrics::ServiceMetrics;
use bqs_service::openloop::{
    run_open_loop_session, OpenLoopConfig, OpenLoopReport, OpenLoopSession,
};
use bqs_service::shard::{LoopbackService, TimestampOracle};
use bqs_service::transport::Transport;
use bqs_sim::server::mix64;

use crate::config::{EpochPlanner, StrategySource};
use crate::manager::{EpochManager, TickOutcome};
use crate::suspicion::SuspicionConfig;

/// Detection bursts to attempt before giving up.
const MAX_DETECT_TICKS: usize = 12;

/// Write fraction of every burst.
const WRITE_FRACTION: f64 = 0.2;

/// Per-operation deadline: comfortably above every scenario's chaos delays, so healthy servers are
/// never accused of timing out.
const OP_DEADLINE: Duration = Duration::from_millis(250);

/// Post-arrival drain window per burst.
const TAIL_DEADLINE: Duration = Duration::from_secs(2);

/// Shape of one reconfiguration drill: its seed, how many servers it
/// crashes, and the rate and length of its bursts.
#[derive(Debug, Clone, Copy)]
pub struct ReconfigConfig {
    /// Base seed: service shards, chaos stream, and every burst's rng.
    pub seed: u64,
    /// How many servers the drill crashes (the first `kill` indices).
    pub kill: usize,
    /// Offered rate of every burst, operations per second.
    pub offered_rate: f64,
    /// Arrivals in the healthy phase.
    pub healthy_arrivals: usize,
    /// Arrivals per detection burst.
    pub detect_arrivals: usize,
    /// Arrivals in the migration burst (epoch `e + 1`, window still open).
    pub migrate_arrivals: usize,
    /// Arrivals in the post-finalize measurement phase.
    pub measure_arrivals: usize,
    /// Arrivals in the stale-epoch probe.
    pub probe_arrivals: usize,
}

impl Default for ReconfigConfig {
    fn default() -> Self {
        ReconfigConfig {
            seed: 0xec0c_5eed,
            kill: 3,
            offered_rate: 4_000.0,
            healthy_arrivals: 800,
            detect_arrivals: 400,
            migrate_arrivals: 300,
            measure_arrivals: 3_000,
            probe_arrivals: 120,
        }
    }
}

/// Accounting for one phase of the drill.
#[derive(Debug, Clone)]
pub struct PhaseSummary {
    /// Phase name (`healthy`, `detect`, `migrate`, `stale_probe`, `measure`).
    pub name: &'static str,
    /// Epoch stamped on the phase's requests.
    pub epoch: u64,
    /// Arrivals scheduled.
    pub scheduled: u64,
    /// Operations that completed a full rendezvous.
    pub completed: u64,
    /// Operations fenced by the epoch gate.
    pub fenced: u64,
    /// Operations abandoned at their deadline.
    pub timed_out: u64,
    /// Reads that returned a fabricated or stale pair (must stay zero).
    pub safety_violations: u64,
}

/// Everything a drill observed; the benchmark gates read off this.
#[derive(Debug, Clone)]
pub struct ReconfigOutcome {
    /// The scenario environment the drill ran under.
    pub scenario: ReconfigScenario,
    /// Universe size.
    pub n: usize,
    /// Masking level.
    pub b: usize,
    /// The crashed servers.
    pub killed: Vec<usize>,
    /// Whether the manager stayed steady on healthy evidence (hysteresis).
    pub healthy_steady: bool,
    /// Whether a reconfiguration fired within the detection budget.
    pub reconfigured: bool,
    /// Detection bursts consumed before the reconfiguration fired (the whole
    /// detection budget when it never did).
    pub detect_ticks: usize,
    /// The final suspect set.
    pub suspects: Vec<usize>,
    /// Whether the suspect set is exactly the killed set.
    pub detection_exact: bool,
    /// Epoch history, starting at 0.
    pub epochs: Vec<u64>,
    /// Provenance of the final strategy (`None` when never reconfigured).
    pub source: Option<StrategySource>,
    /// Certified `L(Q)` of the initial configuration.
    pub initial_load: f64,
    /// Certified `L(Q)` of the final configuration.
    pub recertified_load: f64,
    /// Per-server access counts of the measure phase (client side).
    pub access_counts: Vec<u64>,
    /// Quorum-contacting operations of the measure phase.
    pub load_operations: u64,
    /// Busiest-server empirical load of the measure phase.
    pub measured_max_load: f64,
    /// Fabricated or stale reads summed over every phase (must stay zero).
    pub safety_violations: u64,
    /// Operations of the stale probe fenced in-band.
    pub fenced_after_finalize: u64,
    /// Operations of the stale probe that completed (must stay zero: a
    /// completed stale operation would have mixed strategies).
    pub stale_completed: u64,
    /// The chaos transport's decision-stream fold.
    pub trace_fingerprint: u64,
    /// Fold of everything replay-relevant: transitions, suspects, epochs,
    /// chaos trace, measure-phase access counts.
    pub fingerprint: u64,
    /// Per-phase accounting, in execution order.
    pub phases: Vec<PhaseSummary>,
}

/// Runs the drill through a chaos-wrapped transport to `service`, the
/// server side the transport reaches: the drill crashes its replicas and
/// the manager drives its epoch gate.
///
/// # Errors
///
/// Certification failures from the planner (including a drill that kills so
/// many servers that no masking system survives).
///
/// # Panics
///
/// Panics when `config.kill >= n` or on degenerate open-loop parameters.
#[allow(clippy::too_many_lines)]
pub fn run_reconfigure<T: Transport + 'static>(
    scenario: ReconfigScenario,
    planner: EpochPlanner,
    suspicion: SuspicionConfig,
    transport: &ChaosTransport<T>,
    service: &LoopbackService,
    config: &ReconfigConfig,
) -> Result<ReconfigOutcome, QuorumError> {
    let n = planner.universe_size();
    let b = planner.masking_b();
    let killed = scenario.kill_set(n, config.kill);
    let mut manager = EpochManager::new(planner, suspicion, Arc::clone(service.epoch_gate()))?;
    let initial_load = manager.current().load();

    // Shared across every phase: the writer clock (freshness checks span
    // phases), the failure-detector evidence, and the chaos stream.
    let clock = TimestampOracle::new();
    let responsive = ServerSet::full(n);
    let evidence = ServiceMetrics::new(n);
    let mut phases: Vec<PhaseSummary> = Vec::new();
    let mut safety_violations = 0u64;

    let mut run_phase = |name: &'static str,
                         epoch: u64,
                         system: &StrategicQuorumSystem<ExplicitQuorumSystem>,
                         arrivals: usize,
                         salt: u64,
                         metrics: Option<&ServiceMetrics>|
     -> OpenLoopReport {
        let burst = OpenLoopConfig {
            offered_rate: config.offered_rate,
            total_arrivals: arrivals,
            // One worker: one rng stream and one send order, so the chaos
            // decision fold is replayed in a deterministic order.
            workers: 1,
            virtual_clients: 64,
            write_fraction: WRITE_FRACTION,
            max_in_flight_per_worker: 1 << 14,
            op_deadline: OP_DEADLINE,
            tail_deadline: TAIL_DEADLINE,
            seed: config.seed ^ mix64(salt),
        };
        let report = run_open_loop_session(
            system,
            b,
            transport,
            &responsive,
            &burst,
            &OpenLoopSession {
                epoch,
                metrics,
                clock: Some(&clock),
            },
        );
        safety_violations += report.safety_violations;
        phases.push(PhaseSummary {
            name,
            epoch,
            scheduled: report.scheduled,
            completed: report.completed(),
            fenced: report.fenced,
            timed_out: report.timed_out,
            safety_violations: report.safety_violations,
        });
        report
    };

    // Phase 1: healthy load, then one steady tick (the hysteresis check).
    let sys0 = manager.active().strategic_system()?;
    let _ = run_phase(
        "healthy",
        0,
        &sys0,
        config.healthy_arrivals,
        1,
        Some(&evidence),
    );
    let healthy_steady = manager.tick(&evidence.snapshot())? == TickOutcome::Steady;

    // Phase 2: the crash.
    service.crash_servers(&killed);

    // Phase 3: keep serving at epoch 0 until the evidence reconfigures.
    let mut detect_ticks = 0usize;
    let mut reconfigured = false;
    while detect_ticks < MAX_DETECT_TICKS {
        let _ = run_phase(
            "detect",
            0,
            &sys0,
            config.detect_arrivals,
            0x10 + detect_ticks as u64,
            Some(&evidence),
        );
        detect_ticks += 1;
        if let TickOutcome::Reconfigured { .. } = manager.tick(&evidence.snapshot())? {
            reconfigured = true;
            break;
        }
    }

    let mut epochs = vec![0u64];
    let mut source = None;
    let mut recertified_load = initial_load;
    let mut access_counts: Vec<u64> = Vec::new();
    let mut load_operations = 0u64;
    let mut measured_max_load = 0.0f64;
    let mut fenced_after_finalize = 0u64;
    let mut stale_completed = 0u64;

    if reconfigured {
        let active = manager.active().clone();
        epochs.push(active.epoch);
        source = Some(active.source.clone());
        recertified_load = active.load();
        let sys1 = active.strategic_system()?;

        // Phase 4: migrate — epoch e + 1 while the window still holds {e, e+1}.
        let migrate = run_phase(
            "migrate",
            active.epoch,
            &sys1,
            config.migrate_arrivals,
            0x40,
            Some(&evidence),
        );
        debug_assert_eq!(migrate.fenced, 0, "the open window must serve e + 1");

        // Phase 5: finalize (clients of epoch e have drained: bursts join).
        let finalized = manager.tick(&evidence.snapshot())?;
        debug_assert!(matches!(finalized, TickOutcome::Finalized { .. }));

        // Phase 6: the stale probe — epoch 0 must now be fenced in-band.
        let probe = run_phase("stale_probe", 0, &sys0, config.probe_arrivals, 0x50, None);
        fenced_after_finalize = probe.fenced;
        stale_completed = probe.completed();

        // Phase 7: measure the re-converged load with fresh metrics.
        let measure_metrics = ServiceMetrics::new(n);
        let measure = run_phase(
            "measure",
            active.epoch,
            &sys1,
            config.measure_arrivals,
            0x60,
            Some(&measure_metrics),
        );
        access_counts = measure_metrics.access_counts();
        load_operations = measure.load_operations;
        if load_operations > 0 {
            measured_max_load =
                access_counts.iter().copied().max().unwrap_or(0) as f64 / load_operations as f64;
        }
    }

    let suspects = manager.engine().suspects();
    let detection_exact = suspects.to_vec() == killed;
    let trace_fingerprint = transport.trace_fingerprint();
    let mut fingerprint = mix64(manager.fingerprint() ^ trace_fingerprint);
    for &e in &epochs {
        fingerprint = mix64(fingerprint ^ e);
    }
    for s in suspects.iter() {
        fingerprint = mix64(fingerprint ^ (s as u64 + 1));
    }
    fingerprint = mix64(fingerprint ^ load_operations);
    fingerprint = mix64(fingerprint ^ stale_completed);
    for &c in &access_counts {
        fingerprint = mix64(fingerprint ^ c);
    }

    Ok(ReconfigOutcome {
        scenario,
        n,
        b,
        killed,
        healthy_steady,
        reconfigured,
        detect_ticks,
        suspects: suspects.to_vec(),
        detection_exact,
        epochs,
        source,
        initial_load,
        recertified_load,
        access_counts,
        load_operations,
        measured_max_load,
        safety_violations,
        fenced_after_finalize,
        stale_completed,
        trace_fingerprint,
        fingerprint,
        phases,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bqs_sim::fault::FaultPlan;

    /// All 5-subsets of 7 servers: 1-masking (any two share >= 3).
    fn five_of_seven() -> Vec<ServerSet> {
        let mut out = Vec::new();
        for a in 0..7 {
            for bb in a + 1..7 {
                out.push(ServerSet::from_indices(
                    7,
                    (0..7).filter(|&i| i != a && i != bb),
                ));
            }
        }
        out
    }

    fn quick() -> ReconfigConfig {
        ReconfigConfig {
            kill: 1,
            offered_rate: 3_000.0,
            healthy_arrivals: 300,
            detect_arrivals: 200,
            migrate_arrivals: 150,
            measure_arrivals: 600,
            probe_arrivals: 80,
            ..ReconfigConfig::default()
        }
    }

    fn drill(seed: u64) -> ReconfigOutcome {
        let scenario = ReconfigScenario::CleanCrash;
        let planner = EpochPlanner::new(7, 1).with_pool("5of7", five_of_seven());
        let service = Arc::new(LoopbackService::spawn(&FaultPlan::none(7), 2, seed));
        let chaos = ChaosTransport::new(
            Arc::clone(&service),
            seed,
            scenario.id(),
            scenario.chaos_config(),
        );
        run_reconfigure(
            scenario,
            planner,
            SuspicionConfig::counters_only(),
            &chaos,
            &service,
            &ReconfigConfig { seed, ..quick() },
        )
        .unwrap()
    }

    #[test]
    fn clean_crash_detects_recertifies_migrates_and_fences() {
        let out = drill(0xd011);
        assert!(out.healthy_steady, "{out:?}");
        assert!(out.reconfigured, "{out:?}");
        assert_eq!(out.suspects, vec![0]);
        assert!(out.detection_exact);
        assert_eq!(out.epochs, vec![0, 1]);
        assert!(out.detect_ticks >= 3, "accrual needs 3 accusing ticks");
        // 5-of-7 over the full universe certifies at 5/7; over 6 survivors
        // the six surviving quorums certify at 5/6.
        assert!(
            (out.initial_load - 5.0 / 7.0).abs() < 1e-6,
            "{}",
            out.initial_load
        );
        assert!(
            (out.recertified_load - 5.0 / 6.0).abs() < 1e-6,
            "{}",
            out.recertified_load
        );
        assert!(matches!(out.source, Some(StrategySource::Pool { .. })));
        // Safety: nothing fabricated, nothing completed at the dead epoch,
        // and the stale probe was fenced in-band.
        assert_eq!(out.safety_violations, 0);
        assert_eq!(out.stale_completed, 0);
        assert!(out.fenced_after_finalize > 0);
        // The dead server carries zero load in the measure phase; the
        // busiest survivor sits near the new certified load (loose band —
        // the bench applies the real 3-sigma check).
        assert_eq!(out.access_counts[0], 0);
        assert!(out.load_operations > 0);
        assert!(
            (out.measured_max_load - out.recertified_load).abs() < 0.1,
            "measured {} vs certified {}",
            out.measured_max_load,
            out.recertified_load
        );
    }

    #[test]
    fn the_drill_replays_byte_identically_from_its_seed() {
        let a = drill(0xfeed);
        let b = drill(0xfeed);
        assert_eq!(a.fingerprint, b.fingerprint);
        // Golden value: a change to the drill's constants, the suspicion
        // engine's or the chaos stream moves it.
        assert_eq!(a.fingerprint, 0xb1e8_6c76_9b59_7acb);
        assert_eq!(a.trace_fingerprint, b.trace_fingerprint);
        assert_eq!(a.epochs, b.epochs);
        assert_eq!(a.suspects, b.suspects);
        assert_eq!(a.detect_ticks, b.detect_ticks);
        assert_eq!(a.access_counts, b.access_counts);
        let c = drill(0xbeef);
        assert_ne!(
            a.trace_fingerprint, c.trace_fingerprint,
            "a different seed must drive a different chaos stream"
        );
    }
}
