//! Named chaos scenario families and the invariant-checking runner.
//!
//! A [`ChaosScenario`] bundles a [`ChaosConfig`] (the transport perturbation)
//! with a matching [`FaultPlan`] (the Byzantine server behaviour), sized for a
//! given fault count. Running a family at `faults = b` must preserve both
//! masking invariants (value authenticity + freshness); re-running the
//! *same* family at `faults = b + 1` must break at least one of them
//! *detectably* — the safety tally in [`ScenarioOutcome`] goes non-zero. That
//! contrast, swept across every family and every transport backend, is the
//! empirical form of the paper's claim that the `2b + 1` intersection bound
//! is exactly tight.
//!
//! [`run_scenario`] is the one entry point, for every backend: the caller
//! stands the family's [`ChaosScenario::fault_plan`] up behind a transport
//! (the in-process `LoopbackService`, or `bqs-net`'s `Deployment` on any
//! backend), wraps it in a [`ChaosTransport`] keyed by the same scenario, and
//! hands both over.
//!
//! The runner is deliberately a *single-writer* closed loop: the paper's
//! register is single-writer, and with one sequential client the read
//! frontier is exactly read-your-writes (any completed read older than the
//! last completed write is a violation, no concurrency excuses), and a
//! sequential client makes the chaos decision
//! stream — and therefore the whole run — a pure function of the seed. The
//! workload's shape is fixed — a fresh write before every eighth read, three
//! retries from a 200 µs jittered backoff — and [`ScenarioConfig`] sets only
//! the seed, the operation counts and the reply deadline.

use std::sync::Arc;
use std::time::Duration;

use bqs_core::bitset::ServerSet;
use bqs_core::quorum::QuorumSystem;
use bqs_service::client::ServiceClient;
use bqs_service::metrics::{MetricsSnapshot, ServiceMetrics};
use bqs_service::runner::OpTally;
use bqs_service::shard::TimestampOracle;
use bqs_service::transport::Transport;
use bqs_sim::fault::FaultPlan;
use bqs_sim::server::ByzantineStrategy;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::transport::{ChaosConfig, ChaosStatsSnapshot, ChaosTransport};

/// The chaos scenario families. Each pairs a transport perturbation with the
/// Byzantine strategy it stresses; see [`ChaosScenario::chaos_config_for`] and
/// [`ChaosScenario::fault_plan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosScenario {
    /// Base delay plus jitter on every request, against value fabrication:
    /// masking must be latency-oblivious.
    DelayJitter,
    /// Silent (undetected) drops against fabrication: the client's reply
    /// deadline and bounded jittered retry are the recovery path.
    DropRetry,
    /// Message duplication against *per-client* equivocation: a duplicated
    /// reply must never lend a Byzantine server `b + 1` support by echo.
    Duplicate,
    /// Heavy jitter (aggressive reordering) against fabrication: replica
    /// timestamp guards make delivery order irrelevant.
    Reorder,
    /// An asymmetric partition (one server unreachable on the request
    /// direction, unbeknownst to the failure detector) *plus* fabrication on
    /// other servers: writes retry around the cut, reads absorb it in-band.
    Partition,
    /// Slow paths on the Byzantine servers combined with stale-epoch replay:
    /// the adversary serves old-but-authentic values late.
    SlowServers,
    /// The strategy-aware attack: fabrication concentrated on the
    /// highest-weight servers of the published access strategy
    /// ([`FaultPlan::targeted_by_weight`]).
    Targeted,
    /// The timeout-inflation adversary: the Byzantine servers delay every
    /// reply to just under the client's deadline, so the timeout/no-answer
    /// counters never move — the only evidence against them is their
    /// towering per-server latency tail (the suspicion engine's p99 branch).
    TimeoutInflation,
}

impl ChaosScenario {
    /// Every family, in sweep order.
    pub const ALL: [ChaosScenario; 8] = [
        ChaosScenario::DelayJitter,
        ChaosScenario::DropRetry,
        ChaosScenario::Duplicate,
        ChaosScenario::Reorder,
        ChaosScenario::Partition,
        ChaosScenario::SlowServers,
        ChaosScenario::Targeted,
        ChaosScenario::TimeoutInflation,
    ];

    /// Stable machine name (used in benchmark JSON and logs).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ChaosScenario::DelayJitter => "delay_jitter",
            ChaosScenario::DropRetry => "drop_retry",
            ChaosScenario::Duplicate => "duplicate",
            ChaosScenario::Reorder => "reorder",
            ChaosScenario::Partition => "partition",
            ChaosScenario::SlowServers => "slow_servers",
            ChaosScenario::Targeted => "targeted",
            ChaosScenario::TimeoutInflation => "timeout_inflation",
        }
    }

    /// Stable numeric id mixed into the chaos decision stream, so two
    /// families sharing a seed still perturb differently.
    #[must_use]
    pub fn id(self) -> u64 {
        match self {
            ChaosScenario::DelayJitter => 1,
            ChaosScenario::DropRetry => 2,
            ChaosScenario::Duplicate => 3,
            ChaosScenario::Reorder => 4,
            ChaosScenario::Partition => 5,
            ChaosScenario::SlowServers => 6,
            ChaosScenario::Targeted => 7,
            ChaosScenario::TimeoutInflation => 8,
        }
    }

    /// The transport perturbation for a universe of `n` servers with the
    /// family's `faults` Byzantine servers placed (the slow families slow
    /// exactly those).
    ///
    /// Delays are kept well under the runner's reply deadline so that *when*
    /// a reply arrives never decides *whether* it arrives — timing noise must
    /// not flip a deterministic outcome.
    #[must_use]
    pub fn chaos_config_for(self, n: usize, faults: usize) -> ChaosConfig {
        match self {
            ChaosScenario::DelayJitter => ChaosConfig {
                delay_base: Duration::from_micros(100),
                delay_jitter: Duration::from_micros(300),
                ..ChaosConfig::default()
            },
            ChaosScenario::DropRetry => ChaosConfig {
                drop_per_mille: 30,
                ..ChaosConfig::default()
            },
            ChaosScenario::Duplicate => ChaosConfig {
                duplicate_per_mille: 300,
                ..ChaosConfig::default()
            },
            ChaosScenario::Reorder => ChaosConfig {
                delay_jitter: Duration::from_micros(600),
                ..ChaosConfig::default()
            },
            ChaosScenario::Partition => ChaosConfig {
                partitioned: vec![n - 1],
                ..ChaosConfig::default()
            },
            ChaosScenario::SlowServers => ChaosConfig {
                slow_servers: (0..faults).collect(),
                slow_extra: Duration::from_micros(400),
                ..ChaosConfig::default()
            },
            ChaosScenario::Targeted => ChaosConfig::default(),
            ChaosScenario::TimeoutInflation => ChaosConfig {
                slow_servers: (0..faults).collect(),
                // Far above any honest round trip, comfortably below every
                // runner's reply deadline (the tightest is 25 ms in this
                // crate's own tests): the inflated replies always *arrive*,
                // so timeouts and retries stay at zero and only the latency
                // histogram betrays the attacker.
                slow_extra: Duration::from_millis(18),
                ..ChaosConfig::default()
            },
        }
    }

    /// The Byzantine fault plan at `faults` Byzantine servers. `weights` is
    /// the published access strategy (required by
    /// [`ChaosScenario::Targeted`], ignored elsewhere); without weights the
    /// targeted family falls back to the first `faults` servers.
    ///
    /// The partition family keeps its partitioned server (`n - 1`) disjoint
    /// from the Byzantine coalition so the b / b+1 contrast is carried by the
    /// coalition alone.
    ///
    /// # Panics
    ///
    /// Panics if `faults` exceeds what the placement can accommodate
    /// (`faults > n`, or `faults >= n` for the partition family).
    #[must_use]
    pub fn fault_plan(self, n: usize, faults: usize, weights: Option<&[f64]>) -> FaultPlan {
        let strategy = match self {
            ChaosScenario::DelayJitter
            | ChaosScenario::DropRetry
            | ChaosScenario::Reorder
            | ChaosScenario::Partition => {
                ByzantineStrategy::FabricateHighTimestamp { value: 0xDEAD }
            }
            ChaosScenario::Duplicate => ByzantineStrategy::EquivocatePerClient { salt: 0xC0A1 },
            ChaosScenario::SlowServers => ByzantineStrategy::StaleEpochReplay { epoch_len: 4 },
            ChaosScenario::Targeted => ByzantineStrategy::FabricateHighTimestamp { value: 0xBEEF },
            // The inflating servers are also the Byzantine coalition: at `b`
            // their slowness must be absorbed without safety or liveness
            // loss, at `b + 1` their fabrication must still break through
            // the masking despite arriving late.
            ChaosScenario::TimeoutInflation => {
                ByzantineStrategy::FabricateHighTimestamp { value: 0x51_0D }
            }
        };
        if self == ChaosScenario::Partition {
            assert!(faults < n, "partitioned server must stay correct");
        }
        if let (ChaosScenario::Targeted, Some(weights)) = (self, weights) {
            return FaultPlan::targeted_by_weight(n, faults, strategy, weights);
        }
        (0..faults).fold(FaultPlan::none(n), |plan, server| {
            plan.with_byzantine(server, strategy)
        })
    }
}

/// A fresh write is interleaved before every `WRITE_EVERY`-th read.
const WRITE_EVERY: usize = 8;

/// The client's retry budget per operation.
const RETRIES: u32 = 3;

/// The client's base retry backoff (doubled per attempt, jittered).
const BACKOFF: Duration = Duration::from_micros(200);

/// Workload knobs for [`run_scenario`].
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Seed for the chaos decision stream *and* the client's quorum sampling.
    pub seed: u64,
    /// Writes issued before the read phase (builds the epoch history the
    /// stale-replay families need).
    pub writes: usize,
    /// Reads issued in the read phase.
    pub reads: usize,
    /// The client's per-rendezvous reply deadline (the failure detector for
    /// silent losses). Must comfortably exceed every chaos delay.
    pub reply_deadline: Duration,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            seed: 0xC4A0_5EED,
            writes: 12,
            reads: 48,
            reply_deadline: Duration::from_millis(40),
        }
    }
}

/// What one scenario run observed.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// The family's stable name.
    pub scenario: &'static str,
    /// Byzantine servers in the plan.
    pub faults: usize,
    /// The masking level the client assumed.
    pub b: usize,
    /// How the workload's operations ended: completions, aborts, and the
    /// safety verdicts — `fabricated` counts authenticity violations (a value
    /// the writer never produced, or a timestamp never allocated), `stale`
    /// freshness violations (a read older than the writer's last completed
    /// write).
    pub ops: OpTally,
    /// What the run's client recorded: the degradation tallies (timeouts,
    /// retries, aborts) and the per-server failure-detector evidence — the
    /// latency-inflation objective feeds it to `bqs-epoch`'s suspicion
    /// engine and asserts the [`ChaosScenario::TimeoutInflation`] coalition
    /// is flagged on p99 evidence alone.
    pub metrics: MetricsSnapshot,
    /// What the interposer did to the request stream.
    pub chaos: ChaosStatsSnapshot,
    /// Total chaos decisions made.
    pub trace_events: u64,
    /// The deterministic fold of every chaos decision — equal across replays
    /// of the same `(seed, scenario)` pair.
    pub trace_fingerprint: u64,
}

impl ScenarioOutcome {
    /// Total safety violations (authenticity + freshness).
    #[must_use]
    pub fn safety_violations(&self) -> u64 {
        self.ops.safety_violations()
    }

    /// Whether the run *detected* a masking break (what must be true at
    /// `b + 1` faults and false at `b`).
    #[must_use]
    pub fn detected(&self) -> bool {
        self.safety_violations() > 0
    }
}

/// Drives the single-writer invariant-checking workload through `chaos`
/// (which wraps any backend transport) and reports what it observed.
///
/// The caller builds the backend from [`ChaosScenario::fault_plan`] and wraps
/// it in a [`ChaosTransport`] keyed by the same scenario (see the module
/// docs); `responsive` is the failure detector's view (partitioned servers
/// deliberately stay *in* the view — the detector does not know about the
/// cut).
pub fn run_scenario<Q, T>(
    scenario: ChaosScenario,
    system: &Q,
    b: usize,
    faults: usize,
    responsive: ServerSet,
    chaos: &ChaosTransport<T>,
    config: &ScenarioConfig,
) -> ScenarioOutcome
where
    Q: QuorumSystem + ?Sized,
    T: Transport + 'static,
{
    let metrics = Arc::new(ServiceMetrics::new(system.universe_size()));
    let clock = TimestampOracle::new();
    let mut client = ServiceClient::new(system, chaos, responsive, b)
        .with_origin(1)
        .with_reply_deadline(config.reply_deadline)
        .with_retries(RETRIES, BACKOFF)
        .with_metrics(Arc::clone(&metrics));
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x5ce0_a210);
    let mut tally = OpTally::default();

    // The write phase, then the reads with a fresh write before every
    // `WRITE_EVERY`-th one.
    let schedule = (0..config.writes)
        .map(|_| true)
        .chain((0..config.reads).flat_map(|read| {
            let write_first = read > 0 && read % WRITE_EVERY == 0;
            write_first.then_some(true).into_iter().chain([false])
        }));
    for is_write in schedule {
        tally.perform(&mut client, is_write, &clock, &mut rng);
    }
    assert_eq!(tally.fenced, 0, "the chaos workload never reconfigures");

    ScenarioOutcome {
        scenario: scenario.name(),
        faults,
        b,
        ops: tally,
        metrics: metrics.snapshot(),
        chaos: chaos.stats(),
        trace_events: chaos.trace_len(),
        trace_fingerprint: chaos.trace_fingerprint(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bqs_constructions::threshold::ThresholdSystem;
    use bqs_service::runner::authentic_value;
    use bqs_service::shard::LoopbackService;
    use bqs_sim::server::Entry;

    /// `run_scenario` on the in-process backend, with the default plan
    /// placement (no published weights).
    fn run_loopback(
        scenario: ChaosScenario,
        system: &ThresholdSystem,
        faults: usize,
        config: &ScenarioConfig,
    ) -> ScenarioOutcome {
        let n = system.universe_size();
        let plan = scenario.fault_plan(n, faults, None);
        let service = Arc::new(LoopbackService::spawn(&plan, 2, config.seed));
        let responsive = service.responsive_set().clone();
        let chaos = ChaosTransport::new(
            service,
            config.seed,
            scenario.id(),
            scenario.chaos_config_for(n, faults),
        );
        run_scenario(scenario, system, 1, faults, responsive, &chaos, config)
    }

    fn quick() -> ScenarioConfig {
        ScenarioConfig {
            reply_deadline: Duration::from_millis(25),
            ..ScenarioConfig::default()
        }
    }

    #[test]
    fn every_family_masks_at_b_and_detects_at_b_plus_1_on_loopback() {
        let system = ThresholdSystem::minimal_masking(1).unwrap(); // n = 5, b = 1
        for scenario in ChaosScenario::ALL {
            let at_b = run_loopback(scenario, &system, 1, &quick());
            assert_eq!(
                at_b.safety_violations(),
                0,
                "{}: the masking invariants must hold at b faults ({at_b:?})",
                scenario.name()
            );
            assert!(
                at_b.ops.reads > 0,
                "{}: degradation must stay graceful at b ({at_b:?})",
                scenario.name()
            );
            let over_b = run_loopback(scenario, &system, 2, &quick());
            assert!(
                over_b.detected(),
                "{}: b + 1 faults must break masking detectably ({over_b:?})",
                scenario.name()
            );
        }
    }

    #[test]
    fn replaying_a_scenario_reproduces_trace_and_outcome() {
        let system = ThresholdSystem::minimal_masking(1).unwrap();
        for scenario in [
            ChaosScenario::DropRetry,
            ChaosScenario::Duplicate,
            ChaosScenario::SlowServers,
        ] {
            let first = run_loopback(scenario, &system, 2, &quick());
            let second = run_loopback(scenario, &system, 2, &quick());
            assert_eq!(
                first.trace_fingerprint,
                second.trace_fingerprint,
                "{}: identical (seed, scenario) must replay the identical event trace",
                scenario.name()
            );
            assert_eq!(first.trace_events, second.trace_events);
            assert_eq!(
                first.safety_violations(),
                second.safety_violations(),
                "{}: replay must reproduce the safety outcome",
                scenario.name()
            );
            assert_eq!(first.ops.reads, second.ops.reads);
            assert_eq!(first.ops.writes, second.ops.writes);
            // Golden values for the two families without delays, whose runs
            // timing cannot move: a change to the workload constants, the
            // chaos keying or the decision fold codes shows up here.
            let golden = match scenario {
                ChaosScenario::DropRetry => Some((0xd03e_21e6_a205_f6da, 292, 32)),
                ChaosScenario::Duplicate => Some((0xd32c_cdcd_5c4c_6dfa, 260, 29)),
                _ => None,
            };
            if let Some((fingerprint, events, fabricated)) = golden {
                assert_eq!(
                    (first.trace_fingerprint, first.trace_events, first.ops),
                    (
                        fingerprint,
                        events,
                        OpTally {
                            writes: 17,
                            reads: 48,
                            fabricated,
                            ..OpTally::default()
                        }
                    ),
                    "{}",
                    scenario.name()
                );
            }
            // And a different seed genuinely perturbs differently.
            let reseeded = run_loopback(
                scenario,
                &system,
                2,
                &ScenarioConfig {
                    seed: 0x0DD_5EED,
                    ..quick()
                },
            );
            assert_ne!(first.trace_fingerprint, reseeded.trace_fingerprint);
        }
    }

    #[test]
    fn per_client_equivocation_shows_different_lies_to_different_clients() {
        // Two clients with distinct origins read through the same chaos-free
        // interposer against an equivocating coalition of size b + 1: each
        // client sees a *consistent* fabricated pair (and detects it as a
        // fabrication), but the pairs differ across the clients.
        let system = ThresholdSystem::minimal_masking(1).unwrap();
        let plan = ChaosScenario::Duplicate.fault_plan(5, 2, None);
        let service = Arc::new(LoopbackService::spawn(&plan, 2, 7));
        let responsive = service.responsive_set().clone();
        let chaos = ChaosTransport::new(Arc::clone(&service), 7, 0, ChaosConfig::default());
        let clock = TimestampOracle::new();

        let mut observed = Vec::new();
        for origin in [1u64, 2] {
            let mut client = ServiceClient::new(&system, &chaos, responsive.clone(), 1)
                .with_origin(origin)
                .with_reply_deadline(Duration::from_millis(200));
            let mut rng = StdRng::seed_from_u64(origin);
            let ts = clock.allocate();
            client
                .write(
                    Entry {
                        timestamp: ts,
                        value: authentic_value(ts),
                    },
                    &mut rng,
                )
                .unwrap();
            // Read until a quorum containing both equivocators comes up and
            // their common lie wins as the freshest "safe" entry.
            let lie = (0..64).find_map(|_| {
                let entry = client.read(&mut rng).ok()?.entry;
                (entry.value != authentic_value(entry.timestamp)).then_some(entry)
            });
            observed.push(lie.expect("b + 1 equivocators must break through"));
        }
        assert_eq!(
            observed[0].timestamp, observed[1].timestamp,
            "equivocation is about one timestamp"
        );
        assert_ne!(
            observed[0].value, observed[1].value,
            "different clients must be shown different values"
        );
    }
}
