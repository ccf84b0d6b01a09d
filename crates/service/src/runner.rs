//! Closed-loop concurrent load generation with online safety checking.
//!
//! [`run_service`] — the crate's one closed-loop entry point — drives an
//! existing sharded [`LoopbackService`] with many concurrent closed-loop
//! clients (each a thread running a [`ServiceClient`], whose operations run
//! one at a time in the service's one event loop), then reports the
//! folded per-client [`OpTally`] and what the service's lock-free metrics
//! recorded during the run (a [`MetricsSnapshot`] at exit, minus one at
//! entry) as a [`ServiceReport`]. The caller spawns the service (fault plan,
//! shard count, shard seed) and keeps it afterwards, so a repeated-trial
//! harness alternates [`LoopbackService::reset_plan`] and `run_service` on
//! one pool; traffic the service carried before a run never leaks into its
//! report. With one client the run is sequential, and — timings aside — a
//! function of the two seeds alone: the same counts and per-server access
//! counts on every replay.
//!
//! # Safety checking under concurrency
//!
//! Every read is judged, by every client, against two predicates that hold
//! for any number of writers and any concurrency:
//!
//! * **authenticity** — the writer derives each value deterministically from
//!   its unique timestamp ([`authentic_value`]); any read whose value does
//!   not match its timestamp, or whose timestamp was never allocated,
//!   returned a *fabricated* pair — precisely what `b + 1`-support masking
//!   must prevent while at most `b` servers are Byzantine;
//! * **freshness** — the run's [`TimestampOracle`] keeps the read frontier,
//!   the highest timestamp of a completed write. A read loads it when it is
//!   invoked and is *stale* if it returns a lower timestamp: a write that
//!   completed before the read began has `b + 1` correct holders in every
//!   read quorum, so the freshest safe entry cannot be older. Reads that race
//!   a write may return it or its predecessor, and neither is stale.
//!
//! Client 0 is the register's one writer, as in the paper; several writers
//! sharing one register is \[MR98a\]'s protocol,
//! [`ServiceClient::write_after_query`], which this runner does not drive.
//!
//! Both checks flag real protocol violations with certainty (no false
//! positives), and the fabrication check is exactly the one a `> b` Byzantine
//! coalition defeats — the negative tests rely on it.

use std::time::Instant;

use bqs_core::quorum::QuorumSystem;
use bqs_sim::client::ProtocolError;
use bqs_sim::server::{Entry, Timestamp, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::client::{ServiceClient, ServiceError};
use crate::metrics::MetricsSnapshot;
use crate::shard::{LoopbackService, TimestampOracle};
use crate::transport::{Operation, Transport};

/// Configuration of a concurrent service workload.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Number of concurrent client threads.
    pub clients: usize,
    /// Closed-loop operations each client performs.
    pub ops_per_client: usize,
    /// Fraction of the writer's (client 0's) operations that are writes
    /// (its first operation is always a write so the register is
    /// initialised; the other clients only read).
    pub write_fraction: f64,
    /// Base seed deriving every per-client RNG.
    pub seed: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            clients: 8,
            ops_per_client: 500,
            write_fraction: 0.2,
            seed: 0xb9_51ce,
        }
    }
}

/// The result of a concurrent service workload.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// Total operations attempted across all clients.
    pub operations: u64,
    /// How the operations ended, folded over every client. Inconclusive
    /// reads are reads whose safe set was empty: a read that races an
    /// in-flight write can find its quorum's support split below `b + 1`
    /// for every entry — legitimate masking-register behaviour, not a
    /// protocol bug. Aborts are operations lost to transport failure
    /// (service shutdown mid-run).
    pub ops: OpTally,
    /// Wall-clock duration of the client phase.
    pub elapsed_seconds: f64,
    /// What the service's metrics recorded during this run: the per-server
    /// access counts and the latency of every full round trip.
    pub metrics: MetricsSnapshot,
}

impl ServiceReport {
    /// Operations that actually contacted a quorum (completed writes, safe
    /// reads, and inconclusive reads) — the denominator of
    /// [`ServiceReport::max_empirical_load`]. Operations that found no live
    /// quorum send no messages, so counting them would bias the per-server
    /// frequency low under faulty plans.
    #[must_use]
    pub fn load_operations(&self) -> u64 {
        self.ops.round_trips()
    }

    /// Full protocol round trips per wall-clock second — the same population
    /// the latency histogram records and the load denominator counts.
    #[must_use]
    pub fn throughput_ops_per_sec(&self) -> f64 {
        if self.elapsed_seconds > 0.0 {
            self.load_operations() as f64 / self.elapsed_seconds
        } else {
            0.0
        }
    }

    /// The busiest server's empirical access frequency (accesses over
    /// quorum-contacting operations), the concurrent measurement compared
    /// against the certified `L(Q)`.
    #[must_use]
    pub fn max_empirical_load(&self) -> f64 {
        let busiest = self.metrics.accesses.iter().copied().max().unwrap_or(0);
        busiest as f64 / self.load_operations().max(1) as f64
    }

    /// True when no read was fabricated or stale.
    #[must_use]
    pub fn is_safe(&self) -> bool {
        self.ops.safety_violations() == 0
    }
}

/// The deterministic value a writer stores for timestamp `ts`.
///
/// Reads verify `value == authentic_value(timestamp)`; a Byzantine server
/// fabricating a pair (or equivocating randomly) cannot satisfy the relation
/// except by collision, so any mismatching read that clears the `b + 1`
/// support threshold is a genuine masking failure.
#[must_use]
pub fn authentic_value(ts: Timestamp) -> Value {
    ts.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(23) ^ 0xD1B5_4A32_D192_ED03
}

/// One register operation as a generator invoked it: a read, or a write of
/// its clock's next timestamp and that timestamp's [`authentic_value`], with
/// the clock's read frontier at the moment of invocation — what the read must
/// not fall below.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Invocation {
    pub(crate) op: Operation,
    frontier: Timestamp,
}

impl Invocation {
    /// Invokes a read, or a write when `is_write`, against `clock`.
    pub(crate) fn new(is_write: bool, clock: &TimestampOracle) -> Self {
        let frontier = clock.frontier();
        let op = if is_write {
            let timestamp = clock.allocate();
            Operation::Write(Entry {
                timestamp,
                value: authentic_value(timestamp),
            })
        } else {
            Operation::Read
        };
        Invocation { op, frontier }
    }
}

/// How a generator's operations ended — the one tally [`ServiceReport`],
/// the open-loop report and the chaos scenario outcome are filled from.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct OpTally {
    /// Writes acknowledged by a full quorum.
    pub writes: u64,
    /// Reads that resolved a safe value.
    pub reads: u64,
    /// Reads that gathered a full quorum but no `b + 1`-supported value.
    pub inconclusive: u64,
    /// Operations that found no live quorum.
    pub unavailable: u64,
    /// Writes lost to transport failure (retry budget spent, or terminal).
    pub writes_aborted: u64,
    /// Reads lost to transport failure.
    pub reads_aborted: u64,
    /// Operations fenced by the servers' epoch gate.
    pub fenced: u64,
    /// Resolved reads of a pair that was never written: the value does not
    /// belong to the timestamp, or the timestamp was never allocated.
    pub fabricated: u64,
    /// Resolved reads older than the read frontier at their invocation: a
    /// write that completed before the read began was not returned.
    pub stale: u64,
}

impl OpTally {
    /// Tallies how `invoked` ended — `Ok(None)` is an acknowledged write,
    /// which advances `clock`'s read frontier, `Ok(Some(entry))` a resolved
    /// read, judged against `clock` and the frontier at its invocation.
    /// Returns true for a full quorum round trip (see
    /// [`OpTally::round_trips`]).
    pub(crate) fn record(
        &mut self,
        invoked: Invocation,
        outcome: Result<Option<Entry>, ServiceError>,
        clock: &TimestampOracle,
    ) -> bool {
        let is_write = matches!(invoked.op, Operation::Write(_));
        match outcome {
            Ok(None) => {
                if let Operation::Write(entry) = invoked.op {
                    clock.complete(entry.timestamp);
                }
                self.writes += 1;
            }
            Ok(Some(entry)) => {
                self.reads += 1;
                self.fabricated += u64::from(
                    entry.value != authentic_value(entry.timestamp)
                        || entry.timestamp > clock.latest(),
                );
                self.stale += u64::from(entry.timestamp < invoked.frontier);
            }
            Err(ServiceError::Protocol(ProtocolError::NoSafeValue)) => self.inconclusive += 1,
            Err(ServiceError::Protocol(ProtocolError::NoLiveQuorum)) => self.unavailable += 1,
            Err(ServiceError::TransportFailure) if is_write => self.writes_aborted += 1,
            Err(ServiceError::TransportFailure) => self.reads_aborted += 1,
            Err(ServiceError::EpochFenced { .. }) => self.fenced += 1,
        }
        matches!(
            outcome,
            Ok(_) | Err(ServiceError::Protocol(ProtocolError::NoSafeValue))
        )
    }

    /// Runs one closed-loop operation through `client` — a write of
    /// `clock`'s next timestamp and its authentic value, or a read — and
    /// tallies it: a completed write advances `clock`'s read frontier, and a
    /// resolved read is judged against `clock` and the frontier at its
    /// invocation. Returns true for a full quorum round trip (see
    /// [`OpTally::round_trips`]).
    pub fn perform<Q: QuorumSystem + ?Sized, T: Transport + ?Sized, R: Rng>(
        &mut self,
        client: &mut ServiceClient<'_, Q, T>,
        is_write: bool,
        clock: &TimestampOracle,
        rng: &mut R,
    ) -> bool {
        let invoked = Invocation::new(is_write, clock);
        let outcome = client.operate(invoked.op, rng);
        self.record(invoked, outcome, clock)
    }

    /// Full quorum round trips — acknowledged writes plus reads, resolved or
    /// inconclusive: what throughput, latency and load accounting count.
    #[must_use]
    pub fn round_trips(&self) -> u64 {
        self.writes + self.reads + self.inconclusive
    }

    /// Safety violations: every defect of every resolved read.
    #[must_use]
    pub fn safety_violations(&self) -> u64 {
        self.fabricated + self.stale
    }
}

impl std::ops::AddAssign for OpTally {
    fn add_assign(&mut self, other: OpTally) {
        self.writes += other.writes;
        self.reads += other.reads;
        self.inconclusive += other.inconclusive;
        self.unavailable += other.unavailable;
        self.writes_aborted += other.writes_aborted;
        self.reads_aborted += other.reads_aborted;
        self.fenced += other.fenced;
        self.fabricated += other.fabricated;
        self.stale += other.stale;
    }
}

/// Runs a concurrent closed-loop workload of `config.clients` clients over
/// `system` (masking level `b`) against `service`, which stays alive
/// afterwards. The report's metrics are the difference between snapshots
/// taken at entry and at exit, so they cover exactly this run whatever the
/// service carried before.
///
/// Pass a [`bqs_core::strategic::StrategicQuorumSystem`] built from a
/// [`bqs_core::load::CertifiedLoad`] to drive the service with the
/// certified-optimal access strategy — the empirical per-server load then
/// converges to the certified `L(Q)`.
///
/// # Panics
///
/// Panics if the service's universe differs from the system's, or the
/// configuration is degenerate (zero clients or operations).
#[must_use]
pub fn run_service<Q>(
    service: &LoopbackService,
    system: &Q,
    b: usize,
    config: &ServiceConfig,
) -> ServiceReport
where
    Q: QuorumSystem + ?Sized,
{
    assert_eq!(
        service.universe_size(),
        system.universe_size(),
        "service and quorum system must cover the same universe"
    );
    assert!(config.clients > 0, "need at least one client");
    assert!(config.ops_per_client > 0, "need at least one operation");

    let entry = service.metrics().snapshot();
    let clock = TimestampOracle::new();

    let started = Instant::now();
    let tallies: Vec<OpTally> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(config.clients);
        for client_id in 0..config.clients {
            let clock = &clock;
            handles.push(scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(
                    config.seed ^ 0x00c1_1e47_u64.wrapping_mul(client_id as u64 + 1),
                );
                let mut client =
                    ServiceClient::new(system, service, service.responsive_set().clone(), b);
                let is_writer = client_id == 0;
                let mut tally = OpTally::default();
                for op in 0..config.ops_per_client {
                    let do_write =
                        is_writer && (op == 0 || rng.gen::<f64>() < config.write_fraction);
                    let op_started = Instant::now();
                    if tally.perform(&mut client, do_write, clock, &mut rng) {
                        service
                            .metrics()
                            .record_operation(op_started.elapsed().as_nanos() as u64);
                    }
                }
                tally
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let elapsed = started.elapsed().as_secs_f64();

    let mut folded = OpTally::default();
    for tally in tallies {
        folded += tally;
    }
    assert_eq!(
        folded.fenced, 0,
        "the closed-loop harness never reconfigures"
    );
    ServiceReport {
        operations: (config.clients * config.ops_per_client) as u64,
        ops: folded,
        elapsed_seconds: elapsed,
        metrics: service.metrics().snapshot().since(&entry),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bqs_constructions::prelude::*;
    use bqs_core::load::optimal_load_oracle;
    use bqs_core::strategic::StrategicQuorumSystem;
    use bqs_sim::fault::FaultPlan;
    use bqs_sim::server::ByzantineStrategy;

    /// `run_service` against a fresh service over `plan`.
    fn run_fresh<Q: QuorumSystem + ?Sized>(
        system: &Q,
        b: usize,
        plan: &FaultPlan,
        shards: usize,
        config: &ServiceConfig,
    ) -> ServiceReport {
        let service = LoopbackService::spawn(plan, shards, config.seed);
        run_service(&service, system, b, config)
    }

    #[test]
    fn failure_free_concurrent_run_is_safe_and_available() {
        let sys = MGridSystem::new(5, 2).unwrap();
        let report = run_fresh(
            &sys,
            2,
            &FaultPlan::none(25),
            3,
            &ServiceConfig {
                clients: 6,
                ops_per_client: 150,
                write_fraction: 0.3,
                seed: 42,
            },
        );
        assert!(report.is_safe(), "{report:?}");
        assert_eq!(report.ops.unavailable, 0);
        assert_eq!(report.ops.writes_aborted + report.ops.reads_aborted, 0);
        assert_eq!(report.operations, 900);
        assert_eq!(report.ops.round_trips(), 900);
        assert!(report.ops.writes > 0 && report.ops.reads > 0);
        assert!(report.throughput_ops_per_sec() > 0.0);
        assert_eq!(report.metrics.latency.count(), 900);
        assert!(report.metrics.latency.quantile_upper_ns(0.5).is_some());
    }

    #[test]
    fn certified_strategy_load_converges_concurrently() {
        // The headline loop in miniature: 32 concurrent clients sampling the
        // certified-optimal strategy; the busiest server's frequency must sit
        // in the binomial band around the certified L(Q).
        let sys = MGridSystem::new(5, 2).unwrap();
        let n = sys.universe_size();
        let certified = optimal_load_oracle(&sys).unwrap();
        let strategic = StrategicQuorumSystem::from_certified(sys, &certified).unwrap();
        let config = ServiceConfig {
            clients: 32,
            ops_per_client: 150,
            write_fraction: 0.3,
            seed: 7,
        };
        let report = run_fresh(&strategic, 2, &FaultPlan::none(n), 4, &config);
        assert!(report.is_safe(), "{report:?}");
        assert_eq!(report.ops.unavailable, 0);
        let l = certified.load;
        let ops = report.load_operations() as f64;
        let sigma = (l * (1.0 - l) / ops).sqrt();
        let tolerance = sigma * (5.0 + (2.0 * (n as f64).ln()).sqrt());
        let empirical = report.max_empirical_load();
        assert!(
            (empirical - l).abs() <= tolerance,
            "empirical {empirical} vs certified {l} (tolerance {tolerance})"
        );
    }

    #[test]
    fn within_b_byzantine_plan_stays_safe() {
        let sys = ThresholdSystem::minimal_masking(2).unwrap(); // n = 9, b = 2
        let plan = FaultPlan::none(9)
            .with_byzantine(
                0,
                ByzantineStrategy::FabricateHighTimestamp { value: 999_999 },
            )
            .with_byzantine(5, ByzantineStrategy::Equivocate);
        let report = run_fresh(
            &sys,
            2,
            &plan,
            3,
            &ServiceConfig {
                clients: 8,
                ops_per_client: 120,
                write_fraction: 0.25,
                seed: 11,
            },
        );
        assert!(report.is_safe(), "{report:?}");
        assert_eq!(report.ops.unavailable, 0);
    }

    #[test]
    fn exceeding_b_byzantine_coalition_is_detected_concurrently() {
        // Negative controls (satellite), exercising the safety checker
        // itself: 2b+1 colluding fabricators defeat the b+1 support
        // threshold and the authenticity check must catch the leaked pair;
        // b+1 stale replayers give the first write b+1 votes for ever, and
        // the read frontier must catch it winning.
        let sys = ThresholdSystem::minimal_masking(1).unwrap(); // n = 5, b = 1
        let fabricate = ByzantineStrategy::FabricateHighTimestamp { value: 666 };
        for (coalition, strategy, clients) in
            [(3, fabricate, 6), (2, ByzantineStrategy::StaleReplay, 1)]
        {
            let plan = (0..coalition).fold(FaultPlan::none(5), |plan, server| {
                plan.with_byzantine(server, strategy)
            });
            let report = run_fresh(
                &sys,
                1,
                &plan,
                2,
                &ServiceConfig {
                    clients,
                    ops_per_client: 480 / clients,
                    write_fraction: 0.2,
                    seed: 13,
                },
            );
            assert!(
                !report.is_safe(),
                "{coalition} x {strategy:?} against b = 1 must be detected: {report:?}"
            );
        }
    }

    #[test]
    fn crashes_beyond_resilience_cause_unavailability_not_unsafety() {
        let sys = ThresholdSystem::minimal_masking(1).unwrap(); // 4-of-5, tolerates 1 crash
        let plan = FaultPlan::none(5).with_crashed(0).with_crashed(1);
        let report = run_fresh(
            &sys,
            1,
            &plan,
            2,
            &ServiceConfig {
                clients: 4,
                ops_per_client: 25,
                write_fraction: 0.5,
                seed: 17,
            },
        );
        assert_eq!(report.ops.unavailable, report.operations);
        assert!(report.is_safe());
        // No operation contacted a quorum, so the load denominator is zero
        // and every empirical load is zero — not biased by the failed ops.
        assert_eq!(report.load_operations(), 0);
        assert_eq!(report.max_empirical_load(), 0.0);
    }

    #[test]
    fn pool_reuse_across_trials_matches_fresh_spawns() {
        // The amortised path (satellite): one pool, many plans. Each trial
        // must see exactly its own plan's availability and its own metrics.
        let sys = ThresholdSystem::minimal_masking(1).unwrap(); // 4-of-5
        let config = ServiceConfig {
            clients: 3,
            ops_per_client: 30,
            write_fraction: 0.5,
            seed: 29,
        };
        let mut service = LoopbackService::spawn(&FaultPlan::none(5), 2, 29);
        // Trial 1: healthy — fully available.
        let r1 = run_service(&service, &sys, 1, &config);
        assert_eq!(r1.ops.unavailable, 0);
        assert!(r1.is_safe());
        // Trial 2: two crashes exceed the resilience — fully unavailable,
        // and the report's own metrics carry no load over from trial 1.
        service.reset_plan(&FaultPlan::none(5).with_crashed(0).with_crashed(1), 31);
        let r2 = run_service(&service, &sys, 1, &config);
        assert_eq!(r2.ops.unavailable, r2.operations);
        assert_eq!(r2.load_operations(), 0);
        assert!(r2.metrics.accesses.iter().all(|&c| c == 0));
        // Trial 3: healthy again — the crash plan does not stick.
        service.reset_plan(&FaultPlan::none(5), 37);
        let r3 = run_service(&service, &sys, 1, &config);
        assert_eq!(r3.ops.unavailable, 0);
        assert!(r3.is_safe());
        // Trials 4 and 5: a lone client's run is a function of the seeds —
        // a re-armed pool and a fresh spawn replay it count for count, down
        // to which server was accessed how often (an equivocator draws from
        // the shard RNG, so the shard seed is part of the replay).
        let plan = FaultPlan::none(5).with_byzantine(3, ByzantineStrategy::Equivocate);
        let lone = ServiceConfig {
            clients: 1,
            ops_per_client: 200,
            ..config
        };
        service.reset_plan(&plan, 41);
        let r4 = run_service(&service, &sys, 1, &lone);
        let r5 = run_service(&LoopbackService::spawn(&plan, 2, 41), &sys, 1, &lone);
        assert_eq!(counts(&r4), counts(&r5));
        assert!(r4.is_safe() && r4.ops.reads > 0);
    }

    /// Everything of a report that is a function of the seeds: the tally,
    /// the per-server accesses and the number of timed round trips.
    fn counts(r: &ServiceReport) -> (u64, OpTally, Vec<u64>, u64) {
        (
            r.operations,
            r.ops,
            r.metrics.accesses.clone(),
            r.metrics.latency.count(),
        )
    }

    #[test]
    fn a_used_service_reports_exactly_what_a_fresh_one_does() {
        // Without re-arming: the service has already carried traffic, and
        // the run's report still covers only the run. Reads leave these
        // replicas as they were (no equivocator draws from the shard RNG),
        // so the earlier traffic is a lone client's reads of the unwritten
        // register, which return its initial entry.
        let sys = ThresholdSystem::minimal_masking(1).unwrap(); // 4-of-5
        let plan = FaultPlan::none(5)
            .with_byzantine(3, ByzantineStrategy::FabricateHighTimestamp { value: 999 });
        let lone = ServiceConfig {
            clients: 1,
            ops_per_client: 200,
            write_fraction: 0.3,
            seed: 43,
        };
        let used = LoopbackService::spawn(&plan, 2, 43);
        let mut reader = ServiceClient::new(&sys, &used, used.responsive_set().clone(), 1);
        let mut rng = StdRng::seed_from_u64(44);
        for _ in 0..25 {
            assert_eq!(reader.read(&mut rng).unwrap().entry, Entry::INITIAL);
        }
        used.metrics().record_operation(1);
        assert_eq!(used.metrics().access_counts().iter().sum::<u64>(), 100);

        let again = run_service(&used, &sys, 1, &lone);
        let fresh = run_service(&LoopbackService::spawn(&plan, 2, 43), &sys, 1, &lone);
        assert_eq!(counts(&again), counts(&fresh));
        assert_eq!(again.metrics.latency.count(), again.load_operations());
        assert!(again.is_safe() && again.ops.reads > 0);
    }

    #[test]
    fn authentic_value_is_timestamp_determined() {
        assert_eq!(authentic_value(7), authentic_value(7));
        assert_ne!(authentic_value(7), authentic_value(8));
    }

    #[test]
    fn the_initial_entry_is_the_authentic_value_of_timestamp_0() {
        assert_eq!(
            Entry::INITIAL,
            Entry {
                timestamp: 0,
                value: authentic_value(0),
            }
        );
    }
}
