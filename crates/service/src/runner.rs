//! Closed-loop concurrent load generation with online safety checking.
//!
//! [`run_service`] — the crate's one closed-loop entry point — drives an
//! existing sharded [`LoopbackService`] with many concurrent closed-loop
//! clients (each a thread running a [`ServiceClient`]), then folds per-client
//! tallies and the service's lock-free metrics into a [`ServiceReport`]. The
//! caller spawns the service (fault plan, shard count, shard seed) and keeps
//! it afterwards, so a repeated-trial harness alternates
//! [`LoopbackService::reset_plan`] and `run_service` on one pool. With one
//! client the run is sequential, and — timings aside — a function of the two
//! seeds alone: the same counts and per-server access counts on every replay.
//!
//! # Safety checking under concurrency
//!
//! A lone client can compare every read against "the last completed write"
//! because it is the only actor. Under concurrent clients that predicate is
//! ill-defined (reads may race in-flight writes, which the masking register
//! legitimately serves old-or-new), so the runner checks the two predicates
//! that remain sound — and that, for a lone client, add up to that
//! comparison:
//!
//! * **authenticity** — writers derive each value deterministically from its
//!   globally unique timestamp ([`authentic_value`]); any read whose value
//!   does not match its timestamp, or whose timestamp was never allocated,
//!   returned a *fabricated* pair — precisely what `b + 1`-support masking
//!   must prevent while at most `b` servers are Byzantine;
//! * **read-your-writes** (single-writer configurations only) — when the
//!   designated writer reads, no write is in flight anywhere, so at least
//!   `b + 1` correct servers of any read quorum hold its last completed
//!   write's exact entry and the freshest safe timestamp cannot be older.
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
use crate::shard::{LoopbackService, TimestampOracle};
use crate::transport::Transport;

/// Configuration of a concurrent service workload.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Number of concurrent client threads.
    pub clients: usize,
    /// Closed-loop operations each client performs.
    pub ops_per_client: usize,
    /// Fraction of a *writer* client's operations that are writes (its first
    /// operation is always a write so the register is initialised; reader
    /// clients only read).
    pub write_fraction: f64,
    /// How many clients are writers (client ids `0..writers`). With exactly
    /// one writer the runner additionally checks read-your-writes on the
    /// writer's own reads.
    pub writers: usize,
    /// Base seed deriving every per-client RNG.
    pub seed: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            clients: 8,
            ops_per_client: 500,
            write_fraction: 0.2,
            writers: 1,
            seed: 0xb9_51ce,
        }
    }
}

/// The result of a concurrent service workload.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// Total operations attempted across all clients.
    pub operations: u64,
    /// Writes that completed (full-quorum acknowledgement).
    pub writes_completed: u64,
    /// Reads that completed with a safe value.
    pub reads_completed: u64,
    /// Operations that found no live quorum (availability loss).
    pub unavailable_operations: u64,
    /// Reads whose safe set was empty. Before the first write lands this is
    /// the only possible cause; in multi-writer runs concurrent in-flight
    /// writes can also split a quorum's support below `b + 1` for every
    /// entry — legitimate masking-register behaviour, not a protocol bug.
    pub inconclusive_reads: u64,
    /// Fabricated pairs returned plus (single-writer runs) read-your-writes
    /// violations — must be zero whenever the fault plan respects `b`.
    pub safety_violations: u64,
    /// Operations lost to transport failure (service shutdown mid-run).
    pub transport_failures: u64,
    /// Wall-clock duration of the client phase.
    pub elapsed_seconds: f64,
    /// Full protocol round trips (completed writes and reads plus
    /// inconclusive reads) per wall-clock second.
    pub throughput_ops_per_sec: f64,
    /// Per-server delivered-message counts.
    pub access_counts: Vec<u64>,
    /// Operations that actually contacted a quorum (completed writes, safe
    /// reads, and inconclusive reads) — the denominator of
    /// [`ServiceReport::empirical_loads`]. Operations that found no live
    /// quorum send no messages, so counting them would bias the per-server
    /// frequency low under faulty plans.
    pub load_operations: u64,
    /// Per-server empirical load (accesses / quorum-contacting operations),
    /// the concurrent measurement compared against the certified `L(Q)`.
    pub empirical_loads: Vec<f64>,
    /// Upper bound on the median operation latency, nanoseconds.
    pub latency_p50_upper_ns: Option<u64>,
    /// Upper bound on the 99th-percentile operation latency, nanoseconds.
    pub latency_p99_upper_ns: Option<u64>,
}

impl ServiceReport {
    /// The busiest server's empirical access frequency.
    #[must_use]
    pub fn max_empirical_load(&self) -> f64 {
        self.empirical_loads.iter().copied().fold(0.0, f64::max)
    }

    /// True when no read violated authenticity or read-your-writes.
    #[must_use]
    pub fn is_safe(&self) -> bool {
        self.safety_violations == 0
    }
}

/// The deterministic value writers store for timestamp `ts`.
///
/// Reads verify `value == authentic_value(timestamp)`; a Byzantine server
/// fabricating a pair (or equivocating randomly) cannot satisfy the relation
/// except by collision, so any mismatching read that clears the `b + 1`
/// support threshold is a genuine masking failure.
#[must_use]
pub fn authentic_value(ts: Timestamp) -> Value {
    ts.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(23) ^ 0xD1B5_4A32_D192_ED03
}

/// What the safety checker found wrong with one completed read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadVerdict {
    /// The pair was never written: the value does not belong to the
    /// timestamp, or the timestamp was never allocated.
    pub fabricated: bool,
    /// The pair is older than a write the reader itself completed.
    pub stale: bool,
}

/// Judges a completed read against the writers' `clock` and the reader's
/// read-your-writes frontier `ryw_floor`: its last completed write's
/// timestamp where that predicate is sound (a single writer reading its own
/// register), 0 where it is not.
#[must_use]
pub fn judge_read(entry: Entry, clock: &TimestampOracle, ryw_floor: Timestamp) -> ReadVerdict {
    ReadVerdict {
        fabricated: entry.value != authentic_value(entry.timestamp)
            || entry.timestamp > clock.latest(),
        stale: entry.timestamp < ryw_floor,
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
    /// Resolved reads judged [`ReadVerdict::fabricated`].
    pub fabricated: u64,
    /// Resolved reads judged [`ReadVerdict::stale`].
    pub stale: u64,
}

impl OpTally {
    /// Tallies one finished operation — `Ok(None)` is an acknowledged write,
    /// `Ok(Some(entry))` a resolved read, judged by [`judge_read`]. Returns
    /// true for a full quorum round trip (see [`OpTally::round_trips`]).
    pub fn record(
        &mut self,
        is_write: bool,
        outcome: Result<Option<Entry>, ServiceError>,
        clock: &TimestampOracle,
        ryw_floor: Timestamp,
    ) -> bool {
        match outcome {
            Ok(None) => self.writes += 1,
            Ok(Some(entry)) => {
                let verdict = judge_read(entry, clock, ryw_floor);
                self.reads += 1;
                self.fabricated += u64::from(verdict.fabricated);
                self.stale += u64::from(verdict.stale);
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
/// afterwards. Its metrics are zeroed at entry so the report covers exactly
/// this run.
///
/// Pass a [`bqs_core::strategic::StrategicQuorumSystem`] built from a
/// [`bqs_core::load::CertifiedLoad`] to drive the service with the
/// certified-optimal access strategy — the empirical per-server load then
/// converges to the certified `L(Q)`.
///
/// # Panics
///
/// Panics if the service's universe differs from the system's, or the
/// configuration is degenerate (zero clients/operations, or more writers
/// than clients).
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
    assert!(
        config.writers >= 1 && config.writers <= config.clients,
        "writers must be within 1..=clients"
    );

    service.metrics().reset();
    let clock = TimestampOracle::new();
    let single_writer = config.writers == 1;

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
                let is_writer = client_id < config.writers;
                let mut last_completed_write_ts: Timestamp = 0;
                let mut tally = OpTally::default();
                for op in 0..config.ops_per_client {
                    let do_write =
                        is_writer && (op == 0 || rng.gen::<f64>() < config.write_fraction);
                    let op_started = Instant::now();
                    let outcome = if do_write {
                        let ts = clock.allocate();
                        let entry = Entry {
                            timestamp: ts,
                            value: authentic_value(ts),
                        };
                        client.write(entry, &mut rng).map(|_| {
                            last_completed_write_ts = ts;
                            None
                        })
                    } else {
                        client.read(&mut rng).map(|read| Some(read.entry))
                    };
                    // Read-your-writes is only sound for the single writer's
                    // own reads (see the module docs).
                    let ryw_floor = if single_writer && is_writer {
                        last_completed_write_ts
                    } else {
                        0
                    };
                    if tally.record(do_write, outcome, clock, ryw_floor) {
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
    let operations = (config.clients * config.ops_per_client) as u64;
    // Inconclusive reads contacted a full quorum (the rendezvous succeeded,
    // only the safe set was empty), so they carry load; unavailable and
    // transport-failed operations did not.
    let load_operations = folded.round_trips();
    let metrics = service.metrics();
    ServiceReport {
        operations,
        writes_completed: folded.writes,
        reads_completed: folded.reads,
        unavailable_operations: folded.unavailable,
        inconclusive_reads: folded.inconclusive,
        safety_violations: folded.safety_violations(),
        transport_failures: folded.writes_aborted + folded.reads_aborted,
        elapsed_seconds: elapsed,
        // Throughput counts full protocol round trips, inconclusive reads
        // included — the same population the latency histogram records and
        // the load denominator normalises by.
        throughput_ops_per_sec: if elapsed > 0.0 {
            load_operations as f64 / elapsed
        } else {
            0.0
        },
        access_counts: metrics.access_counts(),
        load_operations,
        empirical_loads: metrics.empirical_loads(load_operations),
        latency_p50_upper_ns: metrics.latency().quantile_upper_ns(0.50),
        latency_p99_upper_ns: metrics.latency().quantile_upper_ns(0.99),
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
                writers: 1,
                seed: 42,
            },
        );
        assert!(report.is_safe(), "{report:?}");
        assert_eq!(report.unavailable_operations, 0);
        assert_eq!(report.transport_failures, 0);
        assert_eq!(report.operations, 900);
        assert_eq!(
            report.writes_completed + report.reads_completed + report.inconclusive_reads,
            900
        );
        assert!(report.writes_completed > 0 && report.reads_completed > 0);
        assert!(report.throughput_ops_per_sec > 0.0);
        assert!(report.latency_p50_upper_ns.is_some());
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
            writers: 1,
            seed: 7,
        };
        let report = run_fresh(&strategic, 2, &FaultPlan::none(n), 4, &config);
        assert!(report.is_safe(), "{report:?}");
        assert_eq!(report.unavailable_operations, 0);
        let l = certified.load;
        let ops = report.load_operations as f64;
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
                writers: 1,
                seed: 11,
            },
        );
        assert!(report.is_safe(), "{report:?}");
        assert_eq!(report.unavailable_operations, 0);
    }

    #[test]
    fn exceeding_b_byzantine_coalition_is_detected_concurrently() {
        // Negative controls (satellite), exercising the safety checker
        // itself: 2b+1 colluding fabricators defeat the b+1 support
        // threshold and the authenticity check must catch the leaked pair;
        // b+1 stale replayers give the first write b+1 votes for ever, and
        // the single writer's read-your-writes floor must catch it winning.
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
                    writers: 1,
                    seed: 13,
                },
            );
            assert!(
                report.safety_violations > 0,
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
                writers: 1,
                seed: 17,
            },
        );
        assert_eq!(report.unavailable_operations, report.operations);
        assert!(report.is_safe());
        // No operation contacted a quorum, so the load denominator is zero
        // and every empirical load is zero — not biased by the failed ops.
        assert_eq!(report.load_operations, 0);
        assert!(report.empirical_loads.iter().all(|&l| l == 0.0));
    }

    #[test]
    fn multi_writer_runs_disable_ryw_but_keep_authenticity() {
        let sys = ThresholdSystem::minimal_masking(2).unwrap();
        let report = run_fresh(
            &sys,
            2,
            &FaultPlan::none(9),
            2,
            &ServiceConfig {
                clients: 6,
                ops_per_client: 100,
                write_fraction: 0.5,
                writers: 3,
                seed: 23,
            },
        );
        assert!(report.is_safe(), "{report:?}");
        assert!(report.writes_completed >= 3);
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
            writers: 1,
            seed: 29,
        };
        let mut service = LoopbackService::spawn(&FaultPlan::none(5), 2, 29);
        // Trial 1: healthy — fully available.
        let r1 = run_service(&service, &sys, 1, &config);
        assert_eq!(r1.unavailable_operations, 0);
        assert!(r1.is_safe());
        // Trial 2: two crashes exceed the resilience — fully unavailable,
        // and the metrics reset means no load leaks over from trial 1.
        service.reset_plan(&FaultPlan::none(5).with_crashed(0).with_crashed(1), 31);
        let r2 = run_service(&service, &sys, 1, &config);
        assert_eq!(r2.unavailable_operations, r2.operations);
        assert_eq!(r2.load_operations, 0);
        assert!(r2.access_counts.iter().all(|&c| c == 0));
        // Trial 3: healthy again — the crash plan does not stick.
        service.reset_plan(&FaultPlan::none(5), 37);
        let r3 = run_service(&service, &sys, 1, &config);
        assert_eq!(r3.unavailable_operations, 0);
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
        let counts = |r: &ServiceReport| {
            (
                (r.operations, r.writes_completed, r.reads_completed),
                (r.unavailable_operations, r.inconclusive_reads),
                (r.safety_violations, r.transport_failures),
                (r.load_operations, r.access_counts.clone()),
            )
        };
        assert_eq!(counts(&r4), counts(&r5));
        assert!(r4.is_safe() && r4.reads_completed > 0);
    }

    #[test]
    fn authentic_value_is_timestamp_determined() {
        assert_eq!(authentic_value(7), authentic_value(7));
        assert_ne!(authentic_value(7), authentic_value(8));
    }
}
