//! Open-loop load generation: Poisson arrivals at a configured *offered*
//! rate, independent of service completions.
//!
//! The closed-loop generator ([`crate::runner::run_service`]) structurally
//! caps throughput at `clients / RTT`: when the service slows down, the
//! clients slow down with it, so offered load always equals completed load
//! and the latency-vs-load curve degenerates to a single operating point per
//! client count. An **open-loop** generator decouples the two — operations
//! arrive by a Poisson process at rate λ whether or not earlier operations
//! have completed — which is what exposes the *saturation knee*: below
//! capacity, achieved throughput tracks offered load and latency is flat;
//! past capacity, queues grow, latency explodes, and achieved throughput
//! pins at the service's capacity. That knee is the measurement connecting
//! the paper's load theory (`L(Q)` bounds how much capacity a strategy can
//! extract per server) to real service capacity.
//!
//! [`run_open_loop_session`] is the one entry point: a standalone run passes
//! `&OpenLoopSession::default()`, a phase of a longer session (the
//! reconfiguration drill) passes its epoch, metrics and writer clock.
//!
//! # Mechanics
//!
//! * Each of the `workers` OS threads runs its own Poisson arrival process at
//!   `offered_rate / workers` (the superposition of independent Poisson
//!   streams is Poisson at the summed rate). `virtual_clients` multiplexes
//!   nothing: it only sets the range of one draw per arrival that no
//!   operation reads (see [`OpenLoopConfig::virtual_clients`]).
//! * Each worker is one run of the service's event loop (`crate::event_loop`) fed
//!   by Poisson arrivals: it launches an arrival's operation without waiting
//!   for earlier ones, keeping up to `max_in_flight_per_worker` in flight, so
//!   operations **pipeline**. Each fan-out goes through **one**
//!   [`Transport::send_batch`] call, and replies come back through the
//!   loop's one swap-buffer mailbox, matched by request id (the ids encode
//!   the owning operation above a member field wide enough for every server
//!   of the universe), so thousands of in-flight operations share one
//!   completion path with no per-op channel allocation.
//! * When the in-flight cap is hit, further arrivals are **shed** (counted,
//!   never silently dropped) — the open-loop semantics stay honest while
//!   memory stays bounded far past the knee.
//! * Per-operation deadlines bound every wait ([`crate::transport`]'s "no
//!   answer" contract: an accepted request is not a promise of a reply), so
//!   the generator cannot hang on a half-dead transport. An operation is
//!   never retried: one that fails is counted as timed out (or as rejected,
//!   when the transport refused it), and the first fence ends it as fenced.
//!
//! The generator is transport-generic: the loopback measures the in-process
//! ceiling, `bqs-net`'s socket transports measure a real network stack, and
//! `bench_net` sweeps offered rate across both to locate each backend's knee
//! (`BENCH_net.json`).

use std::time::{Duration, Instant};

use bqs_core::bitset::ServerSet;
use bqs_core::quorum::QuorumSystem;
use bqs_sim::client::choose_access_quorum;
use bqs_sim::quorum_op::QuorumOp;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::event_loop::{End, EventLoop, Ids, Pending};
use crate::metrics::{LatencyHistogram, ServiceMetrics};
use crate::runner::{Invocation, OpTally};
use crate::shard::TimestampOracle;
use crate::transport::Transport;

/// Configuration of one open-loop measurement point.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoopConfig {
    /// Total offered arrival rate, operations per second, across all workers.
    pub offered_rate: f64,
    /// Total operations scheduled (the measurement length in arrivals, which
    /// keeps runs deterministic in size; wall-clock follows as
    /// `total_arrivals / offered_rate` plus drain).
    pub total_arrivals: usize,
    /// OS threads, each running its own arrival process.
    pub workers: usize,
    /// The range, split across the workers, of one uniform draw per arrival
    /// that no operation reads: arrivals are not multiplexed per virtual
    /// client. The draw stays because every replayed arrival stream
    /// includes it.
    pub virtual_clients: usize,
    /// Fraction of arrivals that are writes.
    pub write_fraction: f64,
    /// In-flight operation cap per worker; arrivals beyond it are shed.
    pub max_in_flight_per_worker: usize,
    /// Per-operation deadline: an operation whose quorum replies have not all
    /// arrived within this window is abandoned and counted as timed out.
    pub op_deadline: Duration,
    /// How long after its last arrival a worker keeps draining in-flight
    /// operations before abandoning the rest.
    pub tail_deadline: Duration,
    /// Base seed deriving every per-worker RNG.
    pub seed: u64,
}

impl Default for OpenLoopConfig {
    fn default() -> Self {
        OpenLoopConfig {
            offered_rate: 1_000.0,
            total_arrivals: 2_000,
            workers: 2,
            virtual_clients: 1_000,
            write_fraction: 0.2,
            max_in_flight_per_worker: 2_048,
            op_deadline: Duration::from_secs(10),
            tail_deadline: Duration::from_secs(10),
            seed: 0x09e4_100b,
        }
    }
}

/// The result of one open-loop measurement point.
#[derive(Debug, Clone)]
pub struct OpenLoopReport {
    /// The configured offered rate (ops/sec).
    pub offered_rate: f64,
    /// Arrivals actually scheduled (= `total_arrivals`).
    pub scheduled: u64,
    /// Writes that completed their full quorum rendezvous.
    pub completed_writes: u64,
    /// Reads that completed with a safe value.
    pub completed_reads: u64,
    /// Reads that completed their rendezvous with an empty safe set.
    pub inconclusive_reads: u64,
    /// Arrivals shed at the in-flight cap (offered-but-never-sent load).
    pub shed: u64,
    /// Operations abandoned at their deadline with replies still missing,
    /// and operations some member answered without an entry (FULL, see
    /// [`bqs_sim::quorum_op::QuorumOp::on_reply`]).
    pub timed_out: u64,
    /// Arrivals that found no live quorum to contact.
    pub no_live_quorum: u64,
    /// Requests the transport refused outright (service shutting down).
    pub rejected_sends: u64,
    /// Operations fenced by the servers' epoch gate (the generator's epoch
    /// stamp fell outside the acceptance window). Nonzero only when a
    /// reconfiguration finalises past the epoch this run was started with.
    pub fenced: u64,
    /// Reads that returned a fabricated (timestamp, value) pair, or one older
    /// than the read frontier at their arrival (see [`crate::runner`]).
    pub safety_violations: u64,
    /// Wall-clock seconds from first arrival to last completion.
    pub elapsed_seconds: f64,
    /// The arrival rate actually realised by the Poisson schedule
    /// (`scheduled` over the span up to the last arrival). For small runs
    /// this fluctuates around `offered_rate` by `~1/sqrt(scheduled)`;
    /// saturation judgements should compare achieved throughput against
    /// *this*, not the configured rate, or schedule noise reads as capacity.
    pub realized_offered_ops_per_sec: f64,
    /// Completed round trips (writes + safe reads + inconclusive reads) per
    /// wall-clock second — the *achieved* rate to compare against offered.
    pub achieved_ops_per_sec: f64,
    /// Operations that contacted a full quorum — the load-accounting
    /// denominator matching `ServiceReport::load_operations`.
    pub load_operations: u64,
    /// Peak operations simultaneously in flight across all workers (summed
    /// per-worker peaks; an upper bound on the true global peak).
    pub peak_in_flight: u64,
    /// Mean end-to-end operation latency, nanoseconds.
    pub latency_mean_ns: u64,
    /// Exact latency percentiles over every completed operation, ns.
    pub latency_p50_ns: u64,
    /// 90th percentile latency, ns.
    pub latency_p90_ns: u64,
    /// 99th percentile latency, ns.
    pub latency_p99_ns: u64,
    /// Maximum observed latency, ns.
    pub latency_max_ns: u64,
    /// p50 estimate from the shared lock-free 64-bucket histogram
    /// ([`crate::metrics::HistogramSnapshot::quantile`]: bucket midpoint,
    /// within −25 %/+50 % of the exact quantile). Zero when nothing
    /// completed. Reported alongside the exact percentiles so sweep harnesses
    /// can use the allocation-free path.
    pub latency_hist_p50_ns: u64,
    /// p99 histogram estimate, ns (same error bound as the p50).
    pub latency_hist_p99_ns: u64,
    /// p99.9 histogram estimate, ns (same error bound as the p50).
    pub latency_hist_p999_ns: u64,
}

impl OpenLoopReport {
    /// Completed round trips: full-rendezvous writes and reads (safe or
    /// inconclusive).
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.completed_writes + self.completed_reads + self.inconclusive_reads
    }

    /// True when no read returned a fabricated or stale pair.
    #[must_use]
    pub fn is_safe(&self) -> bool {
        self.safety_violations == 0
    }
}

/// Per-worker tallies folded into the final report.
#[derive(Debug, Default)]
struct WorkerTally {
    /// How the operations that reached the protocol ended.
    ops: OpTally,
    shed: u64,
    timed_out: u64,
    rejected: u64,
    peak_in_flight: u64,
    latencies_ns: Vec<u64>,
    last_completion: Option<Instant>,
    last_arrival: Option<Instant>,
}

/// What every worker of one run shares: the event loop each worker runs
/// (under the worker's own origin), the run's configuration, writer clock
/// and latency histogram.
struct Run<'a, Q: ?Sized, T: ?Sized> {
    event_loop: EventLoop<'a, Q, T>,
    config: &'a OpenLoopConfig,
    clock: &'a TimestampOracle,
    hist: LatencyHistogram,
    /// Width of the request id's member field (see [`worker`]).
    member_bits: u32,
}

/// Ambient state an open-loop run shares with the longer-lived session it is
/// part of. Reconfiguration harnesses run several measurement phases against
/// one persistent service; each phase is one open-loop run, but the phases
/// must share a single [`TimestampOracle`] — the freshness half of the safety
/// check compares read timestamps against the *writer's* clock, and a clock
/// restarted per phase would misread every earlier phase's (perfectly
/// authentic) entries as fabrications.
#[derive(Debug, Default, Clone, Copy)]
pub struct OpenLoopSession<'a> {
    /// The epoch stamped on every request of this run.
    pub epoch: u64,
    /// Client-side metrics: per-server access counts and failure-detector
    /// evidence (`None` skips the accounting).
    pub metrics: Option<&'a ServiceMetrics>,
    /// The writer clock; `None` makes the run its own single-phase session
    /// with a fresh clock.
    pub clock: Option<&'a TimestampOracle>,
}

/// Drives `transport` with Poisson arrivals at `config.offered_rate` and
/// returns the achieved-rate / latency measurement. `responsive` is the
/// failure detector's view used for quorum selection (pass the server side's
/// view for in-process measurements, or a full set when no faults are
/// injected); `b` is the masking level applied to reads.
///
/// `session` places the run in a longer-lived session (a standalone run
/// passes `&OpenLoopSession::default()`). It supplies the epoch stamped on
/// every request (a service that has never reconfigured runs at epoch 0),
/// the client-side metrics — completed operations record per-server access
/// counts (the empirical side of the load check) and every counted
/// reply feeds the per-server failure-detector evidence the `bqs-epoch`
/// suspicion engine reads — and (crucially) the shared writer clock; see
/// [`OpenLoopSession`].
///
/// # Panics
///
/// Panics if the transport's or the session metrics' universe differs from
/// the system's, or the configuration is degenerate (zero
/// rate/arrivals/workers/cap, or a write fraction outside `[0, 1]`).
#[must_use]
pub fn run_open_loop_session<Q, T>(
    system: &Q,
    b: usize,
    transport: &T,
    responsive: &ServerSet,
    config: &OpenLoopConfig,
    session: &OpenLoopSession<'_>,
) -> OpenLoopReport
where
    Q: QuorumSystem + ?Sized,
    T: Transport + ?Sized,
{
    if let Some(metrics) = session.metrics {
        assert_eq!(
            metrics.universe_size(),
            system.universe_size(),
            "metrics and quorum system must cover the same universe"
        );
    }
    assert_eq!(
        transport.universe_size(),
        system.universe_size(),
        "transport and quorum system must cover the same universe"
    );
    assert!(
        config.offered_rate > 0.0 && config.offered_rate.is_finite(),
        "offered rate must be positive"
    );
    assert!(config.total_arrivals > 0, "need at least one arrival");
    assert!(config.workers > 0, "need at least one worker");
    assert!(
        config.virtual_clients > 0,
        "need at least one virtual client"
    );
    assert!(
        config.max_in_flight_per_worker > 0,
        "need a positive in-flight cap"
    );
    assert!(
        (0.0..=1.0).contains(&config.write_fraction),
        "write fraction is a probability"
    );

    let owned_clock = TimestampOracle::new();
    let run = Run {
        event_loop: EventLoop {
            system,
            transport,
            responsive,
            metrics: session.metrics,
            b,
            epoch: session.epoch,
            origin: 0,
            deadline: config.op_deadline,
            retries: 0,
            backoff: Duration::ZERO,
        },
        config,
        clock: session.clock.unwrap_or(&owned_clock),
        hist: LatencyHistogram::new(),
        // Wide enough for any member index of the universe, and at least 8
        // bits: the committed chaos and drill fingerprints fold these ids.
        member_bits: (usize::BITS - system.universe_size().saturating_sub(1).leading_zeros())
            .max(8),
    };

    let workers = config.workers.min(config.total_arrivals);
    let per_worker_rate = config.offered_rate / workers as f64;
    let started = Instant::now();
    let tallies: Vec<WorkerTally> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for worker_id in 0..workers {
            let run = &run;
            // Spread the remainder so exactly `total_arrivals` are scheduled.
            let quota = config.total_arrivals / workers
                + usize::from(worker_id < config.total_arrivals % workers);
            handles.push(scope.spawn(move || worker(run, worker_id, quota, per_worker_rate)));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("open-loop workers do not panic"))
            .collect()
    });

    let mut folded = WorkerTally::default();
    let mut last_completion = started;
    let mut last_arrival = started;
    for t in tallies {
        folded.ops += t.ops;
        folded.shed += t.shed;
        folded.timed_out += t.timed_out;
        folded.rejected += t.rejected;
        folded.peak_in_flight += t.peak_in_flight;
        folded.latencies_ns.extend(t.latencies_ns);
        if let Some(at) = t.last_completion {
            last_completion = last_completion.max(at);
        }
        if let Some(at) = t.last_arrival {
            last_arrival = last_arrival.max(at);
        }
    }
    folded.latencies_ns.sort_unstable();
    let elapsed = (last_completion - started).as_secs_f64();
    let completed = folded.ops.round_trips();
    let quantile = |q: f64| -> u64 {
        if folded.latencies_ns.is_empty() {
            return 0;
        }
        let rank = ((q * folded.latencies_ns.len() as f64).ceil() as usize)
            .clamp(1, folded.latencies_ns.len());
        folded.latencies_ns[rank - 1]
    };
    let mean = if folded.latencies_ns.is_empty() {
        0
    } else {
        (folded
            .latencies_ns
            .iter()
            .map(|&l| u128::from(l))
            .sum::<u128>()
            / folded.latencies_ns.len() as u128) as u64
    };
    let hist = run.hist.snapshot();
    OpenLoopReport {
        offered_rate: config.offered_rate,
        scheduled: config.total_arrivals as u64,
        completed_writes: folded.ops.writes,
        completed_reads: folded.ops.reads,
        inconclusive_reads: folded.ops.inconclusive,
        shed: folded.shed,
        timed_out: folded.timed_out,
        no_live_quorum: folded.ops.unavailable,
        rejected_sends: folded.rejected,
        fenced: folded.ops.fenced,
        safety_violations: folded.ops.safety_violations(),
        elapsed_seconds: elapsed,
        realized_offered_ops_per_sec: {
            let span = (last_arrival - started).as_secs_f64();
            if span > 0.0 {
                config.total_arrivals as f64 / span
            } else {
                config.offered_rate
            }
        },
        achieved_ops_per_sec: if elapsed > 0.0 {
            completed as f64 / elapsed
        } else {
            0.0
        },
        load_operations: completed,
        peak_in_flight: folded.peak_in_flight,
        latency_mean_ns: mean,
        latency_p50_ns: quantile(0.50),
        latency_p90_ns: quantile(0.90),
        latency_p99_ns: quantile(0.99),
        latency_max_ns: folded.latencies_ns.last().copied().unwrap_or(0),
        latency_hist_p50_ns: hist.quantile(0.50).unwrap_or(0),
        latency_hist_p99_ns: hist.quantile(0.99).unwrap_or(0),
        latency_hist_p999_ns: hist.quantile(0.999).unwrap_or(0),
    }
}

/// One worker: Poisson arrivals at `rate`, each launched into the worker's
/// event loop without waiting for earlier ones — up to the in-flight cap, past
/// which arrivals are shed — with the loop polled between arrivals.
fn worker<Q, T>(run: &Run<'_, Q, T>, worker_id: usize, quota: usize, rate: f64) -> WorkerTally
where
    Q: QuorumSystem + ?Sized,
    T: Transport + ?Sized,
{
    let config = run.config;
    let mut rng =
        StdRng::seed_from_u64(config.seed ^ 0x0be4_100bu64.wrapping_mul(worker_id as u64 + 1));
    let event_loop = EventLoop {
        origin: worker_id as u64 + 1,
        ..run.event_loop
    };
    // Request ids encode (worker, operation, member): the low `member_bits`
    // bits distinguish the members of one fan-out.
    let stride = 1 << run.member_bits;
    let next = (worker_id as u64 + 1) << 48 | stride;
    let mut pending = Pending::new(Ids {
        next,
        stride: Some(stride),
    });
    let mut tally = WorkerTally::default();
    let vclients_here = (config.virtual_clients / config.workers.max(1)).max(1);
    let mut launched = 0usize;
    let mut next_arrival = Instant::now() + exp_gap(rate, &mut rng);
    let mut tail_end: Option<Instant> = None;
    loop {
        let now = Instant::now();
        while launched < quota && now >= next_arrival {
            launched += 1;
            next_arrival += exp_gap(rate, &mut rng);
            tally.last_arrival = Some(now);
            if pending.len() >= config.max_in_flight_per_worker {
                tally.shed += 1;
                continue;
            }
            // A draw no operation reads, kept because every replayed stream
            // includes it (see `OpenLoopConfig::virtual_clients`).
            let _vclient = rng.gen_range_u64(0, vclients_here as u64);
            let Ok(quorum) =
                choose_access_quorum(event_loop.system, event_loop.responsive, &mut rng)
            else {
                tally.ops.unavailable += 1;
                continue;
            };
            let invoked = Invocation::new(rng.gen_bool(config.write_fraction), run.clock);
            // Latency runs from the fan-out, as the reply evidence's does.
            let tag = (invoked, Instant::now());
            event_loop.launch(&mut pending, quorum, invoked.op, tag, &mut rng);
            tally.peak_in_flight = tally.peak_in_flight.max(pending.len() as u64);
        }
        // Wait until the next arrival is due, or 20 ms, so that expiry
        // stays responsive. The reply path dying under us ends every
        // operation in flight answerless, and the worker stops.
        let until = now + Duration::from_millis(20);
        let live = if launched < quota {
            event_loop.poll(&mut pending, Some(until.min(next_arrival)), &mut rng)
        } else if pending.len() == 0 {
            false
        } else if now >= *tail_end.get_or_insert(now + config.tail_deadline) {
            pending.end_all(event_loop.metrics, true);
            false
        } else {
            event_loop.poll(&mut pending, Some(until), &mut rng)
        };
        pending.settle(|tag, end, op| settle(run, &mut tally, tag, end, op));
        if !live {
            break;
        }
    }
    tally
}

/// Tallies one ended operation, invoked as `invoked` and fanned out at
/// `sent`: a round trip's latency and, in the run's metrics, its client-side
/// load — one access per member of its quorum, the server-side definition,
/// measured on any transport.
fn settle<Q: ?Sized, T: ?Sized>(
    run: &Run<'_, Q, T>,
    tally: &mut WorkerTally,
    (invoked, sent): (Invocation, Instant),
    end: End,
    op: &mut QuorumOp,
) {
    let outcome = match end {
        End::Outcome(outcome) => outcome,
        End::Refused => return tally.rejected += 1,
        End::Silent => return tally.timed_out += 1,
    };
    if !tally.ops.record(invoked, outcome, run.clock) {
        return;
    }
    let now = Instant::now();
    let latency = (now - sent).as_nanos() as u64;
    if let Some(metrics) = run.event_loop.metrics {
        for server in op.quorum().iter() {
            metrics.record_access(server);
        }
        metrics.record_operation(latency);
    }
    tally.latencies_ns.push(latency);
    run.hist.record(latency);
    tally.last_completion = Some(now);
}

/// One exponential inter-arrival gap at `rate` arrivals per second.
fn exp_gap<R: Rng>(rate: f64, rng: &mut R) -> Duration {
    let u: f64 = rng.gen();
    // 1 - u is in (0, 1]: the log is finite and non-positive.
    Duration::from_secs_f64(-(1.0 - u).ln() / rate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::LoopbackService;
    use crate::transport::{Reply, Request};
    use bqs_constructions::prelude::*;
    use bqs_sim::fault::FaultPlan;
    use bqs_sim::server::ByzantineStrategy;

    fn quick(rate: f64, arrivals: usize) -> OpenLoopConfig {
        OpenLoopConfig {
            offered_rate: rate,
            total_arrivals: arrivals,
            workers: 2,
            virtual_clients: 64,
            write_fraction: 0.3,
            max_in_flight_per_worker: 256,
            op_deadline: Duration::from_secs(10),
            tail_deadline: Duration::from_secs(10),
            seed: 7,
        }
    }

    #[test]
    fn accounting_identity_and_safety_on_loopback() {
        let system = GridSystem::new(5, 1).unwrap();
        let plan = FaultPlan::none(25);
        let service = LoopbackService::spawn(&plan, 2, 42);
        let report = run_open_loop_session(
            &system,
            1,
            &service,
            service.responsive_set(),
            &quick(2_000.0, 400),
            &OpenLoopSession::default(),
        );
        assert_eq!(
            report.scheduled,
            report.completed()
                + report.shed
                + report.timed_out
                + report.no_live_quorum
                + report.rejected_sends
                + report.fenced,
            "every arrival must be accounted for exactly once: {report:?}"
        );
        assert_eq!(report.fenced, 0, "nothing reconfigures in this run");
        assert!(report.is_safe());
        // Far below the loopback's capacity: everything completes.
        assert_eq!(report.completed(), 400);
        assert!(report.completed_writes > 0 && report.completed_reads > 0);
        assert!(report.achieved_ops_per_sec > 0.0);
        assert!(report.latency_p50_ns > 0);
        assert!(report.latency_p50_ns <= report.latency_p99_ns);
        assert!(report.latency_p99_ns <= report.latency_max_ns);
        // Histogram estimates track the exact percentiles within the
        // documented bucket-resolution bound (−25 %/+50 %).
        assert!(report.latency_hist_p50_ns > 0);
        assert!(report.latency_hist_p50_ns <= report.latency_hist_p99_ns);
        assert!(report.latency_hist_p99_ns <= report.latency_hist_p999_ns);
        let ratio = report.latency_hist_p50_ns as f64 / report.latency_p50_ns as f64;
        assert!(ratio > 0.75 && ratio <= 1.5, "hist p50 off: {ratio}");
        assert!(report.peak_in_flight >= 1);
        // Access counts accumulated on the server side for the load check
        // (every completed operation contacted a quorum, which in Grid(5, 1)
        // is at least 9 servers wide).
        let accesses: u64 = service.metrics().access_counts().iter().sum();
        assert!(accesses >= report.load_operations * 9);
    }

    #[test]
    fn byzantine_fabrication_is_masked_under_open_loop() {
        let system = MGridSystem::new(5, 2).unwrap();
        let plan = FaultPlan::none(25)
            .with_byzantine(
                3,
                ByzantineStrategy::FabricateHighTimestamp { value: 0xbad },
            )
            .with_byzantine(
                17,
                ByzantineStrategy::FabricateHighTimestamp { value: 0xbad },
            );
        let service = LoopbackService::spawn(&plan, 2, 43);
        let report = run_open_loop_session(
            &system,
            2,
            &service,
            service.responsive_set(),
            &quick(2_000.0, 300),
            &OpenLoopSession::default(),
        );
        assert!(report.is_safe(), "b = 2 masks two fabricators: {report:?}");
        assert!(report.completed_reads > 0);
    }

    #[test]
    fn in_flight_cap_sheds_instead_of_queueing_unboundedly() {
        let system = GridSystem::new(5, 1).unwrap();
        let plan = FaultPlan::none(25);
        let service = LoopbackService::spawn(&plan, 1, 44);
        let config = OpenLoopConfig {
            max_in_flight_per_worker: 1,
            workers: 1,
            // Offered far past what one pipelined slot can serve.
            offered_rate: 200_000.0,
            total_arrivals: 2_000,
            ..quick(0.0, 0)
        };
        let report = run_open_loop_session(
            &system,
            1,
            &service,
            service.responsive_set(),
            &config,
            &OpenLoopSession::default(),
        );
        assert!(
            report.shed > 0,
            "cap of 1 must shed at this rate: {report:?}"
        );
        assert_eq!(
            report.scheduled,
            report.completed()
                + report.shed
                + report.timed_out
                + report.no_live_quorum
                + report.rejected_sends
                + report.fenced
        );
        assert!(report.is_safe());
    }

    #[test]
    fn crashes_beyond_resilience_surface_as_no_live_quorum() {
        let system = ThresholdSystem::minimal_masking(1).unwrap();
        // 4 crashes out of 5 leave no live quorum (quorums need 4 of 5).
        let plan = FaultPlan::none(5)
            .with_crashed(0)
            .with_crashed(1)
            .with_crashed(2)
            .with_crashed(3);
        let service = LoopbackService::spawn(&plan, 1, 45);
        let report = run_open_loop_session(
            &system,
            1,
            &service,
            service.responsive_set(),
            &quick(1_000.0, 100),
            &OpenLoopSession::default(),
        );
        assert_eq!(report.no_live_quorum, 100, "{report:?}");
        assert_eq!(report.completed(), 0);
    }

    #[test]
    fn client_side_metrics_accumulate_accesses_and_evidence() {
        let system = GridSystem::new(5, 1).unwrap();
        let plan = FaultPlan::none(25);
        let service = LoopbackService::spawn(&plan, 2, 48);
        let metrics = ServiceMetrics::new(25);
        let report = run_open_loop_session(
            &system,
            1,
            &service,
            service.responsive_set(),
            &quick(2_000.0, 200),
            &OpenLoopSession {
                metrics: Some(&metrics),
                ..OpenLoopSession::default()
            },
        );
        assert_eq!(report.completed(), 200);
        // Every completed op recorded one access per quorum member on the
        // *client-side* metrics (Grid(5, 1) quorums are at least 9 wide).
        let seen = metrics.snapshot();
        let accesses: u64 = seen.accesses.iter().sum();
        assert!(accesses >= report.load_operations * 9);
        assert_eq!(seen.latency.count(), report.completed());
        // Healthy servers only answer: a live replica holds
        // `Entry::INITIAL` before its first write, so no read is served a
        // `None` and no server is accused.
        let answers: u64 = seen.server_answers.iter().sum();
        let accusals: u64 = seen.server_no_answers.iter().sum();
        assert!(answers > 0);
        assert_eq!(
            accusals, 0,
            "healthy run: {answers} answers and no accusal expected"
        );
        assert_eq!(seen.timeouts, 0);

        // Server 0 never answers: every operation whose quorum holds it
        // expires, and each expiry is one timeout and one accusal of server 0
        // — the closed loop's deadline rule.
        let silent = Silent {
            inner: LoopbackService::spawn(&plan, 2, 48),
            server: 0,
        };
        let metrics = ServiceMetrics::new(25);
        let report = run_open_loop_session(
            &system,
            1,
            &silent,
            &ServerSet::full(25),
            &OpenLoopConfig {
                op_deadline: Duration::from_millis(100),
                ..quick(2_000.0, 200)
            },
            &OpenLoopSession {
                metrics: Some(&metrics),
                ..OpenLoopSession::default()
            },
        );
        assert!(report.timed_out > 0, "{report:?}");
        let seen = metrics.snapshot();
        assert_eq!(seen.timeouts, report.timed_out);
        assert_eq!(seen.server_no_answers[0], report.timed_out);
    }

    /// The loopback behind a server that accepts every request and never
    /// answers.
    #[derive(Debug)]
    struct Silent {
        inner: LoopbackService,
        server: usize,
    }

    impl Transport for Silent {
        fn universe_size(&self) -> usize {
            self.inner.universe_size()
        }

        fn send(&self, request: Request) -> bool {
            request.server == self.server || self.inner.send(request)
        }
    }

    /// Acknowledges the first half of every fan-out twice and never answers
    /// the rest.
    #[derive(Debug)]
    struct HalfTwice(usize);

    impl Transport for HalfTwice {
        fn universe_size(&self) -> usize {
            self.0
        }

        fn send(&self, _: Request) -> bool {
            true
        }

        fn send_batch(&self, requests: &mut Vec<Request>) -> bool {
            let half = requests.len() / 2;
            for request in requests.drain(..).take(half) {
                let ack = Reply {
                    server: request.server,
                    request_id: request.request_id,
                    entry: None,
                    epoch: request.epoch,
                    stale: false,
                };
                request.reply.complete_batch(&[ack, ack]);
            }
            true
        }
    }

    #[test]
    fn an_operation_waits_for_every_member_not_for_as_many_frames() {
        // Four acknowledgements from two of a quorum's four members: counting
        // frames would end the operation at once. Each member counts once
        // (ONE-VOTE), so the wait runs to the deadline.
        let system = ThresholdSystem::minimal_masking(1).unwrap(); // 4-of-5
        let config = OpenLoopConfig {
            op_deadline: Duration::from_millis(300),
            ..quick(1_000.0, 1)
        };
        let started = Instant::now();
        let report = run_open_loop_session(
            &system,
            1,
            &HalfTwice(5),
            &ServerSet::full(5),
            &config,
            &OpenLoopSession::default(),
        );
        let waited = started.elapsed();
        assert_eq!((report.completed(), report.timed_out), (0, 1), "{report:?}");
        assert!(waited >= config.op_deadline, "returned after {waited:?}");
        assert!(
            waited < Duration::from_secs(5),
            "the deadline bounds the wait"
        );
    }

    #[test]
    fn fenced_epochs_fail_fast_and_account_as_fenced() {
        let system = GridSystem::new(5, 1).unwrap();
        let plan = FaultPlan::none(25);
        let service = LoopbackService::spawn(&plan, 2, 49);
        // The service has reconfigured past this generator's epoch: every
        // fan-out meets the gate and comes back stale.
        service.epoch_gate().finalize(3);
        let metrics = ServiceMetrics::new(25);
        let report = run_open_loop_session(
            &system,
            1,
            &service,
            service.responsive_set(),
            &quick(2_000.0, 200),
            &OpenLoopSession {
                metrics: Some(&metrics),
                ..OpenLoopSession::default()
            },
        );
        assert_eq!(report.completed(), 0);
        assert!(report.fenced > 0, "{report:?}");
        assert_eq!(
            report.scheduled,
            report.completed()
                + report.shed
                + report.timed_out
                + report.no_live_quorum
                + report.rejected_sends
                + report.fenced,
            "fenced arrivals stay inside the accounting identity: {report:?}"
        );
        // Fenced operations never count as load and never accuse servers.
        let seen = metrics.snapshot();
        assert_eq!(seen.accesses.iter().sum::<u64>(), 0);
        assert_eq!(seen.server_answers.iter().sum::<u64>(), 0);
    }

    #[test]
    #[should_panic(expected = "offered rate")]
    fn zero_rate_is_rejected() {
        let system = ThresholdSystem::minimal_masking(1).unwrap();
        let plan = FaultPlan::none(5);
        let service = LoopbackService::spawn(&plan, 1, 46);
        let _ = run_open_loop_session(
            &system,
            1,
            &service,
            service.responsive_set(),
            &quick(0.0, 10),
            &OpenLoopSession::default(),
        );
    }

    #[test]
    fn request_ids_stay_unique_past_256_quorum_members() {
        // n = 345, quorums of 259 servers: member indices need 9 bits, and
        // an 8-bit member field would hand member 256's reply to the next
        // operation's key.
        let system = ThresholdSystem::minimal_masking(86).unwrap();
        let n = system.universe_size();
        let service = LoopbackService::spawn(&FaultPlan::none(n), 2, 50);
        let config = OpenLoopConfig {
            op_deadline: Duration::from_millis(200),
            ..quick(500.0, 40)
        };
        let report = run_open_loop_session(
            &system,
            86,
            &service,
            service.responsive_set(),
            &config,
            &OpenLoopSession::default(),
        );
        assert_eq!(report.completed(), 40, "{report:?}");
        assert_eq!(report.timed_out, 0);
        assert!(report.is_safe());
    }
}
