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
//! * Operations **pipeline**: a worker fires a new arrival's quorum fan-out
//!   without waiting for earlier operations, keeping up to
//!   `max_in_flight_per_worker` operations outstanding. Each fan-out goes
//!   through **one** [`Transport::send_batch`] call (one shard lock or one
//!   coalesced wire frame per destination), and replies come back through
//!   one swap-buffer reply mailbox per worker, drained in whole batches and
//!   matched by [`Reply::request_id`] (the ids encode the owning operation
//!   above a member field wide enough for every server of the universe) —
//!   so thousands of in-flight operations share one completion path with
//!   no per-op channel allocation.
//! * When the in-flight cap is hit, further arrivals are **shed** (counted,
//!   never silently dropped) — the open-loop semantics stay honest while
//!   memory stays bounded far past the knee.
//! * Per-operation deadlines bound every wait ([`crate::transport`]'s "no
//!   answer" contract: an accepted request is not a promise of a reply), so
//!   the generator cannot hang on a half-dead transport.
//! * Fan-out, reply admission and deadline expiry are shared with the
//!   closed-loop client (`crate::inflight`); this shell adds the id key, the
//!   fence policy (the first fence abandons the operation), the drain
//!   schedule and the in-flight table.
//!
//! The generator is transport-generic: the loopback measures the in-process
//! ceiling, `bqs-net`'s socket transports measure a real network stack, and
//! `bench_net` sweeps offered rate across both to locate each backend's knee
//! (`BENCH_net.json`).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bqs_core::bitset::ServerSet;
use bqs_core::quorum::QuorumSystem;
use bqs_sim::client::choose_access_quorum;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::inflight::InFlight;
use crate::mailbox::{DrainStatus, ReplyMailbox};
use crate::metrics::{LatencyHistogram, ServiceMetrics};
use crate::runner::{register_op, OpTally};
use crate::shard::TimestampOracle;
use crate::transport::{Reply, Request, Transport};

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
    /// and writes some member did not acknowledge (see
    /// [`bqs_sim::quorum_op::QuorumOp::outcome`]).
    pub timed_out: u64,
    /// Arrivals that found no live quorum to contact.
    pub no_live_quorum: u64,
    /// Requests the transport refused outright (service shutting down).
    pub rejected_sends: u64,
    /// Operations fenced by the servers' epoch gate (the generator's epoch
    /// stamp fell outside the acceptance window). Nonzero only when a
    /// reconfiguration finalises past the epoch this run was started with.
    pub fenced: u64,
    /// Reads that returned a fabricated (timestamp, value) pair.
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

    /// True when no read returned a fabricated pair.
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

/// What every worker of one run shares.
struct Run<'a, Q: ?Sized, T: ?Sized> {
    system: &'a Q,
    b: usize,
    transport: &'a T,
    responsive: &'a ServerSet,
    config: &'a OpenLoopConfig,
    epoch: u64,
    metrics: Option<&'a ServiceMetrics>,
    clock: &'a TimestampOracle,
    hist: LatencyHistogram,
    /// Width of the request id's member field (see [`worker_loop`]).
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
/// The register is primed with one write before measurement starts (when a
/// live quorum exists), so steady-state reads do not pay the cold-register
/// inconclusive penalty.
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
        system,
        b,
        transport,
        responsive,
        config,
        epoch: session.epoch,
        metrics: session.metrics,
        clock: session.clock.unwrap_or(&owned_clock),
        hist: LatencyHistogram::new(),
        // Wide enough for any member index of the universe, and at least 8
        // bits: the committed chaos and drill fingerprints fold these ids.
        member_bits: (usize::BITS - system.universe_size().saturating_sub(1).leading_zeros())
            .max(8),
    };
    prime_register(&run);

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
            handles.push(scope.spawn(move || worker_loop(run, worker_id, quota, per_worker_rate)));
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

/// Writes one authentic entry, as an ordinary operation on the shared path,
/// so that steady-state reads find a safe value. It ends when every quorum
/// member has voted (acknowledged or not: an unacknowledged priming write is
/// not retried, and the reads it would have served count as inconclusive),
/// on a fence, or at the run's per-operation
/// deadline (a lossy transport can swallow a priming reply; waiting longer
/// than any real operation would only stall the measurement), and records
/// no metrics. Skipped when no live quorum exists.
fn prime_register<Q, T>(run: &Run<'_, Q, T>)
where
    Q: QuorumSystem + ?Sized,
    T: Transport + ?Sized,
{
    let mut rng = StdRng::seed_from_u64(run.config.seed ^ 0x9e37_79b9_7f4a_7c15);
    let Ok(quorum) = choose_access_quorum(run.system, run.responsive, &mut rng) else {
        return;
    };
    let write = register_op(true, run.clock);
    let mut prime = InFlight::start(quorum, write, run.epoch);
    let mailbox = Arc::new(ReplyMailbox::new());
    let id = |_, server: usize| u64::MAX - server as u64;
    // A refusal may be partial: the accepted members still acknowledge.
    let _ = prime.fan_out(run.transport, write, 0, id, &mailbox, &mut Vec::new());
    let deadline = Instant::now() + run.config.op_deadline;
    let mut drained = Vec::new();
    while !prime.op.is_complete() {
        let left = deadline.saturating_duration_since(Instant::now());
        // TimedOut and Closed alike end the wait, and so does a fence:
        // nothing more is coming (or worth waiting for) before the run.
        if mailbox.drain_timeout(left, &mut drained).count() == 0
            || drained
                .drain(..)
                .any(|reply| prime.on_reply(reply, None).is_some())
        {
            return;
        }
    }
}

/// One worker's event loop: schedule Poisson arrivals, pipeline quorum
/// fan-outs (one batched transport call each), drain whole batches of
/// replies from the worker's mailbox, match them by request id, expire
/// deadlines.
fn worker_loop<Q, T>(run: &Run<'_, Q, T>, worker_id: usize, quota: usize, rate: f64) -> WorkerTally
where
    Q: QuorumSystem + ?Sized,
    T: Transport + ?Sized,
{
    let config = run.config;
    let mut rng =
        StdRng::seed_from_u64(config.seed ^ 0x0be4_100bu64.wrapping_mul(worker_id as u64 + 1));
    let reply_mailbox = Arc::new(ReplyMailbox::new());
    let mut fanout: Vec<Request> = Vec::new();
    let mut drained: Vec<Reply> = Vec::new();
    let mut pending: HashMap<u64, InFlight> = HashMap::new();
    let mut tally = WorkerTally::default();
    // Request ids encode (worker, operation): the low `member_bits` bits
    // distinguish the members of one fan-out (transports need per-request
    // uniqueness), the rest is the operation key the reply is matched back
    // to.
    let worker_tag = (worker_id as u64 + 1) << 48;
    let mut op_seq: u64 = 0;
    let vclients_here = (config.virtual_clients / config.workers.max(1)).max(1);

    let started = Instant::now();
    let mut launched = 0usize;
    let mut next_arrival = started + exp_gap(rate, &mut rng);
    let mut tail_end: Option<Instant> = None;

    loop {
        let now = Instant::now();

        // Arrival phase: fire every arrival whose time has come.
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
            let Ok(quorum) = choose_access_quorum(run.system, run.responsive, &mut rng) else {
                tally.ops.unavailable += 1;
                continue;
            };
            let op = register_op(rng.gen_bool(config.write_fraction), run.clock);
            op_seq += 1;
            let op_key = worker_tag | (op_seq << run.member_bits);
            let in_flight = InFlight::start(quorum, op, run.epoch);
            let id = |member: usize, _| op_key | member as u64;
            let origin = worker_id as u64 + 1;
            if !in_flight.fan_out(run.transport, op, origin, id, &reply_mailbox, &mut fanout) {
                // The op is unaccounted on the wire; stragglers from a
                // partially delivered fan-out are dropped by the id match
                // below (no pending entry exists for them).
                tally.rejected += 1;
                continue;
            }
            pending.insert(op_key, in_flight);
            tally.peak_in_flight = tally.peak_in_flight.max(pending.len() as u64);
        }

        // Completion criteria: all arrivals fired and nothing left in flight
        // (or the tail window has closed on what remains).
        if launched >= quota {
            if pending.is_empty() {
                break;
            }
            let tail = *tail_end.get_or_insert_with(|| Instant::now() + config.tail_deadline);
            if Instant::now() >= tail {
                for (_, op) in pending.drain() {
                    op.on_deadline(run.metrics);
                    tally.timed_out += 1;
                }
                break;
            }
        }

        // Reply phase: wait until the next arrival is due (bounded so
        // deadline expiry stays responsive), then drain everything ready.
        let wait = if launched < quota {
            next_arrival
                .saturating_duration_since(Instant::now())
                .min(Duration::from_millis(20))
        } else {
            Duration::from_millis(20)
        };
        match reply_mailbox.drain_timeout(wait, &mut drained) {
            DrainStatus::Drained(_) => {
                for reply in drained.drain(..) {
                    handle_reply(run, reply, &mut pending, &mut tally);
                }
            }
            DrainStatus::TimedOut => {}
            DrainStatus::Closed => {
                // The reply path died under us: every in-flight operation is
                // answerless forever. Account them as timed out and stop
                // instead of spinning on a dead mailbox until the deadline.
                tally.timed_out += pending.len() as u64;
                pending.clear();
                break;
            }
        }

        // Expiry phase: abandon operations past their deadline.
        let now = Instant::now();
        pending.retain(|_, op| {
            let live = now < op.started + config.op_deadline;
            if !live {
                op.on_deadline(run.metrics);
                tally.timed_out += 1;
            }
            live
        });
    }
    tally
}

/// Matches one reply to its pending operation by the id's operation key —
/// no entry means a straggler from an expired, fenced or rejected operation —
/// applies the shared reply rule, and tallies the operation's outcome when
/// the last quorum member has voted.
fn handle_reply<Q: ?Sized, T: ?Sized>(
    run: &Run<'_, Q, T>,
    reply: Reply,
    pending: &mut HashMap<u64, InFlight>,
    tally: &mut WorkerTally,
) {
    let op_key = reply.request_id & !((1u64 << run.member_bits) - 1);
    let Some(in_flight) = pending.get_mut(&op_key) else {
        return;
    };
    // Fence policy: the first fence abandons the whole fan-out (a fenced
    // operation must never complete with strategies mixed in). Fencing is a
    // configuration signal, not server misbehaviour — no accusal.
    if in_flight.on_reply(reply, run.metrics).is_some() {
        pending.remove(&op_key);
        tally.ops.fenced += 1;
        return;
    }
    if !in_flight.op.is_complete() {
        return;
    }
    let done = pending.remove(&op_key).expect("just observed");
    let outcome = done.op.outcome(run.b);
    if done.op.is_write() && outcome.is_err() {
        // An unacknowledged write did not complete: it ends as a quiet
        // deadline would (its no-answers are already recorded as votes).
        done.on_deadline(run.metrics);
        tally.timed_out += 1;
        return;
    }
    let latency = done.started.elapsed().as_nanos() as u64;
    let outcome = outcome.map_err(Into::into);
    // No read-your-writes frontier (floor 0): writes pipeline freely.
    tally.ops.record(done.op.is_write(), outcome, run.clock, 0);
    if let Some(metrics) = run.metrics {
        // Client-side load accounting: the completed operation touched every
        // member of its quorum once (matches the server-side definition, but
        // works across any transport backend).
        for server in done.op.quorum().iter() {
            metrics.record_access(server);
        }
        metrics.record_operation(latency);
    }
    tally.latencies_ns.push(latency);
    run.hist.record(latency);
    tally.last_completion = Some(Instant::now());
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
        // Healthy servers produce overwhelmingly answer evidence. A few
        // accusals are expected early on: a read reaching a server before any
        // write has landed there is served an in-band `None`, which counts
        // against the server until its register fills.
        let answers: u64 = seen.server_answers.iter().sum();
        let accusals: u64 = seen.server_no_answers.iter().sum();
        assert!(answers > 0);
        assert!(
            accusals * 10 < answers,
            "healthy run: answers ({answers}) must dwarf accusals ({accusals})"
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
    fn priming_waits_for_every_member_not_for_as_many_frames() {
        // Four acknowledgements from two of a quorum's four members: counting
        // frames would call the write done at once, and the first measured
        // reads could race it. Each member counts once, so the wait runs to
        // the deadline.
        let system = ThresholdSystem::minimal_masking(1).unwrap(); // 4-of-5
        let config = OpenLoopConfig {
            op_deadline: Duration::from_millis(300),
            ..quick(1_000.0, 1)
        };
        let clock = TimestampOracle::new();
        let run = Run {
            system: &system,
            b: 1,
            transport: &HalfTwice(5),
            responsive: &ServerSet::full(5),
            config: &config,
            epoch: 0,
            metrics: None,
            clock: &clock,
            hist: LatencyHistogram::new(),
            member_bits: 8,
        };
        let started = Instant::now();
        prime_register(&run);
        let waited = started.elapsed();
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
