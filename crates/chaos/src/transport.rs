//! The chaos interposer: a fault-injecting [`Transport`] wrapper.
//!
//! # Determinism keying
//!
//! Every perturbation decision for a request is derived from
//!
//! ```text
//! key  = mix64(seed ^ mix64(scenario) ^ rotl(mix64(origin), 17) ^ request_id)
//! roll = mix64(key ^ salt)        // independent sub-draw per decision kind
//! ```
//!
//! where `mix64` is the splitmix64 finaliser ([`bqs_sim::server::mix64`]).
//! The key depends on nothing but the run's `(seed, scenario)` pair and the
//! request's own identity — never on wall-clock time, thread interleaving, or
//! allocation addresses — so re-running a scenario with the same seed makes
//! *the same* requests meet *the same* fate: the recorded [`TraceEvent`] log
//! is identical and [`ChaosTransport::trace_fingerprint`] pins that. `origin`
//! participates because independent clients restart their request-id
//! sequences; mixing the identity in keeps their chaos streams decorrelated
//! while staying reproducible.
//!
//! # What is perturbed, and how it stays deterministic
//!
//! Requests are perturbed *before* they reach the wrapped transport:
//!
//! * **drop** — the request vanishes. For reads the loss can be *detected*
//!   ([`ChaosConfig::detected_drops`]): the interposer synthesises the same
//!   in-band `entry = None` frame a crashed server produces, so the client's
//!   `b + 1`-support rule absorbs the loss without waiting. Undetected drops
//!   are true silence: the client's reply deadline is the failure detector,
//!   and its bounded retry (with jittered backoff) is the recovery path.
//!   Write requests are always dropped silently — a fake write ack would
//!   *cause* the very read-your-writes violation the invariant checker hunts,
//!   and real networks cannot forge acks either.
//! * **delay / jitter / slow servers** — the request is parked on a virtual
//!   scheduler (a min-heap ordered by due time, drained by one background
//!   thread) and forwarded when due. Jitter across requests *reorders* them.
//!   The delay amounts come from the decision stream, so the delivery order
//!   of any two delayed requests is a pure function of the seed; delays are
//!   kept well below reply deadlines so scheduling noise never flips an
//!   outcome.
//! * **duplication** — the request is forwarded twice; the copies race. The
//!   client-side dedup (one counted reply per server per rendezvous) must
//!   hold or a single Byzantine server's echo would reach `b + 1` support.
//! * **asymmetric partition** — a server set unreachable on the request
//!   direction only, and only through *this* interposer (other clients are
//!   unaffected): reads are answered with the detected-loss frame, writes
//!   are silently swallowed.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bqs_service::metrics::ServiceMetrics;
use bqs_service::transport::{Operation, Reply, Request, Transport};
use bqs_sim::server::mix64;

/// How traffic through a [`ChaosTransport`] is perturbed. All rates are per
/// mille (‰) so configs stay integral and exactly reproducible.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Fixed extra delay applied to every forwarded request.
    pub delay_base: Duration,
    /// Additional uniform delay in `[0, delay_jitter)` per request — the
    /// reordering knob.
    pub delay_jitter: Duration,
    /// Chance (‰) that a request is dropped in transit.
    pub drop_per_mille: u32,
    /// When `true`, dropped *read* requests are answered with the in-band
    /// "no answer" frame (loss detected by the failure detector); when
    /// `false` they vanish and the client's reply deadline fires. Dropped
    /// writes are always silent (acks cannot be forged).
    pub detected_drops: bool,
    /// Chance (‰) that a request is delivered twice.
    pub duplicate_per_mille: u32,
    /// Servers unreachable on the request direction (asymmetric partition):
    /// reads get the detected-loss frame, writes are swallowed.
    pub partitioned: Vec<usize>,
    /// Servers whose requests incur [`ChaosConfig::slow_extra`] on top of the
    /// base delay (slow-reply / timeout-inflation).
    pub slow_servers: Vec<usize>,
    /// The extra delay for [`ChaosConfig::slow_servers`].
    pub slow_extra: Duration,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            delay_base: Duration::ZERO,
            delay_jitter: Duration::ZERO,
            drop_per_mille: 0,
            detected_drops: true,
            duplicate_per_mille: 0,
            partitioned: Vec::new(),
            slow_servers: Vec::new(),
            slow_extra: Duration::ZERO,
        }
    }
}

/// What the interposer decided for one request (recorded in the trace).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Forwarded unperturbed.
    Deliver,
    /// Forwarded after the recorded delay.
    Delay,
    /// Forwarded twice (both copies after the recorded delay).
    Duplicate,
    /// Dropped silently; the client's deadline is the only witness.
    DropSilent,
    /// Dropped with the in-band no-answer frame synthesised (detected loss).
    DropDetected,
    /// Swallowed by the partition (write direction: silent).
    PartitionSilent,
    /// Cut by the partition with the in-band frame synthesised (read).
    PartitionDetected,
}

/// One entry of the deterministic event trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// The request's [`Request::origin`].
    pub origin: u64,
    /// The request's correlation id.
    pub request_id: u64,
    /// The addressed server.
    pub server: usize,
    /// True for write requests.
    pub write: bool,
    /// The interposer's decision.
    pub decision: Decision,
    /// The applied delay in nanoseconds (zero for immediate outcomes).
    pub delay_ns: u64,
}

impl TraceEvent {
    fn fold(&self, acc: u64) -> u64 {
        let d = match self.decision {
            Decision::Deliver => 1u64,
            Decision::Delay => 2,
            Decision::Duplicate => 3,
            Decision::DropSilent => 4,
            Decision::DropDetected => 5,
            Decision::PartitionSilent => 6,
            Decision::PartitionDetected => 7,
        };
        let mut h = mix64(acc ^ self.origin);
        h = mix64(h ^ self.request_id);
        h = mix64(h ^ self.server as u64);
        h = mix64(h ^ u64::from(self.write));
        h = mix64(h ^ d);
        mix64(h ^ self.delay_ns)
    }
}

/// Monotone tallies of what the interposer did (relaxed atomics; totals are
/// read after the run).
#[derive(Debug, Default)]
pub struct ChaosStats {
    delivered: AtomicU64,
    delayed: AtomicU64,
    duplicated: AtomicU64,
    dropped: AtomicU64,
    partitioned: AtomicU64,
}

/// A point-in-time copy of [`ChaosStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStatsSnapshot {
    /// Requests forwarded (immediately or after a delay), duplicates counted
    /// once.
    pub delivered: u64,
    /// Requests that incurred a non-zero delay.
    pub delayed: u64,
    /// Requests forwarded twice.
    pub duplicated: u64,
    /// Requests dropped (silently or detected), partitions not included.
    pub dropped: u64,
    /// Requests cut by the partition.
    pub partitioned: u64,
}

/// How many trace events are stored verbatim; the fingerprint keeps folding
/// past the cap, so replay checking stays exact for arbitrarily long runs.
const TRACE_CAP: usize = 1 << 16;

#[derive(Debug)]
struct Trace {
    events: Vec<TraceEvent>,
    fingerprint: u64,
    total: u64,
}

/// One parked request on the virtual scheduler.
#[derive(Debug)]
struct Delayed {
    due: Instant,
    seq: u64,
    request: Request,
}

impl PartialEq for Delayed {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl Eq for Delayed {}
impl PartialOrd for Delayed {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Delayed {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.due.cmp(&other.due).then(self.seq.cmp(&other.seq))
    }
}

#[derive(Debug)]
struct SchedulerState {
    heap: BinaryHeap<Reverse<Delayed>>,
    seq: u64,
    closed: bool,
}

#[derive(Debug)]
struct Scheduler {
    state: Mutex<SchedulerState>,
    due: Condvar,
}

impl Scheduler {
    fn new() -> Self {
        Scheduler {
            state: Mutex::new(SchedulerState {
                heap: BinaryHeap::new(),
                seq: 0,
                closed: false,
            }),
            due: Condvar::new(),
        }
    }

    fn park(&self, due: Instant, request: Request) {
        let mut state = self.state.lock().expect("chaos scheduler lock");
        if state.closed {
            // Teardown raced us: deliver nothing; the client's deadline is
            // the backstop, exactly as for a dying real transport.
            return;
        }
        let seq = state.seq;
        state.seq += 1;
        state.heap.push(Reverse(Delayed { due, seq, request }));
        drop(state);
        self.due.notify_one();
    }

    fn close(&self) {
        let mut state = self.state.lock().expect("chaos scheduler lock");
        state.closed = true;
        drop(state);
        self.due.notify_all();
    }
}

/// Drains the delay heap: forwards each parked request to the wrapped
/// transport when its due time arrives. On close, the backlog is flushed
/// immediately so no accepted request is lost to teardown.
fn scheduler_loop<T: Transport + ?Sized>(scheduler: &Scheduler, inner: &T) {
    let mut state = scheduler.state.lock().expect("chaos scheduler lock");
    loop {
        let closed = state.closed;
        match state.heap.peek() {
            None if closed => return,
            None => {
                state = scheduler.due.wait(state).expect("chaos scheduler lock");
            }
            Some(Reverse(next)) => {
                let now = Instant::now();
                if closed || next.due <= now {
                    let item = state.heap.pop().expect("peeked").0;
                    drop(state);
                    let _ = inner.send(item.request);
                    state = scheduler.state.lock().expect("chaos scheduler lock");
                } else {
                    let wait = next.due - now;
                    state = scheduler
                        .due
                        .wait_timeout(state, wait)
                        .expect("chaos scheduler lock")
                        .0;
                }
            }
        }
    }
}

/// A fault-injecting interposer around any [`Transport`].
///
/// See the [module docs](self) for the determinism keying and the perturbation
/// semantics. Dropping the interposer closes its virtual scheduler, flushes
/// any still-parked requests to the wrapped transport, and joins the
/// scheduler thread — the wrapped transport outlives every in-flight request.
#[derive(Debug)]
pub struct ChaosTransport<T: Transport + 'static> {
    inner: Arc<T>,
    seed: u64,
    scenario: u64,
    config: ChaosConfig,
    scheduler: Arc<Scheduler>,
    worker: Option<JoinHandle<()>>,
    stats: ChaosStats,
    trace: Mutex<Trace>,
    metrics: Option<Arc<ServiceMetrics>>,
}

impl<T: Transport + 'static> ChaosTransport<T> {
    /// Wraps `inner`, perturbing per `config` under the decision stream keyed
    /// by `(seed, scenario)`.
    #[must_use]
    pub fn new(inner: Arc<T>, seed: u64, scenario: u64, config: ChaosConfig) -> Self {
        let scheduler = Arc::new(Scheduler::new());
        let worker = {
            let scheduler = Arc::clone(&scheduler);
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || scheduler_loop(&scheduler, inner.as_ref()))
        };
        ChaosTransport {
            inner,
            seed,
            scenario,
            config,
            scheduler,
            worker: Some(worker),
            stats: ChaosStats::default(),
            trace: Mutex::new(Trace {
                events: Vec::new(),
                fingerprint: 0,
                total: 0,
            }),
            metrics: None,
        }
    }

    /// Records drops and partition cuts into `metrics`
    /// ([`ServiceMetrics::record_drop`]) in addition to the internal stats.
    #[must_use]
    pub fn with_metrics(mut self, metrics: Arc<ServiceMetrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// The wrapped transport.
    #[must_use]
    pub fn inner(&self) -> &Arc<T> {
        &self.inner
    }

    /// A snapshot of the perturbation tallies.
    #[must_use]
    pub fn stats(&self) -> ChaosStatsSnapshot {
        ChaosStatsSnapshot {
            delivered: self.stats.delivered.load(Ordering::Relaxed),
            delayed: self.stats.delayed.load(Ordering::Relaxed),
            duplicated: self.stats.duplicated.load(Ordering::Relaxed),
            dropped: self.stats.dropped.load(Ordering::Relaxed),
            partitioned: self.stats.partitioned.load(Ordering::Relaxed),
        }
    }

    /// The recorded event trace (first [`TRACE_CAP`] events verbatim).
    #[must_use]
    pub fn trace(&self) -> Vec<TraceEvent> {
        self.trace.lock().expect("chaos trace lock").events.clone()
    }

    /// Total events decided (may exceed the stored trace length).
    #[must_use]
    pub fn trace_len(&self) -> u64 {
        self.trace.lock().expect("chaos trace lock").total
    }

    /// The splitmix64 fold of *every* decision made so far, in decision
    /// order. Equal fingerprints across two runs of the same `(seed,
    /// scenario)` pair certify byte-identical perturbation streams — the
    /// replay guarantee the determinism test pins.
    #[must_use]
    pub fn trace_fingerprint(&self) -> u64 {
        self.trace.lock().expect("chaos trace lock").fingerprint
    }

    fn record(&self, event: TraceEvent) {
        let mut trace = self.trace.lock().expect("chaos trace lock");
        trace.fingerprint = event.fold(trace.fingerprint);
        trace.total += 1;
        if trace.events.len() < TRACE_CAP {
            trace.events.push(event);
        }
    }

    fn record_loss(&self) {
        if let Some(metrics) = &self.metrics {
            metrics.record_drop();
        }
    }

    /// Synthesises the in-band "no answer" frame for a detected loss —
    /// byte-identical to what a crashed server's replica would produce.
    fn synthesize_no_answer(request: &Request) {
        request.reply.complete(Reply {
            server: request.server,
            request_id: request.request_id,
            entry: None,
            epoch: request.epoch,
            stale: false,
        });
    }

    /// Decides and applies this request's fate. Returns `false` only when the
    /// wrapped transport refused an immediate forward.
    fn perturb(&self, request: Request, immediate: &mut Vec<Request>) -> bool {
        let is_write = matches!(request.op, Operation::Write(_));
        let key = mix64(
            self.seed
                ^ mix64(self.scenario)
                ^ mix64(request.origin).rotate_left(17)
                ^ request.request_id,
        );
        let roll = |salt: u64| mix64(key ^ salt);

        let mut event = TraceEvent {
            origin: request.origin,
            request_id: request.request_id,
            server: request.server,
            write: is_write,
            decision: Decision::Deliver,
            delay_ns: 0,
        };

        if self.config.partitioned.contains(&request.server) {
            self.stats.partitioned.fetch_add(1, Ordering::Relaxed);
            self.record_loss();
            if is_write {
                event.decision = Decision::PartitionSilent;
            } else {
                event.decision = Decision::PartitionDetected;
                Self::synthesize_no_answer(&request);
            }
            self.record(event);
            return true;
        }

        if self.config.drop_per_mille > 0 && roll(1) % 1000 < u64::from(self.config.drop_per_mille)
        {
            self.stats.dropped.fetch_add(1, Ordering::Relaxed);
            self.record_loss();
            if !is_write && self.config.detected_drops {
                event.decision = Decision::DropDetected;
                Self::synthesize_no_answer(&request);
            } else {
                event.decision = Decision::DropSilent;
            }
            self.record(event);
            return true;
        }

        let duplicate = self.config.duplicate_per_mille > 0
            && roll(2) % 1000 < u64::from(self.config.duplicate_per_mille);

        let mut delay = self.config.delay_base;
        if !self.config.delay_jitter.is_zero() {
            let jitter_ns = self.config.delay_jitter.as_nanos() as u64;
            delay += Duration::from_nanos(roll(3) % jitter_ns.max(1));
        }
        if self.config.slow_servers.contains(&request.server) {
            delay += self.config.slow_extra;
        }

        self.stats.delivered.fetch_add(1, Ordering::Relaxed);
        if duplicate {
            self.stats.duplicated.fetch_add(1, Ordering::Relaxed);
            event.decision = Decision::Duplicate;
        } else if !delay.is_zero() {
            event.decision = Decision::Delay;
        }
        event.delay_ns = delay.as_nanos() as u64;
        self.record(event);

        let copy = duplicate.then(|| Request {
            server: request.server,
            op: request.op,
            request_id: request.request_id,
            origin: request.origin,
            epoch: request.epoch,
            reply: Arc::clone(&request.reply),
        });
        if delay.is_zero() {
            immediate.push(request);
            if let Some(copy) = copy {
                immediate.push(copy);
            }
            true
        } else {
            let due = Instant::now() + delay;
            self.scheduler.park(due, request);
            self.stats.delayed.fetch_add(1, Ordering::Relaxed);
            if let Some(copy) = copy {
                self.scheduler.park(due, copy);
            }
            true
        }
    }
}

impl<T: Transport + 'static> Transport for ChaosTransport<T> {
    fn universe_size(&self) -> usize {
        self.inner.universe_size()
    }

    fn send(&self, request: Request) -> bool {
        let mut immediate = Vec::with_capacity(2);
        let ok = self.perturb(request, &mut immediate);
        if immediate.is_empty() {
            ok
        } else {
            ok & self.inner.send_batch(&mut immediate)
        }
    }

    fn send_batch(&self, requests: &mut Vec<Request>) -> bool {
        // Decisions are made in batch order (deterministic: the client builds
        // its fan-out in quorum order); unperturbed requests stay coalesced
        // into one inner batch so chaos off ≈ transparent.
        let mut immediate = Vec::with_capacity(requests.len());
        let mut ok = true;
        for request in requests.drain(..) {
            ok &= self.perturb(request, &mut immediate);
        }
        if !immediate.is_empty() {
            ok &= self.inner.send_batch(&mut immediate);
        }
        ok
    }
}

impl<T: Transport + 'static> Drop for ChaosTransport<T> {
    fn drop(&mut self) {
        self.scheduler.close();
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bqs_service::mailbox::{ReplyHandle, ReplyMailbox};

    /// Echoes every request with an in-band ack, counting deliveries.
    #[derive(Debug, Default)]
    struct EchoTransport {
        deliveries: AtomicU64,
    }

    impl Transport for EchoTransport {
        fn universe_size(&self) -> usize {
            8
        }

        fn send(&self, request: Request) -> bool {
            self.deliveries.fetch_add(1, Ordering::Relaxed);
            request.reply.complete(Reply {
                server: request.server,
                request_id: request.request_id,
                entry: None,
                epoch: request.epoch,
                stale: false,
            });
            true
        }
    }

    fn request(server: usize, id: u64, mailbox: &Arc<ReplyMailbox>) -> Request {
        Request {
            server,
            op: Operation::Read,
            request_id: id,
            origin: 1,
            epoch: 0,
            reply: Arc::clone(mailbox) as ReplyHandle,
        }
    }

    fn drain_all(mailbox: &ReplyMailbox, expected: usize) -> Vec<Reply> {
        let mut replies = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        while replies.len() < expected && Instant::now() < deadline {
            let mut batch = Vec::new();
            let _ = mailbox.drain_timeout(Duration::from_millis(50), &mut batch);
            replies.append(&mut batch);
        }
        replies
    }

    #[test]
    fn transparent_when_config_is_default() {
        let chaos = ChaosTransport::new(
            Arc::new(EchoTransport::default()),
            1,
            1,
            ChaosConfig::default(),
        );
        let mailbox = Arc::new(ReplyMailbox::new());
        let mut batch: Vec<Request> = (0..8).map(|s| request(s, s as u64, &mailbox)).collect();
        assert!(chaos.send_batch(&mut batch));
        assert_eq!(drain_all(&mailbox, 8).len(), 8);
        let stats = chaos.stats();
        assert_eq!(stats.delivered, 8);
        assert_eq!(stats.dropped + stats.partitioned + stats.duplicated, 0);
        assert_eq!(chaos.trace_len(), 8);
    }

    #[test]
    fn same_seed_same_trace_different_seed_different_trace() {
        let run = |seed: u64| {
            let chaos = ChaosTransport::new(
                Arc::new(EchoTransport::default()),
                seed,
                3,
                ChaosConfig {
                    drop_per_mille: 300,
                    delay_jitter: Duration::from_micros(200),
                    duplicate_per_mille: 200,
                    ..ChaosConfig::default()
                },
            );
            let mailbox = Arc::new(ReplyMailbox::new());
            for id in 0..64u64 {
                let _ = chaos.send(request((id % 8) as usize, id, &mailbox));
            }
            (chaos.trace(), chaos.trace_fingerprint())
        };
        let (trace_a, fp_a) = run(42);
        let (trace_b, fp_b) = run(42);
        assert_eq!(trace_a, trace_b, "same (seed, scenario) → same trace");
        assert_eq!(fp_a, fp_b);
        let (_, fp_c) = run(43);
        assert_ne!(fp_a, fp_c, "a different seed must perturb differently");
    }

    #[test]
    fn detected_drops_synthesize_the_no_answer_frame() {
        let inner = Arc::new(EchoTransport::default());
        let metrics = Arc::new(ServiceMetrics::new(8));
        let chaos = ChaosTransport::new(
            Arc::clone(&inner),
            7,
            2,
            ChaosConfig {
                drop_per_mille: 1000, // everything drops
                detected_drops: true,
                ..ChaosConfig::default()
            },
        )
        .with_metrics(Arc::clone(&metrics));
        let mailbox = Arc::new(ReplyMailbox::new());
        let mut batch: Vec<Request> = (0..4).map(|s| request(s, s as u64, &mailbox)).collect();
        assert!(chaos.send_batch(&mut batch));
        // Nothing reached the inner transport, yet every read got its frame.
        assert_eq!(inner.deliveries.load(Ordering::Relaxed), 0);
        let replies = drain_all(&mailbox, 4);
        assert_eq!(replies.len(), 4);
        assert!(replies.iter().all(|r| r.entry.is_none()));
        assert_eq!(chaos.stats().dropped, 4);
        assert_eq!(metrics.drops(), 4, "drops land in ServiceMetrics too");
    }

    #[test]
    fn dropped_writes_are_always_silent() {
        let inner = Arc::new(EchoTransport::default());
        let chaos = ChaosTransport::new(
            Arc::clone(&inner),
            7,
            2,
            ChaosConfig {
                drop_per_mille: 1000,
                detected_drops: true, // still silent for writes
                ..ChaosConfig::default()
            },
        );
        let mailbox = Arc::new(ReplyMailbox::new());
        assert!(chaos.send(Request {
            server: 0,
            op: Operation::Write(bqs_sim::server::Entry {
                timestamp: 1,
                value: 1,
            }),
            request_id: 9,
            origin: 1,
            epoch: 0,
            reply: Arc::clone(&mailbox) as ReplyHandle,
        }));
        assert_eq!(inner.deliveries.load(Ordering::Relaxed), 0);
        let mut batch = Vec::new();
        assert_eq!(
            mailbox.drain_timeout(Duration::from_millis(50), &mut batch),
            bqs_service::mailbox::DrainStatus::TimedOut,
            "a forged write ack would fabricate read-your-writes"
        );
        assert_eq!(chaos.trace()[0].decision, Decision::DropSilent);
    }

    #[test]
    fn partition_cuts_requests_asymmetrically() {
        let inner = Arc::new(EchoTransport::default());
        let chaos = ChaosTransport::new(
            Arc::clone(&inner),
            5,
            4,
            ChaosConfig {
                partitioned: vec![2, 5],
                ..ChaosConfig::default()
            },
        );
        let mailbox = Arc::new(ReplyMailbox::new());
        let mut batch: Vec<Request> = (0..8).map(|s| request(s, s as u64, &mailbox)).collect();
        assert!(chaos.send_batch(&mut batch));
        // 6 reach the inner transport; the 2 partitioned reads get synthetic
        // frames, so all 8 replies still arrive (loss is detected).
        assert_eq!(inner.deliveries.load(Ordering::Relaxed), 6);
        assert_eq!(drain_all(&mailbox, 8).len(), 8);
        assert_eq!(chaos.stats().partitioned, 2);
    }

    #[test]
    fn delayed_and_duplicated_requests_all_arrive() {
        let inner = Arc::new(EchoTransport::default());
        let chaos = ChaosTransport::new(
            Arc::clone(&inner),
            11,
            6,
            ChaosConfig {
                delay_base: Duration::from_micros(200),
                delay_jitter: Duration::from_micros(500),
                duplicate_per_mille: 1000, // everything duplicates
                ..ChaosConfig::default()
            },
        );
        let mailbox = Arc::new(ReplyMailbox::new());
        let mut batch: Vec<Request> = (0..8).map(|s| request(s, s as u64, &mailbox)).collect();
        assert!(chaos.send_batch(&mut batch));
        let replies = drain_all(&mailbox, 16);
        assert_eq!(replies.len(), 16, "each request delivered exactly twice");
        let stats = chaos.stats();
        assert_eq!(stats.duplicated, 8);
        assert_eq!(stats.delayed, 8);
    }

    #[test]
    fn drop_flushes_parked_requests() {
        let inner = Arc::new(EchoTransport::default());
        let mailbox = Arc::new(ReplyMailbox::new());
        {
            let chaos = ChaosTransport::new(
                Arc::clone(&inner),
                13,
                6,
                ChaosConfig {
                    delay_base: Duration::from_secs(60), // far future
                    ..ChaosConfig::default()
                },
            );
            let mut batch: Vec<Request> = (0..4).map(|s| request(s, s as u64, &mailbox)).collect();
            assert!(chaos.send_batch(&mut batch));
            // Dropping the interposer flushes the heap instead of losing it.
        }
        assert_eq!(inner.deliveries.load(Ordering::Relaxed), 4);
        assert_eq!(drain_all(&mailbox, 4).len(), 4);
    }
}
