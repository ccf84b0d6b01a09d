//! The concurrent strategy-driven protocol client.
//!
//! One [`ServiceClient`] runs on one client thread and performs closed-loop
//! masking-register operations against a [`Transport`]:
//!
//! 1. choose an access quorum with the *shared* probe-and-fallback policy
//!    ([`bqs_sim::client::choose_access_quorum`]) — sample from the system's
//!    access strategy (the certified-optimal one when the system is a
//!    [`bqs_core::strategic::StrategicQuorumSystem`]), retry a few times under
//!    sporadic failures, fall back to deterministic live-quorum discovery;
//! 2. fan the operation out to every quorum member in **one**
//!    [`Transport::send_batch`] call (one shard lock / one syscall per
//!    destination, not one per member);
//! 3. gather replies from the client's private reply mailbox — ids are
//!    strictly increasing across the client's lifetime, so stragglers from an
//!    aborted earlier operation are recognised by id and dropped without
//!    reallocating anything — and let the operation's
//!    [`bqs_sim::quorum_op::QuorumOp`] decide which of them count (quorum
//!    member, right epoch, one vote per server, never a fence);
//! 4. take the operation's outcome from the core
//!    ([`bqs_sim::quorum_op::QuorumOp::outcome`]): for reads, entries with at
//!    least `b + 1` supporters are safe and the freshest safe entry wins.
//!
//! Steps 2 and 3 and the deadline are the one operation path the open-loop
//! worker shares (`crate::inflight`); this shell adds only the id rule, the
//! fence policy, the per-reply wait and the retry loop.
//!
//! The client is deliberately transport-agnostic and system-generic — a
//! message-passing shell around the protocol core the open-loop generator
//! also uses, so many of them can run against shared shards. It is the
//! register's one client: a single writer stamps its own timestamps
//! ([`ServiceClient::write`]), several writers share the register through
//! the query-then-write timestamping of \[MR98a\]
//! ([`ServiceClient::write_after_query`]).

use std::sync::Arc;
use std::time::{Duration, Instant};

use bqs_core::bitset::ServerSet;
use bqs_core::quorum::QuorumSystem;
use bqs_sim::client::{choose_access_quorum, ProtocolError};
use bqs_sim::server::{jitter_factor, Entry, Value};
use rand::Rng;

use crate::inflight::InFlight;
use crate::mailbox::{DrainStatus, ReplyMailbox};
use crate::metrics::ServiceMetrics;
use crate::transport::{Operation, Reply, Request, Transport};

/// Default bound on how long a client waits for a single reply before
/// declaring the transport dead. Quorum selection only ever targets
/// responsive servers, the loopback shards always answer, and `bqs-net`'s
/// socket transport converts expired per-request deadlines into in-band
/// no-answer replies — so under every workspace transport this fires only
/// when the service itself dies mid-request. It exists because
/// [`Transport::send`] returning `true` does *not* promise a reply ever
/// arrives (see the [`crate::transport`] module docs): without the bound the
/// masking protocol's probe-and-fallback would hang forever on a half-dead
/// service. Tune per deployment with [`ServiceClient::with_reply_deadline`].
const DEFAULT_REPLY_DEADLINE: Duration = Duration::from_secs(30);

/// Errors surfaced by the concurrent client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// A protocol-level failure: no live quorum, or no safe value (see
    /// [`ProtocolError`]).
    Protocol(ProtocolError),
    /// The transport refused a request or a reply never arrived — the service
    /// is shutting down or went away mid-request.
    TransportFailure,
    /// The servers fenced the operation: the epoch this client is stamped
    /// with has been retired by a reconfiguration. `current` is the newest
    /// epoch a fencing server reported; the caller must fetch that epoch's
    /// configuration (universe + strategy), update the client, and retry.
    /// Never retried internally — retrying under the retired strategy can
    /// only be fenced again.
    EpochFenced {
        /// The newest epoch reported by a fencing server.
        current: u64,
    },
}

impl From<ProtocolError> for ServiceError {
    fn from(e: ProtocolError) -> Self {
        ServiceError::Protocol(e)
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Protocol(e) => write!(f, "{e}"),
            ServiceError::TransportFailure => write!(f, "transport failed to deliver a reply"),
            ServiceError::EpochFenced { current } => {
                write!(f, "operation fenced: servers are at epoch {current}")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

/// The outcome of a completed service read.
#[derive(Debug, Clone)]
pub struct ServiceReadOutcome {
    /// The freshest safe entry.
    pub entry: Entry,
    /// The quorum that was contacted.
    pub quorum: ServerSet,
}

/// A closed-loop protocol client bound to a quorum system, a transport, and a
/// failure-detector view.
#[derive(Debug)]
pub struct ServiceClient<'s, Q: QuorumSystem + ?Sized, T: Transport + ?Sized> {
    system: &'s Q,
    transport: &'s T,
    responsive: ServerSet,
    b: usize,
    reply_deadline: Duration,
    /// Client identity stamped on every request (see [`Request::origin`]).
    origin: u64,
    /// The reconfiguration epoch stamped on every request (see
    /// [`Request::epoch`]), fixed at construction.
    epoch: u64,
    /// Retry budget per operation (0 = fail on the first transport failure).
    retry_limit: u32,
    /// Base backoff doubled per retry attempt, jittered to `[0.5, 1.5)`.
    retry_backoff: Duration,
    /// Optional degradation accounting (drops/timeouts/retries/aborts).
    metrics: Option<Arc<ServiceMetrics>>,
    next_request_id: u64,
    /// The client's one reply sink, shared by every operation it ever issues.
    /// Stragglers from aborted operations are filtered by id, so the mailbox
    /// never needs replacing.
    reply_mailbox: Arc<ReplyMailbox>,
    /// The operation in progress and the scratch buffers (fan-out requests,
    /// drained replies), all reused across operations: the steady-state hot
    /// path allocates nothing beyond the sampled quorum.
    current: InFlight,
    fanout: Vec<Request>,
    drained: Vec<Reply>,
}

impl<'s, Q: QuorumSystem + ?Sized, T: Transport + ?Sized> ServiceClient<'s, Q, T> {
    /// Creates a client over `system` (masking level `b`) speaking through
    /// `transport`, with `responsive` as its failure detector's view.
    #[must_use]
    pub fn new(system: &'s Q, transport: &'s T, responsive: ServerSet, b: usize) -> Self {
        ServiceClient {
            system,
            transport,
            responsive,
            b,
            reply_deadline: DEFAULT_REPLY_DEADLINE,
            origin: 0,
            epoch: 0,
            retry_limit: 0,
            retry_backoff: Duration::from_millis(1),
            metrics: None,
            next_request_id: 0,
            reply_mailbox: Arc::new(ReplyMailbox::new()),
            current: InFlight::start(ServerSet::default(), Operation::Read, 0),
            fanout: Vec::new(),
            drained: Vec::new(),
        }
    }

    /// Sets the per-reply wait bound (see [`crate::transport`]'s "no answer"
    /// contract: an accepted request is not a promise of a reply, so every
    /// wait must be bounded for the protocol to be hang-free).
    #[must_use]
    pub fn with_reply_deadline(mut self, deadline: Duration) -> Self {
        self.reply_deadline = deadline;
        self
    }

    /// Sets the client identity stamped on every request as
    /// [`Request::origin`]. Defaults to 0; give each client of a shared
    /// in-process service a distinct origin when per-client adversaries are in
    /// play (the socket path derives origins from connections instead).
    #[must_use]
    pub fn with_origin(mut self, origin: u64) -> Self {
        self.origin = origin;
        self
    }

    /// Sets the epoch stamped on every request this client issues (see
    /// [`Request::epoch`]). Defaults to 0 — correct for any service that has
    /// never reconfigured.
    #[must_use]
    pub fn with_epoch(mut self, epoch: u64) -> Self {
        self.epoch = epoch;
        self
    }

    /// Enables graceful degradation: up to `limit` retries per operation after
    /// a refused send or an expired reply deadline, sleeping an exponentially
    /// doubled `base_backoff` between attempts, scaled by the deterministic
    /// `[0.5, 1.5)` jitter factor ([`jitter_factor`]). The socket transport
    /// scales its reconnect pauses by the same factor, but they grow
    /// linearly. A *closed* reply path is never retried — closure means no
    /// reply can ever arrive (see [`DrainStatus::Closed`]), so the operation
    /// aborts immediately. Protocol-level errors (no live quorum, no safe
    /// value) are never retried either: they are answers, not failures.
    #[must_use]
    pub fn with_retries(mut self, limit: u32, base_backoff: Duration) -> Self {
        self.retry_limit = limit;
        self.retry_backoff = base_backoff;
        self
    }

    /// Attaches degradation accounting: timeouts, retries and aborts observed
    /// by this client are recorded into `metrics` (fault-injecting transports
    /// record drops into the same sink).
    #[must_use]
    pub fn with_metrics(mut self, metrics: Arc<ServiceMetrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// One attempt: fans `op` out to every member of the current operation's
    /// quorum in one batched transport call and gathers replies until every
    /// member's vote is in (`Ok(true)`). `Ok(false)` is a transient failure —
    /// a refused send, or a reply deadline that passed with votes missing
    /// (the transport may merely be slow) — which [`ServiceClient::operate`]
    /// may retry; a fence and a closed reply path are final.
    ///
    /// Ids are strictly increasing across the client's lifetime, so a reply
    /// with an id below this operation's range is a straggler from an aborted
    /// earlier rendezvous — older epoch stamp, possibly older strategy — and
    /// is dropped before it can vote on or fence this operation. Everything
    /// else about admission is [`QuorumOp::admit`]'s.
    fn rendezvous(&mut self, op: Operation) -> Result<bool, ServiceError> {
        let first_id = self.next_request_id + 1;
        self.next_request_id += self.current.op.quorum().len() as u64;
        let id = |member: usize, _| first_id + member as u64;
        let (transport, origin, mailbox) = (self.transport, self.origin, &self.reply_mailbox);
        if !self
            .current
            .fan_out(transport, op, origin, id, mailbox, &mut self.fanout)
        {
            // Partial delivery is possible; the id filter below absorbs any
            // replies the accepted members still produce.
            return Ok(false);
        }
        let metrics = self.metrics.as_deref();
        if metrics.is_some() {
            // Only the metrics' latency evidence reads `started`.
            self.current.started = Instant::now();
        }
        while !self.current.op.is_complete() {
            match mailbox.drain_timeout(self.reply_deadline, &mut self.drained) {
                DrainStatus::Drained(_) => {}
                DrainStatus::TimedOut => {
                    self.current.on_deadline(metrics);
                    return Ok(false);
                }
                // The reply path is gone for good (reader thread died,
                // service torn down): fail fast, never wait out the deadline,
                // and never retry — that would only burn the backoff budget.
                DrainStatus::Closed => return Err(self.abort()),
            }
            // Fence policy: report the newest epoch of the drained batch.
            let mut fenced_at: Option<u64> = None;
            for reply in self.drained.drain(..) {
                if reply.request_id < first_id {
                    continue;
                }
                if let Some(current) = self.current.on_reply(reply, metrics) {
                    fenced_at = Some(fenced_at.map_or(current, |e| e.max(current)));
                }
            }
            // Never retried: under the retired strategy a retry can only be
            // fenced again. A signal, not a failure — no abort is recorded.
            if let Some(current) = fenced_at {
                return Err(ServiceError::EpochFenced { current });
            }
        }
        Ok(true)
    }

    /// Records an abandoned operation and names its error.
    fn abort(&self) -> ServiceError {
        if let Some(metrics) = &self.metrics {
            metrics.record_abort();
        }
        ServiceError::TransportFailure
    }

    /// Runs one operation to completion: choose a quorum, rendezvous, and on
    /// a transient failure (a refusal, a quiet deadline, a write some member
    /// did not acknowledge) sleep the jittered
    /// backoff and retry against a freshly chosen quorum, `retry_limit` times
    /// at most. A fence or a closed reply path ends the operation at once.
    /// Returns the operation's outcome: `None` for a write, the resolved
    /// entry for a read; the quorum stays in `self.current`.
    pub(crate) fn operate<R: Rng>(
        &mut self,
        op: Operation,
        rng: &mut R,
    ) -> Result<Option<Entry>, ServiceError> {
        let mut attempt = 0u32;
        loop {
            let quorum = choose_access_quorum(self.system, &self.responsive, rng)?;
            self.current.op.restart(quorum, op.kind(), self.epoch);
            if self.rendezvous(op)? {
                match self.current.op.outcome(self.b) {
                    // An unacknowledged write did not complete: retried as
                    // after a quiet deadline.
                    Err(ProtocolError::NoSafeValue) if self.current.op.is_write() => {
                        self.current.on_deadline(self.metrics.as_deref());
                    }
                    outcome => return Ok(outcome?),
                }
            }
            if attempt >= self.retry_limit {
                return Err(self.abort());
            }
            attempt += 1;
            if let Some(metrics) = &self.metrics {
                metrics.record_retry();
            }
            let base = self.retry_backoff.as_nanos() as u64;
            let doubled = base.saturating_mul(1u64 << (attempt - 1).min(16));
            // Keyed so that concurrent clients desync.
            let key = self.origin ^ self.next_request_id ^ u64::from(attempt);
            let nanos = (doubled as f64 * jitter_factor(key)) as u64;
            if nanos > 0 {
                std::thread::sleep(Duration::from_nanos(nanos));
            }
        }
    }

    /// Writes `entry` to a quorum chosen by the access strategy.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Protocol`] with [`ProtocolError::NoLiveQuorum`] when no
    /// quorum of responsive servers exists; [`ServiceError::TransportFailure`]
    /// when the service is gone.
    pub fn write<R: Rng>(&mut self, entry: Entry, rng: &mut R) -> Result<ServerSet, ServiceError> {
        self.operate(Operation::Write(entry), rng)?;
        Ok(self.current.op.take_quorum())
    }

    /// Reads the register, masking up to `b` Byzantine replies.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Protocol`] with [`ProtocolError::NoLiveQuorum`] when no
    /// quorum of responsive servers exists or [`ProtocolError::NoSafeValue`]
    /// when no pair had `b + 1` supporters (an empty register, or concurrent
    /// writes splitting the quorum's support), or
    /// [`ServiceError::TransportFailure`] when the service is gone.
    pub fn read<R: Rng>(&mut self, rng: &mut R) -> Result<ServiceReadOutcome, ServiceError> {
        let entry = self.operate(Operation::Read, rng)?;
        Ok(ServiceReadOutcome {
            entry: entry.expect("a resolved read has an entry"),
            quorum: self.current.op.take_quorum(),
        })
    }

    /// The multi-writer write of \[MR98a\]: query a quorum for the highest safe
    /// timestamp — masking the `b` possibly-lying servers exactly as a read
    /// does; an empty register counts as timestamp 0 — then write `value`
    /// under the next timestamp writer `writer_id` of `writers` owns,
    /// `(highest / writers + 1) * writers + writer_id`, so two writers never
    /// produce the same timestamp. Costs two quorum round trips; with
    /// sequential operations every read returns the most recent completed
    /// write, whichever writer made it. Returns the entry written.
    ///
    /// # Errors
    ///
    /// As [`ServiceClient::read`] (except that an empty register is not an
    /// error) for the query round and [`ServiceClient::write`] for the write
    /// round.
    ///
    /// # Panics
    ///
    /// Panics if `writers == 0` or `writer_id >= writers`.
    pub fn write_after_query<R: Rng>(
        &mut self,
        value: Value,
        writer_id: u64,
        writers: u64,
        rng: &mut R,
    ) -> Result<Entry, ServiceError> {
        assert!(writer_id < writers, "invalid writer identity");
        let highest = match self.read(rng) {
            Ok(read) => read.entry.timestamp,
            Err(ServiceError::Protocol(ProtocolError::NoSafeValue)) => 0,
            Err(e) => return Err(e),
        };
        let entry = Entry {
            timestamp: (highest / writers + 1) * writers + writer_id,
            value,
        };
        self.write(entry, rng)?;
        Ok(entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mailbox::ReplyHandle;
    use crate::shard::LoopbackService;
    use bqs_constructions::threshold::ThresholdSystem;
    use bqs_constructions::MGridSystem;
    use bqs_sim::fault::FaultPlan;
    use bqs_sim::server::ByzantineStrategy::{Equivocate, FabricateHighTimestamp, StaleReplay};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn read_your_write_through_the_loopback() {
        let system = ThresholdSystem::minimal_masking(1).unwrap(); // 4-of-5, b = 1
        let service = LoopbackService::spawn(&FaultPlan::none(5), 2, 3);
        let mut client = ServiceClient::new(&system, &service, service.responsive_set().clone(), 1);
        let mut rng = StdRng::seed_from_u64(1);
        let entry = Entry {
            timestamp: 1,
            value: 99,
        };
        client.write(entry, &mut rng).unwrap();
        let outcome = client.read(&mut rng).unwrap();
        assert_eq!(outcome.entry, entry);
        assert_eq!(outcome.quorum.len(), 4);
    }

    #[test]
    fn read_before_write_has_no_safe_value() {
        let system = ThresholdSystem::minimal_masking(1).unwrap();
        let service = LoopbackService::spawn(&FaultPlan::none(5), 1, 3);
        let mut client = ServiceClient::new(&system, &service, service.responsive_set().clone(), 1);
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(
            client.read(&mut rng).unwrap_err(),
            ServiceError::Protocol(ProtocolError::NoSafeValue)
        );
    }

    #[test]
    fn faults_within_the_design_bound_are_masked() {
        // Thresh(3b+1 of 4b+1) under b Byzantine servers of each kind, or a
        // crash within its resilience: every read returns the last write.
        let cases = [
            (
                1,
                FaultPlan::none(5).with_byzantine(2, FabricateHighTimestamp { value: 666 }),
            ),
            (1, FaultPlan::none(5).with_byzantine(0, StaleReplay)),
            (
                2,
                FaultPlan::none(9)
                    .with_byzantine(0, Equivocate)
                    .with_byzantine(1, Equivocate),
            ),
            (1, FaultPlan::none(5).with_crashed(4)),
        ];
        for (b, plan) in cases {
            let system = ThresholdSystem::minimal_masking(b).unwrap();
            let service = LoopbackService::spawn(&plan, 2, 5);
            let mut client =
                ServiceClient::new(&system, &service, service.responsive_set().clone(), b);
            let mut rng = StdRng::seed_from_u64(5);
            // Three writes, so that a stale replayer has an older pair to push.
            let entries = [1, 2, 3].map(|timestamp| Entry {
                timestamp,
                value: 10 * timestamp,
            });
            for entry in entries {
                client.write(entry, &mut rng).unwrap();
            }
            for _ in 0..20 {
                let outcome = client.read(&mut rng).unwrap();
                assert_eq!(outcome.entry, entries[2], "a lie leaked under {plan:?}");
            }
        }
    }

    #[test]
    fn multi_writer_round_robin_reads_return_the_last_completed_write() {
        let mgrid = MGridSystem::new(5, 2).unwrap();
        let threshold2 = ThresholdSystem::minimal_masking(2).unwrap();
        let threshold1 = ThresholdSystem::minimal_masking(1).unwrap();
        let attacked = FaultPlan::none(9)
            .with_byzantine(1, FabricateHighTimestamp { value: 0xE7 })
            .with_byzantine(6, Equivocate);
        let beyond_resilience = FaultPlan::none(5).with_crashed(0).with_crashed(1);
        // (system, b, writers, plan, whether a live quorum exists)
        let cases: [(&dyn QuorumSystem, usize, u64, FaultPlan, bool); 3] = [
            (&mgrid, 2, 3, FaultPlan::none(25), true),
            (&threshold2, 2, 2, attacked, true),
            (&threshold1, 1, 2, beyond_resilience, false),
        ];
        for (system, b, writers, plan, available) in cases {
            let service = LoopbackService::spawn(&plan, 2, 3);
            // One client per writer and, last, the reader.
            let mut clients: Vec<_> = (0..=writers)
                .map(|origin| {
                    ServiceClient::new(system, &service, service.responsive_set().clone(), b)
                        .with_origin(origin)
                })
                .collect();
            let mut rng = StdRng::seed_from_u64(2);
            let mut last_timestamp = 0;
            for op in 0..120u64 {
                let writer = op % writers;
                let wrote =
                    clients[writer as usize].write_after_query(op + 1, writer, writers, &mut rng);
                let read = clients[writers as usize]
                    .read(&mut rng)
                    .map(|outcome| outcome.entry);
                if !available {
                    // Past the resilience everything stalls and nothing lies.
                    let stalled = Err(ServiceError::Protocol(ProtocolError::NoLiveQuorum));
                    assert_eq!((wrote, read), (stalled.clone(), stalled));
                    continue;
                }
                let entry = wrote.unwrap();
                assert_eq!(entry.value, op + 1);
                assert_eq!(entry.timestamp % writers, writer, "writer-owned timestamps");
                assert!(
                    entry.timestamp > last_timestamp,
                    "timestamps strictly increase across writers: {entry:?} after {last_timestamp}"
                );
                last_timestamp = entry.timestamp;
                assert_eq!(read.unwrap(), entry, "op {op} under {plan:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "invalid writer identity")]
    fn write_after_query_rejects_a_writer_id_out_of_range() {
        let system = ThresholdSystem::minimal_masking(1).unwrap();
        let service = LoopbackService::spawn(&FaultPlan::none(5), 1, 3);
        let mut client = ServiceClient::new(&system, &service, service.responsive_set().clone(), 1);
        let _ = client.write_after_query(1, 3, 3, &mut StdRng::seed_from_u64(0));
    }

    /// A transport that accepts every request and never replies — the worst
    /// case the "no answer" contract permits (see [`crate::transport`]): an
    /// accepted request whose reply never arrives.
    #[derive(Debug)]
    struct BlackHoleTransport {
        n: usize,
        swallowed: std::sync::atomic::AtomicU64,
    }

    impl Transport for BlackHoleTransport {
        fn universe_size(&self) -> usize {
            self.n
        }

        fn send(&self, request: Request) -> bool {
            // Drop the reply sender on the floor: the client's channel hangs
            // up-less, exactly like a service dying mid-request.
            drop(request);
            self.swallowed
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            true
        }
    }

    #[test]
    fn accepted_request_with_no_reply_surfaces_transport_failure_not_a_hang() {
        // Satellite: `Transport::send` returning `true` is not a promise of a
        // reply. The client must bound its wait and surface the deadline as
        // `TransportFailure` so probe-and-fallback cannot hang.
        let system = ThresholdSystem::minimal_masking(1).unwrap();
        let transport = BlackHoleTransport {
            n: 5,
            swallowed: std::sync::atomic::AtomicU64::new(0),
        };
        let responsive = bqs_core::bitset::ServerSet::full(5);
        let mut client = ServiceClient::new(&system, &transport, responsive, 1)
            .with_reply_deadline(std::time::Duration::from_millis(50));
        let mut rng = StdRng::seed_from_u64(3);
        let started = std::time::Instant::now();
        let err = client
            .write(
                Entry {
                    timestamp: 1,
                    value: 1,
                },
                &mut rng,
            )
            .unwrap_err();
        assert_eq!(err, ServiceError::TransportFailure);
        assert!(
            started.elapsed() < std::time::Duration::from_secs(5),
            "the deadline must fire promptly, not hang"
        );
        assert!(
            transport
                .swallowed
                .load(std::sync::atomic::Ordering::Relaxed)
                >= 4
        );
        // Reads bound their waits the same way.
        let err = client.read(&mut rng).unwrap_err();
        assert_eq!(err, ServiceError::TransportFailure);
    }

    /// A transport that refuses every request addressed to one server and
    /// acknowledges the rest in-band immediately — the partial-delivery shape
    /// `send_batch`'s contract documents.
    #[derive(Debug)]
    struct PartialRefusalTransport {
        n: usize,
        refuse_server: usize,
    }

    impl Transport for PartialRefusalTransport {
        fn universe_size(&self) -> usize {
            self.n
        }

        fn send(&self, request: Request) -> bool {
            if request.server == self.refuse_server {
                return false;
            }
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

    #[test]
    fn send_batch_partial_refusal_contract() {
        // Satellite: pin the documented contract of `Transport::send_batch` —
        // a `false` return may be *partial*: accepted requests still reply,
        // refused ones never will.
        let transport = PartialRefusalTransport {
            n: 5,
            refuse_server: 2,
        };
        let mailbox = Arc::new(ReplyMailbox::new());
        let mut batch: Vec<Request> = (0..4)
            .map(|server| Request {
                server,
                op: Operation::Read,
                request_id: 100 + server as u64,
                origin: 0,
                epoch: 0,
                reply: Arc::clone(&mailbox) as ReplyHandle,
            })
            .collect();
        assert!(
            !transport.send_batch(&mut batch),
            "a batch containing a refused request must return false"
        );
        assert!(batch.is_empty(), "send_batch drains the batch either way");
        let mut drained = Vec::new();
        let status = mailbox.drain_timeout(Duration::from_millis(200), &mut drained);
        assert_eq!(status.count(), 3, "exactly the accepted requests reply");
        assert!(
            drained.iter().all(|r| r.server != 2),
            "the refused request must never produce a reply"
        );
        // Waiting longer buys nothing: the refused id is answerless forever,
        // which is why the client must fall back on its deadline.
        drained.clear();
        assert_eq!(
            mailbox.drain_timeout(Duration::from_millis(50), &mut drained),
            DrainStatus::TimedOut
        );

        // Client level: a fan-out that touches the refused server surfaces
        // TransportFailure without hanging, and the stragglers the accepted
        // members produced are invisible to the next operation (id filter).
        let system = ThresholdSystem::minimal_masking(1).unwrap();
        let responsive = bqs_core::bitset::ServerSet::full(5);
        let metrics = Arc::new(ServiceMetrics::new(5));
        let mut client = ServiceClient::new(&system, &transport, responsive, 1)
            .with_reply_deadline(Duration::from_millis(100))
            .with_metrics(Arc::clone(&metrics));
        let mut rng = StdRng::seed_from_u64(9);
        let started = std::time::Instant::now();
        // Every 4-of-5 quorum except one contains server 2; drive until a
        // refusal has been observed (deterministic well within the bound).
        let mut saw_refusal = false;
        for _ in 0..32 {
            match client.read(&mut rng) {
                Err(ServiceError::TransportFailure) => {
                    saw_refusal = true;
                }
                Err(ServiceError::Protocol(ProtocolError::NoSafeValue)) => {
                    // The quorum avoiding server 2: all-None replies resolve
                    // to no safe value — stragglers were filtered, or this
                    // operation would have double-counted old acks.
                }
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        assert!(saw_refusal);
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "refusals must fail fast, not serially burn deadlines"
        );
        assert!(
            metrics.snapshot().aborts > 0,
            "refused fan-outs count as aborts"
        );
    }

    #[test]
    fn closed_reply_path_fails_fast_and_is_never_retried() {
        // Satellite: the reader-thread-death path. A client whose reply
        // mailbox closes mid-wait must learn it immediately — not burn its
        // deadline — and must not retry: closure is terminal.
        let transport = BlackHoleTransport {
            n: 5,
            swallowed: std::sync::atomic::AtomicU64::new(0),
        };
        let system = ThresholdSystem::minimal_masking(1).unwrap();
        let responsive = bqs_core::bitset::ServerSet::full(5);
        let metrics = Arc::new(ServiceMetrics::new(5));
        let mut client = ServiceClient::new(&system, &transport, responsive, 1)
            .with_reply_deadline(Duration::from_secs(30))
            .with_retries(5, Duration::from_millis(1))
            .with_metrics(Arc::clone(&metrics));
        // The reader thread dies: its teardown closes the client's sink.
        client.reply_mailbox.close();
        let mut rng = StdRng::seed_from_u64(4);
        let started = std::time::Instant::now();
        let err = client
            .write(
                Entry {
                    timestamp: 1,
                    value: 1,
                },
                &mut rng,
            )
            .unwrap_err();
        assert_eq!(err, ServiceError::TransportFailure);
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "closure must preempt the 30 s deadline"
        );
        let seen = metrics.snapshot();
        assert_eq!(seen.retries, 0, "a closed reply path is not retried");
        assert_eq!((seen.aborts, seen.timeouts), (1, 0));
    }

    /// Refuses the first `failures` batches, then delegates to an inner
    /// loopback service — a transient outage for exercising the retry loop.
    #[derive(Debug)]
    struct FlakyTransport {
        inner: LoopbackService,
        failures: std::sync::atomic::AtomicU64,
    }

    impl Transport for FlakyTransport {
        fn universe_size(&self) -> usize {
            self.inner.universe_size()
        }

        fn send(&self, request: Request) -> bool {
            self.inner.send(request)
        }

        fn send_batch(&self, requests: &mut Vec<Request>) -> bool {
            use std::sync::atomic::Ordering;
            if self
                .failures
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |f| {
                    (f > 0).then(|| f - 1)
                })
                .is_ok()
            {
                requests.clear();
                return false;
            }
            self.inner.send_batch(requests)
        }
    }

    #[test]
    fn bounded_retry_recovers_from_transient_refusals() {
        let system = ThresholdSystem::minimal_masking(1).unwrap();
        let transport = FlakyTransport {
            inner: LoopbackService::spawn(&FaultPlan::none(5), 2, 3),
            failures: std::sync::atomic::AtomicU64::new(2),
        };
        let responsive = transport.inner.responsive_set().clone();
        let metrics = Arc::new(ServiceMetrics::new(5));
        let mut client = ServiceClient::new(&system, &transport, responsive, 1)
            .with_retries(3, Duration::from_micros(100))
            .with_metrics(Arc::clone(&metrics));
        let mut rng = StdRng::seed_from_u64(11);
        let entry = Entry {
            timestamp: 1,
            value: 42,
        };
        // Two refusals, then success on the third attempt — inside the budget.
        client.write(entry, &mut rng).unwrap();
        let seen = metrics.snapshot();
        assert_eq!((seen.retries, seen.aborts), (2, 0));
        let outcome = client.read(&mut rng).unwrap();
        assert_eq!(outcome.entry, entry);

        // A budget smaller than the outage aborts with the tally to prove it.
        let transport = FlakyTransport {
            inner: LoopbackService::spawn(&FaultPlan::none(5), 2, 3),
            failures: std::sync::atomic::AtomicU64::new(10),
        };
        let responsive = transport.inner.responsive_set().clone();
        let metrics = Arc::new(ServiceMetrics::new(5));
        let mut client = ServiceClient::new(&system, &transport, responsive, 1)
            .with_retries(2, Duration::from_micros(100))
            .with_metrics(Arc::clone(&metrics));
        assert_eq!(
            client.write(entry, &mut rng).unwrap_err(),
            ServiceError::TransportFailure
        );
        let seen = metrics.snapshot();
        assert_eq!((seen.retries, seen.aborts), (2, 1));
    }

    #[test]
    fn fenced_operations_surface_the_servers_epoch_and_are_not_retried() {
        let system = ThresholdSystem::minimal_masking(1).unwrap();
        let service = LoopbackService::spawn(&FaultPlan::none(5), 2, 13);
        let metrics = Arc::new(ServiceMetrics::new(5));
        let mut client = ServiceClient::new(&system, &service, service.responsive_set().clone(), 1)
            .with_retries(5, Duration::from_micros(100))
            .with_metrics(Arc::clone(&metrics));
        let mut rng = StdRng::seed_from_u64(21);
        let entry = Entry {
            timestamp: 1,
            value: 7,
        };
        client.write(entry, &mut rng).unwrap();

        // The service reconfigures past this client's epoch.
        service.epoch_gate().finalize(2);
        assert_eq!(
            client.write(entry, &mut rng).unwrap_err(),
            ServiceError::EpochFenced { current: 2 }
        );
        assert_eq!(
            client.read(&mut rng).unwrap_err(),
            ServiceError::EpochFenced { current: 2 }
        );
        let seen = metrics.snapshot();
        assert_eq!(seen.retries, 0, "fencing must bypass the retry loop");
        assert_eq!(seen.aborts, 0, "fencing is a signal, not a failure");

        // Recovery: adopt the reported epoch and retry.
        let mut client = client.with_epoch(2);
        let outcome = client.read(&mut rng).unwrap();
        assert_eq!(outcome.entry, entry, "state survives the fence");
        assert_eq!(client.epoch, 2);
    }

    #[test]
    fn per_server_evidence_accumulates_from_reads_and_timeouts() {
        let system = ThresholdSystem::minimal_masking(1).unwrap();
        // Server 1 is crashed: its replies, to reads and writes alike, are
        // in-band Nones.
        let plan = FaultPlan::none(5).with_crashed(1);
        let service = LoopbackService::spawn(&plan, 2, 17);
        let metrics = Arc::new(ServiceMetrics::new(5));
        // The writer knows the crash, so its writes reach the four healthy
        // servers; the reader's view is stale and keeps addressing server 1.
        let mut writer = ServiceClient::new(&system, &service, service.responsive_set().clone(), 1)
            .with_metrics(Arc::clone(&metrics));
        let responsive = bqs_core::bitset::ServerSet::full(5);
        let mut client =
            ServiceClient::new(&system, &service, responsive, 1).with_metrics(Arc::clone(&metrics));
        let mut rng = StdRng::seed_from_u64(23);
        // Several writes so every *healthy* server holds a value before the
        // reads start — a healthy server with an empty register also answers
        // a read in-band `None`, which is (correctly) accusal evidence until
        // a write reaches it.
        for ts in 1..=6 {
            writer
                .write(
                    Entry {
                        timestamp: ts,
                        value: 5,
                    },
                    &mut rng,
                )
                .unwrap();
        }
        for _ in 0..12 {
            let _ = client.read(&mut rng);
        }
        let seen = metrics.snapshot();
        let (answers, accusals) = (&seen.server_answers, &seen.server_no_answers);
        assert!(
            accusals[1] > 0,
            "the crashed server must accumulate no-answer evidence: {accusals:?}"
        );
        assert_eq!(answers[1], 0, "a crashed server never answers: {answers:?}");
        assert!(
            (0..5).filter(|&s| s != 1).all(|s| accusals[s] == 0),
            "healthy servers holding the value must not be accused: {accusals:?}"
        );
        assert!(answers[0] > 0 && seen.server_latency[0].quantile(0.99).is_some());
    }

    #[test]
    fn too_many_crashes_report_no_live_quorum() {
        let system = ThresholdSystem::minimal_masking(1).unwrap(); // tolerates 1 crash
        let plan = FaultPlan::none(5).with_crashed(0).with_crashed(1);
        let service = LoopbackService::spawn(&plan, 2, 5);
        let mut client = ServiceClient::new(&system, &service, service.responsive_set().clone(), 1);
        let mut rng = StdRng::seed_from_u64(6);
        assert_eq!(
            client
                .write(
                    Entry {
                        timestamp: 1,
                        value: 1
                    },
                    &mut rng
                )
                .unwrap_err(),
            ServiceError::Protocol(ProtocolError::NoLiveQuorum)
        );
    }
}
