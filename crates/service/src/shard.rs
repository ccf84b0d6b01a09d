//! Sharded in-process replica ownership — the loopback [`Transport`].
//!
//! The universe of `n` replicas is partitioned round-robin across `shards`
//! lock stripes: server `i` lives on shard `i % shards`, and each shard's
//! replicas and RNG sit behind one `Mutex`. There are no service threads. A
//! request runs to completion on the thread that sends it:
//! [`Transport::send`] takes the owning shard's lock, applies the operation,
//! releases the lock and completes the reply sink, so a round trip through
//! the loopback costs no hand-off at all and clients that address different
//! shards proceed in parallel. Replica state is still only ever touched by
//! one thread at a time — the same discipline a networked replica server
//! would have, which is what lets a network backend replace
//! [`LoopbackService`] behind the [`Transport`] trait without touching client
//! code (`bqs-net`'s `SocketServer` in fact *wraps* a `LoopbackService`,
//! keeping one replica-ownership implementation).
//!
//! [`LoopbackService::send_batch`] is the batching stage of the request path:
//! a quorum fan-out is bucketed by owning shard, each bucket is applied
//! back-to-back under **one** lock acquisition while the replica state is
//! cache-hot, and the replies are handed to their sinks one
//! [`ReplySink::complete_batch`](crate::mailbox::ReplySink::complete_batch)
//! per sink. Sinks are always completed with **no shard lock held**, so a
//! sink may re-enter the service (and a slow sink stalls only its sender).
//! Within a shard, requests are applied in the order they were sent, so a
//! shard's RNG stream — what an equivocating replica answers with — is a
//! function of the seed and that order alone.
//!
//! Fault injection is `bqs-sim`'s [`FaultPlan`]/[`Replica`] model, used
//! wholesale: a crashed replica ignores writes and reads as `None`, Byzantine
//! replicas answer through their attack strategy, and the service exposes the
//! failure-detector view ([`LoopbackService::responsive_set`]) that clients
//! use for probe-and-fallback quorum selection.
//!
//! Two control operations mutate the shards directly:
//! [`LoopbackService::reset_plan`] swaps every shard's replicas for a fresh
//! set built from a new [`FaultPlan`] (repeated-trial harnesses — the
//! availability validation in `bench_service` — re-arm one service per trial
//! this way), and [`LoopbackService::crash_servers`] kills a chosen set of
//! replicas *at runtime* through `&self`, which is what reconfiguration
//! harnesses use to fail servers under load.
//!
//! Every request passes the service's shared [`EpochGate`] before touching a
//! replica: requests stamped with an epoch outside the acceptance window are
//! fenced — answered in-band with [`Reply::stale`] — so a reconfiguration
//! (`bqs-epoch`) can cut off a retired access strategy at the replica
//! boundary (see `bqs_sim::epoch` for the safety argument).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use bqs_core::bitset::ServerSet;
use bqs_sim::epoch::EpochGate;
use bqs_sim::fault::FaultPlan;
use bqs_sim::server::{Behavior, Replica};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::mailbox::{complete_runs, ReplyHandle};
use crate::metrics::ServiceMetrics;
use crate::transport::{Operation, Reply, Request, Transport};

/// One lock stripe: the replicas of servers `shard_id, shard_id + shards, …`
/// in index order (server `i` is `replicas[i / shards]`), and the RNG their
/// equivocating members draw from.
#[derive(Debug)]
struct Shard {
    replicas: Vec<Replica>,
    rng: StdRng,
}

/// An in-process sharded quorum service: replicas in lock-striped shards,
/// every request applied on its sender's thread, lock-free metrics.
#[derive(Debug)]
pub struct LoopbackService {
    shards: Vec<Mutex<Shard>>,
    n: usize,
    responsive: ServerSet,
    metrics: Arc<ServiceMetrics>,
    gate: Arc<EpochGate>,
}

/// Round-robin partition of a plan's replicas into shards, each with its
/// private RNG derived from the service seed and the shard id.
fn build_shards(plan: &FaultPlan, shards: usize, seed: u64) -> Vec<Shard> {
    let mut built: Vec<Shard> = (0..shards)
        .map(|shard_id| Shard {
            replicas: Vec::new(),
            rng: StdRng::seed_from_u64(seed ^ (0x5a5a_0001u64.wrapping_mul(shard_id as u64 + 1))),
        })
        .collect();
    for (i, replica) in plan.build_replicas().into_iter().enumerate() {
        built[i % shards].replicas.push(replica);
    }
    built
}

/// The failure detector's view of a plan: servers that answer protocol
/// messages (everything except crashed and silent-Byzantine replicas).
fn responsive_view(plan: &FaultPlan) -> ServerSet {
    let n = plan.universe_size();
    ServerSet::from_indices(
        n,
        plan.build_replicas()
            .iter()
            .enumerate()
            .filter(|(_, r)| r.is_responsive())
            .map(|(i, _)| i),
    )
}

impl LoopbackService {
    /// Builds the replicas described by `plan` into `shards` lock stripes
    /// (server `i` lives on shard `i % shards`). `seed` derives each shard's
    /// private RNG (used by equivocating Byzantine replicas). No thread is
    /// started: requests run on the threads that send them.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0` or the plan covers an empty universe.
    #[must_use]
    pub fn spawn(plan: &FaultPlan, shards: usize, seed: u64) -> Self {
        let n = plan.universe_size();
        assert!(shards > 0, "a service needs at least one shard");
        assert!(n > 0, "a service needs at least one server");
        LoopbackService {
            shards: build_shards(plan, shards.min(n), seed)
                .into_iter()
                .map(Mutex::new)
                .collect(),
            n,
            responsive: responsive_view(plan),
            metrics: Arc::new(ServiceMetrics::new(n)),
            gate: Arc::new(EpochGate::new()),
        }
    }

    /// Re-arms the service with fresh replicas built from `plan`: every shard
    /// swaps its replicas (and reseeds its RNG from `seed`), the
    /// failure-detector view is recomputed, and the metrics and the epoch
    /// gate are reset. Taking `&mut self` guarantees no client holds the
    /// service across the swap, so no request can observe half-old half-new
    /// replicas.
    ///
    /// # Panics
    ///
    /// Panics if `plan` covers a different universe than the one the service
    /// was spawned with.
    pub fn reset_plan(&mut self, plan: &FaultPlan, seed: u64) {
        assert_eq!(
            plan.universe_size(),
            self.n,
            "reset_plan must keep the universe size"
        );
        let fresh = build_shards(plan, self.shards.len(), seed);
        for (shard, fresh) in self.shards.iter_mut().zip(fresh) {
            *shard
                .get_mut()
                .expect("no sender panicked under a shard lock") = fresh;
        }
        self.responsive = responsive_view(plan);
        self.metrics.reset();
        self.gate.reset();
    }

    /// Crashes the listed servers at runtime: each replica is swapped for a
    /// crashed one (writes ignored, reads answered `None`) under its shard's
    /// lock — when this returns, no later request observes the old
    /// behaviour. Unlike [`LoopbackService::reset_plan`] this takes `&self`,
    /// so a harness can fail servers while clients are actively driving load
    /// — which is exactly what the reconfiguration benches do. The
    /// failure-detector view is deliberately *not* updated: discovering the
    /// crash from access evidence is the suspicion engine's job.
    ///
    /// # Panics
    ///
    /// Panics if a server index is out of universe.
    pub fn crash_servers(&self, servers: &[usize]) {
        let shards = self.shards.len();
        for &server in servers {
            assert!(server < self.n, "crash target outside the universe");
            self.lock(server % shards).replicas[server / shards] = Replica::new(Behavior::Crashed);
        }
    }

    /// The epoch gate every request passes. Reconfiguration managers hold a
    /// clone to run the open-window/finalise handoff; everything else can
    /// ignore it (a fresh service accepts exactly epoch 0).
    #[must_use]
    pub fn epoch_gate(&self) -> &Arc<EpochGate> {
        &self.gate
    }

    /// The failure detector's view: servers that answer protocol messages
    /// (everything except crashed and silent-Byzantine replicas). Static
    /// between [`LoopbackService::reset_plan`] calls: the model's failure
    /// detector is perfect and failures are fixed by the plan.
    #[must_use]
    pub fn responsive_set(&self) -> &ServerSet {
        &self.responsive
    }

    /// The service's shared lock-free metrics.
    #[must_use]
    pub fn metrics(&self) -> &Arc<ServiceMetrics> {
        &self.metrics
    }

    /// Number of shards the replicas are partitioned into.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    fn lock(&self, shard: usize) -> MutexGuard<'_, Shard> {
        self.shards[shard]
            .lock()
            .expect("no sender panicked under a shard lock")
    }

    /// Applies one in-universe request to its replica, under the owning
    /// shard's lock, and returns the reply frame — always one, with the
    /// request's id echoed (in-band `None` for silent servers — see
    /// [`Reply`]).
    fn apply(&self, shard: &mut Shard, request: &Request) -> Reply {
        if !self.gate.accepts(request.epoch) {
            // Fenced: the access strategy this request was sampled under is
            // retired. Answer in-band so the client both fails fast and
            // learns the current epoch; the replica is never touched.
            return Reply {
                server: request.server,
                request_id: request.request_id,
                entry: None,
                epoch: self.gate.current(),
                stale: true,
            };
        }
        let replica = &mut shard.replicas[request.server / self.shards.len()];
        self.metrics.record_access(request.server);
        let entry = match request.op {
            Operation::Write(entry) => {
                replica.deliver_write(entry);
                None
            }
            Operation::Read => replica.deliver_read(request.origin, &mut shard.rng),
        };
        Reply {
            server: request.server,
            request_id: request.request_id,
            entry,
            epoch: request.epoch,
            stale: false,
        }
    }
}

impl Transport for LoopbackService {
    fn universe_size(&self) -> usize {
        self.n
    }

    fn send(&self, request: Request) -> bool {
        // An out-of-universe address is refused rather than wrapped: routed
        // modulo-shards it would index past the owning shard's replicas.
        if request.server >= self.n {
            return false;
        }
        let reply = self.apply(&mut self.lock(request.server % self.shards.len()), &request);
        // The shard lock is released: the sink may re-enter the service.
        request.reply.complete(reply);
        true
    }

    /// Buckets the fan-out by owning shard, applies each bucket under one
    /// lock acquisition, and completes the sinks — one call per sink — after
    /// the last lock is released.
    fn send_batch(&self, requests: &mut Vec<Request>) -> bool {
        let shards = self.shards.len();
        let before = requests.len();
        requests.retain(|request| request.server < self.n);
        let ok = requests.len() == before;
        // Stable: requests of one shard keep the order they were sent in.
        requests.sort_by_key(|request| request.server % shards);
        let mut replies: Vec<Reply> = Vec::with_capacity(requests.len());
        for bucket in requests.chunk_by(|a, b| a.server % shards == b.server % shards) {
            let mut shard = self.lock(bucket[0].server % shards);
            replies.extend(bucket.iter().map(|request| self.apply(&mut shard, request)));
        }
        // Every shard lock is released: the sinks may re-enter the service.
        let sinks: Vec<ReplyHandle> = requests.drain(..).map(|request| request.reply).collect();
        complete_runs(&sinks, &replies);
        ok
    }
}

/// A monotone timestamp oracle shared by every writer of a service run, so
/// concurrent writes are totally ordered without coordination beyond one
/// atomic increment.
#[derive(Debug, Default)]
pub struct TimestampOracle {
    next: AtomicU64,
}

impl TimestampOracle {
    /// A fresh oracle starting at timestamp 1.
    #[must_use]
    pub fn new() -> Self {
        TimestampOracle::default()
    }

    /// Allocates the next timestamp (relaxed: the allocation itself is the
    /// only synchronisation needed; the value travels to readers through the
    /// shard locks' release/acquire edges).
    pub fn allocate(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// The highest timestamp allocated so far.
    #[must_use]
    pub fn latest(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mailbox::{ReplyHandle, ReplyMailbox};
    use bqs_sim::server::{ByzantineStrategy, Entry};

    fn roundtrip(service: &LoopbackService, server: usize, op: Operation) -> Reply {
        roundtrip_at(service, server, op, 0)
    }

    fn roundtrip_at(service: &LoopbackService, server: usize, op: Operation, epoch: u64) -> Reply {
        let mb = Arc::new(ReplyMailbox::new());
        assert!(service.send(Request {
            server,
            op,
            request_id: 7,
            origin: 0,
            epoch,
            reply: Arc::clone(&mb) as ReplyHandle,
        }));
        let mut batch = Vec::new();
        assert!(mb.drain_blocking(&mut batch), "shard replies");
        assert_eq!(batch.len(), 1);
        batch.remove(0)
    }

    #[test]
    fn write_then_read_roundtrip_across_shards() {
        let service = LoopbackService::spawn(&FaultPlan::none(5), 3, 7);
        assert_eq!(service.universe_size(), 5);
        assert_eq!(service.shards(), 3);
        let entry = Entry {
            timestamp: 1,
            value: 42,
        };
        for s in 0..5 {
            assert_eq!(roundtrip(&service, s, Operation::Write(entry)).entry, None);
        }
        for s in 0..5 {
            let reply = roundtrip(&service, s, Operation::Read);
            assert_eq!(reply.server, s);
            assert_eq!(reply.request_id, 7, "shards must echo the request id");
            assert_eq!(reply.entry, Some(entry));
        }
        assert_eq!(service.metrics().access_counts(), vec![2; 5]);
    }

    #[test]
    fn send_batch_fans_out_across_shards_in_one_call() {
        let service = LoopbackService::spawn(&FaultPlan::none(5), 2, 11);
        let mb = Arc::new(ReplyMailbox::new());
        let mut fanout: Vec<Request> = (0..5)
            .map(|s| Request {
                server: s,
                op: Operation::Read,
                request_id: 100 + s as u64,
                origin: 0,
                epoch: 0,
                reply: Arc::clone(&mb) as ReplyHandle,
            })
            .collect();
        assert!(service.send_batch(&mut fanout));
        assert!(fanout.is_empty(), "the batch is drained");
        let mut replies = Vec::new();
        while replies.len() < 5 {
            let mut batch = Vec::new();
            assert!(mb.drain_blocking(&mut batch), "shards reply");
            replies.append(&mut batch);
        }
        replies.sort_by_key(|r| r.request_id);
        for (s, reply) in replies.iter().enumerate() {
            assert_eq!(reply.server, s);
            assert_eq!(reply.request_id, 100 + s as u64);
            assert_eq!(reply.entry, None);
        }
    }

    #[test]
    fn send_batch_refuses_out_of_universe_but_delivers_the_rest() {
        let service = LoopbackService::spawn(&FaultPlan::none(3), 2, 1);
        let mb = Arc::new(ReplyMailbox::new());
        let mut fanout: Vec<Request> = [0usize, 7, 2]
            .iter()
            .map(|&s| Request {
                server: s,
                op: Operation::Read,
                request_id: s as u64,
                origin: 0,
                epoch: 0,
                reply: Arc::clone(&mb) as ReplyHandle,
            })
            .collect();
        assert!(
            !service.send_batch(&mut fanout),
            "an out-of-universe member poisons the batch's return"
        );
        let mut replies = Vec::new();
        while replies.len() < 2 {
            let mut batch = Vec::new();
            assert!(mb.drain_blocking(&mut batch));
            replies.append(&mut batch);
        }
        replies.sort_by_key(|r| r.request_id);
        assert_eq!(replies[0].server, 0);
        assert_eq!(replies[1].server, 2);
    }

    #[test]
    fn crashed_and_silent_servers_are_unresponsive_but_replied_in_band() {
        let plan = FaultPlan::none(4)
            .with_crashed(1)
            .with_byzantine(2, ByzantineStrategy::Silent);
        let service = LoopbackService::spawn(&plan, 2, 0);
        assert_eq!(service.responsive_set().to_vec(), vec![0, 3]);
        // A read addressed to the crashed server still gets a frame, with no
        // protocol content.
        assert_eq!(roundtrip(&service, 1, Operation::Read).entry, None);
    }

    #[test]
    fn out_of_universe_requests_are_refused_not_routed() {
        let service = LoopbackService::spawn(&FaultPlan::none(3), 2, 1);
        let mb = Arc::new(ReplyMailbox::new());
        assert!(!service.send(Request {
            server: 3,
            op: Operation::Read,
            request_id: 0,
            origin: 0,
            epoch: 0,
            reply: mb as ReplyHandle,
        }));
        // The shards stay healthy afterwards.
        assert_eq!(roundtrip(&service, 2, Operation::Read).entry, None);
    }

    #[test]
    fn more_shards_than_servers_is_clamped() {
        let service = LoopbackService::spawn(&FaultPlan::none(2), 8, 1);
        assert_eq!(service.shards(), 2);
        assert_eq!(roundtrip(&service, 1, Operation::Read).entry, None);
    }

    #[test]
    fn reset_plan_swaps_replica_state_view_and_metrics() {
        let mut service = LoopbackService::spawn(&FaultPlan::none(5), 2, 3);
        let entry = Entry {
            timestamp: 9,
            value: 90,
        };
        for s in 0..5 {
            roundtrip(&service, s, Operation::Write(entry));
        }
        assert_eq!(roundtrip(&service, 0, Operation::Read).entry, Some(entry));

        // Re-arm with a plan that crashes server 1: replica state must be
        // fresh (the old write gone), the view updated, the metrics zeroed.
        service.reset_plan(&FaultPlan::none(5).with_crashed(1), 4);
        assert_eq!(service.responsive_set().to_vec(), vec![0, 2, 3, 4]);
        assert_eq!(roundtrip(&service, 0, Operation::Read).entry, None);
        assert_eq!(roundtrip(&service, 1, Operation::Read).entry, None);
        // Two reads since the reset, nothing from before.
        assert_eq!(service.metrics().access_counts(), vec![1, 1, 0, 0, 0]);

        // And back to a healthy plan: the crash does not stick.
        service.reset_plan(&FaultPlan::none(5), 5);
        assert_eq!(service.responsive_set().len(), 5);
    }

    #[test]
    #[should_panic(expected = "universe size")]
    fn reset_plan_rejects_universe_changes() {
        let mut service = LoopbackService::spawn(&FaultPlan::none(5), 2, 3);
        service.reset_plan(&FaultPlan::none(6), 0);
    }

    #[test]
    fn epoch_gate_fences_requests_outside_the_window() {
        let service = LoopbackService::spawn(&FaultPlan::none(4), 2, 5);
        let entry = Entry {
            timestamp: 3,
            value: 30,
        };
        roundtrip(&service, 0, Operation::Write(entry));

        // Epoch 1 is not yet accepted: fenced without touching the replica.
        let fenced = roundtrip_at(&service, 0, Operation::Read, 1);
        assert!(fenced.stale);
        assert_eq!(fenced.entry, None);
        assert_eq!(fenced.epoch, 0, "fenced replies report the current epoch");

        // Open the handoff window: both epochs are served; served replies
        // echo the request's own stamp.
        service.epoch_gate().open_window(1);
        let old = roundtrip_at(&service, 0, Operation::Read, 0);
        let new = roundtrip_at(&service, 0, Operation::Read, 1);
        assert!(!old.stale && !new.stale);
        assert_eq!((old.epoch, new.epoch), (0, 1));
        assert_eq!(old.entry, Some(entry));
        assert_eq!(new.entry, Some(entry));

        // Finalise: epoch-0 stragglers are fenced and told where to go.
        service.epoch_gate().finalize(1);
        let stale = roundtrip_at(&service, 0, Operation::Read, 0);
        assert!(stale.stale);
        assert_eq!(stale.epoch, 1);
        // Fenced requests never count as served accesses.
        let write_and_reads = 3;
        assert_eq!(
            service.metrics().access_counts()[0],
            write_and_reads,
            "gate rejections must not count toward load"
        );
    }

    #[test]
    fn crash_servers_kills_replicas_under_a_shared_reference() {
        let service = LoopbackService::spawn(&FaultPlan::none(5), 2, 6);
        let entry = Entry {
            timestamp: 5,
            value: 50,
        };
        for s in 0..5 {
            roundtrip(&service, s, Operation::Write(entry));
        }
        service.crash_servers(&[1, 4]);
        // Crashed replicas lose their protocol voice but still answer
        // in-band; the survivors keep their state.
        assert_eq!(roundtrip(&service, 1, Operation::Read).entry, None);
        assert_eq!(roundtrip(&service, 4, Operation::Read).entry, None);
        assert_eq!(roundtrip(&service, 0, Operation::Read).entry, Some(entry));
        // The failure-detector view is deliberately left untouched: the
        // suspicion engine discovers the crash from evidence.
        assert_eq!(service.responsive_set().len(), 5);
    }

    #[test]
    fn reset_plan_rearms_the_epoch_gate() {
        let mut service = LoopbackService::spawn(&FaultPlan::none(4), 2, 7);
        service.epoch_gate().finalize(3);
        assert!(roundtrip_at(&service, 0, Operation::Read, 0).stale);
        service.reset_plan(&FaultPlan::none(4), 8);
        let reply = roundtrip_at(&service, 0, Operation::Read, 0);
        assert!(!reply.stale, "a fresh trial starts back at epoch 0");
    }

    #[test]
    fn timestamp_oracle_is_monotone() {
        let oracle = TimestampOracle::new();
        assert_eq!(oracle.latest(), 0);
        assert_eq!(oracle.allocate(), 1);
        assert_eq!(oracle.allocate(), 2);
        assert_eq!(oracle.latest(), 2);
    }
}
