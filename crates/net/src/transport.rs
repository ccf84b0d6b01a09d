//! The client side: a pooled socket [`Transport`] with slot-table
//! completions, batched writes, reconnection, and per-request deadlines.
//!
//! [`SocketTransport`] implements the service's [`Transport`] seam over a
//! small pool of connections to one [`crate::server::SocketServer`]. The
//! protocol and generator layers above it are unchanged from the loopback
//! path — that is the point of the seam.
//!
//! # Completions: the slot table
//!
//! Requests from many client threads multiplex onto the pooled connections,
//! so replies must be matched back to their callers. Instead of a
//! `Mutex<HashMap>` keyed by caller id (a hash, an allocation, and a map
//! rebalance per operation), each connection owns a [`SlotTable`]: a
//! pre-allocated vector of completion slots with freelist reuse. Registering
//! an in-flight request pops a free slot and stamps it with the caller's id
//! and reply sink; the **wire** id is `generation << 32 | slot_index`, so
//! reply matching is an array index plus a generation check (the generation
//! increments every time a slot is freed, which makes stale wire ids — late
//! replies to expired requests, duplicates from a confused peer — miss
//! harmlessly instead of completing the slot's new occupant). Requests map to
//! connections by server index, preserving per-server FIFO ordering.
//!
//! Deadlines ride in the table itself: the pending slots form a doubly
//! linked list in registration order, threaded through the slot vector by
//! index. Every request gets the same allowance
//! ([`NetConfig::request_deadline`]) from a monotone clock read under the
//! table lock, so registration order *is* expiry order: the sweeper looks
//! only at the list's head, a completed request unlinks itself in O(1), and
//! the table's memory is proportional to the requests in flight, however
//! long the deadline. Registration order is also write order (both happen
//! under the connection's writer lock), which is what lets a failed write
//! tell the requests that rode the dead stream from the ones it is about to
//! rewrite.
//!
//! The connection's reader takes the table lock once per read chunk, matches
//! every reply of the chunk, and hands each caller its replies as one batch
//! ([`bqs_service::mailbox::complete_runs`]) after the lock is released.
//!
//! # Batching
//!
//! [`Transport::send_batch`] groups a fan-out by destination connection,
//! registers every request's slot, and writes **one** coalesced
//! `WireBatch` frame per connection ([`crate::codec::encode_request_batch`])
//! — a quorum-of-9 fan-out over a 2-connection pool costs 2 syscalls instead
//! of 9. [`Transport::send`] writes the single-message frame; semantics are
//! identical either way.
//!
//! # Failure honesty
//!
//! * **Deadlines as the failure detector.** The sweeper expires pending
//!   requests whose reply has not arrived within
//!   [`NetConfig::request_deadline`] and answers them *in-band* with the
//!   "no answer" frame (`entry = None`) — exactly what a crashed replica
//!   produces — so the masking protocol's `b + 1`-support rule handles lost
//!   messages and dead servers uniformly, and no caller ever hangs on an
//!   accepted request.
//! * **Reconnect with jittered backoff.** A dead connection fails the
//!   requests that were written to it immediately (in-band, again) and is
//!   re-established lazily by the next send; the batch whose write found the
//!   connection dead is *not* failed — it is rewritten on the new stream and
//!   its callers get the server's answers. The pause before attempt `k` is
//!   `reconnect_backoff * k` scaled by a deterministic per-connection jitter
//!   factor in `[0.5, 1.5)` (a splitmix64 hash of the seed, connection index
//!   and attempt — no RNG state, no `rand` dependency on the hot path), so
//!   the clients of a restarted server do not redial in lockstep. Requests
//!   that cannot be written after the attempt budget are refused (`send`
//!   returns `false`), which callers already treat as transport failure.
//!
//! One caller id must be in flight at most once per transport (expiry and
//! straggler filtering assume it); the open-loop generator and
//! `ServiceClient` both allocate ids that way.

use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bqs_service::mailbox::{complete_runs, ReplyHandle};
use bqs_service::transport::{Reply, Request, Transport};
use bqs_sim::server::{mix64, Entry};

use crate::codec::{encode_request_batch, FrameReader, WireMessage, WireRequest};
use crate::stream::{Endpoint, Stream};

/// How often blocked reads and the deadline sweeper wake.
const TICK: Duration = Duration::from_millis(20);

/// Tuning for a [`SocketTransport`].
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    /// Connections in the pool (requests map to them by server index).
    pub pool: usize,
    /// How long a request may await its reply before the sweeper answers it
    /// with the in-band no-answer frame.
    pub request_deadline: Duration,
    /// Base pause between reconnect attempts (grows linearly per attempt,
    /// scaled by deterministic per-connection jitter).
    pub reconnect_backoff: Duration,
    /// Reconnect attempts per send before the send is refused.
    pub reconnect_attempts: u32,
    /// Seed for the deterministic reconnect jitter. Two transports (or two
    /// connections of one transport) with the same base backoff but
    /// different seeds/indices retry on diverging schedules.
    pub backoff_seed: u64,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            pool: 2,
            request_deadline: Duration::from_secs(5),
            reconnect_backoff: Duration::from_millis(50),
            reconnect_attempts: 4,
            backoff_seed: 0xb05c_0ff5,
        }
    }
}

/// Observability counters for a transport's failure machinery.
#[derive(Debug, Default)]
pub struct NetStats {
    /// Successful (re)connections beyond the initial pool setup.
    pub reconnects: AtomicU64,
    /// Requests answered in-band by the deadline sweeper.
    pub deadline_expiries: AtomicU64,
    /// Requests answered in-band because their connection died.
    pub failed_by_disconnect: AtomicU64,
}

/// One completed (expired / failed / taken) request's routing information.
struct Taken {
    caller_id: u64,
    server: usize,
    /// The request's epoch stamp, echoed on synthesized in-band replies so
    /// they are byte-identical to what a crashed (not reconfigured!) server
    /// would produce.
    epoch: u64,
    reply: ReplyHandle,
}

/// Replies on their way to their sinks, gathered under a lock and delivered
/// after it is released — one `complete_batch` per run of replies that share
/// a sink.
#[derive(Default)]
struct Completions {
    sinks: Vec<ReplyHandle>,
    replies: Vec<Reply>,
}

impl Completions {
    /// Queues the reply to `taken`'s caller: under the caller's own id, and
    /// attributed to the server the caller *addressed*.
    fn push(&mut self, taken: Taken, entry: Option<Entry>, epoch: u64, stale: bool) {
        self.replies.push(Reply {
            server: taken.server,
            request_id: taken.caller_id,
            entry,
            epoch,
            stale,
        });
        self.sinks.push(taken.reply);
    }

    /// Queues the in-band no-answer frame for a request that expired or lost
    /// its connection: a lost reply is indistinguishable from a crashed
    /// server, which is exactly how the protocol treats it.
    fn push_no_answer(&mut self, taken: Taken) {
        let epoch = taken.epoch;
        self.push(taken, None, epoch, false);
    }

    /// Completes every queued reply and empties the queue. Call with no
    /// transport lock held: a sink may re-enter the transport.
    fn deliver(&mut self) {
        complete_runs(&self.sinks, &self.replies);
        self.sinks.clear();
        self.replies.clear();
    }
}

/// A completion slot's occupancy.
enum SlotState {
    /// On the freelist; `next_free` chains to the next free slot.
    Free { next_free: Option<u32> },
    /// Holds an in-flight request, linked into the deadline list between
    /// the requests registered just before and just after it.
    Pending {
        caller_id: u64,
        server: usize,
        epoch: u64,
        reply: ReplyHandle,
        deadline: Instant,
        older: Option<u32>,
        newer: Option<u32>,
    },
}

struct Slot {
    /// Incremented every time the slot is freed; the high half of the wire
    /// id. A late reply carrying an old generation misses instead of
    /// completing the slot's new occupant (ABA protection).
    generation: u32,
    state: SlotState,
}

/// Pre-allocated completion slots with freelist reuse, the pending ones
/// linked in registration order (see the module docs). One per connection,
/// behind one mutex.
struct SlotTable {
    slots: Vec<Slot>,
    free_head: Option<u32>,
    /// The ends of the deadline list: the pending request registered first
    /// (the next to expire) and the one registered last.
    oldest: Option<u32>,
    newest: Option<u32>,
    /// Every request's allowance; see [`NetConfig::request_deadline`].
    request_deadline: Duration,
    /// In-flight count.
    pending: usize,
}

impl SlotTable {
    fn new(request_deadline: Duration) -> Self {
        SlotTable {
            slots: Vec::new(),
            free_head: None,
            oldest: None,
            newest: None,
            request_deadline,
            pending: 0,
        }
    }

    fn wire_id(&self, index: u32) -> u64 {
        (u64::from(self.slots[index as usize].generation) << 32) | u64::from(index)
    }

    /// Registers a request sent at `now` at the tail of the deadline list and
    /// returns the wire id its reply will carry (`generation << 32 | slot`).
    /// `now` is the monotone clock read under the table lock, so the list
    /// stays sorted by deadline.
    fn register(
        &mut self,
        now: Instant,
        caller_id: u64,
        server: usize,
        epoch: u64,
        reply: ReplyHandle,
    ) -> u64 {
        let state = SlotState::Pending {
            caller_id,
            server,
            epoch,
            reply,
            deadline: now + self.request_deadline,
            older: self.newest,
            newer: None,
        };
        let index = match self.free_head {
            Some(index) => {
                let slot = &mut self.slots[index as usize];
                let SlotState::Free { next_free } = slot.state else {
                    unreachable!("freelist points at a pending slot");
                };
                self.free_head = next_free;
                slot.state = state;
                index
            }
            None => {
                let index = u32::try_from(self.slots.len()).expect("slot count fits u32");
                self.slots.push(Slot {
                    generation: 0,
                    state,
                });
                index
            }
        };
        match self.newest {
            Some(tail) => *self.link_mut(tail).1 = Some(index),
            None => self.oldest = Some(index),
        }
        self.newest = Some(index);
        self.pending += 1;
        self.wire_id(index)
    }

    /// The `(older, newer)` links of a pending slot.
    fn link_mut(&mut self, index: u32) -> (&mut Option<u32>, &mut Option<u32>) {
        match &mut self.slots[index as usize].state {
            SlotState::Pending { older, newer, .. } => (older, newer),
            SlotState::Free { .. } => unreachable!("the deadline list links pending slots only"),
        }
    }

    /// Completes the request behind `wire_id`, freeing its slot. `None` when
    /// the id is stale (expired, failed, or fabricated) — the caller drops
    /// the reply.
    fn take(&mut self, wire_id: u64) -> Option<Taken> {
        let index = u32::try_from(wire_id & 0xffff_ffff).expect("masked to 32 bits");
        let slot = self.slots.get(index as usize)?;
        if !matches!(slot.state, SlotState::Pending { .. }) || self.wire_id(index) != wire_id {
            return None;
        }
        Some(self.free_slot(index))
    }

    /// Expires every request whose deadline has passed, oldest first, and
    /// returns how many. Looks only at the head of the list — O(expired),
    /// not O(pending) per sweep.
    fn pop_expired(&mut self, now: Instant, out: &mut Completions) -> u64 {
        let mut expired = 0;
        while let Some(head) = self.oldest {
            match self.slots[head as usize].state {
                SlotState::Pending { deadline, .. } if deadline <= now => {}
                _ => break,
            }
            out.push_no_answer(self.free_slot(head));
            expired += 1;
        }
        expired
    }

    /// Fails every in-flight request registered before the first member of
    /// `batch` — all of them when `batch` is empty, or has expired whole —
    /// and returns how many. Called under the writer lock, where nothing
    /// newer than `batch` can be registered.
    fn fail_older(&mut self, batch: &[WireRequest], out: &mut Completions) -> u64 {
        let mut failed = 0;
        while let Some(head) = self.oldest {
            let head_id = self.wire_id(head);
            if batch.iter().any(|wire| wire.request_id == head_id) {
                break;
            }
            out.push_no_answer(self.free_slot(head));
            failed += 1;
        }
        failed
    }

    /// Frees one pending slot: unlinks it from the deadline list, bumps its
    /// generation (invalidating every wire id that references the old one)
    /// and chains it onto the freelist.
    fn free_slot(&mut self, index: u32) -> Taken {
        let slot = &mut self.slots[index as usize];
        let state = std::mem::replace(
            &mut slot.state,
            SlotState::Free {
                next_free: self.free_head,
            },
        );
        let SlotState::Pending {
            caller_id,
            server,
            epoch,
            reply,
            older,
            newer,
            ..
        } = state
        else {
            unreachable!("free_slot is only called on pending slots");
        };
        slot.generation = slot.generation.wrapping_add(1);
        self.free_head = Some(index);
        match older {
            Some(older) => *self.link_mut(older).1 = newer,
            None => self.oldest = newer,
        }
        match newer {
            Some(newer) => *self.link_mut(newer).0 = older,
            None => self.newest = older,
        }
        self.pending -= 1;
        Taken {
            caller_id,
            server,
            epoch,
            reply,
        }
    }
}

/// The write half of one pooled connection.
struct Writer {
    stream: Option<Stream>,
    buf: Vec<u8>,
    /// The batch being written, as registered (scratch, reused).
    wires: Vec<WireRequest>,
}

/// One pooled connection: slot table + write half; the read half lives in
/// a per-stream reader thread. Lock order: `writer`, then `table`.
struct Conn {
    endpoint: Endpoint,
    /// This connection's index in the pool (jitter derivation).
    index: usize,
    table: Mutex<SlotTable>,
    writer: Mutex<Writer>,
    /// Bumped per (re)connection so a dying reader only tears down its own
    /// generation's stream, never a fresh replacement.
    generation: AtomicU64,
    shutdown: Arc<AtomicBool>,
    readers: Mutex<Vec<JoinHandle<()>>>,
    stats: Arc<NetStats>,
}

impl Conn {
    /// Fails the in-flight requests registered before `batch` (see
    /// [`SlotTable::fail_older`]) into `out`. Called under the writer lock;
    /// the caller delivers `out` once it has released it.
    fn fail_older(&self, batch: &[WireRequest], out: &mut Completions) {
        let failed = self
            .table
            .lock()
            .expect("slot table lock")
            .fail_older(batch, out);
        self.stats
            .failed_by_disconnect
            .fetch_add(failed, Ordering::Relaxed);
    }
}

/// A pooled, reconnecting client transport to one socket server.
pub struct SocketTransport {
    universe: usize,
    config: NetConfig,
    conns: Vec<Arc<Conn>>,
    shutdown: Arc<AtomicBool>,
    stats: Arc<NetStats>,
    sweeper: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for SocketTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SocketTransport")
            .field("universe", &self.universe)
            .field("pool", &self.conns.len())
            .finish_non_exhaustive()
    }
}

impl SocketTransport {
    /// Connects a pool of [`NetConfig::pool`] streams to `endpoint`, serving
    /// a universe of `universe` servers. Fails if the initial connections
    /// cannot be established.
    pub fn connect(
        endpoint: Endpoint,
        universe: usize,
        config: NetConfig,
    ) -> std::io::Result<Self> {
        assert!(universe > 0, "a transport needs a non-empty universe");
        let config = NetConfig {
            pool: config.pool.max(1),
            ..config
        };
        let shutdown = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(NetStats::default());
        let mut conns = Vec::with_capacity(config.pool);
        for index in 0..config.pool {
            let conn = Arc::new(Conn {
                endpoint: endpoint.clone(),
                index,
                table: Mutex::new(SlotTable::new(config.request_deadline)),
                writer: Mutex::new(Writer {
                    stream: None,
                    buf: Vec::with_capacity(4096),
                    wires: Vec::new(),
                }),
                generation: AtomicU64::new(0),
                shutdown: Arc::clone(&shutdown),
                readers: Mutex::new(Vec::new()),
                stats: Arc::clone(&stats),
            });
            {
                let mut writer = conn.writer.lock().expect("writer lock");
                open_stream(&conn, &mut writer)?;
            }
            conns.push(conn);
        }
        let sweeper = {
            let conns = conns.clone();
            let shutdown = Arc::clone(&shutdown);
            let stats = Arc::clone(&stats);
            std::thread::spawn(move || sweep_deadlines(&conns, &shutdown, &stats))
        };
        Ok(SocketTransport {
            universe,
            config,
            conns,
            shutdown,
            stats,
            sweeper: Some(sweeper),
        })
    }

    /// The transport's failure-machinery counters.
    #[must_use]
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Registers `requests` on `conn` and writes them as one coalesced run
    /// (a single request is one plain frame). Registration and write happen
    /// under the writer lock, so slot order is write order. On a failed
    /// write the requests are unregistered silently: the `false` return is
    /// the refusal signal, and no reply will arrive.
    fn send_on(&self, conn: &Arc<Conn>, requests: impl IntoIterator<Item = Request>) -> bool {
        let mut failed = Completions::default();
        let written = {
            let mut guard = conn.writer.lock().expect("writer lock");
            let writer = &mut *guard;
            writer.wires.clear();
            {
                // Register before writing: the reply can race back before
                // the write call even returns.
                let mut table = conn.table.lock().expect("slot table lock");
                let now = Instant::now();
                for request in requests {
                    writer.wires.push(WireRequest {
                        request_id: table.register(
                            now,
                            request.request_id,
                            request.server,
                            request.epoch,
                            request.reply,
                        ),
                        server: request.server,
                        epoch: request.epoch,
                        op: request.op,
                    });
                }
            }
            writer.buf.clear();
            encode_request_batch(&writer.wires, &mut writer.buf);
            let written = write_with_reconnect(conn, writer, &self.config, &mut failed);
            if !written {
                let mut table = conn.table.lock().expect("slot table lock");
                for wire in &writer.wires {
                    let _ = table.take(wire.request_id);
                }
            }
            written
        };
        failed.deliver();
        written
    }
}

impl Transport for SocketTransport {
    fn universe_size(&self) -> usize {
        self.universe
    }

    fn send(&self, request: Request) -> bool {
        if self.shutdown.load(Ordering::SeqCst) || request.server >= self.universe {
            return false;
        }
        let conn = &self.conns[request.server % self.conns.len()];
        self.send_on(conn, [request])
    }

    /// Groups the fan-out by destination connection and writes one coalesced
    /// `WireBatch` run per connection — the syscall count is the number of
    /// distinct connections touched, not the number of requests.
    fn send_batch(&self, requests: &mut Vec<Request>) -> bool {
        if self.shutdown.load(Ordering::SeqCst) {
            requests.clear();
            return false;
        }
        let pool = self.conns.len();
        let mut ok = true;
        let mut per_conn: Vec<Vec<Request>> = (0..pool).map(|_| Vec::new()).collect();
        for request in requests.drain(..) {
            if request.server >= self.universe {
                ok = false;
                continue;
            }
            per_conn[request.server % pool].push(request);
        }
        for (conn, batch) in self.conns.iter().zip(per_conn) {
            if !batch.is_empty() {
                ok &= self.send_on(conn, batch);
            }
        }
        ok
    }
}

impl Drop for SocketTransport {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for conn in &self.conns {
            if let Some(stream) = &conn.writer.lock().expect("writer lock").stream {
                stream.shutdown();
            }
        }
        if let Some(handle) = self.sweeper.take() {
            let _ = handle.join();
        }
        for conn in &self.conns {
            let readers = std::mem::take(&mut *conn.readers.lock().expect("reader registry"));
            for handle in readers {
                let _ = handle.join();
            }
        }
    }
}

/// The pause before reconnect attempt `attempt` (1-based) on connection
/// `conn_index`: linear growth scaled by a deterministic jitter factor in
/// `[0.5, 1.5)`, so distinct connections (or distinct seeds) back off on
/// diverging schedules instead of redialling a restarted server in lockstep.
fn reconnect_delay(seed: u64, conn_index: usize, attempt: u32, base: Duration) -> Duration {
    let hash = mix64(
        seed ^ (conn_index as u64).wrapping_mul(0xd192_ed03_a5a5_0001) ^ (u64::from(attempt) << 48),
    );
    // 53 high bits → uniform in [0, 1); jitter factor in [0.5, 1.5).
    let unit = (hash >> 11) as f64 / (1u64 << 53) as f64;
    base.mul_f64(f64::from(attempt) * (0.5 + unit))
}

/// Writes `writer.buf` — the encoding of `writer.wires` — re-establishing
/// the connection with jittered backoff when it is down. Returns `false`
/// once the attempt budget is exhausted (the caller unregisters the batch).
/// Requests that went down with a dead stream are failed into `failed`.
fn write_with_reconnect(
    conn: &Arc<Conn>,
    writer: &mut Writer,
    config: &NetConfig,
    failed: &mut Completions,
) -> bool {
    for attempt in 0..=config.reconnect_attempts {
        if conn.shutdown.load(Ordering::SeqCst) {
            return false;
        }
        if attempt > 0 {
            std::thread::sleep(reconnect_delay(
                config.backoff_seed,
                conn.index,
                attempt,
                config.reconnect_backoff,
            ));
        }
        if writer.stream.is_none() {
            if open_stream(conn, writer).is_err() {
                continue;
            }
            conn.stats.reconnects.fetch_add(1, Ordering::Relaxed);
        }
        let stream = writer.stream.as_mut().expect("stream was just ensured");
        if stream.write_all(&writer.buf).is_ok() {
            return true;
        }
        // Dead connection: drop it so the next attempt redials, and fail
        // what was in flight on it (the reader usually beats us to this when
        // the peer resets cleanly) — everything older than this batch, which
        // the next attempt rewrites on a fresh stream.
        stream.shutdown();
        writer.stream = None;
        conn.fail_older(&writer.wires, failed);
    }
    false
}

/// Dials the connection's endpoint and spawns the reader thread for the new
/// stream, forgetting the readers of earlier streams that have ended. Called
/// under the writer lock.
fn open_stream(conn: &Arc<Conn>, writer: &mut Writer) -> std::io::Result<()> {
    let stream = conn.endpoint.connect()?;
    let _ = stream.set_nodelay();
    let reader_stream = stream.try_clone()?;
    let _ = reader_stream.set_read_timeout(Some(TICK));
    let generation = conn.generation.fetch_add(1, Ordering::SeqCst) + 1;
    writer.stream = Some(stream);
    let handle = {
        let conn = Arc::clone(conn);
        std::thread::spawn(move || read_replies(&conn, reader_stream, generation))
    };
    let mut readers = conn.readers.lock().expect("reader registry");
    readers.retain(|reader| !reader.is_finished());
    readers.push(handle);
    Ok(())
}

/// Reads reply frames off one stream and routes them to their waiting
/// requests through the slot table — one table lock per read chunk, one
/// completion per caller per chunk; on stream death, fails this connection's
/// in-flight requests in-band.
fn read_replies(conn: &Arc<Conn>, mut stream: Stream, my_generation: u64) {
    use std::io::Read;
    let mut frames = FrameReader::new();
    let mut chunk = [0u8; 16 * 1024];
    let mut completions = Completions::default();
    loop {
        if conn.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(got) => {
                frames.push(&chunk[..got]);
                let mut table = conn.table.lock().expect("slot table lock");
                while let Some(message) = frames.next_message() {
                    let reply = match message {
                        WireMessage::Reply(reply) => reply,
                        WireMessage::Request(_) => continue, // confused peer
                    };
                    // The caller sees its own id, not the wire id, and the
                    // server it *addressed*: the slot, not the frame, says
                    // who was asked, so a peer cannot vote under another
                    // server's name. Epoch and staleness pass through from
                    // the wire: a fenced reply's epoch is the *server's*
                    // current epoch.
                    if let Some(taken) = table.take(reply.request_id) {
                        completions.push(taken, reply.entry, reply.epoch, reply.stale);
                    }
                }
                drop(table);
                completions.deliver();
            }
            Err(err) if Stream::is_timeout(&err) => continue,
            Err(_) => break,
        }
    }
    // Only tear down the stream if no reconnect has superseded this reader.
    // Under the writer lock everything registered was written to this
    // stream, so everything registered is what died with it.
    if let Ok(mut writer) = conn.writer.lock() {
        if conn.generation.load(Ordering::SeqCst) == my_generation {
            writer.stream = None;
            conn.fail_older(&[], &mut completions);
        }
    }
    completions.deliver();
}

/// Expires requests whose reply deadline has passed, answering them in-band.
/// Each sweep walks the per-connection deadline list from its head down to
/// `now` — proportional to what actually expired, not to what is pending.
fn sweep_deadlines(conns: &[Arc<Conn>], shutdown: &AtomicBool, stats: &NetStats) {
    let mut expired = Completions::default();
    while !shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(TICK);
        let now = Instant::now();
        for conn in conns {
            let count = conn
                .table
                .lock()
                .expect("slot table lock")
                .pop_expired(now, &mut expired);
            stats.deadline_expiries.fetch_add(count, Ordering::Relaxed);
            expired.deliver();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bqs_service::mailbox::ReplyMailbox;

    fn sink() -> (Arc<ReplyMailbox>, ReplyHandle) {
        let mb = Arc::new(ReplyMailbox::new());
        let handle = Arc::clone(&mb) as ReplyHandle;
        (mb, handle)
    }

    const ALLOWANCE: Duration = Duration::from_millis(40);

    fn caller_ids(out: &Completions) -> Vec<u64> {
        out.replies.iter().map(|reply| reply.request_id).collect()
    }

    #[test]
    fn requests_expire_in_registration_order() {
        let mut table = SlotTable::new(ALLOWANCE);
        let (_mb, handle) = sink();
        let t0 = Instant::now();
        let later = t0 + Duration::from_millis(5);
        let first = table.register(t0, 3, 0, 7, Arc::clone(&handle));
        let second = table.register(later, 1, 1, 7, Arc::clone(&handle));
        let third = table.register(later, 2, 2, 7, Arc::clone(&handle));
        assert_eq!(table.pending, 3);

        let mut out = Completions::default();
        assert_eq!(table.pop_expired(later, &mut out), 0);
        // Between the first deadline and the others': only the head goes.
        assert_eq!(table.pop_expired(t0 + ALLOWANCE, &mut out), 1);
        assert_eq!(caller_ids(&out), vec![3]);
        assert_eq!(
            table.pop_expired(later + ALLOWANCE, &mut out),
            2,
            "the rest expire oldest first"
        );
        assert_eq!(caller_ids(&out), vec![3, 1, 2]);
        for (reply, server) in out.replies.iter().zip([0, 1, 2]) {
            // The in-band no-answer frame, under the request's own stamps.
            assert_eq!((reply.server, reply.entry, reply.epoch), (server, None, 7));
            assert!(!reply.stale);
        }
        assert_eq!(table.pending, 0);
        assert_eq!((table.oldest, table.newest), (None, None));
        // All three wire ids are now stale.
        for id in [first, second, third] {
            assert!(table.take(id).is_none());
        }
    }

    #[test]
    fn a_completed_request_leaves_the_deadline_list_at_once() {
        let mut table = SlotTable::new(ALLOWANCE);
        let (_mb, handle) = sink();
        let ids: Vec<u64> = (0..5)
            .map(|i| table.register(Instant::now(), 10 + i, i as usize, 0, Arc::clone(&handle)))
            .collect();
        // Middle, head, tail: every unlink case.
        for id in [ids[2], ids[0], ids[4]] {
            assert!(table.take(id).is_some());
        }
        assert_eq!(table.pending, 2);
        let mut out = Completions::default();
        assert_eq!(table.pop_expired(Instant::now() + ALLOWANCE, &mut out), 2);
        assert_eq!(
            caller_ids(&out),
            vec![11, 13],
            "only what is still pending expires, still oldest first"
        );
        assert_eq!((table.oldest, table.newest), (None, None));
    }

    #[test]
    fn the_table_is_as_long_as_the_peak_in_flight_count() {
        // Memory is O(in flight), however long the deadline: a completed
        // request leaves nothing behind to wait for its deadline.
        let mut table = SlotTable::new(Duration::from_secs(3600));
        let (_mb, handle) = sink();
        let now = Instant::now();
        let mut in_flight = std::collections::VecDeque::new();
        let mut peak = 0;
        let mut completed = 0;
        for caller_id in 0..25_000u64 {
            // A fan-out of 1..=9 goes out, 1..=9 of the oldest come back.
            for server in 0..=caller_id % 9 {
                let wire_id =
                    table.register(now, caller_id, server as usize, 0, Arc::clone(&handle));
                in_flight.push_back((wire_id, caller_id));
            }
            peak = peak.max(in_flight.len());
            for _ in 0..=(caller_id + 4) % 9 {
                if let Some((wire_id, caller_id)) = in_flight.pop_front() {
                    assert_eq!(table.take(wire_id).map(|t| t.caller_id), Some(caller_id));
                    completed += 1;
                }
            }
        }
        assert!(completed >= 100_000, "{completed} round trips");
        assert_eq!(table.pending, in_flight.len());
        assert!(
            table.slots.len() <= peak,
            "{} slots for a peak of {peak} in flight",
            table.slots.len()
        );
    }

    #[test]
    fn freed_slots_are_reused_with_a_new_generation() {
        let mut table = SlotTable::new(ALLOWANCE);
        let (_mb, handle) = sink();
        let first = table.register(Instant::now(), 1, 0, 0, Arc::clone(&handle));
        assert!(table.take(first).is_some());
        let second = table.register(Instant::now(), 2, 0, 0, Arc::clone(&handle));
        // Same slot index, different generation: the stale id misses.
        assert_eq!(first & 0xffff_ffff, second & 0xffff_ffff);
        assert_ne!(first, second);
        assert!(table.take(first).is_none(), "stale generation must miss");
        assert_eq!(table.take(second).map(|t| t.caller_id), Some(2));
        assert_eq!(table.slots.len(), 1, "freelist reuse, no growth");
    }

    #[test]
    fn fail_older_spares_the_batch_being_written() {
        let mut table = SlotTable::new(ALLOWANCE);
        let (_mb, handle) = sink();
        let wire = |request_id| WireRequest {
            request_id,
            server: 0,
            epoch: 0,
            op: bqs_service::transport::Operation::Read,
        };
        let now = Instant::now();
        for i in 0..3 {
            table.register(now, i, i as usize, 0, Arc::clone(&handle));
        }
        let batch: Vec<WireRequest> = (3..5)
            .map(|i| wire(table.register(now, i, i as usize, 0, Arc::clone(&handle))))
            .collect();
        let mut out = Completions::default();
        assert_eq!(table.fail_older(&batch, &mut out), 3);
        assert_eq!(caller_ids(&out), vec![0, 1, 2]);
        assert_eq!(table.pending, 2, "the batch stays registered");
        // With no batch to spare (a dead stream's reader), everything goes.
        assert_eq!(table.fail_older(&[], &mut out), 2);
        assert_eq!(caller_ids(&out), vec![0, 1, 2, 3, 4]);
        assert_eq!(table.pending, 0);
    }

    #[test]
    fn readers_of_dead_streams_are_reaped_on_reconnect() {
        use crate::server::SocketServer;
        use bqs_service::transport::Operation;
        use bqs_sim::fault::FaultPlan;

        let server = SocketServer::bind_tcp_loopback(&FaultPlan::none(3), 1, 1).unwrap();
        let config = NetConfig {
            pool: 1,
            reconnect_backoff: Duration::from_millis(1),
            ..NetConfig::default()
        };
        let transport = SocketTransport::connect(server.endpoint().clone(), 3, config).unwrap();
        let conn = &transport.conns[0];
        let (mb, handle) = sink();
        let mut replies = Vec::new();
        let mut most_readers = 0;
        for cycle in 0..200 {
            // Kill the stream under the transport; the next send redials.
            if let Some(stream) = &conn.writer.lock().unwrap().stream {
                stream.shutdown();
            }
            assert!(transport.send(Request {
                server: 0,
                op: Operation::Read,
                request_id: cycle,
                origin: 0,
                epoch: 0,
                reply: Arc::clone(&handle),
            }));
            assert!(mb.drain_blocking(&mut replies));
            assert!(replies.drain(..).all(|reply| reply.request_id == cycle));
            most_readers = most_readers.max(conn.readers.lock().unwrap().len());
        }
        assert_eq!(transport.stats.reconnects.load(Ordering::Relaxed), 200);
        // The live stream's reader, and the few dead streams' whose threads
        // were still on their way out at the last redial.
        assert!(most_readers <= 8, "{most_readers} reader handles held");
    }

    #[test]
    fn reconnect_schedules_diverge_between_connections() {
        let base = Duration::from_millis(50);
        let seed = NetConfig::default().backoff_seed;
        let schedule = |conn: usize| -> Vec<Duration> {
            (1..=4)
                .map(|a| reconnect_delay(seed, conn, a, base))
                .collect()
        };
        let a = schedule(0);
        let b = schedule(1);
        assert_ne!(a, b, "two connections must not retry in lockstep");
        // Deterministic: the same (seed, conn, attempt) always yields the
        // same pause.
        assert_eq!(a, schedule(0));
        // Jitter stays within the documented [0.5, 1.5) envelope around the
        // linear schedule.
        for (attempt, &delay) in (1u32..).zip(a.iter()) {
            let nominal = base * attempt;
            assert!(
                delay >= nominal.mul_f64(0.5),
                "attempt {attempt}: {delay:?}"
            );
            assert!(delay < nominal.mul_f64(1.5), "attempt {attempt}: {delay:?}");
        }
    }
}
