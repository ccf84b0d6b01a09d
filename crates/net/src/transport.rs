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
//! Deadlines ride in a min-heap beside the table (`BinaryHeap` keyed by
//! expiry instant): the sweeper pops entries up to `now` instead of scanning
//! every pending request per tick, with lazy deletion — a popped entry whose
//! generation no longer matches its slot belongs to an already-completed
//! request and is skipped.
//!
//! # Batching
//!
//! [`Transport::send_batch`] groups a fan-out by destination connection,
//! registers every request's slot, and writes **one** coalesced
//! `WireBatch` frame per connection ([`crate::codec::encode_request_batch`])
//! — a quorum-of-9 fan-out over a 2-connection pool costs 2 syscalls instead
//! of 9. [`NetConfig::batching`] (default on) gates the coalescing so
//! batched and single-frame paths can be compared like for like; semantics
//! are identical either way.
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
//! * **Reconnect with jittered backoff.** A dead connection fails its
//!   in-flight requests immediately (in-band, again) and is re-established
//!   lazily by the next send. The pause before attempt `k` is
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

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bqs_service::mailbox::ReplyHandle;
use bqs_service::transport::{Reply, Request, Transport};
use bqs_sim::server::mix64;

use crate::codec::{encode_request, encode_request_batch, FrameReader, WireMessage, WireRequest};
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
    /// Coalesce batched sends into multi-message `WireBatch` frames (one
    /// write per destination connection). Off, every request is its own
    /// frame and syscall — semantically identical, measurably slower; the
    /// switch exists so the two paths can be compared like for like.
    pub batching: bool,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            pool: 2,
            request_deadline: Duration::from_secs(5),
            reconnect_backoff: Duration::from_millis(50),
            reconnect_attempts: 4,
            backoff_seed: 0xb05c_0ff5,
            batching: true,
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

/// A completion slot's occupancy.
enum SlotState {
    /// On the freelist; `next_free` chains to the next free slot.
    Free { next_free: Option<u32> },
    /// Holds an in-flight request.
    Pending {
        caller_id: u64,
        server: usize,
        epoch: u64,
        reply: ReplyHandle,
    },
}

struct Slot {
    /// Incremented every time the slot is freed; the high half of the wire
    /// id. A late reply carrying an old generation misses instead of
    /// completing the slot's new occupant (ABA protection).
    generation: u32,
    state: SlotState,
}

/// Pre-allocated completion slots with freelist reuse and a deadline
/// min-heap (see the module docs). One per connection, behind one mutex.
struct SlotTable {
    slots: Vec<Slot>,
    free_head: Option<u32>,
    /// Min-heap of `(deadline, slot, generation)`. Lazy deletion: entries
    /// whose generation no longer matches their slot are skipped when
    /// popped.
    deadlines: BinaryHeap<Reverse<(Instant, u32, u32)>>,
    /// In-flight count (the heap's length overcounts by the lazily deleted).
    pending: usize,
}

impl SlotTable {
    fn new() -> Self {
        SlotTable {
            slots: Vec::new(),
            free_head: None,
            deadlines: BinaryHeap::new(),
            pending: 0,
        }
    }

    /// Registers an in-flight request and returns the wire id its reply will
    /// carry (`generation << 32 | slot`).
    fn register(
        &mut self,
        caller_id: u64,
        server: usize,
        epoch: u64,
        reply: ReplyHandle,
        deadline: Instant,
    ) -> u64 {
        let index = match self.free_head {
            Some(index) => {
                let slot = &mut self.slots[index as usize];
                let SlotState::Free { next_free } = slot.state else {
                    unreachable!("freelist points at a pending slot");
                };
                self.free_head = next_free;
                slot.state = SlotState::Pending {
                    caller_id,
                    server,
                    epoch,
                    reply,
                };
                index
            }
            None => {
                let index = u32::try_from(self.slots.len()).expect("slot count fits u32");
                self.slots.push(Slot {
                    generation: 0,
                    state: SlotState::Pending {
                        caller_id,
                        server,
                        epoch,
                        reply,
                    },
                });
                index
            }
        };
        let generation = self.slots[index as usize].generation;
        self.deadlines.push(Reverse((deadline, index, generation)));
        self.pending += 1;
        (u64::from(generation) << 32) | u64::from(index)
    }

    /// Completes the request behind `wire_id`, freeing its slot. `None` when
    /// the id is stale (expired, failed, or fabricated) — the caller drops
    /// the reply.
    fn take(&mut self, wire_id: u64) -> Option<Taken> {
        let index = (wire_id & 0xffff_ffff) as usize;
        let generation = (wire_id >> 32) as u32;
        let slot = self.slots.get_mut(index)?;
        if slot.generation != generation || !matches!(slot.state, SlotState::Pending { .. }) {
            return None;
        }
        self.free_slot(index as u32)
    }

    /// Expires every request whose deadline has passed, freeing the slots.
    /// Pops the heap only down to `now` — O(expired log pending), not
    /// O(pending) per sweep.
    fn pop_expired(&mut self, now: Instant, out: &mut Vec<Taken>) {
        while let Some(&Reverse((deadline, index, generation))) = self.deadlines.peek() {
            if deadline > now {
                break;
            }
            self.deadlines.pop();
            let slot = &self.slots[index as usize];
            if slot.generation != generation || !matches!(slot.state, SlotState::Pending { .. }) {
                continue; // lazily deleted: completed before it expired
            }
            out.extend(self.free_slot(index));
        }
    }

    /// Fails every in-flight request (connection teardown).
    fn take_all(&mut self, out: &mut Vec<Taken>) {
        for index in 0..self.slots.len() as u32 {
            if matches!(self.slots[index as usize].state, SlotState::Pending { .. }) {
                out.extend(self.free_slot(index));
            }
        }
    }

    /// Frees one pending slot: bumps its generation (invalidating every wire
    /// id and heap entry that references the old one) and chains it onto the
    /// freelist.
    fn free_slot(&mut self, index: u32) -> Option<Taken> {
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
        } = state
        else {
            unreachable!("free_slot is only called on pending slots");
        };
        slot.generation = slot.generation.wrapping_add(1);
        self.free_head = Some(index);
        self.pending -= 1;
        Some(Taken {
            caller_id,
            server,
            epoch,
            reply,
        })
    }
}

/// The write half of one pooled connection.
struct Writer {
    stream: Option<Stream>,
    buf: Vec<u8>,
}

/// One pooled connection: slot table + write half; the read half lives in
/// a per-stream reader thread.
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
                table: Mutex::new(SlotTable::new()),
                writer: Mutex::new(Writer {
                    stream: None,
                    buf: Vec::with_capacity(4096),
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

    /// Registers `request` on `conn`'s slot table and returns the wire
    /// request carrying the slot-derived id.
    fn register_on(&self, conn: &Conn, request: Request) -> WireRequest {
        let wire_id = conn.table.lock().expect("slot table lock").register(
            request.request_id,
            request.server,
            request.epoch,
            request.reply,
            Instant::now() + self.config.request_deadline,
        );
        WireRequest {
            request_id: wire_id,
            server: request.server,
            epoch: request.epoch,
            op: request.op,
        }
    }

    /// Silently drops a registered wire request whose write failed (no
    /// in-band reply: `send`'s `false` return is the refusal signal).
    fn unregister_on(&self, conn: &Conn, wire_id: u64) {
        let _ = conn.table.lock().expect("slot table lock").take(wire_id);
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
        // Register before writing: the reply can race back before the write
        // call even returns.
        let wire = self.register_on(conn, request);
        let written = {
            let mut writer = conn.writer.lock().expect("writer lock");
            writer.buf.clear();
            encode_request(&wire, &mut writer.buf);
            write_with_reconnect(conn, &mut writer, &self.config)
        };
        if !written {
            self.unregister_on(conn, wire.request_id);
        }
        written
    }

    /// Groups the fan-out by destination connection and writes one coalesced
    /// `WireBatch` run per connection — the syscall count is the number of
    /// distinct connections touched, not the number of requests.
    fn send_batch(&self, requests: &mut Vec<Request>) -> bool {
        if !self.config.batching {
            // Comparison mode: identical semantics, one frame+write per
            // request.
            let mut ok = true;
            for request in requests.drain(..) {
                ok &= self.send(request);
            }
            return ok;
        }
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
        let mut wires: Vec<WireRequest> = Vec::new();
        for (conn, batch) in self.conns.iter().zip(per_conn) {
            if batch.is_empty() {
                continue;
            }
            wires.clear();
            {
                let mut table = conn.table.lock().expect("slot table lock");
                let deadline = Instant::now() + self.config.request_deadline;
                for request in batch {
                    let wire_id = table.register(
                        request.request_id,
                        request.server,
                        request.epoch,
                        request.reply,
                        deadline,
                    );
                    wires.push(WireRequest {
                        request_id: wire_id,
                        server: request.server,
                        epoch: request.epoch,
                        op: request.op,
                    });
                }
            }
            let written = {
                let mut writer = conn.writer.lock().expect("writer lock");
                writer.buf.clear();
                encode_request_batch(&wires, &mut writer.buf);
                write_with_reconnect(conn, &mut writer, &self.config)
            };
            if !written {
                for wire in &wires {
                    self.unregister_on(conn, wire.request_id);
                }
                ok = false;
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

/// Writes `writer.buf`, re-establishing the connection with jittered backoff
/// when it is down. Returns `false` once the attempt budget is exhausted
/// (the caller unregisters the affected requests).
fn write_with_reconnect(conn: &Arc<Conn>, writer: &mut Writer, config: &NetConfig) -> bool {
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
        // whatever else was in flight on it (the reader usually beats us to
        // this when the peer resets cleanly).
        stream.shutdown();
        writer.stream = None;
        fail_all_pending(conn);
    }
    false
}

/// Dials the connection's endpoint and spawns the reader thread for the new
/// stream. Called under the writer lock.
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
    conn.readers.lock().expect("reader registry").push(handle);
    Ok(())
}

/// Reads reply frames off one stream and routes them to their waiting
/// requests through the slot table; on stream death, fails this connection's
/// in-flight requests in-band.
fn read_replies(conn: &Arc<Conn>, mut stream: Stream, my_generation: u64) {
    use std::io::Read;
    let mut frames = FrameReader::new();
    let mut chunk = [0u8; 16 * 1024];
    loop {
        if conn.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(got) => {
                frames.push(&chunk[..got]);
                while let Some(message) = frames.next_message() {
                    let reply = match message {
                        WireMessage::Reply(reply) => reply,
                        WireMessage::Request(_) => continue, // confused peer
                    };
                    let taken = conn
                        .table
                        .lock()
                        .expect("slot table lock")
                        .take(reply.request_id);
                    if let Some(taken) = taken {
                        // The caller sees its own id, not the wire id, and
                        // the server it *addressed*: the slot, not the frame,
                        // says who was asked, so a peer cannot vote under
                        // another server's name. Epoch and staleness pass
                        // through from the wire: a fenced reply's epoch is
                        // the *server's* current epoch.
                        taken.reply.complete(Reply {
                            server: taken.server,
                            request_id: taken.caller_id,
                            entry: reply.entry,
                            epoch: reply.epoch,
                            stale: reply.stale,
                        });
                    }
                }
            }
            Err(err) if Stream::is_timeout(&err) => continue,
            Err(_) => break,
        }
    }
    // Only tear down the stream if no reconnect has superseded this reader.
    if conn.generation.load(Ordering::SeqCst) == my_generation {
        if let Ok(mut writer) = conn.writer.lock() {
            if conn.generation.load(Ordering::SeqCst) == my_generation {
                writer.stream = None;
            }
        }
        fail_all_pending(conn);
    }
}

/// Answers every in-flight request on `conn` with the in-band no-answer
/// frame: their connection is gone, and a lost reply is indistinguishable
/// from a crashed server — which is exactly how the protocol treats it.
fn fail_all_pending(conn: &Conn) {
    let mut failed = Vec::new();
    conn.table
        .lock()
        .expect("slot table lock")
        .take_all(&mut failed);
    for taken in failed {
        conn.stats
            .failed_by_disconnect
            .fetch_add(1, Ordering::Relaxed);
        taken.reply.complete(Reply {
            server: taken.server,
            request_id: taken.caller_id,
            entry: None,
            epoch: taken.epoch,
            stale: false,
        });
    }
}

/// Expires requests whose reply deadline has passed, answering them in-band.
/// Each sweep pops the per-connection deadline heap down to `now` —
/// proportional to what actually expired, not to what is pending.
fn sweep_deadlines(conns: &[Arc<Conn>], shutdown: &AtomicBool, stats: &NetStats) {
    let mut expired = Vec::new();
    while !shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(TICK);
        let now = Instant::now();
        for conn in conns {
            debug_assert!(expired.is_empty());
            conn.table
                .lock()
                .expect("slot table lock")
                .pop_expired(now, &mut expired);
            for taken in expired.drain(..) {
                stats.deadline_expiries.fetch_add(1, Ordering::Relaxed);
                taken.reply.complete(Reply {
                    server: taken.server,
                    request_id: taken.caller_id,
                    entry: None,
                    epoch: taken.epoch,
                    stale: false,
                });
            }
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

    #[test]
    fn slot_table_expires_in_deadline_order() {
        let mut table = SlotTable::new();
        let t0 = Instant::now();
        let (_mb, handle) = sink();
        // Registered out of deadline order on purpose.
        let late = table.register(3, 0, 0, Arc::clone(&handle), t0 + Duration::from_millis(30));
        let early = table.register(1, 1, 0, Arc::clone(&handle), t0 + Duration::from_millis(10));
        let mid = table.register(2, 2, 0, Arc::clone(&handle), t0 + Duration::from_millis(20));
        assert_eq!(table.pending, 3);

        let mut out = Vec::new();
        table.pop_expired(t0 + Duration::from_millis(15), &mut out);
        assert_eq!(
            out.iter().map(|t| t.caller_id).collect::<Vec<_>>(),
            vec![1],
            "only the earliest deadline has passed"
        );
        out.clear();
        table.pop_expired(t0 + Duration::from_millis(60), &mut out);
        assert_eq!(
            out.iter().map(|t| t.caller_id).collect::<Vec<_>>(),
            vec![2, 3],
            "remaining requests expire in deadline order, not registration order"
        );
        assert_eq!(table.pending, 0);
        // All three wire ids are now stale.
        for id in [early, mid, late] {
            assert!(table.take(id).is_none());
        }
    }

    #[test]
    fn completed_requests_are_lazily_deleted_from_the_heap() {
        let mut table = SlotTable::new();
        let t0 = Instant::now();
        let (_mb, handle) = sink();
        let a = table.register(10, 0, 0, Arc::clone(&handle), t0 + Duration::from_millis(5));
        let _b = table.register(
            11,
            1,
            0,
            Arc::clone(&handle),
            t0 + Duration::from_millis(50),
        );
        // Complete `a` before it expires.
        assert_eq!(table.take(a).map(|t| t.caller_id), Some(10));
        let mut out = Vec::new();
        table.pop_expired(t0 + Duration::from_millis(25), &mut out);
        assert!(
            out.is_empty(),
            "a's heap entry is stale and must be skipped, b has not expired"
        );
        assert_eq!(table.pending, 1);
    }

    #[test]
    fn freed_slots_are_reused_with_a_new_generation() {
        let mut table = SlotTable::new();
        let t0 = Instant::now();
        let (_mb, handle) = sink();
        let first = table.register(1, 0, 0, Arc::clone(&handle), t0 + Duration::from_secs(1));
        assert!(table.take(first).is_some());
        let second = table.register(2, 0, 0, Arc::clone(&handle), t0 + Duration::from_secs(1));
        // Same slot index, different generation: the stale id misses.
        assert_eq!(first & 0xffff_ffff, second & 0xffff_ffff);
        assert_ne!(first, second);
        assert!(table.take(first).is_none(), "stale generation must miss");
        assert_eq!(table.take(second).map(|t| t.caller_id), Some(2));
        assert_eq!(table.slots.len(), 1, "freelist reuse, no growth");
    }

    #[test]
    fn take_all_fails_everything_pending() {
        let mut table = SlotTable::new();
        let t0 = Instant::now();
        let (_mb, handle) = sink();
        for i in 0..5 {
            table.register(
                i,
                i as usize,
                0,
                Arc::clone(&handle),
                t0 + Duration::from_secs(1),
            );
        }
        let mut out = Vec::new();
        table.take_all(&mut out);
        assert_eq!(out.len(), 5);
        assert_eq!(table.pending, 0);
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
