//! The socket server: sharded replicas behind a TCP or Unix-domain listener.
//!
//! [`SocketServer`] owns a [`LoopbackService`] — the same sharded replica
//! runtime the in-process benchmarks drive — and exposes it on a socket.
//! Each accepted connection is served by **one** thread that runs every
//! request to completion:
//!
//! 1. read a chunk and decode its request frames ([`crate::codec`],
//!    including multi-message `WireBatch` frames);
//! 2. hand every request of the chunk to the service in a single
//!    [`Transport::send_batch`] call. The service applies them on this
//!    thread (one shard lock per destination shard per chunk) and has put
//!    every reply in the connection's sink by the time the call returns —
//!    exactly what an in-process batching client sees, so replica semantics,
//!    fault injection, and metrics are byte-identical to the loopback path;
//! 3. encode the replies into coalesced `WireBatch` frames
//!    ([`crate::codec::encode_reply_batch`]) and write them with one
//!    `write_all` — one read and one write system call per chunk, and no
//!    hand-off to another thread anywhere on the path.
//!
//! Per-server addressing is preserved end to end: a frame addressed to
//! server `i` reaches replica `i`'s owning shard, and only that shard. A
//! request naming a server outside the universe is answered with the in-band
//! "no answer" frame (`entry = None`) rather than dropped.
//!
//! Connections are independent: a client that stops reading its replies
//! blocks its own connection's thread in `write_all` (which then stops
//! reading that client's requests) and nobody else's. The server keeps a
//! handle to every live connection's stream so that shutdown can wake a
//! thread blocked on either direction; finished connections are reaped from
//! that registry whenever a new one is accepted.

use std::io::{Read, Write};
use std::net::{Ipv4Addr, SocketAddr};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use bqs_service::mailbox::{ReplyHandle, ReplySink};
use bqs_service::metrics::ServiceMetrics;
use bqs_service::shard::LoopbackService;
use bqs_service::transport::{Reply, Request, Transport};
use bqs_sim::fault::FaultPlan;

use crate::codec::{encode_reply_batch, FrameReader, WireMessage};
use crate::stream::{Endpoint, Listener, Stream};

/// One accepted connection: its thread, and a handle to its stream for
/// waking the thread at shutdown.
#[derive(Debug)]
struct Connection {
    thread: JoinHandle<()>,
    stream: Stream,
}

/// A quorum service listening on a socket.
///
/// Dropping the server shuts it down: the listener is woken, every
/// connection is closed and its thread joined.
#[derive(Debug)]
pub struct SocketServer {
    service: Arc<LoopbackService>,
    endpoint: Endpoint,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<Connection>>>,
}

impl SocketServer {
    /// Binds on an ephemeral TCP loopback port; read the actual address back
    /// from [`SocketServer::endpoint`].
    pub fn bind_tcp_loopback(plan: &FaultPlan, shards: usize, seed: u64) -> std::io::Result<Self> {
        let addr = SocketAddr::from((Ipv4Addr::LOCALHOST, 0));
        SocketServer::bind(Listener::bind_tcp(addr)?, plan, shards, seed)
    }

    /// Binds on a Unix-domain socket at `path` (a stale socket file from a
    /// previous run is replaced).
    pub fn bind_uds(
        path: impl Into<PathBuf>,
        plan: &FaultPlan,
        shards: usize,
        seed: u64,
    ) -> std::io::Result<Self> {
        SocketServer::bind(Listener::bind_uds(path.into())?, plan, shards, seed)
    }

    /// Serves a fresh sharded service (replica faults from `plan`, `shards`
    /// lock-striped shards, deterministic per-shard RNG streams from `seed`)
    /// on an already-bound listener.
    pub fn bind(
        listener: Listener,
        plan: &FaultPlan,
        shards: usize,
        seed: u64,
    ) -> std::io::Result<Self> {
        let endpoint = listener.endpoint()?;
        let service = Arc::new(LoopbackService::spawn(plan, shards, seed));
        let shutdown = Arc::new(AtomicBool::new(false));
        let conns = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let service = Arc::clone(&service);
            let shutdown = Arc::clone(&shutdown);
            let conns = Arc::clone(&conns);
            std::thread::spawn(move || accept_loop(&listener, &service, &shutdown, &conns))
        };
        Ok(SocketServer {
            service,
            endpoint,
            shutdown,
            accept: Some(accept),
            conns,
        })
    }

    /// The address clients connect to.
    #[must_use]
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// The service behind the listener ([`crate::deploy::Deployment`]'s
    /// server side).
    pub(crate) fn service(&self) -> &LoopbackService {
        &self.service
    }

    /// Number of servers behind this endpoint.
    #[must_use]
    pub fn universe_size(&self) -> usize {
        self.service.universe_size()
    }

    /// The service's lock-free metrics (per-server access counts feeding the
    /// empirical load check, operation counters, latency histogram).
    #[must_use]
    pub fn metrics(&self) -> &Arc<ServiceMetrics> {
        self.service.metrics()
    }

    /// The servers a failure detector would report responsive under the
    /// bound fault plan.
    #[must_use]
    pub fn responsive_set(&self) -> &bqs_core::bitset::ServerSet {
        self.service.responsive_set()
    }
}

impl Drop for SocketServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the accept loop: a throwaway connection makes `accept` return
        // so the thread can observe the flag and exit.
        let _ = self.endpoint.connect();
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        // Nothing registers connections any more. Closing a stream fails the
        // read or write its thread is blocked in.
        let conns = std::mem::take(&mut *self.conns.lock().expect("conn registry lock"));
        for conn in &conns {
            conn.stream.shutdown();
        }
        for conn in conns {
            let _ = conn.thread.join();
        }
    }
}

/// Accepts connections until shutdown, spawning one thread per connection
/// and dropping the registry entries of connections that have ended.
fn accept_loop(
    listener: &Listener,
    service: &Arc<LoopbackService>,
    shutdown: &AtomicBool,
    conns: &Mutex<Vec<Connection>>,
) {
    // Connection counter feeding `Request::origin`: the server's notion of
    // client identity is the connection, exactly what a real adversary can
    // distinguish. Ids start at 1 so origin 0 stays "anonymous".
    let mut next_origin = 1u64;
    loop {
        let stream = match listener.accept() {
            Ok(stream) => stream,
            Err(_) => {
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue; // transient accept error: keep serving
            }
        };
        if shutdown.load(Ordering::SeqCst) {
            return; // the wake-up poke (or a late client): drop and exit
        }
        let _ = stream.set_nodelay();
        let Ok(handle) = stream.try_clone() else {
            continue;
        };
        let origin = next_origin;
        next_origin += 1;
        let thread = {
            let service = Arc::clone(service);
            std::thread::spawn(move || serve_connection(stream, &service, origin))
        };
        let mut registry = conns.lock().expect("conn registry lock");
        registry.retain(|conn| !conn.thread.is_finished());
        registry.push(Connection {
            thread,
            stream: handle,
        });
    }
}

/// Where the service puts one connection's replies. The service completes
/// it on the connection's own thread, inside `send_batch`, so the lock is
/// never contended.
#[derive(Debug, Default)]
struct ConnectionSink(Mutex<Vec<Reply>>);

impl ReplySink for ConnectionSink {
    fn complete(&self, reply: Reply) {
        self.0.lock().expect("connection sink lock").push(reply);
    }

    fn complete_batch(&self, replies: &[Reply]) {
        self.0
            .lock()
            .expect("connection sink lock")
            .extend_from_slice(replies);
    }
}

/// Serves one connection until it ends: per read chunk, decode, one batched
/// send that returns with every reply in the sink, one encoded write.
fn serve_connection(mut stream: Stream, service: &LoopbackService, origin: u64) {
    let n = service.universe_size();
    let sink = Arc::new(ConnectionSink::default());
    let mut frames = FrameReader::new();
    let mut chunk = [0u8; 16 * 1024];
    let mut batch: Vec<Request> = Vec::new();
    let mut replies: Vec<Reply> = Vec::new();
    let mut wire = Vec::with_capacity(4096);
    // Ends on EOF (the client went away), a reset, or the server's shutdown
    // closing the stream under us.
    while let Ok(got @ 1..) = stream.read(&mut chunk) {
        frames.push(&chunk[..got]);
        while let Some(message) = frames.next_message() {
            let request = match message {
                WireMessage::Request(request) => request,
                WireMessage::Reply(_) => continue, // confused peer
            };
            if request.server >= n {
                // Out-of-universe address: answer in-band so the client's
                // deadline machinery is a backstop, not the common path.
                replies.push(Reply {
                    server: request.server,
                    request_id: request.request_id,
                    entry: None,
                    epoch: request.epoch,
                    stale: false,
                });
                continue;
            }
            batch.push(Request {
                server: request.server,
                op: request.op,
                request_id: request.request_id,
                // Client identity is not on the wire; the accepting
                // connection *is* the identity (pool one connection per
                // client when per-client adversaries are in play).
                origin,
                epoch: request.epoch,
                reply: Arc::clone(&sink) as ReplyHandle,
            });
        }
        if !batch.is_empty() {
            // Every address is in the universe, so nothing is refused.
            let _ = service.send_batch(&mut batch);
            replies.append(&mut sink.0.lock().expect("connection sink lock"));
        }
        if replies.is_empty() {
            continue;
        }
        wire.clear();
        encode_reply_batch(&replies, &mut wire);
        replies.clear();
        if stream.write_all(&wire).is_err() {
            break; // connection reset
        }
    }
    // The registry may hold a handle to this socket until the next accept:
    // close it now so the peer sees the end of the connection.
    stream.shutdown();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn ended_connections_are_reaped_as_new_ones_are_accepted() {
        let server = SocketServer::bind_tcp_loopback(&FaultPlan::none(3), 1, 1).unwrap();
        let registered = || server.conns.lock().unwrap().len();
        for _ in 0..200 {
            drop(server.endpoint().connect().unwrap());
        }
        // Each accept forgets the connections that have ended by then; a
        // thread still on its way out is forgotten by a later one.
        let patience = Instant::now() + Duration::from_secs(10);
        loop {
            let live = server.endpoint().connect().unwrap();
            while registered() == 0 {
                assert!(Instant::now() < patience, "the connection never registered");
                std::thread::yield_now();
            }
            if registered() <= 2 {
                break;
            }
            assert!(
                Instant::now() < patience,
                "{} registry entries after 200 connect-and-drop cycles",
                registered()
            );
            drop(live);
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}
