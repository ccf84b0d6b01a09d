//! The service's message transport abstraction.
//!
//! Clients never touch replica state directly: every protocol message is a
//! [`Request`] addressed to a server index and handed to a [`Transport`],
//! which routes it to whatever owns that server's replica — the in-process
//! sharded loopback of [`crate::shard::LoopbackService`], or a real socket
//! backend (`bqs-net`'s `SocketTransport`). Replies travel back through the
//! completion sink ([`crate::mailbox::ReplyHandle`]) embedded in the request,
//! so the transport itself is connectionless from the client's point of view
//! and the client needs no server-side registration.
//!
//! # Correlation
//!
//! Every request carries a caller-chosen [`Request::request_id`] that the
//! replica owner echoes verbatim in the matching [`Reply::request_id`]. A
//! closed-loop client that gathers exactly one reply per quorum member can
//! ignore it; anything that *multiplexes* — pipelined open-loop operations
//! sharing one reply channel, or a socket transport matching wire replies to
//! pending requests — relies on it. Transports must preserve it end to end.
//!
//! # The "no answer" contract
//!
//! `entry == None` in a [`Reply`] is the in-band representation of "this
//! server gave no protocol answer", for reads and writes alike: requests
//! served by crashed or silent replicas and — on deadline-enforcing
//! transports — a request whose answer did not arrive in time. A replica that
//! stores a write acknowledges it by echoing the entry, so a write completes
//! only when every member answered. Timeouts are the *failure detector*: the
//! transport converts "no answer within the deadline" into the same in-band
//! frame a crashed server produces, so the masking protocol treats lost
//! messages and dead servers uniformly.
//!
//! What [`Transport::send`] returning `true` does **not** promise is that a
//! reply will ever arrive. The loopback always answers (before `send` even
//! returns, crashed replicas included) and `bqs-net`'s socket transport
//! always answers (a deadline sweeper synthesises the in-band no-answer
//! frame), but the trait cannot enforce liveness on implementations — a
//! server process can die mid-request, a transport can be torn down with
//! requests in flight. Nor does it promise the reply comes *later*: a
//! transport may complete a request's sink on the sending thread, before
//! `send` returns (see [`crate::mailbox`]).
//! Clients therefore MUST bound every wait on the reply sink and surface
//! expiry as a transport-level failure rather than blocking forever;
//! [`crate::client::ServiceClient`] does exactly that (see
//! `ServiceClient::with_reply_deadline`), which is what keeps the masking
//! protocol's probe-and-fallback loop from hanging on a half-dead service.
//!
//! # Waiting
//!
//! A client waits for its replies in one place, [`Transport::wait_replies`].
//! Its default waits on the caller's mailbox. A transport may override it
//! so that the *waiting caller* produces the replies: `bqs-net`'s socket
//! transport, over a pool of one connection, lets the caller read the
//! connection itself, and the caller then completes every caller's sink it
//! reads a reply for, its own included. A reply that some other thread
//! delivers meanwhile (the deadline sweeper's in-band no-answer, or a
//! wrapper's own answer) is queued on the sink as always; a caller that is
//! reading sees it at its next read, at most one read timeout (`bqs-net`'s
//! 20 ms tick) later.
//!
//! # Epoch stamps
//!
//! Every request and reply carries an **epoch stamp** — the reconfiguration
//! generation the sender believes is current. Replica owners gate requests
//! through an epoch window (`bqs-sim`'s `EpochGate`): a request whose epoch
//! falls inside the window is served and its reply echoes the request's
//! epoch; a request outside it is *fenced* — answered in-band with
//! [`Reply::stale`] set and the gate's current epoch, never served. Fencing
//! is what makes reconfiguration safe in flight: once servers finalise epoch
//! `e + 1`, a straggling epoch-`e` request cannot contribute a reply to any
//! quorum, so no read ever mixes replies gathered under two different access
//! strategies. Transports carry both fields verbatim; a service that has
//! never reconfigured runs entirely at epoch 0 and the gate accepts
//! everything.
//!
//! # Batching
//!
//! A quorum operation fans out to every member of the chosen quorum at once,
//! so the natural unit of work is a *batch* of requests, not one.
//! [`Transport::send_batch`] hands the whole fan-out over in a single call;
//! batching-aware transports (the sharded loopback, the socket transport)
//! exploit it to pay one lock per destination shard and one syscall per
//! destination connection instead of one per request. The default
//! implementation degrades to a `send` loop, so the batch entry point is an
//! optimisation surface, never a semantic one: delivery, correlation, and the
//! no-answer contract are identical on both paths.

use std::time::Duration;

use bqs_sim::quorum_op::OpKind;
use bqs_sim::server::Entry;

use crate::mailbox::{DrainStatus, ReplyMailbox};
pub use crate::mailbox::{ReplyHandle, ReplySink};

/// A protocol operation addressed to one server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operation {
    /// Store a timestamped entry (the write half of the masking protocol).
    Write(Entry),
    /// Report the stored entry (the read half).
    Read,
}

impl Operation {
    /// Which half of the protocol this is, as the protocol core names it.
    #[must_use]
    pub fn kind(&self) -> OpKind {
        match self {
            Operation::Write(_) => OpKind::Write,
            Operation::Read => OpKind::Read,
        }
    }
}

/// One protocol message: an operation for `server`, with the completion sink
/// the reply must be delivered to.
#[derive(Debug)]
pub struct Request {
    /// The server index the operation is addressed to.
    pub server: usize,
    /// The operation to perform.
    pub op: Operation,
    /// Caller-chosen correlation id, echoed verbatim in the reply. Closed-loop
    /// clients may pass anything (e.g. 0); multiplexing callers pass ids
    /// unique among their in-flight requests.
    pub request_id: u64,
    /// The identity of the requesting client as seen by the replica owner —
    /// what a Byzantine server keys *per-client* equivocation on.
    ///
    /// In-process transports carry it through verbatim; the socket path does
    /// NOT put it on the wire — a real adversary distinguishes clients by
    /// their connections, so `bqs-net`'s server stamps each request with the
    /// accepting connection's id instead (one pooled connection per client ⇒
    /// origin ≡ client). Correct replicas ignore it entirely.
    pub origin: u64,
    /// The reconfiguration epoch the client is operating in. Servers serve
    /// requests whose epoch falls inside their acceptance window and fence
    /// the rest (see the module docs); epoch 0 is the pre-reconfiguration
    /// state every service starts in.
    pub epoch: u64,
    /// Where the replica's owner must deliver the [`Reply`]. A shared handle
    /// — cloning it is an atomic increment, not a channel allocation.
    pub reply: ReplyHandle,
}

/// A server's answer to a [`Request`].
///
/// Writes are acknowledged by echoing the written entry; reads report the
/// replica's (possibly adversarial) entry. Either is `None` when the server is
/// crashed, stays silent, or — on deadline-enforcing transports — did not
/// answer in time.
/// Every transport in the workspace produces a reply frame for every accepted
/// request: "no answer" is represented in-band (see the module docs), so
/// protocol code needs no per-transport timeout machinery. Clients still
/// bound their waits defensively, because `Transport` cannot make liveness a
/// type-level guarantee.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reply {
    /// The replying server.
    pub server: usize,
    /// The [`Request::request_id`] this reply answers, echoed verbatim.
    pub request_id: u64,
    /// The reported entry (reads), the echoed entry (write acks), or `None`
    /// (no answer: crashed or silent servers, expired deadlines).
    pub entry: Option<Entry>,
    /// For served requests: the request's epoch, echoed. For fenced requests
    /// (`stale == true`): the server's current epoch, which tells the lagging
    /// client what generation to re-synchronise to.
    pub epoch: u64,
    /// True when the server refused to serve the request because its epoch
    /// fell outside the acceptance window. A stale reply carries no protocol
    /// answer (`entry == None`) and must never count toward quorum support.
    pub stale: bool,
}

/// Routes protocol messages to replica owners.
///
/// Implementations must be callable from many client threads at once
/// (`Send + Sync`) and must eventually produce exactly one [`Reply`] on the
/// request's sink for every request accepted — with the request's id
/// echoed — except when the implementation itself dies with requests in
/// flight (see the module docs; clients bound their waits for this reason).
pub trait Transport: Send + Sync {
    /// The number of servers reachable through this transport.
    fn universe_size(&self) -> usize;

    /// Hands a request to the owner of `request.server`. Returns `false` when
    /// the destination is gone (service shutting down); the request is dropped
    /// and no reply will arrive.
    fn send(&self, request: Request) -> bool;

    /// Hands a whole fan-out of requests over at once, draining `requests`
    /// (its capacity is kept for reuse by the caller).
    ///
    /// Returns `false` if **any** request was refused. Delivery may be
    /// partial on refusal — accepted requests still get replies, refused ones
    /// never will — so a `false` return means "treat every outstanding id in
    /// this batch as potentially answerless and fall back on your deadline",
    /// exactly as for a `false` from [`Transport::send`].
    ///
    /// The default implementation is a plain `send` loop; batching-aware
    /// transports override it to coalesce per-shard locking or
    /// per-connection writes. Semantics are identical either way (see the
    /// module docs).
    fn send_batch(&self, requests: &mut Vec<Request>) -> bool {
        let mut ok = true;
        for request in requests.drain(..) {
            ok &= self.send(request);
        }
        ok
    }

    /// Waits up to `timeout` for replies on `mailbox`, the sink of the
    /// caller's own requests, and drains them into `into` (see
    /// [`ReplyMailbox::drain_timeout`], whose outcomes it returns).
    ///
    /// The default waits on the mailbox while the transport's own threads
    /// deliver. A transport may instead spend the wait producing replies on
    /// the caller's thread (see the module docs); a wrapper that does not
    /// forward this keeps the default for whatever it wraps.
    fn wait_replies(
        &self,
        mailbox: &ReplyMailbox,
        timeout: Duration,
        into: &mut Vec<Reply>,
    ) -> DrainStatus {
        mailbox.drain_timeout(timeout, into)
    }
}
