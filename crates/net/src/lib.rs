//! Real socket transport for the quorum service runtime.
//!
//! `bqs-service` measures the masking register's behaviour through a
//! [`bqs_service::transport::Transport`] seam, but the seed workspace only
//! had one implementation — the in-process loopback. This crate adds the
//! other side of the seam: the same sharded replica runtime served over
//! actual sockets, so the certified load `L(Q)` and the saturation behaviour
//! of the paper's constructions can be observed through a real network stack
//! rather than a channel send.
//!
//! * [`codec`] — a hand-rolled length-prefixed binary wire format for
//!   protocol requests and replies (no serialisation dependency), including
//!   multi-message `WireBatch` frames that coalesce up to
//!   [`codec::MAX_BATCH`] messages behind one length prefix, with an
//!   incremental [`codec::FrameReader`] that resynchronises after torn or
//!   corrupt input and rejects oversized frames before allocation;
//! * [`stream`] — one [`stream::Endpoint`]/[`stream::Stream`] surface over
//!   TCP and Unix-domain sockets, so backend choice is a bind-time decision;
//! * [`server`] — [`server::SocketServer`]: a
//!   [`bqs_service::shard::LoopbackService`] behind a listener, one thread
//!   per connection that runs each read chunk to completion (decode, one
//!   batched send that returns with the replies, one coalesced write),
//!   per-server addressing preserved end to end;
//! * [`transport`] — [`transport::SocketTransport`]: the client side, a
//!   connection pool with slot-table completions (pre-allocated slots,
//!   freelist reuse, generation-tagged wire ids), coalesced batch writes,
//!   jittered reconnect backoff, and a deadline list threaded through the
//!   slot table in registration order, whose expiries surface as in-band
//!   "no answer" replies (timeouts as the failure detector, per the
//!   transport contract);
//! * [`deploy`] — [`deploy::Deployment`]: the replicas of a fault plan stood
//!   up on a chosen [`deploy::Backend`] (loopback, UDS or TCP) together with
//!   the transport that reaches them — itself a `Transport`, with the server
//!   side exposed as the same `LoopbackService` on every backend. The one
//!   place a harness picks a backend.
//!
//! Everything above the seam — `ServiceClient`, the closed-loop runner, the
//! open-loop generator — runs unmodified over either backend; `bench_net`
//! sweeps offered load across [`deploy::Backend::ALL`] to locate each
//! backend's saturation knee (`BENCH_net.json`).
//!
//! # Example
//!
//! ```
//! use bqs_constructions::prelude::*;
//! use bqs_net::prelude::*;
//! use bqs_service::prelude::*;
//! use bqs_sim::prelude::*;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! // A 5x5 grid served over TCP loopback, read through the masking client.
//! let system = GridSystem::new(5, 1).unwrap();
//! let server = SocketServer::bind_tcp_loopback(&FaultPlan::none(25), 2, 1).unwrap();
//! let transport =
//!     SocketTransport::connect(server.endpoint().clone(), 25, NetConfig::default()).unwrap();
//! let mut client = ServiceClient::new(
//!     &system,
//!     &transport,
//!     server.responsive_set().clone(),
//!     1,
//! );
//! let mut rng = StdRng::seed_from_u64(7);
//! let entry = Entry { timestamp: 1, value: bqs_service::authentic_value(1) };
//! client.write(entry, &mut rng).unwrap();
//! assert_eq!(client.read(&mut rng).unwrap().entry, entry);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod deploy;
pub mod server;
pub mod stream;
pub mod transport;

pub use codec::{
    encode_reply_batch, encode_request_batch, FrameReader, WireMessage, WireRequest, MAX_BATCH,
    MAX_PAYLOAD,
};
pub use deploy::{Backend, Deployment};
pub use server::SocketServer;
pub use stream::{Endpoint, Listener, Stream};
pub use transport::{NetConfig, NetStats, SocketTransport};

/// Convenient glob import for examples and benches.
pub mod prelude {
    pub use crate::codec::{
        encode_reply_batch, encode_request_batch, FrameReader, WireMessage, WireRequest, MAX_BATCH,
        MAX_PAYLOAD,
    };
    pub use crate::deploy::{Backend, Deployment};
    pub use crate::server::SocketServer;
    pub use crate::stream::{Endpoint, Listener, Stream};
    pub use crate::transport::{NetConfig, NetStats, SocketTransport};
}
