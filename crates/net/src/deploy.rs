//! One way to stand a register service up on a transport backend.
//!
//! Every harness that compares backends — the `bench_net` / `bench_chaos` /
//! `bench_reconfig` sweeps, the cross-backend tests — needs the same three
//! things: the replicas of a [`FaultPlan`] behind a chosen [`Backend`], a
//! [`Transport`] that reaches them, and the server side
//! ([`LoopbackService`]: responsive view, epoch gate, fault injection,
//! metrics) whichever backend carries the traffic. [`Deployment`] is all
//! three, so choosing a backend is an argument, not a code path:
//!
//! * [`Backend::Loopback`] — the service itself is the transport;
//! * [`Backend::Uds`] / [`Backend::Tcp`] — a [`SocketServer`] owning the
//!   service, plus a pooled [`SocketTransport`] connected to it. A
//!   Unix-domain deployment picks its own socket path (process id plus a
//!   process-wide counter, so any number can be alive at once) and the
//!   listener unlinks it when the deployment is dropped.
//!
//! [`Deployment`] implements [`Transport`] by forwarding, so it slots in
//! wherever a transport does — including under a chaos interposer, which
//! wants an `Arc` of one.

use std::sync::atomic::{AtomicU64, Ordering};

use bqs_service::shard::LoopbackService;
use bqs_service::transport::{Request, Transport};
use bqs_sim::fault::FaultPlan;

use crate::server::SocketServer;
use crate::transport::{NetConfig, SocketTransport};

/// The transport backends a register service can be deployed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The in-process sharded loopback: requests run on the sender's thread.
    Loopback = 1,
    /// A Unix-domain socket server and a pooled client transport.
    Uds = 2,
    /// A TCP loopback server (ephemeral port) and a pooled client transport.
    Tcp = 3,
}

impl Backend {
    /// Every backend, in sweep order.
    pub const ALL: [Backend; 3] = [Backend::Loopback, Backend::Uds, Backend::Tcp];

    /// Stable machine name (used in benchmark JSON and logs).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Backend::Loopback => "loopback",
            Backend::Uds => "uds",
            Backend::Tcp => "tcp",
        }
    }

    /// Stable numeric id (the discriminant), for mixing into a per-cell
    /// seed.
    #[must_use]
    pub fn id(self) -> u64 {
        self as u64
    }
}

/// A running register service on one [`Backend`], with the transport that
/// reaches it. Dropping it disconnects the transport, stops the server and
/// joins every thread either started.
#[derive(Debug)]
pub struct Deployment(Link);

#[derive(Debug)]
enum Link {
    Loopback(LoopbackService),
    /// The transport is declared first so it disconnects before the server
    /// stops listening.
    Socket {
        transport: SocketTransport,
        server: SocketServer,
    },
}

impl Deployment {
    /// Stands up the replicas of `plan` (`shards` lock-striped shards,
    /// per-shard RNG streams from `seed`) on `backend`. The socket backends
    /// connect a [`SocketTransport`] configured by `net`; the loopback has
    /// no use for it.
    ///
    /// # Errors
    ///
    /// The socket backends' bind and connect errors.
    pub fn start(
        backend: Backend,
        plan: &FaultPlan,
        shards: usize,
        seed: u64,
        net: NetConfig,
    ) -> std::io::Result<Deployment> {
        static NEXT_SOCKET: AtomicU64 = AtomicU64::new(0);
        let server = match backend {
            Backend::Loopback => {
                return Ok(Deployment(Link::Loopback(LoopbackService::spawn(
                    plan, shards, seed,
                ))));
            }
            Backend::Uds => {
                let path = std::env::temp_dir().join(format!(
                    "bqs-{}-{}.sock",
                    std::process::id(),
                    NEXT_SOCKET.fetch_add(1, Ordering::Relaxed)
                ));
                SocketServer::bind_uds(path, plan, shards, seed)?
            }
            Backend::Tcp => SocketServer::bind_tcp_loopback(plan, shards, seed)?,
        };
        let transport =
            SocketTransport::connect(server.endpoint().clone(), plan.universe_size(), net)?;
        Ok(Deployment(Link::Socket { transport, server }))
    }

    /// The server side, whichever backend carries the traffic: the failure
    /// detector's responsive view, the epoch gate, runtime fault injection
    /// and the server-side metrics.
    #[must_use]
    pub fn service(&self) -> &LoopbackService {
        match &self.0 {
            Link::Loopback(service) => service,
            Link::Socket { server, .. } => server.service(),
        }
    }

    fn transport(&self) -> &dyn Transport {
        match &self.0 {
            Link::Loopback(service) => service,
            Link::Socket { transport, .. } => transport,
        }
    }
}

impl Transport for Deployment {
    fn universe_size(&self) -> usize {
        self.transport().universe_size()
    }

    fn send(&self, request: Request) -> bool {
        self.transport().send(request)
    }

    fn send_batch(&self, requests: &mut Vec<Request>) -> bool {
        self.transport().send_batch(requests)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::Endpoint;

    fn socket_path(deployment: &Deployment) -> std::path::PathBuf {
        match &deployment.0 {
            Link::Socket { server, .. } => match server.endpoint() {
                Endpoint::Uds(path) => path.clone(),
                other => panic!("a UDS deployment listens on {other:?}"),
            },
            Link::Loopback(_) => panic!("a UDS deployment has a socket server"),
        }
    }

    #[test]
    fn two_uds_deployments_coexist_and_clean_up_after_themselves() {
        let plan = FaultPlan::none(5);
        let start = || Deployment::start(Backend::Uds, &plan, 2, 7, NetConfig::default()).unwrap();
        let (first, second) = (start(), start());
        let (a, b) = (socket_path(&first), socket_path(&second));
        assert_ne!(a, b, "each deployment binds its own path");
        assert!(a.exists() && b.exists());
        assert_eq!(first.universe_size(), 5);
        drop(first);
        assert!(!a.exists(), "a dropped deployment unlinks its socket");
        assert!(b.exists(), "and leaves its neighbour's alone");
        drop(second);
        assert!(!b.exists());
    }
}
