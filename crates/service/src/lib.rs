//! A concurrent, strategy-driven quorum service runtime.
//!
//! The rest of the workspace *certifies* the paper's two headline measures —
//! exact/bounded `F_p` and the column-generation-certified load `L(Q)` — and
//! the `bqs-sim` crate *states* the masking register: replicas, fault plans
//! and the rules one operation follows. This crate is the register's one
//! implementation: it serves it to **one client or many concurrent ones**
//! against **sharded replica state**, so the protocol's safety can be
//! checked operation by operation and the certified numbers observed
//! empirically under actual contention — per-server access frequency
//! converging to the certified `L(Q)`, and unavailability under crash plans
//! converging to `F_p`.
//!
//! * [`transport`] — the [`transport::Transport`] trait: protocol messages
//!   addressed to server indices with in-band replies, so the in-process
//!   loopback can later be swapped for a network backend;
//! * [`mailbox`] — [`mailbox::Mailbox`]: the swap-buffer queue
//!   (`Mutex<Vec>` + `Condvar`, drain the whole batch per wakeup, signal
//!   only a parked consumer) that carries replies back to a waiting client,
//!   and [`mailbox::ReplySink`], the allocation-free completion handle
//!   replies are delivered through;
//! * [`shard`] — [`shard::LoopbackService`]: replicas partitioned across
//!   lock-striped shards, every request applied on its sender's thread (no
//!   service threads, sinks completed with no shard lock held), built from
//!   `bqs-sim`'s `Replica`/`FaultPlan` fault model, plus the
//!   [`shard::TimestampOracle`] ordering concurrent writers;
//! * [`metrics`] — [`metrics::ServiceMetrics`]: lock-free relaxed-atomic
//!   per-server access counters, a fixed-bucket latency histogram,
//!   degradation counters and per-server failure-detector evidence, read
//!   only as one [`metrics::MetricsSnapshot`] (a run or a tick reads its own
//!   share with [`metrics::MetricsSnapshot::since`]);
//! * [`client`] — [`client::ServiceClient`]: the masking read/write protocol
//!   over any [`bqs_core::quorum::QuorumSystem`], one operation at a time,
//!   with the \[MR98a\] query-then-write timestamping for registers shared
//!   by several writers ([`client::ServiceClient::write_after_query`]);
//! * [`runner`] — [`runner::run_service`]: a closed-loop load generator
//!   (configurable client count and read/write mix, client 0 the one writer)
//!   over a service the caller spawned — and may reuse across trials — with
//!   online safety checking sound under concurrency (value authenticity, and
//!   freshness against the writer clock's read frontier) — the
//!   [`runner::OpTally`] every generator's report is filled from, and
//!   [`runner::OpTally::perform`], the one closed-loop operation `run_service`
//!   and `bqs-chaos` share;
//! * [`openloop`] — [`openloop::run_open_loop_session`]: an open-loop generator
//!   (Poisson arrivals at a configured *offered* rate on a few worker
//!   threads, operation pipelining) that works over any
//!   [`transport::Transport`] and exposes the saturation knee that
//!   closed-loop generation structurally cannot.
//!
//! Every operation of the service runs in one event loop (a crate-private
//! module): an event loop that fans attempts out, waits on one reply
//! mailbox, hands each reply to the protocol core,
//! [`bqs_sim::quorum_op::QuorumOp`], and does what the core's action says —
//! complete, retry after a backoff timer, or stop at a fence — with the
//! metrics the core stays free of. A `ServiceClient` is a closed loop with
//! one operation in flight; an open-loop worker launches Poisson arrivals
//! into the same loop. `specs/register/pseudo-code.md` at the repository
//! root states the lifecycle.
//!
//! Drive it with a [`bqs_core::strategic::StrategicQuorumSystem`] built from
//! [`bqs_core::load::optimal_load_oracle`]'s certified strategy and the
//! empirical load report validates the certified `L(Q)` end to end; the
//! `bench_service` binary in `bqs-bench` does exactly that for Grid, M-Grid,
//! FPP and boostFPP at paper sizes and emits `BENCH_service.json`.
//!
//! # Example
//!
//! ```
//! use bqs_constructions::prelude::*;
//! use bqs_service::prelude::*;
//! use bqs_sim::prelude::*;
//!
//! // A b = 1 masking threshold over 5 servers with one fabricating server,
//! // served by 2 shards and hammered by 4 concurrent clients.
//! let system = ThresholdSystem::minimal_masking(1).unwrap();
//! let plan = FaultPlan::none(5)
//!     .with_byzantine(2, ByzantineStrategy::FabricateHighTimestamp { value: 666 });
//! let service = LoopbackService::spawn(&plan, 2, 7);
//! let report = run_service(
//!     &service,
//!     &system,
//!     1,
//!     &ServiceConfig {
//!         clients: 4,
//!         ops_per_client: 50,
//!         ..ServiceConfig::default()
//!     },
//! );
//! assert!(report.is_safe());
//! assert_eq!(report.ops.unavailable, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
mod event_loop;
pub mod mailbox;
pub mod metrics;
pub mod openloop;
pub mod runner;
pub mod shard;
pub mod transport;

pub use prelude::*;

/// Convenient glob import for examples and benches — also the crate root's re-exports.
pub mod prelude {
    pub use crate::client::{ServiceClient, ServiceError};
    pub use crate::mailbox::{DrainStatus, Mailbox, ReplyHandle, ReplyMailbox, ReplySink};
    pub use crate::metrics::{MetricsSnapshot, ServiceMetrics};
    pub use crate::openloop::{
        run_open_loop_session, OpenLoopConfig, OpenLoopReport, OpenLoopSession,
    };
    pub use crate::runner::{authentic_value, run_service, OpTally, ServiceConfig, ServiceReport};
    pub use crate::shard::{LoopbackService, TimestampOracle};
    pub use crate::transport::{Operation, Reply, Request, Transport};
}
