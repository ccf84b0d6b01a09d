//! The register model behind replicated data over b-masking quorum systems.
//!
//! The constructions and measures in the rest of this workspace answer *how well* a
//! b-masking quorum system performs; this crate states *what it is for*: the
//! replicated read/write register of \[MR98a\] — the protocol whose consistency
//! requirement (`|Q₁ ∩ Q₂| ≥ 2b + 1`, Definition 3.5 of the paper) motivates
//! masking quorum systems — as replicas, faults and the rules one operation
//! follows, with no clock, thread or transport inside. `bqs-service` runs the
//! register (its `ServiceClient` is the one client, its `LoopbackService`
//! the one place replicas are routed and counted); everything it decides
//! about a reply it decides here.
//!
//! * [`server`] — replicas with correct, crashed and Byzantine behaviours (value
//!   fabrication with inflated timestamps, stale replay, equivocation, silence);
//! * [`fault`] — fault plans for the paper's hybrid failure model (`≤ b` Byzantine
//!   plus arbitrarily many crashes);
//! * [`quorum_op`] — the sans-I/O core of one operation: which replies may
//!   count (quorum member, right epoch, one vote per server, never a fence),
//!   that an attempt resolves only over a full quorum of answers, and the
//!   `b + 1`-support read rule, stated once for `bqs-service`'s event loop;
//! * [`client`] — two decisions of every operation: probe-and-fallback
//!   quorum choice over any [`bqs_core::quorum::QuorumSystem`] and the
//!   masking read rule, plus the protocol's errors;
//! * [`epoch`] — the server-side epoch gate that fences a retired access
//!   strategy during reconfiguration.
//!
//! # Example
//!
//! ```
//! use bqs_core::bitset::ServerSet;
//! use bqs_sim::prelude::*;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! // Five replicas behind a b = 1 masking system (any two quorums share
//! // 2b + 1 = 3 servers); server 2 fabricates a pair under the top timestamp.
//! let plan = FaultPlan::none(5)
//!     .with_byzantine(2, ByzantineStrategy::FabricateHighTimestamp { value: 666 });
//! let mut replicas = plan.build_replicas();
//! let mut rng = StdRng::seed_from_u64(7);
//!
//! // Write (1, 10) to the quorum {0, 1, 2, 3}, then read from {1, 2, 3, 4}.
//! let written = Entry { timestamp: 1, value: 10 };
//! for replica in &mut replicas[0..4] {
//!     replica.deliver_write(written);
//! }
//! let mut read = QuorumOp::default();
//! read.restart(ServerSet::from_indices(5, 1..5), OpKind::Read, 0);
//! let mut action = Action::Pending;
//! for server in 1..5 {
//!     let reply = replicas[server].deliver_read(0, &mut rng);
//!     action = read.on_reply(server, reply, 0, false, 1).1;
//! }
//! // Every member answered; of the three shared servers b + 1 = 2 are
//! // correct and hold the write, and the lie has one vote, so it is not
//! // even in the safe set.
//! assert_eq!(action, Action::Complete(Ok(Some(written))));
//! ```
//!
//! See `bqs-service`'s crate example for the same register served to
//! concurrent clients with online safety checking.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod epoch;
pub mod fault;
pub mod quorum_op;
pub mod server;

pub use prelude::*;

/// Convenient glob import for examples and benches — also the crate root's re-exports.
pub mod prelude {
    pub use crate::client::{choose_access_quorum, resolve_read, ProtocolError};
    pub use crate::epoch::EpochGate;
    pub use crate::fault::FaultPlan;
    pub use crate::quorum_op::{Action, Admission, OpKind, QuorumOp};
    pub use crate::server::{mix64, Behavior, ByzantineStrategy, Entry, Replica, Timestamp, Value};
}
