//! Simulation of replicated data over b-masking quorum systems.
//!
//! The constructions and measures in the rest of this workspace answer *how well* a
//! b-masking quorum system performs; this crate demonstrates *that it works*: it
//! implements the replicated read/write register of [MR98a] — the protocol whose
//! consistency requirement (`|Q₁ ∩ Q₂| ≥ 2b + 1`, Definition 3.5 of the paper)
//! motivates masking quorum systems — and runs it against clusters with injected
//! Byzantine and crash failures.
//!
//! * [`server`] — replicas with correct, crashed and Byzantine behaviours (value
//!   fabrication with inflated timestamps, stale replay, equivocation, silence);
//! * [`fault`] — fault plans for the paper's hybrid failure model (`≤ b` Byzantine
//!   plus arbitrarily many crashes);
//! * [`cluster`] — message routing and per-server access accounting;
//! * [`quorum_op`] — the sans-I/O core of one operation: which replies may
//!   count (quorum member, right epoch, one vote per server, never a fence)
//!   and the `b + 1`-support read rule, stated once for every client shell
//!   here and in `bqs-service`;
//! * [`client`] — the masking read/write protocol over any
//!   [`bqs_core::quorum::QuorumSystem`];
//! * [`runner`] — workload driver with safety checking and empirical-load
//!   measurement.
//!
//! # Example
//!
//! ```
//! use bqs_constructions::threshold::ThresholdSystem;
//! use bqs_sim::prelude::*;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! // A b = 1 masking threshold over 5 servers, with one fabricating Byzantine server.
//! let system = ThresholdSystem::minimal_masking(1).unwrap();
//! let plan = FaultPlan::none(5)
//!     .with_byzantine(2, ByzantineStrategy::FabricateHighTimestamp { value: 666 });
//! let mut rng = StdRng::seed_from_u64(7);
//! let report = run_workload(system, 1, plan, WorkloadConfig::default(), &mut rng);
//! assert!(report.is_safe());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod cluster;
pub mod epoch;
pub mod fault;
pub mod multi_writer;
pub mod quorum_op;
pub mod runner;
pub mod server;

pub use prelude::*;

/// Convenient glob import for examples and benches — also the crate root's re-exports.
pub mod prelude {
    pub use crate::client::{
        choose_access_quorum, resolve_read, Client, ProtocolError, ReadOutcome, WriteOutcome,
    };
    pub use crate::cluster::Cluster;
    pub use crate::epoch::EpochGate;
    pub use crate::fault::FaultPlan;
    pub use crate::multi_writer::{
        run_multi_writer_workload, MultiWriterClient, MultiWriterReport,
    };
    pub use crate::quorum_op::{Admission, OpKind, QuorumOp};
    pub use crate::runner::{run_workload, SimReport, WorkloadConfig};
    pub use crate::server::{mix64, Behavior, ByzantineStrategy, Entry, Replica, Timestamp, Value};
}
