//! Deterministic adversarial scenario engine: replayable chaos at the
//! `Transport` seam.
//!
//! The paper's masking guarantees are stated against an adversary; this crate
//! supplies one you can *replay*. [`ChaosTransport`] wraps any
//! [`bqs_service::transport::Transport`] — the in-process sharded loopback,
//! `bqs-net`'s Unix-domain or TCP socket transport — and perturbs the request
//! stream flowing through it: delay and jitter (which reorders), drops,
//! duplication, asymmetric partitions, and per-server slow paths. Every
//! decision is drawn from a splitmix64 stream keyed by
//! `(seed, scenario, origin, request id)`, so a failing run is reproduced
//! *byte-identically* from its `(seed, scenario)` pair — the recorded
//! [`TraceEvent`](transport::TraceEvent) log and its fingerprint are equal across runs, and so is
//! every safety-check outcome built on top.
//!
//! [`scenario`] packages the perturbations with the matching Byzantine server
//! behaviours from `bqs-sim` into named [`ChaosScenario`] families, and
//! [`scenario::run_scenario`] drives a single-writer workload against them
//! (its [`ScenarioOutcome`] carries the operation tally, the client's
//! metrics and the interposer's stats), checking the two masking invariants
//! the paper promises at `b` faults:
//!
//! * **value authenticity** — a completed read never returns a fabricated
//!   entry (one whose value was not produced by the writer, or whose
//!   timestamp was never allocated);
//! * **read-your-writes** — a completed read never returns an entry older
//!   than the writer's last completed write.
//!
//! Each family is designed so both invariants hold at `b` faults and break
//! *detectably* at `b + 1` — the `2b + 1` intersection of Definition 3.5 is
//! exactly tight, and the scenario sweep observes that tightness through real
//! transports rather than by algebra.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod reconfig;
pub mod scenario;
pub mod transport;

pub use prelude::*;

/// Convenient glob import for benches and tests — also the crate root's re-exports.
pub mod prelude {
    pub use crate::reconfig::ReconfigScenario;
    pub use crate::scenario::{run_scenario, ChaosScenario, ScenarioConfig, ScenarioOutcome};
    pub use crate::transport::ChaosTransport;
}
