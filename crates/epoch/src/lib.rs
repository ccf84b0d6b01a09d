//! Epoch-based reconfiguration for masking quorum systems.
//!
//! The paper certifies a load-optimal access strategy for a *fixed* universe;
//! this crate keeps that certificate true when the universe stops being
//! fixed. It closes the loop from **evidence** to **strategy**:
//!
//! * [`suspicion`] — an accrual failure detector over the per-server
//!   evidence the service layer already records, read one
//!   [`bqs_service::metrics::MetricsSnapshot`] per tick:
//!   answer/no-answer ratios catch crashed and silent replicas, per-server
//!   tail latency catches a timeout-inflation adversary that answers just
//!   under every deadline, and a score-with-hysteresis update rule keeps
//!   transient chaos (jitter, lossy links) from churning the configuration;
//! * [`config`] — re-certification: given the survivor mask, an
//!   [`config::EpochPlanner`] re-runs the column-generation load oracle over
//!   each registered quorum pool ([`bqs_core::load::optimal_load_oracle_for_survivors`]),
//!   picks the best surviving construction, and falls back to a rotation
//!   system built directly on the survivors when every pool is dead —
//!   producing an [`config::EpochConfig`] whose strategy carries the same
//!   `load − lower_bound ≤ tolerance` certificate as the initial one;
//! * [`manager`] — the two-phase handoff driving the server-side
//!   [`bqs_sim::epoch::EpochGate`]: *open* the `{e, e + 1}` acceptance
//!   window before any client sees the new strategy, let epoch-`e` accesses
//!   drain, then *finalize* so stragglers are fenced in-band. No read ever
//!   gathers `b + 1` support across two strategies, because no single
//!   fan-out ever carries two epoch stamps and the gate never serves an
//!   epoch outside its window;
//! * [`runner`] — an end-to-end drill: open-loop load against a live
//!   service, crash `k` servers mid-run under a named
//!   [`bqs_chaos::ReconfigScenario`] environment, watch the detector flag
//!   exactly the dead set, re-certify, migrate, and measure the busiest
//!   server re-converging to the *new* certified `L(Q)` — deterministically
//!   replayable from its `(seed, scenario)` pair.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod manager;
pub mod runner;
pub mod suspicion;

pub use prelude::*;

/// Convenient glob import for benches and tests — also the crate root's re-exports.
pub mod prelude {
    pub use crate::config::{EpochConfig, EpochPlanner, StrategySource};
    pub use crate::manager::{EpochManager, EpochTransition, TickOutcome};
    pub use crate::runner::{run_reconfigure, PhaseSummary, ReconfigConfig, ReconfigOutcome};
    pub use crate::suspicion::{SuspicionConfig, SuspicionEngine};
}
