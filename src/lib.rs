//! # byzantine-quorums
//!
//! A from-scratch Rust implementation of *The Load and Availability of Byzantine
//! Quorum Systems* (Dahlia Malkhi, Michael K. Reiter, Avishai Wool — PODC 1997 /
//! SIAM Journal on Computing): b-masking quorum system constructions, their load and
//! availability analysis, the quorum-composition ("boosting") machinery, and the
//! replicated read/write register the masking property exists for, served over
//! them under Byzantine and crash faults.
//!
//! This crate is a facade that re-exports the workspace members:
//!
//! | Re-export | Crate (path) | Contents |
//! |---|---|---|
//! | [`core`] | `bqs-core` (`crates/core`) | the [`core::quorum::QuorumSystem`] trait and explicit systems, measures (`c`, `IS`, `MT`, load via LP, `F_p`), masking, composition, lower bounds, and the [`core::eval::Evaluator`] — the shared allocation-free, parallel crash-probability engine |
//! | [`constructions`] | `bqs-constructions` (`crates/constructions`) | Threshold, Grid, M-Grid, RT(k, ℓ), FPP, boostFPP, M-Path and the regular baselines, each with closed-form analytics (and exact closed-form `F_p` where the structure admits one) |
//! | [`analysis`] | `bqs-analysis` (`crates/analysis`) | Table 2, the Section 8 scenario, load/availability sweeps and ablations, all driven by one shared `Evaluator` |
//! | [`sim`] | `bqs-sim` (`crates/sim`) | the masking read/write register *model*: replicas with correct, crashed and Byzantine behaviours, fault plans, the sans-I/O operation core, quorum choice and the `b + 1` read rule |
//! | [`service`] | `bqs-service` (`crates/service`) | the register's one implementation and the strategy-driven quorum service runtime: one client (single-writer and query-then-write multi-writer timestamps), sharded replica ownership behind a pluggable transport, lock-free metrics, closed-loop and open-loop (Poisson-arrival) load generation with online safety checking |
//! | [`net`] | `bqs-net` (`crates/net`) | the socket side of the transport seam: length-prefixed wire codec, TCP/Unix-domain server over the sharded runtime, pooled client transport with reconnect and per-request deadlines |
//! | [`chaos`] | `bqs-chaos` (`crates/chaos`) | the deterministic adversarial scenario engine: a replayable chaos interposer at the transport seam plus named scenario families that verify masking holds at `b` faults and breaks detectably at `b + 1` |
//! | [`epoch`] | `bqs-epoch` (`crates/epoch`) | epoch-based reconfiguration: accrual failure suspicion over service evidence, survivor re-certification through the load oracle (with construction switching and a rotation fallback), and the two-phase client migration that preserves masking across the handoff |
//! | [`combinatorics`] | `bqs-combinatorics` (`crates/combinatorics`) | binomials, finite fields, prime powers, projective planes |
//! | [`lp`] | `bqs-lp` (`crates/lp`) | the simplex solver behind the explicit load LP, plus the incremental packing master behind certified column-generation load |
//! | [`graph`] | `bqs-graph` (`crates/graph`) | triangulated grids, max-flow, percolation (the M-Path substrate) |
//!
//! The `bqs-bench` crate (`crates/bench`, not re-exported: binaries only)
//! regenerates the paper's tables and figures and emits `BENCH_fp.json`, the
//! machine-readable performance trajectory of the evaluation engine.
//!
//! # Quickstart
//!
//! ```
//! use byzantine_quorums::constructions::prelude::*;
//! use byzantine_quorums::core::prelude::*;
//!
//! // An M-Grid over 25 servers masking 2 Byzantine failures (Section 5.1).
//! let system = MGridSystem::new(5, 2)?;
//! assert_eq!(system.masking_b(), 2);
//!
//! // Verify the b-masking property exactly on the explicit quorum list.
//! let explicit = system.to_explicit(100_000)?;
//! assert!(is_b_masking(explicit.quorums(), 25, 2));
//!
//! // Its load is optimal to within a small constant (√2 asymptotically, Prop. 5.2).
//! let (load, _strategy) = optimal_load(explicit.quorums(), 25)?;
//! assert!(load <= 1.5 * load_lower_bound_universal(25, 2) + 1e-9);
//!
//! // Crash probability through the shared evaluation engine: closed form for
//! // the M-Grid (exact at any n), parallel enumeration or Monte-Carlo otherwise.
//! let fp = Evaluator::new().crash_probability(&system, 0.125);
//! assert_eq!(fp.method, FpMethod::ClosedForm);
//! assert!(fp.value > 0.0 && fp.value < 1.0);
//! # Ok::<(), byzantine_quorums::core::QuorumError>(())
//! ```
//!
//! See the `examples/` directory for runnable end-to-end scenarios and the
//! README for the full experiment catalogue (every table and figure of the
//! paper has a binary in `bqs-bench`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use bqs_analysis as analysis;
pub use bqs_chaos as chaos;
pub use bqs_combinatorics as combinatorics;
pub use bqs_constructions as constructions;
pub use bqs_core as core;
pub use bqs_epoch as epoch;
pub use bqs_graph as graph;
pub use bqs_lp as lp;
pub use bqs_net as net;
pub use bqs_service as service;
pub use bqs_sim as sim;

/// One-stop import of the most frequently used items from every layer.
pub mod prelude {
    pub use bqs_chaos::prelude::*;
    pub use bqs_constructions::prelude::*;
    pub use bqs_core::prelude::*;
    pub use bqs_epoch::prelude::*;
    pub use bqs_net::prelude::*;
    pub use bqs_service::prelude::*;
    pub use bqs_sim::prelude::*;
}
