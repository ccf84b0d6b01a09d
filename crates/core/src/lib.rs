//! Core abstractions for Byzantine (b-masking) quorum systems.
//!
//! This crate implements the definitional and analytical machinery of
//! *The Load and Availability of Byzantine Quorum Systems* (Malkhi, Reiter & Wool,
//! PODC 1997 / SIAM J. Computing):
//!
//! * [`bitset::ServerSet`] — compact subsets of the server universe;
//! * [`quorum`] — the [`quorum::QuorumSystem`] trait and explicit quorum systems
//!   (Definition 3.1);
//! * [`measures`] — `c(Q)`, `IS(Q)`, degrees and fairness (Definition 3.2);
//! * [`transversal`] — minimal transversals `MT(Q)` and resilience `f`
//!   (Definitions 3.3–3.4);
//! * [`masking`] — the b-masking property (Definition 3.5, Lemma 3.6, Corollary 3.7)
//!   and the vote-masking rule it enables;
//! * [`strategy`] and [`load`] — access strategies and the system load `L(Q)`
//!   (Definition 3.8, Proposition 3.9), computed exactly by linear programming —
//!   explicitly for materialised systems, or by certified column generation
//!   against the pricing oracles of [`oracle`] for large-`n` constructions;
//! * [`availability`] — the crash probability `F_p(Q)` (Definition 3.10), exact and
//!   Monte-Carlo;
//! * [`bounds`] — the lower bounds of Theorem 4.1, Corollary 4.2 and
//!   Propositions 4.3–4.5;
//! * [`composition`] — quorum composition / boosting (Definition 4.6, Theorem 4.7).
//!
//! The concrete constructions of the paper (Threshold, Grid, M-Grid, RT, boostFPP,
//! M-Path) live in the companion `bqs-constructions` crate.
//!
//! # Example
//!
//! ```
//! use bqs_core::prelude::*;
//!
//! // The 3-of-4 threshold system: a regular quorum system with IS = 2.
//! let quorums: Vec<ServerSet> = bqs_combinatorics::subsets::KSubsets::new(4, 3)
//!     .map(|s| ServerSet::from_indices(4, s))
//!     .collect();
//! let system = ExplicitQuorumSystem::new(4, quorums).unwrap();
//!
//! // It masks b = 0 Byzantine failures (IS = 2 < 3) but survives one crash.
//! assert_eq!(masking_level(system.quorums(), 4), Some(0));
//! assert_eq!(resilience(system.quorums(), 4), 1);
//!
//! // Its load is 3/4 (fair system, Proposition 3.9), matching the exact LP.
//! let (load, _strategy) = optimal_load(system.quorums(), 4).unwrap();
//! assert!((load - 0.75).abs() < 1e-6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod availability;
pub mod bitset;
pub mod bounds;
pub mod composition;
pub mod domination;
pub mod error;
pub mod eval;
pub mod load;
pub mod masking;
pub mod measures;
pub mod oracle;
pub mod quorum;
pub mod strategic;
pub mod strategy;
pub mod transversal;

pub use availability::{exact_crash_probability, CrashEstimate};
pub use bitset::ServerSet;
pub use composition::{compose_explicit, ComposedSystem};
pub use error::QuorumError;
pub use eval::{Evaluator, FpEstimate, FpMethod};
pub use load::{
    fair_load, optimal_load, optimal_load_oracle, optimal_load_oracle_for_quorums, CertifiedLoad,
};
pub use masking::{is_b_masking, masking_level};
pub use oracle::MinWeightQuorumOracle;
pub use quorum::{ExplicitQuorumSystem, QuorumSystem};
pub use strategic::StrategicQuorumSystem;
pub use strategy::AccessStrategy;
pub use transversal::{min_transversal, min_transversal_size, resilience};

/// Convenient glob import for downstream crates and examples.
pub mod prelude {
    pub use crate::availability::{exact_crash_probability, sample_alive_set, CrashEstimate};
    pub use crate::bitset::ServerSet;
    pub use crate::bounds::{
        crash_probability_lower_bound_resilience, load_lower_bound, load_lower_bound_universal,
    };
    pub use crate::composition::{compose_explicit, ComposedSystem};
    pub use crate::domination::{is_coterie, minimize_system, reduce_to_minimal};
    pub use crate::error::QuorumError;
    pub use crate::eval::{Evaluator, FpEstimate, FpMethod};
    pub use crate::load::{
        fair_load, optimal_load, optimal_load_oracle, optimal_load_oracle_for_quorums,
        optimal_load_oracle_with, strategy_load, CertifiedLoad,
    };
    pub use crate::masking::{is_b_masking, mask_votes, masking_feasible, masking_level};
    pub use crate::measures::{
        degrees, fairness, is_fair, is_quorum_system, min_intersection_size, min_quorum_size,
    };
    pub use crate::oracle::MinWeightQuorumOracle;
    pub use crate::quorum::{ExplicitQuorumSystem, QuorumSystem};
    pub use crate::strategic::StrategicQuorumSystem;
    pub use crate::strategy::AccessStrategy;
    pub use crate::transversal::{
        greedy_transversal, is_transversal, min_transversal, min_transversal_size, resilience,
    };
}
