//! A small, dependency-free linear-programming solver.
//!
//! The *load* of a quorum system (Definition 3.8 of Malkhi, Reiter & Wool) is the
//! value of a linear program: choose an access strategy `w` (a probability
//! distribution over quorums) minimising the maximum induced load over servers.
//! For fair systems Proposition 3.9 gives a closed form, but for arbitrary explicit
//! quorum systems an LP solver is required to compute `L(Q)` exactly. This crate
//! provides two dependency-free solvers:
//!
//! * [`simplex`] — a dense two-phase tableau simplex for general LPs with few
//!   constraints, used by the explicit-quorum load path: pricing costs
//!   `O(cols × cost-bearing rows)` and a pivot `O(rows × cols)`, which solves
//!   the 134 597-variable, 25-row load LP of the 18-of-24 threshold in ≈ 0.15 s;
//! * [`packing`] — an incremental packing LP (`max Σx, Ax ≤ 1`) with sparse
//!   columns and warm-started re-solves, the restricted master behind the
//!   column-generation load engine that scales `L(Q)` to constructions whose
//!   quorum lists are astronomically large.
//!
//! # Example
//!
//! ```
//! use bqs_lp::{Constraint, LinearProgram, LpOutcome, Relation};
//!
//! // maximize 3x + 2y  s.t.  x + y <= 4,  x + 3y <= 6,  x, y >= 0
//! let lp = LinearProgram {
//!     num_vars: 2,
//!     maximize: true,
//!     objective: vec![3.0, 2.0],
//!     constraints: vec![
//!         Constraint::new(vec![1.0, 1.0], Relation::Le, 4.0),
//!         Constraint::new(vec![1.0, 3.0], Relation::Le, 6.0),
//!     ],
//! };
//! match lp.solve() {
//!     LpOutcome::Optimal(sol) => assert!((sol.objective_value - 12.0).abs() < 1e-9),
//!     other => panic!("unexpected outcome {other:?}"),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod packing;
pub mod simplex;

pub use packing::PackingLp;
pub use simplex::{Constraint, LinearProgram, LpOutcome, Relation};
