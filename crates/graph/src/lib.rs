//! Graph substrates for the M-Path quorum system.
//!
//! The M-Path construction (Section 7 of Malkhi, Reiter & Wool) places servers on the
//! vertices of a triangulated `√n × √n` grid; a quorum is the union of `√(2b+1)`
//! vertex-disjoint left-right paths and `√(2b+1)` vertex-disjoint top-bottom paths.
//! Verifying and constructing such quorums, and analysing their availability, needs:
//!
//! * [`grid`] — the triangulated grid graph itself (the triangular lattice of
//!   \[WB92\]/\[Baz96\] used by the paper),
//! * [`disjoint_paths`] — the one path kernel, [`min_cost_crossings`]: `k`
//!   vertex-disjoint crossings of least total vertex price by successive shortest
//!   paths on the node-split network (Menger). It extracts the paths of a quorum
//!   and prices path systems,
//! * [`crossing_dp`] — the self-matching duality `maxflow = min blocking-path cost`,
//!   twice: per configuration, a capped 0-1 BFS that *decides* "are there `k`
//!   disjoint alive crossings" without building a network
//!   ([`min_crossing_cost_capped`]); over all configurations, **exact** crossing and
//!   M-Path crash probabilities by a column-sweep transfer-matrix DP over
//!   boundary-interface states,
//! * [`percolation`] — Monte-Carlo site percolation on the triangulated grid, used to
//!   reproduce the crossing results of Appendix B; every trial is one call of the
//!   capped search.
//!
//! # Example
//!
//! ```
//! use bqs_graph::{min_cost_crossings, Axis, TriangulatedGrid};
//!
//! let grid = TriangulatedGrid::new(5);
//! let unit_prices = vec![1.0; grid.num_vertices()];
//! // A fully-alive 5x5 grid supports 5 disjoint left-right paths (the rows),
//! // and no 6th.
//! let rows = min_cost_crossings(&grid, &unit_prices, Axis::LeftRight, 6);
//! assert_eq!(rows.len(), 5);
//! assert!(rows.iter().all(|path| path.len() == 5));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crossing_dp;
pub mod disjoint_paths;
pub mod grid;
pub mod percolation;

pub use crossing_dp::{
    crossing_probability, min_crossing_cost, min_crossing_cost_capped, mpath_crash_probability,
    CrossingScratch,
};
pub use disjoint_paths::min_cost_crossings;
pub use grid::{Axis, TriangulatedGrid};
pub use percolation::PercolationEstimator;
