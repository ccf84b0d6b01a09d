//! Graph substrates for the M-Path quorum system.
//!
//! The M-Path construction (Section 7 of Malkhi, Reiter & Wool) places servers on the
//! vertices of a triangulated `√n × √n` grid; a quorum is the union of `√(2b+1)`
//! vertex-disjoint left-right paths and `√(2b+1)` vertex-disjoint top-bottom paths.
//! Verifying and constructing such quorums, and analysing their availability, needs:
//!
//! * [`grid`] — the triangulated grid graph itself (the triangular lattice of
//!   \[WB92\]/\[Baz96\] used by the paper),
//! * [`maxflow`] — Dinic's algorithm on unit-capacity node-split networks, giving the
//!   maximum number of vertex-disjoint paths between two vertex sets (Menger): the
//!   engine behind path *extraction*, and the reference the tests hold the duality to,
//! * [`disjoint_paths`] — extraction of explicit disjoint paths from a flow,
//! * [`crossing_dp`] — the self-matching duality `maxflow = min blocking-path cost`,
//!   twice: per configuration, a capped 0-1 BFS that *decides* "are there `k`
//!   disjoint alive crossings" without building a network
//!   ([`min_crossing_cost_capped`]); over all configurations, **exact** crossing and
//!   M-Path crash probabilities by a column-sweep transfer-matrix DP over
//!   boundary-interface states,
//! * [`percolation`] — Monte-Carlo site percolation on the triangulated grid, used to
//!   reproduce the availability results of Section 7 / Appendix B; every trial is one
//!   or two calls of the capped search.
//!
//! # Example
//!
//! ```
//! use bqs_graph::grid::TriangulatedGrid;
//! use bqs_graph::maxflow::max_vertex_disjoint_lr_paths;
//!
//! let grid = TriangulatedGrid::new(5);
//! let all_alive = vec![true; grid.num_vertices()];
//! // A fully-alive 5x5 grid supports 5 disjoint left-right paths (the rows).
//! assert_eq!(max_vertex_disjoint_lr_paths(&grid, &all_alive), 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crossing_dp;
pub mod disjoint_paths;
pub mod grid;
pub mod maxflow;
pub mod percolation;

pub use crossing_dp::{
    crossing_probability, min_crossing_cost, min_crossing_cost_capped, mpath_crash_probability,
    CrossingScratch,
};
pub use disjoint_paths::min_price_crossing;
pub use grid::{Axis, TriangulatedGrid};
pub use maxflow::{
    max_vertex_disjoint_lr_paths, max_vertex_disjoint_paths, max_vertex_disjoint_tb_paths,
};
pub use percolation::PercolationEstimator;
