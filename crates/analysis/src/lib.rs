//! Load and availability analysis of Byzantine quorum systems.
//!
//! This crate turns the constructions of `bqs-constructions` and the measures of
//! `bqs-core` into the *experiments* of the paper:
//!
//! * [`comparison`] — Table 2 (the construction-by-construction comparison);
//! * [`scenario`] — the Section 8 worked example (`n = 1024`, `L ≈ 1/4`, `p = 1/8`);
//! * [`load_analysis`] — the paper roster ([`PaperConstruction`]: which
//!   instance stands for each construction at a universe size and masking
//!   level, asked by every figure and table here), load-versus-n sweeps, the
//!   certified column-generation sweep `lp_load_vs_n` (pinning closed-form
//!   loads against the LP up to `n = 1024`), the Theorem 4.1 envelope, and
//!   the LP-versus-closed-form ablation;
//! * [`availability_analysis`] — `F_p` versus `p` and versus `n`, the RT fixed-point
//!   sweep, and the exact-versus-Monte-Carlo ablation;
//! * [`percolation_threshold`] — the finite-size percolation estimates behind the
//!   M-Path availability argument (Appendix B);
//! * [`empirical`] — statistically honest comparisons of the concurrent
//!   service runtime's measurements (per-server access counts, per-plan
//!   availability outcomes) against the certified `L(Q)` and `F_p`;
//! * [`report`] — the text-table rendering shared by the `paper` subcommands.
//!
//! Each subcommand of `bqs-bench`'s `paper` binary is a thin wrapper that calls
//! one of these functions and prints the rendered table.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod availability_analysis;
pub mod comparison;
pub mod empirical;
pub mod load_analysis;
pub mod percolation_threshold;
pub mod report;
pub mod scenario;

pub use ablation::{mpath_discovery_ablation, transversal_ablation};
pub use availability_analysis::{exact_vs_monte_carlo, fp_vs_n, fp_vs_p, rt_fixed_point_sweep};
pub use comparison::{build_table2, render_table2, Table2Row};
pub use empirical::{
    empirical_availability_check, empirical_load_check, EmpiricalAvailabilityCheck,
    EmpiricalLoadCheck,
};
pub use load_analysis::{
    boost_fpp_order_for, certified_constructions, load_vs_n, lower_bound_envelope, lp_load_vs_n,
    lp_vs_fair_load, CertifiableConstruction, CertifiedLoadPoint, PaperConstruction,
};
pub use percolation_threshold::{crossing_curve, estimate_critical_probability};
pub use report::TextTable;
pub use scenario::{build_scenario, render_scenario, ScenarioRow};
