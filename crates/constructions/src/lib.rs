//! The b-masking quorum constructions of Malkhi, Reiter & Wool.
//!
//! This crate implements every construction discussed in *The Load and Availability
//! of Byzantine Quorum Systems* (PODC 1997 / SIAM J. Computing):
//!
//! | System | Paper section | Module | Headline property |
//! |---|---|---|---|
//! | Threshold | \[MR98a\] baseline (Table 2) | [`threshold`] | masks up to `b < n/4`, load `≈ 1/2` |
//! | Grid | \[MR98a\] baseline (Table 2) | [`grid`] | load `≈ 2b/√n`, availability → 0 |
//! | M-Grid | Section 5.1 | [`mgrid`] | **optimal load** `≈ 2√((b+1)/n)` for `b ≤ (√n−1)/2` |
//! | RT(k, ℓ) | Section 5.2 | [`rt`] | masks `b = O(n^α)`, near-optimal crash probability |
//! | boostFPP | Section 6 | [`boost_fpp`] | **optimal load** `≈ 3/(4q)`, masks up to `b → n/4` |
//! | M-Path | Section 7 | [`mpath`] | **optimal load and optimal crash probability** for all `p < 1/2` |
//! | Majority / RegularGrid / Singleton | regular baselines | [`majority`] | inputs for boosting and comparisons |
//!
//! All constructions implement [`bqs_core::quorum::QuorumSystem`] (operational
//! interface: sample a quorum, find a live quorum under failures) and the
//! [`AnalyzedConstruction`] trait defined here (the analytic quantities reported in
//! Table 2 of the paper).
//!
//! # Example
//!
//! ```
//! use bqs_constructions::prelude::*;
//! use bqs_core::prelude::*;
//!
//! // The paper's Figure 1 instance: a 7x7 M-Grid masking b = 3 Byzantine servers.
//! let mgrid = MGridSystem::new(7, 3).unwrap();
//! assert_eq!(mgrid.universe_size(), 49);
//! assert_eq!(mgrid.masking_b(), 3);
//!
//! // Its load is about 2*sqrt((b+1)/n) — optimal up to a factor sqrt(2).
//! let load = mgrid.analytic_load();
//! assert!(load < 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod boost_fpp;
pub mod fpp;
pub mod grid;
pub mod majority;
pub mod mgrid;
pub mod mpath;
pub mod rt;
mod segments;
pub mod square;
pub mod threshold;

pub use boost_fpp::BoostFppSystem;
pub use fpp::FppSystem;
pub use grid::GridSystem;
pub use majority::{MajoritySystem, RegularGridSystem, SingletonSystem};
pub use mgrid::MGridSystem;
pub use mpath::MPathSystem;
pub use rt::RtSystem;
pub use threshold::ThresholdSystem;

/// Analytic characterisation of a construction: the quantities the paper reports for
/// each system in Table 2 and uses throughout its comparisons.
///
/// All values are *analytic* (closed-form) properties of the construction; the
/// `bqs-core` measures recompute them exactly on explicit instances, and the tests in
/// this crate check that the two agree.
pub trait AnalyzedConstruction: bqs_core::quorum::QuorumSystem {
    /// The number of Byzantine failures the construction masks (its `b`).
    fn masking_b(&self) -> usize;

    /// The resilience `f = MT(Q) − 1`: crash failures it is guaranteed to survive.
    fn resilience(&self) -> usize;

    /// The load `L(Q)` (closed form; all of the paper's constructions are fair, so
    /// this equals `c(Q)/n` by Proposition 3.9).
    fn analytic_load(&self) -> f64;

    /// An upper bound on the crash probability `F_p(Q)` at crash probability `p`,
    /// when a useful one is known (`None` for the constructions whose `F_p → 1`).
    fn crash_probability_upper_bound(&self, p: f64) -> Option<f64>;

    /// A lower bound on `F_p(Q)`, defaulting to Proposition 4.3's `p^{f+1}`.
    fn crash_probability_lower_bound(&self, p: f64) -> Option<f64> {
        Some(bqs_core::bounds::crash_probability_lower_bound_resilience(
            p,
            self.resilience() + 1,
        ))
    }

    /// The universal load lower bound of Corollary 4.2 for this system's size and
    /// masking level, for optimality comparisons.
    fn load_lower_bound(&self) -> f64 {
        bqs_core::bounds::load_lower_bound_universal(self.universe_size(), self.masking_b())
    }

    /// The ratio of the achieved load to the universal lower bound (1.0 = optimal).
    fn load_optimality_ratio(&self) -> f64 {
        self.analytic_load() / self.load_lower_bound()
    }
}

/// Convenient glob import of every construction.
pub mod prelude {
    pub use crate::boost_fpp::BoostFppSystem;
    pub use crate::fpp::FppSystem;
    pub use crate::grid::GridSystem;
    pub use crate::majority::{MajoritySystem, RegularGridSystem, SingletonSystem};
    pub use crate::mgrid::MGridSystem;
    pub use crate::mpath::MPathSystem;
    pub use crate::rt::RtSystem;
    pub use crate::threshold::ThresholdSystem;
    pub use crate::AnalyzedConstruction;
}

/// A system's own `F_p` answer at one point (closed form or DP), without
/// the engine's fallbacks.
#[cfg(test)]
pub(crate) fn own_answer(sys: &dyn bqs_core::quorum::QuorumSystem, p: f64) -> Option<f64> {
    sys.certified_crash_probabilities(&[p])
        .map(|one| one[0].value)
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    /// Every construction must satisfy Theorem 4.1's lower bound and the basic
    /// sanity relations between its analytic quantities.
    #[test]
    fn all_constructions_respect_load_lower_bounds() {
        let systems: Vec<Box<dyn AnalyzedConstruction>> = vec![
            Box::new(ThresholdSystem::masking(21, 5).unwrap()),
            Box::new(GridSystem::new(10, 3).unwrap()),
            Box::new(MGridSystem::new(9, 4).unwrap()),
            Box::new(RtSystem::new(4, 3, 3).unwrap()),
            Box::new(BoostFppSystem::new(3, 4).unwrap()),
            Box::new(MPathSystem::new(9, 4).unwrap()),
        ];
        for sys in &systems {
            let n = sys.universe_size();
            let b = sys.masking_b();
            let load = sys.analytic_load();
            let bound = bqs_core::bounds::load_lower_bound(n, b, sys.min_quorum_size());
            assert!(
                load + 1e-9 >= bound,
                "{}: load {load} below Theorem 4.1 bound {bound}",
                sys.name()
            );
            assert!(sys.load_optimality_ratio() >= 1.0 - 1e-9, "{}", sys.name());
            assert!(sys.resilience() >= b, "{}", sys.name());
            assert!(
                bqs_core::masking::masking_feasible(n, b),
                "{}: 4b < n must hold",
                sys.name()
            );
        }
    }

    /// The optimal-load constructions (M-Grid, boostFPP, M-Path) stay within a small
    /// constant of the universal bound, while Threshold does not (for small b).
    #[test]
    fn load_optimality_separation() {
        let mgrid = MGridSystem::new(16, 7).unwrap();
        let mpath = MPathSystem::new(16, 7).unwrap();
        let boost = BoostFppSystem::new(4, 3).unwrap();
        let threshold = ThresholdSystem::masking(1024, 7).unwrap();
        for sys in [&mgrid as &dyn AnalyzedConstruction, &mpath, &boost] {
            assert!(
                sys.load_optimality_ratio() < 2.5,
                "{} ratio {}",
                sys.name(),
                sys.load_optimality_ratio()
            );
        }
        assert!(
            threshold.load_optimality_ratio() > 2.5,
            "threshold load should be far from optimal for small b: {}",
            threshold.load_optimality_ratio()
        );
    }
}
