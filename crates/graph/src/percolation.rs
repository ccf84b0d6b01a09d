//! Site percolation on the triangulated grid.
//!
//! Appendix B of the paper analyses M-Path availability via site percolation on the
//! triangular lattice (critical probability `p_c = 1/2` \[Kes80\]): when each vertex is
//! independently *closed* (crashed) with probability `p < 1/2`, long open crossings
//! exist with probability `1 − e^{−ψ(p)√n}` (Theorem B.1), and `r+1` disjoint
//! crossings exist with essentially the same behaviour (Theorem B.3).
//!
//! This module provides the Monte-Carlo estimator that reproduces those statements
//! numerically: the probability of `k` vertex-disjoint open crossings, `k = 1` being
//! the plain open-crossing probability of Theorem B.1. The M-Path crash probability
//! is `bqs_core`'s `Evaluator::monte_carlo` over the M-Path system, whose trials run
//! the same search.
//!
//! Every trial is decided by the capped blocking-path search of
//! [`crate::crossing_dp::min_crossing_cost_capped`]: `k` disjoint open crossings of an
//! axis exist iff no crossing path of the *other* axis has fewer than `k` alive
//! vertices (the self-matching duality), and `k = 1` is plain connectivity.

use rand::Rng;

use crate::crossing_dp::{min_crossing_cost_capped, CrossingScratch};
use crate::grid::{Axis, TriangulatedGrid};

/// Monte-Carlo estimate together with its sampling error.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Point estimate of the probability.
    pub mean: f64,
    /// Standard error of the estimate (binomial).
    pub std_error: f64,
    /// Number of Monte-Carlo trials.
    pub trials: usize,
}

impl Estimate {
    /// Half-width of the 95% normal-approximation confidence interval.
    #[must_use]
    pub fn ci95_half_width(&self) -> f64 {
        1.96 * self.std_error
    }

    fn from_successes(successes: usize, trials: usize) -> Self {
        let mean = successes as f64 / trials as f64;
        let std_error = (mean * (1.0 - mean) / trials as f64).sqrt();
        Estimate {
            mean,
            std_error,
            trials,
        }
    }
}

/// Monte-Carlo site-percolation estimator over a triangulated grid.
#[derive(Debug, Clone)]
pub struct PercolationEstimator {
    grid: TriangulatedGrid,
}

impl PercolationEstimator {
    /// Creates an estimator for a `side × side` triangulated grid.
    #[must_use]
    pub fn new(side: usize) -> Self {
        PercolationEstimator {
            grid: TriangulatedGrid::new(side),
        }
    }

    /// The underlying grid.
    #[must_use]
    pub fn grid(&self) -> &TriangulatedGrid {
        &self.grid
    }

    /// Samples an alive/crashed configuration: each vertex crashes independently with
    /// probability `p`.
    pub fn sample_alive<R: Rng + ?Sized>(&self, p: f64, rng: &mut R) -> Vec<bool> {
        (0..self.grid.num_vertices())
            .map(|_| rng.gen::<f64>() >= p)
            .collect()
    }

    /// Estimates `P[at least k vertex-disjoint open crossings along `axis` exist]`
    /// when each vertex crashes independently with probability `p`: the
    /// `I_{k-1}(LR)` event of Theorem B.3, and for `k = 1` the open-crossing
    /// probability of Theorem B.1.
    pub fn estimate_disjoint_crossings_probability<R: Rng + ?Sized>(
        &self,
        p: f64,
        axis: Axis,
        k: usize,
        trials: usize,
        rng: &mut R,
    ) -> Estimate {
        assert!(trials > 0, "at least one trial required");
        let (side, blocking) = (self.grid.side(), axis.perpendicular());
        let mut scratch = CrossingScratch::default();
        let mut successes = 0usize;
        for _ in 0..trials {
            let alive = self.sample_alive(p, rng);
            if min_crossing_cost_capped(side, |v| alive[v], blocking, k, &mut scratch) >= k {
                successes += 1;
            }
        }
        Estimate::from_successes(successes, trials)
    }
}

/// The elementary counting-argument lower bound on the crossing probability from the
/// remark after Theorem B.1 (following Bazzi): for `p < 1/3`,
/// `P[LR] >= 1 − √n (3p)^{√n} / (1 − 3p)`.
///
/// Returns a value clamped to `[0, 1]`; for `p >= 1/3` the bound is vacuous (0).
#[must_use]
pub fn crossing_probability_lower_bound(side: usize, p: f64) -> f64 {
    if p >= 1.0 / 3.0 {
        return 0.0;
    }
    let s = side as f64;
    (1.0 - s * (3.0 * p).powf(s) / (1.0 - 3.0 * p)).clamp(0.0, 1.0)
}

/// The ACCFR inequality of Theorem B.3: given a lower bound `prob_at_p_prime` on
/// `P_{p'}[E]` for an increasing event `E`, returns the implied lower bound on
/// `P_p[I_r(E)]` for `p < p'`:
/// `1 − P_p[I_r(E)] <= ((1−p)/(p'−p))^r (1 − P_{p'}[E])`.
#[must_use]
pub fn interior_event_lower_bound(prob_at_p_prime: f64, p: f64, p_prime: f64, r: usize) -> f64 {
    assert!(p < p_prime && p_prime <= 1.0, "requires p < p' <= 1");
    let factor = ((1.0 - p) / (p_prime - p)).powi(r as i32);
    (1.0 - factor * (1.0 - prob_at_p_prime)).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn crossing_probability_extremes() {
        let est = PercolationEstimator::new(5);
        let mut rng = StdRng::seed_from_u64(7);
        for axis in [Axis::LeftRight, Axis::TopBottom] {
            for k in [1usize, 5] {
                let p0 = est.estimate_disjoint_crossings_probability(0.0, axis, k, 50, &mut rng);
                assert_eq!(p0.mean, 1.0);
                let p1 = est.estimate_disjoint_crossings_probability(1.0, axis, k, 50, &mut rng);
                assert_eq!(p1.mean, 0.0);
            }
        }
    }

    #[test]
    fn crossing_probability_decreases_in_p() {
        let est = PercolationEstimator::new(8);
        let mut rng = StdRng::seed_from_u64(42);
        let lo =
            est.estimate_disjoint_crossings_probability(0.1, Axis::LeftRight, 1, 400, &mut rng);
        let hi =
            est.estimate_disjoint_crossings_probability(0.7, Axis::LeftRight, 1, 400, &mut rng);
        assert!(lo.mean > hi.mean, "lo={} hi={}", lo.mean, hi.mean);
        // Sub-critical p=0.1 should essentially always cross on an 8x8 grid.
        assert!(lo.mean > 0.9);
        // Super-critical p=0.7 should essentially never cross.
        assert!(hi.mean < 0.2);
    }

    #[test]
    fn disjoint_crossings_need_more_than_one() {
        let est = PercolationEstimator::new(6);
        let mut rng = StdRng::seed_from_u64(3);
        let one =
            est.estimate_disjoint_crossings_probability(0.15, Axis::LeftRight, 1, 300, &mut rng);
        let three =
            est.estimate_disjoint_crossings_probability(0.15, Axis::LeftRight, 3, 300, &mut rng);
        assert!(one.mean >= three.mean - 1e-12);
    }

    #[test]
    fn estimate_confidence_interval_sane() {
        let e = Estimate::from_successes(50, 100);
        assert!((e.mean - 0.5).abs() < 1e-12);
        assert!((e.std_error - 0.05).abs() < 1e-12);
        assert!((e.ci95_half_width() - 0.098).abs() < 1e-3);
    }

    #[test]
    fn counting_bound_behaviour() {
        // Vacuous above 1/3, approaches 1 for small p and large grids.
        assert_eq!(crossing_probability_lower_bound(10, 0.4), 0.0);
        assert!(crossing_probability_lower_bound(32, 0.05) > 0.99);
        assert!(
            crossing_probability_lower_bound(4, 0.3) < crossing_probability_lower_bound(4, 0.01)
        );
    }

    #[test]
    fn interior_event_bound_monotone_in_r() {
        // More required disjoint paths -> weaker bound.
        let base = 0.999;
        let b1 = interior_event_lower_bound(base, 0.1, 0.2, 1);
        let b3 = interior_event_lower_bound(base, 0.1, 0.2, 3);
        assert!(b1 >= b3);
    }

    #[test]
    #[should_panic(expected = "requires p < p'")]
    fn interior_event_bound_validates_inputs() {
        let _ = interior_event_lower_bound(0.9, 0.3, 0.2, 2);
    }

    #[test]
    fn monte_carlo_matches_counting_bound_direction() {
        // The analytic lower bound must indeed lie below the Monte-Carlo estimate.
        let est = PercolationEstimator::new(7);
        let mut rng = StdRng::seed_from_u64(99);
        let p = 0.1;
        let mc = est.estimate_disjoint_crossings_probability(p, Axis::LeftRight, 1, 400, &mut rng);
        let bound = crossing_probability_lower_bound(7, p);
        assert!(
            mc.mean + mc.ci95_half_width() >= bound,
            "mc={} bound={bound}",
            mc.mean
        );
    }
}
