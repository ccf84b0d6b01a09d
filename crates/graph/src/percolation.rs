//! Site percolation on the triangulated grid.
//!
//! Appendix B of the paper analyses M-Path availability via site percolation on the
//! triangular lattice (critical probability `p_c = 1/2` \[Kes80\]): when each vertex is
//! independently *closed* (crashed) with probability `p < 1/2`, long open crossings
//! exist with probability `1 − e^{−ψ(p)√n}` (Theorem B.1), and `r+1` disjoint
//! crossings exist with essentially the same behaviour (Theorem B.3).
//!
//! This module provides the Monte-Carlo estimators that reproduce those statements
//! numerically: the probability of an open left-right crossing, the probability of
//! `k` vertex-disjoint open crossings, and the crash probability of the M-Path quorum
//! system (no quorum alive ⇔ fewer than `√(2b+1)` disjoint open crossings in at least
//! one of the two directions).
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

    /// Whether `k` vertex-disjoint open (all-alive) crossings along `axis` exist.
    fn has_disjoint_crossings(
        &self,
        alive: &[bool],
        axis: Axis,
        k: usize,
        scratch: &mut CrossingScratch,
    ) -> bool {
        let blocking = axis.perpendicular();
        min_crossing_cost_capped(self.grid.side(), |v| alive[v], blocking, k, scratch) >= k
    }

    /// Returns true if an open (all-alive) crossing along `axis` exists.
    #[must_use]
    pub fn has_open_crossing(&self, alive: &[bool], axis: Axis) -> bool {
        self.has_disjoint_crossings(alive, axis, 1, &mut CrossingScratch::default())
    }

    /// Estimates `P[an open crossing along `axis` exists]` when each vertex crashes
    /// independently with probability `p` (Theorem B.1 quantity).
    pub fn estimate_crossing_probability<R: Rng + ?Sized>(
        &self,
        p: f64,
        axis: Axis,
        trials: usize,
        rng: &mut R,
    ) -> Estimate {
        self.estimate_disjoint_crossings_probability(p, axis, 1, trials, rng)
    }

    /// Estimates `P[at least k vertex-disjoint open crossings along `axis` exist]`
    /// (the `I_{k-1}(LR)` event of Theorem B.3).
    pub fn estimate_disjoint_crossings_probability<R: Rng + ?Sized>(
        &self,
        p: f64,
        axis: Axis,
        k: usize,
        trials: usize,
        rng: &mut R,
    ) -> Estimate {
        assert!(trials > 0, "at least one trial required");
        let mut scratch = CrossingScratch::default();
        let mut successes = 0usize;
        for _ in 0..trials {
            let alive = self.sample_alive(p, rng);
            if self.has_disjoint_crossings(&alive, axis, k, &mut scratch) {
                successes += 1;
            }
        }
        Estimate::from_successes(successes, trials)
    }

    /// Estimates the M-Path crash probability: the probability that the grid does
    /// *not* contain `k` disjoint open LR crossings and `k` disjoint open TB
    /// crossings simultaneously (i.e. no M-Path quorum of `k + k` paths survives).
    pub fn estimate_mpath_crash_probability<R: Rng + ?Sized>(
        &self,
        p: f64,
        k: usize,
        trials: usize,
        rng: &mut R,
    ) -> Estimate {
        assert!(trials > 0, "at least one trial required");
        let mut scratch = CrossingScratch::default();
        let mut failures = 0usize;
        for _ in 0..trials {
            let alive = self.sample_alive(p, rng);
            if !(self.has_disjoint_crossings(&alive, Axis::LeftRight, k, &mut scratch)
                && self.has_disjoint_crossings(&alive, Axis::TopBottom, k, &mut scratch))
            {
                failures += 1;
            }
        }
        Estimate::from_successes(failures, trials)
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
    fn no_failures_always_crosses() {
        let est = PercolationEstimator::new(6);
        let alive = vec![true; 36];
        assert!(est.has_open_crossing(&alive, Axis::LeftRight));
        assert!(est.has_open_crossing(&alive, Axis::TopBottom));
    }

    #[test]
    fn all_failed_never_crosses() {
        let est = PercolationEstimator::new(4);
        let alive = vec![false; 16];
        assert!(!est.has_open_crossing(&alive, Axis::LeftRight));
        assert!(!est.has_open_crossing(&alive, Axis::TopBottom));
    }

    #[test]
    fn crossing_probability_extremes() {
        let est = PercolationEstimator::new(5);
        let mut rng = StdRng::seed_from_u64(7);
        let p0 = est.estimate_crossing_probability(0.0, Axis::LeftRight, 50, &mut rng);
        assert_eq!(p0.mean, 1.0);
        let p1 = est.estimate_crossing_probability(1.0, Axis::LeftRight, 50, &mut rng);
        assert_eq!(p1.mean, 0.0);
    }

    #[test]
    fn crossing_probability_decreases_in_p() {
        let est = PercolationEstimator::new(8);
        let mut rng = StdRng::seed_from_u64(42);
        let lo = est.estimate_crossing_probability(0.1, Axis::LeftRight, 400, &mut rng);
        let hi = est.estimate_crossing_probability(0.7, Axis::LeftRight, 400, &mut rng);
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
    fn mpath_crash_probability_low_when_p_small() {
        let est = PercolationEstimator::new(8);
        let mut rng = StdRng::seed_from_u64(11);
        let fp = est.estimate_mpath_crash_probability(0.05, 2, 300, &mut rng);
        assert!(fp.mean < 0.2, "Fp={}", fp.mean);
        let fp_high = est.estimate_mpath_crash_probability(0.6, 2, 300, &mut rng);
        assert!(fp_high.mean > 0.8, "Fp={}", fp_high.mean);
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
        let mc = est.estimate_crossing_probability(p, Axis::LeftRight, 400, &mut rng);
        let bound = crossing_probability_lower_bound(7, p);
        assert!(
            mc.mean + mc.ci95_half_width() >= bound,
            "mc={} bound={bound}",
            mc.mean
        );
    }
}
