//! Percolation-threshold estimation for the M-Path availability argument.
//!
//! Proposition 7.3 rests on the fact that site percolation on the triangular lattice
//! has critical probability `p_c = 1/2` \[Kes80\]: below it, left-right crossings of a
//! `√n × √n` patch exist with probability `1 − e^{−ψ(p)√n}` (Theorem B.1). This
//! module estimates the finite-size crossing curve and locates its inflection —
//! reproducing, numerically, the `p_c = 1/2` input the paper takes from the
//! percolation literature — and measures the exponential decay rate `ψ(p)` of the
//! non-crossing probability.

use rand::rngs::StdRng;
use rand::SeedableRng;

use bqs_graph::crossing_dp::{crossing_probability, DEFAULT_DP_STATE_BUDGET};
use bqs_graph::grid::Axis;
use bqs_graph::percolation::PercolationEstimator;

/// Largest grid side for which [`exact_crossing_curve`] runs the
/// transfer-matrix DP (the `k = 1` sweep of [`bqs_graph::crossing_dp`]);
/// side 7 already takes tens of seconds.
pub const EXACT_CURVE_MAX_SIDE: usize = 6;

/// One point of the crossing-probability curve.
#[derive(Debug, Clone, Copy)]
pub struct CrossingPoint {
    /// Per-site crash (closed) probability.
    pub p: f64,
    /// Estimated probability that an open left-right crossing exists.
    pub crossing_probability: f64,
    /// 95% confidence half-width (zero for exact points).
    pub ci95: f64,
}

/// Estimates the crossing-probability curve for a `side × side` triangulated grid.
#[must_use]
pub fn crossing_curve(side: usize, ps: &[f64], trials: usize, seed: u64) -> Vec<CrossingPoint> {
    let est = PercolationEstimator::new(side);
    let mut rng = StdRng::seed_from_u64(seed);
    ps.iter()
        .map(|&p| {
            let e = est.estimate_crossing_probability(p, Axis::LeftRight, trials.max(1), &mut rng);
            CrossingPoint {
                p,
                crossing_probability: e.mean,
                ci95: e.ci95_half_width(),
            }
        })
        .collect()
}

/// The **exact** crossing-probability curve by the transfer-matrix DP, one
/// sweep for the whole `p`-grid — no sampling error, so finite-size effects
/// around `p_c = 1/2` are visible without Monte-Carlo noise. Returns `None`
/// when `side >` [`EXACT_CURVE_MAX_SIDE`] (use [`crossing_curve`] there).
#[must_use]
pub fn exact_crossing_curve(side: usize, ps: &[f64]) -> Option<Vec<CrossingPoint>> {
    if side > EXACT_CURVE_MAX_SIDE {
        return None;
    }
    let curve = crossing_probability(side, ps, DEFAULT_DP_STATE_BUDGET)?;
    Some(
        ps.iter()
            .zip(curve)
            .map(|(&p, crossing_probability)| CrossingPoint {
                p,
                crossing_probability,
                ci95: 0.0,
            })
            .collect(),
    )
}

/// Estimates the critical probability as the `p` at which the crossing probability
/// drops through 1/2 (the standard finite-size estimator). The returned value
/// converges to the true `p_c = 1/2` of the triangular lattice as `side` grows.
#[must_use]
pub fn estimate_critical_probability(side: usize, trials: usize, seed: u64) -> f64 {
    // Bisection on the (monotone, noisy) crossing curve.
    let est = PercolationEstimator::new(side);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut lo = 0.05;
    let mut hi = 0.95;
    for _ in 0..12 {
        let mid = 0.5 * (lo + hi);
        let e = est.estimate_crossing_probability(mid, Axis::LeftRight, trials.max(1), &mut rng);
        if e.mean > 0.5 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Estimates the decay rate `ψ(p)` of Theorem B.1 by measuring the non-crossing
/// probability at two grid sizes and fitting `P[no crossing] ≈ e^{−ψ √n}`.
/// Returns `None` when either measurement had no failures (decay too fast to
/// estimate at this trial budget — itself evidence of large `ψ`).
#[must_use]
pub fn estimate_decay_rate(
    small_side: usize,
    large_side: usize,
    p: f64,
    trials: usize,
    seed: u64,
) -> Option<f64> {
    assert!(small_side < large_side, "sides must increase");
    let mut rng = StdRng::seed_from_u64(seed);
    let small = PercolationEstimator::new(small_side);
    let large = PercolationEstimator::new(large_side);
    let f_small = 1.0
        - small
            .estimate_crossing_probability(p, Axis::LeftRight, trials.max(1), &mut rng)
            .mean;
    let f_large = 1.0
        - large
            .estimate_crossing_probability(p, Axis::LeftRight, trials.max(1), &mut rng)
            .mean;
    if f_small <= 0.0 || f_large <= 0.0 {
        return None;
    }
    // f(side) = exp(-psi * side)  =>  psi = (ln f_small - ln f_large) / (large - small)
    Some((f_small.ln() - f_large.ln()) / (large_side as f64 - small_side as f64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crossing_curve_is_monotone_decreasing() {
        let ps = [0.1, 0.3, 0.5, 0.7, 0.9];
        let curve = crossing_curve(10, &ps, 300, 3);
        for w in curve.windows(2) {
            assert!(
                w[0].crossing_probability + 0.12 >= w[1].crossing_probability,
                "{:?}",
                w
            );
        }
        assert!(curve[0].crossing_probability > 0.95);
        assert!(curve[4].crossing_probability < 0.05);
    }

    #[test]
    fn exact_curve_brackets_monte_carlo_and_passes_through_half() {
        let ps = [0.2, 0.5, 0.75];
        let exact = exact_crossing_curve(5, &ps).expect("side within the DP gate");
        let mc = crossing_curve(5, &ps, 400, 7);
        for (e, m) in exact.iter().zip(&mc) {
            assert_eq!(e.ci95, 0.0);
            assert!(
                (e.crossing_probability - m.crossing_probability).abs() <= m.ci95 + 0.03,
                "p={}: exact {} vs mc {}",
                e.p,
                e.crossing_probability,
                m.crossing_probability
            );
        }
        // Self-duality of the triangular lattice: exactly 1/2 at p = 1/2.
        assert!((exact[1].crossing_probability - 0.5).abs() < 1e-12);
        // Past the gate the exact curve declines.
        assert!(exact_crossing_curve(12, &ps).is_none());
    }

    #[test]
    fn critical_probability_is_near_one_half() {
        // Site percolation on the triangular lattice: p_c = 1/2. Finite-size
        // estimates on moderate grids land within a few percent.
        let pc = estimate_critical_probability(16, 300, 5);
        assert!((pc - 0.5).abs() < 0.1, "pc={pc}");
    }

    #[test]
    fn decay_rate_positive_below_critical() {
        // At p = 0.35 < 1/2 the non-crossing probability decays with the side length.
        if let Some(psi) = estimate_decay_rate(6, 12, 0.35, 2000, 9) {
            assert!(psi > 0.0, "psi={psi}");
        }
        // At p far below p_c the failures may simply never occur at this budget.
        let fast = estimate_decay_rate(6, 12, 0.05, 200, 9);
        if let Some(psi) = fast {
            assert!(psi > 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "sides must increase")]
    fn decay_rate_validates_sides() {
        let _ = estimate_decay_rate(12, 6, 0.3, 10, 1);
    }
}
