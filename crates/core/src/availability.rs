//! Crash probability `F_p(Q)` (Definition 3.10).
//!
//! Assuming each server crashes independently with probability `p`, `F_p(Q)` is the
//! probability that *every* quorum contains at least one crashed server — the system
//! is unavailable. Two engines are provided:
//!
//! * [`exact_crash_probability`] — exact enumeration of all `2^n` crash
//!   configurations into the integer availability profile
//!   ([`crate::eval::AvailabilityProfile`]) on the shared engine
//!   ([`crate::eval::Evaluator`]): raw `u64` masks, zero allocation per
//!   configuration, large mask ranges fanned out across threads;
//! * `availability_profile_naive` — the same profile filled by the
//!   simplest possible loop (one fresh [`ServerSet`] and one `is_available`
//!   call per configuration), kept as the reference the engine is validated
//!   (and its speedup measured) against;
//! * [`crate::eval::Evaluator::monte_carlo`] — an unbiased estimator with a
//!   binomial confidence interval ([`CrashEstimate`]), usable for any
//!   [`QuorumSystem`], including the large structured constructions, over
//!   per-block RNG streams that make it a function of the seed alone.
//!
//! The paper also cares about the *asymptotic* behaviour of `F_p`: a family of
//! systems is **Condorcet** if `F_p → 0` as `n → ∞` for every `p < 1/2`.
//! [`CrashEstimate`] carries the statistical context needed for such comparisons.

use rand::Rng;

use crate::bitset::ServerSet;
use crate::error::QuorumError;
use crate::eval::{AvailabilityProfile, Evaluator};
use crate::quorum::QuorumSystem;

/// Largest universe size accepted by the exact enumerator (`2^25` configurations).
pub const EXACT_ENUMERATION_LIMIT: usize = crate::eval::DEFAULT_EXACT_LIMIT;

/// A Monte-Carlo estimate of a probability, with sampling error.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashEstimate {
    /// Point estimate.
    pub mean: f64,
    /// Standard error (binomial).
    pub std_error: f64,
    /// Number of trials behind the estimate.
    pub trials: usize,
}

impl CrashEstimate {
    /// Half-width of the 95% normal-approximation confidence interval.
    ///
    /// Degenerates to zero when no (or every) trial failed; use
    /// [`CrashEstimate::wilson_ci95`] for bounds that stay meaningful at the
    /// extremes.
    #[must_use]
    pub fn ci95_half_width(&self) -> f64 {
        1.96 * self.std_error
    }

    /// The 95% Wilson score interval `(lower, upper)` for the estimated
    /// probability. Unlike the normal approximation, it does not collapse at
    /// zero observed failures: with `0` of `n` trials failing the upper bound
    /// is `z²/(n + z²) ≈ 3.84/n` (the classical "rule of three" up to the
    /// choice of `z`), which is what a sweep should report instead of a
    /// degenerate `0 ± 0`.
    #[must_use]
    pub fn wilson_ci95(&self) -> (f64, f64) {
        wilson_score_interval(self.mean, self.trials)
    }

    /// Whether `value` lies within the 95% Wilson confidence interval.
    ///
    /// (Formerly used the normal approximation, under which an estimate with
    /// zero observed failures was "inconsistent" with every positive value —
    /// exactly the regime where rare-event sweeps need the opposite verdict.)
    #[must_use]
    pub fn is_consistent_with(&self, value: f64) -> bool {
        let (lower, upper) = self.wilson_ci95();
        value >= lower - 1e-12 && value <= upper + 1e-12
    }
}

/// The 95% Wilson score interval for a binomial proportion observed as
/// `mean` over `trials` trials (`z = 1.96`).
#[must_use]
pub fn wilson_score_interval(mean: f64, trials: usize) -> (f64, f64) {
    let n = trials.max(1) as f64;
    let p = mean.clamp(0.0, 1.0);
    let z = 1.96f64;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = (p + z2 / (2.0 * n)) / denom;
    let half = z / denom * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
    // Snap the boundary cases exactly: at p = 0 (resp. 1) center and half are
    // equal up to rounding, and the bound must not leak a ±1e-19 residue.
    let lower = if p == 0.0 {
        0.0
    } else {
        (center - half).max(0.0)
    };
    let upper = if p == 1.0 {
        1.0
    } else {
        (center + half).min(1.0)
    };
    (lower, upper)
}

/// Exact crash probability by enumerating every crash configuration.
///
/// Runs on the shared evaluation engine: allocation-free mask iteration into
/// the integer availability profile, parallel across all cores once the mask
/// space exceeds [`crate::eval::PARALLEL_MASK_THRESHOLD`], and the same bits
/// at any thread count. Closed forms are deliberately *not* consulted — this
/// function is the ground truth they are tested against; use
/// [`crate::eval::Evaluator::crash_probability`] for dispatching evaluation.
///
/// # Errors
///
/// Returns [`QuorumError::UniverseTooLarge`] when the universe exceeds
/// [`EXACT_ENUMERATION_LIMIT`] servers.
pub fn exact_crash_probability<Q: QuorumSystem + ?Sized>(
    system: &Q,
    p: f64,
) -> Result<f64, QuorumError> {
    Evaluator::new().exact(system, p)
}

/// The reference availability profile: single-threaded, one fresh heap
/// [`ServerSet`] and one [`QuorumSystem::is_available`] call per crash
/// configuration — no word-level path, no lanes, no count kernel. The tests
/// compare the engine's profile against it as integer vectors and
/// `bench_fp` measures the engine's speedup over it.
///
/// # Errors
///
/// Returns [`QuorumError::UniverseTooLarge`] when the universe exceeds
/// [`EXACT_ENUMERATION_LIMIT`] servers.
#[doc(hidden)]
pub fn availability_profile_naive<Q: QuorumSystem + ?Sized>(
    system: &Q,
) -> Result<AvailabilityProfile, QuorumError> {
    let n = system.universe_size();
    if n > EXACT_ENUMERATION_LIMIT {
        return Err(QuorumError::UniverseTooLarge {
            universe_size: n,
            limit: EXACT_ENUMERATION_LIMIT,
        });
    }
    let mut unavailable_by_alive = vec![0u64; n + 1];
    for mask in 0u64..(1u64 << n) {
        let alive = ServerSet::from_indices(n, (0..n).filter(|&i| mask & (1 << i) != 0));
        if !system.is_available(&alive) {
            unavailable_by_alive[alive.len()] += 1;
        }
    }
    Ok(AvailabilityProfile::from_counts(unavailable_by_alive))
}

/// Samples a single alive-set with independent crash probability `p` — the failure
/// model of Definition 3.10 — for callers that drive their own experiments.
pub fn sample_alive_set<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> ServerSet {
    let mut alive = ServerSet::new(n);
    for i in 0..n {
        if rng.gen::<f64>() >= p {
            alive.insert(i);
        }
    }
    alive
}

/// The exact crash probability of an `ℓ-of-k` threshold system:
/// the system fails iff at least `k − ℓ + 1` of the `k` servers crash.
/// This closed form (a binomial tail) is used by the RT recurrence of
/// Proposition 5.6/5.7 and by boostFPP's threshold component.
#[must_use]
pub fn threshold_crash_probability(k: usize, l: usize, p: f64) -> f64 {
    assert!(l <= k && l > 0, "threshold requires 0 < l <= k");
    bqs_combinatorics::binomial::binomial_tail(k as u64, (k - l + 1) as u64, p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quorum::ExplicitQuorumSystem;
    use bqs_combinatorics::subsets::KSubsets;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn k_of_n_system(n: usize, k: usize) -> ExplicitQuorumSystem {
        let quorums: Vec<ServerSet> = KSubsets::new(n, k)
            .map(|s| ServerSet::from_indices(n, s))
            .collect();
        ExplicitQuorumSystem::new(n, quorums).unwrap()
    }

    #[test]
    fn exact_matches_threshold_closed_form() {
        for (n, k) in [(4usize, 3usize), (5, 3), (5, 4), (7, 5)] {
            let sys = k_of_n_system(n, k);
            for &p in &[0.0, 0.1, 0.25, 0.5, 0.9, 1.0] {
                let exact = exact_crash_probability(&sys, p).unwrap();
                let closed = threshold_crash_probability(n, k, p);
                assert!(
                    (exact - closed).abs() < 1e-9,
                    "n={n} k={k} p={p}: {exact} vs {closed}"
                );
            }
        }
    }

    #[test]
    fn exact_extremes() {
        let sys = k_of_n_system(5, 3);
        assert_eq!(exact_crash_probability(&sys, 0.0).unwrap(), 0.0);
        assert_eq!(exact_crash_probability(&sys, 1.0).unwrap(), 1.0);
    }

    #[test]
    fn exact_monotone_in_p() {
        let sys = k_of_n_system(6, 4);
        let mut prev = 0.0;
        for i in 0..=10 {
            let p = i as f64 / 10.0;
            let fp = exact_crash_probability(&sys, p).unwrap();
            assert!(fp >= prev - 1e-12, "p={p}");
            prev = fp;
        }
    }

    #[test]
    fn universe_limit_enforced() {
        let quorums = vec![ServerSet::full(30)];
        let sys = ExplicitQuorumSystem::new(30, quorums).unwrap();
        assert!(matches!(
            exact_crash_probability(&sys, 0.1),
            Err(QuorumError::UniverseTooLarge { .. })
        ));
    }

    #[test]
    fn zero_hit_estimate_reports_rule_of_three_upper_bound() {
        // 0 failures in 2000 trials: the point estimate is 0, but the Wilson
        // upper bound ~ 3.84/2000 stays informative and the estimate is
        // consistent with small positive truths (the boostFPP p = 0.05 case
        // that used to be reported as a bare `0e0`).
        let est = CrashEstimate {
            mean: 0.0,
            std_error: 0.0,
            trials: 2000,
        };
        let (lower, upper) = est.wilson_ci95();
        assert_eq!(lower, 0.0);
        assert!((upper - 1.96f64.powi(2) / (2000.0 + 1.96f64.powi(2))).abs() < 1e-12);
        assert!(
            upper > 1.0 / 2000.0 && upper < 3.0 / 1000.0,
            "upper={upper}"
        );
        assert!(est.is_consistent_with(1e-4));
        assert!(!est.is_consistent_with(0.01));
        // All-failures mirror image.
        let all = CrashEstimate {
            mean: 1.0,
            std_error: 0.0,
            trials: 2000,
        };
        let (lo, hi) = all.wilson_ci95();
        assert_eq!(hi, 1.0);
        assert!(lo < 1.0 && lo > 0.99);
    }

    #[test]
    fn wilson_interval_tracks_normal_approximation_mid_range() {
        let est = CrashEstimate {
            mean: 0.5,
            std_error: (0.25f64 / 1000.0).sqrt(),
            trials: 1000,
        };
        let (lower, upper) = est.wilson_ci95();
        assert!((lower - (0.5 - est.ci95_half_width())).abs() < 2e-3);
        assert!((upper - (0.5 + est.ci95_half_width())).abs() < 2e-3);
    }

    #[test]
    fn sample_alive_set_respects_probability() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut total = 0usize;
        for _ in 0..200 {
            total += sample_alive_set(50, 0.2, &mut rng).len();
        }
        let mean_alive = total as f64 / 200.0;
        assert!((mean_alive - 40.0).abs() < 2.0, "mean alive = {mean_alive}");
    }

    #[test]
    fn singleton_system_crash_probability_is_p() {
        // One quorum {0}: system fails iff server 0 crashes.
        let sys = ExplicitQuorumSystem::from_indices(1, [vec![0usize]]).unwrap();
        for &p in &[0.0, 0.2, 0.7, 1.0] {
            assert!((exact_crash_probability(&sys, p).unwrap() - p).abs() < 1e-12);
        }
    }
}
