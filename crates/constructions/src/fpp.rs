//! The finite-projective-plane (FPP) quorum system (Section 6 of the paper).
//!
//! The lines of a projective plane of order `q` form a regular quorum system over
//! `n = q² + q + 1` servers: every line has `q + 1` points and any two lines meet in
//! exactly one point (so `IS = 1` — it masks no Byzantine failures on its own). Its
//! load `(q+1)/n ≈ 1/√n` is optimal for regular quorum systems [NW98], which is why
//! the paper boosts it: composing FPP over a masking threshold (boostFPP) inherits
//! the optimal load while acquiring the threshold's masking ability.
//!
//! The FPP's availability is poor — `MT = q + 1` and in fact `F_p(FPP) → 1` as
//! `n → ∞` [RST92, Woo96] — which is also inherited, and is why boostFPP needs
//! `p < 1/4`.
//!
//! For planes up to order `q = 5` the crash probability is computed
//! **exactly** from the plane's line-free survivor profile
//! ([`FppSystem::crash_probability_exact`]) — the outer factor of boostFPP's
//! exact evaluation via Theorem 4.7. The profile comes from a counting
//! interface DP ([`ProjectivePlane::line_free_profile`]), so `q = 5`
//! (31 points, far past the `2^n` enumeration wall) is exact too; `q = 7`'s
//! interface was measured to exceed the DP's state budget and declines.

use std::sync::OnceLock;

use rand::RngCore;

use bqs_combinatorics::projective::ProjectivePlane;
use bqs_core::bitset::ServerSet;
use bqs_core::error::QuorumError;
use bqs_core::eval::AvailabilityProfile;
use bqs_core::oracle::MinWeightQuorumOracle;
use bqs_core::quorum::{ExplicitQuorumSystem, QuorumSystem};

use crate::AnalyzedConstruction;

/// The quorum system whose quorums are the lines of PG(2, q).
#[derive(Debug, Clone)]
pub struct FppSystem {
    plane: ProjectivePlane,
    lines: Vec<ServerSet>,
    /// Lazily-computed line-free profile of the plane (`None` inside means the
    /// plane is too large for the one-time enumeration); shared by every
    /// closed-form evaluation so sweeps pay the `2^n` cost at most once.
    line_free_profile: OnceLock<Option<AvailabilityProfile>>,
}

impl FppSystem {
    /// Builds the FPP quorum system of order `q` (a prime power).
    ///
    /// # Errors
    ///
    /// Returns [`QuorumError::InvalidParameters`] when `q` is not a prime power.
    pub fn new(q: u64) -> Result<Self, QuorumError> {
        let plane = ProjectivePlane::new(q).map_err(|e| {
            QuorumError::InvalidParameters(format!("cannot build FPP of order {q}: {e}"))
        })?;
        let n = plane.num_points();
        let lines = plane
            .lines()
            .map(|l| ServerSet::from_indices(n, l.iter().copied()))
            .collect();
        Ok(FppSystem {
            plane,
            lines,
            line_free_profile: OnceLock::new(),
        })
    }

    /// Exact crash probability of the FPP: the system is unavailable iff the
    /// surviving point set contains no complete line, so with `N_m` the number
    /// of line-free `m`-subsets ([`ProjectivePlane::line_free_profile`]),
    ///
    /// `F_p(FPP) = Σ_m N_m (1 − p)^m p^{n − m}`
    ///
    /// — the plane's [`AvailabilityProfile`], evaluated by the same pass the
    /// enumeration engine uses.
    ///
    /// Returns `None` for planes whose one-time profile computation is gated
    /// out (`q ≥ 7`, the measured interface wall of the counting DP); the
    /// profile is cached, so sweeps over many `p` values pay the one-time
    /// counting sweep at most once per system.
    #[must_use]
    pub fn crash_probability_exact(&self, p: f64) -> Option<f64> {
        let profile = self.line_free_profile.get_or_init(|| {
            self.plane
                .line_free_profile()
                .map(AvailabilityProfile::from_counts)
        });
        Some(profile.as_ref()?.crash_probability(p))
    }

    /// The plane order `q`.
    #[must_use]
    pub fn order(&self) -> u64 {
        self.plane.order()
    }

    /// The underlying projective plane.
    #[must_use]
    pub fn plane(&self) -> &ProjectivePlane {
        &self.plane
    }

    /// The lines (quorums) as server sets.
    #[must_use]
    pub fn lines(&self) -> &[ServerSet] {
        &self.lines
    }

    /// Converts to an explicit quorum system (always feasible: `q² + q + 1` quorums).
    ///
    /// # Errors
    ///
    /// Never fails for a validly constructed plane; the `Result` mirrors the other
    /// constructions' `to_explicit` signatures.
    pub fn to_explicit(&self) -> Result<ExplicitQuorumSystem, QuorumError> {
        Ok(
            ExplicitQuorumSystem::new(self.universe_size(), self.lines.clone())?
                .with_name(self.name()),
        )
    }

    /// The simple union-bound estimate (6) from the proof of Proposition 6.3:
    /// `F_p(FPP) ≤ 1 − (1−p)^{q+1} ≤ (q+1) p` — the probability that one fixed line
    /// survives, used as the outer factor of the boostFPP bound.
    #[must_use]
    pub fn single_line_survival_bound(&self, p: f64) -> f64 {
        let q = self.plane.order() as f64;
        (1.0 - (1.0 - p).powf(q + 1.0)).min((q + 1.0) * p).min(1.0)
    }
}

impl QuorumSystem for FppSystem {
    fn universe_size(&self) -> usize {
        self.plane.num_points()
    }

    fn name(&self) -> String {
        format!("FPP(q={})", self.plane.order())
    }

    fn sample_quorum(&self, rng: &mut dyn RngCore) -> ServerSet {
        let idx = rand::seq::index::sample(rng, self.lines.len(), 1).index(0);
        self.lines[idx].clone()
    }

    fn find_live_quorum(&self, alive: &ServerSet) -> Option<ServerSet> {
        self.lines.iter().find(|l| l.is_subset_of(alive)).cloned()
    }

    fn crash_probability_closed_form(&self, p: f64) -> Option<f64> {
        self.crash_probability_exact(p)
    }

    fn min_quorum_size(&self) -> usize {
        self.plane.order() as usize + 1
    }
}

impl MinWeightQuorumOracle for FppSystem {
    /// Exact pricing by scanning the `q² + q + 1` lines — the quorum list of
    /// an FPP is polynomial in `n`, so the scan *is* the structure-aware
    /// oracle (`O(n·(q+1))` per call).
    fn min_weight_quorum(&self, prices: &[f64]) -> Option<(ServerSet, f64)> {
        assert_eq!(
            prices.len(),
            self.universe_size(),
            "one price per server required"
        );
        self.lines
            .iter()
            .map(|l| (l, l.iter().map(|u| prices[u]).sum::<f64>()))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(l, v)| (l.clone(), v))
    }

    /// The uniform mixture over all lines: every point lies on exactly
    /// `q + 1` of the `q² + q + 1` lines, so it equalises loads at
    /// `(q+1)/n` — the regular-system optimum of [NW98].
    fn symmetric_strategy_hint(&self) -> Option<(Vec<ServerSet>, Vec<f64>)> {
        Some((self.lines.clone(), vec![1.0; self.lines.len()]))
    }
}

impl AnalyzedConstruction for FppSystem {
    fn masking_b(&self) -> usize {
        0 // IS = 1: a regular quorum system
    }

    fn resilience(&self) -> usize {
        // MT(FPP) = q + 1 (the smallest transversals are the lines themselves).
        self.plane.order() as usize
    }

    fn analytic_load(&self) -> f64 {
        // Fair system: L = (q+1) / (q^2+q+1) ~ 1/sqrt(n), optimal for regular systems.
        (self.plane.order() as f64 + 1.0) / self.universe_size() as f64
    }

    fn crash_probability_upper_bound(&self, _p: f64) -> Option<f64> {
        None // Fp(FPP) -> 1; only lower bounds are meaningful
    }

    fn crash_probability_lower_bound(&self, p: f64) -> Option<f64> {
        // Proposition 4.3 with MT = q + 1.
        Some(p.clamp(0.0, 1.0).powi(self.plane.order() as i32 + 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bqs_core::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fano_system() {
        let fpp = FppSystem::new(2).unwrap();
        assert_eq!(fpp.universe_size(), 7);
        assert_eq!(fpp.min_quorum_size(), 3);
        assert_eq!(fpp.lines().len(), 7);
        assert_eq!(fpp.masking_b(), 0);
    }

    #[test]
    fn invalid_order_rejected() {
        assert!(FppSystem::new(6).is_err());
        assert!(FppSystem::new(0).is_err());
    }

    #[test]
    fn explicit_measures_match_theory() {
        let fpp = FppSystem::new(3).unwrap();
        let e = fpp.to_explicit().unwrap();
        assert_eq!(e.universe_size(), 13);
        assert_eq!(min_quorum_size(e.quorums()), 4);
        assert_eq!(min_intersection_size(e.quorums()), 1);
        // The minimal transversals of an FPP are its lines: MT = q + 1.
        assert_eq!(min_transversal_size(e.quorums(), 13), 4);
        assert_eq!(masking_level(e.quorums(), 13), Some(0));
        // Fair: the LP load equals (q+1)/n.
        let (load, _) = optimal_load(e.quorums(), 13).unwrap();
        assert!((load - fpp.analytic_load()).abs() < 1e-6);
        assert!((load - 4.0 / 13.0).abs() < 1e-6);
    }

    #[test]
    fn load_is_near_one_over_sqrt_n() {
        for q in [2u64, 3, 4, 5, 7, 8, 9] {
            let fpp = FppSystem::new(q).unwrap();
            let n = fpp.universe_size() as f64;
            // (q+1)/(q^2+q+1) -> 1/sqrt(n); the ratio approaches 1 as q grows.
            let ratio = fpp.analytic_load() * n.sqrt();
            assert!(ratio > 0.95 && ratio < 1.2, "q={q} ratio={ratio}");
        }
    }

    #[test]
    fn availability_requires_a_full_line() {
        let fpp = FppSystem::new(2).unwrap();
        assert!(fpp.is_available(&ServerSet::full(7)));
        // Remove one point from every line: take a line's complement... simpler,
        // kill 5 of 7 points; no 3-point line can survive within 2 points.
        let alive = ServerSet::from_indices(7, [0, 1]);
        assert!(!fpp.is_available(&alive));
        // A single crash leaves many full lines.
        let mut alive2 = ServerSet::full(7);
        alive2.remove(3);
        let q = fpp.find_live_quorum(&alive2).unwrap();
        assert!(q.is_subset_of(&alive2));
    }

    #[test]
    fn sampling_returns_lines() {
        let fpp = FppSystem::new(3).unwrap();
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..20 {
            let q = fpp.sample_quorum(&mut rng);
            assert!(fpp.lines().contains(&q));
        }
    }

    #[test]
    fn exact_closed_form_matches_enumeration() {
        // The survivor-profile closed form must track full 2^n enumeration to
        // 1e-12 on every plane small enough to enumerate.
        for q in [2u64, 3] {
            let fpp = FppSystem::new(q).unwrap();
            for &p in &[0.0, 0.05, 0.125, 0.3, 0.5, 0.8, 1.0] {
                let closed = fpp.crash_probability_exact(p).unwrap();
                let enumerated = exact_crash_probability(&fpp, p).unwrap();
                assert!(
                    (closed - enumerated).abs() < 1e-12,
                    "q={q} p={p}: closed {closed} vs enumerated {enumerated}"
                );
            }
        }
    }

    #[test]
    fn exact_closed_form_reaches_order_five() {
        // q = 5 has 31 points — far past the 2^n enumeration wall — but the
        // counting profile makes its closed form exact. Pin it against the
        // Monte-Carlo estimator and the analytic envelope.
        let fpp = FppSystem::new(5).unwrap();
        let exact = fpp.crash_probability_exact(0.1).unwrap();
        assert!((0.0..=1.0).contains(&exact));
        assert_eq!(
            fpp.crash_probability_closed_form(0.1).unwrap().to_bits(),
            exact.to_bits()
        );
        // Proposition 4.3 lower bound with MT = q + 1.
        assert!(exact >= fpp.crash_probability_lower_bound(0.1).unwrap() - 1e-12);
        let est = Evaluator::new()
            .with_seed(7)
            .monte_carlo_with(&fpp, 0.1, 40_000);
        assert!(
            (est.mean - exact).abs() <= 4.0 * est.ci95_half_width() + 1e-9,
            "exact {exact} vs MC {} ± {}",
            est.mean,
            est.ci95_half_width()
        );
        // F_p is monotone in p and the profile evaluation respects the edges.
        assert_eq!(fpp.crash_probability_exact(0.0).unwrap(), 0.0);
        assert_eq!(fpp.crash_probability_exact(1.0).unwrap(), 1.0);
        assert!(fpp.crash_probability_exact(0.3).unwrap() > exact);
    }

    #[test]
    fn exact_closed_form_gated_for_large_planes() {
        // q = 7 fits the counting DP's 64-line mask but its interface was
        // measured past the state budget: the closed form declines (fast) and
        // the engine falls back to its usual dispatch.
        let fpp = FppSystem::new(7).unwrap();
        assert!(fpp.crash_probability_exact(0.1).is_none());
        assert!(fpp.crash_probability_closed_form(0.1).is_none());
    }

    #[test]
    fn pricing_oracle_picks_the_cheapest_line() {
        let fpp = FppSystem::new(3).unwrap();
        let prices: Vec<f64> = (0..13).map(|i| ((i * 19 + 3) % 29) as f64 / 29.0).collect();
        let (q, v) = fpp.min_weight_quorum(&prices).unwrap();
        assert!(fpp.lines().contains(&q));
        let best: f64 = fpp
            .lines()
            .iter()
            .map(|l| l.iter().map(|u| prices[u]).sum::<f64>())
            .fold(f64::INFINITY, f64::min);
        assert!((v - best).abs() < 1e-12);
        // Certified load equals the fair closed form (q+1)/n.
        let certified = optimal_load_oracle(&fpp).unwrap();
        assert!((certified.load - fpp.analytic_load()).abs() <= 1e-9);
        assert!(certified.gap <= 1e-9);
    }

    #[test]
    fn survival_bound_behaviour() {
        let fpp = FppSystem::new(3).unwrap();
        assert_eq!(fpp.single_line_survival_bound(0.0), 0.0);
        assert!(fpp.single_line_survival_bound(0.05) <= 0.2 + 1e-12);
        assert!(fpp.single_line_survival_bound(0.9) > 0.999);
        assert!(fpp.single_line_survival_bound(0.9) <= 1.0);
    }
}
