//! The boostFPP construction (Section 6 of the paper).
//!
//! `boostFPP(q, b) = FPP(q) ∘ Thresh(3b+1 of 4b+1)`: a finite projective plane of
//! order `q` composed over the minimal b-masking threshold system. By Theorem 4.7 and
//! Proposition 6.1 the composed system has
//!
//! * `n = (4b+1)(q² + q + 1)` servers,
//! * quorums of size `c = (3b+1)(q+1)`,
//! * intersections of size exactly `2b + 1` (so it is b-masking),
//! * minimal transversals of size `(b+1)(q+1)` — resilience far above `b`,
//! * load `≈ 3/(4q)`, which is **optimal** for b-masking systems of this size
//!   (Proposition 6.2),
//! * crash probability `F_p ≤ (q+1) e^{−b(1−4p)²/2}` for `p < 1/4`
//!   (Proposition 6.3) — and `F_p → 1` when `p > 1/4`.
//!
//! This is the paper's "boosting" technique at work: any regular quorum system can be
//! made Byzantine-tolerant by composing it over a masking threshold; the FPP is the
//! load-optimal choice of outer system.
//!
//! Crash-probability evaluation is **exact** for `q ≤ 4` (which includes the
//! paper's Section 8 instance `boostFPP(3, 19)` at `n = 1001`): Theorem 4.7
//! gives `F_p = F_{r(p)}(FPP)` with `r(p)` the inner threshold's binomial
//! tail, and the FPP factor is evaluated through the plane's line-free
//! survivor profile — see [`BoostFppSystem::crash_probability_exact`].

use rand::RngCore;

use bqs_core::bitset::ServerSet;
use bqs_core::composition::ComposedSystem;
use bqs_core::error::QuorumError;
use bqs_core::oracle::MinWeightQuorumOracle;
use bqs_core::quorum::QuorumSystem;

use crate::fpp::FppSystem;
use crate::threshold::ThresholdSystem;
use crate::AnalyzedConstruction;

/// The boostFPP(q, b) b-masking quorum system.
#[derive(Debug, Clone)]
pub struct BoostFppSystem {
    q: u64,
    b: usize,
    composed: ComposedSystem<FppSystem, ThresholdSystem>,
}

impl BoostFppSystem {
    /// Builds boostFPP(q, b) for a prime-power plane order `q` and masking level `b`.
    ///
    /// # Errors
    ///
    /// Returns [`QuorumError::InvalidParameters`] when `q` is not a prime power.
    pub fn new(q: u64, b: usize) -> Result<Self, QuorumError> {
        let fpp = FppSystem::new(q)?;
        let thresh = ThresholdSystem::minimal_masking(b)?;
        Ok(BoostFppSystem {
            q,
            b,
            composed: ComposedSystem::new(fpp, thresh),
        })
    }

    /// The plane order `q`.
    #[must_use]
    pub fn order(&self) -> u64 {
        self.q
    }

    /// The masking parameter `b`.
    #[must_use]
    pub fn b(&self) -> usize {
        self.b
    }

    /// The outer FPP component.
    #[must_use]
    pub fn fpp(&self) -> &FppSystem {
        self.composed.outer()
    }

    /// The inner threshold component `Thresh(3b+1 of 4b+1)`.
    #[must_use]
    pub fn threshold(&self) -> &ThresholdSystem {
        self.composed.inner()
    }

    /// Minimal intersection size, exactly `2b + 1` (Proposition 6.1).
    #[must_use]
    pub fn min_intersection(&self) -> usize {
        2 * self.b + 1
    }

    /// Minimal transversal size `(b+1)(q+1)` (Proposition 6.1).
    #[must_use]
    pub fn min_transversal(&self) -> usize {
        (self.b + 1) * (self.q as usize + 1)
    }

    /// Exact crash probability via Theorem 4.7's composition law:
    /// `F_p(boostFPP) = F_{r(p)}(FPP)` with `r(p)` the exact crash probability
    /// of the inner `Thresh(3b+1 of 4b+1)` (a binomial tail) and the outer FPP
    /// evaluated through its line-free survivor profile. Exact for **any** `b`
    /// whenever the plane is small enough to profile (`q ≤ 5` via the
    /// counting-DP profile — which covers the paper's Section 8 instance
    /// `boostFPP(q=3, b=19)` at `n = 1001` and reaches `boostFPP(q=5, ·)` at
    /// 31 copies); `None` for larger plane orders (`q ≥ 7`, the measured
    /// interface wall of the counting profile).
    #[must_use]
    pub fn crash_probability_exact(&self, p: f64) -> Option<f64> {
        self.composed.crash_probability_closed_form(p)
    }

    /// The Chernoff-based upper bound of Proposition 6.3:
    /// `F_p ≤ (q+1) e^{−b(1−4p)²/2}`.
    ///
    /// Returns `None` if and only if `p ≥ 1/4`: the bound's exponent
    /// `−b(1−4p)²/2` stops decaying there, and in fact `F_p → 1` for
    /// `p > 1/4` (the inner threshold needs fewer than a quarter of each
    /// copy's servers to crash), so no sub-unit upper bound of this shape
    /// exists. Callers wanting a value at every `p` can fall back to
    /// [`BoostFppSystem::crash_probability_exact`] (exact, `q ≤ 4`) or the
    /// trivial bound `1`.
    #[must_use]
    pub fn crash_probability_prop_6_3_bound(&self, p: f64) -> Option<f64> {
        if p >= 0.25 {
            return None;
        }
        let inner = bqs_combinatorics::binomial::thresh_crash_upper_bound(self.b as u64, p);
        Some(((self.q as f64 + 1.0) * inner).min(1.0))
    }

    /// A sharper numeric bound with the same structure as Proposition 6.3's proof:
    /// plug the *exact* inner threshold crash probability `r(p)` into the FPP
    /// union-style estimate `F_p(FPP at r) ≤ 1 − (1 − r)^{q+1}`.
    #[must_use]
    pub fn crash_probability_numeric_bound(&self, p: f64) -> f64 {
        let r = self.threshold().crash_probability(p);
        1.0 - (1.0 - r).powi(self.q as i32 + 1)
    }
}

impl QuorumSystem for BoostFppSystem {
    fn universe_size(&self) -> usize {
        self.composed.universe_size()
    }

    fn name(&self) -> String {
        format!("boostFPP(q={}, b={})", self.q, self.b)
    }

    fn sample_quorum(&self, rng: &mut dyn RngCore) -> ServerSet {
        self.composed.sample_quorum(rng)
    }

    fn find_live_quorum(&self, alive: &ServerSet) -> Option<ServerSet> {
        self.composed.find_live_quorum(alive)
    }

    fn crash_probability_closed_form(&self, p: f64) -> Option<f64> {
        self.crash_probability_exact(p)
    }

    fn min_quorum_size(&self) -> usize {
        self.composed.min_quorum_size()
    }
}

impl MinWeightQuorumOracle for BoostFppSystem {
    /// Exact pricing by Theorem 4.7 composition: the inner threshold oracle
    /// prices every copy (`3b+1` cheapest servers each), and the outer FPP
    /// oracle picks the cheapest line over those per-copy optima — both
    /// polynomial, so boostFPP prices at `n ≈ 1000` in microseconds.
    fn min_weight_quorum(&self, prices: &[f64]) -> Option<(ServerSet, f64)> {
        self.composed.min_weight_quorum(prices)
    }

    /// The aligned product of the FPP line family and the inner threshold's
    /// cyclic shifts — `(q²+q+1)·(4b+1)` columns equalising loads at the
    /// Theorem 4.7 product.
    fn symmetric_strategy_hint(&self) -> Option<(Vec<ServerSet>, Vec<f64>)> {
        self.composed.symmetric_strategy_hint()
    }
}

impl AnalyzedConstruction for BoostFppSystem {
    fn masking_b(&self) -> usize {
        self.b
    }

    fn resilience(&self) -> usize {
        self.min_transversal() - 1
    }

    fn analytic_load(&self) -> f64 {
        // Theorem 4.7: loads multiply; both components are fair.
        self.fpp().analytic_load() * self.threshold().analytic_load()
    }

    fn crash_probability_upper_bound(&self, p: f64) -> Option<f64> {
        if p >= 0.25 {
            None
        } else {
            Some(self.crash_probability_numeric_bound(p))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bqs_core::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn proposition_6_1_parameters() {
        let sys = BoostFppSystem::new(3, 2).unwrap();
        // n = (4b+1)(q^2+q+1) = 9 * 13 = 117.
        assert_eq!(sys.universe_size(), 117);
        // c = (3b+1)(q+1) = 7 * 4 = 28.
        assert_eq!(sys.min_quorum_size(), 28);
        assert_eq!(sys.min_intersection(), 5);
        assert_eq!(sys.min_transversal(), 12);
        assert_eq!(sys.masking_b(), 2);
        assert_eq!(AnalyzedConstruction::resilience(&sys), 11);
    }

    #[test]
    fn proposition_6_2_load_is_roughly_three_over_four_q() {
        for (q, b) in [(3u64, 2usize), (4, 3), (5, 5), (7, 4)] {
            let sys = BoostFppSystem::new(q, b).unwrap();
            let load = sys.analytic_load();
            let target = 3.0 / (4.0 * q as f64);
            assert!(
                (load - target).abs() < 0.35 * target,
                "q={q} b={b} load={load} target={target}"
            );
            // Optimality: within a constant of the universal lower bound sqrt(2b/n).
            let lower = bqs_core::bounds::load_lower_bound_universal(sys.universe_size(), b);
            assert!(load >= lower - 1e-9);
            assert!(load <= 1.7 * lower, "q={q} b={b} load={load} lower={lower}");
        }
    }

    #[test]
    fn sampled_quorums_intersect_in_2b_plus_1() {
        let sys = BoostFppSystem::new(2, 1).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..40 {
            let q1 = sys.sample_quorum(&mut rng);
            let q2 = sys.sample_quorum(&mut rng);
            assert_eq!(q1.len(), sys.min_quorum_size());
            assert!(q1.intersection_size(&q2) > 2 * sys.b());
        }
    }

    #[test]
    fn masking_verified_on_small_explicit_instance() {
        // boostFPP(2, 1): FPP(2) over 4-of-5 threshold, n = 35. Too many quorums to
        // enumerate cheaply in full, so verify the masking property structurally on a
        // sample plus the composed-parameter formulas.
        let sys = BoostFppSystem::new(2, 1).unwrap();
        assert_eq!(sys.universe_size(), 35);
        assert_eq!(sys.min_intersection(), 3);
        assert!(sys.min_transversal() > sys.b());
    }

    #[test]
    fn availability_and_live_quorums() {
        let sys = BoostFppSystem::new(2, 1).unwrap();
        let n = sys.universe_size();
        assert!(sys.is_available(&ServerSet::full(n)));
        // Crash one server per copy (5 servers per copy, threshold 4-of-5): every
        // copy still available, so the system is.
        let mut alive = ServerSet::full(n);
        for copy in 0..7 {
            alive.remove(copy * 5);
        }
        let q = sys.find_live_quorum(&alive).unwrap();
        assert!(q.is_subset_of(&alive));
        // Crash two servers in every copy: every copy dies, so no quorum survives.
        let mut dead = ServerSet::full(n);
        for copy in 0..7 {
            dead.remove(copy * 5);
            dead.remove(copy * 5 + 1);
        }
        assert!(!sys.is_available(&dead));
    }

    #[test]
    fn exact_closed_form_matches_enumeration_on_smallest_instance() {
        // boostFPP(q=2, b=0) composes FPP(2) over the trivial 1-of-1 threshold:
        // 7 servers, fully enumerable.
        let sys = BoostFppSystem::new(2, 0).unwrap();
        assert_eq!(sys.universe_size(), 7);
        for &p in &[0.0, 0.05, 0.125, 0.3, 0.5, 0.8, 1.0] {
            let closed = sys.crash_probability_exact(p).unwrap();
            let enumerated = exact_crash_probability(&sys, p).unwrap();
            assert!(
                (closed - enumerated).abs() < 1e-12,
                "p={p}: closed {closed} vs enumerated {enumerated}"
            );
        }
    }

    #[test]
    fn exact_closed_form_consistent_with_monte_carlo() {
        // n = 35 is beyond enumeration; the closed form must sit inside the
        // Monte-Carlo confidence interval of the same system.
        let sys = BoostFppSystem::new(2, 1).unwrap();
        let mc = Evaluator::new().with_seed(5);
        for &p in &[0.1, 0.2, 0.35] {
            let closed = sys.crash_probability_exact(p).unwrap();
            let est = mc.monte_carlo_with(&sys, p, 3000);
            assert!(
                (closed - est.mean).abs() <= est.ci95_half_width() + 0.02,
                "p={p}: closed {closed} vs mc {} ± {}",
                est.mean,
                est.ci95_half_width()
            );
        }
    }

    #[test]
    fn exact_closed_form_respects_paper_bounds_across_p_grid() {
        // The exact value must sit inside the paper's analytic envelope:
        // below the Proposition 6.3 numeric/Chernoff bounds (p < 1/4) and
        // above the resilience lower bound p^MT (Proposition 4.3).
        for (q, b) in [(2u64, 2usize), (3, 5), (3, 19)] {
            let sys = BoostFppSystem::new(q, b).unwrap();
            for i in 1..20 {
                let p = i as f64 * 0.05;
                let exact = sys.crash_probability_exact(p).unwrap();
                assert!((0.0..=1.0).contains(&exact), "q={q} b={b} p={p}");
                if p < 0.25 {
                    let numeric = sys.crash_probability_numeric_bound(p);
                    let chernoff = sys.crash_probability_prop_6_3_bound(p).unwrap();
                    assert!(
                        exact <= numeric + 1e-12,
                        "q={q} b={b} p={p}: exact {exact} above numeric bound {numeric}"
                    );
                    assert!(exact <= chernoff + 1e-12, "q={q} b={b} p={p}");
                }
                let lower = bqs_core::bounds::crash_probability_lower_bound_resilience(
                    p,
                    sys.min_transversal(),
                );
                assert!(
                    exact >= lower - 1e-12,
                    "q={q} b={b} p={p}: exact {exact} below lower bound {lower}"
                );
            }
        }
    }

    #[test]
    fn exact_closed_form_reaches_plane_order_five() {
        // q = 5's plane has 31 points — past the 2^n enumeration wall — but
        // the counting profile makes the Theorem 4.7 closed form exact:
        // F_p(boostFPP) = F_{r(p)}(FPP(5)) with r(p) the inner threshold's
        // exact crash probability.
        let sys = BoostFppSystem::new(5, 2).unwrap();
        let fpp = FppSystem::new(5).unwrap();
        for &p in &[0.05, 0.125, 0.3] {
            let closed = sys.crash_probability_exact(p).unwrap();
            let r = sys.threshold().crash_probability(p);
            let outer = fpp.crash_probability_exact(r).unwrap();
            assert!(
                (closed - outer).abs() <= 1e-12,
                "p={p}: composed {closed} vs outer-at-r {outer}"
            );
            // Inside the analytic envelope of Proposition 6.3.
            assert!(closed <= sys.crash_probability_numeric_bound(p) + 1e-12);
        }
        // And the evaluation engine reports it as exact closed form.
        let est = Evaluator::new().crash_probability(&sys, 0.125);
        assert_eq!(est.method, FpMethod::ClosedForm);
        assert!(est.is_exact());
    }

    #[test]
    fn exact_closed_form_gated_for_large_plane_orders() {
        // q = 7 is past the counting profile's measured interface wall: no
        // survivor profile, no closed form.
        let sys = BoostFppSystem::new(7, 2).unwrap();
        assert!(sys.crash_probability_exact(0.1).is_none());
    }

    #[test]
    fn section8_exact_value_fixes_the_zero_hit_rows() {
        // The Section 8 instance the benchmark previously reported as `0e0`
        // (no Monte-Carlo trial hit the tail at p = 0.05): the exact value is
        // tiny but positive, and still below the paper's p = 1/8 bound.
        let sys = BoostFppSystem::new(3, 19).unwrap();
        let fp_low = sys.crash_probability_exact(0.05).unwrap();
        assert!(fp_low > 0.0, "fp={fp_low}");
        assert!(fp_low < 1e-6, "fp={fp_low}");
        let fp_paper = sys.crash_probability_exact(0.125).unwrap();
        assert!(fp_paper <= 0.372, "fp={fp_paper}");
    }

    #[test]
    fn certified_load_matches_theorem_4_7_product_at_section8_scale() {
        // boostFPP(3, 19) at n = 1001: the certified LP load must equal the
        // Theorem 4.7 product of the component loads (~1/4), which no
        // explicit enumeration could ever verify at this size.
        let sys = BoostFppSystem::new(3, 19).unwrap();
        let certified = optimal_load_oracle(&sys).unwrap();
        assert!(
            (certified.load - sys.analytic_load()).abs() <= 1e-9,
            "certified {} vs analytic {}",
            certified.load,
            sys.analytic_load()
        );
        assert!(certified.gap <= 1e-9, "gap={}", certified.gap);
    }

    #[test]
    fn pricing_oracle_composes_inner_and_outer() {
        let sys = BoostFppSystem::new(2, 1).unwrap(); // n = 35
        let n = sys.universe_size();
        let prices: Vec<f64> = (0..n).map(|i| ((i * 17 + 7) % 31) as f64 / 31.0).collect();
        let (q, v) = sys.min_weight_quorum(&prices).unwrap();
        // The quorum picks 3 copies (a Fano line) x 4-of-5 servers each.
        assert_eq!(q.len(), sys.min_quorum_size());
        let recomputed: f64 = q.iter().map(|u| prices[u]).sum();
        assert!((recomputed - v).abs() < 1e-12);
        // Reference: brute-force over lines x per-copy cheapest-4 choices.
        let mut best = f64::INFINITY;
        for line in sys.fpp().lines() {
            let mut total = 0.0;
            for copy in line.iter() {
                let mut copy_prices: Vec<f64> = prices[copy * 5..(copy + 1) * 5].to_vec();
                copy_prices.sort_by(f64::total_cmp);
                total += copy_prices[..4].iter().sum::<f64>();
            }
            best = best.min(total);
        }
        assert!((v - best).abs() < 1e-12, "{v} vs {best}");
    }

    #[test]
    fn prop_6_3_bound_none_exactly_at_one_quarter() {
        let sys = BoostFppSystem::new(3, 4).unwrap();
        // The documented None condition is p >= 1/4 — inclusive at the edge.
        assert!(sys.crash_probability_prop_6_3_bound(0.25).is_none());
        assert!(sys.crash_probability_prop_6_3_bound(0.2499).is_some());
        assert!(sys.crash_probability_prop_6_3_bound(1.0).is_none());
        assert!(sys.crash_probability_prop_6_3_bound(0.0).is_some());
    }

    #[test]
    fn proposition_6_3_bound_behaviour() {
        let sys = BoostFppSystem::new(3, 50).unwrap();
        // For p < 1/4 the bound decays geometrically in b.
        let small_b = BoostFppSystem::new(3, 5).unwrap();
        let p = 0.1;
        assert!(
            sys.crash_probability_prop_6_3_bound(p).unwrap()
                < small_b.crash_probability_prop_6_3_bound(p).unwrap()
        );
        // Not applicable at p >= 1/4.
        assert!(sys.crash_probability_prop_6_3_bound(0.3).is_none());
        // The numeric bound is tighter than (or equal to) the Chernoff form.
        let chernoff = sys.crash_probability_prop_6_3_bound(p).unwrap();
        let numeric = sys.crash_probability_numeric_bound(p);
        assert!(
            numeric <= chernoff + 1e-9,
            "numeric={numeric} chernoff={chernoff}"
        );
    }

    #[test]
    fn monte_carlo_crash_probability_respects_bounds() {
        let sys = BoostFppSystem::new(2, 2).unwrap();
        let p = 0.1;
        let est = Evaluator::new()
            .with_seed(21)
            .monte_carlo_with(&sys, p, 2000);
        let bound = sys.crash_probability_numeric_bound(p);
        assert!(
            est.mean <= bound + est.ci95_half_width() + 0.01,
            "mc={} bound={bound}",
            est.mean
        );
        // Lower bound of Proposition 4.3: p^{MT}.
        let lower =
            bqs_core::bounds::crash_probability_lower_bound_resilience(p, sys.min_transversal());
        assert!(est.mean + est.ci95_half_width() >= lower);
    }

    #[test]
    fn section8_boostfpp_instance() {
        // Section 8: q = 3, b = 19 -> n = 1001, f = 79, load ~ 1/4, Fp <= 0.372 at p=1/8.
        let sys = BoostFppSystem::new(3, 19).unwrap();
        assert_eq!(sys.universe_size(), 1001);
        assert_eq!(AnalyzedConstruction::resilience(&sys), 79);
        let load = sys.analytic_load();
        assert!((load - 0.25).abs() < 0.05, "load={load}");
        let fp = sys.crash_probability_numeric_bound(0.125);
        assert!(fp <= 0.372 + 1e-9, "fp={fp}");
    }

    #[test]
    fn invalid_order_rejected() {
        assert!(BoostFppSystem::new(6, 2).is_err());
        assert!(BoostFppSystem::new(10, 1).is_err());
    }
}
