//! Lower bounds on load and crash probability (Section 4.1 of the paper).
//!
//! These are the yardsticks every construction in the paper is measured against:
//!
//! * Theorem 4.1: `L(Q) ≥ max{ (2b+1)/c(Q), c(Q)/n }` for any b-masking system.
//! * Corollary 4.2: `L(Q) ≥ √((2b+1)/n)`, with equality iff `c(Q) = √((2b+1) n)`.
//! * Proposition 4.3: `F_p(Q) ≥ p^{MT(Q)} = p^{f+1}`.
//! * Proposition 4.4: `F_p(Q) ≥ p^{c(Q) − 2b}` for b-masking systems.
//! * Proposition 4.5: `F_p(Q) ≥ p^{b+1}` when `MT(Q) ≤ (IS(Q)+1)/2`.

/// Theorem 4.1: the load of a b-masking quorum system with smallest quorum size
/// `min_quorum_size` over `n` servers is at least
/// `max{ (2b+1)/c, c/n }`.
///
/// # Panics
///
/// Panics if `min_quorum_size == 0` or `n == 0`.
#[must_use]
pub fn load_lower_bound(n: usize, b: usize, min_quorum_size: usize) -> f64 {
    assert!(n > 0 && min_quorum_size > 0, "sizes must be positive");
    let c = min_quorum_size as f64;
    let first = (2 * b + 1) as f64 / c;
    let second = c / n as f64;
    first.max(second)
}

/// Corollary 4.2: `L(Q) ≥ √((2b+1)/n)` for every b-masking system over `n` servers,
/// regardless of its quorum size; it is attained at `c(Q) = √((2b+1) n)`.
///
/// # Panics
///
/// Panics if `n == 0`.
#[must_use]
pub fn load_lower_bound_universal(n: usize, b: usize) -> f64 {
    assert!(n > 0, "universe must be non-empty");
    ((2 * b + 1) as f64 / n as f64).sqrt()
}

/// Proposition 4.3: `F_p(Q) ≥ p^{MT(Q)}` — with `MT(Q) = f + 1` this is the
/// availability limit imposed by the resilience alone.
#[must_use]
pub fn crash_probability_lower_bound_resilience(p: f64, min_transversal: usize) -> f64 {
    p.clamp(0.0, 1.0).powi(min_transversal as i32)
}

/// Proposition 4.4: `F_p(Q) ≥ p^{c(Q) − 2b}` for a b-masking system.
///
/// When `c(Q) ≤ 2b` (impossible for a valid b-masking system) the bound degenerates
/// to `1`.
#[must_use]
pub fn crash_probability_lower_bound_masking(p: f64, min_quorum_size: usize, b: usize) -> f64 {
    if min_quorum_size <= 2 * b {
        return 1.0;
    }
    p.clamp(0.0, 1.0).powi((min_quorum_size - 2 * b) as i32)
}

/// Proposition 4.5: `F_p(Q) ≥ p^{b+1}`, valid when `MT(Q) ≤ (IS(Q) + 1) / 2`
/// (which holds for all the constructions in the paper at their maximal masking
/// level). The caller is responsible for checking that precondition; see
/// [`proposition_4_5_applies`].
#[must_use]
pub fn crash_probability_lower_bound_tight(p: f64, b: usize) -> f64 {
    p.clamp(0.0, 1.0).powi(b as i32 + 1)
}

/// The precondition of Proposition 4.5: `MT(Q) ≤ (IS(Q) + 1) / 2`.
#[must_use]
pub fn proposition_4_5_applies(min_transversal: usize, min_intersection: usize) -> bool {
    2 * min_transversal <= min_intersection + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theorem_4_1_behaviour() {
        // Small quorums are punished by the (2b+1)/c term, large ones by c/n.
        let n = 100;
        let b = 3;
        assert!((load_lower_bound(n, b, 7) - 1.0).abs() < 1e-12); // (2b+1)/c = 1
        assert!((load_lower_bound(n, b, 70) - 0.7).abs() < 1e-12); // c/n dominates
                                                                   // The bound is minimised near c = sqrt((2b+1) n).
        let c_star = ((2 * b + 1) as f64 * n as f64).sqrt().round() as usize;
        let at_star = load_lower_bound(n, b, c_star);
        assert!(at_star <= load_lower_bound(n, b, c_star / 2) + 1e-12);
        assert!(at_star <= load_lower_bound(n, b, c_star * 2) + 1e-12);
    }

    #[test]
    fn corollary_4_2_is_the_envelope() {
        // For every quorum size, Theorem 4.1 is at least the universal bound.
        let n = 400;
        let b = 5;
        let universal = load_lower_bound_universal(n, b);
        for c in 1..=n {
            assert!(load_lower_bound(n, b, c) >= universal - 1e-9, "c={c}");
        }
        // And the universal bound is attained at the optimal quorum size.
        let c_star = ((2 * b + 1) as f64 * n as f64).sqrt().round() as usize;
        let attained = load_lower_bound(n, b, c_star);
        assert!((attained - universal).abs() < 0.02);
    }

    #[test]
    fn universal_bound_special_cases() {
        // b = 0 recovers the Naor-Wool 1/sqrt(n) bound.
        assert!((load_lower_bound_universal(100, 0) - 0.1).abs() < 1e-12);
        // b ~ n/4 forces constant load ~ 1/sqrt(2) (remark after Corollary 4.2).
        let l = load_lower_bound_universal(1000, 250);
        assert!((l - (501.0_f64 / 1000.0).sqrt()).abs() < 1e-12);
        assert!(l > 0.7);
    }

    #[test]
    fn crash_bounds_monotone_in_exponent() {
        let p = 0.2;
        assert!(
            crash_probability_lower_bound_resilience(p, 3)
                > crash_probability_lower_bound_resilience(p, 5)
        );
        assert!(
            crash_probability_lower_bound_tight(p, 1) > crash_probability_lower_bound_tight(p, 4)
        );
    }

    #[test]
    fn proposition_4_4_degenerate_case() {
        assert_eq!(crash_probability_lower_bound_masking(0.3, 4, 2), 1.0);
        let ok = crash_probability_lower_bound_masking(0.3, 10, 2);
        assert!((ok - 0.3f64.powi(6)).abs() < 1e-12);
    }

    #[test]
    fn proposition_4_5_precondition() {
        // Threshold 3b+1 of 4b+1: MT = b+1, IS = 2b+1 -> 2(b+1) <= 2b+2 holds.
        assert!(proposition_4_5_applies(3, 5)); // b = 2
                                                // FPP: MT = q+1, IS = 1 -> fails for q >= 1.
        assert!(!proposition_4_5_applies(3, 1));
    }

    #[test]
    fn probabilities_stay_in_unit_interval() {
        for &p in &[-0.5, 0.0, 0.3, 1.0, 1.7] {
            for bound in [
                crash_probability_lower_bound_resilience(p, 4),
                crash_probability_lower_bound_masking(p, 9, 2),
                crash_probability_lower_bound_tight(p, 3),
            ] {
                assert!((0.0..=1.0).contains(&bound), "p={p} bound={bound}");
            }
        }
    }
}
