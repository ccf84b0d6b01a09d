//! Binomial coefficients, binomial tails and concentration bounds.
//!
//! These are the numeric workhorses behind the availability analyses of the paper:
//! the threshold-system crash probability is a binomial tail (Proposition 6.3 uses a
//! Chernoff bound on it), the RT(k, ℓ) recurrence of Proposition 5.7 uses the tail
//! inequality of Lemma A.2, and the load optimality statements compare against
//! √((2b+1)/n) style expressions.

/// Exact binomial coefficient `C(n, k)` computed in `u128`.
///
/// Uses the multiplicative formula with interleaved division so intermediate values
/// stay small. Values that would overflow `u128` saturate at `u128::MAX`.
///
/// # Examples
///
/// ```
/// use bqs_combinatorics::binomial::binomial;
/// assert_eq!(binomial(52, 5), 2_598_960);
/// assert_eq!(binomial(10, 0), 1);
/// assert_eq!(binomial(10, 11), 0);
/// ```
#[must_use]
pub fn binomial(n: u64, k: u64) -> u128 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut result: u128 = 1;
    for i in 0..k {
        // result *= (n - i); result /= (i + 1); done carefully to stay exact.
        let num = (n - i) as u128;
        let den = (i + 1) as u128;
        match result.checked_mul(num) {
            Some(v) => result = v / den,
            None => {
                // Fall back to a gcd-reduced multiplication; if it still overflows,
                // saturate.
                let g = gcd(num, den);
                let num = num / g;
                let den = den / g;
                match (result / den).checked_mul(num) {
                    Some(v) => result = v,
                    None => return u128::MAX,
                }
            }
        }
    }
    result
}

fn gcd(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a.max(1)
}

/// Natural logarithm of the binomial coefficient `C(n, k)`, using `ln_gamma`.
///
/// Accurate for very large `n` where the exact value does not fit in `u128`.
///
/// Returns negative infinity when `k > n`.
#[must_use]
pub(crate) fn ln_binomial(n: u64, k: u64) -> f64 {
    if k > n {
        return f64::NEG_INFINITY;
    }
    ln_factorial(n) - ln_factorial(k) - ln_factorial(n - k)
}

/// Floating-point binomial coefficient; exact for small values, `exp(ln_binomial)`
/// for large ones.
#[must_use]
pub fn binomial_f64(n: u64, k: u64) -> f64 {
    if k > n {
        return 0.0;
    }
    if n <= 60 {
        binomial(n, k) as f64
    } else {
        ln_binomial(n, k).exp()
    }
}

/// `ln(n!)` via Stirling's series for large `n`, exact summation for small `n`.
#[must_use]
pub(crate) fn ln_factorial(n: u64) -> f64 {
    if n < 2 {
        return 0.0;
    }
    if n <= 256 {
        let mut acc = 0.0;
        for i in 2..=n {
            acc += (i as f64).ln();
        }
        return acc;
    }
    // Stirling's series with three correction terms is more than accurate enough
    // for probability work at n > 256.
    let x = n as f64;
    x * x.ln() - x + 0.5 * (2.0 * std::f64::consts::PI * x).ln() + 1.0 / (12.0 * x)
        - 1.0 / (360.0 * x * x * x)
}

/// Probability mass function of Binomial(n, p) at `k`.
///
/// Computed in log space for numerical robustness.
#[must_use]
pub(crate) fn binomial_pmf(n: u64, k: u64, p: f64) -> f64 {
    if k > n {
        return 0.0;
    }
    if p <= 0.0 {
        return if k == 0 { 1.0 } else { 0.0 };
    }
    if p >= 1.0 {
        return if k == n { 1.0 } else { 0.0 };
    }
    let ln = ln_binomial(n, k) + (k as f64) * p.ln() + ((n - k) as f64) * (1.0 - p).ln();
    ln.exp()
}

/// Upper-tail probability `P[X >= k]` for `X ~ Binomial(n, p)`.
///
/// This is exactly the crash probability of an `ℓ-of-k` threshold quorum system with
/// `d = k - ℓ + 1` failures disabling it (see Proposition 5.7 of the paper), and the
/// crash probability of the `3b+1`-of-`4b+1` threshold component of boostFPP.
///
/// # Examples
///
/// ```
/// use bqs_combinatorics::binomial::binomial_tail;
/// // A fair coin flipped twice comes up heads at least once with probability 3/4.
/// let p = binomial_tail(2, 1, 0.5);
/// assert!((p - 0.75).abs() < 1e-12);
/// ```
#[must_use]
pub fn binomial_tail(n: u64, k: u64, p: f64) -> f64 {
    if k == 0 {
        return 1.0;
    }
    if k > n {
        return 0.0;
    }
    // Sum the smaller side for accuracy.
    let mut tail = 0.0;
    for j in k..=n {
        tail += binomial_pmf(n, j, p);
    }
    tail.clamp(0.0, 1.0)
}

/// Lemma A.2 of the paper: `sum_{j=d}^{k} C(k,j) p^j (1-p)^{k-j} <= C(k,d) p^d`.
///
/// Returns the *bound* (right-hand side), clamped to `[0, 1]`.
#[must_use]
pub fn lemma_a2_bound(k: u64, d: u64, p: f64) -> f64 {
    if d > k {
        return 0.0;
    }
    (binomial_f64(k, d) * p.powi(d as i32)).clamp(0.0, 1.0)
}

/// Lemma A.1 of the paper: `C(k, d+i) / C(k, d) <= C(k-d, i)`.
///
/// Returns `true` when the inequality holds for the given parameters (used by
/// property tests to validate the lemma numerically).
#[must_use]
pub fn lemma_a1_holds(k: u64, d: u64, i: u64) -> bool {
    if d + i > k {
        return true;
    }
    let lhs = binomial_f64(k, d + i) / binomial_f64(k, d);
    let rhs = binomial_f64(k - d, i);
    lhs <= rhs * (1.0 + 1e-9)
}

/// The paper's estimate (5) for `Fp(Thresh(3b+1 of 4b+1))`: `exp(-b (1-4p)² / 2)`.
///
/// Only meaningful for `p < 1/4`; returns 1.0 otherwise.
#[must_use]
pub fn thresh_crash_upper_bound(b: u64, p: f64) -> f64 {
    if p >= 0.25 {
        return 1.0;
    }
    let x = 1.0 - 4.0 * p;
    (-(b as f64) * x * x / 2.0).exp().min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binomial_small_values() {
        assert_eq!(binomial(0, 0), 1);
        assert_eq!(binomial(5, 0), 1);
        assert_eq!(binomial(5, 5), 1);
        assert_eq!(binomial(5, 2), 10);
        assert_eq!(binomial(6, 3), 20);
        assert_eq!(binomial(10, 4), 210);
    }

    #[test]
    fn binomial_out_of_range_is_zero() {
        assert_eq!(binomial(4, 5), 0);
        assert_eq!(binomial(0, 1), 0);
    }

    #[test]
    fn binomial_symmetry() {
        for n in 0..30u64 {
            for k in 0..=n {
                assert_eq!(binomial(n, k), binomial(n, n - k), "n={n} k={k}");
            }
        }
    }

    #[test]
    fn binomial_pascal_recurrence() {
        for n in 1..40u64 {
            for k in 1..n {
                assert_eq!(
                    binomial(n, k),
                    binomial(n - 1, k - 1) + binomial(n - 1, k),
                    "n={n} k={k}"
                );
            }
        }
    }

    #[test]
    fn binomial_large_exact() {
        assert_eq!(binomial(52, 5), 2_598_960);
        assert_eq!(binomial(100, 3), 161_700);
        assert_eq!(binomial(64, 32), 1_832_624_140_942_590_534);
    }

    #[test]
    fn ln_binomial_matches_exact() {
        for n in [10u64, 30, 60, 100, 500] {
            for k in [0u64, 1, n / 4, n / 2] {
                let exact = binomial_f64(n, k);
                let approx = ln_binomial(n, k).exp();
                let rel = (exact - approx).abs() / exact.max(1.0);
                assert!(rel < 1e-6, "n={n} k={k} exact={exact} approx={approx}");
            }
        }
    }

    #[test]
    fn ln_factorial_stirling_matches_exact_at_boundary() {
        // Check continuity across the exact/Stirling switch at n = 256.
        let mut exact = 0.0;
        for i in 2..=300u64 {
            exact += (i as f64).ln();
            if i >= 250 {
                let approx = ln_factorial(i);
                assert!((exact - approx).abs() / exact < 1e-9, "i={i}");
            }
        }
    }

    #[test]
    fn pmf_sums_to_one() {
        for &(n, p) in &[(10u64, 0.3), (25, 0.5), (40, 0.05)] {
            let total: f64 = (0..=n).map(|k| binomial_pmf(n, k, p)).sum();
            assert!((total - 1.0).abs() < 1e-9, "n={n} p={p} total={total}");
        }
    }

    #[test]
    fn tail_monotone_in_k() {
        let n = 30;
        let p = 0.3;
        let mut prev = 1.0;
        for k in 0..=n {
            let t = binomial_tail(n, k, p);
            assert!(t <= prev + 1e-12);
            prev = t;
        }
    }

    #[test]
    fn tail_edge_cases() {
        assert_eq!(binomial_tail(10, 0, 0.2), 1.0);
        assert_eq!(binomial_tail(10, 11, 0.2), 0.0);
        assert!((binomial_tail(10, 10, 1.0) - 1.0).abs() < 1e-12);
        assert!(binomial_tail(10, 1, 0.0) < 1e-12);
    }

    #[test]
    fn lemma_a2_dominates_tail() {
        // Lemma A.2: the tail is at most C(k,d) p^d.
        for &(k, d) in &[(4u64, 2u64), (10, 4), (21, 7), (13, 10)] {
            for &p in &[0.01, 0.1, 0.2, 0.4] {
                let tail = binomial_tail(k, d, p);
                let bound = lemma_a2_bound(k, d, p);
                assert!(
                    tail <= bound + 1e-12,
                    "k={k} d={d} p={p} tail={tail} bound={bound}"
                );
            }
        }
    }

    #[test]
    fn lemma_a1_sample_parameters() {
        for k in 1..20u64 {
            for d in 0..=k {
                for i in 0..=(k - d) {
                    assert!(lemma_a1_holds(k, d, i), "k={k} d={d} i={i}");
                }
            }
        }
    }

    #[test]
    fn thresh_bound_behaviour() {
        // Decreasing in b for fixed p < 1/4, and vacuous for p >= 1/4.
        assert!(thresh_crash_upper_bound(10, 0.1) > thresh_crash_upper_bound(100, 0.1));
        assert_eq!(thresh_crash_upper_bound(10, 0.3), 1.0);
        assert!(thresh_crash_upper_bound(1000, 0.1) < 1e-50);
    }
}
