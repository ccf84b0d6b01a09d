//! Prime-power testing.
//!
//! Finite projective planes of order `q` (Section 6 of the paper) are known to exist
//! whenever `q = p^r` for a prime `p`. This module provides the deterministic test
//! used to validate user-supplied plane orders before construction.

/// If `n = p^r` for a prime `p` and `r >= 1`, returns `Some((p, r))`; otherwise `None`.
///
/// # Examples
///
/// ```
/// use bqs_combinatorics::primes::prime_power;
/// assert_eq!(prime_power(7), Some((7, 1)));
/// assert_eq!(prime_power(8), Some((2, 3)));
/// assert_eq!(prime_power(9), Some((3, 2)));
/// assert_eq!(prime_power(12), None);
/// assert_eq!(prime_power(1), None);
/// ```
#[must_use]
pub fn prime_power(n: u64) -> Option<(u64, u32)> {
    if n < 2 {
        return None;
    }
    // Find the smallest prime factor, then check n is a pure power of it.
    let mut p = 0u64;
    if n.is_multiple_of(2) {
        p = 2;
    } else {
        let mut d = 3u64;
        while d * d <= n {
            if n.is_multiple_of(d) {
                p = d;
                break;
            }
            d += 2;
        }
        if p == 0 {
            // n itself is prime.
            return Some((n, 1));
        }
    }
    let mut m = n;
    let mut r = 0u32;
    while m.is_multiple_of(p) {
        m /= p;
        r += 1;
    }
    if m == 1 {
        Some((p, r))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Independent primality reference for `prime_power`: trial division.
    fn is_prime(n: u64) -> bool {
        if n < 2 {
            return false;
        }
        if n < 4 {
            return true;
        }
        if n.is_multiple_of(2) {
            return false;
        }
        let mut d = 3u64;
        while d * d <= n {
            if n.is_multiple_of(d) {
                return false;
            }
            d += 2;
        }
        true
    }

    #[test]
    fn prime_powers_up_to_32() {
        let pps: Vec<u64> = (0..=32).filter(|&n| prime_power(n).is_some()).collect();
        assert_eq!(
            pps,
            vec![2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32]
        );
    }

    #[test]
    fn prime_power_decomposition() {
        assert_eq!(prime_power(1024), Some((2, 10)));
        assert_eq!(prime_power(3u64.pow(7)), Some((3, 7)));
        assert_eq!(prime_power(5 * 7), None);
        assert_eq!(prime_power(2 * 3 * 5), None);
        assert_eq!(prime_power(121), Some((11, 2)));
    }

    #[test]
    fn prime_power_consistent_with_is_prime() {
        for n in 2..500u64 {
            if is_prime(n) {
                assert_eq!(prime_power(n), Some((n, 1)), "n={n}");
            }
            if let Some((p, r)) = prime_power(n) {
                assert!(is_prime(p));
                assert_eq!(p.pow(r), n);
            }
        }
    }
}
