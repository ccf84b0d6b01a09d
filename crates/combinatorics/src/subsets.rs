//! Subset iteration utilities.
//!
//! Exact computations on explicit quorum systems — minimal transversals, exact crash
//! probability, exhaustive masking checks — enumerate k-subsets or all subsets of a
//! small universe. These iterators are allocation-light and deterministic.

/// Iterator over all `k`-element subsets of `{0, 1, ..., n-1}`, in lexicographic
/// order, yielded as sorted index vectors.
///
/// # Examples
///
/// ```
/// use bqs_combinatorics::subsets::KSubsets;
/// let subsets: Vec<Vec<usize>> = KSubsets::new(4, 2).collect();
/// assert_eq!(subsets.len(), 6);
/// assert_eq!(subsets[0], vec![0, 1]);
/// assert_eq!(subsets[5], vec![2, 3]);
/// ```
#[derive(Debug, Clone)]
pub struct KSubsets {
    n: usize,
    k: usize,
    current: Option<Vec<usize>>,
}

impl KSubsets {
    /// Creates the iterator. If `k > n` the iterator is empty; if `k == 0` it yields
    /// exactly the empty set.
    #[must_use]
    pub fn new(n: usize, k: usize) -> Self {
        let current = if k > n { None } else { Some((0..k).collect()) };
        KSubsets { n, k, current }
    }
}

impl Iterator for KSubsets {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Self::Item> {
        let current = self.current.as_mut()?;
        let item = current.clone();
        // Advance to the next combination in lexicographic order, in place.
        let Some(i) = (0..self.k)
            .rev()
            .find(|&i| current[i] < self.n - (self.k - i))
        else {
            self.current = None;
            return Some(item);
        };
        current[i] += 1;
        for j in (i + 1)..self.k {
            current[j] = current[j - 1] + 1;
        }
        Some(item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binomial::binomial;

    #[test]
    fn k_subsets_counts_match_binomial() {
        for n in 0..8usize {
            for k in 0..=n + 1 {
                let count = KSubsets::new(n, k).count() as u128;
                assert_eq!(count, binomial(n as u64, k as u64), "n={n} k={k}");
            }
        }
    }

    #[test]
    fn k_subsets_lexicographic_and_sorted() {
        let all: Vec<Vec<usize>> = KSubsets::new(5, 3).collect();
        for w in all.windows(2) {
            assert!(w[0] < w[1], "not lexicographically increasing: {w:?}");
        }
        for s in &all {
            let mut sorted = s.clone();
            sorted.sort_unstable();
            assert_eq!(&sorted, s);
            assert!(s.iter().all(|&x| x < 5));
        }
    }

    #[test]
    fn k_zero_yields_empty_set() {
        let all: Vec<Vec<usize>> = KSubsets::new(4, 0).collect();
        assert_eq!(all, vec![Vec::<usize>::new()]);
    }

    #[test]
    fn k_greater_than_n_is_empty() {
        assert_eq!(KSubsets::new(3, 4).count(), 0);
    }
}
