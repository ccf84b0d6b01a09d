//! Combinatorial measures of explicit quorum systems (Section 3 of the paper).
//!
//! * `c(Q)` — cardinality of the smallest quorum,
//! * `IS(Q)` — size of the smallest intersection between two quorums,
//! * `deg(i)` — the number of quorums containing server `i`,
//! * `(s, d)`-fairness — all quorums have size `s` and all servers degree `d`
//!   (Definition 3.2), the precondition of Proposition 3.9.

use crate::bitset::ServerSet;

/// The cardinality `c(Q)` of the smallest quorum.
///
/// # Panics
///
/// Panics if `quorums` is empty.
#[must_use]
pub fn min_quorum_size(quorums: &[ServerSet]) -> usize {
    quorums
        .iter()
        .map(ServerSet::len)
        .min()
        .expect("quorum system must be non-empty")
}

/// The size `IS(Q)` of the smallest intersection between any two quorums.
///
/// Following the convention of the paper, the minimum ranges over all ordered pairs
/// including a quorum with itself, so a single-quorum system has `IS(Q)` equal to the
/// quorum size; for systems of at least two quorums this coincides with the minimum
/// over distinct pairs whenever some pair achieves it.
///
/// # Panics
///
/// Panics if `quorums` is empty.
#[must_use]
pub fn min_intersection_size(quorums: &[ServerSet]) -> usize {
    assert!(!quorums.is_empty(), "quorum system must be non-empty");
    if quorums.len() == 1 {
        return quorums[0].len();
    }
    let mut best = usize::MAX;
    for i in 0..quorums.len() {
        for j in (i + 1)..quorums.len() {
            best = best.min(quorums[i].intersection_size(&quorums[j]));
        }
    }
    best
}

/// The degree `deg(i)` of every server: how many quorums contain it.
#[must_use]
pub fn degrees(quorums: &[ServerSet], universe_size: usize) -> Vec<usize> {
    let mut deg = vec![0usize; universe_size];
    for q in quorums {
        for u in q.iter() {
            deg[u] += 1;
        }
    }
    deg
}

/// Whether the system is `(s, d)`-fair for some `s` and `d` (Definition 3.2):
/// every quorum has the same size and every server the same degree.
#[must_use]
pub fn is_fair(quorums: &[ServerSet], universe_size: usize) -> bool {
    fairness(quorums, universe_size).is_some()
}

/// If the system is `(s, d)`-fair, returns `Some((s, d))`.
#[must_use]
pub(crate) fn fairness(quorums: &[ServerSet], universe_size: usize) -> Option<(usize, usize)> {
    let s = quorums.first()?.len();
    if quorums.iter().any(|q| q.len() != s) {
        return None;
    }
    let deg = degrees(quorums, universe_size);
    let d = *deg.first()?;
    if deg.iter().any(|&x| x != d) {
        return None;
    }
    Some((s, d))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sets(universe: usize, lists: &[&[usize]]) -> Vec<ServerSet> {
        lists
            .iter()
            .map(|l| ServerSet::from_indices(universe, l.iter().copied()))
            .collect()
    }

    #[test]
    fn majority_measures() {
        let q = sets(3, &[&[0, 1], &[0, 2], &[1, 2]]);
        assert_eq!(min_quorum_size(&q), 2);
        assert_eq!(min_intersection_size(&q), 1);
        assert_eq!(degrees(&q, 3), vec![2, 2, 2]);
        assert_eq!(fairness(&q, 3), Some((2, 2)));
        assert!(is_fair(&q, 3));
    }

    #[test]
    fn unfair_system_detected() {
        let q = sets(4, &[&[0, 1, 2], &[0, 3], &[0, 1, 3]]);
        assert_eq!(min_quorum_size(&q), 2);
        assert!(!is_fair(&q, 4));
        assert_eq!(fairness(&q, 4), None);
    }

    #[test]
    fn intersection_size_of_disjoint_detected_as_zero() {
        let q = sets(4, &[&[0, 1], &[2, 3]]);
        assert_eq!(min_intersection_size(&q), 0);
    }

    #[test]
    fn single_quorum_conventions() {
        let q = sets(4, &[&[0, 1, 2]]);
        assert_eq!(min_quorum_size(&q), 3);
        assert_eq!(min_intersection_size(&q), 3);
    }

    #[test]
    fn masking_style_intersections() {
        // 3-of-4 threshold: intersections have size exactly 2.
        let q = sets(4, &[&[0, 1, 2], &[0, 1, 3], &[0, 2, 3], &[1, 2, 3]]);
        assert_eq!(min_intersection_size(&q), 2);
        assert_eq!(fairness(&q, 4), Some((3, 3)));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn min_quorum_size_panics_on_empty() {
        let _ = min_quorum_size(&[]);
    }
}
