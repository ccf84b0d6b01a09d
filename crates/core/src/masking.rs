//! b-masking quorum systems (Definition 3.5, Lemma 3.6, Corollary 3.7).
//!
//! A quorum system masks `b` Byzantine servers when (1) it is resilient to at least
//! `b` failures — no `b` servers hit every quorum — and (2) every two quorums
//! intersect in at least `2b + 1` servers, so that in any read the values reported by
//! correct servers that also voted in the latest write outnumber the `b` possibly
//! fabricated values. [`masking_level`] computes the largest `b` a given explicit
//! system provides (Corollary 3.7); [`is_b_masking`] checks a requested level.

use crate::bitset::ServerSet;
use crate::measures::min_intersection_size;
use crate::transversal::min_transversal_size;

/// The largest `b` for which the system is b-masking (Corollary 3.7):
/// `b = min{ MT(Q) − 1, (IS(Q) − 1) / 2 }`, where a negative value is clamped to
/// `None` (the system is not even 0-masking, i.e. not a usable quorum system for
/// Byzantine masking).
///
/// Note that a 0-masking system is simply an ordinary (regular) quorum system with
/// non-empty intersections and `MT ≥ 1`.
#[must_use]
pub fn masking_level(quorums: &[ServerSet], universe_size: usize) -> Option<usize> {
    let is = min_intersection_size(quorums);
    if is == 0 {
        return None;
    }
    let mt = min_transversal_size(quorums, universe_size);
    if mt == 0 {
        return None;
    }
    Some(((is - 1) / 2).min(mt - 1))
}

/// Checks whether the system is `b`-masking, per Lemma 3.6:
/// `MT(Q) ≥ b + 1` and `IS(Q) ≥ 2b + 1`.
#[must_use]
pub fn is_b_masking(quorums: &[ServerSet], universe_size: usize, b: usize) -> bool {
    let is = min_intersection_size(quorums);
    if is < 2 * b + 1 {
        return false;
    }
    let mt = min_transversal_size(quorums, universe_size);
    mt > b
}

/// The consistency half of the masking property alone: every pairwise intersection
/// has size at least `2b + 1` (requirement (1) of Definition 3.5). Useful when the
/// resilience is known analytically and only the intersections need checking.
#[must_use]
pub fn has_masking_intersections(quorums: &[ServerSet], b: usize) -> bool {
    min_intersection_size(quorums) > 2 * b
}

/// The necessary condition `4b < n` for a b-masking system to exist over `n` servers
/// (\[MR98a\], quoted in Section 3 of the paper).
#[must_use]
pub fn masking_feasible(universe_size: usize, b: usize) -> bool {
    4 * b < universe_size
}

/// Simulates the masking read rule on one read: given the multiset of (server, value)
/// votes returned by a read quorum, returns the values that are *safe* — reported by
/// at least `b + 1` servers — so a correct value written to a full write quorum
/// always survives and any value fabricated by at most `b` Byzantine servers never
/// does. This is the core of the \[MR98a\] replicated-variable protocol that b-masking
/// intersections make sound; the full protocol lives in the `bqs-sim` crate.
#[must_use]
pub fn mask_votes<V: Eq + Clone>(votes: &[(usize, V)], b: usize) -> Vec<V> {
    let mut distinct: Vec<(V, usize)> = Vec::new();
    for (_, v) in votes {
        match distinct.iter_mut().find(|(x, _)| x == v) {
            Some((_, count)) => *count += 1,
            None => distinct.push((v.clone(), 1)),
        }
    }
    distinct
        .into_iter()
        .filter(|(_, count)| *count > b)
        .map(|(v, _)| v)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bqs_combinatorics::subsets::KSubsets;

    fn k_of_n(n: usize, k: usize) -> Vec<ServerSet> {
        KSubsets::new(n, k)
            .map(|s| ServerSet::from_indices(n, s))
            .collect()
    }

    #[test]
    fn threshold_masking_level() {
        // The (3b+1)-of-(4b+1) threshold system is exactly b-masking.
        for b in 1..=3usize {
            let n = 4 * b + 1;
            let q = k_of_n(n, 3 * b + 1);
            assert_eq!(masking_level(&q, n), Some(b), "b={b}");
            assert!(is_b_masking(&q, n, b));
            assert!(!is_b_masking(&q, n, b + 1));
        }
    }

    #[test]
    fn majority_is_zero_masking() {
        // Simple majority has IS = 1: regular quorum system, masks no Byzantine fault.
        let q = k_of_n(5, 3);
        assert_eq!(masking_level(&q, 5), Some(0));
        assert!(is_b_masking(&q, 5, 0));
        assert!(!is_b_masking(&q, 5, 1));
    }

    #[test]
    fn disjoint_sets_are_not_masking() {
        let q = vec![
            ServerSet::from_indices(4, [0, 1]),
            ServerSet::from_indices(4, [2, 3]),
        ];
        assert_eq!(masking_level(&q, 4), None);
        assert!(!is_b_masking(&q, 4, 0));
    }

    #[test]
    fn masking_limited_by_resilience() {
        // A single quorum equal to the whole universe: IS = n but MT = 1, so b = 0.
        let q = vec![ServerSet::full(9)];
        assert_eq!(masking_level(&q, 9), Some(0));
        assert!(!is_b_masking(&q, 9, 1));
        assert!(has_masking_intersections(&q, 4));
    }

    #[test]
    fn feasibility_bound() {
        assert!(masking_feasible(5, 1));
        assert!(!masking_feasible(4, 1));
        assert!(masking_feasible(1024, 255));
        assert!(!masking_feasible(1024, 256));
    }

    #[test]
    fn mask_votes_keeps_correct_value() {
        // b = 1: value "A" reported by 3 servers survives, the lone fabricated "X"
        // does not.
        let votes = vec![(0, "A"), (1, "A"), (2, "A"), (3, "X")];
        let safe = mask_votes(&votes, 1);
        assert_eq!(safe, vec!["A"]);
    }

    #[test]
    fn mask_votes_discards_under_supported_values() {
        let votes = vec![(0, 10u64), (1, 10), (2, 99), (3, 98)];
        // b = 2: even the correct value has only 2 votes (<= b), nothing is safe —
        // which is exactly why masking systems need 2b+1 intersections.
        assert!(mask_votes(&votes, 2).is_empty());
        // b = 1: the pair of 10s is safe.
        assert_eq!(mask_votes(&votes, 1), vec![10]);
    }

    #[test]
    fn mask_votes_multiple_safe_values_possible_without_quorum_discipline() {
        // If two values each get b+1 votes (can only happen when the caller ignored
        // timestamps), both are reported; the protocol layer must disambiguate.
        let votes = vec![(0, 1u8), (1, 1), (2, 2), (3, 2)];
        let mut safe = mask_votes(&votes, 1);
        safe.sort_unstable();
        assert_eq!(safe, vec![1, 2]);
    }
}
