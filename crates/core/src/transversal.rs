//! Transversals, `MT(Q)` and resilience (Definitions 3.3 and 3.4).
//!
//! A transversal is a set of servers hitting every quorum; the size of the smallest
//! transversal `MT(Q)` determines the resilience `f = MT(Q) − 1`: the largest number
//! of crashes the system is *guaranteed* to survive. Computing `MT(Q)` exactly is the
//! minimum hitting-set problem (NP-hard in general); explicit systems in this
//! workspace are small enough for an exact branch-and-bound search, with a greedy
//! upper bound used both on its own and to prune the exact search.

use crate::bitset::ServerSet;

/// A greedy transversal: repeatedly pick the server covering the most un-hit quorums.
/// Its size upper-bounds `MT(Q)` and seeds the branch-and-bound search.
#[must_use]
pub fn greedy_transversal(quorums: &[ServerSet], universe_size: usize) -> ServerSet {
    let mut chosen = ServerSet::new(universe_size);
    let mut unhit: Vec<usize> = (0..quorums.len()).collect();
    while !unhit.is_empty() {
        let mut counts = vec![0usize; universe_size];
        for &qi in &unhit {
            for u in quorums[qi].iter() {
                counts[u] += 1;
            }
        }
        let best = counts
            .iter()
            .enumerate()
            .max_by_key(|&(_, &c)| c)
            .map(|(u, _)| u)
            .expect("universe must be non-empty when quorums remain un-hit");
        chosen.insert(best);
        unhit.retain(|&qi| !quorums[qi].contains(best));
    }
    chosen
}

/// The exact minimal transversal size `MT(Q)`, by branch and bound.
///
/// # Panics
///
/// Panics if `quorums` is empty.
#[must_use]
pub fn min_transversal_size(quorums: &[ServerSet], universe_size: usize) -> usize {
    min_transversal(quorums, universe_size).len()
}

/// An exact minimum transversal (hitting set) of the quorums.
///
/// The search branches on the servers of an arbitrary un-hit quorum (one of them must
/// be in any transversal), pruning with the greedy upper bound.
///
/// # Panics
///
/// Panics if `quorums` is empty.
#[must_use]
pub fn min_transversal(quorums: &[ServerSet], universe_size: usize) -> ServerSet {
    assert!(!quorums.is_empty(), "quorum system must be non-empty");
    let mut best = greedy_transversal(quorums, universe_size);
    let mut current = ServerSet::new(universe_size);
    branch(quorums, &mut current, &mut best);
    best
}

fn branch(quorums: &[ServerSet], current: &mut ServerSet, best: &mut ServerSet) {
    if current.len() >= best.len() {
        return; // cannot improve on the incumbent
    }
    // Find an un-hit quorum, preferring one with the fewest remaining choices.
    let mut pick: Option<&ServerSet> = None;
    for q in quorums {
        if q.is_disjoint_from(current) {
            match pick {
                None => pick = Some(q),
                Some(p) if q.len() < p.len() => pick = Some(q),
                _ => {}
            }
        }
    }
    let Some(q) = pick else {
        // Every quorum is hit; `current` is a transversal.
        if current.len() < best.len() {
            *best = current.clone();
        }
        return;
    };
    if current.len() + 1 >= best.len() {
        return; // adding any server cannot beat the incumbent
    }
    for u in q.iter() {
        current.insert(u);
        branch(quorums, current, best);
        current.remove(u);
    }
}

/// The resilience `f = MT(Q) − 1` (Definition 3.4): the largest `k` such that every
/// `k`-subset of servers misses some quorum.
#[must_use]
pub fn resilience(quorums: &[ServerSet], universe_size: usize) -> usize {
    min_transversal_size(quorums, universe_size).saturating_sub(1)
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
    fn majority_transversal() {
        // Majority over 5 servers: MT = 3 (any 3 servers hit every 3-subset),
        // resilience 2.
        let quorums: Vec<ServerSet> = bqs_combinatorics::subsets::KSubsets::new(5, 3)
            .map(|s| ServerSet::from_indices(5, s))
            .collect();
        assert_eq!(min_transversal_size(&quorums, 5), 3);
        assert_eq!(resilience(&quorums, 5), 2);
    }

    #[test]
    fn singleton_system() {
        let q = sets(4, &[&[2]]);
        let t = min_transversal(&q, 4);
        assert_eq!(t.to_vec(), vec![2]);
        assert_eq!(resilience(&q, 4), 0);
    }

    #[test]
    fn star_system_has_center_transversal() {
        // All quorums share server 0: MT = 1.
        let q = sets(5, &[&[0, 1], &[0, 2], &[0, 3, 4]]);
        assert_eq!(min_transversal_size(&q, 5), 1);
        let t = min_transversal(&q, 5);
        assert!(t.contains(0));
    }

    #[test]
    fn grid_rows_need_one_hit_per_row() {
        // Quorums = 3 disjoint "rows" over 9 elements... not a quorum system
        // (rows are disjoint), but min hitting set is still well defined = 3.
        let q = sets(9, &[&[0, 1, 2], &[3, 4, 5], &[6, 7, 8]]);
        assert_eq!(min_transversal_size(&q, 9), 3);
    }

    #[test]
    fn greedy_is_a_transversal_and_upper_bound() {
        let quorums: Vec<ServerSet> = bqs_combinatorics::subsets::KSubsets::new(6, 4)
            .map(|s| ServerSet::from_indices(6, s))
            .collect();
        let greedy = greedy_transversal(&quorums, 6);
        assert!(quorums.iter().all(|q| !q.is_disjoint_from(&greedy)));
        assert!(greedy.len() >= min_transversal_size(&quorums, 6));
    }

    #[test]
    fn exact_beats_or_matches_greedy_on_adversarial_instance() {
        // Instance where naive greedy can be suboptimal; exact must find size 2:
        // quorums {0,1},{0,2},{1,2},{3,1},{3,2}; {1,2} hits all.
        let q = sets(4, &[&[0, 1], &[0, 2], &[1, 2], &[3, 1], &[3, 2]]);
        assert_eq!(min_transversal_size(&q, 4), 2);
        let t = min_transversal(&q, 4);
        assert!(q.iter().all(|quorum| !quorum.is_disjoint_from(&t)));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn threshold_transversal_formula() {
        // ℓ-of-k threshold: MT = k - ℓ + 1.
        for (k, l) in [(4usize, 3usize), (5, 4), (7, 5)] {
            let quorums: Vec<ServerSet> = bqs_combinatorics::subsets::KSubsets::new(k, l)
                .map(|s| ServerSet::from_indices(k, s))
                .collect();
            assert_eq!(min_transversal_size(&quorums, k), k - l + 1, "k={k} l={l}");
        }
    }
}
