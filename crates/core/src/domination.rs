//! Coteries, domination and minimal-quorum reduction.
//!
//! The quorum-system literature the paper builds on (\[GB85\], \[NW98\]) distinguishes
//! *coteries* — quorum systems that are antichains (no quorum contains another) —
//! and calls a coterie *dominated* when another coterie is strictly "better"
//! (every quorum of the first contains a quorum of the second). Dominated systems
//! never help: removing a superset quorum can only lower the load and can never hurt
//! availability, because any alive superset quorum certifies an alive subset quorum.
//! The constructions in this workspace produce antichains already; these utilities
//! let users sanitise hand-built systems before analysing them, and let tests assert
//! the constructions stay minimal.

use crate::bitset::ServerSet;
use crate::error::QuorumError;
use crate::quorum::{ExplicitQuorumSystem, QuorumSystem};

/// Returns true if the quorum list is an antichain (a *coterie*): no quorum is a
/// subset of a different quorum.
#[must_use]
pub fn is_coterie(quorums: &[ServerSet]) -> bool {
    for (i, q) in quorums.iter().enumerate() {
        for (j, r) in quorums.iter().enumerate() {
            if i != j && q.is_subset_of(r) && q != r {
                return false;
            }
        }
    }
    // Duplicate quorums also violate minimality.
    for i in 0..quorums.len() {
        for j in (i + 1)..quorums.len() {
            if quorums[i] == quorums[j] {
                return false;
            }
        }
    }
    true
}

/// Removes dominated (superset or duplicate) quorums, returning the minimal
/// antichain with the same availability and at-most-equal load.
#[must_use]
pub fn reduce_to_minimal(quorums: &[ServerSet]) -> Vec<ServerSet> {
    let mut keep: Vec<ServerSet> = Vec::new();
    // Sort by size so that potential subsets are considered first.
    let mut sorted: Vec<&ServerSet> = quorums.iter().collect();
    sorted.sort_by_key(|q| q.len());
    for q in sorted {
        if keep.iter().any(|kept| kept.is_subset_of(q)) {
            continue; // dominated by an already-kept smaller (or equal) quorum
        }
        keep.push(q.clone());
    }
    keep
}

/// Reduces an explicit quorum system to its minimal (coterie) form, preserving the
/// universe and name.
///
/// # Errors
///
/// Propagates [`ExplicitQuorumSystem::new`] validation errors (cannot occur when the
/// input system is valid, since reduction preserves pairwise intersection).
pub fn minimize_system(system: &ExplicitQuorumSystem) -> Result<ExplicitQuorumSystem, QuorumError> {
    let reduced = reduce_to_minimal(system.quorums());
    Ok(ExplicitQuorumSystem::new(system.universe_size(), reduced)?.with_name(system.name()))
}

/// Returns true if coterie `better` dominates coterie `worse` in the sense of
/// \[GB85\]: they are different, and every quorum of `worse` contains some quorum of
/// `better`.
#[must_use]
pub fn dominates(better: &[ServerSet], worse: &[ServerSet]) -> bool {
    if better.is_empty() || worse.is_empty() {
        return false;
    }
    let every_covered = worse
        .iter()
        .all(|w| better.iter().any(|b| b.is_subset_of(w)));
    if !every_covered {
        return false;
    }
    // "Different": some quorum of `better` is not a superset of any quorum of
    // `worse`, or the sets of quorums simply differ.
    let same = better.len() == worse.len() && better.iter().all(|b| worse.contains(b));
    !same
}

/// A coterie is *non-dominated* (ND) if no coterie dominates it. Deciding this in
/// general is expensive; this helper implements the classical sufficient check used
/// for small systems: a coterie over universe `U` is dominated iff there exists a set
/// `T ⊆ U` such that (1) `T` intersects every quorum and (2) no quorum is contained
/// in `T` — in that case adding (a minimal subset of) `T` as a new quorum dominates.
/// Returns `Some(witness)` when such a `T` exists (the system is dominated), `None`
/// when the system is non-dominated. Exponential in `n`; intended for `n ≤ 20`.
///
/// # Errors
///
/// Returns [`QuorumError::UniverseTooLarge`] for universes above 20 servers.
pub fn domination_witness(
    quorums: &[ServerSet],
    universe_size: usize,
) -> Result<Option<ServerSet>, QuorumError> {
    const LIMIT: usize = 20;
    if universe_size > LIMIT {
        return Err(QuorumError::UniverseTooLarge {
            universe_size,
            limit: LIMIT,
        });
    }
    for mask in 0u64..(1u64 << universe_size) {
        let t = ServerSet::from_indices(
            universe_size,
            (0..universe_size).filter(|&i| mask & (1 << i) != 0),
        );
        if t.is_empty() {
            continue;
        }
        let hits_every = quorums.iter().all(|q| !q.is_disjoint_from(&t));
        if !hits_every {
            continue;
        }
        let contains_some = quorums.iter().any(|q| q.is_subset_of(&t));
        if !contains_some {
            return Ok(Some(t));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bqs_combinatorics::subsets::KSubsets;

    fn sets(universe: usize, lists: &[&[usize]]) -> Vec<ServerSet> {
        lists
            .iter()
            .map(|l| ServerSet::from_indices(universe, l.iter().copied()))
            .collect()
    }

    #[test]
    fn majority_is_a_coterie() {
        let q: Vec<ServerSet> = KSubsets::new(5, 3)
            .map(|s| ServerSet::from_indices(5, s))
            .collect();
        assert!(is_coterie(&q));
        assert_eq!(reduce_to_minimal(&q).len(), q.len());
    }

    #[test]
    fn superset_quorums_are_removed() {
        let q = sets(4, &[&[0, 1], &[0, 1, 2], &[1, 2], &[1, 2, 3], &[0, 2]]);
        assert!(!is_coterie(&q));
        let reduced = reduce_to_minimal(&q);
        assert_eq!(reduced.len(), 3);
        assert!(is_coterie(&reduced));
        // The minimal quorums survive.
        assert!(reduced.contains(&ServerSet::from_indices(4, [0, 1])));
        assert!(reduced.contains(&ServerSet::from_indices(4, [1, 2])));
        assert!(reduced.contains(&ServerSet::from_indices(4, [0, 2])));
    }

    #[test]
    fn duplicates_are_removed() {
        let q = sets(3, &[&[0, 1], &[0, 1], &[1, 2]]);
        assert!(!is_coterie(&q));
        assert_eq!(reduce_to_minimal(&q).len(), 2);
    }

    #[test]
    fn reduction_preserves_availability_and_load() {
        use crate::availability::exact_crash_probability;
        use crate::load::optimal_load;
        let original = ExplicitQuorumSystem::from_indices(
            4,
            [
                vec![0, 1],
                vec![0, 1, 2],
                vec![1, 2],
                vec![0, 2],
                vec![0, 2, 3],
            ],
        )
        .unwrap();
        let minimal = minimize_system(&original).unwrap();
        assert!(minimal.num_quorums() < original.num_quorums());
        for &p in &[0.1, 0.4, 0.7] {
            let a = exact_crash_probability(&original, p).unwrap();
            let b = exact_crash_probability(&minimal, p).unwrap();
            assert!((a - b).abs() < 1e-12, "p={p}");
        }
        let (l_orig, _) = optimal_load(original.quorums(), 4).unwrap();
        let (l_min, _) = optimal_load(minimal.quorums(), 4).unwrap();
        assert!(l_min <= l_orig + 1e-9);
    }

    #[test]
    fn domination_relation() {
        // The 2-of-3 majority dominates the "star" coterie {{0,1},{0,2}}? Every star
        // quorum contains a majority quorum (itself), and they differ -> dominates.
        let majority = sets(3, &[&[0, 1], &[0, 2], &[1, 2]]);
        let star = sets(3, &[&[0, 1], &[0, 2]]);
        assert!(dominates(&majority, &star));
        assert!(!dominates(&star, &majority)); // {1,2} contains no star quorum
        assert!(!dominates(&majority, &majority));
        assert!(!dominates(&[], &majority));
    }

    #[test]
    fn majority_is_non_dominated_star_is_dominated() {
        let majority = sets(3, &[&[0, 1], &[0, 2], &[1, 2]]);
        assert_eq!(domination_witness(&majority, 3).unwrap(), None);
        let star = sets(3, &[&[0, 1], &[0, 2]]);
        let witness = domination_witness(&star, 3)
            .unwrap()
            .expect("star is dominated");
        // Any witness must hit every quorum without containing one ({0} and {1,2} both
        // qualify; the search returns the first in mask order).
        assert!(star.iter().all(|q| !q.is_disjoint_from(&witness)));
        assert!(star.iter().all(|q| !q.is_subset_of(&witness)));
    }

    #[test]
    fn domination_witness_respects_size_limit() {
        let q = vec![ServerSet::full(25)];
        assert!(matches!(
            domination_witness(&q, 25),
            Err(QuorumError::UniverseTooLarge { .. })
        ));
    }

    #[test]
    fn threshold_systems_are_non_dominated() {
        // ℓ-of-k thresholds with 2ℓ = k+1 (strict majorities) are the classical ND
        // coteries; check 3-of-5.
        let q: Vec<ServerSet> = KSubsets::new(5, 3)
            .map(|s| ServerSet::from_indices(5, s))
            .collect();
        assert_eq!(domination_witness(&q, 5).unwrap(), None);
        // 4-of-5 is dominated (e.g. by 3-of-5): witness exists.
        let q45: Vec<ServerSet> = KSubsets::new(5, 4)
            .map(|s| ServerSet::from_indices(5, s))
            .collect();
        assert!(domination_witness(&q45, 5).unwrap().is_some());
    }
}
