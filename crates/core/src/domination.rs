//! Coteries, domination and minimal-quorum reduction.
//!
//! The quorum-system literature the paper builds on (\[GB85\], \[NW98\]) distinguishes
//! *coteries* — quorum systems that are antichains (no quorum contains another) —
//! and calls a coterie *dominated* when another coterie is strictly "better"
//! (every quorum of the first contains a quorum of the second). Dominated systems
//! never help: removing a superset quorum can only lower the load and can never hurt
//! availability, because any alive superset quorum certifies an alive subset quorum.
//! The constructions in this workspace produce antichains already; these utilities
//! let users sanitise hand-built systems before analysing them.

use crate::bitset::ServerSet;
use crate::error::QuorumError;
use crate::quorum::{ExplicitQuorumSystem, QuorumSystem};

/// Removes dominated (superset or duplicate) quorums, returning the minimal
/// antichain with the same availability and at-most-equal load.
#[must_use]
pub(crate) fn reduce_to_minimal(quorums: &[ServerSet]) -> Vec<ServerSet> {
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
        assert_eq!(reduce_to_minimal(&q).len(), q.len());
    }

    #[test]
    fn superset_quorums_are_removed() {
        let q = sets(4, &[&[0, 1], &[0, 1, 2], &[1, 2], &[1, 2, 3], &[0, 2]]);
        let reduced = reduce_to_minimal(&q);
        assert_eq!(reduced.len(), 3);
        // An antichain: each kept quorum contains no kept quorum but itself.
        for r in &reduced {
            assert_eq!(reduced.iter().filter(|s| s.is_subset_of(r)).count(), 1);
        }
        // The minimal quorums survive.
        assert!(reduced.contains(&ServerSet::from_indices(4, [0, 1])));
        assert!(reduced.contains(&ServerSet::from_indices(4, [1, 2])));
        assert!(reduced.contains(&ServerSet::from_indices(4, [0, 2])));
    }

    #[test]
    fn duplicates_are_removed() {
        let q = sets(3, &[&[0, 1], &[0, 1], &[1, 2]]);
        assert_eq!(reduce_to_minimal(&q).len(), 2);
    }

    #[test]
    fn reduction_preserves_availability_and_load() {
        use crate::eval::Evaluator;
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
            let a = Evaluator::new().exact(&original, p).unwrap();
            let b = Evaluator::new().exact(&minimal, p).unwrap();
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
}
