//! Property-based invariants over the constructions' *operational* behaviour:
//! sampled quorums of every construction always pairwise intersect in at least
//! `2b + 1` servers (the consistency requirement of Definition 3.5), live quorums
//! found under failures are genuine quorums and stay within the alive set, and the
//! composition layout maps copies correctly.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use byzantine_quorums::core::composition::ComposedSystem;
use byzantine_quorums::prelude::*;

/// Samples two quorums from the system and checks the masking intersection.
fn check_sampled_intersections<S: QuorumSystem>(sys: &S, b: usize, seed: u64, pairs: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..pairs {
        let q1 = sys.sample_quorum(&mut rng);
        let q2 = sys.sample_quorum(&mut rng);
        assert!(
            q1.intersection_size(&q2) > 2 * b,
            "{}: sampled quorums intersect in fewer than 2b+1 servers",
            sys.name()
        );
        assert!(q1.len() >= sys.min_quorum_size());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn mgrid_sampled_intersections(side in 5usize..10, seed in 0u64..1000) {
        let b = MGridSystem::max_b(side);
        let sys = MGridSystem::new(side, b).unwrap();
        check_sampled_intersections(&sys, b, seed, 12);
    }

    #[test]
    fn mpath_sampled_intersections(side in 5usize..10, seed in 0u64..1000) {
        let b = MPathSystem::max_b(side);
        let sys = MPathSystem::new(side, b).unwrap();
        check_sampled_intersections(&sys, b, seed, 8);
    }

    #[test]
    fn rt_sampled_intersections(depth in 1u32..4, seed in 0u64..1000) {
        let sys = RtSystem::new(4, 3, depth).unwrap();
        let b = sys.masking_b();
        check_sampled_intersections(&sys, b, seed, 10);
    }

    #[test]
    fn boostfpp_sampled_intersections(b in 1usize..4, seed in 0u64..1000) {
        let sys = BoostFppSystem::new(3, b).unwrap();
        check_sampled_intersections(&sys, b, seed, 8);
    }

    #[test]
    fn grid_and_threshold_sampled_intersections(side in 7usize..11, seed in 0u64..1000) {
        let b = (side - 1) / 3;
        let grid = GridSystem::new(side, b).unwrap();
        check_sampled_intersections(&grid, b, seed, 10);
        let n = side * side;
        let thresh = ThresholdSystem::masking(n, b).unwrap();
        check_sampled_intersections(&thresh, b, seed, 10);
    }

    /// Live quorums found under random failures are subsets of the alive set and are
    /// accepted by the system's own quorum verifier (where one exists).
    #[test]
    fn live_quorums_are_valid_and_alive(seed in 0u64..500, p in 0.0f64..0.3) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mpath = MPathSystem::new(7, 3).unwrap();
        let alive = sample_alive_set(49, p, &mut rng);
        if let Some(q) = mpath.find_live_quorum(&alive) {
            prop_assert!(q.is_subset_of(&alive));
            prop_assert!(mpath.contains_quorum(&q));
        }
        let mgrid = MGridSystem::new(7, 3).unwrap();
        if let Some(q) = mgrid.find_live_quorum(&alive) {
            prop_assert!(q.is_subset_of(&alive));
            prop_assert_eq!(q.len(), mgrid.min_quorum_size());
        }
        let rt = RtSystem::new(4, 3, 2).unwrap();
        let alive16 = sample_alive_set(16, p, &mut rng);
        if let Some(q) = rt.find_live_quorum(&alive16) {
            prop_assert!(q.is_subset_of(&alive16));
            prop_assert_eq!(q.len(), rt.min_quorum_size());
        }
    }

    /// The lazy composition's universe layout: a composed quorum restricted to copy i
    /// is either empty or a quorum of the inner system.
    #[test]
    fn composition_layout_is_copy_major(seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        let outer = MajoritySystem::new(5).unwrap();
        let inner = ThresholdSystem::minimal_masking(1).unwrap(); // n = 5, 4-of-5
        let composed = ComposedSystem::new(outer, inner);
        let q = composed.sample_quorum(&mut rng);
        let n_inner = 5;
        let mut nonempty_copies = 0;
        for copy in 0..5 {
            let local: Vec<usize> = q
                .iter()
                .filter(|&g| g / n_inner == copy)
                .map(|g| g % n_inner)
                .collect();
            if local.is_empty() {
                continue;
            }
            nonempty_copies += 1;
            prop_assert_eq!(local.len(), 4, "each used copy contributes a full inner quorum");
        }
        // The outer majority uses exactly 3 copies.
        prop_assert_eq!(nonempty_copies, 3);
    }

    /// Domination reduction never changes availability on randomly augmented systems.
    #[test]
    fn minimization_preserves_availability(seed in 0u64..300) {
        use byzantine_quorums::core::domination::minimize_system;
        let mut rng = StdRng::seed_from_u64(seed);
        // Start from a 2-of-3 majority and add random superset quorums.
        let base = ThresholdSystem::new(3, 2).unwrap().to_explicit(100).unwrap();
        let mut quorums: Vec<ServerSet> = base.quorums().to_vec();
        for _ in 0..3 {
            let extra = sample_alive_set(3, 0.3, &mut rng);
            if !extra.is_empty() {
                // Ensure it intersects everything by unioning with an existing quorum.
                quorums.push(extra.union(&quorums[0]));
            }
        }
        let system = ExplicitQuorumSystem::new(3, quorums).unwrap();
        let minimal = minimize_system(&system).unwrap();
        for &p in &[0.2, 0.5, 0.8] {
            let a = Evaluator::new().exact(&system, p).unwrap();
            let b = Evaluator::new().exact(&minimal, p).unwrap();
            prop_assert!((a - b).abs() < 1e-12);
        }
    }
}
