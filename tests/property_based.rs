//! Property-based tests (proptest) on the core invariants of the library:
//! Theorem 4.7 (composition), Lemma 3.6 / Corollary 3.7 (masking), Theorem 4.1
//! (load bound), the binomial lemmas of Appendix A, and the bitset algebra that
//! everything else rests on.

use proptest::prelude::*;

use byzantine_quorums::combinatorics::binomial::{
    binomial, binomial_tail, lemma_a1_holds, lemma_a2_bound,
};
use byzantine_quorums::core::prelude::*;
use byzantine_quorums::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// ServerSet algebra: |A ∩ B| + |A ∪ B| = |A| + |B|, difference/complement laws.
    #[test]
    fn bitset_inclusion_exclusion(
        a in proptest::collection::btree_set(0usize..120, 0..40),
        b in proptest::collection::btree_set(0usize..120, 0..40),
    ) {
        let sa = ServerSet::from_indices(120, a.iter().copied());
        let sb = ServerSet::from_indices(120, b.iter().copied());
        prop_assert_eq!(
            sa.intersection_size(&sb) + sa.union(&sb).len(),
            sa.len() + sb.len()
        );
        prop_assert_eq!(sa.difference(&sb).len(), sa.len() - sa.intersection_size(&sb));
        prop_assert_eq!(sa.complement().len(), 120 - sa.len());
        prop_assert!(sa.intersection(&sb).is_subset_of(&sa));
        prop_assert!(sa.is_subset_of(&sa.union(&sb)));
    }

    /// `insert_range` sets exactly the bits that per-bit `insert` sets, on
    /// top of whatever the set already holds.
    #[test]
    fn bitset_insert_range_matches_per_bit_inserts(
        capacity in 1usize..300,
        a in 0usize..300,
        b in 0usize..300,
        existing in proptest::collection::btree_set(0usize..300, 0..20),
    ) {
        let (start, end) = (a.min(capacity), b.min(capacity));
        let base = ServerSet::from_indices(
            capacity,
            existing.iter().copied().filter(|&i| i < capacity),
        );
        let mut by_range = base.clone();
        by_range.insert_range(start..end);
        let mut by_bit = base;
        for i in start..end {
            by_bit.insert(i);
        }
        prop_assert_eq!(by_range, by_bit);
    }

    /// Pascal's rule and symmetry for binomial coefficients.
    #[test]
    fn binomial_identities(n in 1u64..50, k in 0u64..50) {
        if k <= n {
            prop_assert_eq!(binomial(n, k), binomial(n, n - k));
        } else {
            prop_assert_eq!(binomial(n, k), 0);
        }
        if k >= 1 && k <= n {
            prop_assert_eq!(binomial(n, k), binomial(n - 1, k - 1) + binomial(n - 1, k));
        }
    }

    /// Lemma A.1 and Lemma A.2 of the paper hold for all small parameters.
    #[test]
    fn appendix_a_lemmas(k in 1u64..40, d in 0u64..40, i in 0u64..40, p in 0.0f64..1.0) {
        prop_assert!(lemma_a1_holds(k, d, i));
        if d <= k {
            let tail = binomial_tail(k, d, p);
            prop_assert!(tail <= lemma_a2_bound(k, d, p) + 1e-9);
        }
    }

    /// The ℓ-of-k threshold system: masking level from Corollary 3.7 matches the
    /// closed form min{(2ℓ-k-1)/2, k-ℓ}.
    #[test]
    fn threshold_masking_level_closed_form(k in 3usize..9, excess in 1usize..4) {
        let l = k / 2 + excess;
        prop_assume!(l < k && 2 * l > k);
        let sys = ThresholdSystem::new(k, l).unwrap();
        let explicit = sys.to_explicit(100_000).unwrap();
        let expected = ((2 * l - k - 1) / 2).min(k - l);
        prop_assert_eq!(masking_level(explicit.quorums(), k), Some(expected));
        prop_assert_eq!(sys.masking_b(), expected);
    }

    /// Theorem 4.7: composing two threshold systems multiplies c, IS, MT and the load.
    #[test]
    fn composition_theorem_on_thresholds(
        k1 in 2usize..5, e1 in 1usize..3,
        k2 in 2usize..5, e2 in 1usize..3,
    ) {
        let l1 = (k1 / 2 + e1).min(k1);
        let l2 = (k2 / 2 + e2).min(k2);
        prop_assume!(l1 < k1 || k1 == l1); // allow l == k (single quorum = whole set)
        prop_assume!(2 * l1 > k1 && 2 * l2 > k2);
        prop_assume!(l1 <= k1 && l2 <= k2);
        let s = ThresholdSystem::new(k1, l1).unwrap().to_explicit(10_000).unwrap();
        let r = ThresholdSystem::new(k2, l2).unwrap().to_explicit(10_000).unwrap();
        prop_assume!(s.num_quorums().pow(l1 as u32) <= 20_000);
        let composed = compose_explicit(&s, &r, 200_000);
        prop_assume!(composed.is_ok());
        let composed = composed.unwrap();
        let n = k1 * k2;
        prop_assert_eq!(composed.universe_size(), n);
        prop_assert_eq!(min_quorum_size(composed.quorums()), l1 * l2);
        prop_assert_eq!(
            min_intersection_size(composed.quorums()),
            (2 * l1 - k1) * (2 * l2 - k2)
        );
        prop_assert_eq!(
            min_transversal_size(composed.quorums(), n),
            (k1 - l1 + 1) * (k2 - l2 + 1)
        );
        let (load, _) = optimal_load(composed.quorums(), n).unwrap();
        let expected = (l1 as f64 / k1 as f64) * (l2 as f64 / k2 as f64);
        prop_assert!((load - expected).abs() < 1e-5);
    }

    /// Theorem 4.1 and Corollary 4.2: the LP load of any explicit b-masking system
    /// built from random quorums respects the lower bounds.
    #[test]
    fn load_lower_bound_on_random_masking_systems(seed in 0u64..500) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(seed);
        // Random threshold parameters guarantee a valid masking system.
        let b = (seed % 3) as usize;
        let sys = ThresholdSystem::minimal_masking(b).unwrap();
        let explicit = sys.to_explicit(100_000).unwrap();
        let n = explicit.universe_size();
        let (load, _) = optimal_load(explicit.quorums(), n).unwrap();
        prop_assert!(load + 1e-9 >= byzantine_quorums::core::bounds::load_lower_bound_universal(n, b));
        // Sampling never returns a set smaller than c(Q).
        let q = sys.sample_quorum(&mut rng);
        prop_assert!(q.len() >= sys.min_quorum_size());
    }

    /// The masking read rule: a value written to at least 2b+1 servers of the read
    /// quorum always survives masking, and a value reported by at most b servers
    /// never does (the vote-counting core of Definition 3.5).
    #[test]
    fn mask_votes_properties(b in 0usize..4, honest in 1usize..12, byz in 0usize..4) {
        prop_assume!(honest > 2 * b);
        prop_assume!(byz <= b);
        let mut votes: Vec<(usize, u64)> = Vec::new();
        for i in 0..honest {
            votes.push((i, 7)); // honest servers all report the written value 7
        }
        for j in 0..byz {
            votes.push((honest + j, 1_000_000 + j as u64)); // fabricated values
        }
        let safe = mask_votes(&votes, b);
        prop_assert!(safe.contains(&7));
        prop_assert!(safe.iter().all(|&v| v == 7));
    }

    /// Crash-probability bounds of Section 4 are consistent: Prop 4.3 ≥ Prop 4.4
    /// whenever MT ≤ c − 2b, and both lie in [0, 1].
    #[test]
    fn crash_bounds_consistency(p in 0.0f64..1.0, b in 0usize..5, extra in 0usize..10) {
        use byzantine_quorums::core::bounds::*;
        let c = 2 * b + 1 + extra; // minimal quorum at least 2b+1
        let mt = (c - 2 * b).min(extra + 1);
        let b43 = crash_probability_lower_bound_resilience(p, mt);
        let b44 = crash_probability_lower_bound_masking(p, c, b);
        prop_assert!((0.0..=1.0).contains(&b43));
        prop_assert!((0.0..=1.0).contains(&b44));
        if mt <= c - 2 * b {
            prop_assert!(b43 + 1e-12 >= b44);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The Monte-Carlo estimator is statistically consistent with exact
    /// enumeration on small Threshold systems: the exact value lies within the
    /// (slightly widened, to keep the test deterministic-safe at ~4σ) 95%
    /// confidence interval of the parallel per-thread-stream estimator.
    #[test]
    fn monte_carlo_consistent_with_exact_threshold(
        n in 5usize..10,
        p in 0.05f64..0.45,
        seed in 0u64..1000,
    ) {
        let sys = ThresholdSystem::new(n, n / 2 + 1).unwrap();
        let exact = Evaluator::new().exact(&sys, p).unwrap();
        let est = Evaluator::new().with_seed(seed).with_trials(4000).monte_carlo(&sys, p);
        prop_assert!(
            (est.value - exact).abs() <= 2.0 * est.ci95_half_width() + 1e-9,
            "n={} p={} seed={}: exact {} vs MC {} ± {}",
            n, p, seed, exact, est.value, est.ci95_half_width()
        );
    }

    /// Same consistency property on small Grid systems (whose availability
    /// event — full rows and a full column — exercises a different
    /// `is_available` shape than a popcount threshold).
    #[test]
    fn monte_carlo_consistent_with_exact_grid(
        p in 0.05f64..0.4,
        seed in 0u64..1000,
    ) {
        let sys = GridSystem::new(4, 1).unwrap();
        let exact = Evaluator::new().exact(&sys, p).unwrap();
        let est = Evaluator::new().with_seed(seed).with_trials(4000).monte_carlo(&sys, p);
        prop_assert!(
            (est.value - exact).abs() <= 2.0 * est.ci95_half_width() + 1e-9,
            "p={} seed={}: exact {} vs MC {} ± {}",
            p, seed, exact, est.value, est.ci95_half_width()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// On every side the unpruned M-Path sweep affords, the ε-pruned sweep's
    /// certified interval contains the exact value at random `p`, and the
    /// enclosure is no wider than 1e-12 (the sides ≤ 6 acceptance bar; sides
    /// kept ≤ 5 here so the unpruned reference stays fast in debug builds —
    /// side 6 is pinned deterministically in the `bqs-graph` suite).
    #[test]
    fn pruned_dp_interval_contains_exact_at_random_p(
        side in 2usize..6,
        k in 1usize..3,
        p in 0.0f64..1.0,
    ) {
        use byzantine_quorums::graph::crossing_dp::{mpath_crash_probability, DEFAULT_PRUNE_EPSILON};
        prop_assume!(k <= side);
        let exact = mpath_crash_probability(side, k, &[p], 1 << 22, 0.0).unwrap()[0].lower;
        let iv = mpath_crash_probability(side, k, &[p], 1 << 22, DEFAULT_PRUNE_EPSILON).unwrap()[0];
        prop_assert!(
            iv.lower <= exact && exact <= iv.upper,
            "side={} k={} p={}: exact {} outside [{}, {}]",
            side, k, p, exact, iv.lower, iv.upper
        );
        prop_assert!(
            iv.width() <= 1e-12,
            "side={} k={} p={}: width {}",
            side, k, p, iv.width()
        );
    }
}

/// Non-proptest regression: a composed system's crash probability is the composition
/// of the component crash probabilities (Theorem 4.7's availability clause) for a
/// non-threshold composition as well.
#[test]
fn composed_crash_probability_for_grid_over_threshold() {
    let outer = GridSystem::new(2, 0).unwrap().to_explicit(4).unwrap();
    let inner = ThresholdSystem::new(3, 2)
        .unwrap()
        .to_explicit(100)
        .unwrap();
    let composed = compose_explicit(&outer, &inner, 1_000_000).unwrap();
    for &p in &[0.1, 0.3, 0.5, 0.7] {
        let r = Evaluator::new().exact(&inner, p).unwrap();
        let s_of_r = Evaluator::new().exact(&outer, r).unwrap();
        let direct = Evaluator::new().exact(&composed, p).unwrap();
        assert!(
            (s_of_r - direct).abs() < 1e-9,
            "p={p}: {s_of_r} vs {direct}"
        );
    }
}

/// PROFILE-PARITY: for every construction family the engine's availability
/// profile equals the naive per-mask reference *as integer vectors* — at
/// every thread count, and when the count kernel is fed split, unaligned
/// sub-ranges — so `exact` is `to_bits`-identical across thread counts and
/// to the naive value. Threshold(18) and the 18-server wheel sit above
/// `PARALLEL_MASK_THRESHOLD` and so run chunked (through Threshold's
/// segment kernel and the explicit list's four-mask scan) whenever `t > 1`.
///
/// The profile's own invariants are integer facts too: the empty alive-set
/// contains no quorum, the full one does, and on the systems with a quorum
/// list nothing below `c(Q)` servers can and the complement of a minimum
/// transversal cannot (Proposition 4.3).
#[test]
fn availability_profile_equals_naive_reference_at_every_thread_count() {
    use byzantine_quorums::core::availability::availability_profile_naive;
    use byzantine_quorums::core::eval::PARALLEL_MASK_THRESHOLD;

    let big_threshold = ThresholdSystem::new(18, 10).unwrap();
    let threshold = ThresholdSystem::new(7, 5).unwrap();
    let grid3 = GridSystem::new(3, 0).unwrap();
    let grid4 = GridSystem::new(4, 1).unwrap();
    let mgrid = MGridSystem::new(4, 1).unwrap();
    let fpp = FppSystem::new(3).unwrap();
    let mpath = MPathSystem::new(3, 1).unwrap();
    let rt = RtSystem::new(4, 3, 2).unwrap();
    let wheel = ExplicitQuorumSystem::from_indices(
        18,
        (1..18).map(|i| vec![0, i]).chain([(1..18).collect()]),
    )
    .unwrap();
    // Each system with its quorum list where one is affordable: `c(Q)` and
    // `MT(Q)` are checked against it.
    let families: [(&dyn QuorumSystem, Option<ExplicitQuorumSystem>); 9] = [
        (&big_threshold, None),
        (&threshold, Some(threshold.to_explicit(1 << 10).unwrap())),
        (&grid3, Some(grid3.to_explicit(1 << 10).unwrap())),
        (&grid4, Some(grid4.to_explicit(1 << 10).unwrap())),
        (&mgrid, Some(mgrid.to_explicit(1 << 10).unwrap())),
        (&fpp, Some(fpp.to_explicit().unwrap())),
        (&mpath, None),
        (&rt, Some(rt.to_explicit(1 << 10).unwrap())),
        (&wheel, Some(wheel.clone())),
    ];
    assert!(families
        .iter()
        .any(|(sys, _)| 1u64 << sys.universe_size() > PARALLEL_MASK_THRESHOLD));

    for (sys, quorums) in families {
        let name = sys.name();
        let n = sys.universe_size();
        let naive = availability_profile_naive(sys).unwrap();
        let a = naive.unavailable_by_alive();

        assert_eq!(a.len(), n + 1, "{name}");
        assert_eq!(a[0], 1, "{name}");
        assert_eq!(a[n], 0, "{name}");
        let full_below = quorums.as_ref().map_or(0, |_| sys.min_quorum_size());
        for (j, &count) in a.iter().enumerate() {
            let subsets = binomial(n as u64, j as u64);
            assert!(u128::from(count) <= subsets, "{name} j={j}");
            if j < full_below {
                assert_eq!(u128::from(count), subsets, "{name} j={j}");
            }
        }
        if let Some(explicit) = &quorums {
            let mt = min_transversal_size(explicit.quorums(), n);
            assert!(a[n - mt] >= 1, "{name}: MT={mt}");
        }

        for threads in [1, 2, 3, 8] {
            let eval = Evaluator::new().with_threads(threads);
            assert_eq!(
                eval.availability_profile(sys).unwrap(),
                naive,
                "{name} threads={threads}"
            );
            for p in [0.125, 0.816009719876748] {
                assert_eq!(
                    eval.exact(sys, p).unwrap().to_bits(),
                    naive.crash_probability(p).to_bits(),
                    "{name} threads={threads} p={p}"
                );
            }
        }

        let total = 1u64 << n;
        let cut = total / 3 + 1;
        let mut split = vec![0u64; n + 1];
        sys.unavailable_profile_u64_range(0, cut, &mut split);
        sys.unavailable_profile_u64_range(cut, total, &mut split);
        assert_eq!(split, a, "{name}: split count kernel");
    }

    // The count-kernel families again at n = 25 — the one universe size
    // above the threshold the grids have, where a debug build cannot afford
    // the naive loop: every chunking must reproduce the serial profile, and
    // the kernel must count seeded unaligned 2^16-mask windows as the
    // per-mask availability test does.
    let grid5 = GridSystem::new(5, 1).unwrap();
    let mgrid5 = MGridSystem::new(5, 2).unwrap();
    let threshold25 = ThresholdSystem::new(25, 13).unwrap();
    for sys in [&grid5 as &dyn QuorumSystem, &mgrid5, &threshold25] {
        let serial = Evaluator::new().with_threads(1).availability_profile(sys);
        for threads in [2, 3, 8] {
            let chunked = Evaluator::new().with_threads(threads);
            assert_eq!(chunked.availability_profile(sys), serial, "{}", sys.name());
        }
        let mut scratch = ServerSet::new(25);
        for window in 1..=4u64 {
            let start = window.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40;
            let end = start + (1 << 16);
            let mut kernel = vec![0u64; 26];
            sys.unavailable_profile_u64_range(start, end, &mut kernel);
            let mut direct = vec![0u64; 26];
            for mask in start..end {
                scratch.assign_mask_u64(mask);
                direct[mask.count_ones() as usize] += u64::from(!sys.is_available(&scratch));
            }
            assert_eq!(kernel, direct, "{} masks {start:#x}..{end:#x}", sys.name());
        }
    }
}
