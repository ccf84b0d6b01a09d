//! Cross-crate integration tests: every construction's analytic parameters agree
//! with the exact measures computed by `bqs-core` on explicit instances, and the
//! paper's headline claims (Lemma 3.6, Propositions 5.1–7.2) hold on them.

use byzantine_quorums::core::prelude::*;
use byzantine_quorums::prelude::*;

/// Builds small explicit instances of every construction together with their
/// analytic (b, load) claims.
fn small_instances() -> Vec<(String, ExplicitQuorumSystem, usize, f64)> {
    let mut out = Vec::new();

    let t = ThresholdSystem::minimal_masking(1).unwrap();
    out.push((
        t.name(),
        t.to_explicit(10_000).unwrap(),
        t.masking_b(),
        t.analytic_load(),
    ));

    let t2 = ThresholdSystem::masking(9, 2).unwrap();
    out.push((
        t2.name(),
        t2.to_explicit(10_000).unwrap(),
        t2.masking_b(),
        t2.analytic_load(),
    ));

    let g = GridSystem::new(5, 1).unwrap();
    out.push((
        g.name(),
        g.to_explicit(10_000).unwrap(),
        g.masking_b(),
        g.analytic_load(),
    ));

    let m = MGridSystem::new(5, 2).unwrap();
    out.push((
        m.name(),
        m.to_explicit(10_000).unwrap(),
        m.masking_b(),
        m.analytic_load(),
    ));

    let rt = RtSystem::new(4, 3, 2).unwrap();
    out.push((
        rt.name(),
        rt.to_explicit(10_000).unwrap(),
        rt.masking_b(),
        rt.analytic_load(),
    ));

    let fpp = FppSystem::new(3).unwrap();
    out.push((
        fpp.name(),
        fpp.to_explicit().unwrap(),
        fpp.masking_b(),
        fpp.analytic_load(),
    ));

    out
}

#[test]
fn analytic_masking_levels_match_exact_measures() {
    for (name, explicit, claimed_b, _) in small_instances() {
        let n = explicit.universe_size();
        let exact = masking_level(explicit.quorums(), n)
            .unwrap_or_else(|| panic!("{name}: not even a quorum system"));
        assert!(
            exact >= claimed_b,
            "{name}: claims b = {claimed_b} but exact measures give {exact}"
        );
        assert!(
            is_b_masking(explicit.quorums(), n, claimed_b),
            "{name}: claimed masking level fails Lemma 3.6"
        );
    }
}

#[test]
fn analytic_loads_match_lp_loads() {
    for (name, explicit, _, claimed_load) in small_instances() {
        let n = explicit.universe_size();
        let (lp, strategy) = optimal_load(explicit.quorums(), n).unwrap();
        assert!(
            (lp - claimed_load).abs() < 1e-5,
            "{name}: LP load {lp} vs analytic {claimed_load}"
        );
        // The optimal strategy really achieves the optimal load.
        let achieved = strategy.induced_system_load(explicit.quorums(), n);
        assert!(achieved <= lp + 1e-6, "{name}");
        // And Theorem 4.1 holds.
        let b = masking_level(explicit.quorums(), n).unwrap();
        let bound = byzantine_quorums::core::bounds::load_lower_bound(
            n,
            b,
            min_quorum_size(explicit.quorums()),
        );
        assert!(
            lp + 1e-9 >= bound,
            "{name}: load {lp} below Theorem 4.1 bound {bound}"
        );
    }
}

#[test]
fn all_instances_are_fair_so_proposition_3_9_applies() {
    for (name, explicit, _, claimed_load) in small_instances() {
        let n = explicit.universe_size();
        if is_fair(explicit.quorums(), n) {
            let fl = fair_load(explicit.quorums(), n).unwrap();
            assert!(
                (fl - claimed_load).abs() < 1e-9,
                "{name}: Proposition 3.9 load {fl} vs analytic {claimed_load}"
            );
        }
    }
}

#[test]
fn resilience_matches_exact_transversals() {
    let cases: Vec<(String, ExplicitQuorumSystem, usize)> = vec![
        {
            let t = ThresholdSystem::minimal_masking(2).unwrap();
            (t.name(), t.to_explicit(10_000).unwrap(), t.resilience())
        },
        {
            let g = GridSystem::new(4, 1).unwrap();
            (g.name(), g.to_explicit(10_000).unwrap(), g.resilience())
        },
        {
            let m = MGridSystem::new(5, 2).unwrap();
            (m.name(), m.to_explicit(10_000).unwrap(), m.resilience())
        },
        {
            let rt = RtSystem::new(3, 2, 2).unwrap();
            (rt.name(), rt.to_explicit(10_000).unwrap(), rt.resilience())
        },
        {
            let f = FppSystem::new(2).unwrap();
            (f.name(), f.to_explicit().unwrap(), f.resilience())
        },
    ];
    for (name, explicit, claimed_f) in cases {
        let n = explicit.universe_size();
        let exact_f = resilience(explicit.quorums(), n);
        assert_eq!(exact_f, claimed_f, "{name}");
    }
}

#[test]
fn sampled_quorums_always_contain_a_quorum_of_the_explicit_list() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(5);
    let m = MGridSystem::new(5, 2).unwrap();
    let explicit = m.to_explicit(10_000).unwrap();
    for _ in 0..50 {
        let q = m.sample_quorum(&mut rng);
        assert!(
            explicit.quorums().iter().any(|e| e.is_subset_of(&q)),
            "sampled set is not a quorum"
        );
    }
}

#[test]
fn availability_of_lazy_and_explicit_forms_agrees() {
    use byzantine_quorums::core::availability::exact_crash_probability;
    // RT(3,2) depth 2 (9 servers) and Grid(4,1) (16 servers) are small enough for
    // exact enumeration through both code paths.
    let rt = RtSystem::new(3, 2, 2).unwrap();
    let rt_explicit = rt.to_explicit(10_000).unwrap();
    for &p in &[0.1, 0.3, 0.5] {
        let lazy = exact_crash_probability(&rt, p).unwrap();
        let explicit = exact_crash_probability(&rt_explicit, p).unwrap();
        assert!((lazy - explicit).abs() < 1e-12, "p={p}");
    }
    let g = GridSystem::new(4, 1).unwrap();
    let g_explicit = g.to_explicit(10_000).unwrap();
    for &p in &[0.1, 0.25] {
        let lazy = exact_crash_probability(&g, p).unwrap();
        let explicit = exact_crash_probability(&g_explicit, p).unwrap();
        assert!((lazy - explicit).abs() < 1e-12, "p={p}");
    }
}
