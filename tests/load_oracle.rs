//! Cross-crate tests for the certified column-generation load engine:
//!
//! * **parity** — `optimal_load_oracle` against the explicit-quorum LP
//!   (`optimal_load`) to `1e-9` on every construction small enough to
//!   enumerate, with the returned strategy achieving exactly the reported
//!   load and the certified gap honoured;
//! * **ground truth** — every certified roster instance small enough to
//!   enumerate (`n ≤ 16`) against its minimal available sets, found by
//!   `is_available` alone: the smallest is `min_quorum_size()`, and their
//!   explicit LP is the certified and the analytic load. M-Path, which the
//!   roster leaves out, is pinned against the same ground truth;
//! * **scale regression** — the Section 8-size instances (`n ≥ 256`) of the
//!   paper's load-optimal roster constructions (M-Grid, boostFPP) certified
//!   within a constant of the universal lower bound `√((2b+1)/n)` of
//!   Corollary 4.2, values the explicit LP can never check.

use byzantine_quorums::analysis::load_analysis::certified_constructions;
use byzantine_quorums::core::load::{optimal_load, optimal_load_oracle};
use byzantine_quorums::core::oracle::MinWeightQuorumOracle;
use byzantine_quorums::prelude::*;

/// Runs the engine on `sys`, checks its internal consistency, and returns
/// the certified load.
fn certify_and_check(sys: &(impl MinWeightQuorumOracle + ?Sized)) -> f64 {
    let certified = optimal_load_oracle(sys).unwrap_or_else(|e| {
        panic!("{} failed to certify: {e:?}", sys.name());
    });
    assert!(
        certified.gap <= 1e-9,
        "{}: certified gap {:e}",
        sys.name(),
        certified.gap
    );
    assert!(
        certified.lower_bound <= certified.load + 1e-15,
        "{}: lower bound above load",
        sys.name()
    );
    assert!(
        (certified.load - certified.lower_bound - certified.gap).abs() <= 1e-15,
        "{}: gap inconsistent with its bounds",
        sys.name()
    );
    // The strategy must achieve exactly the reported load (same bits: the
    // engine computes the load *from* the strategy, never from solver state).
    let achieved = certified
        .strategy
        .induced_system_load(&certified.quorums, sys.universe_size());
    assert_eq!(
        achieved.to_bits(),
        certified.load.to_bits(),
        "{}: strategy load diverges from reported load",
        sys.name()
    );
    certified.load
}

/// Certified load vs the explicit LP on every construction small enough to
/// materialise its quorum list.
#[test]
fn certified_load_matches_explicit_lp_on_all_enumerable_constructions() {
    let mut cases: Vec<(String, Vec<ServerSet>, usize, f64)> = Vec::new();
    {
        let mut push = |name: String, quorums: &[ServerSet], n: usize, certified: f64| {
            cases.push((name, quorums.to_vec(), n, certified));
        };
        let t = ThresholdSystem::masking(12, 2).unwrap();
        let te = t.to_explicit(100_000).unwrap();
        push(t.name(), te.quorums(), 12, certify_and_check(&t));

        let g = GridSystem::new(5, 1).unwrap();
        let ge = g.to_explicit(100_000).unwrap();
        push(g.name(), ge.quorums(), 25, certify_and_check(&g));

        let m = MGridSystem::new(5, 2).unwrap();
        let me = m.to_explicit(100_000).unwrap();
        push(m.name(), me.quorums(), 25, certify_and_check(&m));

        let rt = RtSystem::new(4, 3, 2).unwrap();
        let rte = rt.to_explicit(100_000).unwrap();
        push(rt.name(), rte.quorums(), 16, certify_and_check(&rt));

        let fpp = FppSystem::new(3).unwrap();
        let fe = fpp.to_explicit().unwrap();
        push(fpp.name(), fe.quorums(), 13, certify_and_check(&fpp));

        let maj = MajoritySystem::new(9).unwrap();
        let maje = maj.to_explicit(100_000).unwrap();
        push(maj.name(), maje.quorums(), 9, certify_and_check(&maj));

        let rg = GridSystem::new(4, 0).unwrap();
        let rge = rg.to_explicit(100).unwrap();
        push(rg.name(), rge.quorums(), 16, certify_and_check(&rg));
    }
    for (name, quorums, n, certified) in cases {
        let (lp_load, _) = optimal_load(&quorums, n).unwrap();
        assert!(
            (certified - lp_load).abs() <= 1e-9,
            "{name}: certified {certified} vs explicit LP {lp_load}"
        );
    }
}

/// boostFPP's certified load against the explicit LP of its materialised
/// composition (FPP(2) over Thresh(4-of-5): 875 composed quorums, n = 35).
#[test]
fn certified_boost_fpp_load_matches_explicit_composition() {
    let sys = BoostFppSystem::new(2, 1).unwrap();
    let certified = certify_and_check(&sys);
    let outer = FppSystem::new(2).unwrap().to_explicit().unwrap();
    let inner = ThresholdSystem::minimal_masking(1)
        .unwrap()
        .to_explicit(100)
        .unwrap();
    let composed = compose_explicit(&outer, &inner, 10_000).unwrap();
    let (lp_load, _) = optimal_load(composed.quorums(), 35).unwrap();
    assert!(
        (certified - lp_load).abs() <= 1e-9,
        "certified {certified} vs explicit composed LP {lp_load}"
    );
}

/// The minimal quorums of `sys`, by `is_available` alone: every available
/// set of its `n ≤ 16` servers from which removing any one server leaves no
/// quorum.
fn minimal_quorums(sys: &(impl QuorumSystem + ?Sized)) -> Vec<ServerSet> {
    let n = sys.universe_size();
    assert!(n <= 16, "{}: 2^{n} masks is too many", sys.name());
    let mut set = ServerSet::new(n);
    let available: Vec<bool> = (0..1u64 << n)
        .map(|mask| {
            set.assign_mask_u64(mask);
            sys.is_available(&set)
        })
        .collect();
    (0..1u64 << n)
        .filter(|&mask| {
            available[mask as usize]
                && (0..n)
                    .filter(|&i| mask >> i & 1 == 1)
                    .all(|i| !available[(mask ^ 1 << i) as usize])
        })
        .map(|mask| ServerSet::from_indices(n, (0..n).filter(|&i| mask >> i & 1 == 1)))
        .collect()
}

/// The smallest quorum size `c(Q)` and the explicit-LP load of a minimal
/// quorum list.
fn ground_truth(minimal: &[ServerSet], n: usize) -> (usize, f64) {
    let smallest = minimal.iter().map(ServerSet::len).min().expect("a quorum");
    let (load, _) = optimal_load(minimal, n).unwrap();
    (smallest, load)
}

/// Every certified roster instance that can be enumerated agrees with its
/// own minimal quorums: the smallest has `min_quorum_size()` servers, and
/// their explicit LP, the certificate and the closed form give one load.
#[test]
fn certified_roster_matches_its_minimal_quorums() {
    for side in [3, 4] {
        for b in [0, 1, 2] {
            for sys in certified_constructions(side, b) {
                let n = sys.universe_size();
                let (smallest, lp_load) = ground_truth(&minimal_quorums(sys.as_ref()), n);
                let certified = certify_and_check(sys.as_ref());
                assert_eq!(smallest, sys.min_quorum_size(), "{}: c(Q)", sys.name());
                for (what, load) in [("certified", certified), ("analytic", sys.analytic_load())] {
                    assert!(
                        (load - lp_load).abs() <= 1e-9,
                        "{}: {what} load {load} vs explicit LP {lp_load}",
                        sys.name()
                    );
                }
            }
        }
    }
}

/// M-Path at sides 3 and 4 against its minimal quorums, bent crossings
/// included: `c(Q) = k·side` (each of `k` disjoint left-right crossings has
/// a server in every column), and the explicit-LP load is at least
/// `c(Q)/n = k/side` (Theorem 4.1). Both lie strictly below Proposition
/// 7.2's straight-line values, which `min_quorum_size()` and
/// `analytic_load()` report as upper bounds. The pricing oracle declines,
/// so nothing certifies a load.
#[test]
fn mpath_ground_truth_lies_below_the_straight_line_bounds() {
    for (side, b, count, lp_expected) in [
        (3, 0, 26, 0.5),
        (3, 1, 9, 0.8),
        (4, 0, 278, 0.383562),
        (4, 1, 282, 0.642857),
    ] {
        let m = MPathSystem::new(side, b).unwrap();
        let minimal = minimal_quorums(&m);
        let (smallest, load) = ground_truth(&minimal, side * side);
        let k = m.paths_per_direction();
        let name = m.name();
        assert_eq!(minimal.len(), count, "{name}: minimal quorums");
        assert_eq!(smallest, k * side, "{name}: c(Q)");
        assert!(smallest < m.min_quorum_size(), "{name}");
        assert!((load - lp_expected).abs() <= 1e-6, "{name}: L = {load}");
        assert!(k as f64 / side as f64 <= load, "{name}: L = {load}");
        assert!(load < m.analytic_load(), "{name}: L = {load}");
        assert!(optimal_load_oracle(&m).is_err(), "{name} certified");
    }
}

/// The certified engine agrees with the generic explicit-system oracle path:
/// running column generation against an `ExplicitQuorumSystem`'s scan oracle
/// must land on the same optimum as the dense LP even for unfair systems.
#[test]
fn certified_load_on_unfair_explicit_system() {
    let quorums = vec![
        ServerSet::from_indices(5, [0, 1]),
        ServerSet::from_indices(5, [0, 2, 3]),
        ServerSet::from_indices(5, [1, 2, 4]),
        ServerSet::from_indices(5, [0, 3, 4]),
        ServerSet::from_indices(5, [1, 3, 4]),
    ];
    let sys = ExplicitQuorumSystem::new(5, quorums.clone()).unwrap();
    let certified = certify_and_check(&sys);
    let (lp_load, _) = optimal_load(&quorums, 5).unwrap();
    assert!(
        (certified - lp_load).abs() <= 1e-9,
        "certified {certified} vs explicit LP {lp_load}"
    );
}

/// Regression (Corollary 4.2): at `n ≥ 256` the certified LP load of each
/// load-optimal construction stays within a small constant of the universal
/// lower bound `√((2b+1)/n)` — M-Grid within `√2·√((b+1)/(2b+1)) ≈ √2`,
/// boostFPP within ~1.7 (Propositions 5.2, 6.2).
#[test]
fn certified_loads_track_the_universal_bound_at_scale() {
    let cases: Vec<(Box<dyn MinWeightQuorumOracle>, usize, f64)> = vec![
        (Box::new(MGridSystem::new(16, 7).unwrap()), 7, 2.1),
        (Box::new(MGridSystem::new(32, 15).unwrap()), 15, 2.1),
        (Box::new(BoostFppSystem::new(3, 12).unwrap()), 12, 1.8),
        (Box::new(BoostFppSystem::new(3, 19).unwrap()), 19, 1.8),
    ];
    for (sys, b, factor) in &cases {
        let sys = sys.as_ref();
        let n = sys.universe_size();
        assert!(n >= 256, "{}: n = {n}", sys.name());
        let certified = certify_and_check(sys);
        let bound = ((2 * b + 1) as f64 / n as f64).sqrt();
        assert!(
            certified >= bound - 1e-9,
            "{}: certified load {certified} below the universal bound {bound}",
            sys.name()
        );
        assert!(
            certified <= factor * bound,
            "{}: certified load {certified} more than {factor}x the bound {bound}",
            sys.name()
        );
    }
}
