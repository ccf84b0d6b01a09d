//! Cross-crate parity and envelope tests for the exact evaluation paths this
//! engine added for the paper's two headline constructions:
//!
//! * **boostFPP** — the survivor-profile closed form (`F_p(boost) =
//!   F_{r(p)}(FPP)` by Theorem 4.7, with the FPP evaluated through the
//!   projective plane's line-free profile) against `Evaluator::exact`
//!   enumeration on every feasible small instance, and against the paper's
//!   analytic envelope (Propositions 6.3 / 4.3) across a `p` grid;
//! * **M-Path** — the transfer-matrix boundary-interface DP against
//!   enumeration on every feasible `side ≤ 4` instance, and against the
//!   counting bound / resilience lower bound across a `p` grid;
//! * the **batched sweep engine** — bit-for-bit parity between
//!   `Evaluator::sweep` and one-call-at-a-time evaluation, with method tags
//!   preserved.

use byzantine_quorums::combinatorics::projective::ProjectivePlane;
use byzantine_quorums::prelude::*;

const P_GRID: [f64; 9] = [0.01, 0.05, 0.1, 0.125, 0.2, 0.25, 0.33, 0.4, 0.5];

/// The FPP survivor-profile closed form is bit-level exact against full
/// enumeration for every enumerable plane, and the profile identity
/// `Σ_m N_m = 2^n − Σ_m (subsets containing a line)` is consistent.
#[test]
fn fpp_closed_form_parity_with_enumeration() {
    let eval = Evaluator::new();
    for q in [2u64, 3] {
        let fpp = FppSystem::new(q).unwrap();
        for &p in &P_GRID {
            let closed = fpp.crash_probability_exact(p).unwrap();
            let enumerated = eval.exact(&fpp, p).unwrap();
            assert!(
                (closed - enumerated).abs() < 1e-9,
                "q={q} p={p}: closed {closed} vs enumerated {enumerated}"
            );
        }
        let profile = ProjectivePlane::new(q)
            .unwrap()
            .line_free_profile()
            .unwrap();
        let n = fpp.universe_size();
        let total: u64 = profile.iter().sum();
        assert!(total < 1u64 << n, "line-free subsets must not cover 2^n");
        assert_eq!(profile[0], 1, "the empty set is line-free");
        assert_eq!(*profile.last().unwrap(), 0, "the full set contains lines");
    }
}

/// boostFPP parity with enumeration on the feasible small instance (q = 2,
/// b = 0 — the only boostFPP whose universe fits the 2^25 exact limit), plus
/// the composition law checked against a materialised composition at n = 9.
#[test]
fn boostfpp_closed_form_parity_with_enumeration() {
    let eval = Evaluator::new();
    let sys = BoostFppSystem::new(2, 0).unwrap();
    for &p in &P_GRID {
        let closed = sys.crash_probability_exact(p).unwrap();
        let enumerated = eval.exact(&sys, p).unwrap();
        assert!(
            (closed - enumerated).abs() < 1e-9,
            "p={p}: closed {closed} vs enumerated {enumerated}"
        );
    }
}

/// The paper's analytic envelope brackets the exact boostFPP value across
/// the whole p grid, for the Section 8 instance included.
#[test]
fn boostfpp_exact_inside_paper_envelope() {
    for (q, b) in [(2u64, 1usize), (3, 7), (3, 19), (4, 10)] {
        let sys = BoostFppSystem::new(q, b).unwrap();
        for &p in &P_GRID {
            let exact = sys
                .crash_probability_exact(p)
                .expect("q <= 4 planes have profiles");
            assert!((0.0..=1.0).contains(&exact), "q={q} b={b} p={p}");
            if let Some(chernoff) = sys.crash_probability_prop_6_3_bound(p) {
                assert!(
                    exact <= chernoff + 1e-12,
                    "q={q} b={b} p={p}: exact {exact} above Chernoff {chernoff}"
                );
            }
            if p < 0.25 {
                let numeric = sys.crash_probability_numeric_bound(p);
                assert!(
                    exact <= numeric + 1e-12,
                    "q={q} b={b} p={p}: exact {exact} above numeric {numeric}"
                );
            }
            let lower = byzantine_quorums::core::bounds::crash_probability_lower_bound_resilience(
                p,
                sys.min_transversal(),
            );
            assert!(
                exact >= lower - 1e-12,
                "q={q} b={b} p={p}: exact {exact} below p^MT {lower}"
            );
        }
        // Monotone in p (any quorum-system F_p is).
        let mut prev = 0.0;
        for i in 0..=20 {
            let p = f64::from(i) / 20.0;
            let fp = sys.crash_probability_exact(p).unwrap();
            assert!(fp >= prev - 1e-12, "q={q} b={b} p={p}");
            prev = fp;
        }
    }
}

/// The paper-scale boostFPP(q=3, b=19) instance (n = 1001): the engine
/// dispatches to the closed form, the value is exact at every benched p —
/// including the p = 0.05 tail where Monte-Carlo reported a literal 0.
#[test]
fn boostfpp_paper_instance_is_exact_at_all_sweep_points() {
    let sys = BoostFppSystem::new(3, 19).unwrap();
    let eval = Evaluator::new();
    let fps = eval.sweep(&sys, &[0.05, 0.125, 0.25]);
    for fp in &fps {
        assert_eq!(fp.method, FpMethod::ClosedForm);
    }
    assert!(
        fps[0].value > 0.0 && fps[0].value < 1e-6,
        "{}",
        fps[0].value
    );
    assert!(fps[1].value <= 0.372, "{}", fps[1].value);
    assert!(fps[2].value > 0.1, "{}", fps[2].value);
}

/// M-Path transfer-matrix DP parity with enumeration on every feasible
/// `side ≤ 4` instance (the enumeration checks availability by max-flow, so
/// this also pins the self-matching duality end to end).
#[test]
fn mpath_dp_parity_with_enumeration() {
    let eval = Evaluator::new();
    // Side 4 costs 2^16 max-flow availability checks per point and is already
    // covered (at both b values) by the bqs-constructions unit tests; the
    // facade-level smoke keeps the cheap side-3 instances.
    let cases: &[(usize, usize, &[f64])] = &[
        (3, 0, &[0.05, 0.25, 0.5, 0.75]),
        (3, 1, &[0.05, 0.25, 0.5, 0.75]),
    ];
    for &(side, b, ps) in cases {
        let m = MPathSystem::new(side, b).unwrap();
        for &p in ps {
            let dp = m.crash_probability_exact(p).unwrap();
            let enumerated = eval.exact(&m, p).unwrap();
            assert!(
                (dp - enumerated).abs() < 1e-9,
                "side={side} b={b} p={p}: dp {dp} vs enumerated {enumerated}"
            );
        }
    }
}

/// M-Path exact values sit inside the paper's envelope across a p grid, on
/// an instance where enumeration is hopeless in practice (side 5: 2^25
/// configurations, each needing a max-flow — hours of work; the DP answers
/// each point in well under a second).
#[test]
fn mpath_exact_inside_paper_envelope_beyond_enumeration() {
    let m = MPathSystem::new(5, 2).unwrap();
    let mut prev = 0.0;
    for &p in &[0.05, 0.125, 0.25, 0.4, 0.6] {
        let exact = m.crash_probability_exact(p).unwrap();
        if let Some(upper) = m.crash_probability_counting_bound(p) {
            assert!(exact <= upper + 1e-12, "p={p}: {exact} above {upper}");
        }
        let lower = byzantine_quorums::core::bounds::crash_probability_lower_bound_resilience(
            p,
            m.min_transversal(),
        );
        assert!(exact >= lower - 1e-12, "p={p}: {exact} below {lower}");
        assert!(exact >= prev - 1e-12, "p={p}: not monotone");
        prev = exact;
    }
}

/// No M-Path is answered by enumeration: the engine asks the closed form
/// first, and every M-Path small enough to enumerate (side ≤ 5, `n ≤ 25`) is
/// inside the exact-DP gate (side ≤ 6). An evaluator told never to enumerate
/// therefore answers the same method with the same bits — which is why the
/// figure sweeps need no M-Path-only evaluator.
#[test]
fn mpath_inside_the_enumeration_limit_answers_by_dp_whatever_the_limit() {
    let plain = Evaluator::new().with_trials(50).with_seed(1);
    let never_enumerates = plain.clone().with_exact_limit(0);
    for side in 3..=5 {
        let m = MPathSystem::new(side, 1).unwrap();
        for p in [0.125, 0.4] {
            let a = plain.crash_probability(&m, p);
            let b = never_enumerates.crash_probability(&m, p);
            assert_eq!(a.method, FpMethod::Dp, "side={side} p={p}");
            assert_eq!(b.method, FpMethod::Dp, "side={side} p={p}");
            assert_eq!(a.value.to_bits(), b.value.to_bits(), "side={side} p={p}");
        }
    }
}

/// Sweep parity: the batched engine returns bit-for-bit the same estimates
/// and method tags as one-call-at-a-time single-threaded evaluation, across
/// a mixed closed-form / DP / Monte-Carlo grid.
#[test]
fn sweep_is_bit_for_bit_consistent_across_methods() {
    let boost = BoostFppSystem::new(3, 19).unwrap();
    let mpath_small = MPathSystem::new(4, 1).unwrap();
    let mpath_big = MPathSystem::new(9, 4).unwrap();
    let eval = Evaluator::new()
        .with_trials(200)
        .with_seed(99)
        .with_exact_limit(0);
    let serial = eval.clone().with_threads(1);
    let ps = [0.05, 0.125, 0.3];
    let systems: [&dyn QuorumSystem; 3] = [&boost, &mpath_small, &mpath_big];
    let grid = eval.sweep_systems(&systems, &ps);
    for (sys, row) in systems.iter().zip(&grid) {
        for (est, &p) in row.iter().zip(&ps) {
            let direct = serial.crash_probability(*sys, p);
            assert_eq!(est.method, direct.method, "{} p={p}", sys.name());
            assert_eq!(
                est.value.to_bits(),
                direct.value.to_bits(),
                "{} p={p}",
                sys.name()
            );
        }
    }
    // Dispatch expectations across the mixed grid.
    assert!(grid[0].iter().all(|e| e.method == FpMethod::ClosedForm));
    assert!(grid[1].iter().all(|e| e.method == FpMethod::Dp));
    assert!(grid[2].iter().all(|e| e.method == FpMethod::MonteCarlo));
    // Monte-Carlo rows carry non-degenerate Wilson bounds even on zero hits.
    for e in &grid[2] {
        assert!(e.ci95_upper_bound() > 0.0);
        assert!(e.ci95_upper_bound() >= e.value);
    }
}
