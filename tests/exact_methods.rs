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
//!   preserved;
//! * the **dispatch table** — every method tag and value bit of the paper
//!   roster and the exact-method instances, pinned.

use byzantine_quorums::analysis::load_analysis::{CertifiableConstruction, PaperConstruction};
use byzantine_quorums::combinatorics::projective::ProjectivePlane;
use byzantine_quorums::prelude::*;

const P_GRID: [f64; 9] = [0.01, 0.05, 0.1, 0.125, 0.2, 0.25, 0.33, 0.4, 0.5];

/// The system's own answer at one point (closed form or DP), without the
/// engine's fallbacks.
fn own_answer(sys: &dyn QuorumSystem, p: f64) -> Option<f64> {
    sys.certified_crash_probabilities(&[p])
        .map(|one| one[0].value)
}

/// The FPP survivor-profile closed form is bit-level exact against full
/// enumeration for every enumerable plane, and the profile identity
/// `Σ_m N_m = 2^n − Σ_m (subsets containing a line)` is consistent.
#[test]
fn fpp_closed_form_parity_with_enumeration() {
    let eval = Evaluator::new();
    for q in [2u64, 3] {
        let fpp = FppSystem::new(q).unwrap();
        for &p in &P_GRID {
            let closed = own_answer(&fpp, p).unwrap();
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
        let closed = own_answer(&sys, p).unwrap();
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
            let exact = own_answer(&sys, p).expect("q <= 4 planes have profiles");
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
            let fp = own_answer(&sys, p).unwrap();
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
/// `side ≤ 4` instance (the enumeration checks availability by the capped
/// blocking-path search, so this pins the sweep against the per-configuration
/// decision end to end).
#[test]
fn mpath_dp_parity_with_enumeration() {
    let eval = Evaluator::new();
    // Side 4 costs 2^16 availability checks per point and is already
    // covered (at both b values) by the bqs-constructions unit tests; the
    // facade-level smoke keeps the cheap side-3 instances.
    let cases: &[(usize, usize, &[f64])] = &[
        (3, 0, &[0.05, 0.25, 0.5, 0.75]),
        (3, 1, &[0.05, 0.25, 0.5, 0.75]),
    ];
    for &(side, b, ps) in cases {
        let m = MPathSystem::new(side, b).unwrap();
        for &p in ps {
            let dp = own_answer(&m, p).unwrap();
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
        let exact = own_answer(&m, p).unwrap();
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

/// No M-Path is answered by enumeration: the engine asks the construction
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

/// The dispatch table, recorded before the construction hooks were merged
/// into one: every paper-roster instance at `(side, b)` = (16, 3) and
/// (24, 7), M-Path sides 3–6, FPP q = 2–4 and boostFPP q = 3 and 5 keep the
/// method tag and the value bits of every point — Monte-Carlo rows at a
/// fixed seed and 200 trials, whose bits only the availability decision
/// moves.
#[test]
fn dispatch_table_keeps_every_method_and_value_bit() {
    let eval = Evaluator::new().with_trials(200).with_seed(23);
    let ps = [0.05, 0.125, 0.25, 0.4];
    let mut systems: Vec<Box<dyn CertifiableConstruction>> = [(16, 3), (24, 7)]
        .into_iter()
        .flat_map(|(side, b)| {
            PaperConstruction::ALL
                .into_iter()
                .filter_map(move |kind| kind.instance(side, b))
        })
        .collect();
    for side in 3..=6 {
        systems.push(Box::new(MPathSystem::new(side, 1).unwrap()));
    }
    for q in 2..=4 {
        systems.push(Box::new(FppSystem::new(q).unwrap()));
    }
    systems.push(Box::new(BoostFppSystem::new(3, 19).unwrap()));
    systems.push(Box::new(BoostFppSystem::new(5, 2).unwrap()));
    let table: Vec<String> = systems
        .iter()
        .map(|sys| {
            let sys: &dyn QuorumSystem = sys.as_ref();
            let mut row = sys.name();
            for est in eval.sweep(sys, &ps) {
                row += &format!(" {}:{:016x}", est.method.label(), est.value.to_bits());
            }
            row
        })
        .collect();
    assert_eq!(table, DISPATCH_TABLE.lines().collect::<Vec<_>>());
}

const DISPATCH_TABLE: &str = "\
Threshold(132-of-256) closed_form:2d4a50a40c232f77 closed_form:36a7b2341de18c9b closed_form:3cac0b9f8e3a8a09 closed_form:3f6523b6d7bd2e34
Grid(n=256, b=3) closed_form:3fd9637437ea2db8 closed_form:3feff4bf035ddf7b closed_form:3feffffffff598af closed_form:3ff0000000000000
M-Grid(n=256, b=3) closed_form:3f644f2c425d3e00 closed_form:3fe3d3c1e636cce0 closed_form:3feffd4687ad82bf closed_form:3fefffffffa0ac91
M-Path(n=256, b=3) monte_carlo:0000000000000000 monte_carlo:0000000000000000 monte_carlo:3fa70a3d70a3d70a monte_carlo:3feb851eb851eb85
RT(4, 3) depth 4 closed_form:3dfa89a79fb62c2f closed_form:3f30288eaa43f4f3 closed_form:3fd81cdbb461bd3c closed_form:3feff6b2dbae6be3
boostFPP(q=4, b=3) closed_form:3d9a930a15647367 closed_form:3f03d37831a9db5e closed_form:3fd6244c4b51c347 closed_form:3fefe8c30b2ce350
FPP(q=16) monte_carlo:0000000000000000 monte_carlo:0000000000000000 monte_carlo:3fcd70a3d70a3d71 monte_carlo:3fef0a3d70a3d70a
Threshold(296-of-576) closed_form:1658d16119b9c867 closed_form:2b62fb4320e4ad8f closed_form:38e042cae7d2dca7 closed_form:3ee92f49b0905b41
Grid(n=576, b=7) closed_form:3feffa1da834a16a closed_form:3feffffffffffff5 closed_form:3ff0000000000000 closed_form:3ff0000000000000
M-Grid(n=576, b=7) closed_form:3f9c647f2d348340 closed_form:3fefabbeef73aa88 closed_form:3feffffffff8e57f closed_form:3ff0000000000000
M-Path(n=576, b=7) monte_carlo:0000000000000000 monte_carlo:0000000000000000 monte_carlo:3f747ae147ae147b monte_carlo:3fed47ae147ae148
RT(4, 3) depth 5 closed_form:3c3081806789b5d4 closed_form:3e987836e48ab14f closed_form:3fdefeb40513fdd2 closed_form:3feffffffcdbfb50
boostFPP(q=4, b=7) closed_form:3bdc984c904b1e15 closed_form:3e80ce04a68315b0 closed_form:3fdb2735f314b711 closed_form:3fefffe5889746e5
FPP(q=23) monte_carlo:0000000000000000 monte_carlo:0000000000000000 monte_carlo:3fe0cccccccccccd monte_carlo:3fefd70a3d70a3d7
M-Path(n=9, b=1) dp:3fac5e4bbf71199d dp:3fd06d7d80000000 dp:3fe3e5c000000000 dp:3fec5b6adfc7d13a
M-Path(n=16, b=1) dp:3f85daa790800d85 dp:3fbee181ddc05200 dp:3fe027f345400000 dp:3febe40b68ac084b
M-Path(n=25, b=1) dp:3f5c2dafa672967e dp:3fa955e9a7f7cf3a dp:3fd8c912f8360c80 dp:3feb29a6378339ee
M-Path(n=36, b=1) dp:3f30792773f6f424 dp:3f9307d506e77a3e dp:3fd239797f54ea02 dp:3fea523c90e6b30d
FPP(q=2) closed_form:3f4c77b1e844f859 closed_form:3f8ad88000000000 closed_form:3fb7f80000000000 closed_form:3fd3c90aa06cf274
FPP(q=3) closed_form:3f15fce6ffd83b97 closed_form:3f6cfd6e2e800000 closed_form:3fad217500000000 closed_form:3fd299c371be4372
FPP(q=4) closed_form:3eddaa88d06be1ec closed_form:3f4ee5133d3b224a closed_form:3fa40a3b900f0000 closed_form:3fd36520b8ab088a
boostFPP(q=3, b=19) closed_form:38a49e235847941b closed_form:3dadce8bb5ee0fec closed_form:3fdc588af7f9f97d closed_form:3feffffffef53c21
boostFPP(q=5, b=2) closed_form:3da74c25adcd76da closed_form:3eff483d0be313bb closed_form:3fd59802e104fe65 closed_form:3fefd901429cda61";
