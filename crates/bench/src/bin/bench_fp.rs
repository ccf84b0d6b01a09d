//! Machine-readable crash-probability benchmark: times the evaluation engine
//! across constructions, universe sizes and crash probabilities, and emits
//! `BENCH_fp.json` (schema v5) so future changes have a performance
//! trajectory to compare against.
//!
//! Schema v2 records, beyond the v1 per-point rows:
//!
//! * the dispatch method per row (`closed_form` / `dp` / `exact` /
//!   `monte_carlo`) plus the 95% Wilson upper bound for Monte-Carlo rows (a
//!   zero-hit row is no longer a silent `0e0`);
//! * per-method timings for the two constructions this engine made exact —
//!   boostFPP (survivor-profile closed form) and M-Path (transfer-matrix DP)
//!   — against the Monte-Carlo estimator they replaced;
//! * sweep-mode timing: the same `(system, p)` grid through
//!   [`Evaluator::sweep_systems`]'s persistent worker pool versus one
//!   `crash_probability` call at a time.
//!
//! Schema v3 adds:
//!
//! * `available_parallelism` at the top level, and an honest single-core
//!   annotation of the sweep comparison: on a one-core container batching
//!   cannot beat serial wall-clock, so the serial baseline is skipped there
//!   instead of recording a misleading `1.00` ratio;
//! * `mpath_dp_sweep`: the amortised cost of extra `p`-points under the
//!   batched transfer-matrix sweep (the state enumeration is shared across
//!   the grid), versus the single-point cost it previously paid per point.
//!
//! Schema v4 adds a `fronts` section for three raw-speed fronts, each with
//! its own timings and acceptance gates:
//!
//! * `a_lane_enumeration`: exact enumeration through the count kernels of
//!   Threshold and the line-quorum grids — the engine's
//!   integer availability profile asserted equal to the naive per-mask
//!   reference's (Grid, M-Grid and Threshold at n = 16 in every mode; Grid(5,1),
//!   M-Grid(5,2), Threshold(24,18) and Threshold(25,13) at every thread count
//!   in {1, 2, 3, 8} in the full run), the
//!   n = 25 Grid timed against both that reference and the committed v3
//!   engine time (gate: ≥ 2× over v3), and its 26 profile integers emitted
//!   (`p`-free, so comparable across machines);
//! * `b_pruned_dp`: the ε-pruned M-Path transfer-matrix sweep past the
//!   exact-DP wall — certified `[lower, upper]` widths recorded at side 7
//!   (every mode) and side 8 (full mode), gate: width ≤ 1e-9 at paper `p`;
//! * `c_boostfpp_counting`: the counting-profile closed form at plane order
//!   q = 5 (n = 31, past the `2^n` wall), gate: exact dispatch; and the
//!   measured-infeasible q = 7 declining instantly rather than hanging.
//!
//! Schema v5 drops the two `availability_lanes` fields: the enumeration
//! lane width is no longer part of the engine's interface (an explicit
//! quorum list scans four masks per pass inside its own count kernel).
//!
//! Run with: `cargo run --release -p bqs-bench --bin bench_fp [--quick] [output.json]`
//!
//! `--quick` runs a reduced matrix **and asserts the dispatch table**: if an
//! exact-method construction (boostFPP at paper scale and at q = 5, M-Path at
//! the DP gate and in the pruned-DP band) silently degrades to Monte-Carlo,
//! or a front gate above fails, the process exits non-zero — the CI smoke
//! step runs this mode on every push.

use bqs_bench::{bench_args, time, Gate, Json};
use bqs_constructions::prelude::*;
use bqs_core::availability::availability_profile_naive;
use bqs_core::eval::{Evaluator, FpEstimate, FpMethod};
use bqs_core::quorum::QuorumSystem;

/// The committed v3 engine time for exact `F_p` on the n = 25 Grid at
/// `p = 0.125` (BENCH_fp.json, one core) — the baseline the lane-widened
/// enumeration front must beat by ≥ 2×.
const V3_GRID25_ENGINE_SECONDS: f64 = 0.2703;

/// One `results` row: the estimate, its 95% upper bound unless it is exact,
/// and its time.
fn row(sys: &dyn QuorumSystem, p: f64, fp: FpEstimate, seconds: f64) -> Json {
    Json::obj([
        ("construction", Json::str(sys.name())),
        ("n", Json::num(sys.universe_size())),
        ("p", Json::num(p)),
        ("method", Json::str(fp.method.label())),
        ("fp", Json::sci(fp.value)),
    ])
    .with(
        "fp_upper95",
        (!fp.is_exact()).then(|| Json::sci(fp.ci95_upper_bound())),
    )
    .with("seconds", Json::sci(seconds))
}

fn measure(
    rows: &mut Vec<Json>,
    evaluator: &Evaluator,
    sys: &dyn QuorumSystem,
    p: f64,
) -> FpMethod {
    let (fp, seconds) = time(|| evaluator.crash_probability(sys, p));
    rows.push(row(sys, p, fp, seconds));
    fp.method
}

/// Forces enumeration (no closed form) through the engine, for timing.
fn measure_exact(rows: &mut Vec<Json>, evaluator: &Evaluator, sys: &dyn QuorumSystem, p: f64) {
    let (fp, seconds) = time(|| evaluator.exact(sys, p).expect("within exact limit"));
    rows.push(row(
        sys,
        p,
        FpEstimate::certain(fp, FpMethod::Exact),
        seconds,
    ));
}

/// A timing ratio with three significant digits at any magnitude: `{:.2}`
/// prints everything under 0.005 as `0.00`, which is what the M-Path row —
/// where the sampled estimate is the cheaper one — would read.
fn ratio_json(ratio: f64) -> Json {
    let leading_zeros = if ratio > 0.0 && ratio < 1.0 {
        (-ratio.log10()).ceil() as usize
    } else {
        0
    };
    Json::fixed(ratio, 2 + leading_zeros)
}

/// Times the exact dispatch against the Monte-Carlo estimator it replaced:
/// the `exact_method_speedups` entry and the Monte-Carlo / exact time ratio.
fn method_speedup(
    evaluator: &Evaluator,
    sys: &dyn QuorumSystem,
    p: f64,
    mc_trials: usize,
    gate: &mut Gate,
) -> (Json, f64) {
    let (exact, exact_seconds) = time(|| evaluator.crash_probability(sys, p));
    gate.check(
        exact.is_exact(),
        format!("{} did not dispatch to an exact method", sys.name()),
    );
    let mc_evaluator = evaluator.clone().with_trials(mc_trials);
    let (mc, mc_seconds) = time(|| mc_evaluator.monte_carlo(sys, p));
    let ratio = mc_seconds / exact_seconds.max(1e-12);
    let entry = Json::obj([
        ("construction", Json::str(sys.name())),
        ("p", Json::num(p)),
        ("method", Json::str(exact.method.label())),
        ("exact_fp", Json::sci(exact.value)),
        ("exact_seconds", Json::sci(exact_seconds)),
        ("mc_trials", Json::num(mc_trials)),
        ("mc_fp", Json::sci(mc.value)),
        ("mc_upper95", Json::sci(mc.ci95_upper_bound())),
        ("mc_seconds", Json::sci(mc_seconds)),
        ("ratio_is", Json::str("mc_seconds / exact_seconds")),
        ("ratio", ratio_json(ratio)),
    ]);
    (entry, ratio)
}

/// Records a dispatch regression when `got` is not the `want`ed method.
fn expect_dispatch(gate: &mut Gate, name: &str, got: FpMethod, want: FpMethod) {
    gate.check(
        got == want,
        format!(
            "dispatch regression: {name}: expected {} dispatch, got {}",
            want.label(),
            got.label()
        ),
    );
}

/// A pruned-DP front entry: the certified interval at `p` and its time.
fn pruned_side(p: f64, est: &FpEstimate, seconds: f64) -> Json {
    let (lower, upper) = est.interval.unwrap_or((est.value, est.value));
    Json::obj([
        ("p", Json::num(p)),
        ("fp", Json::sci(est.value)),
        ("lower", Json::sci(lower)),
        ("upper", Json::sci(upper)),
        ("width", Json::sci(upper - lower)),
        ("seconds", Json::sci(seconds)),
    ])
}

/// The side-`side` pruned-DP gate: dispatch and a certified width of at most
/// 1e-9.
fn check_pruned(gate: &mut Gate, side: usize, est: &FpEstimate) {
    expect_dispatch(
        gate,
        &format!("M-Path(side={side})"),
        est.method,
        FpMethod::DpPruned,
    );
    let (lower, upper) = est.interval.unwrap_or((est.value, est.value));
    gate.check(
        est.is_certified() && upper - lower <= 1e-9,
        format!(
            "front (b): side-{side} pruned DP width {:e} exceeds the 1e-9 gate (certified: {})",
            upper - lower,
            est.is_certified()
        ),
    );
}

fn main() {
    let (quick, output) = bench_args("bench_fp", "BENCH_fp.json");
    let evaluator = Evaluator::new().with_trials(20_000).with_seed(0xBE7C);
    let ps: &[f64] = if quick {
        &[0.125]
    } else {
        &[0.05, 0.125, 0.25]
    };
    let mut rows: Vec<Json> = Vec::new();
    // Every gate below is checked on `gate`; the process fails after the
    // JSON is written, so the CI smoke step goes red when dispatch or the
    // engine regresses.
    let mut gate = Gate::default();

    // The paper-scale instances (Section 8): every construction, including
    // the two this engine made exact, answers without sampling.
    let boost = BoostFppSystem::new(3, 19).unwrap();
    let boost5 = BoostFppSystem::new(5, 2).unwrap();
    let mpath_dp = MPathSystem::new(6, 3).unwrap();
    eprintln!("timing the dispatch matrix ({} p values)...", ps.len());
    for &p in ps {
        let m = measure(
            &mut rows,
            &evaluator,
            &ThresholdSystem::masking(1024, 255).unwrap(),
            p,
        );
        expect_dispatch(&mut gate, "Threshold(1024)", m, FpMethod::ClosedForm);
        let m = measure(&mut rows, &evaluator, &GridSystem::new(32, 10).unwrap(), p);
        expect_dispatch(&mut gate, "Grid(1024)", m, FpMethod::ClosedForm);
        let m = measure(&mut rows, &evaluator, &MGridSystem::new(32, 15).unwrap(), p);
        expect_dispatch(&mut gate, "M-Grid(1024)", m, FpMethod::ClosedForm);
        let m = measure(&mut rows, &evaluator, &RtSystem::new(4, 3, 5).unwrap(), p);
        expect_dispatch(&mut gate, "RT(1024)", m, FpMethod::ClosedForm);
        // boostFPP at n = 1001: previously the slowest, least accurate row
        // (Monte-Carlo, literally 0e0 at p = 0.05); now an exact closed form.
        let m = measure(&mut rows, &evaluator, &boost, p);
        expect_dispatch(&mut gate, "boostFPP(q=3, b=19)", m, FpMethod::ClosedForm);
        // boostFPP at plane order q = 5 (n = 31, past the 2^n wall): the
        // counting profile keeps the Theorem 4.7 composition exact.
        let m = measure(&mut rows, &evaluator, &boost5, p);
        expect_dispatch(&mut gate, "boostFPP(q=5, b=2)", m, FpMethod::ClosedForm);
        // M-Path at the DP gate (n = 36 — beyond the 2^25 enumeration limit).
        let m = measure(&mut rows, &evaluator, &mpath_dp, p);
        expect_dispatch(&mut gate, "M-Path(side=6)", m, FpMethod::Dp);
    }

    if !quick {
        // Paper-scale M-Path (side 32): exact crossing probabilities at this
        // width are beyond every known transfer-matrix state space, so the
        // engine samples — now with a Wilson upper bound instead of a bare 0.
        let mpath32 = MPathSystem::new(32, 7).unwrap();
        let mc_eval = evaluator.clone().with_trials(500).with_exact_limit(0);
        for &p in ps {
            measure(&mut rows, &mc_eval, &mpath32, p);
        }
        // Exact enumeration at n = 16 and n = 25 (the engine's parallel path).
        for &p in ps {
            measure_exact(&mut rows, &evaluator, &GridSystem::new(4, 1).unwrap(), p);
            measure_exact(&mut rows, &evaluator, &GridSystem::new(5, 1).unwrap(), p);
            measure_exact(&mut rows, &evaluator, &MGridSystem::new(4, 1).unwrap(), p);
            measure_exact(&mut rows, &evaluator, &MGridSystem::new(5, 2).unwrap(), p);
            measure_exact(
                &mut rows,
                &evaluator,
                &ThresholdSystem::masking(25, 5).unwrap(),
                p,
            );
        }
    }

    // Per-method timings for the constructions this engine made exact, vs the
    // Monte-Carlo estimator they replaced (same effort as the v1 benchmark).
    eprintln!("timing exact methods vs the Monte-Carlo they replaced...");
    let mc_trials = if quick { 2_000 } else { 20_000 };
    let (boost_speedup, boost_ratio) =
        method_speedup(&evaluator, &boost, 0.125, mc_trials, &mut gate);
    let mpath_trials = if quick { 500 } else { 5_000 };
    let (mpath_speedup, _) = method_speedup(&evaluator, &mpath_dp, 0.125, mpath_trials, &mut gate);
    gate.check(
        boost_ratio >= 20.0,
        format!(
            "boostFPP exact path is only {boost_ratio:.1}x faster than Monte-Carlo (need >= 20x)"
        ),
    );

    // The amortised M-Path DP sweep: the batched transfer-matrix sweep
    // shares one interface-state enumeration across the whole p-grid, so
    // each extra point costs a few multiply-adds per transition instead of a
    // fresh enumeration.
    eprintln!("timing the batched M-Path DP p-grid against per-point sweeps...");
    let dp_ps: Vec<f64> = (1..=4).map(|i| f64::from(i) * 0.06).collect();
    let dp_eval = evaluator.clone();
    let (single_fp, dp_single_seconds) = time(|| dp_eval.crash_probability(&mpath_dp, dp_ps[0]));
    let (dp_batch, dp_batch_seconds) = time(|| dp_eval.sweep(&mpath_dp, &dp_ps));
    gate.check(
        dp_batch[0].value.to_bits() == single_fp.value.to_bits(),
        "batched DP sweep diverged from single-point evaluation",
    );
    let dp_extra_points = dp_ps.len() - 1;
    let dp_per_extra_point =
        (dp_batch_seconds - dp_single_seconds).max(1e-12) / dp_extra_points as f64;
    let dp_sweep_speedup = dp_single_seconds / dp_per_extra_point;
    gate.check(
        dp_sweep_speedup >= 5.0,
        format!("batched M-Path DP sweep only {dp_sweep_speedup:.1}x cheaper per extra point (need >= 5x)"),
    );

    // Sweep-mode timing: the same grid of points through the persistent pool
    // versus one call at a time. The serial pass always runs — it is the
    // bit-identity parity check for the batched engine — but on a
    // single-core runner the pool cannot overlap points, so the wall-clock
    // *comparison* is skipped there (recording a ~1.00 ratio would read as
    // a regression).
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let sweep_ps: Vec<f64> = if quick {
        (1..=4).map(|i| f64::from(i) * 0.06).collect()
    } else {
        (1..=8).map(|i| f64::from(i) * 0.05).collect()
    };
    let thresh_sweep = ThresholdSystem::masking(1024, 255).unwrap();
    let sweep_systems: Vec<&dyn QuorumSystem> = vec![&boost, &thresh_sweep, &mpath_dp];
    let sweep_eval = evaluator.clone().with_trials(2_000);
    eprintln!(
        "timing batched sweep{}...",
        if cores > 1 {
            " vs one-call-at-a-time"
        } else {
            " (single core: parity checked, wall-clock comparison skipped)"
        }
    );
    let (batched, batched_seconds) = time(|| sweep_eval.sweep_systems(&sweep_systems, &sweep_ps));
    // The honest baseline: one `crash_probability` call per point with the
    // *default* (fully parallel) evaluator — what a caller without the sweep
    // API would write. Every method in this grid (closed form, DP,
    // Monte-Carlo) is bit-identical at any thread count, so the timing run
    // doubles as the parity check.
    let (serial, serial_seconds) = time(|| {
        sweep_systems
            .iter()
            .map(|sys| {
                sweep_ps
                    .iter()
                    .map(|&p| sweep_eval.crash_probability(*sys, p))
                    .collect::<Vec<_>>()
            })
            .collect::<Vec<_>>()
    });
    gate.check(
        batched
            .iter()
            .flatten()
            .zip(serial.iter().flatten())
            .all(|(b, s)| b.value.to_bits() == s.value.to_bits()),
        "sweep result diverged from single-point evaluation",
    );
    let sweep = Json::obj([
        ("points", Json::num(sweep_systems.len() * sweep_ps.len())),
        ("batched_seconds", Json::sci(batched_seconds)),
    ]);
    let sweep = if cores > 1 {
        sweep
            .with("one_at_a_time_seconds", Json::sci(serial_seconds))
            .with(
                "ratio",
                Json::fixed(serial_seconds / batched_seconds.max(1e-12), 2),
            )
    } else {
        sweep.with(
            "comparison_skipped",
            Json::str("single-core container: parity vs per-point evaluation verified, wall-clock comparison meaningless without cross-point overlap"),
        )
    };

    // ---- Front (a): enumeration through the count kernels. ----
    // The parity gate runs in every mode: the engine's availability profile
    // — the count kernels of Threshold and the line-quorum grids — must
    // equal the naive per-mask reference's, integer for integer.
    eprintln!("front (a): enumeration parity gates (count kernels)...");
    let lane_parity_seconds = {
        let t = std::time::Instant::now();
        let g16 = GridSystem::new(4, 1).unwrap();
        let mg16 = MGridSystem::new(4, 1).unwrap();
        let th16 = ThresholdSystem::masking(16, 3).unwrap();
        for (name, sys) in [
            ("Grid(n=16)", &g16 as &dyn QuorumSystem),
            ("M-Grid(n=16)", &mg16),
            ("Threshold(n=16)", &th16),
        ] {
            let engine = evaluator
                .availability_profile(sys)
                .expect("n = 16 is enumerable");
            let naive = availability_profile_naive(sys).expect("n = 16 is enumerable");
            gate.check(
                engine == naive,
                format!(
                    "front (a): {name}: engine profile {:?} differs from the naive reference's {:?}",
                    engine.unavailable_by_alive(),
                    naive.unavailable_by_alive()
                ),
            );
        }
        t.elapsed().as_secs_f64()
    };
    let mut lane_enumeration = Json::obj([
        (
            "parity",
            Json::str(
                "integer availability profile equal to the naive per-mask reference (asserted)",
            ),
        ),
        ("parity_gate_seconds", Json::sci(lane_parity_seconds)),
    ]);

    // The n = 25 Grid acceptance measurement (kept from v1 for trajectory
    // continuity), now also judged against the committed v3 engine time.
    let grid25 = GridSystem::new(5, 1).unwrap();
    let p25 = 0.125;
    let mut grid25_speedup = None;
    if !quick {
        eprintln!("front (a): n = 24/25 count kernels vs the naive reference, the Grid vs the v3 baseline...");
        let (engine_fp, engine_secs) = time(|| evaluator.exact(&grid25, p25).unwrap());
        let (naive, naive_secs) = time(|| availability_profile_naive(&grid25).unwrap());
        gate.check(
            engine_fp.to_bits() == naive.crash_probability(p25).to_bits(),
            "engine F_p differs from the naive reference's",
        );
        // The benchmark's three enumerated systems and the n = 25 Threshold:
        // every count kernel, at every thread count.
        let mgrid25 = MGridSystem::new(5, 2).unwrap();
        let threshold24 = ThresholdSystem::new(24, 18).unwrap();
        let threshold25 = ThresholdSystem::new(25, 13).unwrap();
        for (sys, reference) in [
            (&grid25 as &dyn QuorumSystem, naive.clone()),
            (&mgrid25, availability_profile_naive(&mgrid25).unwrap()),
            (
                &threshold24,
                availability_profile_naive(&threshold24).unwrap(),
            ),
            (
                &threshold25,
                availability_profile_naive(&threshold25).unwrap(),
            ),
        ] {
            for threads in [1, 2, 3, 8] {
                let engine = evaluator.clone().with_threads(threads);
                gate.check(
                    engine.availability_profile(sys).unwrap() == reference,
                    format!(
                        "front (a): {} profile at {threads} threads differs from the naive reference's",
                        sys.name()
                    ),
                );
            }
        }
        let vs_naive = naive_secs / engine_secs.max(1e-12);
        let vs_v3 = V3_GRID25_ENGINE_SECONDS / engine_secs.max(1e-12);
        gate.check(
            vs_naive >= 5.0,
            format!("grid25 speedup {vs_naive:.1}x is below the 5x acceptance threshold"),
        );
        gate.check(
            vs_v3 >= 2.0,
            format!("grid25 engine time is only {vs_v3:.2}x faster than the committed v3 baseline (need >= 2x)"),
        );
        let profile = naive.unavailable_by_alive().iter().map(Json::num);
        lane_enumeration = lane_enumeration.with(
            "grid25",
            Json::obj([
                ("construction", Json::str(grid25.name())),
                ("p", Json::num(p25)),
                ("fp", Json::sci(engine_fp)),
                ("unavailable_by_alive", Json::arr(profile)),
                ("naive_seconds", Json::sci(naive_secs)),
                ("engine_seconds", Json::sci(engine_secs)),
                ("speedup_vs_naive", Json::fixed(vs_naive, 2)),
                ("v3_engine_seconds", Json::num(V3_GRID25_ENGINE_SECONDS)),
                ("speedup_vs_v3", Json::fixed(vs_v3, 2)),
            ]),
        );
        grid25_speedup = Some(Json::obj([
            ("construction", Json::str(grid25.name())),
            ("p", Json::num(p25)),
            ("fp", Json::sci(engine_fp)),
            ("naive_seconds", Json::sci(naive_secs)),
            ("engine_seconds", Json::sci(engine_secs)),
            ("ratio", Json::fixed(vs_naive, 2)),
        ]));
    }

    // ---- Front (b): ε-pruned transfer-matrix DP past the exact wall. ----
    // Side 7 runs in every mode (the CI smoke gate for the certified-interval
    // path); side 8 — about a minute on one core — only in the full run.
    eprintln!("front (b): pruned-DP certified interval at M-Path side 7 (~5 s on one core)...");
    let mpath7 = MPathSystem::new(7, 1).unwrap();
    let (est7, side7_seconds) = time(|| evaluator.crash_probability(&mpath7, p25));
    check_pruned(&mut gate, 7, &est7);
    rows.push(row(&mpath7, p25, est7, side7_seconds));
    let mut pruned_dp = Json::obj([
        ("width_gate", Json::sci(1e-9)),
        (
            "epsilon",
            Json::sci(bqs_constructions::mpath::PRUNED_DP_EPSILON),
        ),
        (
            "state_budget",
            Json::num(bqs_constructions::mpath::PRUNED_DP_STATE_BUDGET),
        ),
        ("side7", pruned_side(p25, &est7, side7_seconds)),
    ]);
    if !quick {
        eprintln!("front (b): side 8 (~1 min on one core)...");
        let mpath8 = MPathSystem::new(8, 1).unwrap();
        let (est8, side8_seconds) = time(|| evaluator.crash_probability(&mpath8, p25));
        check_pruned(&mut gate, 8, &est8);
        rows.push(row(&mpath8, p25, est8, side8_seconds));
        pruned_dp = pruned_dp.with("side8", pruned_side(p25, &est8, side8_seconds));
    }

    // ---- Front (c): boostFPP counting profile at q = 5, q = 7 declines. ----
    eprintln!("front (c): q = 5 counting closed form and the q = 7 decline...");
    let (est_b5, boost5_seconds) = time(|| evaluator.crash_probability(&boost5, p25));
    gate.check(
        est_b5.method == FpMethod::ClosedForm,
        format!(
            "front (c): boostFPP q = 5 dispatched to {} instead of the counting closed form",
            est_b5.method.label()
        ),
    );
    let boost7 = BoostFppSystem::new(7, 2).unwrap();
    let (q7_declined, q7_decline_seconds) =
        time(|| boost7.certified_crash_probabilities(&[p25]).is_none());
    gate.check(
        q7_declined,
        "front (c): boostFPP q = 7 produced a closed form past the measured interface wall",
    );
    gate.check(
        q7_decline_seconds <= 1.0,
        format!(
            "front (c): boostFPP q = 7 took {q7_decline_seconds:.2} s to decline (must be instant)"
        ),
    );

    let report = Json::obj([
        ("schema", Json::str("bench_fp/v5")),
        ("threads", Json::num(evaluator.threads())),
        ("available_parallelism", Json::num(cores)),
        ("quick", Json::Bool(quick)),
        ("results", Json::arr(rows)),
        (
            "fronts",
            Json::obj([
                ("a_lane_enumeration", lane_enumeration),
                ("b_pruned_dp", pruned_dp),
                (
                    "c_boostfpp_counting",
                    Json::obj([
                        (
                            "q5",
                            Json::obj([
                                ("construction", Json::str(boost5.name())),
                                ("n", Json::num(boost5.universe_size())),
                                ("p", Json::num(p25)),
                                ("method", Json::str(est_b5.method.label())),
                                ("fp", Json::sci(est_b5.value)),
                                ("seconds", Json::sci(boost5_seconds)),
                            ]),
                        ),
                        ("q7_declines_instantly", Json::Bool(q7_declined)),
                        ("q7_decline_seconds", Json::sci(q7_decline_seconds)),
                    ]),
                ),
            ]),
        ),
        (
            "exact_method_speedups",
            Json::obj([("boostfpp", boost_speedup), ("mpath", mpath_speedup)]),
        ),
        (
            "mpath_dp_sweep",
            Json::obj([
                ("construction", Json::str(mpath_dp.name())),
                ("points", Json::num(dp_ps.len())),
                ("single_point_seconds", Json::sci(dp_single_seconds)),
                ("batched_seconds", Json::sci(dp_batch_seconds)),
                ("per_extra_point_seconds", Json::sci(dp_per_extra_point)),
                ("speedup_per_extra_point", Json::fixed(dp_sweep_speedup, 2)),
            ]),
        ),
        ("sweep", sweep),
    ])
    .with("grid25_speedup", grid25_speedup);
    gate.finish(&output, &report);
}
