//! Machine-readable crash-probability benchmark: times the evaluation engine
//! across constructions, universe sizes and crash probabilities, and emits
//! `BENCH_fp.json` (schema v4) so future changes have a performance
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
//! Schema v4 adds a `fronts` section for the three raw-speed fronts of the
//! lane-widening PR, each with its own timings and acceptance gates:
//!
//! * `a_lane_enumeration`: the batched (`u64x4`) enumeration loop plus the
//!   count kernels of Threshold and the line-quorum grids — the engine's
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
//! The top level also records `availability_lanes` (the enumeration lane
//! width) next to the thread counts, so trajectory comparisons know both
//! axes of parallelism.
//!
//! Run with: `cargo run --release -p bqs-bench --bin bench_fp [--quick] [output.json]`
//!
//! `--quick` runs a reduced matrix **and asserts the dispatch table**: if an
//! exact-method construction (boostFPP at paper scale and at q = 5, M-Path at
//! the DP gate and in the pruned-DP band) silently degrades to Monte-Carlo,
//! or a front gate above fails, the process exits non-zero — the CI smoke
//! step runs this mode on every push.

use bqs_bench::{bench_args, json_escape, time};
use bqs_constructions::prelude::*;
use bqs_core::availability::availability_profile_naive;
use bqs_core::eval::{Evaluator, FpEstimate, FpMethod};
use bqs_core::quorum::{QuorumSystem, AVAILABILITY_LANES};

/// The committed v3 engine time for exact `F_p` on the n = 25 Grid at
/// `p = 0.125` (BENCH_fp.json, one core) — the baseline the lane-widened
/// enumeration front must beat by ≥ 2×.
const V3_GRID25_ENGINE_SECONDS: f64 = 0.2703;

struct Row {
    construction: String,
    n: usize,
    p: f64,
    method: &'static str,
    fp: f64,
    fp_upper95: Option<f64>,
    seconds: f64,
}

fn push_row(rows: &mut Vec<Row>, sys: &dyn QuorumSystem, p: f64, fp: FpEstimate, seconds: f64) {
    rows.push(Row {
        construction: sys.name(),
        n: sys.universe_size(),
        p,
        method: fp.method.label(),
        fp: fp.value,
        fp_upper95: (!fp.is_exact()).then(|| fp.ci95_upper_bound()),
        seconds,
    });
}

fn measure(rows: &mut Vec<Row>, evaluator: &Evaluator, sys: &dyn QuorumSystem, p: f64) -> FpMethod {
    let (fp, seconds) = time(|| evaluator.crash_probability(sys, p));
    let method = fp.method;
    push_row(rows, sys, p, fp, seconds);
    method
}

/// Forces enumeration (no closed form) through the engine, for timing.
fn measure_exact(rows: &mut Vec<Row>, evaluator: &Evaluator, sys: &dyn QuorumSystem, p: f64) {
    let (fp, seconds) = time(|| evaluator.exact(sys, p).expect("within exact limit"));
    rows.push(Row {
        construction: sys.name(),
        n: sys.universe_size(),
        p,
        method: "exact",
        fp,
        fp_upper95: None,
        seconds,
    });
}

/// Times the exact dispatch against the Monte-Carlo estimator it replaced.
struct MethodSpeedup {
    construction: String,
    p: f64,
    exact_method: &'static str,
    exact_fp: f64,
    exact_seconds: f64,
    mc_trials: usize,
    mc_fp: f64,
    mc_upper95: f64,
    mc_seconds: f64,
    ratio: f64,
}

/// A timing ratio with three significant digits at any magnitude: `{:.2}`
/// prints everything under 0.005 as `0.00`, which is what the M-Path row —
/// where the sampled estimate is the cheaper one — would read.
fn fmt_ratio(ratio: f64) -> String {
    let leading_zeros = if ratio > 0.0 && ratio < 1.0 {
        (-ratio.log10()).ceil() as usize
    } else {
        0
    };
    format!("{ratio:.*}", 2 + leading_zeros)
}

fn method_speedup(
    evaluator: &Evaluator,
    sys: &dyn QuorumSystem,
    p: f64,
    mc_trials: usize,
) -> MethodSpeedup {
    let (exact, exact_seconds) = time(|| evaluator.crash_probability(sys, p));
    assert!(
        exact.is_exact(),
        "{} did not dispatch to an exact method",
        sys.name()
    );
    let (mc, mc_seconds) = time(|| evaluator.monte_carlo_with(sys, p, mc_trials));
    let mc_est = FpEstimate {
        value: mc.mean,
        std_error: Some(mc.std_error),
        trials: Some(mc.trials),
        method: FpMethod::MonteCarlo,
        interval: None,
    };
    MethodSpeedup {
        construction: sys.name(),
        p,
        exact_method: exact.method.label(),
        exact_fp: exact.value,
        exact_seconds,
        mc_trials,
        mc_fp: mc.mean,
        mc_upper95: mc_est.ci95_upper_bound(),
        mc_seconds,
        ratio: mc_seconds / exact_seconds.max(1e-12),
    }
}

fn main() {
    let (quick, output) = bench_args("bench_fp", "BENCH_fp.json");
    let evaluator = Evaluator::new().with_trials(20_000).with_seed(0xBE7C);
    let ps: &[f64] = if quick {
        &[0.125]
    } else {
        &[0.05, 0.125, 0.25]
    };
    let mut rows: Vec<Row> = Vec::new();
    let mut dispatch_failures: Vec<String> = Vec::new();
    let mut expect = |name: &str, got: FpMethod, want: FpMethod| {
        if got != want {
            dispatch_failures.push(format!(
                "{name}: expected {} dispatch, got {}",
                want.label(),
                got.label()
            ));
        }
    };

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
        expect("Threshold(1024)", m, FpMethod::ClosedForm);
        let m = measure(&mut rows, &evaluator, &GridSystem::new(32, 10).unwrap(), p);
        expect("Grid(1024)", m, FpMethod::ClosedForm);
        let m = measure(&mut rows, &evaluator, &MGridSystem::new(32, 15).unwrap(), p);
        expect("M-Grid(1024)", m, FpMethod::ClosedForm);
        let m = measure(&mut rows, &evaluator, &RtSystem::new(4, 3, 5).unwrap(), p);
        expect("RT(1024)", m, FpMethod::ClosedForm);
        // boostFPP at n = 1001: previously the slowest, least accurate row
        // (Monte-Carlo, literally 0e0 at p = 0.05); now an exact closed form.
        let m = measure(&mut rows, &evaluator, &boost, p);
        expect("boostFPP(q=3, b=19)", m, FpMethod::ClosedForm);
        // boostFPP at plane order q = 5 (n = 31, past the 2^n wall): the
        // counting profile keeps the Theorem 4.7 composition exact.
        let m = measure(&mut rows, &evaluator, &boost5, p);
        expect("boostFPP(q=5, b=2)", m, FpMethod::ClosedForm);
        // M-Path at the DP gate (n = 36 — beyond the 2^25 enumeration limit).
        let m = measure(&mut rows, &evaluator, &mpath_dp, p);
        expect("M-Path(side=6)", m, FpMethod::Dp);
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
    let boost_speedup = method_speedup(&evaluator, &boost, 0.125, mc_trials);
    let mpath_speedup = method_speedup(
        &evaluator,
        &mpath_dp,
        0.125,
        if quick { 500 } else { 5_000 },
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
    assert_eq!(
        dp_batch[0].value.to_bits(),
        single_fp.value.to_bits(),
        "batched DP sweep diverged from single-point evaluation"
    );
    let dp_extra_points = dp_ps.len() - 1;
    let dp_per_extra_point =
        (dp_batch_seconds - dp_single_seconds).max(1e-12) / dp_extra_points as f64;
    let dp_sweep_speedup = dp_single_seconds / dp_per_extra_point;

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
    for (b_row, s_row) in batched.iter().zip(&serial) {
        for (b, s) in b_row.iter().zip(s_row) {
            assert_eq!(
                b.value.to_bits(),
                s.value.to_bits(),
                "sweep result diverged from single-point evaluation"
            );
        }
    }
    let serial_timing =
        (cores > 1).then(|| (serial_seconds, serial_seconds / batched_seconds.max(1e-12)));
    let sweep_points = sweep_systems.len() * sweep_ps.len();

    // ---- Front (a): lane-widened enumeration + count kernels. ----
    // The parity gate runs in every mode: the engine's availability profile
    // — count kernels for Threshold and the line-quorum grids, the 4-lane
    // batched loop for everything else — must equal the naive per-mask
    // reference's, integer for integer.
    let mut front_failures: Vec<String> = Vec::new();
    assert_eq!(
        AVAILABILITY_LANES, 4,
        "enumeration lane width changed; re-baseline the front (a) gates"
    );
    eprintln!("front (a): enumeration parity gates (count kernels and lane loop)...");
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
            if engine != naive {
                front_failures.push(format!(
                    "front (a): {name}: engine profile {:?} differs from the naive reference's {:?}",
                    engine.unavailable_by_alive(),
                    naive.unavailable_by_alive()
                ));
            }
        }
        t.elapsed().as_secs_f64()
    };

    // The n = 25 Grid acceptance measurement (kept from v1 for trajectory
    // continuity), now also judged against the committed v3 engine time.
    let grid25 = GridSystem::new(5, 1).unwrap();
    let p25 = 0.125;
    let (grid25_speedup, engine_fp, grid25_profile, naive_secs, engine_secs) = if quick {
        (None, 0.0, Vec::new(), 0.0, 0.0)
    } else {
        eprintln!("front (a): n = 24/25 count kernels vs the naive reference, the Grid vs the v3 baseline...");
        let (engine_fp, engine_secs) = time(|| evaluator.exact(&grid25, p25).unwrap());
        let (naive, naive_secs) = time(|| availability_profile_naive(&grid25).unwrap());
        assert_eq!(
            engine_fp.to_bits(),
            naive.crash_probability(p25).to_bits(),
            "engine F_p differs from the naive reference's"
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
                if engine.availability_profile(sys).unwrap() != reference {
                    front_failures.push(format!(
                        "front (a): {} profile at {threads} threads differs from the naive reference's",
                        sys.name()
                    ));
                }
            }
        }
        (
            Some(naive_secs / engine_secs.max(1e-12)),
            engine_fp,
            naive.unavailable_by_alive().to_vec(),
            naive_secs,
            engine_secs,
        )
    };
    let grid25_v3_speedup =
        grid25_speedup.map(|_| V3_GRID25_ENGINE_SECONDS / engine_secs.max(1e-12));

    // ---- Front (b): ε-pruned transfer-matrix DP past the exact wall. ----
    // Side 7 runs in every mode (the CI smoke gate for the certified-interval
    // path); side 8 — minutes on one core — only in the full run.
    eprintln!("front (b): pruned-DP certified interval at M-Path side 7 (~10 s on one core)...");
    let mpath7 = MPathSystem::new(7, 1).unwrap();
    let (est7, side7_seconds) = time(|| evaluator.crash_probability(&mpath7, p25));
    expect("M-Path(side=7)", est7.method, FpMethod::DpPruned);
    let (lower7, upper7) = est7.interval.unwrap_or((est7.value, est7.value));
    let width7 = upper7 - lower7;
    if !est7.is_certified() || width7 > 1e-9 {
        front_failures.push(format!(
            "front (b): side-7 pruned DP width {width7:e} exceeds the 1e-9 gate (certified: {})",
            est7.is_certified()
        ));
    }
    let fp7 = est7.value;
    push_row(&mut rows, &mpath7, p25, est7, side7_seconds);
    let side8 = if quick {
        None
    } else {
        eprintln!("front (b): side 8 (~2 min on one core)...");
        let mpath8 = MPathSystem::new(8, 1).unwrap();
        let (est8, side8_seconds) = time(|| evaluator.crash_probability(&mpath8, p25));
        expect("M-Path(side=8)", est8.method, FpMethod::DpPruned);
        let (lower8, upper8) = est8.interval.unwrap_or((est8.value, est8.value));
        if !est8.is_certified() || upper8 - lower8 > 1e-9 {
            front_failures.push(format!(
                "front (b): side-8 pruned DP width {:e} exceeds the 1e-9 gate (certified: {})",
                upper8 - lower8,
                est8.is_certified()
            ));
        }
        let fp8 = est8.value;
        push_row(&mut rows, &mpath8, p25, est8, side8_seconds);
        Some((fp8, lower8, upper8, side8_seconds))
    };

    // ---- Front (c): boostFPP counting profile at q = 5, q = 7 declines. ----
    eprintln!("front (c): q = 5 counting closed form and the q = 7 decline...");
    let (est_b5, boost5_seconds) = time(|| evaluator.crash_probability(&boost5, p25));
    if est_b5.method != FpMethod::ClosedForm {
        front_failures.push(format!(
            "front (c): boostFPP q = 5 dispatched to {} instead of the counting closed form",
            est_b5.method.label()
        ));
    }
    let boost7 = BoostFppSystem::new(7, 2).unwrap();
    let (q7_declined, q7_decline_seconds) = time(|| boost7.crash_probability_exact(p25).is_none());
    if !q7_declined {
        front_failures.push(
            "front (c): boostFPP q = 7 produced a closed form past the measured interface wall"
                .to_string(),
        );
    }
    if q7_decline_seconds > 1.0 {
        front_failures.push(format!(
            "front (c): boostFPP q = 7 took {q7_decline_seconds:.2} s to decline (must be instant)"
        ));
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!(
        "  \"schema\": \"bench_fp/v4\",\n  \"threads\": {},\n  \"available_parallelism\": {cores},\n  \"availability_lanes\": {AVAILABILITY_LANES},\n  \"quick\": {},\n  \"results\": [\n",
        evaluator.threads(),
        quick
    ));
    for (i, r) in rows.iter().enumerate() {
        let upper = r
            .fp_upper95
            .map(|u| format!(", \"fp_upper95\": {u:e}"))
            .unwrap_or_default();
        json.push_str(&format!(
            "    {{\"construction\": \"{}\", \"n\": {}, \"p\": {}, \"method\": \"{}\", \"fp\": {:e}{}, \"seconds\": {:e}}}{}\n",
            json_escape(&r.construction),
            r.n,
            r.p,
            r.method,
            r.fp,
            upper,
            r.seconds,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"fronts\": {\n");
    json.push_str(&format!(
        "    \"a_lane_enumeration\": {{\"availability_lanes\": {AVAILABILITY_LANES}, \"parity\": \"integer availability profile equal to the naive per-mask reference (asserted)\", \"parity_gate_seconds\": {lane_parity_seconds:e}"
    ));
    if let (Some(vs_naive), Some(vs_v3)) = (grid25_speedup, grid25_v3_speedup) {
        json.push_str(&format!(
            ", \"grid25\": {{\"construction\": \"{}\", \"p\": {p25}, \"fp\": {engine_fp:e}, \"unavailable_by_alive\": {grid25_profile:?}, \"naive_seconds\": {naive_secs:e}, \"engine_seconds\": {engine_secs:e}, \"speedup_vs_naive\": {vs_naive:.2}, \"v3_engine_seconds\": {V3_GRID25_ENGINE_SECONDS}, \"speedup_vs_v3\": {vs_v3:.2}}}",
            json_escape(&grid25.name())
        ));
    }
    json.push_str("},\n");
    json.push_str(&format!(
        "    \"b_pruned_dp\": {{\"width_gate\": 1e-9, \"epsilon\": {:e}, \"state_budget\": {}, \"side7\": {{\"p\": {p25}, \"fp\": {fp7:e}, \"lower\": {lower7:e}, \"upper\": {upper7:e}, \"width\": {width7:e}, \"seconds\": {side7_seconds:e}}}",
        bqs_constructions::mpath::PRUNED_DP_EPSILON,
        bqs_constructions::mpath::PRUNED_DP_STATE_BUDGET
    ));
    if let Some((fp8, lower8, upper8, side8_seconds)) = side8 {
        json.push_str(&format!(
            ", \"side8\": {{\"p\": {p25}, \"fp\": {fp8:e}, \"lower\": {lower8:e}, \"upper\": {upper8:e}, \"width\": {:e}, \"seconds\": {side8_seconds:e}}}",
            upper8 - lower8
        ));
    }
    json.push_str("},\n");
    json.push_str(&format!(
        "    \"c_boostfpp_counting\": {{\"q5\": {{\"construction\": \"{}\", \"n\": {}, \"p\": {p25}, \"method\": \"{}\", \"fp\": {:e}, \"seconds\": {boost5_seconds:e}}}, \"q7_declines_instantly\": {q7_declined}, \"q7_decline_seconds\": {q7_decline_seconds:e}}}\n",
        json_escape(&boost5.name()),
        boost5.universe_size(),
        est_b5.method.label(),
        est_b5.value
    ));
    json.push_str("  },\n");
    json.push_str("  \"exact_method_speedups\": {\n");
    for (key, s, last) in [
        ("boostfpp", &boost_speedup, false),
        ("mpath", &mpath_speedup, true),
    ] {
        json.push_str(&format!(
            "    \"{key}\": {{\"construction\": \"{}\", \"p\": {}, \"method\": \"{}\", \"exact_fp\": {:e}, \"exact_seconds\": {:e}, \"mc_trials\": {}, \"mc_fp\": {:e}, \"mc_upper95\": {:e}, \"mc_seconds\": {:e}, \"ratio_is\": \"mc_seconds / exact_seconds\", \"ratio\": {}}}{}\n",
            json_escape(&s.construction),
            s.p,
            s.exact_method,
            s.exact_fp,
            s.exact_seconds,
            s.mc_trials,
            s.mc_fp,
            s.mc_upper95,
            s.mc_seconds,
            fmt_ratio(s.ratio),
            if last { "" } else { "," }
        ));
    }
    json.push_str("  },\n");
    json.push_str(&format!(
        "  \"mpath_dp_sweep\": {{\"construction\": \"{}\", \"points\": {}, \"single_point_seconds\": {dp_single_seconds:e}, \"batched_seconds\": {dp_batch_seconds:e}, \"per_extra_point_seconds\": {dp_per_extra_point:e}, \"speedup_per_extra_point\": {dp_sweep_speedup:.2}}},\n",
        json_escape(&mpath_dp.name()),
        dp_ps.len()
    ));
    match serial_timing {
        Some((serial_seconds, sweep_ratio)) => json.push_str(&format!(
            "  \"sweep\": {{\"points\": {sweep_points}, \"batched_seconds\": {batched_seconds:e}, \"one_at_a_time_seconds\": {serial_seconds:e}, \"ratio\": {sweep_ratio:.2}}}"
        )),
        None => json.push_str(&format!(
            "  \"sweep\": {{\"points\": {sweep_points}, \"batched_seconds\": {batched_seconds:e}, \"comparison_skipped\": \"single-core container: parity vs per-point evaluation verified, wall-clock comparison meaningless without cross-point overlap\"}}"
        )),
    }
    if let Some(ratio) = grid25_speedup {
        json.push_str(&format!(
            ",\n  \"grid25_speedup\": {{\"construction\": \"{}\", \"p\": {}, \"fp\": {:e}, \"naive_seconds\": {:e}, \"engine_seconds\": {:e}, \"ratio\": {:.2}}}\n",
            json_escape(&grid25.name()),
            p25,
            engine_fp,
            naive_secs,
            engine_secs,
            ratio
        ));
    } else {
        json.push('\n');
    }
    json.push_str("}\n");
    std::fs::write(&output, &json).expect("write benchmark output");

    println!(
        "{:<24} {:>4} {:>7} {:>12} {:>14} {:>14} {:>12}",
        "construction", "n", "p", "method", "Fp", "Fp upper95", "seconds"
    );
    for r in &rows {
        println!(
            "{:<24} {:>4} {:>7} {:>12} {:>14.6e} {:>14} {:>12.6}",
            r.construction,
            r.n,
            r.p,
            r.method,
            r.fp,
            r.fp_upper95
                .map(|u| format!("{u:.3e}"))
                .unwrap_or_else(|| "-".into()),
            r.seconds
        );
    }
    println!();
    for s in [&boost_speedup, &mpath_speedup] {
        println!(
            "{} at p = {}: {} {:.6}s (exact fp {:.6e}) vs {}-trial Monte-Carlo {:.6}s -> Monte-Carlo time / exact time = {}{}",
            s.construction,
            s.p,
            s.exact_method,
            s.exact_seconds,
            s.exact_fp,
            s.mc_trials,
            s.mc_seconds,
            fmt_ratio(s.ratio),
            if s.ratio < 1.0 {
                " (the sampled estimate is the cheaper one; the exact method buys the digits sampling cannot reach)"
            } else {
                ""
            }
        );
    }
    println!(
        "M-Path DP p-grid of {} points: single point {dp_single_seconds:.3}s, batched {dp_batch_seconds:.3}s -> {dp_per_extra_point:.4}s per extra point ({dp_sweep_speedup:.1}x)",
        dp_ps.len()
    );
    match serial_timing {
        Some((serial_seconds, sweep_ratio)) => println!(
            "sweep of {sweep_points} points: batched {batched_seconds:.4}s vs one-at-a-time {serial_seconds:.4}s -> {sweep_ratio:.2}x"
        ),
        None => println!(
            "sweep of {sweep_points} points: batched {batched_seconds:.4}s, parity vs per-point verified (single core: wall-clock comparison skipped)"
        ),
    }
    if let (Some(ratio), Some(vs_v3)) = (grid25_speedup, grid25_v3_speedup) {
        println!(
            "n = 25 Grid exact F_p at p = {p25}: engine {engine_secs:.3}s vs naive {naive_secs:.3}s -> {ratio:.1}x ({vs_v3:.1}x vs the committed v3 engine time {V3_GRID25_ENGINE_SECONDS}s)"
        );
    }
    println!(
        "M-Path side-7 pruned DP at p = {p25}: certified width {width7:.3e} in {side7_seconds:.1}s"
    );
    if let Some((_, lower8, upper8, side8_seconds)) = side8 {
        println!(
            "M-Path side-8 pruned DP at p = {p25}: certified width {:.3e} in {side8_seconds:.1}s",
            upper8 - lower8
        );
    }
    println!(
        "boostFPP q = 5 counting closed form: {boost5_seconds:.4}s; q = 7 declines in {q7_decline_seconds:.4}s"
    );
    println!("wrote {output}");

    // Fail the process (after writing the JSON) so the CI smoke step goes red
    // when dispatch or the engine regresses.
    let mut failed = false;
    if !dispatch_failures.is_empty() {
        for f in &dispatch_failures {
            eprintln!("ERROR: dispatch regression: {f}");
        }
        failed = true;
    }
    if dp_sweep_speedup < 5.0 {
        eprintln!(
            "ERROR: batched M-Path DP sweep only {dp_sweep_speedup:.1}x cheaper per extra point (need >= 5x)"
        );
        failed = true;
    }
    if boost_speedup.ratio < 20.0 {
        eprintln!(
            "ERROR: boostFPP exact path is only {:.1}x faster than Monte-Carlo (need >= 20x)",
            boost_speedup.ratio
        );
        failed = true;
    }
    if let Some(ratio) = grid25_speedup {
        if ratio < 5.0 {
            eprintln!("ERROR: grid25 speedup {ratio:.1}x is below the 5x acceptance threshold");
            failed = true;
        }
    }
    if let Some(vs_v3) = grid25_v3_speedup {
        if vs_v3 < 2.0 {
            eprintln!(
                "ERROR: grid25 engine time is only {vs_v3:.2}x faster than the committed v3 baseline (need >= 2x)"
            );
            failed = true;
        }
    }
    if !front_failures.is_empty() {
        for f in &front_failures {
            eprintln!("ERROR: {f}");
        }
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
