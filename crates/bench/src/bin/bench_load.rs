//! Machine-readable load benchmark: times the certified column-generation
//! load engine across the certified load roster (`certified_constructions`:
//! every paper construction with an exact pricing oracle, so all but
//! M-Path) and universe sizes, and emits `BENCH_load.json` (schema v1) —
//! the `L(Q)` companion of `BENCH_fp.json`.
//!
//! Recorded per instance: the certified LP load, the closed-form
//! `analytic_load` it confirms, the certified optimality gap, the
//! working-set size, and the wall-clock cost, at `n ≈ 256 / 576 / 1024`
//! (the Section 8 scale the explicit LP could never reach — its variable
//! count is the quorum count, which is astronomic there). One instance both
//! paths can still solve (a 18-of-24 threshold with 134 596 explicit
//! quorums) is timed through **both** solvers for the speedup trajectory.
//!
//! Run with: `cargo run --release -p bqs-bench --bin bench_load [--quick] [output.json]`
//!
//! `--quick` runs the `n ≈ 1024` matrix only and **asserts the dispatch
//! table**: every roster construction must certify through its pricing
//! oracle (method `column_generation`, never the explicit-LP fallback), with
//! gap `≤ 1e-9`, within its time budget — the CI smoke step runs this mode on
//! every push, mirroring `bench_fp --quick`. Both modes run the explicit-LP
//! comparison, which asserts the explicit load is `18/24` and that the
//! returned strategy induces exactly that load (both to `1e-9`).

use bqs_analysis::load_analysis::{certified_constructions, CertifiableConstruction};
use bqs_bench::{bench_args, exit_on_failures, json_escape, time};
use bqs_combinatorics::subsets::KSubsets;
use bqs_constructions::prelude::*;
use bqs_core::load::{optimal_load, optimal_load_oracle, CertifiedLoad};
use bqs_core::quorum::QuorumSystem;
use bqs_core::ServerSet;

/// Gap every certified result must beat (the engine's own default target).
const GAP_TOLERANCE: f64 = 1e-9;

/// Wall-clock budget per instance at the `n ≈ 1024` scale.
const SECONDS_BUDGET: f64 = 1.0;

struct Row {
    construction: String,
    n: usize,
    b: usize,
    method: &'static str,
    load: f64,
    analytic_load: f64,
    gap: f64,
    columns: usize,
    rounds: usize,
    seconds: f64,
}

fn certify(sys: &dyn CertifiableConstruction, failures: &mut Vec<String>) -> Option<Row> {
    let (result, seconds) = time(|| optimal_load_oracle(sys));
    match result {
        Ok(CertifiedLoad {
            load,
            gap,
            columns,
            rounds,
            ..
        }) => {
            let analytic = sys.analytic_load();
            if gap > GAP_TOLERANCE {
                failures.push(format!("{}: certified gap {gap:e} above 1e-9", sys.name()));
            }
            if (load - analytic).abs() > 1e-9 {
                failures.push(format!(
                    "{}: certified load {load} disagrees with analytic {analytic}",
                    sys.name()
                ));
            }
            if sys.universe_size() >= 793 && seconds > SECONDS_BUDGET {
                failures.push(format!(
                    "{}: certification took {seconds:.2}s (budget {SECONDS_BUDGET}s)",
                    sys.name()
                ));
            }
            Some(Row {
                construction: sys.name(),
                n: sys.universe_size(),
                b: sys.masking_b(),
                method: "column_generation",
                load,
                analytic_load: analytic,
                gap,
                columns,
                rounds,
                seconds,
            })
        }
        Err(e) => {
            failures.push(format!(
                "{}: oracle dispatch failed ({e:?}) — explicit-LP fallback would be required",
                sys.name()
            ));
            None
        }
    }
}

fn main() {
    let (quick, output) = bench_args("bench_load", "BENCH_load.json");
    let sides: &[usize] = if quick { &[32] } else { &[16, 24, 32] };
    let b = 15usize;
    let mut rows: Vec<Row> = Vec::new();
    let mut failures: Vec<String> = Vec::new();

    eprintln!("certifying L(Q) by column generation at sides {sides:?}...");
    // Exactly the roster the benchmark's load certification iterates.
    for &side in sides {
        for sys in certified_constructions(side, b) {
            if let Some(row) = certify(sys.as_ref(), &mut failures) {
                rows.push(row);
            }
        }
    }

    // Explicit-LP versus column generation at the largest size the explicit
    // path can still solve: an 18-of-24 masking threshold with C(24, 18) =
    // 134 596 explicit quorum variables. The list is built straight from
    // `KSubsets`, in `ThresholdSystem::to_explicit`'s order (which would also
    // check 9·10⁹ pairwise intersections the LP never reads).
    eprintln!("timing the explicit LP against column generation (134596 quorums)...");
    let t = ThresholdSystem::masking(24, 5).unwrap();
    let n = t.universe_size();
    let quorums: Vec<ServerSet> = KSubsets::new(n, t.quorum_size())
        .map(|s| ServerSet::from_indices(n, s))
        .collect();
    let ((explicit_load, strategy), explicit_seconds) =
        time(|| optimal_load(&quorums, n).expect("explicit LP solves"));
    let (cg, cg_seconds) = time(|| optimal_load_oracle(&t).expect("oracle certifies"));
    assert!(
        (explicit_load - 18.0 / 24.0).abs() <= 1e-9,
        "explicit {explicit_load} vs 18/24"
    );
    let induced = strategy.induced_system_load(&quorums, n);
    assert!(
        (induced - explicit_load).abs() <= 1e-9,
        "explicit strategy induces {induced}, LP reports {explicit_load}"
    );
    assert!(
        (explicit_load - cg.load).abs() <= 1e-6,
        "explicit {explicit_load} vs certified {}",
        cg.load
    );
    let ratio = explicit_seconds / cg_seconds.max(1e-12);
    if ratio < 100.0 {
        failures.push(format!(
            "explicit-vs-CG speedup {ratio:.1}x is below the 100x acceptance threshold"
        ));
    }

    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!(
        "  \"schema\": \"bench_load/v1\",\n  \"available_parallelism\": {cores},\n  \"quick\": {quick},\n  \"gap_tolerance\": {GAP_TOLERANCE:e},\n  \"results\": [\n"
    ));
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"construction\": \"{}\", \"n\": {}, \"b\": {}, \"method\": \"{}\", \"load\": {:.12}, \"analytic_load\": {:.12}, \"gap\": {:e}, \"columns\": {}, \"rounds\": {}, \"seconds\": {:e}}}{}\n",
            json_escape(&r.construction),
            r.n,
            r.b,
            r.method,
            r.load,
            r.analytic_load,
            r.gap,
            r.columns,
            r.rounds,
            r.seconds,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]");
    json.push_str(&format!(
        ",\n  \"explicit_vs_cg\": {{\"construction\": \"{}\", \"explicit_quorums\": {}, \"explicit_load\": {explicit_load:.12}, \"explicit_seconds\": {explicit_seconds:e}, \"cg_load\": {:.12}, \"cg_seconds\": {cg_seconds:e}, \"ratio\": {ratio:.1}}}\n",
        json_escape(&t.name()),
        quorums.len(),
        cg.load
    ));
    json.push_str("}\n");
    std::fs::write(&output, &json).expect("write benchmark output");

    println!(
        "{:<26} {:>5} {:>3} {:>20} {:>14} {:>14} {:>10} {:>8} {:>10}",
        "construction", "n", "b", "method", "load", "analytic", "gap", "columns", "seconds"
    );
    for r in &rows {
        println!(
            "{:<26} {:>5} {:>3} {:>20} {:>14.9} {:>14.9} {:>10.1e} {:>8} {:>10.4}",
            r.construction,
            r.n,
            r.b,
            r.method,
            r.load,
            r.analytic_load,
            r.gap,
            r.columns,
            r.seconds
        );
    }
    println!(
        "\n{} ({} explicit quorums): explicit LP {explicit_seconds:.3}s vs column generation {cg_seconds:.5}s -> {ratio:.0}x",
        t.name(),
        quorums.len()
    );
    println!("wrote {output}");

    exit_on_failures(&failures);
}
