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
//! comparison, which checks that the explicit load is `18/24` and that the
//! returned strategy induces exactly that load (both to `1e-9`). Every
//! missed check is reported after the JSON is written, and the exit status
//! is 1.

use bqs_analysis::load_analysis::{certified_constructions, CertifiableConstruction};
use bqs_bench::{bench_args, time, Gate, Json};
use bqs_combinatorics::subsets::KSubsets;
use bqs_constructions::prelude::*;
use bqs_core::load::{optimal_load, optimal_load_oracle};
use bqs_core::quorum::QuorumSystem;
use bqs_core::ServerSet;

/// Gap every certified result must beat (the engine's own default target).
const GAP_TOLERANCE: f64 = 1e-9;

/// Wall-clock budget per instance at the `n ≈ 1024` scale.
const SECONDS_BUDGET: f64 = 1.0;

/// Certifies `sys` through its pricing oracle: its `results` row, or `None`
/// (and a failed check) when the oracle declines.
fn certify(sys: &dyn CertifiableConstruction, gate: &mut Gate) -> Option<Json> {
    let name = sys.name();
    let (result, seconds) = time(|| optimal_load_oracle(sys));
    let certified = match result {
        Ok(certified) => certified,
        Err(e) => {
            gate.check(
                false,
                format!("{name}: oracle dispatch failed ({e:?}) — explicit-LP fallback would be required"),
            );
            return None;
        }
    };
    let (load, gap) = (certified.load, certified.gap);
    let analytic = sys.analytic_load();
    gate.check(
        gap <= GAP_TOLERANCE,
        format!("{name}: certified gap {gap:e} above 1e-9"),
    );
    gate.check(
        (load - analytic).abs() <= 1e-9,
        format!("{name}: certified load {load} disagrees with analytic {analytic}"),
    );
    gate.check(
        sys.universe_size() < 793 || seconds <= SECONDS_BUDGET,
        format!("{name}: certification took {seconds:.2}s (budget {SECONDS_BUDGET}s)"),
    );
    Some(Json::obj([
        ("construction", Json::str(name)),
        ("n", Json::num(sys.universe_size())),
        ("b", Json::num(sys.masking_b())),
        ("method", Json::str("column_generation")),
        ("load", Json::fixed(load, 12)),
        ("analytic_load", Json::fixed(analytic, 12)),
        ("gap", Json::sci(gap)),
        ("columns", Json::num(certified.columns)),
        ("rounds", Json::num(certified.rounds)),
        ("seconds", Json::sci(seconds)),
    ]))
}

fn main() {
    let (quick, output) = bench_args("bench_load", "BENCH_load.json");
    let sides: &[usize] = if quick { &[32] } else { &[16, 24, 32] };
    let b = 15usize;
    let mut gate = Gate::default();

    eprintln!("certifying L(Q) by column generation at sides {sides:?}...");
    // Exactly the roster the benchmark's load certification iterates.
    let rows: Vec<Json> = sides
        .iter()
        .flat_map(|&side| certified_constructions(side, b))
        .filter_map(|sys| certify(sys.as_ref(), &mut gate))
        .collect();

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
    gate.check(
        (explicit_load - 18.0 / 24.0).abs() <= 1e-9,
        format!("explicit {explicit_load} vs 18/24"),
    );
    let induced = strategy.induced_system_load(&quorums, n);
    gate.check(
        (induced - explicit_load).abs() <= 1e-9,
        format!("explicit strategy induces {induced}, LP reports {explicit_load}"),
    );
    gate.check(
        (explicit_load - cg.load).abs() <= 1e-6,
        format!("explicit {explicit_load} vs certified {}", cg.load),
    );
    let ratio = explicit_seconds / cg_seconds.max(1e-12);
    gate.check(
        ratio >= 100.0,
        format!("explicit-vs-CG speedup {ratio:.1}x is below the 100x acceptance threshold"),
    );

    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let report = Json::obj([
        ("schema", Json::str("bench_load/v1")),
        ("available_parallelism", Json::num(cores)),
        ("quick", Json::Bool(quick)),
        ("gap_tolerance", Json::sci(GAP_TOLERANCE)),
        ("results", Json::arr(rows)),
        (
            "explicit_vs_cg",
            Json::obj([
                ("construction", Json::str(t.name())),
                ("explicit_quorums", Json::num(quorums.len())),
                ("explicit_load", Json::fixed(explicit_load, 12)),
                ("explicit_seconds", Json::sci(explicit_seconds)),
                ("cg_load", Json::fixed(cg.load, 12)),
                ("cg_seconds", Json::sci(cg_seconds)),
                ("ratio", Json::fixed(ratio, 1)),
            ]),
        ),
    ]);
    gate.finish(&output, &report);
}
