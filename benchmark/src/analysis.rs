//! The `analysis-pass` workload: the paper's own computations — exact and
//! estimated `F_p`, certified and explicit `L(Q)`, one re-certification —
//! as a fixed task list run in whole passes until `--seconds` have elapsed.
//! One pass is this workload's operation. `service` and `net` do no work.
//!
//! Values are cross-checked between independent methods to tolerances, never
//! to bits, so a change of floating-point reduction order inside the library
//! cannot break the benchmark.
//!
//! A pass is a fixed sequence of about 50 timed sub-tasks (one enumeration
//! point, one certification of the roster, one DP sweep, ...). The reported pass time is the sum over sub-tasks of each one's
//! [`quiet`] time across the passes — with three passes, its fastest — so a
//! disturbed spell of the machine costs a sub-task only if it hits that
//! sub-task in every pass.

use std::time::Instant;

use crate::adapter::{self, AnalysisInputs, Construction, Draws, FpEstimate, FpMethod};
use crate::procfs;
use crate::spec::{Better, MetricSet};
use crate::sys;
use crate::trace::{self, Span, TraceClock};
use crate::{quiet, RunArgs, RunOutcome};

/// Set-up cycles (construct every system and table) on each side of the
/// passes; `setup_s` is taken over both groups.
const SETUP_CYCLES: usize = 5;
/// Values of p per enumerated system. (The issue that asked for this
/// benchmark said 24, and 20 certification repeats; halving both makes a
/// pass 6.5 s, so that four passes fit a run instead of three.)
const ENUMERATION_POINTS: usize = 12;
const DP_POINTS: usize = 8;
const MONTE_CARLO_TRIALS: usize = 1_500;
const MONTE_CARLO_P: f64 = 0.125;
/// The certification roster is cheap, so it is repeated to be measurable.
const CERTIFY_REPEATS: usize = 10;

/// The task groups of a pass; each is one engine of the library.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Group {
    Enumeration,
    DpSide6,
    DpSide5,
    MonteCarlo,
    ClosedForms,
    Certify,
    ExplicitLp,
    Recertify,
}

impl Group {
    fn span_name(self) -> &'static str {
        match self {
            Group::Enumeration => "core.eval.enumerate",
            Group::DpSide6 => "graph.crossing_dp.side6",
            Group::DpSide5 => "graph.crossing_dp.side5",
            Group::MonteCarlo => "graph.maxflow.monte_carlo",
            Group::ClosedForms => "core.eval.closed_forms",
            Group::Certify => "core.load.certify",
            Group::ExplicitLp => "core.load.explicit_lp",
            Group::Recertify => "epoch.planner.recertify",
        }
    }
}

/// One timed sub-task of one pass.
#[derive(Debug, Clone, Copy)]
struct Sample {
    group: Group,
    wall_ns: u64,
    /// Process CPU time, every thread of the library's pools included.
    cpu_ns: u64,
}

/// The counts a pass produces that repeat exactly.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct PassCounts {
    cg_rounds: u64,
    cg_columns: u64,
    masks: u64,
}

/// Tallies the cross-checks of a run.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failures: Vec<String>,
}

impl Checks {
    fn expect(&mut self, holds: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !holds {
            self.failures.push(what());
        }
    }
}

/// `count` crash probabilities spread over `(0, top)`, each jittered by the
/// seed. The work does not depend on the values, so every seed costs the same.
fn probabilities(draws: &mut Draws, count: usize, top: f64) -> Vec<f64> {
    let step = top / (count + 1) as f64;
    (1..=count)
        .map(|i| step * (i as f64 + 0.5 * (draws.unit() - 0.5)))
        .collect()
}

/// Times the sub-tasks of one pass and records their spans under the pass's.
struct PassTrace<'a> {
    clock: TraceClock,
    spans: &'a mut Vec<Span>,
    pass: u64,
    samples: Vec<Sample>,
}

impl PassTrace<'_> {
    fn task<R>(&mut self, group: Group, task: impl FnOnce() -> R) -> R {
        let cpu_before = sys::process_cpu_ns();
        let start_ns = self.clock.now_ns();
        let result = task();
        let end_ns = self.clock.now_ns();
        self.samples.push(Sample {
            group,
            wall_ns: end_ns - start_ns,
            cpu_ns: sys::process_cpu_ns() - cpu_before,
        });
        self.spans.push(Span {
            id: (self.pass << 8) + self.samples.len() as u64,
            parent: self.pass << 8,
            operation: self.pass,
            name: group.span_name(),
            start_ns,
            end_ns,
            ok: true,
        });
        result
    }
}

fn one_pass(
    inputs: &AnalysisInputs,
    seed: u64,
    trace: &mut PassTrace<'_>,
    checks: &mut Checks,
) -> PassCounts {
    let mut draws = Draws::new(seed ^ 0xa9a1);
    let mut counts = PassCounts::default();
    let pass_start = trace.clock.now_ns();

    // Exact enumeration against each construction's closed form.
    let ps = probabilities(&mut draws, ENUMERATION_POINTS, 0.5);
    for system in &inputs.enumerated {
        let closed = adapter::fp_sweep(system.as_ref(), &ps);
        for (&p, closed) in ps.iter().zip(&closed) {
            let exact = trace.task(Group::Enumeration, || {
                adapter::fp_enumerate(system.as_ref(), p)
            });
            counts.masks += 1 << system.universe_size();
            checks.expect(
                closed.method == FpMethod::ClosedForm && (exact - closed.value).abs() <= 1e-9,
                || {
                    format!(
                        "{} at p={p}: enumeration {exact} vs {closed:?}",
                        system.name()
                    )
                },
            );
        }
    }

    // The M-Path transfer-matrix DP.
    let ps = probabilities(&mut draws, DP_POINTS, 0.45);
    let side6 = trace.task(Group::DpSide6, || {
        adapter::fp_sweep(inputs.mpath_side6.as_ref(), &ps)
    });
    let side5 = trace.task(Group::DpSide5, || {
        adapter::fp_sweep(inputs.mpath_side5.as_ref(), &ps)
    });
    check_dp(&inputs.mpath_side6, &ps, &side6, checks);
    check_dp(&inputs.mpath_side5, &ps, &side5, checks);

    // Monte-Carlo over max-flow, far past every exact method.
    // One call, so that the library's block-parallel path runs.
    let estimate = trace.task(Group::MonteCarlo, || {
        adapter::fp_estimate(
            inputs.mpath_side32.as_ref(),
            MONTE_CARLO_P,
            MONTE_CARLO_TRIALS,
            seed,
        )
    });
    let (low, high) = estimate.ci95_bounds();
    let (floor, ceiling) = adapter::fp_bounds(inputs.mpath_side32.as_ref(), MONTE_CARLO_P);
    checks.expect(
        estimate.method == FpMethod::MonteCarlo
            && estimate.trials == Some(MONTE_CARLO_TRIALS)
            && floor <= high + 1e-12
            && ceiling.is_none_or(|c| low <= c + 1e-12),
        || format!("Monte-Carlo {estimate:?} misses the analytic bounds [{floor}, {ceiling:?}]"),
    );

    // Algebraic closed forms at paper scale.
    let closed = trace.task(Group::ClosedForms, || {
        inputs
            .closed_forms
            .iter()
            .map(|system| adapter::fp_sweep(system.as_ref(), &[MONTE_CARLO_P])[0])
            .collect::<Vec<FpEstimate>>()
    });
    for (system, estimate) in inputs.closed_forms.iter().zip(&closed) {
        let (floor, ceiling) = adapter::fp_bounds(system.as_ref(), MONTE_CARLO_P);
        checks.expect(
            estimate.method == FpMethod::ClosedForm
                && floor <= estimate.value + 1e-12
                && estimate.value <= ceiling.unwrap_or(1.0) + 1e-12,
            || {
                format!(
                    "{}: closed form {estimate:?} outside [{floor}, {ceiling:?}]",
                    system.name()
                )
            },
        );
    }

    // Certified load by column generation, against Proposition 3.9.
    for _ in 0..CERTIFY_REPEATS {
        let summary = trace.task(Group::Certify, || inputs.certify_all());
        counts.cg_rounds += summary.rounds;
        counts.cg_columns += summary.columns;
        checks.expect(
            summary.worst_gap <= 1e-9 && summary.worst_load_error <= 1e-9,
            || format!("certification off: {summary:?}"),
        );
    }

    let (load, closed_form) = trace.task(Group::ExplicitLp, || inputs.explicit_lp());
    checks.expect((load - closed_form).abs() <= 1e-9, || {
        format!("explicit LP load {load} vs closed form {closed_form}")
    });

    let (healthy, degraded, gap, avoids_dead) = trace.task(Group::Recertify, || inputs.recertify());
    checks.expect(
        avoids_dead && gap <= 1e-9 && degraded >= healthy - 1e-9 && degraded <= 1.0,
        || format!("recertify: healthy {healthy}, degraded {degraded}, gap {gap}, avoids dead {avoids_dead}"),
    );

    trace.spans.push(Span {
        id: trace.pass << 8,
        parent: 0,
        operation: trace.pass,
        name: "analysis.pass",
        start_ns: pass_start,
        end_ns: trace.clock.now_ns(),
        ok: true,
    });
    counts
}

/// A DP answer is tagged as one, is a probability no smaller than
/// Proposition 4.3's floor, and does not fall as `p` rises.
fn check_dp(system: &Construction, ps: &[f64], values: &[FpEstimate], checks: &mut Checks) {
    let mut previous = 0.0;
    for (&p, estimate) in ps.iter().zip(values) {
        let (floor, _) = adapter::fp_bounds(system.as_ref(), p);
        checks.expect(
            estimate.method == FpMethod::Dp
                && estimate.value >= floor - 1e-12
                && estimate.value <= 1.0 + 1e-12
                && estimate.value >= previous - 1e-12,
            || {
                format!(
                    "{} at p={p}: DP {estimate:?}, floor {floor}, previous {previous}",
                    system.name()
                )
            },
        );
        previous = estimate.value;
    }
}

/// The DP's anchor: at side 4 the universe is small enough to enumerate, and
/// sides 5 and 6 run the same code. Once per run; not part of a pass.
fn check_dp_against_enumeration(inputs: &AnalysisInputs, checks: &mut Checks) {
    let ps = [0.1, 0.3];
    let dp = adapter::fp_sweep(inputs.mpath_side4.as_ref(), &ps);
    for (&p, estimate) in ps.iter().zip(&dp) {
        let exact = adapter::fp_enumerate(inputs.mpath_side4.as_ref(), p);
        checks.expect(
            estimate.method == FpMethod::Dp && (estimate.value - exact).abs() <= 1e-12,
            || format!("M-Path side 4 at p={p}: DP {estimate:?} vs enumeration {exact}"),
        );
    }
}

fn time_set_ups(setups: &mut Vec<f64>) {
    for _ in 0..SETUP_CYCLES {
        let started = Instant::now();
        let inputs = std::hint::black_box(AnalysisInputs::build());
        setups.push(started.elapsed().as_secs_f64());
        drop(inputs);
    }
}

pub fn run(args: &RunArgs) -> Result<RunOutcome, String> {
    let mut setups = Vec::new();
    time_set_ups(&mut setups);
    let inputs = AnalysisInputs::build();

    let clock = TraceClock::start();
    let mut spans = Vec::new();
    let mut checks = Checks::default();
    let mut passes: Vec<Vec<Sample>> = Vec::new();
    let mut counts = PassCounts::default();
    let started = Instant::now();
    while passes.is_empty() || started.elapsed().as_secs_f64() < args.seconds {
        let mut trace = PassTrace {
            clock,
            spans: &mut spans,
            pass: passes.len() as u64 + 1,
            samples: Vec::new(),
        };
        let pass_counts = one_pass(&inputs, args.seed, &mut trace, &mut checks);
        checks.expect(passes.is_empty() || pass_counts == counts, || {
            format!("a pass's counts changed: {counts:?} then {pass_counts:?}")
        });
        counts = pass_counts;
        passes.push(trace.samples);
    }
    check_dp_against_enumeration(&inputs, &mut checks);
    drop(inputs);
    time_set_ups(&mut setups);

    // Sub-task i's quiet time across the passes, summed over a group (or
    // over all of them: the pass).
    let quiet_seconds = |pick: fn(&Sample) -> u64, group: Option<Group>| -> f64 {
        (0..passes[0].len())
            .filter(|&i| group.is_none_or(|g| passes[0][i].group == g))
            .map(|i| {
                let across: Vec<f64> = passes.iter().map(|pass| pick(&pass[i]) as f64).collect();
                quiet(&across, Better::Lower) / 1e9
            })
            .sum()
    };
    let wall = |group| quiet_seconds(|s| s.wall_ns, group);
    let pass_seconds = wall(None);
    let metrics = if args.trace {
        let mut m = MetricSet::per_layer();
        m.set(
            "failed_share",
            checks.failures.len() as f64 / checks.attempted as f64,
        );
        m.set("analysis_pass_s", pass_seconds);
        m.set("fp_enum_s", wall(Some(Group::Enumeration)));
        m.set(
            "fp_dp_s",
            wall(Some(Group::DpSide6)) + wall(Some(Group::DpSide5)),
        );
        m.set("fp_mc_s", wall(Some(Group::MonteCarlo)));
        m.set("load_certify_s", wall(Some(Group::Certify)));
        m.set(
            "core.eval.enum_masks_per_s",
            counts.masks as f64 / wall(Some(Group::Enumeration)),
        );
        m.set("core.eval.closed_form_s", wall(Some(Group::ClosedForms)));
        m.set("core.load.explicit_lp_s", wall(Some(Group::ExplicitLp)));
        m.set("core.load.cg_rounds", counts.cg_rounds as f64);
        m.set("core.load.cg_columns", counts.cg_columns as f64);
        m.set("epoch.planner.recertify_s", wall(Some(Group::Recertify)));
        m.set("graph.crossing_dp.side6_s", wall(Some(Group::DpSide6)));
        m.set("graph.crossing_dp.side5_s", wall(Some(Group::DpSide5)));
        m.set(
            "graph.maxflow.trials_per_s",
            MONTE_CARLO_TRIALS as f64 / wall(Some(Group::MonteCarlo)),
        );
        m.set("peak_rss_mb", procfs::peak_rss_mb()?);
        trace::write_spans(&args.out_dir, args.workload, &spans)?;
        m
    } else {
        let mut m = MetricSet::end_to_end();
        m.set("setup_s", quiet(&setups, Better::Lower));
        m.set("ops_per_s", 1.0 / pass_seconds);
        m.set("op_p50_us", pass_seconds * 1e6);
        m.set("cpu_us_per_op", quiet_seconds(|s| s.cpu_ns, None) * 1e6);
        m
    };
    Ok(RunOutcome {
        attempted: checks.attempted,
        failed: checks.failures.len() as u64,
        faults: checks.failures,
        metrics,
    })
}
