//! Reproduction of the Section 8 worked example.
//!
//! The paper's discussion fixes `n = 1024` servers, a target load `L ≈ 1/4`, and an
//! individual crash probability `p = 1/8`, then compares what each construction can
//! deliver:
//!
//! | System | b | f | Fp |
//! |---|---|---|---|
//! | M-Grid | 15 | 28 | ≥ 0.638 |
//! | boostFPP (n = 1001, q = 3) | 19 | 79 | ≤ 0.372 |
//! | M-Path (4 LR + 4 TB paths) | 7 | 29 | ≤ 0.001 |
//! | RT(4, 3) depth 5 | 15 | 31 | ≤ 0.0001 |
//!
//! `build_scenario` re-derives every row from the constructions themselves, and the
//! Monte-Carlo column adds a simulated estimate of the true `F_p` (which the paper
//! could only bound analytically).

use bqs_constructions::prelude::*;
use bqs_core::eval::{Evaluator, FpEstimate};

/// One row of the Section 8 scenario comparison.
#[derive(Debug, Clone)]
pub struct ScenarioRow {
    /// Construction name.
    pub system: String,
    /// Universe size of the instance (1024, or 1001 for boostFPP).
    pub n: usize,
    /// Byzantine masking level.
    pub b: usize,
    /// Resilience to crashes.
    pub f: usize,
    /// Analytic load.
    pub load: f64,
    /// Analytic crash-probability bound at `p = 1/8` (upper bound where available,
    /// otherwise the lower bound), with its direction.
    pub fp_bound: Option<f64>,
    /// `true` if `fp_bound` is an upper bound, `false` if it is a lower bound.
    pub fp_bound_is_upper: bool,
    /// The engine's estimate of the true crash probability at `p = 1/8`:
    /// exact for M-Grid and RT (closed forms) and for boostFPP (the
    /// survivor-profile composition — the paper could only bound this row by
    /// `F_p ≤ 0.372`; the exact value is far smaller), Monte-Carlo for the
    /// side-32 M-Path, which is past the transfer-matrix DP gate.
    pub fp: FpEstimate,
    /// The value the paper reports for this row.
    pub paper_fp_claim: &'static str,
    /// The resilience the paper reports for this row.
    pub paper_f: usize,
}

impl ScenarioRow {
    /// The engine's point value for `F_p` (see [`ScenarioRow::fp`]).
    #[must_use]
    pub fn fp_value(&self) -> f64 {
        self.fp.value
    }
}

/// The crash probability of the Section 8 scenario.
pub const SCENARIO_P: f64 = 0.125;

/// Builds the four rows of the Section 8 comparison. `trials` controls the
/// Monte-Carlo effort for the systems without an exact method (the paper has
/// no such column; 2 000 trials gives ±0.02 at 95% confidence). M-Grid, RT
/// **and boostFPP** report *exact* values through the evaluation engine —
/// only the side-32 M-Path row still samples.
#[must_use]
pub fn build_scenario(trials: usize) -> Vec<ScenarioRow> {
    let evaluator = Evaluator::new()
        .with_trials(trials.max(1))
        .with_seed(0x5ec8);
    let mut rows = Vec::new();

    // M-Grid: n = 1024, b = 15.
    let mgrid = MGridSystem::new(32, 15).expect("paper parameters are valid");
    rows.push(make_row(
        &mgrid,
        mgrid.crash_probability_lower_bound(SCENARIO_P),
        false,
        "Fp >= 0.638",
        28,
        &evaluator,
    ));

    // boostFPP: q = 3, b = 19 -> n = 1001.
    let boost = BoostFppSystem::new(3, 19).expect("paper parameters are valid");
    rows.push(make_row(
        &boost,
        boost.crash_probability_upper_bound(SCENARIO_P),
        true,
        "Fp <= 0.372",
        79,
        &evaluator,
    ));

    // M-Path: n = 1024, 4 + 4 paths -> b = 7.
    let mpath = MPathSystem::new(32, 7).expect("paper parameters are valid");
    rows.push(make_row(
        &mpath,
        mpath.crash_probability_upper_bound(SCENARIO_P),
        true,
        "Fp <= 0.001",
        29,
        &evaluator,
    ));

    // RT(4,3) depth 5: n = 1024, b = 15.
    let rt = RtSystem::new(4, 3, 5).expect("paper parameters are valid");
    rows.push(make_row(
        &rt,
        rt.crash_probability_upper_bound(SCENARIO_P),
        true,
        "Fp <= 0.0001",
        31,
        &evaluator,
    ));

    rows
}

fn make_row<S: AnalyzedConstruction + ?Sized>(
    sys: &S,
    fp_bound: Option<f64>,
    fp_bound_is_upper: bool,
    paper_fp_claim: &'static str,
    paper_f: usize,
    evaluator: &Evaluator,
) -> ScenarioRow {
    ScenarioRow {
        system: sys.name(),
        n: sys.universe_size(),
        b: sys.masking_b(),
        f: sys.resilience(),
        load: sys.analytic_load(),
        fp_bound,
        fp_bound_is_upper,
        fp: evaluator.crash_probability(sys, SCENARIO_P),
        paper_fp_claim,
        paper_f,
    }
}

/// Renders the scenario rows as a text table.
#[must_use]
pub fn render_scenario(rows: &[ScenarioRow]) -> String {
    let mut table = crate::report::TextTable::new([
        "system",
        "n",
        "b",
        "f",
        "f (paper)",
        "load",
        "Fp bound (p=1/8)",
        "Fp (engine)",
        "paper claim",
    ]);
    for r in rows {
        let bound = match (r.fp_bound, r.fp_bound_is_upper) {
            (Some(v), true) => format!("<= {}", crate::report::format_probability(v)),
            (Some(v), false) => format!(">= {}", crate::report::format_probability(v)),
            (None, _) => "-".to_string(),
        };
        let engine_fp = if r.fp.is_exact() {
            format!("{} (exact)", crate::report::format_probability(r.fp.value))
        } else {
            // Monte-Carlo: show the Wilson 95% interval, which stays
            // informative when no trial failed (a bare "0 ± 0" would not be).
            let (lower, upper) = r.fp.ci95_bounds();
            format!(
                "{} (95% in [{}, {}])",
                crate::report::format_probability(r.fp.value),
                crate::report::format_probability(lower),
                crate::report::format_probability(upper)
            )
        };
        table.push_row([
            r.system.clone(),
            r.n.to_string(),
            r.b.to_string(),
            r.f.to_string(),
            r.paper_f.to_string(),
            format!("{:.4}", r.load),
            bound,
            engine_fp,
            r.paper_fp_claim.to_string(),
        ]);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_reproduces_paper_parameters() {
        let rows = build_scenario(50);
        assert_eq!(rows.len(), 4);
        let get = |prefix: &str| rows.iter().find(|r| r.system.starts_with(prefix)).unwrap();

        let mgrid = get("M-Grid");
        assert_eq!(mgrid.n, 1024);
        assert_eq!(mgrid.b, 15);
        assert_eq!(mgrid.f, 28);
        assert!(mgrid.fp_bound.unwrap() >= 0.63);
        assert!(!mgrid.fp_bound_is_upper);

        let boost = get("boostFPP");
        assert_eq!(boost.n, 1001);
        assert_eq!(boost.b, 19);
        assert_eq!(boost.f, 79);
        assert!(boost.fp_bound.unwrap() <= 0.372);

        let mpath = get("M-Path");
        assert_eq!(mpath.n, 1024);
        assert_eq!(mpath.b, 7);
        assert!(mpath.fp_bound.unwrap() <= 0.001);

        let rt = get("RT");
        assert_eq!(rt.n, 1024);
        assert_eq!(rt.b, 15);
        assert_eq!(rt.f, 31);
        assert!(rt.fp_bound.unwrap() <= 1e-4);
    }

    #[test]
    fn boostfpp_row_reports_exact_value_below_paper_bound() {
        let rows = build_scenario(10);
        let boost = rows
            .iter()
            .find(|r| r.system.starts_with("boostFPP"))
            .unwrap();
        // Exact through the survivor-profile composition — no sampling error —
        // and far below the paper's analytic `<= 0.372`.
        assert!(boost.fp.is_exact(), "method {:?}", boost.fp.method);
        assert!(boost.fp.value <= 0.372, "fp={}", boost.fp.value);
        assert!(boost.fp.value < 0.01, "fp={}", boost.fp.value);
        // The side-32 M-Path row is past the DP gate and still samples.
        let mpath = rows
            .iter()
            .find(|r| r.system.starts_with("M-Path"))
            .unwrap();
        assert!(!mpath.fp.is_exact());
    }

    #[test]
    fn loads_are_near_one_quarter() {
        // The scenario fixes the target load at ~1/4; every instantiated system must
        // be close to it.
        for r in build_scenario(10) {
            assert!(
                (r.load - 0.25).abs() < 0.06,
                "{}: load {} too far from 1/4",
                r.system,
                r.load
            );
        }
    }

    #[test]
    fn monte_carlo_consistent_with_bounds() {
        let rows = build_scenario(300);
        for r in &rows {
            if let Some(bound) = r.fp_bound {
                if r.fp_bound_is_upper {
                    assert!(
                        r.fp.value <= bound + r.fp.ci95_half_width() + 0.02,
                        "{}: MC {} exceeds upper bound {}",
                        r.system,
                        r.fp.value,
                        bound
                    );
                } else {
                    assert!(
                        r.fp.value + r.fp.ci95_half_width() + 0.05 >= bound,
                        "{}: MC {} below lower bound {}",
                        r.system,
                        r.fp.value,
                        bound
                    );
                }
            }
        }
        // The ordering the paper emphasises: RT and M-Path are far more available
        // than M-Grid in this regime.
        let get = |prefix: &str| rows.iter().find(|r| r.system.starts_with(prefix)).unwrap();
        assert!(get("RT").fp.value < get("M-Grid").fp.value);
        assert!(get("M-Path").fp.value < get("M-Grid").fp.value);
    }

    #[test]
    fn rendering_smoke() {
        let rows = build_scenario(5);
        let rendered = render_scenario(&rows);
        assert!(rendered.contains("paper claim"));
        assert!(rendered.lines().count() >= 6);
    }
}
