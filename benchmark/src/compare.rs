//! `bench compare <a.json> <b.json>`: two result sets (as `bench all`
//! writes them) held against the bounds in `BENCHMARK.json`.
//!
//! For every workload and end-to-end metric it takes each set's median and
//! its spread — the distance between the first and third quartile, as
//! Python's `statistics.quantiles(values, n=4)` gives them, as a share of
//! the median — and reports `pass`, `regress` (b's median is worse than a's
//! by more than the bound) or `unresolved` (a spread is wider than the
//! bound, unless every run of b reads better than every run of a; `setup_s`
//! is held to its bound by its medians only).
//! Per-layer metrics have no bound and are listed without a verdict.

use std::collections::BTreeMap;
use std::fmt::Write;

use crate::json::Json;
use crate::spec::{Better, Metric, END_TO_END, PER_LAYER, WORKLOADS};

/// One result set: `values[(workload, metric)]` over its runs, in run order.
pub struct ResultSet {
    values: BTreeMap<(String, String), Vec<f64>>,
}

impl ResultSet {
    /// Reads the `runs` array of a result file.
    pub fn parse(text: &str) -> Result<ResultSet, String> {
        let document = Json::parse(text)?;
        let runs = document
            .get("runs")
            .and_then(Json::as_arr)
            .ok_or("a result file has a \"runs\" array")?;
        let mut values: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
        for run in runs {
            let workload = run
                .get("workload")
                .and_then(Json::as_str)
                .ok_or("a run names its workload")?;
            let metrics = run
                .get("metrics")
                .and_then(Json::as_obj)
                .ok_or("a run has metrics")?;
            for (name, metric) in metrics {
                let value = metric
                    .get("value")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("{workload}/{name} has no numeric value"))?;
                values
                    .entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(value);
            }
        }
        Ok(ResultSet { values })
    }

    fn get(&self, workload: &str, metric: &str) -> Option<&[f64]> {
        self.values
            .get(&(workload.to_string(), metric.to_string()))
            .map(Vec::as_slice)
    }
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them. `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let count = values.len();
    if count < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let m = count + 1;
    Some([1usize, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, count - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    }))
}

struct Summary {
    median: f64,
    /// Interquartile distance over the median; 0 for a single run.
    spread: f64,
    min: f64,
    max: f64,
}

fn summarize(values: &[f64]) -> Summary {
    let mut sorted = values.to_vec();
    let median = crate::median(&mut sorted);
    let spread = match quartiles(values) {
        Some([q1, _, q3]) if median != 0.0 => (q3 - q1) / median.abs(),
        _ => 0.0,
    };
    Summary {
        median,
        spread,
        min: sorted[0],
        max: sorted[sorted.len() - 1],
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Pass,
    Regress,
    Unresolved,
}

fn verdict(metric: &Metric, bound: f64, a: &Summary, b: &Summary) -> Verdict {
    let (worse_by, b_always_better) = match metric.better {
        Better::Lower => ((b.median - a.median) / a.median.abs(), b.max < a.min),
        Better::Higher => ((a.median - b.median) / a.median.abs(), b.min > a.max),
    };
    // `setup_s` is the median of few, short cycles; the driver's contract
    // holds its medians to the bound but not its spread, and so does this.
    let spread_counts = metric.name != "setup_s";
    if spread_counts && a.spread.max(b.spread) > bound && !b_always_better {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regress
    } else {
        Verdict::Pass
    }
}

/// The comparison table, and whether every gated row passed.
pub fn compare(a: &ResultSet, b: &ResultSet) -> (String, bool) {
    let mut table = String::new();
    let mut all_pass = true;
    let _ = writeln!(
        table,
        "{:<22} {:<38} {:>14} {:>14} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median a", "median b", "b/a", "iqr a", "iqr b", "bound"
    );
    for workload in WORKLOADS {
        for metric in END_TO_END.iter().chain(PER_LAYER) {
            let (Some(values_a), Some(values_b)) =
                (a.get(workload, metric.name), b.get(workload, metric.name))
            else {
                continue;
            };
            let (sa, sb) = (summarize(values_a), summarize(values_b));
            if metric.bound.is_none() && sa.median == 0.0 && sb.median == 0.0 {
                continue; // a layer that does no work in this workload
            }
            let ratio = if sa.median != 0.0 {
                format!("{:.4}", sb.median / sa.median)
            } else {
                "-".into()
            };
            let (bound, outcome) = match metric.bound {
                Some(bound) => {
                    let v = verdict(metric, bound, &sa, &sb);
                    all_pass &= v == Verdict::Pass;
                    (format!("{bound:.2}"), format!("{v:?}").to_lowercase())
                }
                None => ("-".into(), "-".into()),
            };
            let _ = writeln!(
                table,
                "{:<22} {:<38} {:>14.6} {:>14.6} {:>8} {:>8.4} {:>8.4} {:>6}  {}",
                workload,
                format!("{} [{}]", metric.name, metric.unit),
                sa.median,
                sb.median,
                ratio,
                sa.spread,
                sb.spread,
                bound,
                outcome
            );
        }
    }
    (table, all_pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3.0, 1.0], n=4)
        assert_eq!(quartiles(&[3.0, 1.0]), Some([0.5, 2.0, 3.5]));
        // statistics.quantiles([10, 20, 40], n=4)
        assert_eq!(quartiles(&[10.0, 20.0, 40.0]), Some([10.0, 20.0, 40.0]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    fn set(workload: &str, metric: &str, values: &[f64]) -> ResultSet {
        let runs: Vec<String> = values
            .iter()
            .map(|v| {
                format!(
                    r#"{{"workload": "{workload}", "metrics": {{"{metric}": {{"value": {v}, "unit": "x"}}}}}}"#
                )
            })
            .collect();
        ResultSet::parse(&format!(r#"{{"runs": [{}]}}"#, runs.join(", "))).unwrap()
    }

    fn only_verdict(a: &[f64], b: &[f64], metric: &str) -> (String, bool) {
        compare(
            &set("loopback-closed", metric, a),
            &set("loopback-closed", metric, b),
        )
    }

    #[test]
    fn steady_equal_sets_pass() {
        let (table, ok) = only_verdict(
            &[100.0, 101.0, 99.0, 100.5],
            &[100.2, 99.5, 101.0, 100.0],
            "op_p50_us",
        );
        assert!(ok, "{table}");
        assert!(table.contains("pass"));
    }

    #[test]
    fn a_worse_median_regresses_in_the_metrics_direction() {
        // Lower is better for latency: +40 % regresses, -40 % passes.
        assert!(!only_verdict(&[100.0, 100.0, 100.0], &[140.0, 140.0, 140.0], "op_p50_us").1);
        assert!(only_verdict(&[100.0, 100.0, 100.0], &[60.0, 60.0, 60.0], "op_p50_us").1);
        // Higher is better for throughput.
        let (table, ok) = only_verdict(&[100.0, 100.0, 100.0], &[60.0, 60.0, 60.0], "ops_per_s");
        assert!(!ok && table.contains("regress"), "{table}");
    }

    #[test]
    fn a_wide_spread_is_unresolved_unless_b_always_wins() {
        let noisy = [100.0, 60.0, 140.0, 90.0, 120.0];
        let (table, ok) = only_verdict(&noisy, &noisy, "op_p50_us");
        assert!(!ok && table.contains("unresolved"), "{table}");
        assert!(only_verdict(&noisy, &[10.0, 12.0, 50.0, 11.0], "op_p50_us").1);
    }

    #[test]
    fn setup_is_judged_by_its_medians_alone() {
        let noisy = [100.0, 60.0, 140.0, 90.0, 120.0];
        assert!(only_verdict(&noisy, &noisy, "setup_s").1);
        assert!(!only_verdict(&noisy, &[150.0, 140.0, 160.0], "setup_s").1);
    }

    #[test]
    fn per_layer_rows_carry_no_verdict() {
        let (table, ok) = only_verdict(&[5.0, 5.0], &[50.0, 50.0], "service.client.prepare_us");
        assert!(ok);
        assert!(table.lines().nth(1).unwrap().trim_end().ends_with('-'));
    }
}
