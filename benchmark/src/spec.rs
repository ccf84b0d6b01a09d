//! The names the benchmark prints: workloads, end-to-end metrics and
//! per-layer metrics, each with its unit. `BENCHMARK.json` at the repository
//! root lists the same names (plus the prose); `bench check` fails when the
//! two disagree. README.md defines every metric.

use crate::json::Json;

pub const LOOPBACK_CLOSED: &str = "loopback-closed";
pub const UDS_CLOSED: &str = "uds-closed";
pub const TCP_PIPELINED_WRITES: &str = "tcp-pipelined-writes";
pub const ANALYSIS_PASS: &str = "analysis-pass";

pub const WORKLOADS: [&str; 4] = [
    LOOPBACK_CLOSED,
    UDS_CLOSED,
    TCP_PIPELINED_WRITES,
    ANALYSIS_PASS,
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen;
    /// `None` for per-layer metrics, which are not gated.
    pub bound: Option<f64>,
}

const fn gated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// Measured with tracing off; every workload reports every one of them.
///
/// Every bound is the contract's cap, 0.25. Ten runs of one workload spread
/// (interquartile distance over the median) by 1 to 6 % while the reference
/// box's speed holds still and by 7 to 16 % over twenty minutes in which it
/// drifts (see README.md); a tighter bound would reject unchanged code.
pub const END_TO_END: &[Metric] = &[
    gated("setup_s", "s", Lower, 0.25),
    gated("ops_per_s", "1/s", Higher, 0.25),
    gated("op_p50_us", "us", Lower, 0.25),
    gated("cpu_us_per_op", "us", Lower, 0.25),
];

/// Reported by the traced run. A workload in which a layer does no work
/// reports 0 for that layer's metrics.
pub const PER_LAYER: &[Metric] = &[
    layer("failed_share", "ratio", Lower),
    layer("peak_rss_mb", "MB", Lower),
    layer("service.client.prepare_us", "us", Lower),
    layer("service.client.resolve_us", "us", Lower),
    layer("service.client.read_p50_us", "us", Lower),
    layer("service.client.write_p50_us", "us", Lower),
    layer("service.client.op_p90_us", "us", Lower),
    layer("service.client.op_p99_us", "us", Lower),
    layer("service.client.op_p999_us", "us", Lower),
    layer("service.client.op_samples", "count", Higher),
    layer("service.shard.send_us", "us", Lower),
    layer("service.shard.last_reply_us", "us", Lower),
    layer("service.mailbox.roundtrip_ns", "ns", Lower),
    layer("service.metrics.busiest_load_ratio", "ratio", Lower),
    layer("service.openloop.sched_lag_share", "ratio", Lower),
    layer("service.openloop.peak_in_flight", "count", Lower),
    layer("service.openloop.shed", "count", Lower),
    layer("service.openloop.timed_out", "count", Lower),
    layer("service.openloop.inconclusive_share", "ratio", Lower),
    layer("service.openloop.op_p90_us", "us", Lower),
    layer("service.openloop.op_p99_us", "us", Lower),
    layer("net.transport.send_us", "us", Lower),
    layer("net.transport.first_reply_us", "us", Lower),
    layer("net.transport.last_reply_us", "us", Lower),
    layer("net.transport.fanin_spread_us", "us", Lower),
    layer("net.transport.deadline_expiries", "count", Lower),
    layer("net.transport.reconnects", "count", Lower),
    layer("net.codec.encode_ns_per_msg", "ns", Lower),
    layer("net.codec.decode_ns_per_msg", "ns", Lower),
    layer("net.codec.bytes_per_op", "B", Lower),
    layer("net.io.lo_packets_per_op", "count", Lower),
    layer("net.io.lo_bytes_per_op", "B", Lower),
    layer("os.vol_ctx_switches_per_op", "count", Lower),
    layer("os.invol_ctx_switches_per_op", "count", Lower),
    layer("os.cpu_user_share", "ratio", Lower),
    layer("sim.replica.deliver_ns", "ns", Lower),
    layer("sim.client.choose_quorum_ns", "ns", Lower),
    layer("sim.client.resolve_read_ns", "ns", Lower),
    layer("core.strategic.sample_ns", "ns", Lower),
    layer("analysis_pass_s", "s", Lower),
    layer("fp_enum_s", "s", Lower),
    layer("fp_dp_s", "s", Lower),
    layer("fp_mc_s", "s", Lower),
    layer("load_certify_s", "s", Lower),
    layer("core.eval.enum_masks_per_s", "1/s", Higher),
    layer("core.eval.closed_form_s", "s", Lower),
    layer("core.load.explicit_lp_s", "s", Lower),
    layer("core.load.cg_rounds", "count", Lower),
    layer("core.load.cg_columns", "count", Lower),
    layer("epoch.planner.recertify_s", "s", Lower),
    layer("graph.crossing_dp.side6_s", "s", Lower),
    layer("graph.crossing_dp.side5_s", "s", Lower),
    layer("graph.maxflow.trials_per_s", "1/s", Higher),
    layer("trace.overhead_share", "ratio", Lower),
    layer("trace.opaque_share", "ratio", Lower),
    layer("trace.closure_gap_share", "ratio", Lower),
];

/// One run's metric values, in registry order.
pub struct MetricSet {
    registry: &'static [Metric],
    values: Vec<Option<f64>>,
}

impl MetricSet {
    pub fn end_to_end() -> Self {
        MetricSet {
            registry: END_TO_END,
            values: vec![None; END_TO_END.len()],
        }
    }

    /// Every per-layer metric starts at 0: "this layer did no work here".
    pub fn per_layer() -> Self {
        MetricSet {
            registry: PER_LAYER,
            values: vec![Some(0.0); PER_LAYER.len()],
        }
    }

    /// # Panics
    ///
    /// Panics on a name outside the registry or a non-finite value: both are
    /// bugs in the benchmark, not outcomes of a run.
    pub fn set(&mut self, name: &str, value: f64) {
        let index = self
            .registry
            .iter()
            .position(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the registry"));
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.values[index] = Some(value);
    }

    /// `(metric, value)` pairs in registry order.
    ///
    /// # Panics
    ///
    /// Panics if a metric was never set.
    pub fn entries(&self) -> impl Iterator<Item = (&'static Metric, f64)> + '_ {
        self.registry.iter().zip(&self.values).map(|(m, v)| {
            let value = v.unwrap_or_else(|| panic!("metric {} was never set", m.name));
            (m, value)
        })
    }

    /// The `metrics` object of the result line.
    pub fn to_json(&self) -> Json {
        Json::obj(self.entries().map(|(m, v)| {
            (
                m.name,
                Json::obj([("value", Json::Num(v)), ("unit", Json::str(m.unit))]),
            )
        }))
    }
}

/// Letters, digits, `_`, `.`, `-`; starts with a letter or digit; at most 64.
fn name_is_legal(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// Where the names, units, counts and bounds above step outside the limits
/// the driver's contract sets for `BENCHMARK.json`; empty when they fit.
pub fn contract_problems() -> Vec<String> {
    let mut problems = Vec::new();
    if WORKLOADS.len() > 8 || END_TO_END.len() > 16 || PER_LAYER.len() > 128 {
        problems.push("at most 8 workloads, 16 end-to-end and 128 per-layer metrics".into());
    }
    let mut seen = std::collections::BTreeSet::new();
    for name in WORKLOADS
        .into_iter()
        .chain(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name))
    {
        if !name_is_legal(name) {
            problems.push(format!(
                "{name}: letters, digits, '_', '.', '-' only, at most 64"
            ));
        }
        if !seen.insert(name) {
            problems.push(format!("{name} is used twice"));
        }
    }
    for m in END_TO_END.iter().chain(PER_LAYER) {
        let legal = m.unit.len() <= 16
            && m.unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c));
        if !legal {
            problems.push(format!("{}: unit {} is not legal", m.name, m.unit));
        }
    }
    let setup = END_TO_END.iter().find(|m| m.name == "setup_s");
    for m in END_TO_END {
        if !m.bound.is_some_and(|b| b > 0.0 && b <= 0.25) {
            problems.push(format!("{}: a bound in (0, 0.25] is required", m.name));
        }
        if setup.is_none_or(|s| m.bound > s.bound) {
            problems.push(format!("{}: setup_s must have the largest bound", m.name));
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_fit_the_contract() {
        assert_eq!(contract_problems(), Vec::<String>::new());
        assert!(name_is_legal("net.io.lo_bytes_per_op") && name_is_legal("4x"));
        assert!(!name_is_legal("") && !name_is_legal(".x") && !name_is_legal("a b"));
    }

    #[test]
    #[should_panic(expected = "not in the registry")]
    fn unknown_names_are_rejected() {
        MetricSet::end_to_end().set("no_such_metric", 1.0);
    }

    #[test]
    #[should_panic(expected = "never set")]
    fn unset_end_to_end_metrics_are_rejected() {
        let set = MetricSet::end_to_end();
        let _ = set.entries().count();
    }
}
