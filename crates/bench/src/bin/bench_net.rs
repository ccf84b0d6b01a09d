//! Machine-readable benchmark of the socket transport subsystem: emits
//! `BENCH_net.json` (schema v2) — latency vs *offered* load across transport
//! backends, with the saturation knee identified per backend and compared
//! against the committed pre-batching (schema v1) baseline knees.
//!
//! For each backend (in-process loopback, Unix-domain socket, TCP loopback)
//! and each paper construction in the matrix, the open-loop generator
//! ([`bqs_service::openloop`]) offers Poisson arrivals at a sweep of rates.
//! Below the knee, achieved throughput tracks offered load and the busiest
//! server's empirical access frequency must sit inside the 3σ
//! max-order-statistic band around the certified `L(Q)` (the strategies are
//! the column-generation-certified optima, so the knee sweep doubles as a
//! load-theorem validation through a real network stack). Past the knee,
//! achieved throughput pins at capacity and tail latency explodes — the
//! behaviour closed-loop generation structurally cannot show. The knee is the
//! ladder's first saturated rate, refined by two geometric bisection steps
//! toward the last unsaturated one (the bisection points are sweep rows too).
//!
//! Run with: `cargo run --release -p bqs-bench --bin bench_net
//! [--quick] [output.json]`
//!
//! `--quick` sweeps small rates on loopback + UDS only and **asserts the
//! gate**: zero safety violations in every row, exact arrival accounting,
//! and knee sanity (the lowest offered rate must not saturate). CI runs this
//! mode on every push, next to `bench_fp`/`bench_load`/`bench_service
//! --quick`.
//!
//! The full run additionally gates the tentpole: each socket backend's knee
//! must sit at `>= KNEE_GATE_RATIO` times the committed v1 baseline knee
//! (measured before wire batching, drain-whole-batch mailboxes, and
//! slot-table completions landed).

use std::time::Duration;

use bqs_analysis::empirical::{empirical_load_check, EmpiricalLoadCheck};
use bqs_bench::{bench_args, exit_on_failures, json_escape, time};
use bqs_constructions::prelude::*;
use bqs_core::load::optimal_load_oracle;
use bqs_core::oracle::MinWeightQuorumOracle;
use bqs_core::quorum::QuorumSystem;
use bqs_core::strategic::StrategicQuorumSystem;
use bqs_net::prelude::*;
use bqs_service::prelude::*;
use bqs_sim::fault::FaultPlan;

/// Achieved below this fraction of the *realised* arrival rate counts as
/// saturated (the realised rate, not the configured one: short Poisson
/// schedules fluctuate by `~1/sqrt(arrivals)`, and that noise must not read
/// as capacity).
const KNEE_FRACTION: f64 = 0.9;

/// More than this fraction of arrivals lost (shed at the in-flight cap or
/// expired at the operation deadline) also counts as saturated — queue
/// growth is the open-loop signature of offered load above capacity.
const LOSS_FRACTION: f64 = 0.01;

/// A realised arrival rate below this fraction of the configured one also
/// counts as saturated: the injector itself was backpressured (blocking
/// socket writes, starved worker loops), which only happens past pipeline
/// capacity. Looser than [`KNEE_FRACTION`] to keep Poisson schedule noise
/// (`~1/sqrt(arrivals)`) from tripping it on short sweeps.
const INJECTION_FRACTION: f64 = 0.85;

/// Geometric bisection steps between the ladder's last unsaturated and first
/// saturated rate; the knee is the lowest rate found saturated.
const KNEE_BISECTIONS: usize = 2;

/// Required improvement of each socket backend's knee over the committed v1
/// baseline (full mode only).
const KNEE_GATE_RATIO: f64 = 1.5;

/// The committed `BENCH_net.json` schema-v1 knees (PR 6, 1-core runner,
/// pre-batching): `(backend, construction, knee_offered_rate)`. The v2 gate
/// measures this PR's knees against them.
const BASELINE_KNEES: &[(&str, &str, Option<f64>)] = &[
    ("loopback", "Grid(n=25, b=1) [strategic]", Some(192_000.0)),
    ("loopback", "M-Grid(n=25, b=2) [strategic]", None),
    ("uds", "Grid(n=25, b=1) [strategic]", Some(32_000.0)),
    ("uds", "M-Grid(n=25, b=2) [strategic]", Some(32_000.0)),
    ("tcp", "Grid(n=25, b=1) [strategic]", Some(16_000.0)),
    ("tcp", "M-Grid(n=25, b=2) [strategic]", Some(32_000.0)),
];

fn baseline_knee(backend: &str, construction: &str) -> Option<f64> {
    BASELINE_KNEES
        .iter()
        .find(|(b, c, _)| *b == backend && *c == construction)
        .and_then(|(_, _, knee)| *knee)
}

/// One measured point of a sweep.
struct SweepPoint {
    backend: &'static str,
    construction: String,
    n: usize,
    b: usize,
    offered_rate: f64,
    saturated: bool,
    report: OpenLoopReport,
    /// Load validation against the certified `L(Q)`; only meaningful below
    /// the knee (saturated rows carry `None`).
    load_check: Option<EmpiricalLoadCheck>,
    seconds: f64,
}

/// One backend × construction sweep summary.
struct KneeRow {
    backend: &'static str,
    construction: String,
    n: usize,
    /// Offered rate of the first saturated point, if the sweep saturated,
    /// refined by [`KNEE_BISECTIONS`] bisection steps below it.
    knee_offered_rate: Option<f64>,
    /// Highest offered rate the sweep tried — the lower bound on the knee
    /// when the sweep never saturated.
    max_offered_rate: f64,
    /// Highest achieved throughput anywhere in the sweep.
    capacity_ops_per_sec: f64,
    /// All below-knee rows passed the 3σ load band.
    below_knee_load_ok: bool,
}

impl KneeRow {
    /// The knee for gating purposes: where the sweep saturated, or (as a
    /// conservative lower bound) the top rate swept when it never did.
    fn effective_knee(&self) -> f64 {
        self.knee_offered_rate.unwrap_or(self.max_offered_rate)
    }

    /// Improvement over the committed v1 baseline knee, when one exists.
    fn knee_ratio(&self) -> Option<f64> {
        baseline_knee(self.backend, &self.construction).map(|b| self.effective_knee() / b)
    }
}

/// Measures one (backend, construction, rate) point on a freshly spawned
/// service, and validates the below-knee load against the certified value.
#[allow(clippy::too_many_arguments)]
fn run_point<S>(
    backend: Backend,
    strategic: &StrategicQuorumSystem<S>,
    b: usize,
    certified_load: f64,
    rate: f64,
    config: &OpenLoopConfig,
    point_tag: usize,
    failures: &mut Vec<String>,
) -> SweepPoint
where
    S: MinWeightQuorumOracle,
{
    let name = strategic.name();
    let n = strategic.universe_size();
    let plan = FaultPlan::none(n);
    let shards = 2;
    let seed = 0xbe7_0001 ^ point_tag as u64;
    let config = OpenLoopConfig {
        offered_rate: rate,
        seed: config.seed ^ point_tag as u64,
        ..*config
    };
    eprintln!(
        "bench_net: {} / {name} at {rate:.0} offered ops/s ({} arrivals)...",
        backend.name(),
        config.total_arrivals
    );
    let ((report, access_counts), seconds) = time(|| {
        let net = NetConfig {
            pool: 2,
            request_deadline: Duration::from_secs(3),
            ..NetConfig::default()
        };
        let deployment =
            Deployment::start(backend, &plan, shards, seed, net).expect("start the deployment");
        let service = deployment.service();
        let report = run_open_loop_session(
            strategic,
            b,
            &deployment,
            service.responsive_set(),
            &config,
            &OpenLoopSession::default(),
        );
        (report, service.metrics().access_counts())
    });

    // Gates that hold at every rate, saturated or not.
    if report.safety_violations > 0 {
        failures.push(format!(
            "{}/{name} at {rate:.0} ops/s: {} safety violations",
            backend.name(),
            report.safety_violations
        ));
    }
    let accounted = report.completed()
        + report.shed
        + report.timed_out
        + report.no_live_quorum
        + report.rejected_sends;
    if accounted != report.scheduled {
        failures.push(format!(
            "{}/{name} at {rate:.0} ops/s: {accounted} of {} arrivals accounted",
            backend.name(),
            report.scheduled
        ));
    }

    let lost = report.shed + report.timed_out + report.rejected_sends;
    let saturated = lost as f64 > LOSS_FRACTION * report.scheduled as f64
        || report.achieved_ops_per_sec
            < KNEE_FRACTION * report.realized_offered_ops_per_sec.min(rate)
        || report.realized_offered_ops_per_sec < INJECTION_FRACTION * rate;
    // Below the knee the empirical load must sit in the certified band. The
    // denominator counts every operation that contacted a full quorum: the
    // completed ones, the client-side-expired ones (delivered server-side all
    // the same), and the priming write.
    let quorum_contacts = report.load_operations + report.timed_out + 1;
    let load_check = (!saturated && report.load_operations > 0)
        .then(|| empirical_load_check(&name, &access_counts, quorum_contacts, certified_load));
    SweepPoint {
        backend: backend.name(),
        construction: name,
        n,
        b,
        offered_rate: rate,
        saturated,
        report,
        load_check,
        seconds,
    }
}

/// Sweeps offered rate for one backend × construction and summarises the
/// knee.
#[allow(clippy::too_many_arguments)]
fn sweep<S>(
    backend: Backend,
    strategic: &StrategicQuorumSystem<S>,
    b: usize,
    certified_load: f64,
    rates: &[f64],
    base_config: &OpenLoopConfig,
    arrivals_for: impl Fn(f64) -> usize,
    tag_base: usize,
    points: &mut Vec<SweepPoint>,
    failures: &mut Vec<String>,
) -> KneeRow
where
    S: MinWeightQuorumOracle,
{
    let measure = |rate: f64, tag: usize, failures: &mut Vec<String>| {
        let config = OpenLoopConfig {
            total_arrivals: arrivals_for(rate),
            ..*base_config
        };
        run_point(
            backend,
            strategic,
            b,
            certified_load,
            rate,
            &config,
            tag,
            failures,
        )
    };
    let first = points.len();
    for (i, &rate) in rates.iter().enumerate() {
        points.push(measure(rate, tag_base + i, failures));
    }
    // A ladder step past the knee can be 2× wide, so one noisy point would
    // move the knee by a whole step: narrow the step around the first
    // saturated rate by geometric bisection.
    let ladder_knee = points[first..].iter().position(|p| p.saturated);
    let mut knee_offered_rate = ladder_knee.map(|i| rates[i]);
    if let Some(i) = ladder_knee.filter(|&i| i > 0) {
        let (mut unsaturated, mut saturated) = (rates[i - 1], rates[i]);
        for step in 0..KNEE_BISECTIONS {
            let rate = (unsaturated * saturated).sqrt().round();
            let point = measure(rate, tag_base + rates.len() + step, failures);
            if point.saturated {
                saturated = rate;
            } else {
                unsaturated = rate;
            }
            points.push(point);
        }
        knee_offered_rate = Some(saturated);
    }
    let sweep_points = &points[first..];
    let capacity = sweep_points
        .iter()
        .map(|p| p.report.achieved_ops_per_sec)
        .fold(0.0f64, f64::max);
    let below_knee_load_ok = sweep_points
        .iter()
        .filter_map(|p| p.load_check.as_ref())
        .all(|c| c.within_tolerance);
    KneeRow {
        backend: backend.name(),
        construction: strategic.name(),
        n: strategic.universe_size(),
        knee_offered_rate,
        max_offered_rate: rates.last().copied().unwrap_or(0.0),
        capacity_ops_per_sec: capacity,
        below_knee_load_ok,
    }
}

fn main() {
    let (quick, output) = bench_args("bench_net", "BENCH_net.json");
    let mut failures: Vec<String> = Vec::new();
    let mut points: Vec<SweepPoint> = Vec::new();
    let mut knees: Vec<KneeRow> = Vec::new();

    let base_config = if quick {
        OpenLoopConfig {
            workers: 2,
            virtual_clients: 200,
            write_fraction: 0.2,
            max_in_flight_per_worker: 2_048,
            op_deadline: Duration::from_secs(2),
            tail_deadline: Duration::from_secs(2),
            seed: 0x6e7_11e7,
            ..OpenLoopConfig::default()
        }
    } else {
        OpenLoopConfig {
            workers: 2,
            virtual_clients: 1_000,
            write_fraction: 0.2,
            max_in_flight_per_worker: 2_048,
            op_deadline: Duration::from_secs(2),
            tail_deadline: Duration::from_secs(4),
            seed: 0x6e7_11e7,
            ..OpenLoopConfig::default()
        }
    };

    // The certified-optimal strategies: the sweep validates the load theorem
    // through the transport, not just an ad-hoc access rule.
    let grid = GridSystem::new(5, 1).unwrap();
    let grid_cert = optimal_load_oracle(&grid).expect("grid certifies");
    assert!(grid_cert.gap <= 1e-9);
    let grid_load = grid_cert.load;
    let grid = StrategicQuorumSystem::from_certified(grid, &grid_cert).unwrap();

    if quick {
        let rates = [200.0, 500.0, 1_000.0, 2_000.0, 4_000.0];
        let arrivals = |rate: f64| ((rate / 2.0) as usize).clamp(300, 600);
        for (i, backend) in [Backend::Loopback, Backend::Uds].into_iter().enumerate() {
            knees.push(sweep(
                backend,
                &grid,
                1,
                grid_load,
                &rates,
                &base_config,
                arrivals,
                100 * (i + 1),
                &mut points,
                &mut failures,
            ));
        }
        // Knee sanity: the lowest offered rate must not be saturated — a
        // transport that cannot sustain 200 ops/s on a 25-server grid is
        // broken, not slow.
        for knee in &knees {
            if knee.knee_offered_rate == Some(rates[0]) {
                failures.push(format!(
                    "{}/{}: saturated at the lowest offered rate",
                    knee.backend, knee.construction
                ));
            }
            if knee.capacity_ops_per_sec <= 0.0 {
                failures.push(format!(
                    "{}/{}: no throughput at all",
                    knee.backend, knee.construction
                ));
            }
        }
    } else {
        let mgrid = MGridSystem::new(5, 2).unwrap();
        let mgrid_cert = optimal_load_oracle(&mgrid).expect("m-grid certifies");
        assert!(mgrid_cert.gap <= 1e-9);
        let mgrid_load = mgrid_cert.load;
        let mgrid = StrategicQuorumSystem::from_certified(mgrid, &mgrid_cert).unwrap();

        let rates = [
            500.0, 1_000.0, 2_000.0, 4_000.0, 8_000.0, 16_000.0, 32_000.0, 64_000.0, 96_000.0,
            192_000.0,
        ];
        let arrivals = |rate: f64| (rate as usize).clamp(1_000, 24_000);
        let backends = [Backend::Loopback, Backend::Uds, Backend::Tcp];
        let mut tag = 0usize;
        for backend in backends {
            tag += 1;
            knees.push(sweep(
                backend,
                &grid,
                1,
                grid_load,
                &rates,
                &base_config,
                arrivals,
                1_000 * tag,
                &mut points,
                &mut failures,
            ));
            tag += 1;
            knees.push(sweep(
                backend,
                &mgrid,
                2,
                mgrid_load,
                &rates,
                &base_config,
                arrivals,
                1_000 * tag,
                &mut points,
                &mut failures,
            ));
        }
        for knee in &knees {
            if !knee.below_knee_load_ok {
                failures.push(format!(
                    "{}/{}: below-knee empirical load outside the certified 3-sigma band",
                    knee.backend, knee.construction
                ));
            }
            // The tentpole gate: socket knees must have moved by
            // KNEE_GATE_RATIO over the committed pre-batching baseline.
            if knee.backend != "loopback" {
                if let Some(ratio) = knee.knee_ratio() {
                    if ratio < KNEE_GATE_RATIO {
                        failures.push(format!(
                            "{}/{}: knee {:.0} is only {ratio:.2}x the v1 baseline (gate {KNEE_GATE_RATIO}x)",
                            knee.backend,
                            knee.construction,
                            knee.effective_knee()
                        ));
                    }
                }
            }
        }
    }

    // --- Emit JSON. --------------------------------------------------------
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!(
        "  \"schema\": \"bench_net/v2\",\n  \"available_parallelism\": {cores},\n  \"quick\": {quick},\n  \"knee_fraction\": {KNEE_FRACTION},\n  \"knee_gate_ratio\": {KNEE_GATE_RATIO},\n"
    ));
    json.push_str("  \"sweep\": [\n");
    for (i, p) in points.iter().enumerate() {
        let r = &p.report;
        let load_fields = match &p.load_check {
            Some(c) => format!(
                "\"certified_load\": {:.12}, \"empirical_max_load\": {:.12}, \"sigma\": {:e}, \"tolerance\": {:e}, \"z\": {:.3}, \"within_tolerance\": {}",
                c.certified_load, c.empirical_max_load, c.sigma, c.tolerance, c.z, c.within_tolerance
            ),
            None => "\"certified_load\": null, \"empirical_max_load\": null, \"sigma\": null, \"tolerance\": null, \"z\": null, \"within_tolerance\": null".to_string(),
        };
        json.push_str(&format!(
            "    {{\"backend\": \"{}\", \"construction\": \"{}\", \"n\": {}, \"b\": {}, \"generator\": \"open_loop\", \"offered_ops_per_sec\": {:.1}, \"realized_offered_ops_per_sec\": {:.1}, \"achieved_ops_per_sec\": {:.1}, \"saturated\": {}, \"scheduled\": {}, \"completed_writes\": {}, \"completed_reads\": {}, \"inconclusive_reads\": {}, \"shed\": {}, \"timed_out\": {}, \"no_live_quorum\": {}, \"rejected_sends\": {}, \"safety_violations\": {}, \"peak_in_flight\": {}, \"latency_mean_ns\": {}, \"latency_p50_ns\": {}, \"latency_p90_ns\": {}, \"latency_p99_ns\": {}, \"latency_max_ns\": {}, \"latency_hist_p50_ns\": {}, \"latency_hist_p99_ns\": {}, \"latency_hist_p999_ns\": {}, \"elapsed_seconds\": {:e}, \"seconds\": {:e}, {}}}{}\n",
            p.backend,
            json_escape(&p.construction),
            p.n,
            p.b,
            p.offered_rate,
            r.realized_offered_ops_per_sec,
            r.achieved_ops_per_sec,
            p.saturated,
            r.scheduled,
            r.completed_writes,
            r.completed_reads,
            r.inconclusive_reads,
            r.shed,
            r.timed_out,
            r.no_live_quorum,
            r.rejected_sends,
            r.safety_violations,
            r.peak_in_flight,
            r.latency_mean_ns,
            r.latency_p50_ns,
            r.latency_p90_ns,
            r.latency_p99_ns,
            r.latency_max_ns,
            r.latency_hist_p50_ns,
            r.latency_hist_p99_ns,
            r.latency_hist_p999_ns,
            r.elapsed_seconds,
            p.seconds,
            load_fields,
            if i + 1 == points.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n  \"knees\": [\n");
    for (i, k) in knees.iter().enumerate() {
        let knee = k
            .knee_offered_rate
            .map_or("null".to_string(), |v| format!("{v:.1}"));
        let baseline = baseline_knee(k.backend, &k.construction)
            .map_or("null".to_string(), |v| format!("{v:.1}"));
        let ratio = k
            .knee_ratio()
            .map_or("null".to_string(), |v| format!("{v:.3}"));
        json.push_str(&format!(
            "    {{\"backend\": \"{}\", \"construction\": \"{}\", \"n\": {}, \"knee_offered_rate\": {}, \"max_offered_rate\": {:.1}, \"baseline_knee_offered_rate\": {}, \"knee_ratio\": {}, \"capacity_ops_per_sec\": {:.1}, \"below_knee_load_ok\": {}}}{}\n",
            k.backend,
            json_escape(&k.construction),
            k.n,
            knee,
            k.max_offered_rate,
            baseline,
            ratio,
            k.capacity_ops_per_sec,
            k.below_knee_load_ok,
            if i + 1 == knees.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&output, &json).expect("write benchmark output");

    // --- Human-readable summary. -------------------------------------------
    println!(
        "{:<10} {:<22} {:>9} {:>9} {:>5} {:>10} {:>10} {:>10} {:>7}",
        "backend",
        "construction",
        "offered",
        "achieved",
        "sat",
        "p50 us",
        "p99 us",
        "max us",
        "within"
    );
    for p in &points {
        let r = &p.report;
        println!(
            "{:<10} {:<22} {:>9.0} {:>9.0} {:>5} {:>10.1} {:>10.1} {:>10.1} {:>7}",
            p.backend,
            p.construction,
            p.offered_rate,
            r.achieved_ops_per_sec,
            p.saturated,
            r.latency_p50_ns as f64 / 1e3,
            r.latency_p99_ns as f64 / 1e3,
            r.latency_max_ns as f64 / 1e3,
            p.load_check
                .as_ref()
                .map_or("-".to_string(), |c| c.within_tolerance.to_string()),
        );
    }
    println!(
        "\n{:<10} {:<22} {:>12} {:>12} {:>8} {:>14}",
        "backend", "construction", "knee", "capacity", "ratio", "load ok"
    );
    for k in &knees {
        println!(
            "{:<10} {:<22} {:>12} {:>12.0} {:>8} {:>14}",
            k.backend,
            k.construction,
            k.knee_offered_rate
                .map_or("none".to_string(), |v| format!("{v:.0}")),
            k.capacity_ops_per_sec,
            k.knee_ratio()
                .map_or("-".to_string(), |v| format!("{v:.2}x")),
            k.below_knee_load_ok
        );
    }
    println!("wrote {output}");

    exit_on_failures(&failures);
}
