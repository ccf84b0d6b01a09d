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
use bqs_bench::{bench_args, time, Gate, Json};
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

/// One measured point of a sweep: what the knee search reads, and the
/// point's `sweep` row.
struct SweepPoint {
    saturated: bool,
    achieved_ops_per_sec: f64,
    /// Whether the busiest server sat in the certified load band; `None` for
    /// saturated points, which are not checked.
    within_tolerance: Option<bool>,
    row: Json,
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
    gate: &mut Gate,
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
    let cell = format!("{}/{name} at {rate:.0} ops/s", backend.name());
    gate.check(
        report.safety_violations == 0,
        format!("{cell}: {} safety violations", report.safety_violations),
    );
    let accounted = report.completed()
        + report.shed
        + report.timed_out
        + report.no_live_quorum
        + report.rejected_sends;
    gate.check(
        accounted == report.scheduled,
        format!(
            "{cell}: {accounted} of {} arrivals accounted",
            report.scheduled
        ),
    );

    let lost = report.shed + report.timed_out + report.rejected_sends;
    let saturated = lost as f64 > LOSS_FRACTION * report.scheduled as f64
        || report.achieved_ops_per_sec
            < KNEE_FRACTION * report.realized_offered_ops_per_sec.min(rate)
        || report.realized_offered_ops_per_sec < INJECTION_FRACTION * rate;
    // Below the knee the empirical load must sit in the certified band. The
    // denominator counts every operation that contacted a full quorum: the
    // completed ones and the client-side-expired ones (delivered server-side
    // all the same).
    let quorum_contacts = report.load_operations + report.timed_out;
    let load_check = (!saturated && report.load_operations > 0)
        .then(|| empirical_load_check(&name, &access_counts, quorum_contacts, certified_load));
    let band =
        |field: fn(&EmpiricalLoadCheck) -> Json| load_check.as_ref().map_or(Json::Null, field);
    let r = &report;
    let row = Json::obj([
        ("backend", Json::str(backend.name())),
        ("construction", Json::str(name)),
        ("n", Json::num(n)),
        ("b", Json::num(b)),
        ("generator", Json::str("open_loop")),
        ("offered_ops_per_sec", Json::fixed(rate, 1)),
        (
            "realized_offered_ops_per_sec",
            Json::fixed(r.realized_offered_ops_per_sec, 1),
        ),
        (
            "achieved_ops_per_sec",
            Json::fixed(r.achieved_ops_per_sec, 1),
        ),
        ("saturated", Json::Bool(saturated)),
        ("scheduled", Json::num(r.scheduled)),
        ("completed_writes", Json::num(r.completed_writes)),
        ("completed_reads", Json::num(r.completed_reads)),
        ("inconclusive_reads", Json::num(r.inconclusive_reads)),
        ("shed", Json::num(r.shed)),
        ("timed_out", Json::num(r.timed_out)),
        ("no_live_quorum", Json::num(r.no_live_quorum)),
        ("rejected_sends", Json::num(r.rejected_sends)),
        ("safety_violations", Json::num(r.safety_violations)),
        ("peak_in_flight", Json::num(r.peak_in_flight)),
        ("latency_mean_ns", Json::num(r.latency_mean_ns)),
        ("latency_p50_ns", Json::num(r.latency_p50_ns)),
        ("latency_p90_ns", Json::num(r.latency_p90_ns)),
        ("latency_p99_ns", Json::num(r.latency_p99_ns)),
        ("latency_max_ns", Json::num(r.latency_max_ns)),
        ("latency_hist_p50_ns", Json::num(r.latency_hist_p50_ns)),
        ("latency_hist_p99_ns", Json::num(r.latency_hist_p99_ns)),
        ("latency_hist_p999_ns", Json::num(r.latency_hist_p999_ns)),
        ("elapsed_seconds", Json::sci(r.elapsed_seconds)),
        ("seconds", Json::sci(seconds)),
        (
            "certified_load",
            band(|c| Json::fixed(c.certified_load, 12)),
        ),
        (
            "empirical_max_load",
            band(|c| Json::fixed(c.empirical_max_load, 12)),
        ),
        ("sigma", band(|c| Json::sci(c.sigma))),
        ("tolerance", band(|c| Json::sci(c.tolerance))),
        ("z", band(|c| Json::fixed(c.z, 3))),
        ("within_tolerance", band(|c| Json::Bool(c.within_tolerance))),
    ]);
    SweepPoint {
        saturated,
        achieved_ops_per_sec: report.achieved_ops_per_sec,
        within_tolerance: load_check.map(|c| c.within_tolerance),
        row,
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
    gate: &mut Gate,
) -> KneeRow
where
    S: MinWeightQuorumOracle,
{
    let measure = |rate: f64, tag: usize, gate: &mut Gate| {
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
            gate,
        )
    };
    let first = points.len();
    for (i, &rate) in rates.iter().enumerate() {
        points.push(measure(rate, tag_base + i, gate));
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
            let point = measure(rate, tag_base + rates.len() + step, gate);
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
        .map(|p| p.achieved_ops_per_sec)
        .fold(0.0f64, f64::max);
    let below_knee_load_ok = sweep_points
        .iter()
        .filter_map(|p| p.within_tolerance)
        .all(|within| within);
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
    let mut gate = Gate::default();
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
                &mut gate,
            ));
        }
        // Knee sanity: the lowest offered rate must not be saturated — a
        // transport that cannot sustain 200 ops/s on a 25-server grid is
        // broken, not slow.
        for knee in &knees {
            let cell = format!("{}/{}", knee.backend, knee.construction);
            gate.check(
                knee.knee_offered_rate != Some(rates[0]),
                format!("{cell}: saturated at the lowest offered rate"),
            );
            gate.check(
                knee.capacity_ops_per_sec > 0.0,
                format!("{cell}: no throughput at all"),
            );
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
                &mut gate,
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
                &mut gate,
            ));
        }
        for knee in &knees {
            let cell = format!("{}/{}", knee.backend, knee.construction);
            gate.check(
                knee.below_knee_load_ok,
                format!("{cell}: below-knee empirical load outside the certified 3-sigma band"),
            );
            // The tentpole gate: socket knees must have moved by
            // KNEE_GATE_RATIO over the committed pre-batching baseline.
            if let Some(ratio) = knee.knee_ratio().filter(|_| knee.backend != "loopback") {
                gate.check(
                    ratio >= KNEE_GATE_RATIO,
                    format!(
                        "{cell}: knee {:.0} is only {ratio:.2}x the v1 baseline (gate {KNEE_GATE_RATIO}x)",
                        knee.effective_knee()
                    ),
                );
            }
        }
    }

    let knee_rows = knees.iter().map(|k| {
        let rate = |v: Option<f64>| v.map_or(Json::Null, |v| Json::fixed(v, 1));
        Json::obj([
            ("backend", Json::str(k.backend)),
            ("construction", Json::str(&k.construction)),
            ("n", Json::num(k.n)),
            ("knee_offered_rate", rate(k.knee_offered_rate)),
            ("max_offered_rate", Json::fixed(k.max_offered_rate, 1)),
            (
                "baseline_knee_offered_rate",
                rate(baseline_knee(k.backend, &k.construction)),
            ),
            (
                "knee_ratio",
                k.knee_ratio().map_or(Json::Null, |v| Json::fixed(v, 3)),
            ),
            (
                "capacity_ops_per_sec",
                Json::fixed(k.capacity_ops_per_sec, 1),
            ),
            ("below_knee_load_ok", Json::Bool(k.below_knee_load_ok)),
        ])
    });
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let report = Json::obj([
        ("schema", Json::str("bench_net/v2")),
        ("available_parallelism", Json::num(cores)),
        ("quick", Json::Bool(quick)),
        ("knee_fraction", Json::num(KNEE_FRACTION)),
        ("knee_gate_ratio", Json::num(KNEE_GATE_RATIO)),
        ("sweep", Json::arr(points.into_iter().map(|p| p.row))),
        ("knees", Json::arr(knee_rows)),
    ]);
    gate.finish(&output, &report);
}
