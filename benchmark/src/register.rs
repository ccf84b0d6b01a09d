//! The three register workloads: a closed-loop client over the loopback and
//! over a Unix-domain socket, and pipelined open-loop writes over TCP. Each
//! runs on one CPU; see `sys` for why.
//!
//! There is no injected message delay and every socket is host loopback or
//! Unix-domain, so every latency here is processor and kernel time only.

use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::adapter::{
    self, authentic_value, Client, Draws, Entry, Faults, RegisterSpec, Service, Transport,
    WriterClock,
};
use crate::hist::LogHistogram;
use crate::procfs::{self, CpuTicks, Interface};
use crate::spec::{self, Better, MetricSet};
use crate::sys;
use crate::trace::{self, Fanout, StageMeans, TimedTransport, TraceClock};
use crate::{median, quiet, RunArgs, RunOutcome};

/// Share of the closed-loop client's operations that are writes.
const WRITE_SHARE: f64 = 0.1;
/// Traffic runs for this long before a window opens, so that what is timed
/// is the steady state: first-touch allocation and connection warm-up are
/// over, and the transport's deadline heap has stopped growing. (Without it
/// the first [`adapter::REQUEST_DEADLINE`] of a window run up to twice as
/// fast as the rest, and the best slices are all from that start-up.)
const WARMUP_SECONDS: f64 = 0.5;
/// `setup_s` is taken over two groups of set-up/tear-down cycles, one on each
/// side of the window: each group is at least [`MIN_SETUP_CYCLES`], and more
/// while they are cheap (a 30 us set-up needs many samples), up to
/// [`SETUP_CYCLE_SECONDS`].
const MIN_SETUP_CYCLES: usize = 5;
const MAX_SETUP_CYCLES: usize = 100;
const SETUP_CYCLE_SECONDS: f64 = 0.4;
/// A traced run splits `--seconds` between an untraced window (the
/// counters, and the base the tracing overhead is measured against) and the
/// traced one.
const UNTRACED_SHARE: f64 = 0.55;
const TRACED_SHARE: f64 = 0.35;
/// A traced closed-loop window times one operation in this many. Timing one
/// costs about 2 us (three allocations, a dozen clock reads, a stamp per
/// reply), as much as a whole loopback operation: timing every one would
/// slow the window by two thirds and hold half a gigabyte of records.
const TRACE_EVERY: u64 = 16;
/// Least time each kernel timer runs.
const KERNEL_SECONDS: f64 = 0.2;
/// A window is cut into slices of this length and each end-to-end metric is
/// taken per slice; see [`crate::quiet`] for why.
const SLICE_SECONDS: f64 = 0.5;

#[derive(Clone, Copy, PartialEq)]
enum Backend {
    Loopback,
    Uds,
    Tcp,
}

#[derive(Clone, Copy)]
enum Traffic {
    /// One closed-loop client: each operation waits for the one before.
    Closed,
    /// Poisson arrivals at `rate` per second, pipelined.
    Pipelined { rate: f64, write_fraction: f64 },
}

struct Workload {
    name: &'static str,
    backend: Backend,
    shards: usize,
    traffic: Traffic,
    certify: fn() -> RegisterSpec,
    fabricating: usize,
    crashed: usize,
}

fn workload(name: &str) -> Workload {
    // Grid(5,1): n = 25, |Q| = 9, one fabricating server (b = 1).
    let closed = |name, backend| Workload {
        name,
        backend,
        shards: 1,
        traffic: Traffic::Closed,
        certify: || RegisterSpec::grid(5, 1),
        fabricating: 1,
        crashed: 0,
    };
    match name {
        spec::LOOPBACK_CLOSED => closed(spec::LOOPBACK_CLOSED, Backend::Loopback),
        spec::UDS_CLOSED => closed(spec::UDS_CLOSED, Backend::Uds),
        // M-Grid(7,3): n = 49, |Q| = 24, b = 3 fabricating servers plus one
        // crashed one (the paper's hybrid fault model), so about half the
        // sampled quorums must be drawn again.
        spec::TCP_PIPELINED_WRITES => Workload {
            name: spec::TCP_PIPELINED_WRITES,
            backend: Backend::Tcp,
            shards: 1,
            traffic: Traffic::Pipelined {
                rate: 8_000.0,
                write_fraction: 0.8,
            },
            certify: || RegisterSpec::mgrid(7, 3),
            fabricating: 3,
            crashed: 1,
        },
        other => unreachable!("{other} is not a register workload"),
    }
}

impl Workload {
    fn write_share(&self) -> f64 {
        match self.traffic {
            Traffic::Closed => WRITE_SHARE,
            Traffic::Pipelined { write_fraction, .. } => write_fraction,
        }
    }

    /// The faulty servers, chosen by the seed.
    fn faults(&self, n: usize, seed: u64) -> Faults {
        let chosen = Draws::new(seed ^ 0xfa17).distinct(n, self.fabricating + self.crashed);
        let (fabricating, crashed) = chosen.split_at(self.fabricating);
        Faults::new(n, fabricating, crashed)
    }

    fn start(&self, n: usize, seed: u64, socket: &Path) -> Result<Service, String> {
        let faults = self.faults(n, seed);
        match self.backend {
            Backend::Loopback => Ok(Service::loopback(&faults, self.shards, seed)),
            Backend::Uds => Service::uds(socket, &faults, self.shards, seed),
            Backend::Tcp => Service::tcp(&faults, self.shards, seed),
        }
        .map_err(|e| format!("{}: starting the service: {e}", self.name))
    }

    /// Everything a run needs before its window: certify the strategy, start
    /// the service (spawn, bind, connect) and prime the register.
    fn set_up(&self, seed: u64, socket: &Path) -> Result<Ready, String> {
        let spec = (self.certify)();
        let service = self.start(spec.n(), seed, socket)?;
        let clock = WriterClock::default();
        let ts = clock.allocate();
        Client::new(&spec, service.transport(), service.responsive(), 1, seed)
            .write(Entry {
                timestamp: ts,
                value: authentic_value(ts),
            })
            .map_err(|e| format!("{}: priming write: {e}", self.name))?;
        Ok(Ready {
            spec,
            service,
            clock,
        })
    }

    /// Times set-up cycles into `setups`: at least [`MIN_SETUP_CYCLES`], and
    /// more while they are cheap. Set-up alone is timed; tearing the service
    /// down again is not.
    fn time_set_ups(&self, seed: u64, socket: &Path, setups: &mut Vec<f64>) -> Result<(), String> {
        let began = Instant::now();
        let already = setups.len();
        while setups.len() - already < MIN_SETUP_CYCLES
            || (setups.len() - already < MAX_SETUP_CYCLES
                && began.elapsed().as_secs_f64() < SETUP_CYCLE_SECONDS)
        {
            let started = Instant::now();
            let ready = self.set_up(seed ^ (setups.len() as u64 + 1), socket)?;
            setups.push(started.elapsed().as_secs_f64());
            drop(ready);
        }
        Ok(())
    }
}

/// A certified system on a running, primed service.
struct Ready {
    spec: RegisterSpec,
    service: Service,
    clock: WriterClock,
}

/// Process-wide counters at one instant.
struct Counters {
    cpu: CpuTicks,
    switches: (u64, u64),
    loopback: Interface,
}

impl Counters {
    fn read() -> Result<Counters, String> {
        Ok(Counters {
            cpu: procfs::cpu_ticks()?,
            switches: procfs::thread_switches()?,
            loopback: procfs::loopback()?,
        })
    }
}

/// What a window cost, from the counters at its two ends.
struct Cost {
    cpu: CpuTicks,
    voluntary_switches: u64,
    involuntary_switches: u64,
    loopback_packets: u64,
    loopback_bytes: u64,
}

impl Cost {
    fn between(before: &Counters, after: &Counters) -> Cost {
        Cost {
            cpu: after.cpu.since(before.cpu),
            // A thread that exited in between takes its counts with it.
            voluntary_switches: after.switches.0.saturating_sub(before.switches.0),
            involuntary_switches: after.switches.1.saturating_sub(before.switches.1),
            loopback_packets: after.loopback.rx_packets - before.loopback.rx_packets,
            loopback_bytes: after.loopback.rx_bytes - before.loopback.rx_bytes,
        }
    }
}

/// One measured window of either traffic shape.
struct Window {
    attempted: u64,
    /// Operations that completed correctly.
    completed: u64,
    /// Why the window is incorrect, if it is.
    faults: Vec<String>,
    cost: Cost,
    slices: Slices,
    mean_us: f64,
    closed: Option<ClosedDetail>,
    open: Option<OpenTotals>,
    fanouts: Vec<Fanout>,
    net_failures: (u64, u64),
}

/// The end-to-end quantities of every slice of a window.
#[derive(Default)]
struct Slices {
    ops_per_s: Vec<f64>,
    p50_us: Vec<f64>,
    cpu_us_per_op: Vec<f64>,
}

struct ClosedDetail {
    all: LogHistogram,
    reads: LogHistogram,
    writes: LogHistogram,
    busiest_load_ratio: f64,
    operations: Vec<trace::Operation>,
}

/// What the closed-loop client did: warm-up first, then the window.
#[derive(Default)]
struct ClientTally {
    attempted: u64,
    /// Why each failed operation failed.
    failures: Vec<String>,
    all: LogHistogram,
    reads: LogHistogram,
    writes: LogHistogram,
    operations: Vec<trace::Operation>,
}

/// Runs the closed-loop client for `seconds` on the calling thread and
/// checks every result: reads return an authentic pair no newer than the
/// writer's clock, and the client reads its own completed writes.
fn closed_window(
    ready: &Ready,
    seconds: f64,
    seed: u64,
    traced: Option<TraceClock>,
) -> Result<Window, String> {
    let Ready {
        spec,
        service,
        clock,
    } = ready;
    let timed = traced.map(|clock| TimedTransport::new(service.transport(), clock, 1));
    let transport: &dyn Transport = match &timed {
        Some(timed) => timed,
        None => service.transport(),
    };
    let mut client = Client::new(spec, transport, service.responsive(), 1, seed ^ 0xc11e);
    let mut driver = ClosedDriver {
        draws: Draws::new(seed ^ 0xd1ce),
        clock,
        last_own_write: 0,
        next_operation: 0,
    };

    let mut warmup = ClientTally::default();
    let warmup_started = Instant::now();
    while warmup_started.elapsed().as_secs_f64() < WARMUP_SECONDS {
        let _ = driver.operation(&mut client, None, &mut warmup);
    }
    let warmup_fanouts = timed.as_ref().map_or(0, |t| t.fanouts().len());
    // Warm-up operations are not measured, but a failed one still makes the
    // run incorrect.
    let mut tally = ClientTally {
        failures: warmup.failures,
        ..ClientTally::default()
    };

    let stamp = traced.zip(timed.as_ref());
    let mut slices = Slices::default();
    let mut latencies: Vec<u64> = Vec::with_capacity(1 << 18);
    let before = Counters::read()?;
    for _ in 0..(seconds / SLICE_SECONDS).round().max(1.0) as u32 {
        let cpu_before = sys::process_cpu_ns();
        let started = Instant::now();
        while started.elapsed().as_secs_f64() < SLICE_SECONDS {
            if let Some(nanos) = driver.operation(&mut client, stamp, &mut tally) {
                latencies.push(nanos);
            }
        }
        let elapsed = started.elapsed().as_secs_f64();
        let cpu = sys::process_cpu_ns() - cpu_before;
        let completed = latencies.len().max(1) as f64;
        latencies.sort_unstable();
        slices.ops_per_s.push(latencies.len() as f64 / elapsed);
        slices.p50_us.push(
            latencies
                .get((latencies.len().max(1) - 1) / 2)
                .copied()
                .unwrap_or(0) as f64
                / 1e3,
        );
        slices.cpu_us_per_op.push(cpu as f64 / 1e3 / completed);
        latencies.clear();
    }
    let after = Counters::read()?;

    // The paper's load claim, on what the servers received over the whole
    // life of this service (the priming write, the warm-up, the window):
    // every operation contacted exactly one quorum.
    let (busiest_load_ratio, within_band) = adapter::load_check(
        spec,
        &service.access_counts(),
        1 + warmup.attempted + tally.attempted,
    );
    if !within_band {
        tally.failures.push(format!(
            "busiest server's load is {busiest_load_ratio:.4} of the certified L(Q), outside the band"
        ));
    }
    Ok(Window {
        attempted: tally.attempted,
        completed: tally.all.count(),
        faults: tally.failures,
        cost: Cost::between(&before, &after),
        slices,
        mean_us: tally.all.mean() / 1e3,
        closed: Some(ClosedDetail {
            all: tally.all,
            reads: tally.reads,
            writes: tally.writes,
            busiest_load_ratio,
            operations: tally.operations,
        }),
        open: None,
        fanouts: timed
            .as_ref()
            .map_or_else(Vec::new, |t| t.fanouts().split_off(warmup_fanouts)),
        net_failures: service.net_failures(),
    })
}

/// The closed-loop client's traffic and checks. It is the register's single
/// writer, so it must read its own writes.
struct ClosedDriver<'a> {
    draws: Draws,
    clock: &'a WriterClock,
    last_own_write: u64,
    next_operation: u64,
}

impl ClosedDriver<'_> {
    /// Runs one operation, checks its result and records it; returns its
    /// latency in nanoseconds if it completed correctly. `stamp` is the trace
    /// clock and transport when the window is traced; one operation in
    /// [`TRACE_EVERY`] is then timed.
    fn operation(
        &mut self,
        client: &mut Client<'_>,
        stamp: Option<(TraceClock, &TimedTransport<'_, dyn Transport + '_>)>,
        tally: &mut ClientTally,
    ) -> Option<u64> {
        let is_write = self.draws.chance(WRITE_SHARE);
        self.next_operation += 1;
        let id = self.next_operation;
        let traced_start = stamp.and_then(|(clock, timed)| {
            let sampled = id.is_multiple_of(TRACE_EVERY);
            timed.set_operation(if sampled { id } else { trace::UNTRACED });
            sampled.then(|| clock.now_ns())
        });
        let started = Instant::now();
        let result = if is_write {
            let ts = self.clock.allocate();
            let written = client.write(Entry {
                timestamp: ts,
                value: authentic_value(ts),
            });
            if written.is_ok() {
                self.last_own_write = ts;
            }
            written
        } else {
            client.read().and_then(|entry| {
                if entry.value != authentic_value(entry.timestamp)
                    || entry.timestamp > self.clock.latest()
                {
                    Err(format!("read returned a fabricated pair {entry:?}"))
                } else if entry.timestamp < self.last_own_write {
                    Err(format!(
                        "the writer read timestamp {} after completing write {}",
                        entry.timestamp, self.last_own_write
                    ))
                } else {
                    Ok(())
                }
            })
        };
        let nanos = started.elapsed().as_nanos() as u64;
        tally.attempted += 1;
        if let (Some(start), Some((clock, _))) = (traced_start, stamp) {
            tally.operations.push(trace::Operation {
                id,
                is_write,
                ok: result.is_ok(),
                start,
                end: clock.now_ns(),
            });
        }
        match result {
            Ok(()) => {
                tally.all.record(nanos);
                if is_write {
                    &mut tally.writes
                } else {
                    &mut tally.reads
                }
                .record(nanos);
                Some(nanos)
            }
            Err(why) => {
                tally.failures.push(why);
                None
            }
        }
    }
}

/// The open-loop generator's reports over a window's slices, summed.
#[derive(Default)]
struct OpenTotals {
    scheduled: u64,
    completed: u64,
    inconclusive: u64,
    shed: u64,
    timed_out: u64,
    peak_in_flight: u64,
    /// Per slice: `1 - realized / offered` arrival rate.
    sched_lag: Vec<f64>,
    /// Per slice: the generator's own exact percentiles.
    p90_us: Vec<f64>,
    p99_us: Vec<f64>,
}

/// Offers `seconds` of Poisson arrivals, one generator run per slice, and
/// checks every report.
fn pipelined_window(
    ready: &Ready,
    (rate, write_fraction): (f64, f64),
    seconds: f64,
    seed: u64,
    traced: Option<TraceClock>,
) -> Result<Window, String> {
    let Ready {
        spec,
        service,
        clock,
    } = ready;
    let timed = traced.map(|clock| TimedTransport::new(service.transport(), clock, 1));
    let transport: &dyn Transport = match &timed {
        Some(timed) => timed,
        None => service.transport(),
    };
    let offer = |seconds: f64, seed: u64| {
        adapter::open_loop(
            spec,
            transport,
            service.responsive(),
            clock,
            rate,
            ((rate * seconds) as usize).max(1),
            write_fraction,
            seed,
        )
    };
    offer(WARMUP_SECONDS, seed ^ 0x3a93);
    let warmup_fanouts = timed.as_ref().map_or(0, |t| t.fanouts().len());

    let mut slices = Slices::default();
    let mut totals = OpenTotals::default();
    let mut faults = Vec::new();
    let mut latency_sum_us = 0.0;
    let before = Counters::read()?;
    for slice in 0..(seconds / SLICE_SECONDS).round().max(1.0) as u64 {
        let cpu_before = sys::process_cpu_ns();
        let report = offer(SLICE_SECONDS, seed.wrapping_add(slice));
        let cpu = sys::process_cpu_ns() - cpu_before;

        let completed = report.completed();
        let accounted = completed
            + report.shed
            + report.timed_out
            + report.no_live_quorum
            + report.rejected_sends
            + report.fenced;
        if report.safety_violations > 0 {
            faults.push(format!(
                "{} reads returned a fabricated pair",
                report.safety_violations
            ));
        }
        if accounted != report.scheduled {
            faults.push(format!(
                "{accounted} of {} arrivals accounted for",
                report.scheduled
            ));
        }
        slices.ops_per_s.push(report.achieved_ops_per_sec);
        slices.p50_us.push(report.latency_p50_ns as f64 / 1e3);
        slices
            .cpu_us_per_op
            .push(cpu as f64 / 1e3 / completed.max(1) as f64);
        latency_sum_us += report.latency_mean_ns as f64 / 1e3 * completed as f64;
        totals.scheduled += report.scheduled;
        totals.completed += completed - report.safety_violations.min(completed);
        totals.inconclusive += report.inconclusive_reads;
        totals.shed += report.shed;
        totals.timed_out += report.timed_out;
        totals.peak_in_flight = totals.peak_in_flight.max(report.peak_in_flight);
        totals
            .sched_lag
            .push(1.0 - report.realized_offered_ops_per_sec / report.offered_rate);
        totals.p90_us.push(report.latency_p90_ns as f64 / 1e3);
        totals.p99_us.push(report.latency_p99_ns as f64 / 1e3);
    }
    let after = Counters::read()?;
    Ok(Window {
        attempted: totals.scheduled,
        completed: totals.completed,
        faults,
        cost: Cost::between(&before, &after),
        slices,
        mean_us: latency_sum_us / totals.completed.max(1) as f64,
        closed: None,
        open: Some(totals),
        fanouts: timed
            .as_ref()
            .map_or_else(Vec::new, |t| t.fanouts().split_off(warmup_fanouts)),
        net_failures: service.net_failures(),
    })
}

impl Workload {
    fn window(
        &self,
        ready: &Ready,
        seconds: f64,
        seed: u64,
        traced: Option<TraceClock>,
    ) -> Result<Window, String> {
        match self.traffic {
            Traffic::Closed => closed_window(ready, seconds, seed, traced),
            Traffic::Pipelined {
                rate,
                write_fraction,
            } => pipelined_window(ready, (rate, write_fraction), seconds, seed, traced),
        }
    }
}

/// A socket path inside the checkout, short enough for `sockaddr_un`.
fn socket_path(out_dir: &Path) -> PathBuf {
    out_dir.join(format!("bench-{}.sock", std::process::id()))
}

pub fn run(args: &RunArgs) -> Result<RunOutcome, String> {
    let workload = workload(args.workload);
    let socket = socket_path(&args.out_dir);
    // From here on every thread of this process, the library's included,
    // runs on one CPU (see `sys`).
    if sys::pin_to_one_cpu().is_none() {
        eprintln!("bench: the kernel refused to pin the run to one CPU; threads are left to the scheduler");
    }
    let outcome = if args.trace {
        traced_run(&workload, args, &socket)
    } else {
        untraced_run(&workload, args, &socket)
    };
    let _ = std::fs::remove_file(&socket);
    outcome
}

/// The end-to-end metrics: set-up cycles, then one window with tracing off.
fn untraced_run(workload: &Workload, args: &RunArgs, socket: &Path) -> Result<RunOutcome, String> {
    // Half the set-up cycles run before the window and half after it, so
    // that one disturbed spell of the machine cannot cover them all.
    let mut setups = Vec::new();
    workload.time_set_ups(args.seed, socket, &mut setups)?;
    let ready = workload.set_up(args.seed, socket)?;
    let window = workload.window(&ready, args.seconds, args.seed, None)?;
    drop(ready);
    workload.time_set_ups(args.seed, socket, &mut setups)?;

    let mut metrics = MetricSet::end_to_end();
    metrics.set("setup_s", quiet(&setups, Better::Lower));
    metrics.set("ops_per_s", quiet(&window.slices.ops_per_s, Better::Higher));
    metrics.set("op_p50_us", quiet(&window.slices.p50_us, Better::Lower));
    metrics.set(
        "cpu_us_per_op",
        quiet(&window.slices.cpu_us_per_op, Better::Lower),
    );
    Ok(RunOutcome {
        attempted: window.attempted,
        failed: window.attempted - window.completed,
        faults: window.faults,
        metrics,
    })
}

/// The per-layer metrics: an untraced window for the counters, a traced
/// window for the spans, and the kernel timers.
fn traced_run(workload: &Workload, args: &RunArgs, socket: &Path) -> Result<RunOutcome, String> {
    let ready = workload.set_up(args.seed, socket)?;
    let base = workload.window(&ready, args.seconds * UNTRACED_SHARE, args.seed, None)?;
    drop(ready);
    // Before the traced window, whose records would be most of it.
    let untraced_peak_rss_mb = procfs::peak_rss_mb()?;

    let ready = workload.set_up(args.seed, socket)?;
    let clock = TraceClock::start();
    let traced = workload.window(&ready, args.seconds * TRACED_SHARE, args.seed, Some(clock))?;
    let over_sockets = workload.backend != Backend::Loopback;
    let mut m = MetricSet::per_layer();
    for mut kernel in adapter::register_kernels(
        &ready.spec,
        ready.service.responsive(),
        workload.write_share(),
        over_sockets,
        args.seed,
    ) {
        m.set(kernel.metric, time_kernel(&mut kernel));
    }
    let quorum_size = ready.spec.quorum_size;
    drop(ready);

    let completed = base.completed.max(1) as f64;
    let attempted = base.attempted + traced.attempted;
    let failed = attempted - base.completed - traced.completed;
    m.set("failed_share", failed as f64 / attempted.max(1) as f64);
    m.set(
        "os.vol_ctx_switches_per_op",
        base.cost.voluntary_switches as f64 / completed,
    );
    m.set(
        "os.invol_ctx_switches_per_op",
        base.cost.involuntary_switches as f64 / completed,
    );
    let cpu_seconds = base.cost.cpu.total_seconds();
    if cpu_seconds > 0.0 {
        m.set(
            "os.cpu_user_share",
            base.cost.cpu.user_seconds() / cpu_seconds,
        );
    }
    m.set(
        "net.io.lo_packets_per_op",
        base.cost.loopback_packets as f64 / completed,
    );
    m.set(
        "net.io.lo_bytes_per_op",
        base.cost.loopback_bytes as f64 / completed,
    );
    m.set(
        "net.transport.deadline_expiries",
        (base.net_failures.0 + traced.net_failures.0) as f64,
    );
    m.set(
        "net.transport.reconnects",
        (base.net_failures.1 + traced.net_failures.1) as f64,
    );
    if over_sockets {
        m.set(
            "net.codec.bytes_per_op",
            adapter::wire_bytes_per_op(quorum_size, workload.write_share()),
        );
    }

    if let Some(detail) = &base.closed {
        m.set(
            "service.client.read_p50_us",
            detail.reads.quantile(0.50) / 1e3,
        );
        m.set(
            "service.client.write_p50_us",
            detail.writes.quantile(0.50) / 1e3,
        );
        m.set("service.client.op_p90_us", detail.all.quantile(0.90) / 1e3);
        m.set("service.client.op_p99_us", detail.all.quantile(0.99) / 1e3);
        m.set(
            "service.client.op_p999_us",
            detail.all.quantile(0.999) / 1e3,
        );
        m.set("service.client.op_samples", detail.all.count() as f64);
        m.set(
            "service.metrics.busiest_load_ratio",
            detail.busiest_load_ratio,
        );
    }
    if let Some(totals) = &base.open {
        let mean = |values: &[f64]| values.iter().sum::<f64>() / values.len().max(1) as f64;
        m.set("service.openloop.sched_lag_share", mean(&totals.sched_lag));
        m.set(
            "service.openloop.peak_in_flight",
            totals.peak_in_flight as f64,
        );
        m.set("service.openloop.shed", totals.shed as f64);
        m.set("service.openloop.timed_out", totals.timed_out as f64);
        m.set(
            "service.openloop.inconclusive_share",
            totals.inconclusive as f64 / totals.completed.max(1) as f64,
        );
        m.set(
            "service.openloop.op_p90_us",
            median(&mut totals.p90_us.clone()),
        );
        m.set(
            "service.openloop.op_p99_us",
            median(&mut totals.p99_us.clone()),
        );
    }

    // The spans. The layer behind the seam is the shard pool on the
    // loopback and the socket transport otherwise.
    let (stages, spans): (StageMeans, _) = match &traced.closed {
        Some(detail) => (
            trace::closed_loop_stages(&detail.operations, &traced.fanouts),
            trace::closed_loop_spans(&detail.operations, &traced.fanouts),
        ),
        None => (
            trace::fanout_stages(&traced.fanouts),
            trace::fanout_spans(&traced.fanouts),
        ),
    };
    if over_sockets {
        m.set("net.transport.send_us", stages.send_us);
        m.set("net.transport.first_reply_us", stages.first_reply_us);
        m.set("net.transport.last_reply_us", stages.wait_us);
        m.set("net.transport.fanin_spread_us", stages.fanin_spread_us);
    } else {
        m.set("service.shard.send_us", stages.send_us);
        m.set("service.shard.last_reply_us", stages.wait_us);
    }
    if traced.closed.is_some() {
        m.set("service.client.prepare_us", stages.prepare_us);
        m.set("service.client.resolve_us", stages.resolve_us);
        m.set("trace.closure_gap_share", stages.closure_gap_share());
    }
    // The mean of the operations that were timed: by the closed-loop
    // driver's own stamps, or by the generator, whose every fan-out is.
    let timed_mean_us = if traced.closed.is_some() {
        stages.operation_us
    } else {
        traced.mean_us
    };
    if base.mean_us > 0.0 {
        m.set(
            "trace.overhead_share",
            (timed_mean_us - base.mean_us) / base.mean_us,
        );
    }
    if timed_mean_us > 0.0 {
        m.set("trace.opaque_share", stages.wait_us / timed_mean_us);
    }
    m.set("peak_rss_mb", untraced_peak_rss_mb);
    trace::write_spans(&args.out_dir, workload.name, &spans)?;

    let mut faults = base.faults;
    faults.extend(traced.faults);
    Ok(RunOutcome {
        attempted,
        failed,
        faults,
        metrics: m,
    })
}

/// Nanoseconds per item of one kernel, over at least [`KERNEL_SECONDS`].
fn time_kernel(kernel: &mut adapter::Kernel<'_>) -> f64 {
    const CALLS_PER_CHECK: u64 = 64;
    let started = Instant::now();
    let mut calls = 0u64;
    loop {
        for _ in 0..CALLS_PER_CHECK {
            (kernel.run)();
        }
        calls += CALLS_PER_CHECK;
        let elapsed = started.elapsed();
        if elapsed.as_secs_f64() >= KERNEL_SECONDS {
            return elapsed.as_nanos() as f64 / (calls * kernel.items) as f64;
        }
    }
}
