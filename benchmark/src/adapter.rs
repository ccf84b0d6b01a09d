//! The benchmark's whole view of the library: every `bqs_*` and `rand` path
//! in this package is in this file (`bench selfcheck` enforces it), so a
//! refactor of the library re-points the benchmark by editing this file
//! alone. README.md lists the surface.
//!
//! Plain data and the two traits the trace seam implements are re-exported;
//! everything that *calls* the library is a function or method here.

use std::path::Path;
use std::time::Duration;

use bqs_analysis::empirical::empirical_load_check;
use bqs_analysis::load_analysis::{certified_constructions, CertifiableConstruction};
use bqs_constructions::prelude::{
    AnalyzedConstruction, BoostFppSystem, GridSystem, MGridSystem, MPathSystem, RtSystem,
    ThresholdSystem,
};
use bqs_core::eval::Evaluator;
use bqs_core::load::{optimal_load, optimal_load_oracle};
use bqs_core::oracle::MinWeightQuorumOracle;
use bqs_core::quorum::QuorumSystem;
use bqs_core::strategic::StrategicQuorumSystem;
use bqs_epoch::EpochPlanner;
use bqs_net::{
    encode_reply_batch, encode_request_batch, FrameReader, NetConfig, SocketServer,
    SocketTransport, WireRequest,
};
use bqs_service::{
    run_open_loop_session, LoopbackService, Mailbox, OpenLoopConfig, OpenLoopSession,
    ServiceClient, TimestampOracle,
};
use bqs_sim::client::{choose_access_quorum, resolve_read};
use bqs_sim::fault::FaultPlan;
use bqs_sim::server::{Behavior, ByzantineStrategy, Replica};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub use bqs_core::bitset::ServerSet;
pub use bqs_core::eval::{FpEstimate, FpMethod};
pub use bqs_service::{
    authentic_value, OpenLoopReport, Operation, Reply, ReplyHandle, ReplySink, Request, Transport,
};
pub use bqs_sim::server::Entry;

/// Connections in a socket transport's pool, and open-loop generator
/// workers: one of each, because a register workload runs on one CPU (see
/// `sys`) and every further thread only adds ways for the scheduler to
/// interleave them.
pub const POOL: usize = 1;

/// How long the socket transport waits for a reply before it answers the
/// request itself: several thousand round trips on a host-local socket, and
/// longer than any stall seen on the reference box (16 ms). Every request
/// sits in the transport's deadline heap for this long, answered or not, so
/// the heap holds `rate x |Q| x deadline` entries: at the library's default
/// of 5 s that is 60 MB on `uds-closed`, sweeping it is most of an
/// operation's cost, and that cost follows the shared last-level cache (it
/// doubled and halved within a run). At a quarter of a second the heap fits
/// the core's own cache. It also reaches its steady size only after this
/// much traffic, so a window opens after a warm-up at least this long.
pub const REQUEST_DEADLINE: Duration = Duration::from_millis(250);

// ---------------------------------------------------------------------------
// Register workloads: the certified system, the service, the client.
// ---------------------------------------------------------------------------

/// A construction wrapped with its certified-optimal access strategy.
pub struct RegisterSpec {
    pub system: Box<dyn QuorumSystem>,
    pub b: usize,
    /// The certified `L(Q)` the busiest server's access frequency must match.
    pub certified_load: f64,
    pub quorum_size: usize,
}

impl RegisterSpec {
    fn certify<S: MinWeightQuorumOracle + 'static>(system: S, b: usize) -> RegisterSpec {
        let certified = optimal_load_oracle(&system).expect("the construction certifies");
        assert!(certified.gap <= 1e-9, "certified gap {}", certified.gap);
        let quorum_size = system.min_quorum_size();
        let strategic = StrategicQuorumSystem::from_certified(system, &certified)
            .expect("a certificate fits the system it was made for");
        RegisterSpec {
            system: Box::new(strategic),
            b,
            certified_load: certified.load,
            quorum_size,
        }
    }

    /// Grid(side, b) under its certified strategy.
    pub fn grid(side: usize, b: usize) -> RegisterSpec {
        RegisterSpec::certify(GridSystem::new(side, b).expect("grid parameters"), b)
    }

    /// M-Grid(side, b) under its certified strategy.
    pub fn mgrid(side: usize, b: usize) -> RegisterSpec {
        RegisterSpec::certify(MGridSystem::new(side, b).expect("m-grid parameters"), b)
    }

    pub fn n(&self) -> usize {
        self.system.universe_size()
    }
}

/// A fault plan: `fabricating` servers answer reads with a made-up pair under
/// the highest possible timestamp, `crashed` servers never answer.
pub struct Faults(FaultPlan);

impl Faults {
    pub fn new(n: usize, fabricating: &[usize], crashed: &[usize]) -> Faults {
        let mut plan = FaultPlan::none(n);
        for &server in fabricating {
            plan = plan.with_byzantine(
                server,
                ByzantineStrategy::FabricateHighTimestamp { value: 0x0bad },
            );
        }
        for &server in crashed {
            plan = plan.with_crashed(server);
        }
        Faults(plan)
    }
}

/// A running replicated register behind one of the three transports.
pub enum Service {
    Loopback(LoopbackService),
    /// The transport is declared first so it disconnects before the server
    /// stops listening.
    Socket {
        transport: SocketTransport,
        server: SocketServer,
    },
}

impl Service {
    pub fn loopback(faults: &Faults, shards: usize, seed: u64) -> Service {
        Service::Loopback(LoopbackService::spawn(&faults.0, shards, seed))
    }

    pub fn uds(path: &Path, faults: &Faults, shards: usize, seed: u64) -> std::io::Result<Service> {
        Service::connect(SocketServer::bind_uds(path, &faults.0, shards, seed)?)
    }

    pub fn tcp(faults: &Faults, shards: usize, seed: u64) -> std::io::Result<Service> {
        Service::connect(SocketServer::bind_tcp_loopback(&faults.0, shards, seed)?)
    }

    fn connect(server: SocketServer) -> std::io::Result<Service> {
        let transport = SocketTransport::connect(
            server.endpoint().clone(),
            server.universe_size(),
            NetConfig {
                pool: POOL,
                request_deadline: REQUEST_DEADLINE,
                ..NetConfig::default()
            },
        )?;
        Ok(Service::Socket { transport, server })
    }

    pub fn transport(&self) -> &dyn Transport {
        match self {
            Service::Loopback(service) => service,
            Service::Socket { transport, .. } => transport,
        }
    }

    /// The failure detector's view: every server that answers at all.
    pub fn responsive(&self) -> &ServerSet {
        match self {
            Service::Loopback(service) => service.responsive_set(),
            Service::Socket { server, .. } => server.responsive_set(),
        }
    }

    /// Messages delivered to each server since the service started.
    pub fn access_counts(&self) -> Vec<u64> {
        match self {
            Service::Loopback(service) => service.metrics().access_counts(),
            Service::Socket { server, .. } => server.metrics().access_counts(),
        }
    }

    /// `(deadline_expiries, reconnects)` of the socket transport; zeros on
    /// the loopback, which has neither.
    pub fn net_failures(&self) -> (u64, u64) {
        match self {
            Service::Loopback(_) => (0, 0),
            Service::Socket { transport, .. } => {
                let stats = transport.stats();
                let load =
                    |c: &std::sync::atomic::AtomicU64| c.load(std::sync::atomic::Ordering::Relaxed);
                (load(&stats.deadline_expiries), load(&stats.reconnects))
            }
        }
    }
}

/// The writers' shared logical clock.
#[derive(Default)]
pub struct WriterClock(TimestampOracle);

impl WriterClock {
    pub fn allocate(&self) -> u64 {
        self.0.allocate()
    }

    pub fn latest(&self) -> u64 {
        self.0.latest()
    }
}

/// One closed-loop masking-register client with its own quorum-sampling
/// stream.
pub struct Client<'a> {
    inner: ServiceClient<'a, dyn QuorumSystem + 'a, dyn Transport + 'a>,
    rng: StdRng,
}

impl<'a> Client<'a> {
    pub fn new(
        spec: &'a RegisterSpec,
        transport: &'a dyn Transport,
        responsive: &ServerSet,
        origin: u64,
        seed: u64,
    ) -> Client<'a> {
        Client {
            inner: ServiceClient::new(&*spec.system, transport, responsive.clone(), spec.b)
                .with_origin(origin)
                .with_reply_deadline(Duration::from_secs(5)),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Reads the register; the error is the library's message.
    pub fn read(&mut self) -> Result<Entry, String> {
        self.inner
            .read(&mut self.rng)
            .map(|outcome| outcome.entry)
            .map_err(|e| e.to_string())
    }

    pub fn write(&mut self, entry: Entry) -> Result<(), String> {
        self.inner
            .write(entry, &mut self.rng)
            .map(|_| ())
            .map_err(|e| e.to_string())
    }
}

/// Poisson arrivals at `rate` operations per second from one worker that
/// pipelines its operations; see the library's `run_open_loop`. Runs on one
/// service share `clock`: a read is checked against the writers' clock, and a
/// clock restarted per run would take an earlier run's writes for forgeries.
#[allow(clippy::too_many_arguments)]
pub fn open_loop(
    spec: &RegisterSpec,
    transport: &dyn Transport,
    responsive: &ServerSet,
    clock: &WriterClock,
    rate: f64,
    arrivals: usize,
    write_fraction: f64,
    seed: u64,
) -> OpenLoopReport {
    let config = OpenLoopConfig {
        offered_rate: rate,
        total_arrivals: arrivals,
        workers: POOL,
        virtual_clients: 1_000,
        write_fraction,
        // A second of arrivals: a stall of the machine delays operations
        // but sheds none.
        max_in_flight_per_worker: 8_192,
        op_deadline: Duration::from_secs(2),
        tail_deadline: Duration::from_secs(4),
        seed,
    };
    let session = OpenLoopSession {
        epoch: 0,
        metrics: None,
        clock: Some(&clock.0),
    };
    run_open_loop_session(
        &*spec.system,
        spec.b,
        transport,
        responsive,
        &config,
        &session,
    )
}

/// `(busiest server's access frequency / certified load, inside the band)`:
/// the paper's load claim checked on what the servers actually received.
pub fn load_check(spec: &RegisterSpec, access_counts: &[u64], operations: u64) -> (f64, bool) {
    let check = empirical_load_check(
        spec.system.name(),
        access_counts,
        operations,
        spec.certified_load,
    );
    (
        check.empirical_max_load / check.certified_load,
        check.within_tolerance,
    )
}

/// A deterministic stream of draws for the benchmark's own decisions (which
/// server is faulty, whether an operation writes).
pub struct Draws(StdRng);

impl Draws {
    pub fn new(seed: u64) -> Draws {
        Draws(StdRng::seed_from_u64(seed))
    }

    pub fn chance(&mut self, p: f64) -> bool {
        self.0.gen_bool(p)
    }

    pub fn unit(&mut self) -> f64 {
        self.0.gen()
    }

    /// `count` distinct indices below `n`, in draw order.
    pub fn distinct(&mut self, n: usize, count: usize) -> Vec<usize> {
        rand::seq::index::sample(&mut self.0, n, count).into_vec()
    }
}

// ---------------------------------------------------------------------------
// Kernel timers: direct calls of public functions on a workload's own inputs.
// ---------------------------------------------------------------------------

/// One timed kernel: `run` performs `items` units of work per call.
pub struct Kernel<'a> {
    pub metric: &'static str,
    pub items: u64,
    pub run: Box<dyn FnMut() + 'a>,
}

fn sample_reply(server: usize, request_id: u64, entry: Option<Entry>) -> Reply {
    Reply {
        server,
        request_id,
        entry,
        epoch: 0,
        stale: false,
    }
}

/// The kernels every register workload times. `write_share` is the
/// workload's share of writes, which sets the read/write mix of the codec
/// inputs; `over_sockets` adds the codec kernels.
pub fn register_kernels<'a>(
    spec: &'a RegisterSpec,
    responsive: &'a ServerSet,
    write_share: f64,
    over_sockets: bool,
    seed: u64,
) -> Vec<Kernel<'a>> {
    let system: &'a dyn QuorumSystem = &*spec.system;
    let entry = Entry {
        timestamp: 7,
        value: authentic_value(7),
    };
    let mut kernels = Vec::new();

    // One reply mailbox round trip of a 9-message fan-in: what a closed-loop
    // client pays per operation on the reply path.
    let mailbox: Mailbox<Reply> = Mailbox::new();
    let mut batch: Vec<Reply> = Vec::new();
    let mut drained: Vec<Reply> = Vec::new();
    kernels.push(Kernel {
        metric: "service.mailbox.roundtrip_ns",
        items: 1,
        run: Box::new(move || {
            batch.extend((0..9).map(|i| sample_reply(i, i as u64, Some(entry))));
            mailbox.push_batch(&mut batch);
            mailbox.drain_timeout(Duration::from_secs(1), &mut drained);
            std::hint::black_box(&drained);
            drained.clear();
        }),
    });

    let mut replica = Replica::new(Behavior::Correct);
    let mut rng = StdRng::seed_from_u64(seed ^ 1);
    let mut ts = 0u64;
    kernels.push(Kernel {
        metric: "sim.replica.deliver_ns",
        items: 2,
        run: Box::new(move || {
            ts += 1;
            replica.deliver_write(Entry {
                timestamp: ts,
                value: authentic_value(ts),
            });
            std::hint::black_box(replica.deliver_read(1, &mut rng));
        }),
    });

    let mut rng = StdRng::seed_from_u64(seed ^ 2);
    kernels.push(Kernel {
        metric: "sim.client.choose_quorum_ns",
        items: 1,
        run: Box::new(move || {
            std::hint::black_box(choose_access_quorum(system, responsive, &mut rng).ok());
        }),
    });

    // A full quorum of replies of which b are fabricated, as a read sees it.
    let replies: Vec<(usize, Option<Entry>)> = (0..spec.quorum_size)
        .map(|i| {
            let reported = if i < spec.b {
                Entry {
                    timestamp: u64::MAX,
                    value: 0x0bad,
                }
            } else {
                entry
            };
            (i, Some(reported))
        })
        .collect();
    let b = spec.b;
    kernels.push(Kernel {
        metric: "sim.client.resolve_read_ns",
        items: 1,
        run: Box::new(move || {
            std::hint::black_box(resolve_read(std::hint::black_box(&replies), b).ok());
        }),
    });

    let mut rng = StdRng::seed_from_u64(seed ^ 3);
    kernels.push(Kernel {
        metric: "core.strategic.sample_ns",
        items: 1,
        run: Box::new(move || {
            std::hint::black_box(system.sample_quorum(&mut rng));
        }),
    });

    if over_sockets {
        let fanouts = WireFanouts::new(spec.quorum_size, write_share);
        let messages = fanouts.messages();
        let encoder = fanouts.clone();
        let mut buf = Vec::new();
        kernels.push(Kernel {
            metric: "net.codec.encode_ns_per_msg",
            items: messages,
            run: Box::new(move || {
                buf.clear();
                encoder.encode(&mut buf);
                std::hint::black_box(&buf);
            }),
        });
        let mut wire = Vec::new();
        fanouts.encode(&mut wire);
        kernels.push(Kernel {
            metric: "net.codec.decode_ns_per_msg",
            items: messages,
            run: Box::new(move || {
                let mut reader = FrameReader::new();
                reader.push(&wire);
                let mut decoded = 0u64;
                while let Some(message) = reader.next_message() {
                    std::hint::black_box(message);
                    decoded += 1;
                }
                assert_eq!(decoded, messages, "the codec lost messages");
            }),
        });
    }
    kernels
}

/// Ten operations' worth of wire traffic in the workload's read/write mix:
/// each operation is one request fan-out and one reply fan-in of `|Q|`
/// messages on the pool's one connection.
#[derive(Clone)]
struct WireFanouts {
    requests: Vec<Vec<WireRequest>>,
    replies: Vec<Vec<Reply>>,
}

impl WireFanouts {
    const OPERATIONS: usize = 10;

    fn new(quorum_size: usize, write_share: f64) -> WireFanouts {
        let writes = (write_share * Self::OPERATIONS as f64).round() as usize;
        let entry = Entry {
            timestamp: 7,
            value: authentic_value(7),
        };
        let mut fanouts = WireFanouts {
            requests: Vec::new(),
            replies: Vec::new(),
        };
        for op in 0..Self::OPERATIONS {
            let is_write = op < writes;
            fanouts.requests.push(
                (0..quorum_size)
                    .map(|server| WireRequest {
                        request_id: (op * quorum_size + server) as u64,
                        server,
                        epoch: 0,
                        op: if is_write {
                            Operation::Write(entry)
                        } else {
                            Operation::Read
                        },
                    })
                    .collect(),
            );
            fanouts.replies.push(
                (0..quorum_size)
                    .map(|server| {
                        sample_reply(
                            server,
                            (op * quorum_size + server) as u64,
                            (!is_write).then_some(entry),
                        )
                    })
                    .collect(),
            );
        }
        fanouts
    }

    fn messages(&self) -> u64 {
        (self.requests.iter().map(Vec::len).sum::<usize>()
            + self.replies.iter().map(Vec::len).sum::<usize>()) as u64
    }

    fn encode(&self, buf: &mut Vec<u8>) {
        for batch in &self.requests {
            encode_request_batch(batch, buf);
        }
        for batch in &self.replies {
            encode_reply_batch(batch, buf);
        }
    }
}

/// Bytes one operation puts on the wire at the least: `|Q|` requests and
/// `|Q|` replies in the workload's read/write mix, one frame per direction
/// (there is one pooled connection). Computed from the codec's own encodings.
pub fn wire_bytes_per_op(quorum_size: usize, write_share: f64) -> f64 {
    let mut buf = Vec::new();
    WireFanouts::new(quorum_size, write_share).encode(&mut buf);
    buf.len() as f64 / WireFanouts::OPERATIONS as f64
}

// ---------------------------------------------------------------------------
// The analysis pass: the paper's own computations.
// ---------------------------------------------------------------------------

/// An instance with both a closed form and an independent way to compute it.
pub type Construction = Box<dyn AnalyzedConstruction>;

/// Everything the analysis pass computes on, built once per set-up.
pub struct AnalysisInputs {
    /// Small enough to enumerate all `2^n` crash configurations.
    pub enumerated: Vec<Construction>,
    pub mpath_side6: Construction,
    pub mpath_side5: Construction,
    /// Side 4: small enough to enumerate, so it anchors the DP.
    pub mpath_side4: Construction,
    /// Far past every exact method: Monte-Carlo over max-flow.
    pub mpath_side32: Construction,
    /// Paper-scale instances answered by algebraic closed forms.
    pub closed_forms: Vec<Construction>,
    certifiable: Vec<Box<dyn CertifiableConstruction>>,
    threshold_n: usize,
    threshold_quorums: Vec<ServerSet>,
    planner: EpochPlanner,
}

impl AnalysisInputs {
    pub fn build() -> AnalysisInputs {
        // All C(24, 18) = 134 596 quorums, by Gosper's walk over the 24-bit
        // masks of 18 ones. (`ThresholdSystem::to_explicit` would also check
        // all 9 * 10^9 pairs for intersection, which takes half a minute and
        // is not part of the load computation.)
        let mut threshold_quorums = Vec::with_capacity(134_596);
        let mut mask: u64 = (1 << 18) - 1;
        while mask < 1 << 24 {
            let mut quorum = ServerSet::new(24);
            quorum.assign_mask_u64(mask);
            threshold_quorums.push(quorum);
            let lowest = mask & mask.wrapping_neg();
            let ripple = mask + lowest;
            mask = ripple | (((mask ^ ripple) >> 2) / lowest);
        }
        assert_eq!(threshold_quorums.len(), 134_596);
        let explicit = |quorums: &[ServerSet]| quorums.to_vec();
        let grid = GridSystem::new(5, 1).expect("grid parameters");
        let mgrid = MGridSystem::new(5, 1).expect("m-grid parameters");
        let planner = EpochPlanner::new(25, 1)
            .with_pool(
                "Grid(5x5, b=1)",
                explicit(grid.to_explicit(1 << 12).expect("grid quorums").quorums()),
            )
            .with_pool(
                "M-Grid(5x5, b=1)",
                explicit(
                    mgrid
                        .to_explicit(1 << 12)
                        .expect("m-grid quorums")
                        .quorums(),
                ),
            );
        let mpath = |side, b| -> Construction {
            Box::new(MPathSystem::new(side, b).expect("m-path parameters"))
        };
        AnalysisInputs {
            enumerated: vec![
                Box::new(grid),
                Box::new(MGridSystem::new(5, 2).expect("m-grid parameters")),
                Box::new(ThresholdSystem::new(24, 18).expect("threshold parameters")),
            ],
            mpath_side6: mpath(6, 3),
            mpath_side5: mpath(5, 1),
            mpath_side4: mpath(4, 1),
            mpath_side32: mpath(32, 7),
            closed_forms: vec![
                Box::new(GridSystem::new(32, 10).expect("grid parameters")),
                Box::new(MGridSystem::new(32, 15).expect("m-grid parameters")),
                Box::new(RtSystem::new(4, 3, 5).expect("RT parameters")),
                Box::new(BoostFppSystem::new(3, 19).expect("boostFPP parameters")),
            ],
            certifiable: [16, 24, 32]
                .into_iter()
                .flat_map(|side| certified_constructions(side, 7))
                .collect(),
            threshold_n: 24,
            threshold_quorums,
            planner,
        }
    }
}

/// Exact `F_p` by enumerating every crash configuration.
pub fn fp_enumerate(system: &dyn AnalyzedConstruction, p: f64) -> f64 {
    Evaluator::new()
        .exact(system, p)
        .expect("the universe is within the enumeration limit")
}

/// `F_p` at every point of `ps` by the cheapest exact method the
/// construction has (closed form or transfer-matrix DP).
pub fn fp_sweep(system: &dyn AnalyzedConstruction, ps: &[f64]) -> Vec<FpEstimate> {
    Evaluator::new().sweep(system, ps)
}

/// `F_p` at one point with a Monte-Carlo budget for instances no exact
/// method reaches.
pub fn fp_estimate(
    system: &dyn AnalyzedConstruction,
    p: f64,
    trials: usize,
    seed: u64,
) -> FpEstimate {
    Evaluator::new()
        .with_trials(trials)
        .with_seed(seed)
        .crash_probability(system, p)
}

/// Proposition 4.3's lower bound and the construction's own upper bound on
/// `F_p`, where it has one.
pub fn fp_bounds(system: &dyn AnalyzedConstruction, p: f64) -> (f64, Option<f64>) {
    (
        system.crash_probability_lower_bound(p).unwrap_or(0.0),
        system.crash_probability_upper_bound(p),
    )
}

/// What one pass of load certifications produced.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct CertifySummary {
    pub instances: u64,
    pub rounds: u64,
    pub columns: u64,
    /// Largest certified duality gap.
    pub worst_gap: f64,
    /// Largest distance between a certified load and its closed form.
    pub worst_load_error: f64,
}

impl AnalysisInputs {
    /// Certifies `L(Q)` by column generation for every instance of the
    /// roster.
    pub fn certify_all(&self) -> CertifySummary {
        let mut summary = CertifySummary::default();
        for system in &self.certifiable {
            let certified = optimal_load_oracle(system.as_ref()).expect("the roster certifies");
            summary.instances += 1;
            summary.rounds += certified.rounds as u64;
            summary.columns += certified.columns as u64;
            summary.worst_gap = summary.worst_gap.max(certified.gap);
            summary.worst_load_error = summary
                .worst_load_error
                .max((certified.load - system.analytic_load()).abs());
        }
        summary
    }

    /// The explicit load LP over all 134 596 quorums of the 18-of-24
    /// threshold; returns `(load, closed form)`.
    pub fn explicit_lp(&self) -> (f64, f64) {
        let (load, _) = optimal_load(&self.threshold_quorums, self.threshold_n)
            .expect("the explicit LP solves");
        (load, 18.0 / 24.0)
    }

    /// Re-certifies the Grid + M-Grid pools after servers {0, 1, 2} die;
    /// returns `(healthy load, degraded load, degraded gap, no quorum
    /// touches a dead server)`.
    pub fn recertify(&self) -> (f64, f64, f64, bool) {
        let healthy = self
            .planner
            .recertify(&ServerSet::full(25), 0)
            .expect("the healthy universe certifies");
        let survivors = ServerSet::from_indices(25, 3..25);
        let degraded = self
            .planner
            .recertify(&survivors, 1)
            .expect("the survivors certify");
        let avoids_dead = degraded
            .certified
            .quorums
            .iter()
            .all(|q| q.is_subset_of(&survivors));
        (
            healthy.load(),
            degraded.load(),
            degraded.certified.gap,
            avoids_dead,
        )
    }
}
