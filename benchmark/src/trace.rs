//! Tracing from outside the library, at the `Transport` / `ReplySink` seam.
//!
//! [`TimedTransport`] wraps the real transport. Each `send_batch` call is one
//! operation's fan-out: it gets one span id, and every request's reply handle
//! is swapped for a [`TimedSink`] that stamps the reply's arrival and forwards
//! it. With the operation's own start and end (stamped by the closed-loop
//! driver) that partitions an operation exactly into
//!
//! ```text
//! prepare  [operation start, send_batch entry]   quorum choice + fan-out build
//! send     [send_batch entry, send_batch return] the transport's send path
//! wait     [send_batch return, last reply]       everything behind the seam
//! resolve  [last reply, operation end]           mailbox wake + dedup + b+1 rule
//! ```
//!
//! Records are fixed-size, kept in memory, aggregated when the run ends, and
//! the first [`SPAN_FILE_OPERATIONS`] operations are written out as spans.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::adapter::{Reply, ReplyHandle, ReplySink, Request, Transport};
use crate::json::Json;

/// How many operations' spans the trace file holds.
pub const SPAN_FILE_OPERATIONS: usize = 10_000;

/// The operation id that switches a [`TimedTransport`] off: fan-outs sent
/// under it go straight to the wrapped transport and leave no record.
pub const UNTRACED: u64 = u64::MAX;

/// The run's monotonic time base; every stamp is nanoseconds since it.
#[derive(Debug, Clone, Copy)]
pub struct TraceClock(Instant);

impl TraceClock {
    pub fn start() -> TraceClock {
        TraceClock(Instant::now())
    }

    pub fn now_ns(self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// One traced fan-out: a `send_batch` call and the replies it caused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fanout {
    pub id: u64,
    /// The operation current on the transport when the fan-out was sent
    /// (0 when the caller names none, as the open-loop generator).
    pub operation: u64,
    pub requests: u32,
    /// Distinct servers that replied; a duplicated reply counts once.
    pub replies: u32,
    /// The transport refused the batch: the span is closed as failed.
    pub refused: bool,
    pub send_start: u64,
    pub send_end: u64,
    /// `u64::MAX` / 0 when no reply arrived.
    pub first_reply: u64,
    pub last_reply: u64,
}

impl Fanout {
    /// Accepted, and every server addressed has replied.
    pub fn complete(&self) -> bool {
        !self.refused && self.requests > 0 && self.replies == self.requests
    }

    /// When the wait ended: the last reply, or the send's return if the
    /// replies beat it (the loopback can answer before `send_batch` is back).
    pub fn wait_end(&self) -> u64 {
        self.last_reply.max(self.send_end)
    }
}

/// The live, shared state of one fan-out while replies are still arriving.
#[derive(Debug)]
struct FanoutState {
    id: u64,
    operation: u64,
    requests: u32,
    send_start: u64,
    send_end: AtomicU64,
    refused: AtomicBool,
    replies: AtomicU32,
    first_reply: AtomicU64,
    last_reply: AtomicU64,
    /// One bit per server: set by that server's first reply.
    seen: Vec<AtomicU64>,
    clock: TraceClock,
}

impl FanoutState {
    // Relaxed everywhere: the fields are statistics that publish nothing
    // else, and they are read only after the threads that wrote them have
    // been joined or have handed the reply over through a mutex.
    fn snapshot(&self) -> Fanout {
        Fanout {
            id: self.id,
            operation: self.operation,
            requests: self.requests,
            replies: self.replies.load(Ordering::Relaxed),
            refused: self.refused.load(Ordering::Relaxed),
            send_start: self.send_start,
            send_end: self.send_end.load(Ordering::Relaxed),
            first_reply: self.first_reply.load(Ordering::Relaxed),
            last_reply: self.last_reply.load(Ordering::Relaxed),
        }
    }
}

/// Stamps a reply's arrival, then forwards it to the sink the caller gave.
#[derive(Debug)]
struct TimedSink {
    inner: ReplyHandle,
    state: Arc<FanoutState>,
}

impl ReplySink for TimedSink {
    fn complete(&self, reply: Reply) {
        let now = self.state.clock.now_ns();
        let bit = 1u64 << (reply.server % 64);
        let first_from_server = self
            .state
            .seen
            .get(reply.server / 64)
            .is_some_and(|word| word.fetch_or(bit, Ordering::Relaxed) & bit == 0);
        if first_from_server {
            self.state.first_reply.fetch_min(now, Ordering::Relaxed);
            self.state.last_reply.fetch_max(now, Ordering::Relaxed);
            self.state.replies.fetch_add(1, Ordering::Relaxed);
        }
        self.inner.complete(reply);
    }
}

/// A [`Transport`] that times the transport it wraps (see the module docs).
pub struct TimedTransport<'a, T: Transport + ?Sized> {
    inner: &'a T,
    clock: TraceClock,
    operation: AtomicU64,
    next_id: AtomicU64,
    fanouts: Mutex<Vec<Arc<FanoutState>>>,
}

impl<'a, T: Transport + ?Sized> TimedTransport<'a, T> {
    /// `first_id` keeps span ids apart when several transports feed one trace.
    pub fn new(inner: &'a T, clock: TraceClock, first_id: u64) -> Self {
        TimedTransport {
            inner,
            clock,
            operation: AtomicU64::new(0),
            next_id: AtomicU64::new(first_id),
            fanouts: Mutex::new(Vec::new()),
        }
    }

    /// Names the operation the following fan-outs belong to; [`UNTRACED`]
    /// lets them pass untimed.
    pub fn set_operation(&self, operation: u64) {
        self.operation.store(operation, Ordering::Relaxed);
    }

    /// Every fan-out sent so far, in send order.
    pub fn fanouts(&self) -> Vec<Fanout> {
        let states = self.fanouts.lock().expect("fan-out list lock");
        states.iter().map(|s| s.snapshot()).collect()
    }
}

impl<T: Transport + ?Sized> Transport for TimedTransport<'_, T> {
    fn universe_size(&self) -> usize {
        self.inner.universe_size()
    }

    fn send(&self, request: Request) -> bool {
        self.send_batch(&mut vec![request])
    }

    fn send_batch(&self, requests: &mut Vec<Request>) -> bool {
        let operation = self.operation.load(Ordering::Relaxed);
        if operation == UNTRACED {
            return self.inner.send_batch(requests);
        }
        let state = Arc::new(FanoutState {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            operation,
            requests: requests.len() as u32,
            send_start: self.clock.now_ns(),
            send_end: AtomicU64::new(0),
            refused: AtomicBool::new(false),
            replies: AtomicU32::new(0),
            first_reply: AtomicU64::new(u64::MAX),
            last_reply: AtomicU64::new(0),
            seen: (0..self.inner.universe_size().div_ceil(64))
                .map(|_| AtomicU64::new(0))
                .collect(),
            clock: self.clock,
        });
        // A fan-out nearly always shares one reply handle, so wrap it once.
        let mut wrapped: Option<(ReplyHandle, ReplyHandle)> = None;
        for request in requests.iter_mut() {
            let timed = match &wrapped {
                Some((original, timed)) if Arc::ptr_eq(original, &request.reply) => {
                    Arc::clone(timed)
                }
                _ => {
                    let timed: ReplyHandle = Arc::new(TimedSink {
                        inner: Arc::clone(&request.reply),
                        state: Arc::clone(&state),
                    });
                    wrapped = Some((Arc::clone(&request.reply), Arc::clone(&timed)));
                    timed
                }
            };
            request.reply = timed;
        }
        let accepted = self.inner.send_batch(requests);
        state.send_end.store(self.clock.now_ns(), Ordering::Relaxed);
        state.refused.store(!accepted, Ordering::Relaxed);
        self.fanouts.lock().expect("fan-out list lock").push(state);
        accepted
    }
}

/// One closed-loop operation as its driver saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Operation {
    pub id: u64,
    pub is_write: bool,
    pub ok: bool,
    pub start: u64,
    pub end: u64,
}

/// Mean stage times of the traced operations, microseconds.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct StageMeans {
    /// Operations (closed loop) or fan-outs (open loop) aggregated.
    pub samples: u64,
    pub operation_us: f64,
    pub prepare_us: f64,
    pub send_us: f64,
    pub wait_us: f64,
    pub resolve_us: f64,
    /// Send's return to the first reply (0 if the reply came first).
    pub first_reply_us: f64,
    /// First reply to last reply.
    pub fanin_spread_us: f64,
}

impl StageMeans {
    /// `(prepare + send + wait + resolve - operation) / operation`: 0 up to
    /// rounding when the stages partition the operation.
    pub fn closure_gap_share(&self) -> f64 {
        if self.operation_us == 0.0 {
            return 0.0;
        }
        (self.prepare_us + self.send_us + self.wait_us + self.resolve_us - self.operation_us)
            / self.operation_us
    }
}

fn mean_us(total_ns: u128, samples: u64) -> f64 {
    if samples == 0 {
        return 0.0;
    }
    total_ns as f64 / samples as f64 / 1e3
}

/// Joins closed-loop operations with their fan-outs. Only successful
/// operations whose single fan-out got every reply are aggregated (a retried
/// operation has several fan-outs and no unique partition).
pub fn closed_loop_stages(operations: &[Operation], fanouts: &[Fanout]) -> StageMeans {
    let mut by_operation: HashMap<u64, (u32, &Fanout)> = HashMap::with_capacity(fanouts.len());
    for fanout in fanouts {
        by_operation
            .entry(fanout.operation)
            .and_modify(|(count, _)| *count += 1)
            .or_insert((1, fanout));
    }
    let mut sums = [0u128; 7];
    let mut samples = 0u64;
    for op in operations.iter().filter(|op| op.ok) {
        let Some(&(1, fanout)) = by_operation.get(&op.id) else {
            continue;
        };
        if !fanout.complete() {
            continue;
        }
        samples += 1;
        let wait_end = fanout.wait_end();
        for (sum, value) in sums.iter_mut().zip([
            op.end - op.start,
            fanout.send_start - op.start,
            fanout.send_end - fanout.send_start,
            wait_end - fanout.send_end,
            op.end - wait_end,
            fanout.first_reply.max(fanout.send_end) - fanout.send_end,
            fanout.last_reply - fanout.first_reply,
        ]) {
            *sum += u128::from(value);
        }
    }
    let [operation, prepare, send, wait, resolve, first, spread] =
        sums.map(|s| mean_us(s, samples));
    StageMeans {
        samples,
        operation_us: operation,
        prepare_us: prepare,
        send_us: send,
        wait_us: wait,
        resolve_us: resolve,
        first_reply_us: first,
        fanin_spread_us: spread,
    }
}

/// Aggregates fan-outs alone: the open-loop generator runs inside the
/// library, so the operation's own start and end are not visible and only
/// send and wait are.
pub fn fanout_stages(fanouts: &[Fanout]) -> StageMeans {
    let mut sums = [0u128; 4];
    let mut samples = 0u64;
    for fanout in fanouts.iter().filter(|f| f.complete()) {
        samples += 1;
        for (sum, value) in sums.iter_mut().zip([
            fanout.send_end - fanout.send_start,
            fanout.wait_end() - fanout.send_end,
            fanout.first_reply.max(fanout.send_end) - fanout.send_end,
            fanout.last_reply - fanout.first_reply,
        ]) {
            *sum += u128::from(value);
        }
    }
    let [send, wait, first, spread] = sums.map(|s| mean_us(s, samples));
    StageMeans {
        samples,
        send_us: send,
        wait_us: wait,
        first_reply_us: first,
        fanin_spread_us: spread,
        ..StageMeans::default()
    }
}

/// One span of the trace file.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    /// The span that caused this one; 0 for a root.
    pub parent: u64,
    /// Shared by every span of one operation.
    pub operation: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub ok: bool,
}

/// The spans of the first [`SPAN_FILE_OPERATIONS`] closed-loop operations:
/// one root per operation and, where its fan-out is known, the four stages.
pub fn closed_loop_spans(operations: &[Operation], fanouts: &[Fanout]) -> Vec<Span> {
    let by_operation: HashMap<u64, &Fanout> = fanouts.iter().map(|f| (f.operation, f)).collect();
    let mut spans = Vec::new();
    for op in operations.iter().take(SPAN_FILE_OPERATIONS) {
        let root = op.id << 3;
        spans.push(Span {
            id: root,
            parent: 0,
            operation: op.id,
            name: if op.is_write {
                "operation.write"
            } else {
                "operation.read"
            },
            start_ns: op.start,
            end_ns: op.end,
            ok: op.ok,
        });
        let Some(fanout) = by_operation.get(&op.id) else {
            continue;
        };
        let stages = [
            ("client.prepare", op.start, fanout.send_start),
            ("transport.send", fanout.send_start, fanout.send_end),
            ("transport.wait", fanout.send_end, fanout.wait_end()),
            ("client.resolve", fanout.wait_end(), op.end),
        ];
        for (k, (name, start_ns, end_ns)) in stages.into_iter().enumerate() {
            spans.push(Span {
                id: root + 1 + k as u64,
                parent: root,
                operation: op.id,
                name,
                start_ns,
                end_ns,
                ok: fanout.complete(),
            });
        }
    }
    spans
}

/// The spans of the first [`SPAN_FILE_OPERATIONS`] fan-outs of an open-loop
/// run: send and wait, each fan-out its own operation.
pub fn fanout_spans(fanouts: &[Fanout]) -> Vec<Span> {
    let mut spans = Vec::new();
    for fanout in fanouts.iter().take(SPAN_FILE_OPERATIONS) {
        let root = fanout.id << 3;
        spans.push(Span {
            id: root,
            parent: 0,
            operation: fanout.id,
            name: "transport.send",
            start_ns: fanout.send_start,
            end_ns: fanout.send_end,
            ok: !fanout.refused,
        });
        spans.push(Span {
            id: root + 1,
            parent: root,
            operation: fanout.id,
            name: "transport.wait",
            start_ns: fanout.send_end,
            end_ns: fanout.wait_end(),
            ok: fanout.complete(),
        });
    }
    spans
}

/// Writes a workload's spans to `trace-<workload>.jsonl` in `out_dir`, one
/// JSON object per line.
pub fn write_spans(out_dir: &Path, workload: &str, spans: &[Span]) -> Result<(), String> {
    let path = out_dir.join(format!("trace-{workload}.jsonl"));
    let write = || -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        for span in spans {
            let line = Json::obj([
                ("id", Json::Num(span.id as f64)),
                ("parent", Json::Num(span.parent as f64)),
                ("operation", Json::Num(span.operation as f64)),
                ("name", Json::str(span.name)),
                ("start_ns", Json::Num(span.start_ns as f64)),
                ("end_ns", Json::Num(span.end_ns as f64)),
                ("ok", Json::Bool(span.ok)),
            ]);
            writeln!(out, "{line}")?;
        }
        out.flush()
    };
    write().map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::Operation as WireOp;

    /// Collects what the client's own sink receives.
    #[derive(Debug, Default)]
    struct Collected(Mutex<Vec<Reply>>);

    impl ReplySink for Collected {
        fn complete(&self, reply: Reply) {
            self.0.lock().unwrap().push(reply);
        }
    }

    /// An in-memory transport that answers every request at once; it can
    /// answer one server twice, or refuse everything.
    struct Fake {
        n: usize,
        duplicate_server: Option<usize>,
        refuse: bool,
    }

    impl Transport for Fake {
        fn universe_size(&self) -> usize {
            self.n
        }

        fn send(&self, request: Request) -> bool {
            if self.refuse {
                return false;
            }
            let reply = Reply {
                server: request.server,
                request_id: request.request_id,
                entry: None,
                epoch: request.epoch,
                stale: false,
            };
            request.reply.complete(reply);
            if self.duplicate_server == Some(request.server) {
                request.reply.complete(reply);
            }
            true
        }
    }

    fn fanout_to(servers: &[usize], sink: &Arc<Collected>) -> Vec<Request> {
        servers
            .iter()
            .map(|&server| Request {
                server,
                op: WireOp::Read,
                request_id: 100 + server as u64,
                origin: 1,
                epoch: 0,
                reply: Arc::clone(sink) as ReplyHandle,
            })
            .collect()
    }

    /// Drives one operation the way the closed-loop driver does.
    fn one_operation<T: Transport>(
        timed: &TimedTransport<'_, T>,
        clock: TraceClock,
        id: u64,
        servers: &[usize],
        sink: &Arc<Collected>,
    ) -> Operation {
        let start = clock.now_ns();
        timed.set_operation(id);
        let ok = timed.send_batch(&mut fanout_to(servers, sink));
        Operation {
            id,
            is_write: false,
            ok,
            start,
            end: clock.now_ns(),
        }
    }

    #[test]
    fn stages_partition_the_operation_exactly() {
        let fake = Fake {
            n: 70,
            duplicate_server: None,
            refuse: false,
        };
        let clock = TraceClock::start();
        let timed = TimedTransport::new(&fake, clock, 1);
        let sink = Arc::new(Collected::default());
        let ops: Vec<Operation> = (1..=50)
            .map(|id| one_operation(&timed, clock, id, &[0, 5, 64, 69], &sink))
            .collect();
        let fanouts = timed.fanouts();
        assert_eq!(fanouts.len(), 50);
        assert_eq!(
            sink.0.lock().unwrap().len(),
            200,
            "every reply is forwarded"
        );
        for (op, fanout) in ops.iter().zip(&fanouts) {
            assert_eq!(fanout.operation, op.id);
            assert!(fanout.complete());
            let stages = (fanout.send_start - op.start)
                + (fanout.send_end - fanout.send_start)
                + (fanout.wait_end() - fanout.send_end)
                + (op.end - fanout.wait_end());
            assert_eq!(stages, op.end - op.start, "the stages partition the span");
        }
        let means = closed_loop_stages(&ops, &fanouts);
        assert_eq!(means.samples, 50);
        assert!(means.closure_gap_share().abs() < 1e-9);
        let spans = closed_loop_spans(&ops, &fanouts);
        assert_eq!(spans.len(), 50 * 5);
        assert!(spans
            .iter()
            .skip(1)
            .take(4)
            .all(|s| s.parent == spans[0].id));
    }

    #[test]
    fn a_duplicated_reply_is_stamped_once_and_still_forwarded() {
        let fake = Fake {
            n: 9,
            duplicate_server: Some(3),
            refuse: false,
        };
        let clock = TraceClock::start();
        let timed = TimedTransport::new(&fake, clock, 1);
        let sink = Arc::new(Collected::default());
        let op = one_operation(&timed, clock, 1, &[1, 3, 8], &sink);
        let fanout = timed.fanouts()[0];
        assert!(op.ok);
        assert_eq!(fanout.requests, 3);
        assert_eq!(fanout.replies, 3, "the duplicate is not a fourth reply");
        assert!(fanout.complete());
        assert_eq!(
            sink.0.lock().unwrap().len(),
            4,
            "the client dedups, not the trace"
        );
    }

    #[test]
    fn an_untraced_operation_passes_through_and_leaves_no_record() {
        let fake = Fake {
            n: 9,
            duplicate_server: None,
            refuse: false,
        };
        let clock = TraceClock::start();
        let timed = TimedTransport::new(&fake, clock, 1);
        let sink = Arc::new(Collected::default());
        assert!(one_operation(&timed, clock, UNTRACED, &[1, 3, 8], &sink).ok);
        assert!(one_operation(&timed, clock, 16, &[1, 3, 8], &sink).ok);
        let fanouts = timed.fanouts();
        assert_eq!(fanouts.len(), 1, "only the named operation is timed");
        assert_eq!((fanouts[0].id, fanouts[0].operation), (1, 16));
        assert_eq!(sink.0.lock().unwrap().len(), 6, "both were answered");
    }

    #[test]
    fn a_refused_batch_closes_its_span_as_failed() {
        let fake = Fake {
            n: 9,
            duplicate_server: None,
            refuse: true,
        };
        let clock = TraceClock::start();
        let timed = TimedTransport::new(&fake, clock, 7);
        let sink = Arc::new(Collected::default());
        let op = one_operation(&timed, clock, 1, &[0, 1], &sink);
        assert!(!op.ok);
        let fanout = timed.fanouts()[0];
        assert_eq!(fanout.id, 7);
        assert!(fanout.refused && !fanout.complete());
        assert!(fanout.send_end >= fanout.send_start);
        assert_eq!((fanout.replies, fanout.last_reply), (0, 0));
        assert_eq!(closed_loop_stages(&[op], &[fanout]).samples, 0);
        let spans = fanout_spans(&[fanout]);
        assert!(spans.iter().all(|s| !s.ok));
    }

    #[test]
    fn fanout_stages_need_no_operations() {
        let fake = Fake {
            n: 9,
            duplicate_server: None,
            refuse: false,
        };
        let clock = TraceClock::start();
        let timed = TimedTransport::new(&fake, clock, 1);
        let sink = Arc::new(Collected::default());
        for _ in 0..10 {
            assert!(timed.send_batch(&mut fanout_to(&[0, 1, 2], &sink)));
        }
        let means = fanout_stages(&timed.fanouts());
        assert_eq!(means.samples, 10);
        assert_eq!(means.operation_us, 0.0);
    }
}
