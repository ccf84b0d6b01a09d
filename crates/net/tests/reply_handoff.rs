//! Who reads a single-connection socket transport's replies: the caller
//! waiting in `Transport::wait_replies`, or the stream's reader thread. Every
//! test runs over a Unix-domain socket with a pool of one connection, the
//! configuration in which a waiting caller reads the stream itself, and
//! checks that no hand-off between the two strands a caller until a deadline
//! answers for the server.

use std::io::Read;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bqs_constructions::prelude::*;
use bqs_net::prelude::*;
use bqs_service::prelude::*;
use bqs_sim::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn uds_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("bqs-handoff-{}-{tag}.sock", std::process::id()))
}

/// A pool of one connection, whose requests the sweeper answers in-band
/// after `request_deadline`.
fn single_connection(request_deadline: Duration) -> NetConfig {
    NetConfig {
        pool: 1,
        request_deadline,
        ..NetConfig::default()
    }
}

/// Grid(5, 1) with one fabricating server, over a Unix-domain socket.
fn serve(tag: &str, request_deadline: Duration) -> (GridSystem, SocketServer, SocketTransport) {
    let system = GridSystem::new(5, 1).unwrap();
    let plan = FaultPlan::none(25)
        .with_byzantine(7, ByzantineStrategy::FabricateHighTimestamp { value: 666 });
    let server = SocketServer::bind_uds(uds_path(tag), &plan, 1, 7).unwrap();
    let transport = SocketTransport::connect(
        server.endpoint().clone(),
        25,
        single_connection(request_deadline),
    )
    .unwrap();
    (system, server, transport)
}

/// Writes timestamp `timestamp` when it is odd, else reads, and checks that
/// a read returns a pair some correct writer wrote; returns how long the
/// operation took, or what went wrong.
fn operate<T: Transport + ?Sized>(
    client: &mut ServiceClient<'_, GridSystem, T>,
    timestamp: u64,
    rng: &mut StdRng,
) -> Result<Duration, String> {
    let started = Instant::now();
    if timestamp % 2 == 1 {
        let entry = Entry {
            timestamp,
            value: authentic_value(timestamp),
        };
        client
            .write(entry, rng)
            .map_err(|e| format!("write {timestamp} failed: {e:?}"))?;
    } else {
        let read = client
            .read(rng)
            .map_err(|e| format!("a read failed: {e:?}"))?
            .entry;
        if read.value != authentic_value(read.timestamp) {
            return Err(format!("a read returned a pair nobody wrote: {read:?}"));
        }
    }
    Ok(started.elapsed())
}

fn deadline_expiries(transport: &SocketTransport) -> u64 {
    transport
        .stats()
        .deadline_expiries
        .load(std::sync::atomic::Ordering::Relaxed)
}

/// Four callers share the one connection, so at almost every moment one of
/// them reads the stream and the others wait on their mailboxes for what
/// it reads. They meet at a barrier every hundred operations, so a reading
/// caller often leaves for good while others still wait. A caller left
/// waiting while nobody reads would be answered only by the sweeper, one
/// request deadline later, and its operation would fail.
#[test]
fn four_callers_share_one_connection_and_none_is_stranded() {
    const CALLERS: u64 = 4;
    const OPERATIONS: u64 = 2_000;
    const BURST: u64 = 100;
    let (system, server, transport) = serve("four", Duration::from_secs(1));
    let barrier = std::sync::Barrier::new(CALLERS as usize);
    let failures: Vec<String> = std::thread::scope(|scope| {
        let callers: Vec<_> = (0..CALLERS)
            .map(|caller| {
                let (system, transport, barrier) = (&system, &transport, &barrier);
                let responsive = server.responsive_set().clone();
                scope.spawn(move || {
                    let mut client = ServiceClient::new(system, transport, responsive, 1);
                    let mut rng = StdRng::seed_from_u64(caller);
                    // Every caller runs every operation, failed or not, so
                    // that none is left waiting at the barrier.
                    (0..OPERATIONS)
                        .filter_map(|k| {
                            if k % BURST == 0 {
                                barrier.wait();
                            }
                            // Each caller writes timestamps of its own
                            // residue class.
                            let timestamp = 2 * (k * CALLERS + caller) + k % 2;
                            operate(&mut client, timestamp, &mut rng).err()
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        callers
            .into_iter()
            .flat_map(|caller| caller.join().unwrap())
            .collect()
    });
    assert!(
        failures.is_empty(),
        "{} failed: {failures:?}",
        failures.len()
    );
    assert_eq!(deadline_expiries(&transport), 0);
}

/// Forwards sends, but not `wait_replies`: its callers wait on their
/// mailboxes while the reader thread reads.
struct Forwarding<'a>(&'a SocketTransport);

impl Transport for Forwarding<'_> {
    fn universe_size(&self) -> usize {
        self.0.universe_size()
    }

    fn send(&self, request: Request) -> bool {
        self.0.send(request)
    }

    fn send_batch(&self, requests: &mut Vec<Request>) -> bool {
        self.0.send_batch(requests)
    }
}

/// After a thousand operations in which the caller read the stream, the
/// reader thread must take the reads back for a caller that waits on its
/// mailbox without the hook.
#[test]
fn the_reader_thread_takes_over_from_a_caller_that_stops_leading() {
    const OPERATIONS: u64 = 1_000;
    const REQUEST_DEADLINE: Duration = Duration::from_millis(250);
    let (system, server, transport) = serve("takeover", REQUEST_DEADLINE);
    let wrapped = Forwarding(&transport);
    let mut rng = StdRng::seed_from_u64(3);
    let mut leading = ServiceClient::new(&system, &transport, server.responsive_set().clone(), 1);
    let mut waiting = ServiceClient::new(&system, &wrapped, server.responsive_set().clone(), 1);
    for timestamp in 1..=2 * OPERATIONS {
        let took = if timestamp <= OPERATIONS {
            operate(&mut leading, timestamp, &mut rng)
        } else {
            operate(&mut waiting, timestamp, &mut rng)
        }
        .unwrap();
        assert!(
            took < REQUEST_DEADLINE,
            "operation {timestamp} took {took:?}, as long as a request deadline"
        );
    }
    assert_eq!(deadline_expiries(&transport), 0);
}

/// A server that dies while a caller reads the stream: the caller finds the
/// end of the stream itself, and every request in flight is answered in-band
/// by the teardown, long before its 30 s deadline.
#[test]
fn a_server_that_closes_under_a_reading_caller_answers_in_band() {
    const FANOUT: usize = 5;
    let listener = Listener::bind_uds(uds_path("close")).unwrap();
    let endpoint = listener.endpoint().unwrap();
    let (received, requests_in) = std::sync::mpsc::channel();
    // Takes one fan-out, answers nothing, and hangs up a while later.
    let peer = std::thread::spawn(move || {
        let mut stream = listener.accept().unwrap();
        let mut frames = FrameReader::new();
        let mut chunk = [0u8; 1024];
        let mut seen = 0;
        while seen < FANOUT {
            let got = stream.read(&mut chunk).unwrap();
            assert!(got > 0, "the client hung up early");
            frames.push(&chunk[..got]);
            while let Some(WireMessage::Request(_)) = frames.next_message() {
                seen += 1;
            }
        }
        received.send(()).unwrap();
        std::thread::sleep(Duration::from_millis(100));
        drop(stream);
    });
    let transport =
        SocketTransport::connect(endpoint, FANOUT, single_connection(Duration::from_secs(30)))
            .unwrap();
    let mailbox = Arc::new(ReplyMailbox::new());
    let mut fanout: Vec<Request> = (0..FANOUT)
        .map(|server| Request {
            server,
            op: Operation::Read,
            request_id: server as u64,
            origin: 0,
            epoch: 0,
            reply: Arc::clone(&mailbox) as ReplyHandle,
        })
        .collect();
    let started = Instant::now();
    assert!(transport.send_batch(&mut fanout));
    let mut replies = Vec::new();
    while replies.len() < FANOUT {
        let mut drained = Vec::new();
        let status = transport.wait_replies(&mailbox, Duration::from_secs(30), &mut drained);
        assert!(matches!(status, DrainStatus::Drained(_)), "{status:?}");
        replies.append(&mut drained);
    }
    let took = started.elapsed();
    requests_in.recv().unwrap();
    peer.join().unwrap();
    assert!(took < Duration::from_secs(2), "the teardown took {took:?}");
    replies.sort_by_key(|reply| reply.request_id);
    assert_eq!(
        replies
            .iter()
            .map(|reply| (reply.request_id, reply.server, reply.entry))
            .collect::<Vec<_>>(),
        (0..FANOUT)
            .map(|server| (server as u64, server, None))
            .collect::<Vec<_>>(),
        "every request in flight gets one in-band no-answer"
    );
    let stats = transport.stats();
    let load =
        |counter: &std::sync::atomic::AtomicU64| counter.load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(load(&stats.failed_by_disconnect), FANOUT as u64);
    assert_eq!(load(&stats.deadline_expiries), 0);
}
