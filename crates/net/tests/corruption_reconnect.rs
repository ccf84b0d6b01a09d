//! Corruption striking *inside* a `WireBatch` frame, spanning a reconnect
//! boundary: the frame decoder must reject the damaged batch whole, resync to
//! the next magic, and the server connection (old and new) must keep serving
//! well-formed traffic as if nothing happened.

use std::io::{Read, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bqs_constructions::prelude::*;
use bqs_core::bitset::ServerSet;
use bqs_net::codec::{
    encode_reply, encode_request, encode_request_batch, FrameReader, WireMessage, WireRequest,
    HEADER_LEN, MAGIC,
};
use bqs_net::prelude::*;
use bqs_service::prelude::*;
use bqs_sim::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn read_batch(first_id: u64, servers: &[usize]) -> Vec<WireRequest> {
    servers
        .iter()
        .enumerate()
        .map(|(i, &server)| WireRequest {
            request_id: first_id + i as u64,
            server,
            epoch: 0,
            op: Operation::Read,
        })
        .collect()
}

/// Pumps `stream` through a fresh [`FrameReader`] until `want` replies arrive
/// (or panics at the deadline).
fn collect_replies(stream: &mut Stream, want: usize) -> Vec<Reply> {
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    let mut reader = FrameReader::new();
    let mut replies = Vec::new();
    let mut chunk = [0u8; 512];
    let deadline = Instant::now() + Duration::from_secs(10);
    while replies.len() < want {
        assert!(Instant::now() < deadline, "server stopped answering");
        match stream.read(&mut chunk) {
            Ok(0) => panic!("server closed the connection"),
            Ok(n) => {
                reader.push(&chunk[..n]);
                while let Some(message) = reader.next_message() {
                    match message {
                        WireMessage::Reply(reply) => replies.push(reply),
                        WireMessage::Request(_) => panic!("server must only send replies"),
                    }
                }
            }
            Err(ref err) if Stream::is_timeout(err) => continue,
            Err(err) => panic!("read failed: {err}"),
        }
    }
    replies
}

/// A reader fed the *tail* of a batch frame — what a peer that reconnected
/// mid-frame replays — must scan past the orphaned item bytes and decode the
/// next well-formed frame.
#[test]
fn frame_reader_resyncs_from_a_mid_batch_cut() {
    let batch = read_batch(10, &[0, 1, 2, 3]);
    let mut wire = Vec::new();
    encode_request_batch(&batch, &mut wire);

    // Cut inside the second item: the bytes after the cut start mid-item,
    // with no header in sight.
    let cut = HEADER_LEN + 2 + 22 + 7;
    let tail = &wire[cut..];
    let good = WireRequest {
        request_id: 99,
        server: 4,
        epoch: 0,
        op: Operation::Read,
    };
    let mut replayed = tail.to_vec();
    encode_request(&good, &mut replayed);

    let mut reader = FrameReader::new();
    reader.push(&replayed);
    assert_eq!(
        reader.next_message(),
        Some(WireMessage::Request(good)),
        "the orphaned batch tail must be scanned past, not misparsed"
    );
    assert_eq!(reader.next_message(), None);
    assert!(reader.resyncs() >= 1, "the scan must be counted");
    assert_eq!(reader.buffered(), 0);
}

/// Corruption lands mid-`WireBatch` on a live server connection, the client
/// tears the connection down (a truncated batch dies with it), reconnects,
/// and sends a batch whose middle item is garbled followed by clean traffic.
/// The server must discard the damaged batch whole, resync, and answer every
/// well-formed request — on both sides of the reconnect boundary.
#[test]
fn server_survives_batch_corruption_across_a_reconnect() {
    let server = SocketServer::bind_tcp_loopback(&FaultPlan::none(5), 1, 21).unwrap();

    // Connection one: a healthy batch (proves the path works), then a batch
    // frame truncated mid-item, then a hard teardown.
    let mut first = server.endpoint().connect().unwrap();
    let healthy = read_batch(1, &[0, 1, 2]);
    let mut wire = Vec::new();
    encode_request_batch(&healthy, &mut wire);
    first.write_all(&wire).unwrap();
    let replies = collect_replies(&mut first, 3);
    assert!(
        replies.iter().all(|r| r.entry == Some(Entry::INITIAL)),
        "an unwritten register holds its initial entry"
    );

    let truncated_batch = read_batch(4, &[0, 1, 2, 3]);
    let mut wire = Vec::new();
    encode_request_batch(&truncated_batch, &mut wire);
    first.write_all(&wire[..HEADER_LEN + 2 + 22 + 5]).unwrap();
    first.flush().unwrap();
    first.shutdown();
    drop(first);

    // Connection two: a batch with its middle item corrupted, then a good
    // single frame. The batch is rejected whole; the single frame answers.
    let mut second = server.endpoint().connect().unwrap();
    let damaged = read_batch(20, &[0, 1, 2]);
    let mut wire = Vec::new();
    encode_request_batch(&damaged, &mut wire);
    wire[HEADER_LEN + 2 + 22] = 0xee; // second item's kind byte
    let good = WireRequest {
        request_id: 42,
        server: 4,
        epoch: 0,
        op: Operation::Write(Entry {
            timestamp: 1,
            value: authentic_value(1),
        }),
    };
    encode_request(&good, &mut wire);
    second.write_all(&wire).unwrap();
    let replies = collect_replies(&mut second, 1);
    assert_eq!(replies[0].request_id, 42, "only the clean frame answers");
    assert_eq!(replies[0].server, 4);
    assert_eq!(
        replies[0].entry,
        Some(Entry {
            timestamp: 1,
            value: authentic_value(1),
        }),
        "a write ack echoes the stored entry"
    );

    // The write behind the corrupted batch must have been applied, and none
    // of the damaged batch's reads may have been salvaged and answered.
    let probe = WireRequest {
        request_id: 43,
        server: 4,
        epoch: 0,
        op: Operation::Read,
    };
    let mut wire = Vec::new();
    encode_request(&probe, &mut wire);
    second.write_all(&wire).unwrap();
    let replies = collect_replies(&mut second, 1);
    assert_eq!(replies[0].request_id, 43);
    assert_eq!(
        replies[0].entry,
        Some(Entry {
            timestamp: 1,
            value: authentic_value(1),
        }),
        "the clean write after the damaged batch was applied"
    );
    drop(second);

    // And the full pooled transport still runs the masking protocol against
    // the same server instance: the corruption episodes left no debris.
    let system = ThresholdSystem::minimal_masking(1).unwrap();
    let transport = SocketTransport::connect(
        server.endpoint().clone(),
        5,
        NetConfig {
            pool: 2,
            request_deadline: Duration::from_millis(500),
            ..NetConfig::default()
        },
    )
    .unwrap();
    let mut client = ServiceClient::new(&system, &transport, server.responsive_set().clone(), 1);
    let mut rng = StdRng::seed_from_u64(6);
    let entry = Entry {
        timestamp: 2,
        value: authentic_value(2),
    };
    client.write(entry, &mut rng).unwrap();
    assert_eq!(client.read(&mut rng).unwrap().entry, entry);
}

/// Garbage with an embedded magic *inside* a corrupt batch payload must not
/// derail recovery: the resync scan starts inside the frame and may land on
/// that embedded header, then keeps scanning to the genuine next frame.
#[test]
fn embedded_magic_inside_a_corrupt_batch_does_not_derail_resync() {
    let batch = read_batch(30, &[0, 1]);
    let mut wire = Vec::new();
    encode_request_batch(&batch, &mut wire);
    // Garble the first item AND plant a magic mid-payload with a bogus length.
    wire[HEADER_LEN + 2] = 0xee;
    wire[HEADER_LEN + 2 + 3..HEADER_LEN + 2 + 3 + MAGIC.len()].copy_from_slice(&MAGIC);
    let good = WireRequest {
        request_id: 77,
        server: 3,
        epoch: 0,
        op: Operation::Read,
    };
    encode_request(&good, &mut wire);

    let mut reader = FrameReader::new();
    reader.push(&wire);
    assert_eq!(reader.next_message(), Some(WireMessage::Request(good)));
    assert!(reader.resyncs() >= 1);
}

const HONEST: Entry = Entry {
    timestamp: 1,
    value: 10,
};
/// Fresher than `HONEST`: it wins a read the moment it has `b + 1` votes.
const LIE: Entry = Entry {
    timestamp: 999,
    value: 666,
};

/// A peer that serves one connection of read requests. Every server answers
/// `HONEST` under its own name except server 3, which answers `LIE` — under
/// its own name the first time it is asked, as "server `alias`" after that.
fn spawn_misattributing_peer(alias: usize) -> (Endpoint, std::thread::JoinHandle<()>) {
    let listener = Listener::bind_tcp("127.0.0.1:0".parse().unwrap()).unwrap();
    let endpoint = listener.endpoint().unwrap();
    let peer = std::thread::spawn(move || {
        let mut stream = listener.accept().unwrap();
        let mut reader = FrameReader::new();
        let mut chunk = [0u8; 512];
        let mut asked_before = false;
        loop {
            let got = match stream.read(&mut chunk) {
                Ok(0) | Err(_) => return, // the client hung up
                Ok(got) => got,
            };
            reader.push(&chunk[..got]);
            let mut wire = Vec::new();
            while let Some(WireMessage::Request(request)) = reader.next_message() {
                let (server, entry) = match request.server {
                    3 if asked_before => (alias, LIE),
                    3 => (3, LIE),
                    honest => (honest, HONEST),
                };
                asked_before |= request.server == 3;
                let reply = Reply {
                    server,
                    request_id: request.request_id,
                    entry: Some(entry),
                    epoch: request.epoch,
                    stale: false,
                };
                encode_reply(&reply, &mut wire);
            }
            stream.write_all(&wire).unwrap();
        }
    });
    (endpoint, peer)
}

/// A duplicating network in front of the socket transport: server 3 is asked
/// twice per fan-out (same caller id, same sink — what the chaos interposer's
/// duplicate family does), and first, so its answers race nobody.
struct AskThreeTwice(SocketTransport);

impl Transport for AskThreeTwice {
    fn universe_size(&self) -> usize {
        self.0.universe_size()
    }

    fn send(&self, request: Request) -> bool {
        self.0.send(request)
    }

    fn send_batch(&self, requests: &mut Vec<Request>) -> bool {
        requests.sort_by_key(|r| r.server != 3);
        if let Some(first) = requests.first().filter(|r| r.server == 3) {
            let twin = Request {
                reply: Arc::clone(&first.reply),
                ..*first
            };
            requests.insert(0, twin);
        }
        self.0.send_batch(requests)
    }
}

/// The wire's `server` field is the peer's claim, not an identity: a reply is
/// attributed to the server its slot addressed. A peer answering a second
/// request for server 3 under another server's name — in range or not — must
/// get no second vote and must not index the client's per-server metrics out
/// of bounds; the read completes exactly as if the duplicate had been honest.
#[test]
fn a_reply_is_attributed_to_the_addressed_server_not_the_wire_claim() {
    let system = ThresholdSystem::minimal_masking(1).unwrap(); // 4-of-5, b = 1
    for alias in [4, 17] {
        // 4: a real server outside the only live quorum; 17: no server at all.
        let (endpoint, peer) = spawn_misattributing_peer(alias);
        let config = NetConfig {
            pool: 1,
            request_deadline: Duration::from_millis(500),
            ..NetConfig::default()
        };
        let transport = AskThreeTwice(SocketTransport::connect(endpoint, 5, config).unwrap());
        let metrics = Arc::new(ServiceMetrics::new(5));
        let responsive = ServerSet::from_indices(5, [0, 1, 2, 3]);
        let mut client = ServiceClient::new(&system, &transport, responsive, 1)
            .with_reply_deadline(Duration::from_secs(5))
            .with_metrics(Arc::clone(&metrics));
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..3 {
            let read = client.read(&mut rng).expect("every member answered");
            assert_eq!(read.entry, HONEST, "alias {alias}: the liar voted twice");
        }
        let seen = metrics.snapshot();
        assert_eq!(seen.server_answers, vec![3, 3, 3, 3, 0]);
        assert_eq!(seen.timeouts, 0, "alias {alias}");
        drop(client);
        drop(transport);
        peer.join().unwrap();
    }
}

/// Holds the transport's reader thread inside `complete` until released, so
/// the test decides who finds the dead stream first: the writer.
#[derive(Debug)]
struct StallReader {
    entered: std::sync::mpsc::SyncSender<Reply>,
    release: std::sync::Mutex<std::sync::mpsc::Receiver<()>>,
}

impl ReplySink for StallReader {
    fn complete(&self, reply: Reply) {
        let _ = self.entered.send(reply);
        let _ = self.release.lock().unwrap().recv();
    }
}

/// A batch whose write finds the connection dead is rewritten on a fresh
/// one, so it must not be failed along with the requests that died on the
/// old stream: its callers get the server's real answers (and nothing
/// else), while every older in-flight request gets exactly one in-band
/// no-answer. The peer answers one request of the first connection — its
/// sink stalls the transport's reader, so the reader cannot notice the
/// close — then closes it, and serves the second connection honestly.
#[test]
fn a_retried_batch_gets_the_servers_answers_not_a_no_answer() {
    use std::sync::mpsc;

    let path = std::env::temp_dir().join(format!("bqs-retried-batch-{}.sock", std::process::id()));
    let listener = Listener::bind_uds(path).unwrap();
    let endpoint = listener.endpoint().unwrap();
    let (close_first, closing) = mpsc::channel::<()>();
    let (closed_tx, closed) = mpsc::channel::<()>();
    let peer = std::thread::spawn(move || {
        let answer = |request: &WireRequest, wire: &mut Vec<u8>| {
            let reply = Reply {
                server: request.server,
                request_id: request.request_id,
                entry: Some(HONEST),
                epoch: request.epoch,
                stale: false,
            };
            encode_reply(&reply, wire);
        };
        // Connection one: take the three older requests, answer the first.
        let mut first = listener.accept().unwrap();
        let mut reader = FrameReader::new();
        let mut chunk = [0u8; 512];
        let mut seen = Vec::new();
        while seen.len() < 3 {
            let got = first.read(&mut chunk).unwrap();
            assert!(got > 0, "the client hung up early");
            reader.push(&chunk[..got]);
            while let Some(WireMessage::Request(request)) = reader.next_message() {
                seen.push(request);
            }
        }
        let mut wire = Vec::new();
        answer(&seen[0], &mut wire);
        first.write_all(&wire).unwrap();
        closing.recv().unwrap();
        drop(first);
        closed_tx.send(()).unwrap();
        // Connection two: an honest server.
        let mut second = listener.accept().unwrap();
        let mut reader = FrameReader::new();
        loop {
            let got = match second.read(&mut chunk) {
                Ok(0) | Err(_) => return, // the client hung up
                Ok(got) => got,
            };
            reader.push(&chunk[..got]);
            let mut wire = Vec::new();
            while let Some(WireMessage::Request(request)) = reader.next_message() {
                answer(&request, &mut wire);
            }
            second.write_all(&wire).unwrap();
        }
    });

    let transport = SocketTransport::connect(
        endpoint,
        5,
        NetConfig {
            pool: 1,
            // Long: every no-answer below comes from the disconnect.
            request_deadline: Duration::from_secs(30),
            reconnect_backoff: Duration::from_millis(1),
            ..NetConfig::default()
        },
    )
    .unwrap();
    let read = |server: usize, request_id: u64, reply: ReplyHandle| Request {
        server,
        op: Operation::Read,
        request_id,
        origin: 0,
        epoch: 0,
        reply,
    };

    let (entered_tx, entered) = mpsc::sync_channel(4);
    let (release, released) = mpsc::channel::<()>();
    let stall: ReplyHandle = Arc::new(StallReader {
        entered: entered_tx,
        release: std::sync::Mutex::new(released),
    });
    let older = Arc::new(ReplyMailbox::new());
    let mut batch = vec![
        read(0, 10, stall),
        read(1, 11, Arc::clone(&older) as ReplyHandle),
        read(2, 12, Arc::clone(&older) as ReplyHandle),
    ];
    assert!(transport.send_batch(&mut batch));
    let answered = entered.recv_timeout(Duration::from_secs(10)).unwrap();
    assert_eq!((answered.request_id, answered.entry), (10, Some(HONEST)));

    // The reader is parked in the sink; the peer closes; the writer is the
    // one to find out.
    close_first.send(()).unwrap();
    closed.recv_timeout(Duration::from_secs(10)).unwrap();
    let retried = Arc::new(ReplyMailbox::new());
    let mut batch = vec![
        read(3, 20, Arc::clone(&retried) as ReplyHandle),
        read(4, 21, Arc::clone(&retried) as ReplyHandle),
    ];
    assert!(transport.send_batch(&mut batch), "the redial succeeds");

    let mut answers = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(10);
    while answers.len() < 2 {
        assert!(
            Instant::now() < deadline,
            "the retried batch went unanswered"
        );
        let mut drained = Vec::new();
        retried.drain_timeout(Duration::from_millis(100), &mut drained);
        answers.append(&mut drained);
    }
    answers.sort_by_key(|reply| reply.request_id);
    assert_eq!(
        answers
            .iter()
            .map(|reply| (reply.request_id, reply.server, reply.entry))
            .collect::<Vec<_>>(),
        vec![(20, 3, Some(HONEST)), (21, 4, Some(HONEST))],
        "the retried batch's callers were told something other than the server's answers"
    );

    // Let the reader go: it finds a stream that a reconnect has superseded.
    // Dropping the transport joins it, so nothing is still on its way after.
    release.send(()).unwrap();
    assert_eq!(
        transport
            .stats()
            .reconnects
            .load(std::sync::atomic::Ordering::Relaxed),
        1
    );
    assert_eq!(
        transport
            .stats()
            .failed_by_disconnect
            .load(std::sync::atomic::Ordering::Relaxed),
        2
    );
    drop(transport);
    peer.join().unwrap();
    let mut failed = Vec::new();
    older.drain_timeout(Duration::ZERO, &mut failed);
    failed.sort_by_key(|reply| reply.request_id);
    assert_eq!(
        failed
            .iter()
            .map(|reply| (reply.request_id, reply.server, reply.entry))
            .collect::<Vec<_>>(),
        vec![(11, 1, None), (12, 2, None)],
        "each older in-flight request gets exactly one in-band no-answer"
    );
    let mut late = Vec::new();
    retried.drain_timeout(Duration::ZERO, &mut late);
    assert!(
        late.is_empty(),
        "the retried batch was answered twice: {late:?}"
    );
}
