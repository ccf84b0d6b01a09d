//! End-to-end tests: the masking protocol and the open-loop generator over
//! real sockets, plus the transport's failure machinery (deadlines,
//! disconnect, reconnect).

use std::time::{Duration, Instant};

use bqs_constructions::prelude::*;
use bqs_net::prelude::*;
use bqs_service::prelude::*;
use bqs_sim::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn uds_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("bqs-net-test-{}-{tag}.sock", std::process::id()))
}

fn quick_net() -> NetConfig {
    NetConfig {
        pool: 2,
        request_deadline: Duration::from_millis(500),
        reconnect_backoff: Duration::from_millis(20),
        reconnect_attempts: 3,
        ..NetConfig::default()
    }
}

#[test]
fn masking_read_write_round_trips_over_tcp() {
    let system = GridSystem::new(5, 1).unwrap();
    let server = SocketServer::bind_tcp_loopback(&FaultPlan::none(25), 2, 11).unwrap();
    let transport = SocketTransport::connect(server.endpoint().clone(), 25, quick_net()).unwrap();
    let mut client = ServiceClient::new(&system, &transport, server.responsive_set().clone(), 1);
    let mut rng = StdRng::seed_from_u64(1);
    for round in 1..=20u64 {
        let entry = Entry {
            timestamp: round,
            value: authentic_value(round),
        };
        client.write(entry, &mut rng).unwrap();
        assert_eq!(client.read(&mut rng).unwrap().entry, entry);
    }
    // 40 operations, each contacting exactly one quorum (uniform cardinality
    // in a grid), all accounted for on the server side.
    let accesses: u64 = server.metrics().access_counts().iter().sum();
    assert_eq!(accesses % 40, 0, "uniform quorum cardinality: {accesses}");
    assert!(accesses >= 40 * 9, "grid quorums are at least 9 wide");
}

#[test]
fn byzantine_fabrication_is_masked_over_uds() {
    let system = MGridSystem::new(5, 2).unwrap();
    let plan = FaultPlan::none(25)
        .with_byzantine(
            0,
            ByzantineStrategy::FabricateHighTimestamp { value: 0xbad },
        )
        .with_byzantine(13, ByzantineStrategy::Equivocate);
    let server = SocketServer::bind_uds(uds_path("mask"), &plan, 2, 12).unwrap();
    let transport = SocketTransport::connect(server.endpoint().clone(), 25, quick_net()).unwrap();
    let mut client = ServiceClient::new(&system, &transport, server.responsive_set().clone(), 2);
    let mut rng = StdRng::seed_from_u64(2);
    for round in 1..=10u64 {
        let entry = Entry {
            timestamp: round,
            value: authentic_value(round),
        };
        client.write(entry, &mut rng).unwrap();
        let best = client.read(&mut rng).unwrap().entry;
        assert_eq!(
            best.value,
            authentic_value(best.timestamp),
            "b = 2 must mask two faulty servers"
        );
    }
}

#[test]
fn open_loop_generator_runs_safely_over_uds() {
    let system = GridSystem::new(5, 1).unwrap();
    let server = SocketServer::bind_uds(uds_path("openloop"), &FaultPlan::none(25), 2, 13).unwrap();
    let transport = SocketTransport::connect(
        server.endpoint().clone(),
        25,
        NetConfig {
            pool: 2,
            request_deadline: Duration::from_secs(5),
            ..quick_net()
        },
    )
    .unwrap();
    let report = run_open_loop(
        &system,
        1,
        &transport,
        server.responsive_set(),
        &OpenLoopConfig {
            offered_rate: 1_500.0,
            total_arrivals: 300,
            workers: 2,
            virtual_clients: 100,
            ..OpenLoopConfig::default()
        },
    );
    assert!(report.is_safe(), "{report:?}");
    assert_eq!(
        report.scheduled,
        report.completed()
            + report.shed
            + report.timed_out
            + report.no_live_quorum
            + report.rejected_sends,
        "accounting identity over sockets: {report:?}"
    );
    // Far below the knee: effectively everything completes.
    assert!(
        report.completed() >= report.scheduled * 9 / 10,
        "{report:?}"
    );
    assert!(report.completed_reads > 0 && report.completed_writes > 0);
}

#[test]
fn deadline_expiry_answers_in_band_instead_of_hanging() {
    // A universe of 30 but a server that only owns 25: requests addressed to
    // servers 25..30 are answered in-band by the *server* (out of universe),
    // while a dead server would be caught by the client-side sweeper. Use a
    // black-holed endpoint instead: connect, then drop the server so nothing
    // answers, and check the deadline converts silence into `entry = None`.
    let system = ThresholdSystem::minimal_masking(1).unwrap();
    let server = SocketServer::bind_tcp_loopback(&FaultPlan::none(5), 1, 14).unwrap();
    let endpoint = server.endpoint().clone();
    let transport = SocketTransport::connect(
        endpoint,
        5,
        NetConfig {
            request_deadline: Duration::from_millis(300),
            reconnect_attempts: 1,
            ..quick_net()
        },
    )
    .unwrap();
    drop(server); // silence: connections reset, nothing will answer
    let mut client =
        ServiceClient::new(&system, &transport, bqs_core::bitset::ServerSet::full(5), 1)
            .with_reply_deadline(Duration::from_secs(2));
    let mut rng = StdRng::seed_from_u64(3);
    let started = Instant::now();
    let result = client.read(&mut rng);
    assert!(result.is_err(), "a dead server cannot serve a read");
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "failure must surface quickly, not hang"
    );
    let stats = transport.stats();
    let answered_in_band = stats
        .deadline_expiries
        .load(std::sync::atomic::Ordering::Relaxed)
        + stats
            .failed_by_disconnect
            .load(std::sync::atomic::Ordering::Relaxed);
    // Either the reader noticed the reset (disconnect path) or the sweeper
    // expired the requests (deadline path); sends refused outright are also
    // legitimate. The point is: no hang.
    assert!(
        answered_in_band > 0 || result.is_err(),
        "silence must surface as in-band no-answers or refused sends"
    );
}

#[test]
fn transport_reconnects_to_a_restarted_server() {
    let system = ThresholdSystem::minimal_masking(1).unwrap();
    let path = uds_path("reconnect");
    let server = SocketServer::bind_uds(&path, &FaultPlan::none(5), 1, 15).unwrap();
    let transport = SocketTransport::connect(server.endpoint().clone(), 5, quick_net()).unwrap();
    let mut client =
        ServiceClient::new(&system, &transport, bqs_core::bitset::ServerSet::full(5), 1)
            .with_reply_deadline(Duration::from_secs(2));
    let mut rng = StdRng::seed_from_u64(4);
    let entry = Entry {
        timestamp: 1,
        value: authentic_value(1),
    };
    client.write(entry, &mut rng).unwrap();

    drop(server);
    // Same path, fresh service: a restarted server.
    let server = SocketServer::bind_uds(&path, &FaultPlan::none(5), 1, 15).unwrap();

    // The first operations may land on the torn-down pool; the client's
    // probe-and-fallback plus transport reconnect must converge quickly.
    let entry2 = Entry {
        timestamp: 2,
        value: authentic_value(2),
    };
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        match client.write(entry2, &mut rng) {
            Ok(_) => break,
            Err(_) if Instant::now() < deadline => continue,
            Err(err) => panic!("reconnect never succeeded: {err:?}"),
        }
    }
    assert_eq!(client.read(&mut rng).unwrap().entry, entry2);
    assert!(
        transport
            .stats()
            .reconnects
            .load(std::sync::atomic::Ordering::Relaxed)
            > 0,
        "the pool must have redialled the restarted server"
    );
    drop(server);
}

#[test]
fn loopback_and_socket_backends_agree_on_replica_state() {
    // The socket server is the *same* sharded runtime as the loopback: after
    // identical write sequences, reads through either backend return the
    // same entry.
    let system = GridSystem::new(3, 0).unwrap();
    let plan = FaultPlan::none(9);

    let loopback = LoopbackService::spawn(&plan, 2, 99);
    let mut lb_client =
        ServiceClient::new(&system, &loopback, loopback.responsive_set().clone(), 0);

    let server = SocketServer::bind_tcp_loopback(&plan, 2, 99).unwrap();
    let transport = SocketTransport::connect(server.endpoint().clone(), 9, quick_net()).unwrap();
    let mut net_client =
        ServiceClient::new(&system, &transport, server.responsive_set().clone(), 0);

    let mut rng_a = StdRng::seed_from_u64(5);
    let mut rng_b = StdRng::seed_from_u64(5);
    for round in 1..=5u64 {
        let entry = Entry {
            timestamp: round,
            value: authentic_value(round),
        };
        lb_client.write(entry, &mut rng_a).unwrap();
        net_client.write(entry, &mut rng_b).unwrap();
        assert_eq!(
            lb_client.read(&mut rng_a).unwrap().entry,
            net_client.read(&mut rng_b).unwrap().entry,
            "backends must expose identical register state"
        );
    }
}

/// One thread serves a connection, so a client that never reads its replies
/// eventually blocks that thread in its write — and must block nothing else:
/// another connection's operations still complete well inside the deadline,
/// and the server still shuts down.
#[test]
fn a_client_that_stops_reading_stalls_only_its_own_connection() {
    use bqs_net::codec::encode_request;
    use std::io::Write;

    let system = GridSystem::new(5, 1).unwrap();
    let server = SocketServer::bind_uds(uds_path("slow"), &FaultPlan::none(25), 2, 15).unwrap();

    // Connection A: writes reads of a stored entry (the replies are the
    // bigger frames) and never reads one. A write that cannot make progress
    // for a quarter of a second means both directions' buffers are full: the
    // server's thread for A is parked in `write_all`.
    let slow = server.endpoint().connect().unwrap();
    let Stream::Uds(ref socket) = slow else {
        panic!("a Unix-domain endpoint connects Unix-domain streams");
    };
    socket
        .set_write_timeout(Some(Duration::from_millis(250)))
        .unwrap();
    let mut wire = Vec::new();
    encode_request(
        &WireRequest {
            request_id: 0,
            server: 7,
            epoch: 0,
            op: Operation::Write(Entry {
                timestamp: 1,
                value: authentic_value(1),
            }),
        },
        &mut wire,
    );
    let reads: Vec<WireRequest> = (1..=512u64)
        .map(|request_id| WireRequest {
            request_id,
            server: 7,
            epoch: 0,
            op: Operation::Read,
        })
        .collect();
    encode_request_batch(&reads, &mut wire);
    let mut socket = socket;
    let filled = Instant::now() + Duration::from_secs(30);
    loop {
        assert!(Instant::now() < filled, "the socket buffers never filled");
        match socket.write(&wire) {
            Ok(_) => {}
            Err(err) if Stream::is_timeout(&err) => break,
            Err(err) => panic!("the slow client's write failed: {err}"),
        }
    }

    // Connection B, while A is wedged.
    let deadline = Duration::from_secs(5);
    let transport = SocketTransport::connect(
        server.endpoint().clone(),
        25,
        NetConfig {
            pool: 1,
            request_deadline: deadline,
            ..NetConfig::default()
        },
    )
    .unwrap();
    let mut client = ServiceClient::new(&system, &transport, server.responsive_set().clone(), 1);
    let mut rng = StdRng::seed_from_u64(3);
    let started = Instant::now();
    for round in 2..=21u64 {
        let entry = Entry {
            timestamp: round,
            value: authentic_value(round),
        };
        client.write(entry, &mut rng).unwrap();
        assert_eq!(client.read(&mut rng).unwrap().entry, entry);
    }
    assert!(
        started.elapsed() < deadline / 5,
        "40 operations took {:?} next to a wedged connection",
        started.elapsed()
    );
    let expiries = &transport.stats().deadline_expiries;
    assert_eq!(expiries.load(std::sync::atomic::Ordering::Relaxed), 0);
    drop(client);
    drop(transport);
    // A's thread is still parked in its write; shutdown must wake it.
    drop(server);
    drop(slow);
}
