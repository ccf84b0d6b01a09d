//! How many threads each piece of the stack runs, counted in
//! `/proc/self/task`. Every thread beyond these is a hand-off on the request
//! path, so one reintroduced fails here rather than in a benchmark. A single
//! test in its own file: the census is of the whole process, and nothing
//! else may be starting threads meanwhile.
#![cfg(target_os = "linux")]

use std::time::{Duration, Instant};

use bqs_constructions::prelude::*;
use bqs_net::prelude::*;
use bqs_service::prelude::*;
use bqs_sim::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("a Linux /proc")
        .count()
}

/// Waits for the census to read `expected`: a server's connection thread
/// starts (and, after a disconnect, ends) a moment after the client's call
/// returns.
fn settles_at(expected: usize, what: &str) {
    let patience = Instant::now() + Duration::from_secs(10);
    while threads() != expected {
        assert!(
            Instant::now() < patience,
            "{what}: {} threads, expected {expected}",
            threads()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn every_thread_of_the_stack_is_accounted_for() {
    const POOL: usize = 2;
    let system = GridSystem::new(5, 1).unwrap();
    let plan = FaultPlan::none(25);
    let baseline = threads();

    // The loopback runs requests on their senders' threads: none of its own.
    let loopback = LoopbackService::spawn(&plan, 4, 1);
    assert_eq!(
        threads(),
        baseline,
        "LoopbackService::spawn started a thread"
    );
    drop(loopback);

    // A server with nobody connected: the acceptor.
    let server = SocketServer::bind_tcp_loopback(&plan, 4, 2).unwrap();
    settles_at(baseline + 1, "SocketServer = 1 acceptor");

    // A transport: one sweeper and a reader per pooled connection; on the
    // server, one thread per connection.
    let transport = SocketTransport::connect(
        server.endpoint().clone(),
        25,
        NetConfig {
            pool: POOL,
            ..NetConfig::default()
        },
    )
    .unwrap();
    let with_transport = baseline + 1 + POOL + 1 + POOL;
    settles_at(
        with_transport,
        "acceptor + 1 per connection, sweeper + 1 reader per connection",
    );

    // Traffic starts nothing.
    let mut client = ServiceClient::new(&system, &transport, server.responsive_set().clone(), 1);
    let mut rng = StdRng::seed_from_u64(4);
    for round in 1..=50u64 {
        let entry = Entry {
            timestamp: round,
            value: authentic_value(round),
        };
        client.write(entry, &mut rng).unwrap();
        assert_eq!(client.read(&mut rng).unwrap().entry, entry);
        assert_eq!(threads(), with_transport, "an operation started a thread");
    }
    drop(client);

    // Everything is joined on the way out.
    drop(transport);
    settles_at(baseline + 1, "the connections' threads end with them");
    // A joined thread can linger in /proc for a moment.
    drop(server);
    settles_at(baseline, "a dropped server left a thread behind");

    // A deployment is its parts and nothing more, on every backend, and its
    // drop ends them all (a joined thread can linger in /proc for a moment).
    for backend in Backend::ALL {
        let net = NetConfig {
            pool: POOL,
            ..NetConfig::default()
        };
        let deployment = Deployment::start(backend, &plan, 4, 3, net).unwrap();
        let expected = match backend {
            Backend::Loopback => baseline,
            Backend::Uds | Backend::Tcp => with_transport,
        };
        settles_at(expected, backend.name());
        drop(deployment);
        settles_at(baseline, "a dropped deployment left a thread behind");
    }
}
