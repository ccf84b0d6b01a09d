//! Batched-vs-unbatched parity: coalescing is a transport optimisation, not
//! a semantic change. The same deterministic operation sequence must produce
//! the identical reply stream whether requests travel as per-request frames
//! ([`Transport::send`], one at a time) or as coalesced `WireBatch` frames
//! ([`Transport::send_batch`]), and whether the backend is the in-process
//! loopback, a Unix-domain socket, or TCP.

use std::time::Duration;

use bqs_constructions::prelude::*;
use bqs_net::prelude::*;
use bqs_service::prelude::*;
use bqs_sim::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const UNIVERSE: usize = 25;
const SHARDS: usize = 2;
const SERVICE_SEED: u64 = 41;
const CLIENT_SEED: u64 = 42;

fn net() -> NetConfig {
    NetConfig {
        pool: 2,
        request_deadline: Duration::from_secs(5),
        ..NetConfig::default()
    }
}

/// Hides the socket transport's `send_batch`, so a fan-out falls through to
/// the trait's default: one `send` — one single-message frame, one write —
/// per request.
struct PerRequest(SocketTransport);

impl Transport for PerRequest {
    fn universe_size(&self) -> usize {
        self.0.universe_size()
    }

    fn send(&self, request: Request) -> bool {
        self.0.send(request)
    }
}

/// Connects to `server` and runs the canonical sequence, coalescing fan-outs
/// or sending them request by request.
fn run_over_socket(server: &SocketServer, batched: bool) -> Vec<Entry> {
    let transport = SocketTransport::connect(server.endpoint().clone(), UNIVERSE, net()).unwrap();
    let responsive = server.responsive_set().clone();
    if batched {
        run_sequence(&transport, responsive)
    } else {
        run_sequence(&PerRequest(transport), responsive)
    }
}

/// Runs the canonical operation sequence — interleaved writes and reads,
/// deterministic quorum choices from a fixed seed — and returns the stream
/// of entries the reads observed.
fn run_sequence(transport: &dyn Transport, responsive: bqs_core::bitset::ServerSet) -> Vec<Entry> {
    let system = GridSystem::new(5, 1).unwrap();
    let mut client = ServiceClient::new(&system, transport, responsive, 1);
    let mut rng = StdRng::seed_from_u64(CLIENT_SEED);
    let mut observed = Vec::new();
    for round in 1..=15u64 {
        let entry = Entry {
            timestamp: round,
            value: authentic_value(round),
        };
        client.write(entry, &mut rng).unwrap();
        observed.push(client.read(&mut rng).unwrap().entry);
        // A second read per round exercises read-after-read stability too.
        observed.push(client.read(&mut rng).unwrap().entry);
    }
    observed
}

#[test]
fn reply_streams_agree_across_backends_and_batching_modes() {
    let plan = FaultPlan::none(UNIVERSE);
    let uds_path = |tag: &str| {
        std::env::temp_dir().join(format!("bqs-parity-{}-{tag}.sock", std::process::id()))
    };

    // Reference: the in-process loopback (always batched via `send_batch`).
    let loopback = LoopbackService::spawn(&plan, SHARDS, SERVICE_SEED);
    let reference = run_sequence(&loopback, loopback.responsive_set().clone());
    assert_eq!(reference.len(), 30);

    // Every socket variant must reproduce the reference stream exactly.
    for (label, batched, tcp) in [
        ("uds batched", true, false),
        ("uds unbatched", false, false),
        ("tcp batched", true, true),
        ("tcp unbatched", false, true),
    ] {
        let server = if tcp {
            SocketServer::bind_tcp_loopback(&plan, SHARDS, SERVICE_SEED).unwrap()
        } else {
            SocketServer::bind_uds(uds_path(label), &plan, SHARDS, SERVICE_SEED).unwrap()
        };
        assert_eq!(
            run_over_socket(&server, batched),
            reference,
            "{label}: reply stream diverged from the loopback reference"
        );
    }
}

#[test]
fn batching_survives_a_byzantine_plan_identically() {
    // Parity must hold under faults too: the masking protocol's view of a
    // fabricating server cannot depend on how frames were coalesced.
    let plan = FaultPlan::none(UNIVERSE)
        .with_byzantine(
            3,
            ByzantineStrategy::FabricateHighTimestamp { value: 0xbad },
        )
        .with_crashed(7);
    let run = |batched: bool| {
        let server = SocketServer::bind_tcp_loopback(&plan, SHARDS, SERVICE_SEED).unwrap();
        run_over_socket(&server, batched)
    };
    let batched = run(true);
    let unbatched = run(false);
    assert_eq!(batched, unbatched);
    // And the masking rule held throughout: every observed value authentic.
    for entry in &batched {
        assert_eq!(entry.value, authentic_value(entry.timestamp));
    }
}
