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

/// Hides the wrapped transport's `send_batch`, so a fan-out falls through to
/// the trait's default: one `send` — on a socket, one single-message frame
/// and one write — per request.
struct PerRequest<'a>(&'a dyn Transport);

impl Transport for PerRequest<'_> {
    fn universe_size(&self) -> usize {
        self.0.universe_size()
    }

    fn send(&self, request: Request) -> bool {
        self.0.send(request)
    }
}

/// Deploys `plan` on `backend` and runs the canonical sequence, coalescing
/// fan-outs or sending them request by request.
fn run_on(backend: Backend, plan: &FaultPlan, batched: bool) -> Vec<Entry> {
    let deployment = Deployment::start(backend, plan, SHARDS, SERVICE_SEED, net()).unwrap();
    let responsive = deployment.service().responsive_set().clone();
    if batched {
        run_sequence(&deployment, responsive)
    } else {
        run_sequence(&PerRequest(&deployment), responsive)
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

    // Reference: the in-process loopback (always batched via `send_batch`).
    let loopback = LoopbackService::spawn(&plan, SHARDS, SERVICE_SEED);
    let reference = run_sequence(&loopback, loopback.responsive_set().clone());
    assert_eq!(reference.len(), 30);

    // Every deployment, batched or not, must reproduce the reference stream
    // exactly.
    for backend in Backend::ALL {
        for batched in [true, false] {
            assert_eq!(
                run_on(backend, &plan, batched),
                reference,
                "{} (batched: {batched}): reply stream diverged from the loopback reference",
                backend.name()
            );
        }
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
    let batched = run_on(Backend::Tcp, &plan, true);
    let unbatched = run_on(Backend::Tcp, &plan, false);
    assert_eq!(batched, unbatched);
    // And the masking rule held throughout: every observed value authentic.
    for entry in &batched {
        assert_eq!(entry.value, authentic_value(entry.timestamp));
    }
}
