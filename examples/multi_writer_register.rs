//! A multi-writer replicated register over a b-masking quorum system.
//!
//! Several writers share one register: each write first queries a quorum for the
//! highest (masked) timestamp, then writes with a larger timestamp tie-broken by the
//! writer id — the read-modify-write timestamping of the [MR98a] protocols. The
//! masking quorum system keeps the register consistent even though `b` servers lie.
//!
//! Run with: `cargo run --example multi_writer_register`

use byzantine_quorums::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // boostFPP(q=2, b=1): 35 servers, masks one Byzantine server, tolerates 5 crashes.
    let system = BoostFppSystem::new(2, 1)?;
    let (n, b, writers) = (system.universe_size(), 1, 4u64);
    println!(
        "multi-writer register over {} ({n} servers, b = {b})\n",
        system.name()
    );

    let plan = FaultPlan::none(n)
        .with_byzantine(
            7,
            ByzantineStrategy::FabricateHighTimestamp { value: 0xBAD },
        )
        .with_crashed(12)
        .with_crashed(29);
    println!("fault plan: 1 fabricating Byzantine server, 2 crashes\n");

    // One client per writer and a reader, taking turns: after every
    // operation the reader must see the last completed write, whoever made it.
    let service = LoopbackService::spawn(&plan, 1, 77);
    let client = || ServiceClient::new(&system, &service, service.responsive_set().clone(), b);
    let mut writer_clients: Vec<_> = (0..writers).map(|_| client()).collect();
    let mut reader = client();
    let mut rng = StdRng::seed_from_u64(77);

    let mut writes_per_writer = vec![0usize; writers as usize];
    let (mut reads_completed, mut safety_violations, mut unavailable) = (0, 0, 0);
    let mut last_write: Option<Entry> = None;
    for op in 0..2000u64 {
        let writer = op % writers;
        let outcome = if last_write.is_none() || rng.gen::<f64>() < 0.4 {
            let value = last_write.map_or(1, |entry| entry.value + 1);
            let wrote =
                writer_clients[writer as usize].write_after_query(value, writer, writers, &mut rng);
            wrote.map(|entry| {
                last_write = Some(entry);
                writes_per_writer[writer as usize] += 1;
            })
        } else {
            reader.read(&mut rng).map(|read| {
                reads_completed += 1;
                safety_violations += usize::from(Some(read.entry) != last_write);
            })
        };
        match outcome {
            Ok(()) => {}
            Err(ServiceError::Protocol(ProtocolError::NoLiveQuorum)) => unavailable += 1,
            // Nothing safe to read although a write completed: a lost write.
            Err(ServiceError::Protocol(ProtocolError::NoSafeValue)) => safety_violations += 1,
            Err(other) => return Err(other.into()),
        }
    }

    println!("writes per writer    : {writes_per_writer:?}");
    println!("reads completed      : {reads_completed}");
    println!("safety violations    : {safety_violations}");
    println!("unavailable ops      : {unavailable}");
    assert_eq!(safety_violations, 0);
    println!("\nevery read returned the latest completed write, from whichever writer made it;");
    println!("the fabricated high-timestamp value never reached the b+1 support it would need.");
    Ok(())
}
