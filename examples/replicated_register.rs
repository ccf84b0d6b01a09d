//! A Byzantine fault-tolerant replicated register, end to end.
//!
//! This example plays out the scenario that motivates the paper: a replicated
//! service accessed through quorums must stay *consistent* when some servers are
//! Byzantine and stay *available* when (possibly many more) servers crash. It runs
//! the same workload over several constructions, under increasing attack strength,
//! and shows where each one's guarantees hold and where they break.
//!
//! Run with: `cargo run --example replicated_register`

use byzantine_quorums::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn attack_plan(n: usize, byzantine: usize, crashes: usize, seed: u64) -> FaultPlan {
    let mut rng = StdRng::seed_from_u64(seed);
    FaultPlan::random(
        n,
        byzantine,
        crashes,
        ByzantineStrategy::FabricateHighTimestamp { value: 0xDEAD },
        &mut rng,
    )
}

fn run_case(name: &str, system: &impl QuorumSystem, b: usize, plan: FaultPlan) {
    let byz = plan.byzantine_count();
    let crashes = plan.crash_count();
    // One sequential client: every read is checked against the last write.
    let service = LoopbackService::spawn(&plan, 1, 7);
    let config = ServiceConfig {
        clients: 1,
        ops_per_client: 1500,
        write_fraction: 0.3,
        seed: 7,
    };
    let report = run_service(&service, system, b, &config);
    println!(
        "{name:<34} byz={byz:<3} crashes={crashes:<3} reads={:<5} violations={:<3} unavailable={:<5} max-load={:.3}",
        report.ops.reads,
        report.ops.safety_violations(),
        report.ops.unavailable,
        report.max_empirical_load()
    );
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("single-writer register over b-masking quorum systems");
    println!("(every row: 1500 operations, fabricating Byzantine servers + crashes)\n");

    // Within the masking bound: all constructions must report zero violations.
    println!("-- attacks within the design bound (b Byzantine, few crashes) --");
    let thresh = ThresholdSystem::minimal_masking(3)?; // n = 13
    run_case(
        "Threshold(10-of-13), b=3",
        &thresh,
        3,
        attack_plan(13, 3, 1, 1),
    );

    let mgrid = MGridSystem::new(7, 3)?; // n = 49
    run_case("M-Grid(49), b=3", &mgrid, 3, attack_plan(49, 3, 4, 2));

    let rt = RtSystem::new(4, 3, 3)?; // n = 64, b = 3
    run_case("RT(4,3) depth 3, b=3", &rt, 3, attack_plan(64, 3, 6, 3));

    let boost = BoostFppSystem::new(3, 3)?; // n = 169, b = 3
    run_case("boostFPP(q=3, b=3)", &boost, 3, attack_plan(169, 3, 20, 4));

    let mpath = MPathSystem::new(9, 4)?; // n = 81, b = 4
    run_case("M-Path(81), b=4", &mpath, 4, attack_plan(81, 4, 5, 5));

    // Beyond the masking bound: fabricated values can reach the safety threshold.
    println!("\n-- attack beyond the design bound (2b+1 colluding fabricators) --");
    run_case(
        "Threshold(10-of-13), b=3, 7 byz",
        &thresh,
        3,
        attack_plan(13, 7, 0, 6),
    );

    // Crashes beyond the resilience: safety holds but operations stall.
    println!("\n-- crashes beyond the resilience (availability loss, never unsafety) --");
    let small = ThresholdSystem::minimal_masking(1)?; // n = 5, tolerates 1 crash
    run_case(
        "Threshold(4-of-5), b=1, 2 crash",
        &small,
        1,
        attack_plan(5, 0, 2, 7),
    );

    println!("\ninterpretation:");
    println!(" * within the bound, every construction masks the attack (0 violations);");
    println!(" * with more than b fabricators, violations appear — the 2b+1 intersection");
    println!("   requirement of Definition 3.5 is tight;");
    println!(" * with more crashes than the resilience f, operations become unavailable");
    println!("   but reads that do complete remain correct.");
    Ok(())
}
