//! Quickstart: build b-masking quorum systems, inspect their measures, and run the
//! replicated register protocol on top of one.
//!
//! Run with: `cargo run --example quickstart`

use byzantine_quorums::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== Byzantine quorum systems quickstart ==\n");

    // 1. Build the paper's Figure 1 instance: a 7x7 M-Grid masking b = 3 failures.
    let mgrid = MGridSystem::new(7, 3)?;
    println!("system        : {}", mgrid.name());
    println!("universe size : {}", mgrid.universe_size());
    println!("masks         : b = {}", mgrid.masking_b());
    println!("resilience    : f = {} crash failures", mgrid.resilience());
    println!("quorum size   : {}", mgrid.min_quorum_size());
    println!("load          : {:.4}", mgrid.analytic_load());
    println!(
        "load lower bnd: {:.4}  (Corollary 4.2)",
        mgrid.load_lower_bound()
    );

    // 2. Verify the masking property exactly on the explicit quorum list.
    let explicit = mgrid.to_explicit(1_000_000)?;
    println!("\nexplicit quorums        : {}", explicit.num_quorums());
    println!(
        "min pairwise intersection: {} (need >= 2b+1 = {})",
        min_intersection_size(explicit.quorums()),
        2 * mgrid.masking_b() + 1
    );
    println!(
        "exactly b-masking?       : {}",
        is_b_masking(explicit.quorums(), 49, 3)
    );
    let (lp_load, _) = optimal_load(explicit.quorums(), 49)?;
    println!("exact LP load            : {lp_load:.4}");

    // 3. Compare against other constructions at similar scale.
    println!("\n== other constructions over ~49-1024 servers ==");
    let rt = RtSystem::new(4, 3, 3)?;
    let boost = BoostFppSystem::new(3, 4)?;
    let mpath = MPathSystem::new(7, 3)?;
    for sys in [&rt as &dyn AnalyzedConstruction, &boost, &mpath] {
        println!(
            "{:<28} n={:<5} b={:<3} f={:<4} load={:.4} (x{:.2} of optimal)",
            sys.name(),
            sys.universe_size(),
            sys.masking_b(),
            sys.resilience(),
            sys.analytic_load(),
            sys.load_optimality_ratio(),
        );
    }

    // 4. Run the replicated register over the M-Grid with a Byzantine server inside.
    println!("\n== replicated register over {} ==", mgrid.name());
    let plan = FaultPlan::none(49)
        .with_byzantine(10, ByzantineStrategy::FabricateHighTimestamp { value: 666 })
        .with_byzantine(24, ByzantineStrategy::Equivocate)
        .with_byzantine(33, ByzantineStrategy::StaleReplay)
        .with_crashed(0);
    // One sequential client: every read is checked against the last write.
    let service = LoopbackService::spawn(&plan, 1, 2024);
    let config = ServiceConfig {
        clients: 1,
        ops_per_client: 2000,
        write_fraction: 0.25,
        writers: 1,
        seed: 2024,
    };
    let report = run_service(&service, &mgrid, 3, &config);
    println!("writes completed   : {}", report.writes_completed);
    println!("reads completed    : {}", report.reads_completed);
    println!("safety violations  : {}", report.safety_violations);
    println!("unavailable ops    : {}", report.unavailable_operations);
    println!("empirical max load : {:.4}", report.max_empirical_load());
    assert!(
        report.is_safe(),
        "masking must hold with <= b Byzantine servers"
    );
    println!("\nthe register stayed consistent despite 3 Byzantine servers and a crash");
    Ok(())
}
