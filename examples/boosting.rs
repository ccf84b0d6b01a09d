//! Boosting: turning any benign-fault quorum system into a Byzantine-tolerant one.
//!
//! Section 6 of the paper observes that composing *any* regular quorum system `S`
//! over the minimal b-masking threshold `Thresh(3b+1 of 4b+1)` yields a b-masking
//! system over a `(4b+1)`-times larger universe, with all of `S`'s load advantages
//! preserved (Theorem 4.7: parameters multiply). This example boosts three different
//! regular systems — Majority, the Maekawa-style grid (the Grid at `b = 0`: one row
//! plus one column), and a finite projective plane — and compares the results,
//! reproducing the reasoning that singles out the FPP (boostFPP) as the load-optimal
//! choice.
//!
//! Run with: `cargo run --example boosting`

use byzantine_quorums::analysis::TextTable;
use byzantine_quorums::core::composition::ComposedSystem;
use byzantine_quorums::core::QuorumSystem;
use byzantine_quorums::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let b = 2usize;
    let inner = ThresholdSystem::minimal_masking(b)?; // 7-of-9 threshold, masks b = 2
    println!(
        "boosting over the inner system {} (n = {}, IS = {}, MT = {})\n",
        inner.name(),
        inner.universe_size(),
        inner.min_intersection(),
        inner.min_transversal()
    );

    // Three regular outer systems of comparable size.
    let majority = MajoritySystem::new(13)?;
    let grid = GridSystem::new(4, 0)?; // the regular row + column grid
    let fpp = FppSystem::new(3)?;

    let mut table = TextTable::new([
        "boosted system",
        "n",
        "c(Q)",
        "IS",
        "masks b",
        "load",
        "load / lower bound",
        "sampled intersections ok",
    ]);

    let mut rng = StdRng::seed_from_u64(11);
    let mut report = |name: String, composed: &dyn QuorumSystem, outer_load: f64| {
        let n = composed.universe_size();
        let is = inner.min_intersection();
        let load = outer_load * inner.analytic_load();
        let lower = byzantine_quorums::core::bounds::load_lower_bound_universal(n, b);
        // Empirically validate the 2b+1 intersections on sampled quorum pairs.
        let mut ok = true;
        for _ in 0..50 {
            let q1 = composed.sample_quorum(&mut rng);
            let q2 = composed.sample_quorum(&mut rng);
            if q1.intersection_size(&q2) < 2 * b + 1 {
                ok = false;
            }
        }
        table.push_row([
            name,
            n.to_string(),
            composed.min_quorum_size().to_string(),
            is.to_string(),
            b.to_string(),
            format!("{load:.4}"),
            format!("{:.2}", load / lower),
            ok.to_string(),
        ]);
    };

    let boosted_majority = ComposedSystem::new(majority.clone(), inner.clone());
    report(
        boosted_majority.name(),
        &boosted_majority,
        majority.analytic_load(),
    );

    let boosted_grid = ComposedSystem::new(grid.clone(), inner.clone());
    report(boosted_grid.name(), &boosted_grid, grid.analytic_load());

    let boost_fpp = BoostFppSystem::new(3, b)?;
    report(boost_fpp.name(), &boost_fpp, fpp.analytic_load());

    println!("{}", table.render());

    println!(
        "\nall three boosted systems mask b = {b} Byzantine failures (intersections of the\n\
         outer system multiply with the threshold's 2b+1 = {}), but their loads differ:\n\
         the boosted majority inherits the majority's ~1/2 load, the boosted grid gets\n\
         ~2/sqrt(n_outer), and the boosted FPP — the paper's boostFPP — achieves the\n\
         optimal ~3/(4q), the closest to the universal lower bound.",
        2 * b + 1
    );

    // Theorem 4.7 in action: verify the availability composition numerically.
    let p = 0.1;
    let inner_fp = inner.crash_probability(p);
    let outer_fp_at_inner = 1.0 - (1.0 - inner_fp).powi(4); // one FPP(3) line of 4 copies
    println!(
        "\navailability composition at p = {p}: Fp(inner) = {inner_fp:.5}, so a single\n\
         FPP line of 4 copies fails with probability <= {outer_fp_at_inner:.5} — the\n\
         boostFPP bound of Proposition 6.3 follows exactly this structure."
    );
    Ok(())
}
