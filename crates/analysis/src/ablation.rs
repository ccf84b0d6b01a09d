//! Ablations of the library's own algorithmic choices (DESIGN.md §4).
//!
//! * [`transversal_ablation`] — greedy hitting-set upper bound versus the exact
//!   branch-and-bound `MT(Q)`: how often the cheap bound is already tight, and how
//!   far off it can be (it seeds and prunes the exact search, so its quality matters
//!   for running time).
//! * [`mpath_discovery_ablation`] — the straight-line quorum discovery of
//!   Proposition 7.2 versus general flow discovery (the path kernel
//!   [`min_cost_crossings`]) on the M-Path grid: success rate of the cheap path as
//!   the crash probability grows (beyond it the flow fallback is required for
//!   availability).

use rand::rngs::StdRng;
use rand::SeedableRng;

use bqs_constructions::prelude::*;
use bqs_core::quorum::QuorumSystem;
use bqs_core::transversal::{greedy_transversal, min_transversal_size};
use bqs_graph::disjoint_paths::{find_straight_disjoint_paths, min_cost_crossings};
use bqs_graph::grid::Axis;
use bqs_graph::percolation::PercolationEstimator;

/// One row of the greedy-versus-exact transversal ablation.
#[derive(Debug, Clone)]
pub struct TransversalAblation {
    /// Construction the explicit instance came from.
    pub system: String,
    /// Size of the greedy transversal (upper bound on `MT`).
    pub greedy: usize,
    /// Exact minimal transversal size.
    pub exact: usize,
}

/// Compares the greedy and exact transversal sizes on explicit instances of every
/// construction small enough to materialise.
#[must_use]
pub fn transversal_ablation() -> Vec<TransversalAblation> {
    let mut rows = Vec::new();
    let mut push = |name: String, quorums: &[bqs_core::bitset::ServerSet], n: usize| {
        rows.push(TransversalAblation {
            system: name,
            greedy: greedy_transversal(quorums, n).len(),
            exact: min_transversal_size(quorums, n),
        });
    };
    let t = ThresholdSystem::minimal_masking(2).expect("valid");
    let te = t.to_explicit(100_000).expect("small");
    push(t.name(), te.quorums(), t.universe_size());

    let g = GridSystem::new(5, 1).expect("valid");
    let ge = g.to_explicit(100_000).expect("small");
    push(g.name(), ge.quorums(), g.universe_size());

    let m = MGridSystem::new(6, 2).expect("valid");
    let me = m.to_explicit(100_000).expect("small");
    push(m.name(), me.quorums(), m.universe_size());

    let rt = RtSystem::new(4, 3, 2).expect("valid");
    let rte = rt.to_explicit(100_000).expect("small");
    push(rt.name(), rte.quorums(), rt.universe_size());

    let fpp = FppSystem::new(3).expect("valid");
    let fe = fpp.to_explicit().expect("small");
    push(fpp.name(), fe.quorums(), fpp.universe_size());

    rows
}

/// One row of the M-Path discovery ablation.
#[derive(Debug, Clone)]
pub struct MPathDiscoveryAblation {
    /// Per-server crash probability.
    pub p: f64,
    /// Fraction of trials where straight lines alone produced a full quorum.
    pub straight_success_rate: f64,
    /// Fraction of trials where flow discovery (the path kernel) produced a
    /// full quorum.
    pub maxflow_success_rate: f64,
    /// Number of trials.
    pub trials: usize,
}

/// Measures how far the straight-line strategy (Proposition 7.2) carries quorum
/// discovery as failures accumulate, against the general flow discovery.
#[must_use]
pub fn mpath_discovery_ablation(
    side: usize,
    b: usize,
    ps: &[f64],
    trials: usize,
    seed: u64,
) -> Vec<MPathDiscoveryAblation> {
    let sys = MPathSystem::new(side, b).expect("valid M-Path parameters");
    let k = sys.paths_per_direction();
    let est = PercolationEstimator::new(side);
    let mut rng = StdRng::seed_from_u64(seed);
    ps.iter()
        .map(|&p| {
            let mut straight_ok = 0usize;
            let mut flow_ok = 0usize;
            for _ in 0..trials {
                let alive = est.sample_alive(p, &mut rng);
                let s_lr = find_straight_disjoint_paths(est.grid(), &alive, Axis::LeftRight, k);
                let s_tb = find_straight_disjoint_paths(est.grid(), &alive, Axis::TopBottom, k);
                if s_lr.len() == k && s_tb.len() == k {
                    straight_ok += 1;
                }
                let prices: Vec<f64> = alive
                    .iter()
                    .map(|&a| if a { 1.0 } else { f64::INFINITY })
                    .collect();
                if [Axis::LeftRight, Axis::TopBottom]
                    .into_iter()
                    .all(|axis| min_cost_crossings(est.grid(), &prices, axis, k).len() == k)
                {
                    flow_ok += 1;
                }
            }
            MPathDiscoveryAblation {
                p,
                straight_success_rate: straight_ok as f64 / trials as f64,
                maxflow_success_rate: flow_ok as f64 / trials as f64,
                trials,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn greedy_never_beats_exact_and_is_often_tight() {
        let rows = transversal_ablation();
        assert!(rows.len() >= 5);
        for r in &rows {
            assert!(r.greedy >= r.exact, "{}: greedy below exact?!", r.system);
            assert!(
                r.greedy <= 2 * r.exact,
                "{}: greedy {} is more than twice exact {}",
                r.system,
                r.greedy,
                r.exact
            );
        }
        // On the threshold instance greedy is exactly tight (any k-l+1 servers work).
        let t = rows
            .iter()
            .find(|r| r.system.starts_with("Threshold"))
            .unwrap();
        assert_eq!(t.greedy, t.exact);
    }

    #[test]
    fn straight_lines_degrade_before_maxflow() {
        let rows = mpath_discovery_ablation(8, 2, &[0.0, 0.05, 0.15, 0.3], 60, 9);
        // With no failures both succeed always.
        assert_eq!(rows[0].straight_success_rate, 1.0);
        assert_eq!(rows[0].maxflow_success_rate, 1.0);
        for r in &rows {
            assert!(
                r.maxflow_success_rate >= r.straight_success_rate - 1e-12,
                "max-flow can never do worse than straight lines (p={})",
                r.p
            );
        }
        // At moderate p the gap is visible: straight lines break long before the grid
        // stops percolating.
        let mid = &rows[2];
        assert!(
            mid.maxflow_success_rate > mid.straight_success_rate,
            "expected a gap at p=0.15: straight {} vs maxflow {}",
            mid.straight_success_rate,
            mid.maxflow_success_rate
        );
    }
}
