//! Pricing oracles for the column-generation load engine.
//!
//! The load LP has one variable per quorum, which is exponential for every
//! large-`n` construction of the paper. Column generation sidesteps the
//! enumeration: a restricted master LP (`bqs_lp::packing`) works over a small
//! set of quorums and asks a *pricing oracle* — given non-negative per-server
//! prices `y`, find the quorum of minimum total price — for improving columns.
//! Every paper construction but M-Path answers that question exactly in
//! polynomial time from its structure (smallest-`k` prefix for thresholds,
//! cheapest rows × columns for the grids, cheapest line for the FPP,
//! recursion for RT, composition for boostFPP), which is what makes
//! certified `L(Q)` at `n = 1024` possible without ever materialising a
//! quorum list.
//!
//! The oracle also *certifies*: for any prices `y ≥ 0` and any access
//! strategy `w`, the busiest server's load is at least the `y`-weighted
//! average load, which is at least `min_Q y(Q) / Σ_u y_u`. The engine in
//! [`crate::load::optimal_load_oracle`] therefore reports a rigorous
//! lower bound alongside the strategy it builds, and terminates only when the
//! two meet (gap ≤ tolerance).

use crate::bitset::ServerSet;
use crate::quorum::{ExplicitQuorumSystem, QuorumSystem};

/// A pricing oracle over a quorum system: the separation routine of the dual
/// covering LP, and the column generator of the primal packing LP.
///
/// Implementations must return a **true minimiser over the system's quorum
/// set**: the certified lower bound of the load engine is only valid for
/// exact oracles, so an oracle that cannot find the true minimiser declines.
/// The returned price must equal the sum of `prices[u]` over the returned
/// set (the engine re-derives it and debug-asserts agreement).
pub trait MinWeightQuorumOracle: QuorumSystem {
    /// The minimum-total-price quorum under the given per-server prices,
    /// together with its price, or `None` when this instance is outside the
    /// oracle's feasible range (callers then fall back to the explicit LP).
    ///
    /// `prices` has one non-negative entry per server of the universe.
    fn min_weight_quorum(&self, prices: &[f64]) -> Option<(ServerSet, f64)>;

    /// A candidate load-optimal strategy from the construction's symmetry —
    /// quorum columns with (unnormalised) positive weights — if one is known.
    ///
    /// This is the column-generation notion of a *warm-start family*: for
    /// the paper's vertex-transitive constructions a perfectly balanced
    /// family of about `n` columns (cyclic windows for thresholds, all
    /// row-window × column-window pairs for the grid family, the lines of an
    /// FPP, aligned product columns for compositions) equalises every
    /// server's load exactly, so the engine can certify it in one oracle
    /// call instead of generating the family one simplex round at a time.
    ///
    /// The engine **never trusts the hint**: it recomputes the strategy's
    /// exact induced load and only accepts it when the pricing-oracle lower
    /// bound meets it; otherwise the columns merely seed the restricted
    /// master and column generation proceeds as usual.
    fn symmetric_strategy_hint(&self) -> Option<(Vec<ServerSet>, Vec<f64>)> {
        None
    }
}

/// Sums `prices` over the members of `set` — the exact price the engine uses
/// for certification, independent of how the oracle computed its own value.
#[must_use]
pub fn quorum_price(set: &ServerSet, prices: &[f64]) -> f64 {
    set.iter().map(|u| prices[u]).sum()
}

impl MinWeightQuorumOracle for ExplicitQuorumSystem {
    /// Exact by linear scan over the materialised quorum list — the generic
    /// fallback, and the reference the structured oracles are tested against.
    fn min_weight_quorum(&self, prices: &[f64]) -> Option<(ServerSet, f64)> {
        assert_eq!(
            prices.len(),
            self.universe_size(),
            "one price per server required"
        );
        self.quorums()
            .iter()
            .map(|q| (q, quorum_price(q, prices)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(q, v)| (q.clone(), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn majority3() -> ExplicitQuorumSystem {
        ExplicitQuorumSystem::from_indices(3, [vec![0, 1], vec![0, 2], vec![1, 2]]).unwrap()
    }

    #[test]
    fn explicit_oracle_scans_for_the_cheapest_quorum() {
        let sys = majority3();
        let (q, v) = sys.min_weight_quorum(&[0.1, 0.5, 0.2]).unwrap();
        assert_eq!(q.to_vec(), vec![0, 2]);
        assert!((v - 0.3).abs() < 1e-12);
        // Uniform prices: any quorum ties at 2/3; the scan is deterministic
        // (first minimum wins).
        let (_, v) = sys.min_weight_quorum(&[1.0 / 3.0; 3]).unwrap();
        assert!((v - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn quorum_price_matches_manual_sum() {
        let set = ServerSet::from_indices(4, [1, 3]);
        assert!((quorum_price(&set, &[9.0, 0.25, 9.0, 0.5]) - 0.75).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "one price per server")]
    fn explicit_oracle_validates_price_length() {
        let _ = majority3().min_weight_quorum(&[0.1, 0.2]);
    }
}
